//! The `stbpu` command-line driver.
//!
//! One binary covers the whole reproduction surface: `simulate` (one
//! model × one workload, streaming), `grid` (declarative experiment
//! grids, inline or from TOML/JSON spec files, or named workload suites),
//! `attack` (the executed Table I surface + monitor telemetry), `trace`
//! (generate / inspect / convert trace files in the line or binary
//! `.stbt` format), `figures` (every paper figure/table,
//! shared bit-identically with the `cargo run --bin` shims), `bench`
//! (the deterministic perf harness CI's regression gate runs on) and
//! `serve` (the streaming TCP daemon plus its socket self-test).
//!
//! Model and workload names resolve through the live
//! [`stbpu_engine::ModelRegistry`] and `stbpu_trace::profiles` tables, so
//! every registered predictor × mapper × BTB composition and every trace
//! profile is reachable from the shell without recompiling. The library
//! crate exists so integration tests can exercise parsing and dispatch;
//! the `stbpu` binary is a two-line wrapper over [`run`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod args;
mod attack;
mod bench_cmd;
mod checkpoint_cmd;
mod figures_cmd;
mod grid;
mod help;
mod serve_cmd;
mod simulate;
mod trace_cmd;

use stbpu_engine::EngineError;

/// Why a subcommand failed, deciding the process exit code.
#[derive(Debug)]
pub enum Failure {
    /// Bad arguments / unknown names — exit 2.
    Usage(String),
    /// The work itself failed (I/O, simulation, drift) — exit 1.
    Runtime(String),
}

impl Failure {
    fn exit_code(&self) -> i32 {
        match self {
            Failure::Usage(_) => 2,
            Failure::Runtime(_) => 1,
        }
    }

    fn message(&self) -> &str {
        match self {
            Failure::Usage(m) | Failure::Runtime(m) => m,
        }
    }
}

impl From<String> for Failure {
    fn from(msg: String) -> Self {
        Failure::Usage(msg)
    }
}

impl From<std::io::Error> for Failure {
    fn from(e: std::io::Error) -> Self {
        Failure::Runtime(e.to_string())
    }
}

impl From<stbpu_trace::SourceError> for Failure {
    fn from(e: stbpu_trace::SourceError) -> Self {
        Failure::Runtime(e.to_string())
    }
}

impl From<EngineError> for Failure {
    fn from(e: EngineError) -> Self {
        match e {
            // Name/spec mistakes are usage errors; append the live
            // workload catalog where the engine's message has no
            // suggestion list of its own.
            EngineError::UnknownWorkload(w) => Failure::Usage(format!(
                "unknown workload profile '{w}'\nknown workloads: {}",
                known_workloads().join(", ")
            )),
            EngineError::UnknownSuite(s) => Failure::Usage(format!(
                "unknown workload suite '{s}'\nknown suites: {}",
                stbpu_engine::WorkloadSuite::names().join(", ")
            )),
            e @ (EngineError::UnknownModel { .. }
            | EngineError::BadParam { .. }
            | EngineError::UnknownProtection(_)
            | EngineError::InvalidScenario(_)
            | EngineError::EmptyGrid(_)
            | EngineError::Spec(_)) => Failure::Usage(e.to_string()),
            e @ (EngineError::WorkloadSource(_)
            | EngineError::Sim(_)
            | EngineError::Checkpoint(_)
            | EngineError::Shard(_)
            | EngineError::Phase(_)) => Failure::Runtime(e.to_string()),
        }
    }
}

/// Every registered workload-profile name, in table order.
pub fn known_workloads() -> Vec<&'static str> {
    stbpu_trace::profiles::fig3_workloads()
        .iter()
        .map(|p| p.name)
        .collect()
}

/// Parses and runs one invocation (`argv` excludes the program name).
/// Returns the process exit code; errors are printed to stderr.
pub fn run(argv: &[String]) -> i32 {
    let (cmd, rest) = match argv.first().map(String::as_str) {
        None | Some("--help") | Some("-h") => {
            help::print_main();
            return 0;
        }
        Some("help") => {
            match argv.get(1).map(String::as_str) {
                None => help::print_main(),
                Some(name) => match help::sub(name) {
                    Some(s) => print!("{}", s.help),
                    None => {
                        eprintln!("stbpu: no such command '{name}'");
                        return 2;
                    }
                },
            }
            return 0;
        }
        Some(cmd) => (cmd, &argv[1..]),
    };

    if rest.iter().any(|t| t == "--help" || t == "-h") {
        match help::sub(cmd) {
            Some(s) => {
                print!("{}", s.help);
                if matches!(cmd, "simulate" | "grid" | "bench") {
                    println!();
                    help::print_models();
                    println!();
                    help::print_workloads();
                }
                if cmd == "grid" {
                    println!();
                    help::print_suites();
                }
                if cmd == "figures" {
                    println!();
                    help::print_figures();
                }
                return 0;
            }
            None => {
                eprintln!("stbpu: no such command '{cmd}'");
                return 2;
            }
        }
    }

    let result = match cmd {
        "simulate" => simulate::run(rest),
        "grid" => grid::run(rest),
        "attack" => attack::run(rest),
        "trace" => trace_cmd::run(rest),
        "figures" => figures_cmd::run(rest),
        "bench" => bench_cmd::run(rest),
        "checkpoint" => checkpoint_cmd::run(rest),
        "serve" => serve_cmd::run(rest),
        "list" => list(rest),
        other => {
            eprintln!(
                "stbpu: no such command '{other}' (commands: {}; see stbpu --help)",
                help::SUBCOMMANDS
                    .iter()
                    .map(|s| s.name)
                    .collect::<Vec<_>>()
                    .join(", ")
            );
            return 2;
        }
    };

    match result {
        Ok(()) => 0,
        Err(f) => {
            eprintln!("stbpu {cmd}: {}", f.message());
            if matches!(f, Failure::Usage(_)) {
                eprintln!("(see stbpu help {cmd})");
            }
            f.exit_code()
        }
    }
}

fn list(rest: &[String]) -> Result<(), Failure> {
    let what = args::Args::new(rest).finish()?;
    let all = what.is_empty();
    for w in if all {
        vec!["models", "workloads", "suites", "figures"]
    } else {
        what.iter().map(String::as_str).collect()
    } {
        match w {
            "models" => help::print_models(),
            "workloads" => help::print_workloads(),
            "suites" => help::print_suites(),
            "figures" => help::print_figures(),
            other => {
                return Err(Failure::Usage(format!(
                    "unknown catalog '{other}' (models|workloads|suites|figures)"
                )))
            }
        }
        if all {
            println!();
        }
    }
    Ok(())
}
