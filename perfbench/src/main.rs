//! End-to-end and per-layer benchmark of the STBPU reproduction.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Runs one workload for `--seconds` and prints, as the last line of
//! standard output, one JSON object: `correct`, `attempted`, `failed` and
//! `metrics`. `--trace 0` reports the end-to-end metrics; `--trace 1`
//! alternates traced and untraced rounds, adds a short traced pass over
//! every other workload, and reports the per-layer metrics. A diagnostic
//! line (`perfbench-diag {...}`) goes to standard error. See README.md.
//!
//! `perfbench --noise-probe` times one host-noise probe and prints its
//! milliseconds; a run starts itself this way at its start and end.

mod drive;
mod fig3;
mod layers;
mod oracle;
mod replay;
mod runner;
mod serve_wl;
mod sliced;
mod stats;
mod tracer;

use oracle::Ledger;
use runner::{Readings, Tracing, Workload, MIN_SESSIONS};
use stats::{median, noise_probe_in_child_ms, noise_probe_ms, peak_rss_mb, quantile, PROBE_FLAG};
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use tracer::Tracer;

const WORKLOADS: [&str; 4] = [
    "fig3-generated",
    "cbp-replay",
    "serve-sessions",
    "sliced-stbt",
];

/// Per-run scratch (staged traces) and the traced runs' span files live
/// here, relative to the directory the benchmark runs from.
const WORK_DIR: &str = ".bench_work";

struct Args {
    workload: &'static str,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    WORKLOADS
                        .into_iter()
                        .find(|w| *w == value)
                        .ok_or_else(|| format!("unknown workload {value}; known: {WORKLOADS:?}"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|_| "--seed needs an integer")?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .ok()
                        .filter(|s| *s > 0.0)
                        .ok_or("--seconds needs a positive number")?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace needs 0 or 1".to_string()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

fn make(name: &str, seed: u64, dir: &Path) -> Box<dyn Workload> {
    match name {
        "fig3-generated" => Box::new(fig3::Fig3::new(seed)),
        "cbp-replay" => Box::new(replay::Replay::new(seed, dir)),
        "serve-sessions" => Box::new(serve_wl::Serve::new(seed)),
        _ => Box::new(sliced::Sliced::new(seed, dir)),
    }
}

struct Outcome {
    metrics: Vec<(String, f64, &'static str)>,
    ledger: Ledger,
    diag: String,
}

fn run_plain(args: &Args, dir: &Path) -> Result<Outcome, String> {
    let mut w = make(args.workload, args.seed, dir);
    let mut t = Tracer::new(false);
    let timed = runner::run_timed(w.as_mut(), args.seconds, MIN_SESSIONS, Tracing::Off, &mut t)?;
    drop(w);
    let mut ms = timed.plain.session_ms.clone();
    let mut reps = timed.setup_reps_s.clone();
    let metrics = vec![
        ("branches_per_s".into(), timed.plain.branches_per_s(), "1/s"),
        ("session_p50_ms".into(), quantile(&mut ms, 0.5), "ms"),
        ("session_p90_ms".into(), quantile(&mut ms, 0.9), "ms"),
        ("setup_s".into(), median(&mut reps), "s"),
        ("peak_rss_mb".into(), peak_rss_mb(), "MB"),
    ];
    let diag = format!(
        "\"rounds\":{},\"sessions\":{},\"setup_reps_s\":{:?},\"round_s\":{:?}",
        timed.rounds, timed.plain.attempted, timed.setup_reps_s, timed.round_s
    );
    Ok(Outcome {
        metrics,
        ledger: timed.plain,
        diag,
    })
}

fn run_traced(args: &Args, dir: &Path) -> Result<Outcome, String> {
    let mut t = Tracer::new(true);
    let mut readings = Readings::new();
    let mut w = make(args.workload, args.seed, dir);
    let timed = runner::run_timed(
        w.as_mut(),
        args.seconds,
        MIN_SESSIONS,
        Tracing::Alternate,
        &mut t,
    )?;
    w.probe(&mut t, &mut readings)?;
    drop(w);
    let mut ledger = Ledger::default();
    ledger.merge(&timed.plain);
    ledger.merge(&timed.traced);
    for other in WORKLOADS.into_iter().filter(|o| *o != args.workload) {
        let mut w = make(other, args.seed, dir);
        ledger.merge(&runner::run_side(w.as_mut(), &mut t)?);
        w.probe(&mut t, &mut readings)?;
    }
    let overhead = timed.plain.branches_per_s() - timed.traced.branches_per_s();
    let metrics = layers::metrics(&t, &readings, overhead);
    let spans =
        Path::new(WORK_DIR).join(format!("spans-{}-seed{}.jsonl", args.workload, args.seed));
    std::fs::write(&spans, t.to_jsonl()).map_err(|e| format!("{}: {e}", spans.display()))?;
    let diag = format!(
        "\"rounds\":{},\"untraced_branches_per_s\":{},\"traced_branches_per_s\":{},\"spans\":{},\
         \"spans_file\":\"{}\"",
        timed.rounds,
        timed.plain.branches_per_s(),
        timed.traced.branches_per_s(),
        t.spans().len(),
        spans.display()
    );
    Ok(Outcome {
        metrics,
        ledger,
        diag,
    })
}

fn main() -> ExitCode {
    if std::env::args().nth(1).as_deref() == Some(PROBE_FLAG) {
        println!("{}", noise_probe_ms());
        return ExitCode::SUCCESS;
    }
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>");
            return ExitCode::from(2);
        }
    };
    let dir = PathBuf::from(WORK_DIR).join(format!("run-{}", std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&dir) {
        eprintln!("perfbench: cannot create {}: {e}", dir.display());
        return ExitCode::FAILURE;
    }
    let probe_start_ms = noise_probe_in_child_ms();
    let outcome = if args.trace {
        run_traced(&args, &dir)
    } else {
        run_plain(&args, &dir)
    };
    let probe_end_ms = noise_probe_in_child_ms();
    let _ = std::fs::remove_dir_all(&dir);
    let outcome = match outcome {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {}: {e}", args.workload);
            return ExitCode::FAILURE;
        }
    };
    let l = &outcome.ledger;
    let json = |ms: Option<f64>| ms.map_or("null".to_string(), |v| v.to_string());
    let (probe_start_ms, probe_end_ms) = (json(probe_start_ms), json(probe_end_ms));
    eprintln!(
        "perfbench-diag {{\"workload\":\"{}\",\"seed\":{},\"trace\":{},\"probe_start_ms\":{probe_start_ms},\
         \"probe_end_ms\":{probe_end_ms},\"failed_share\":{},{}}}",
        args.workload,
        args.seed,
        args.trace,
        l.failed as f64 / l.attempted.max(1) as f64,
        outcome.diag
    );
    let mut metrics = String::new();
    for (i, (name, value, unit)) in outcome.metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { "," };
        let value = if value.is_finite() {
            value.to_string()
        } else {
            "null".to_string()
        };
        let _ = write!(
            metrics,
            "{sep}\"{name}\":{{\"value\":{value},\"unit\":\"{unit}\"}}"
        );
    }
    println!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{metrics}}}}}",
        l.failed == 0 && l.attempted > 0,
        l.attempted,
        l.failed
    );
    ExitCode::SUCCESS
}
