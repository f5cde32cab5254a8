//! `stbpu bench` — the deterministic perf harness behind CI's regression
//! gate.
//!
//! Three suites share one fixed scheme set (a fourth, `serve`, drives
//! the socket daemon instead — see [`run_serve`]):
//!
//! * `--suite default` streams each scheme once through a batched
//!   `SimSession`, measuring wall-clock time, branches/second and OAE.
//!   Every scheme writes a `BENCH_<name>.json` record (archived by CI as
//!   a perf-trajectory artifact); OAE is bit-deterministic for a fixed
//!   (workload, branches, seed) configuration, so `--check` gates
//!   regressions against the committed `ci/baseline.json` with a tight
//!   tolerance while wall-clock numbers remain informational.
//! * `--suite throughput` runs each scheme through both the batched
//!   session path (`run`, reused event buffers, no-observer fast path)
//!   and the unbatched reference path (`next_event` + `feed` per event),
//!   hard-fails unless both produce bit-identical results, and emits
//!   `BENCH_throughput.json` with branches/s for each path. Against a
//!   baseline (`--check`) throughput drift produces *warn-only* notes —
//!   wall-clock is machine-dependent, so the trajectory accumulates
//!   before anything gates on it.
//! * `--suite ingest` writes one generated trace to disk in both on-disk
//!   formats (line text and binary `.stbt`), measures parse-only and
//!   parse+simulate branches/s per format, hard-fails unless both files
//!   ingest to bit-identical reports, and emits `BENCH_ingest.json`
//!   (file sizes, size ratio, ingest speedup).
//! * `--suite shard` times the sequential run against two-pass sharded
//!   runs at N = 2 and 4 (cold and checkpoint-cache-warm), hard-fails
//!   unless every sharded report is bit-identical to the sequential one,
//!   measures `.stck` save/load throughput, and emits `BENCH_shard.json`
//!   (scaling curve, warm-resume speedup, core count) — see [`run_shard`].

use crate::args::Args;
use crate::Failure;
use stbpu_engine::minijson::{escape, Json};
use stbpu_engine::{ModelRegistry, Workload};
use stbpu_sim::{Protection, SessionOptions, SimReport, SimSession, Warmup};
use std::io::Write;
use std::time::Instant;

/// The benchmark suite: one representative scheme per protection class,
/// the heaviest direction predictor (TAGE64) under secret tokens, and the
/// CBP-class family (TAGE-SC-L + ITTAGE, and the ITTAGE-only ablation) in
/// both unprotected and secret-token form.
const SCHEMES: &[(&str, &str, Protection)] = &[
    ("baseline", "skl", Protection::Unprotected),
    ("stbpu", "st_skl@r=0.05", Protection::Stbpu),
    ("ucode1", "skl", Protection::Ucode1),
    ("conservative", "conservative", Protection::Conservative),
    ("st_tage64", "st_tage64", Protection::Stbpu),
    ("tagescl", "tagescl", Protection::Unprotected),
    ("st_tagescl", "st_tagescl", Protection::Stbpu),
    ("ittage", "ittage", Protection::Unprotected),
    ("st_ittage", "st_ittage", Protection::Stbpu),
];

/// Relative branches/s drift that triggers a (warn-only) throughput note.
const THROUGHPUT_NOTE_FRAC: f64 = 0.10;

/// The documented absolute OAE error bound for phase-based estimation
/// (README "Phase clustering"): the simpoint suite hard-fails any scheme
/// whose |estimated − full| OAE exceeds it, and the CI reference gate
/// inherits it as the widest acceptable drift.
const SIMPOINT_OAE_ERROR_BOUND: f64 = 0.02;

/// One measured scheme.
struct Record {
    name: &'static str,
    model: String,
    protection: &'static str,
    elapsed_s: f64,
    branches_per_s: f64,
    oae: f64,
    branches: u64,
    /// Unbatched reference path (throughput suite only).
    single_branches_per_s: Option<f64>,
}

impl Record {
    fn to_json(&self, workload: &str, requested: usize, seed: u64) -> String {
        let single = match self.single_branches_per_s {
            Some(s) => format!(
                ",\"single_branches_per_s\":{:.0},\"batch_speedup\":{:.3}",
                s,
                self.branches_per_s / s.max(1e-12)
            ),
            None => String::new(),
        };
        format!(
            "{{\"name\":\"{}\",\"model\":{},\"protection\":\"{}\",\"workload\":{},\
             \"branches\":{},\"requested_branches\":{requested},\"seed\":{seed},\
             \"elapsed_s\":{:.6},\"branches_per_s\":{:.0},\"oae\":{}{single}}}",
            self.name,
            escape(&self.model),
            self.protection,
            escape(workload),
            self.branches,
            self.elapsed_s,
            self.branches_per_s,
            self.oae,
        )
    }
}

/// Which measurement suite runs.
#[derive(Clone, Copy, PartialEq)]
enum Suite {
    Default,
    Throughput,
    Ingest,
    Shard,
    Serve,
    Simpoint,
}

/// Runs one scheme to completion; `batched` selects the batched session
/// path (`run`) or the unbatched per-event reference (`next_event` +
/// `feed`). Both must produce bit-identical reports.
fn measure(
    registry: &ModelRegistry,
    model_spec: &str,
    policy: Protection,
    w: &Workload,
    seed: u64,
    branches: usize,
    batched: bool,
) -> Result<(SimReport, f64), Failure> {
    let mut model = registry.build(model_spec, seed).map_err(Failure::from)?;
    let mut source = w.open(seed, branches).map_err(Failure::from)?;
    let mut session = SimSession::new(
        &mut model,
        policy,
        SessionOptions {
            warmup: Warmup::Branches(0),
            ..SessionOptions::default()
        },
    )
    .map_err(|e| Failure::from(stbpu_engine::EngineError::from(e)))?;
    let start = Instant::now();
    if batched {
        session
            .run(source.as_mut())
            .map_err(|e| Failure::Runtime(e.to_string()))?;
    } else {
        // The pre-batching hot loop, kept as the reference the batched
        // path must reproduce bit-for-bit.
        while let Some(ev) = source
            .next_event()
            .map_err(|e| Failure::Runtime(e.to_string()))?
        {
            session
                .feed(&ev)
                .map_err(|e| Failure::Runtime(e.to_string()))?;
        }
    }
    let report = session.finish();
    let elapsed_s = start.elapsed().as_secs_f64();
    Ok((report, elapsed_s))
}

/// Asserts two runs of the same scheme produced bit-identical results.
fn assert_identical(name: &str, batched: &SimReport, single: &SimReport) -> Result<(), Failure> {
    let same = batched.oae == single.oae
        && batched.branches == single.branches
        && batched.mispredictions == single.mispredictions
        && batched.evictions == single.evictions
        && batched.flushes == single.flushes
        && batched.rerandomizations == single.rerandomizations;
    if same {
        Ok(())
    } else {
        Err(Failure::Runtime(format!(
            "scheme '{name}': batched and single-event paths diverged \
             (batched OAE {} / {} branches vs single OAE {} / {} branches) — \
             the batching fast path is broken",
            batched.oae, batched.branches, single.oae, single.branches
        )))
    }
}

pub fn run(rest: &[String]) -> Result<(), Failure> {
    let mut a = Args::new(rest);
    let quick = a.flag("--quick");
    let json = a.flag("--json");
    let suite = match a.opt("--suite")?.as_deref() {
        None | Some("default") => Suite::Default,
        Some("throughput") => Suite::Throughput,
        Some("ingest") => Suite::Ingest,
        Some("shard") => Suite::Shard,
        Some("serve") => Suite::Serve,
        Some("simpoint") => Suite::Simpoint,
        Some(other) => {
            return Err(Failure::Usage(format!(
                "unknown suite '{other}' (default|throughput|ingest|shard|serve|simpoint)"
            )))
        }
    };
    let clients_opt: Option<usize> = a.opt_parse("--clients", "an integer")?;
    let sessions_opt: Option<usize> = a.opt_parse("--sessions", "an integer")?;
    if suite != Suite::Serve && (clients_opt.is_some() || sessions_opt.is_some()) {
        return Err(Failure::Usage(
            "--clients/--sessions apply only to the serve suite".to_string(),
        ));
    }
    let estimate_only = a.flag("--estimate-only");
    let update_reference = a.opt("--update-reference")?;
    if suite != Suite::Simpoint && (estimate_only || update_reference.is_some()) {
        return Err(Failure::Usage(
            "--estimate-only/--update-reference apply only to the simpoint suite".to_string(),
        ));
    }
    let out_dir = a
        .opt("--out-dir")?
        .unwrap_or_else(|| "bench-artifacts".to_string());
    // The ingest suite defaults to the paper-scale 10M-branch trace the
    // format was built for; everything else keeps the 2M default.
    let default_branches = match (suite, quick) {
        // The serve suite streams branches × clients × sessions, so its
        // per-session defaults sit well below the single-run suites.
        (Suite::Serve, true) => 50_000,
        (Suite::Serve, false) => 200_000,
        // The shard and simpoint suites are the paper-scale 10M-branch
        // comparisons; --quick keeps the same shape at CI size.
        (Suite::Shard | Suite::Simpoint, true) => 1_000_000,
        (Suite::Shard | Suite::Simpoint, false) => 10_000_000,
        (_, true) => 200_000,
        (Suite::Ingest, false) => 10_000_000,
        (_, false) => 2_000_000,
    };
    let branches: usize = a
        .opt_parse("--branches", "an integer")?
        .unwrap_or(default_branches);
    let seed: u64 = a.opt_parse("--seed", "an integer")?.unwrap_or(42);
    let workload = a
        .opt("--workload")?
        .unwrap_or_else(|| "541.leela".to_string());
    let check = a.opt("--check")?;
    let update = a.opt("--update-baseline")?;
    let tolerance: f64 = a.opt_parse("--tolerance", "a number")?.unwrap_or(1e-9);
    a.finish_empty()?;
    if check.is_some() && update.is_some() {
        return Err(Failure::Usage(
            "--check and --update-baseline are mutually exclusive".to_string(),
        ));
    }

    let w = Workload::Named(workload.clone());
    w.validate().map_err(Failure::from)?;
    let registry = ModelRegistry::standard();

    if suite == Suite::Serve {
        if update.is_some() {
            return Err(Failure::Usage(
                "--update-baseline applies to the default/throughput suites; the serve \
                 suite hard-gates every streamed report bit-identical against an offline \
                 run in-process"
                    .to_string(),
            ));
        }
        return run_serve(
            &workload,
            branches,
            seed,
            clients_opt.unwrap_or(8),
            sessions_opt.unwrap_or(2),
            &out_dir,
            json,
            check.as_deref(),
        );
    }

    if suite == Suite::Simpoint {
        if update.is_some() {
            return Err(Failure::Usage(
                "--update-baseline applies to the default/throughput suites; the simpoint \
                 suite refreshes its own reference via --update-reference"
                    .to_string(),
            ));
        }
        return run_simpoint(
            &registry,
            &workload,
            branches,
            seed,
            &out_dir,
            json,
            check.as_deref(),
            update_reference.as_deref(),
            tolerance,
            estimate_only,
        );
    }

    if suite == Suite::Shard {
        if update.is_some() {
            return Err(Failure::Usage(
                "--update-baseline applies to the default/throughput suites; the shard \
                 suite hard-gates every sharded report bit-identical against the \
                 sequential run in-process"
                    .to_string(),
            ));
        }
        return run_shard(
            &registry,
            &workload,
            branches,
            seed,
            &out_dir,
            json,
            check.as_deref(),
        );
    }

    if suite == Suite::Ingest {
        if update.is_some() {
            return Err(Failure::Usage(
                "--update-baseline applies to the default/throughput suites; the ingest \
                 suite hard-gates on line vs binary OAE equality and checks OAE against \
                 the default-suite baseline via --check"
                    .to_string(),
            ));
        }
        return run_ingest(
            &registry,
            &workload,
            branches,
            seed,
            &out_dir,
            json,
            check.as_deref(),
            tolerance,
        );
    }

    let mut records = Vec::new();
    for &(name, model_spec, policy) in SCHEMES {
        let (report, elapsed_s) = measure(&registry, model_spec, policy, &w, seed, branches, true)?;
        let single_branches_per_s = if suite == Suite::Throughput {
            let (single, single_s) =
                measure(&registry, model_spec, policy, &w, seed, branches, false)?;
            assert_identical(name, &report, &single)?;
            Some(single.branches as f64 / single_s.max(1e-12))
        } else {
            None
        };
        records.push(Record {
            name,
            model: report.model,
            protection: report.protection,
            elapsed_s,
            branches_per_s: report.branches as f64 / elapsed_s.max(1e-12),
            oae: report.oae,
            branches: report.branches,
            single_branches_per_s,
        });
    }

    std::fs::create_dir_all(&out_dir)?;
    let rows: Vec<String> = records
        .iter()
        .map(|r| r.to_json(&workload, branches, seed))
        .collect();
    match suite {
        Suite::Default => {
            // Per-scheme BENCH_<name>.json artifacts.
            for r in &records {
                let path = format!("{out_dir}/BENCH_{}.json", r.name);
                let mut f = std::fs::File::create(&path)?;
                writeln!(f, "{}", r.to_json(&workload, branches, seed))?;
            }
        }
        Suite::Throughput => {
            // One combined BENCH_throughput.json trajectory record.
            let path = format!("{out_dir}/BENCH_throughput.json");
            let mut f = std::fs::File::create(&path)?;
            writeln!(
                f,
                "{{\"suite\":\"throughput\",\"workload\":{},\"branches\":{branches},\
                 \"seed\":{seed},\"schemes\":[{}]}}",
                escape(&workload),
                rows.join(",")
            )?;
        }
        Suite::Ingest | Suite::Shard | Suite::Serve | Suite::Simpoint => {
            unreachable!("these suites return early")
        }
    }

    if json {
        println!("[{}]", rows.join(","));
    } else {
        println!(
            "stbpu bench ({}) — {workload}, {branches} branches/scheme, seed {seed}",
            match suite {
                Suite::Default => "default suite",
                Suite::Throughput => "throughput suite: batched vs single-event",
                Suite::Ingest | Suite::Shard | Suite::Serve | Suite::Simpoint =>
                    unreachable!("these suites return early"),
            }
        );
        match suite {
            Suite::Default => {
                println!(
                    "{:<14} {:<18} {:>10} {:>14} {:>10}",
                    "scheme", "model", "elapsed", "branches/s", "OAE"
                );
                for r in &records {
                    println!(
                        "{:<14} {:<18} {:>9.3}s {:>14.0} {:>10.6}",
                        r.name, r.model, r.elapsed_s, r.branches_per_s, r.oae
                    );
                }
                eprintln!("wrote BENCH_<scheme>.json records to {out_dir}/");
            }
            Suite::Throughput => {
                println!(
                    "{:<14} {:<18} {:>14} {:>14} {:>8} {:>10}",
                    "scheme", "model", "batched br/s", "single br/s", "speedup", "OAE"
                );
                for r in &records {
                    let single = r.single_branches_per_s.unwrap_or(0.0);
                    println!(
                        "{:<14} {:<18} {:>14.0} {:>14.0} {:>7.2}x {:>10.6}",
                        r.name,
                        r.model,
                        r.branches_per_s,
                        single,
                        r.branches_per_s / single.max(1e-12),
                        r.oae
                    );
                }
                eprintln!("wrote BENCH_throughput.json to {out_dir}/ (paths bit-identical)");
            }
            Suite::Ingest | Suite::Shard | Suite::Serve | Suite::Simpoint => {
                unreachable!("these suites return early")
            }
        }
    }

    if let Some(path) = update {
        write_baseline(&path, &workload, branches, seed, &records, suite)?;
        eprintln!("baseline written to {path}");
    }
    if let Some(path) = check {
        match suite {
            Suite::Default => {
                check_baseline(&path, &workload, branches, seed, tolerance, &records)?;
                eprintln!("baseline check passed ({path}, tolerance {tolerance:e})");
            }
            Suite::Throughput => {
                // Wall-clock is machine-dependent: drift produces notes,
                // never a failing exit, so the trajectory can accumulate
                // before the gate hardens (see CONTRIBUTING.md).
                throughput_drift_notes("throughput", &path, &records);
            }
            Suite::Ingest | Suite::Shard | Suite::Serve | Suite::Simpoint => {
                unreachable!("these suites return early")
            }
        }
    }
    Ok(())
}

/// One scheme of the ingest suite: parse+simulate throughput for the
/// same trace ingested from the line file vs the binary `.stbt` file.
struct IngestRecord {
    name: &'static str,
    model: String,
    protection: &'static str,
    oae: f64,
    line_branches_per_s: f64,
    bin_branches_per_s: f64,
}

/// Drains a trace file through the batched [`stbpu_trace::EventSource`]
/// path without simulating, returning (branches, elapsed seconds) — the
/// pure ingest cost of the format.
fn scan_file(path: &std::path::Path) -> Result<(u64, f64), Failure> {
    use stbpu_trace::EventSource;
    let mut src =
        stbpu_trace::open_trace_file(path).map_err(|e| Failure::Runtime(e.to_string()))?;
    let mut branches = 0u64;
    let start = Instant::now();
    src.for_each_batch(4_096, |batch| {
        branches += batch
            .iter()
            .filter(|ev| matches!(ev, stbpu_trace::TraceEvent::Branch { .. }))
            .count() as u64;
        Ok::<(), Failure>(())
    })?;
    Ok((branches, start.elapsed().as_secs_f64()))
}

/// The ingest suite: one generated workload written to disk in both
/// formats, then (a) parse-only scan throughput per format — the headline
/// `ingest_speedup`, which the binary format must win by a wide margin —
/// and (b) parse+simulate throughput per scheme per format, hard-failing
/// unless line and binary ingest produce bit-identical reports.
/// Wall-clock per-scheme numbers are sim-bound for heavy predictors, so
/// the parse-only pair is the format comparison; both are recorded in
/// `BENCH_ingest.json`.
#[allow(clippy::too_many_arguments)]
fn run_ingest(
    registry: &ModelRegistry,
    workload: &str,
    branches: usize,
    seed: u64,
    out_dir: &str,
    json: bool,
    check: Option<&str>,
    tolerance: f64,
) -> Result<(), Failure> {
    let dir = std::env::temp_dir().join(format!("stbpu-ingest-{}", std::process::id()));
    std::fs::create_dir_all(&dir)?;
    let result = run_ingest_in(
        registry, workload, branches, seed, out_dir, json, check, tolerance, &dir,
    );
    let _ = std::fs::remove_dir_all(&dir);
    result
}

#[allow(clippy::too_many_arguments)]
fn run_ingest_in(
    registry: &ModelRegistry,
    workload: &str,
    branches: usize,
    seed: u64,
    out_dir: &str,
    json: bool,
    check: Option<&str>,
    tolerance: f64,
    dir: &std::path::Path,
) -> Result<(), Failure> {
    use stbpu_trace::{EventSource, TraceFileFormat, TraceFileWriter, TraceGenerator};
    use std::io::BufWriter;

    let profile = stbpu_trace::profiles::by_name(workload).ok_or_else(|| {
        Failure::from(stbpu_engine::EngineError::UnknownWorkload(workload.into()))
    })?;
    let line_path = dir.join("ingest.trace");
    let bin_path = dir.join("ingest.stbt");

    // One generator stream feeds both writers, so the two files hold the
    // exact same events.
    eprintln!("ingest suite: writing {branches}-branch trace in both formats…");
    let mut source = TraceGenerator::new(profile, seed).into_source(branches);
    let mut lw = TraceFileWriter::new(
        TraceFileFormat::Line,
        BufWriter::new(std::fs::File::create(&line_path)?),
    );
    let mut bw = TraceFileWriter::new(
        TraceFileFormat::Binary,
        BufWriter::new(std::fs::File::create(&bin_path)?),
    );
    lw.header(source.name(), source.branch_hint(), source.thread_count())?;
    bw.header(source.name(), source.branch_hint(), source.thread_count())?;
    source.for_each_batch(4_096, |batch| {
        for ev in batch {
            lw.event(ev)?;
            bw.event(ev)?;
        }
        Ok::<(), Failure>(())
    })?;
    lw.flush()?;
    bw.flush()?;
    drop(lw);
    drop(bw);
    let line_bytes = std::fs::metadata(&line_path)?.len();
    let bin_bytes = std::fs::metadata(&bin_path)?.len();
    let size_ratio = bin_bytes as f64 / (line_bytes as f64).max(1.0);

    // Parse-only scan: the format's ingest cost with simulation factored
    // out entirely.
    let (line_scanned, line_scan_s) = scan_file(&line_path)?;
    let (bin_scanned, bin_scan_s) = scan_file(&bin_path)?;
    if line_scanned != bin_scanned {
        return Err(Failure::Runtime(format!(
            "line and binary files disagree on branch count ({line_scanned} vs {bin_scanned}) \
             — the binary encoder is broken"
        )));
    }
    let line_parse_bps = line_scanned as f64 / line_scan_s.max(1e-12);
    let bin_parse_bps = bin_scanned as f64 / bin_scan_s.max(1e-12);
    let ingest_speedup = bin_parse_bps / line_parse_bps.max(1e-12);

    // Parse+simulate per scheme, both formats, bit-identical or bust.
    let line_w = Workload::File(line_path.clone());
    let bin_w = Workload::File(bin_path.clone());
    let mut records = Vec::new();
    for &(name, model_spec, policy) in SCHEMES {
        let (line_report, line_s) =
            measure(registry, model_spec, policy, &line_w, seed, branches, true)?;
        let (bin_report, bin_s) =
            measure(registry, model_spec, policy, &bin_w, seed, branches, true)?;
        let same = line_report.oae == bin_report.oae
            && line_report.branches == bin_report.branches
            && line_report.mispredictions == bin_report.mispredictions
            && line_report.evictions == bin_report.evictions
            && line_report.flushes == bin_report.flushes
            && line_report.rerandomizations == bin_report.rerandomizations;
        if !same {
            return Err(Failure::Runtime(format!(
                "scheme '{name}': line and binary ingest diverged (line OAE {} / {} branches \
                 vs binary OAE {} / {} branches) — the .stbt round trip is lossy",
                line_report.oae, line_report.branches, bin_report.oae, bin_report.branches
            )));
        }
        records.push(IngestRecord {
            name,
            model: bin_report.model,
            protection: bin_report.protection,
            oae: bin_report.oae,
            line_branches_per_s: line_report.branches as f64 / line_s.max(1e-12),
            bin_branches_per_s: bin_report.branches as f64 / bin_s.max(1e-12),
        });
    }

    // One combined BENCH_ingest.json trajectory record.
    let scheme_rows: Vec<String> = records
        .iter()
        .map(|r| {
            format!(
                "{{\"name\":\"{}\",\"model\":{},\"protection\":\"{}\",\"oae\":{},\
                 \"line_branches_per_s\":{:.0},\"binary_branches_per_s\":{:.0},\
                 \"speedup\":{:.3}}}",
                r.name,
                escape(&r.model),
                r.protection,
                r.oae,
                r.line_branches_per_s,
                r.bin_branches_per_s,
                r.bin_branches_per_s / r.line_branches_per_s.max(1e-12),
            )
        })
        .collect();
    let body = format!(
        "{{\"suite\":\"ingest\",\"workload\":{},\"branches\":{branches},\"seed\":{seed},\
         \"line_bytes\":{line_bytes},\"binary_bytes\":{bin_bytes},\"size_ratio\":{size_ratio:.4},\
         \"line_branches_per_s\":{line_parse_bps:.0},\"binary_branches_per_s\":{bin_parse_bps:.0},\
         \"ingest_speedup\":{ingest_speedup:.3},\"schemes\":[{}]}}",
        escape(workload),
        scheme_rows.join(",")
    );
    std::fs::create_dir_all(out_dir)?;
    let path = format!("{out_dir}/BENCH_ingest.json");
    let mut f = std::fs::File::create(&path)?;
    writeln!(f, "{body}")?;

    if json {
        println!("{body}");
    } else {
        println!(
            "stbpu bench (ingest suite: line vs binary .stbt) — {workload}, \
             {branches} branches, seed {seed}"
        );
        println!(
            "files:  line {:.1} MB, binary {:.1} MB ({:.1}% of line)",
            line_bytes as f64 / 1e6,
            bin_bytes as f64 / 1e6,
            size_ratio * 100.0
        );
        println!(
            "ingest (parse-only): line {:.2}M branches/s, binary {:.2}M branches/s — \
             {ingest_speedup:.1}x",
            line_parse_bps / 1e6,
            bin_parse_bps / 1e6
        );
        println!(
            "{:<14} {:<18} {:>14} {:>14} {:>8} {:>10}",
            "scheme", "model", "line br/s", "binary br/s", "speedup", "OAE"
        );
        for r in &records {
            println!(
                "{:<14} {:<18} {:>14.0} {:>14.0} {:>7.2}x {:>10.6}",
                r.name,
                r.model,
                r.line_branches_per_s,
                r.bin_branches_per_s,
                r.bin_branches_per_s / r.line_branches_per_s.max(1e-12),
                r.oae
            );
        }
        eprintln!("wrote BENCH_ingest.json to {out_dir}/ (line/binary bit-identical per scheme)");
    }

    // The OAE values must also match the default-suite baseline when the
    // run configuration does: file replay is the same stream the
    // generator feeds the default suite.
    if let Some(path) = check {
        let as_records: Vec<Record> = records
            .iter()
            .map(|r| Record {
                name: r.name,
                model: r.model.clone(),
                protection: r.protection,
                elapsed_s: 0.0,
                branches_per_s: r.bin_branches_per_s,
                oae: r.oae,
                branches: branches as u64,
                single_branches_per_s: None,
            })
            .collect();
        check_baseline(path, workload, branches, seed, tolerance, &as_records)?;
        eprintln!("baseline check passed ({path}, tolerance {tolerance:e})");
    }
    Ok(())
}

/// The shard suite: the sequential reference run, then two-pass sharded
/// runs at N = 2 and N = 4 — cold (pass 1 cuts checkpoints, pass 2
/// simulates shards) and warm (boundary checkpoints reused from the
/// cache, pass 1 skipped). Every sharded report is hard-gated
/// bit-identical to the sequential one. The headline `warm_resume_speedup`
/// is sequential wall time over the time to resume the cached
/// last-boundary checkpoint (3/4 of the stream at 4 shards) to the end —
/// the re-simulation work the checkpoint layer avoids on a rerun,
/// meaningful on any core count (the measured `cores` is recorded so
/// pass-2 wall numbers are interpretable). Also measures checkpoint
/// save/load throughput over the real boundary blobs. Emits one
/// `BENCH_shard.json` trajectory record.
fn run_shard(
    registry: &ModelRegistry,
    workload: &str,
    branches: usize,
    seed: u64,
    out_dir: &str,
    json: bool,
    check: Option<&str>,
) -> Result<(), Failure> {
    let dir = std::env::temp_dir().join(format!("stbpu-shard-{}", std::process::id()));
    std::fs::create_dir_all(&dir)?;
    let result = run_shard_in(
        registry, workload, branches, seed, out_dir, json, check, &dir,
    );
    let _ = std::fs::remove_dir_all(&dir);
    result
}

#[allow(clippy::too_many_arguments)]
fn run_shard_in(
    registry: &ModelRegistry,
    workload: &str,
    branches: usize,
    seed: u64,
    out_dir: &str,
    json: bool,
    check: Option<&str>,
    dir: &std::path::Path,
) -> Result<(), Failure> {
    use stbpu_engine::{cut_checkpoints, run_sequential, run_sharded, ShardConfig};
    use stbpu_sim::Checkpoint;

    const MODEL: &str = "st_skl@r=0.05";
    const SHARD_COUNTS: &[usize] = &[2, 4];
    let policy = Protection::Stbpu;
    let warmup = Warmup::Fraction(0.1);
    let w = Workload::Named(workload.to_string());
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);

    // Untimed warm-up: the first simulation in a process pays one-off
    // costs (heap growth, page faults) that measured 3-4x on this
    // workload; every timed run below starts from a warmed process.
    eprintln!("shard suite: untimed process warm-up…");
    let warm_branches = (branches / 10).clamp(10_000.min(branches), branches);
    run_sequential(
        registry,
        MODEL,
        policy,
        seed,
        &w,
        warm_branches,
        warmup,
        None,
        None,
    )
    .map_err(Failure::from)?;

    eprintln!("shard suite: sequential reference over {branches} branches…");
    let start = Instant::now();
    let (seq_report, _) = run_sequential(
        registry, MODEL, policy, seed, &w, branches, warmup, None, None,
    )
    .map_err(Failure::from)?;
    let seq_s = start.elapsed().as_secs_f64();

    struct ShardPoint {
        shards: usize,
        pass1_s: f64,
        cold_s: f64,
        warm_s: f64,
    }
    let mut points = Vec::new();
    let mut ckpt_bytes = 0u64;
    let mut ckpt_count = 0usize;
    let mut save_s = 0.0f64;
    let mut load_s = 0.0f64;
    let mut last_cp: Option<Checkpoint> = None;
    for &n in SHARD_COUNTS {
        let cfg = ShardConfig {
            shards: n,
            warmup,
            interval: None,
            threads: None,
            checkpoint_dir: Some(dir.join(format!("n{n}"))),
        };
        eprintln!("shard suite: N={n} cold (pass 1 + pass 2)…");
        let start = Instant::now();
        let cold = run_sharded(registry, MODEL, policy, seed, &w, branches, &cfg)
            .map_err(Failure::from)?;
        let cold_s = start.elapsed().as_secs_f64();
        assert_identical(&format!("shard x{n} (cold)"), &seq_report, &cold.report)?;
        if cold.cache_hits != 0 {
            return Err(Failure::Runtime(format!(
                "cold N={n} run reported {} cache hits from an empty cache",
                cold.cache_hits
            )));
        }

        eprintln!("shard suite: N={n} warm (cached checkpoints, pass 1 skipped)…");
        let start = Instant::now();
        let warm = run_sharded(registry, MODEL, policy, seed, &w, branches, &cfg)
            .map_err(Failure::from)?;
        let warm_s = start.elapsed().as_secs_f64();
        assert_identical(&format!("shard x{n} (warm)"), &seq_report, &warm.report)?;
        if warm.cache_hits != n - 1 {
            return Err(Failure::Runtime(format!(
                "warm N={n} run reused {} of {} cached boundary checkpoints",
                warm.cache_hits,
                n - 1
            )));
        }

        // Pass 1 in isolation, re-cutting the exact boundaries the run
        // used; its checkpoints also feed the save/load measurement.
        let start = Instant::now();
        let cps = cut_checkpoints(
            registry, MODEL, policy, seed, &w, branches, &cfg, &warm.cuts,
        )
        .map_err(Failure::from)?;
        let pass1_s = start.elapsed().as_secs_f64();
        last_cp = cps.last().cloned().or(last_cp);
        for (i, cp) in cps.iter().enumerate() {
            let path = dir.join(format!("meas-n{n}-{i}.stck"));
            let start = Instant::now();
            cp.save(&path)
                .map_err(|e| Failure::Runtime(e.to_string()))?;
            save_s += start.elapsed().as_secs_f64();
            ckpt_bytes += std::fs::metadata(&path)?.len();
            ckpt_count += 1;
            let start = Instant::now();
            let back = Checkpoint::load(&path).map_err(|e| Failure::Runtime(e.to_string()))?;
            load_s += start.elapsed().as_secs_f64();
            if back.branches_seen != cp.branches_seen {
                return Err(Failure::Runtime(format!(
                    "checkpoint {} round trip changed branches_seen ({} vs {})",
                    path.display(),
                    back.branches_seen,
                    cp.branches_seen
                )));
            }
        }

        points.push(ShardPoint {
            shards: n,
            pass1_s,
            cold_s,
            warm_s,
        });
    }

    let save_mbps = ckpt_bytes as f64 / 1e6 / save_s.max(1e-12);
    let load_mbps = ckpt_bytes as f64 / 1e6 / load_s.max(1e-12);

    // The headline: a rerun that resumes the cached last-boundary
    // checkpoint (at 3/4 of the stream for 4 shards) vs re-simulating
    // from branch 0 — the work the checkpoint layer actually avoids,
    // meaningful on any core count.
    let last_cp =
        last_cp.ok_or_else(|| Failure::Runtime("pass 1 produced no checkpoints".to_string()))?;
    eprintln!(
        "shard suite: resuming the cached checkpoint at branch {}…",
        last_cp.branches_seen
    );
    let mut source = w.open(seed, branches).map_err(Failure::from)?;
    let start = Instant::now();
    let (resume_report, _) =
        stbpu_engine::resume_to_end(registry, &last_cp, source.as_mut()).map_err(Failure::from)?;
    let resume_s = start.elapsed().as_secs_f64();
    assert_identical("resume from last boundary", &seq_report, &resume_report)?;
    let warm_resume_speedup = seq_s / resume_s.max(1e-12);

    let shard_rows: Vec<String> = points
        .iter()
        .map(|p| {
            format!(
                "{{\"shards\":{},\"pass1_s\":{:.6},\"cold_s\":{:.6},\"warm_s\":{:.6},\
                 \"cold_speedup\":{:.3},\"warm_speedup\":{:.3}}}",
                p.shards,
                p.pass1_s,
                p.cold_s,
                p.warm_s,
                seq_s / p.cold_s.max(1e-12),
                seq_s / p.warm_s.max(1e-12),
            )
        })
        .collect();
    let body = format!(
        "{{\"suite\":\"shard\",\"workload\":{},\"model\":{},\"protection\":\"{}\",\
         \"branches\":{branches},\"seed\":{seed},\"cores\":{cores},\"oae\":{},\
         \"sequential_s\":{seq_s:.6},\"shards\":[{}],\
         \"checkpoints\":{ckpt_count},\"checkpoint_bytes\":{ckpt_bytes},\
         \"checkpoint_save_mb_per_s\":{save_mbps:.1},\"checkpoint_load_mb_per_s\":{load_mbps:.1},\
         \"resume_last_shard_s\":{resume_s:.6},\"warm_resume_speedup\":{warm_resume_speedup:.3}}}",
        escape(workload),
        escape(MODEL),
        policy.label(),
        seq_report.oae,
        shard_rows.join(",")
    );
    std::fs::create_dir_all(out_dir)?;
    let path = format!("{out_dir}/BENCH_shard.json");
    let mut f = std::fs::File::create(&path)?;
    writeln!(f, "{body}")?;

    if json {
        println!("{body}");
    } else {
        println!(
            "stbpu bench (shard suite: sequential vs two-pass sharded) — {workload}, \
             {branches} branches, seed {seed}, {cores} core(s)"
        );
        println!("sequential: {seq_s:.3}s (OAE {:.6})", seq_report.oae);
        println!(
            "{:>6} {:>10} {:>10} {:>10} {:>9} {:>9}",
            "shards", "pass1", "cold", "warm", "cold-x", "warm-x"
        );
        for p in &points {
            println!(
                "{:>6} {:>9.3}s {:>9.3}s {:>9.3}s {:>8.2}x {:>8.2}x",
                p.shards,
                p.pass1_s,
                p.cold_s,
                p.warm_s,
                seq_s / p.cold_s.max(1e-12),
                seq_s / p.warm_s.max(1e-12),
            );
        }
        println!(
            "checkpoints: {ckpt_count} blobs, {:.1} KB total — save {save_mbps:.0} MB/s, \
             load {load_mbps:.0} MB/s",
            ckpt_bytes as f64 / 1e3
        );
        println!(
            "warm-resume speedup (rerun from the cached branch-{} checkpoint vs from \
             branch 0): {warm_resume_speedup:.2}x ({resume_s:.3}s vs {seq_s:.3}s)",
            last_cp.branches_seen
        );
        eprintln!("wrote BENCH_shard.json to {out_dir}/ (every sharded report bit-identical)");
    }

    // Like serve: correctness is hard-gated in-run; wall-clock never
    // gates against a baseline.
    if let Some(path) = check {
        eprintln!(
            "shard suite note (warn-only): no baseline gate for shard wall-clock \
             ({path} not consulted); bit-parity was hard-gated in-run"
        );
    }
    Ok(())
}

/// One scheme of the simpoint suite.
struct SimpointRecord {
    name: &'static str,
    model: String,
    protection: String,
    est_oae: f64,
    est_s: f64,
    full_oae: Option<f64>,
    full_s: Option<f64>,
}

/// The simpoint suite: the workload is staged to a `.stbt` trace file
/// once (both pipelines then start from the same on-disk trace, the
/// setting phase estimation targets), one BBV + k-means pass distills it
/// into a phase file, every scheme is estimated from the representative
/// slices alone, and — unless `--estimate-only` — every scheme also runs
/// in full so the suite can hard-gate the absolute OAE error (bound
/// [`SIMPOINT_OAE_ERROR_BOUND`]). The headline gate is deterministic:
/// the simulated-branch speedup `total / (Σ representatives + warm-up)`
/// must be ≥ 10x at paper scale (≥10M branches) — the suite caps `k` at
/// 6 so ≤ 9 of ~100 slices are ever simulated. Wall-clock speedup is
/// reported alongside but never gates (this repo benches on shared
/// 1-core runners). Estimates are bit-deterministic for a fixed
/// configuration, so `--check` compares them exactly (within
/// `--tolerance`) against the committed `ci/simpoint-reference.json` —
/// the per-PR full-scale figure gate — and `--update-reference`
/// refreshes that file. Emits one `BENCH_simpoint.json` trajectory
/// record.
#[allow(clippy::too_many_arguments)]
fn run_simpoint(
    registry: &ModelRegistry,
    workload: &str,
    branches: usize,
    seed: u64,
    out_dir: &str,
    json: bool,
    check: Option<&str>,
    update_reference: Option<&str>,
    tolerance: f64,
    estimate_only: bool,
) -> Result<(), Failure> {
    let dir = std::env::temp_dir().join(format!("stbpu-simpoint-{}", std::process::id()));
    std::fs::create_dir_all(&dir)?;
    let result = run_simpoint_in(
        registry,
        workload,
        branches,
        seed,
        out_dir,
        json,
        check,
        update_reference,
        tolerance,
        estimate_only,
        &dir,
    );
    let _ = std::fs::remove_dir_all(&dir);
    result
}

#[allow(clippy::too_many_arguments)]
fn run_simpoint_in(
    registry: &ModelRegistry,
    workload: &str,
    branches: usize,
    seed: u64,
    out_dir: &str,
    json: bool,
    check: Option<&str>,
    update_reference: Option<&str>,
    tolerance: f64,
    estimate_only: bool,
    dir: &std::path::Path,
) -> Result<(), Failure> {
    use stbpu_engine::{build_phase_file, run_phase_file, run_sequential, PhaseBuildOptions};
    use stbpu_phases::ClusterConfig;
    use stbpu_trace::{EventSource, TraceFileFormat, TraceFileWriter, TraceGenerator};
    use std::io::BufWriter;

    // Stage the workload to a binary trace file once: every pipeline
    // below (BBV pass, per-phase estimates, full references) then reads
    // the same on-disk `.stbt`, which is the setting phase estimation is
    // for — a trace that already exists and decodes far faster than it
    // simulates.
    let profile = stbpu_trace::profiles::by_name(workload).ok_or_else(|| {
        Failure::from(stbpu_engine::EngineError::UnknownWorkload(workload.into()))
    })?;
    let bin_path = dir.join("simpoint.stbt");
    eprintln!(
        "simpoint suite: staging {branches}-branch trace to {}…",
        bin_path.display()
    );
    let stage_start = Instant::now();
    {
        let mut source = TraceGenerator::new(profile, seed).into_source(branches);
        let mut bw = TraceFileWriter::new(
            TraceFileFormat::Binary,
            BufWriter::new(std::fs::File::create(&bin_path)?),
        );
        bw.header(source.name(), source.branch_hint(), source.thread_count())?;
        source.for_each_batch(4_096, |batch| {
            for ev in batch {
                bw.event(ev)?;
            }
            Ok::<(), Failure>(())
        })?;
        bw.flush()?;
    }
    let stage_s = stage_start.elapsed().as_secs_f64();
    let w = Workload::File(bin_path.clone());

    // ~100 slices at any scale (clamped to the canonical 100k-branch
    // slice at paper size), with k capped at 6: each cold phase costs
    // 1.5 slices (half-slice warm-up + representative), so at most 9 of
    // ~100 slices are simulated — a ≥11x simulated-branch speedup by
    // construction.
    let slice_branches =
        ((branches as u64) / 100).clamp(1_000, stbpu_trace::DEFAULT_SLICE_BRANCHES);

    eprintln!(
        "simpoint suite: BBV + clustering over {branches} branches \
         ({slice_branches} branches/slice)…"
    );
    let start = Instant::now();
    let opts = PhaseBuildOptions {
        slice_branches,
        cluster: ClusterConfig {
            k_max: 6,
            ..ClusterConfig::default()
        },
        ..PhaseBuildOptions::default()
    };
    let pf = build_phase_file(registry, seed, &w, branches, &opts).map_err(Failure::from)?;
    let bbv_s = start.elapsed().as_secs_f64();
    let phases = pf.phases.len();

    let mut records: Vec<SimpointRecord> = Vec::new();
    let (mut est_total_s, mut full_total_s) = (0.0f64, 0.0f64);
    let mut simulated = pf.simulated_branches();
    for &(name, model_spec, policy) in SCHEMES {
        eprintln!("simpoint suite: estimating {name} from {phases} phases…");
        let start = Instant::now();
        let run = run_phase_file(registry, model_spec, policy, &pf, &w).map_err(Failure::from)?;
        let est_s = start.elapsed().as_secs_f64();
        est_total_s += est_s;
        // Includes warm-up branches; identical across schemes (all cold).
        simulated = run.simulated_branches;

        let (full_oae, full_s) = if estimate_only {
            (None, None)
        } else {
            eprintln!("simpoint suite: full reference run for {name}…");
            let start = Instant::now();
            let (full, _) = run_sequential(
                registry,
                model_spec,
                policy,
                seed,
                &w,
                branches,
                Warmup::Branches(0),
                None,
                None,
            )
            .map_err(Failure::from)?;
            let full_s = start.elapsed().as_secs_f64();
            full_total_s += full_s;
            let err = (run.report.oae - full.oae).abs();
            if err > SIMPOINT_OAE_ERROR_BOUND {
                return Err(Failure::Runtime(format!(
                    "scheme '{name}': estimated OAE {} is {err:.4} away from the full run's {} \
                     — beyond the documented {SIMPOINT_OAE_ERROR_BOUND} bound (see README \
                     \"Phase clustering\")",
                    run.report.oae, full.oae
                )));
            }
            (Some(full.oae), Some(full_s))
        };
        records.push(SimpointRecord {
            name,
            model: run.report.model,
            protection: run.report.protection.to_string(),
            est_oae: run.report.oae,
            est_s,
            full_oae,
            full_s,
        });
    }

    // The gated speedup is the deterministic one: how many branches the
    // estimate simulates versus the full run. Wall-clock speedup is
    // reported for context but never gates — it depends on the runner,
    // the core count, and how sim-bound the scheme mix is.
    let branch_speedup = branches as f64 / (simulated as f64).max(1.0);
    if branches >= 10_000_000 && branch_speedup < 10.0 {
        return Err(Failure::Runtime(format!(
            "simpoint simulated-branch speedup {branch_speedup:.2}x is below the 10x floor at \
             paper scale: {simulated} of {branches} branches simulated"
        )));
    }
    let wall_speedup = if estimate_only {
        None
    } else {
        Some(full_total_s / (bbv_s + est_total_s).max(1e-12))
    };

    let scheme_rows: Vec<String> = records
        .iter()
        .map(|r| {
            let full = match (r.full_oae, r.full_s) {
                (Some(oae), Some(s)) => format!(
                    ",\"full_oae\":{oae},\"full_s\":{s:.6},\"abs_oae_error\":{:.9}",
                    (r.est_oae - oae).abs()
                ),
                _ => String::new(),
            };
            format!(
                "{{\"name\":\"{}\",\"model\":{},\"protection\":\"{}\",\
                 \"estimated_oae\":{},\"estimate_s\":{:.6}{full}}}",
                r.name,
                escape(&r.model),
                r.protection,
                r.est_oae,
                r.est_s,
            )
        })
        .collect();
    let wall_field = match wall_speedup {
        Some(s) => format!(",\"full_total_s\":{full_total_s:.6},\"wall_speedup\":{s:.3}"),
        None => String::new(),
    };
    let body = format!(
        "{{\"suite\":\"simpoint\",\"workload\":{},\"branches\":{branches},\"seed\":{seed},\
         \"slice_branches\":{slice_branches},\"phases\":{phases},\
         \"simulated_branches\":{simulated},\"branch_speedup\":{branch_speedup:.3},\
         \"error_bound\":{SIMPOINT_OAE_ERROR_BOUND},\"stage_s\":{stage_s:.6},\
         \"bbv_s\":{bbv_s:.6},\"estimate_total_s\":{est_total_s:.6}{wall_field},\
         \"schemes\":[{}]}}",
        escape(workload),
        scheme_rows.join(",")
    );
    std::fs::create_dir_all(out_dir)?;
    let path = format!("{out_dir}/BENCH_simpoint.json");
    let mut f = std::fs::File::create(&path)?;
    writeln!(f, "{body}")?;

    if json {
        println!("{body}");
    } else {
        println!(
            "stbpu bench (simpoint suite: phase estimation vs full simulation) — {workload}, \
             {branches} branches, seed {seed}"
        );
        println!(
            "phase file: {phases} phases over {} slices of {slice_branches} branches — \
             simulating {simulated} branches incl. warm-up ({:.1}% of the stream, \
             {branch_speedup:.1}x); stage {stage_s:.3}s, BBV+cluster {bbv_s:.3}s",
            branches as u64 / slice_branches.max(1),
            simulated as f64 * 100.0 / (branches as f64).max(1.0)
        );
        println!(
            "{:<14} {:<18} {:>12} {:>9} {:>12} {:>9} {:>11}",
            "scheme", "model", "est OAE", "est", "full OAE", "full", "|OAE err|"
        );
        for r in &records {
            match (r.full_oae, r.full_s) {
                (Some(oae), Some(s)) => println!(
                    "{:<14} {:<18} {:>12.6} {:>8.3}s {:>12.6} {:>8.3}s {:>11.2e}",
                    r.name,
                    r.model,
                    r.est_oae,
                    r.est_s,
                    oae,
                    s,
                    (r.est_oae - oae).abs()
                ),
                _ => println!(
                    "{:<14} {:<18} {:>12.6} {:>8.3}s {:>12} {:>9} {:>11}",
                    r.name, r.model, r.est_oae, r.est_s, "-", "-", "-"
                ),
            }
        }
        match wall_speedup {
            Some(s) => println!(
                "speedup: {branch_speedup:.1}x simulated-branch (gated), {s:.1}x wall-clock \
                 (full {full_total_s:.3}s vs BBV {bbv_s:.3}s + estimates {est_total_s:.3}s; \
                 error bound {SIMPOINT_OAE_ERROR_BOUND})"
            ),
            None => println!(
                "speedup: {branch_speedup:.1}x simulated-branch (gated); estimate-only run, no \
                 full references (wall-clock speedup/error not measured this run)"
            ),
        }
        eprintln!("wrote BENCH_simpoint.json to {out_dir}/");
    }

    if let Some(path) = update_reference {
        write_simpoint_reference(path, workload, branches, seed, slice_branches, &records)?;
        eprintln!("simpoint reference written to {path}");
    }
    if let Some(path) = check {
        check_simpoint_reference(
            path,
            workload,
            branches,
            seed,
            slice_branches,
            tolerance,
            &records,
        )?;
        eprintln!("simpoint reference check passed ({path}, tolerance {tolerance:e})");
    }
    Ok(())
}

/// Writes the `ci/simpoint-reference.json` file the per-PR estimation
/// gate compares against. Estimated OAE uses shortest round-trip float
/// formatting, so a later parse compares exactly.
fn write_simpoint_reference(
    path: &str,
    workload: &str,
    branches: usize,
    seed: u64,
    slice_branches: u64,
    records: &[SimpointRecord],
) -> Result<(), Failure> {
    if let Some(dir) = std::path::Path::new(path).parent() {
        if !dir.as_os_str().is_empty() {
            std::fs::create_dir_all(dir)?;
        }
    }
    let schemes: Vec<String> = records
        .iter()
        .map(|r| format!("    \"{}\": {}", r.name, r.est_oae))
        .collect();
    let body = format!(
        "{{\n  \"workload\": {},\n  \"branches\": {branches},\n  \"seed\": {seed},\n  \
         \"slice_branches\": {slice_branches},\n  \"error_bound\": {SIMPOINT_OAE_ERROR_BOUND},\n  \
         \"schemes\": {{\n{}\n  }}\n}}\n",
        escape(workload),
        schemes.join(",\n")
    );
    std::fs::write(path, body)?;
    Ok(())
}

/// Verifies the run configuration matches the committed simpoint
/// reference and every scheme's estimated OAE is within `tolerance`
/// (estimates are bit-deterministic, so drift means behavior changed).
fn check_simpoint_reference(
    path: &str,
    workload: &str,
    branches: usize,
    seed: u64,
    slice_branches: u64,
    tolerance: f64,
    records: &[SimpointRecord],
) -> Result<(), Failure> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| Failure::Runtime(format!("read simpoint reference {path}: {e}")))?;
    let doc = Json::parse(&text)
        .map_err(|e| Failure::Runtime(format!("parse simpoint reference {path}: {e}")))?;
    let field_err = |what: &str| Failure::Runtime(format!("reference {path}: missing/bad {what}"));

    let ref_workload = doc
        .get("workload")
        .and_then(Json::as_str)
        .ok_or_else(|| field_err("workload"))?;
    let ref_branches = doc
        .get("branches")
        .and_then(Json::as_u64)
        .ok_or_else(|| field_err("branches"))?;
    let ref_seed = doc
        .get("seed")
        .and_then(Json::as_u64)
        .ok_or_else(|| field_err("seed"))?;
    let ref_slice = doc
        .get("slice_branches")
        .and_then(Json::as_u64)
        .ok_or_else(|| field_err("slice_branches"))?;
    if (ref_workload, ref_branches, ref_seed, ref_slice)
        != (workload, branches as u64, seed, slice_branches)
    {
        return Err(Failure::Runtime(format!(
            "reference {path} was recorded for ({ref_workload}, {ref_branches} branches, seed \
             {ref_seed}, {ref_slice} branches/slice) but this run used ({workload}, {branches} \
             branches, seed {seed}, {slice_branches} branches/slice); rerun with matching flags \
             or refresh it (see CONTRIBUTING.md)"
        )));
    }
    let schemes = doc.get("schemes").ok_or_else(|| field_err("schemes"))?;

    let mut drifted = Vec::new();
    for r in records {
        let Some(expected) = schemes.get(r.name).and_then(Json::as_f64) else {
            drifted.push(format!("scheme '{}' missing from reference", r.name));
            continue;
        };
        let delta = (r.est_oae - expected).abs();
        if delta > tolerance {
            drifted.push(format!(
                "scheme '{}': estimated OAE {} drifted from reference {} \
                 (|Δ| = {delta:.3e} > {tolerance:e})",
                r.name, r.est_oae, expected
            ));
        }
    }
    if let Some(fields) = schemes.fields() {
        for (name, _) in fields {
            if !records.iter().any(|r| r.name == name.as_str()) {
                drifted.push(format!("reference scheme '{name}' was not measured"));
            }
        }
    }
    if !drifted.is_empty() {
        return Err(Failure::Runtime(format!(
            "simpoint estimation gate failed:\n  {}\n(if the change is intentional, refresh via \
             `stbpu bench --suite simpoint --estimate-only --update-reference {path}` with the \
             same scale flags and commit the diff — see CONTRIBUTING.md)",
            drifted.join("\n  ")
        )));
    }
    Ok(())
}

/// The serve suite: the socket daemon on loopback, a concurrent client
/// fleet over real TCP, and a hard in-run bit-parity gate (every
/// streamed report vs one offline run of the same events — see
/// [`stbpu_serve::run_bench`]). Emits one `BENCH_serve.json` trajectory
/// record; wall-clock numbers are machine-dependent and never gate.
#[allow(clippy::too_many_arguments)]
fn run_serve(
    workload: &str,
    branches: usize,
    seed: u64,
    clients: usize,
    sessions_per_client: usize,
    out_dir: &str,
    json: bool,
    check: Option<&str>,
) -> Result<(), Failure> {
    let cfg = stbpu_serve::BenchConfig {
        clients,
        sessions_per_client,
        branches,
        workload: workload.to_string(),
        seed,
        ..stbpu_serve::BenchConfig::default()
    };
    eprintln!(
        "serve suite: {clients} clients x {sessions_per_client} sessions x {branches} \
         branches over loopback…"
    );
    let r = stbpu_serve::run_bench(&cfg).map_err(Failure::Runtime)?;

    let body = format!(
        "{{\"suite\":\"serve\",\"workload\":{},\"model\":{},\"protection\":\"{}\",\
         \"branches\":{branches},\"seed\":{seed},\"clients\":{},\"sessions\":{},\
         \"total_branches\":{},\"elapsed_s\":{:.6},\"sessions_per_s\":{:.3},\
         \"branches_per_s\":{:.0},\"p50_ms\":{:.3},\"p99_ms\":{:.3},\"oae\":{}}}",
        escape(workload),
        escape(&cfg.model),
        cfg.protection,
        r.clients,
        r.sessions,
        r.total_branches,
        r.elapsed_s,
        r.sessions_per_s,
        r.branches_per_s,
        r.p50_ms,
        r.p99_ms,
        r.oae,
    );
    std::fs::create_dir_all(out_dir)?;
    let path = format!("{out_dir}/BENCH_serve.json");
    let mut f = std::fs::File::create(&path)?;
    writeln!(f, "{body}")?;

    if json {
        println!("{body}");
    } else {
        println!(
            "stbpu bench (serve suite: daemon + socket clients) — {workload}, \
             {branches} branches/session, seed {seed}"
        );
        println!(
            "{} sessions over {} clients in {:.3}s (every report bit-identical to the \
             offline run, OAE {:.6})",
            r.sessions, r.clients, r.elapsed_s, r.oae
        );
        println!(
            "throughput: {:.1} sessions/s, {:.2}M branches/s aggregate",
            r.sessions_per_s,
            r.branches_per_s / 1e6
        );
        println!(
            "flush-to-report latency: p50 {:.2} ms, p99 {:.2} ms",
            r.p50_ms, r.p99_ms
        );
        eprintln!("wrote BENCH_serve.json to {out_dir}/");
    }

    // Socket throughput has no baseline section yet; correctness is
    // hard-gated in-run, so --check degrades to a named warn-only note
    // instead of pretending to compare anything.
    if let Some(path) = check {
        eprintln!(
            "serve suite note (warn-only): no baseline gate for socket throughput \
             ({path} not consulted); bit-parity was hard-gated in-run"
        );
    }
    Ok(())
}

/// Writes the baseline file `--check` gates against. OAE values use
/// Rust's shortest round-trip float formatting, so the parsed values
/// compare exactly. The throughput suite refreshes the `throughput`
/// section (batched branches/s per scheme); the default suite preserves
/// whatever throughput section the file already carries.
fn write_baseline(
    path: &str,
    workload: &str,
    branches: usize,
    seed: u64,
    records: &[Record],
    suite: Suite,
) -> Result<(), Failure> {
    if let Some(dir) = std::path::Path::new(path).parent() {
        if !dir.as_os_str().is_empty() {
            std::fs::create_dir_all(dir)?;
        }
    }
    let throughput: Vec<(String, f64)> = match suite {
        Suite::Throughput => records
            .iter()
            .map(|r| (r.name.to_string(), r.branches_per_s))
            .collect(),
        Suite::Ingest | Suite::Shard | Suite::Serve | Suite::Simpoint => {
            unreachable!("these suites never write a baseline")
        }
        // Carry over the existing section so a default-suite refresh
        // does not silently drop the throughput trajectory. An existing
        // but unreadable/unparsable file is still overwritten (the whole
        // point of --update-baseline is recovering from drift), but with
        // a loud note that the trajectory was not preserved.
        Suite::Default => match std::fs::read_to_string(path) {
            Ok(text) => match Json::parse(&text) {
                Ok(doc) => doc
                    .get("throughput")
                    .and_then(|t| t.fields())
                    .map(|fields| {
                        fields
                            .iter()
                            .filter_map(|(k, v)| v.as_f64().map(|f| (k.clone(), f)))
                            .collect()
                    })
                    .unwrap_or_default(),
                Err(e) => {
                    eprintln!(
                        "note: existing baseline {path} did not parse ({e}); any throughput \
                         section is dropped — re-record it via \
                         `stbpu bench --suite throughput --quick --update-baseline {path}`"
                    );
                    Vec::new()
                }
            },
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Vec::new(),
            Err(e) => {
                eprintln!(
                    "note: existing baseline {path} could not be read ({e}); any throughput \
                     section is dropped — re-record it via \
                     `stbpu bench --suite throughput --quick --update-baseline {path}`"
                );
                Vec::new()
            }
        },
    };
    let schemes: Vec<String> = records
        .iter()
        .map(|r| format!("    \"{}\": {}", r.name, r.oae))
        .collect();
    let throughput_block = if throughput.is_empty() {
        String::new()
    } else {
        let rows: Vec<String> = throughput
            .iter()
            .map(|(name, bps)| format!("    \"{name}\": {bps:.0}"))
            .collect();
        format!(",\n  \"throughput\": {{\n{}\n  }}", rows.join(",\n"))
    };
    let body = format!(
        "{{\n  \"workload\": {},\n  \"branches\": {branches},\n  \"seed\": {seed},\n  \"schemes\": {{\n{}\n  }}{throughput_block}\n}}\n",
        escape(workload),
        schemes.join(",\n")
    );
    std::fs::write(path, body)?;
    Ok(())
}

/// Prints warn-only branches/s drift notes against the baseline's
/// `throughput` section. Never fails: wall-clock depends on the machine,
/// so the trajectory must accumulate before the gate hardens. Every note
/// names the suite that produced it, so interleaved CI logs from several
/// suites stay attributable.
fn throughput_drift_notes(suite: &str, path: &str, records: &[Record]) {
    let doc = match std::fs::read_to_string(path)
        .map_err(|e| e.to_string())
        .and_then(|text| Json::parse(&text).map_err(|e| e.to_string()))
    {
        Ok(doc) => doc,
        Err(e) => {
            eprintln!("{suite} suite note (warn-only): cannot read baseline {path}: {e}");
            return;
        }
    };
    let Some(section) = doc.get("throughput") else {
        eprintln!(
            "{suite} suite note (warn-only): baseline {path} has no throughput section yet; \
             refresh via `stbpu bench --suite throughput --quick --update-baseline {path}`"
        );
        return;
    };
    let mut notes = 0usize;
    for r in records {
        let Some(expected) = section.get(r.name).and_then(Json::as_f64) else {
            eprintln!(
                "{suite} suite note (warn-only): scheme '{}' missing from baseline",
                r.name
            );
            notes += 1;
            continue;
        };
        let drift = (r.branches_per_s - expected) / expected.max(1e-12);
        if drift.abs() > THROUGHPUT_NOTE_FRAC {
            eprintln!(
                "{suite} suite note (warn-only): scheme '{}' at {:.0} branches/s, {:+.1}% vs \
                 baseline {:.0}",
                r.name,
                r.branches_per_s,
                drift * 100.0,
                expected
            );
            notes += 1;
        }
    }
    if notes == 0 {
        eprintln!(
            "{suite} suite throughput check passed ({path}, all schemes within {:.0}% of \
             baseline, warn-only)",
            THROUGHPUT_NOTE_FRAC * 100.0
        );
    }
}

/// Verifies the run configuration matches the baseline and every scheme's
/// OAE is within `tolerance`; all drifts are reported before failing.
fn check_baseline(
    path: &str,
    workload: &str,
    branches: usize,
    seed: u64,
    tolerance: f64,
    records: &[Record],
) -> Result<(), Failure> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| Failure::Runtime(format!("read baseline {path}: {e}")))?;
    let doc =
        Json::parse(&text).map_err(|e| Failure::Runtime(format!("parse baseline {path}: {e}")))?;
    let field_err = |what: &str| Failure::Runtime(format!("baseline {path}: missing/bad {what}"));

    let base_workload = doc
        .get("workload")
        .and_then(Json::as_str)
        .ok_or_else(|| field_err("workload"))?;
    let base_branches = doc
        .get("branches")
        .and_then(Json::as_u64)
        .ok_or_else(|| field_err("branches"))?;
    let base_seed = doc
        .get("seed")
        .and_then(Json::as_u64)
        .ok_or_else(|| field_err("seed"))?;
    if (base_workload, base_branches, base_seed) != (workload, branches as u64, seed) {
        return Err(Failure::Runtime(format!(
            "baseline {path} was recorded for ({base_workload}, {base_branches} branches, \
             seed {base_seed}) but this run used ({workload}, {branches} branches, seed {seed}); \
             rerun with matching flags or refresh it via --update-baseline (see CONTRIBUTING.md)"
        )));
    }
    let schemes = doc.get("schemes").ok_or_else(|| field_err("schemes"))?;

    let mut drifted = Vec::new();
    for r in records {
        let Some(expected) = schemes.get(r.name).and_then(Json::as_f64) else {
            drifted.push(format!("scheme '{}' missing from baseline", r.name));
            continue;
        };
        let delta = (r.oae - expected).abs();
        if delta > tolerance {
            drifted.push(format!(
                "scheme '{}': OAE {} drifted from baseline {} (|Δ| = {delta:.3e} > {tolerance:e})",
                r.name, r.oae, expected
            ));
        }
    }
    if let Some(fields) = schemes.fields() {
        for (name, _) in fields {
            if !records.iter().any(|r| r.name == name.as_str()) {
                drifted.push(format!("baseline scheme '{name}' was not measured"));
            }
        }
    }
    if !drifted.is_empty() {
        return Err(Failure::Runtime(format!(
            "OAE baseline gate failed:\n  {}\n(if the change is intentional, refresh via \
             `stbpu bench --quick --update-baseline {path}` and commit the diff)",
            drifted.join("\n  ")
        )));
    }
    Ok(())
}
