//! `cbp-replay`: staged `.stbt` and `.cbp` files of indirect-heavy
//! profiles replayed through the unprotected CBP-class models. It
//! exercises the two file decoders and TAGE/ITTAGE, and bypasses both the
//! generator (inputs are staged during set-up) and the remap circuits.
//!
//! References: a `.stbt` replay must equal the generated stream run
//! through the engine's `Experiment` grid (the format is lossless); a
//! `.cbp` replay must equal the materialized `read_cbp_trace` decode run
//! through `run_sequential`; `ci/golden.cbp` must reproduce
//! `ci/golden-cbp-oae.json` byte for byte.

use crate::drive::pump;
use crate::oracle::{compare, Ledger};
use crate::runner::{Readings, Workload};
use crate::stats::mix;
use crate::tracer::Tracer;
use stbpu_engine::{
    report_to_json, run_sequential, Experiment, ModelRegistry, Scenario, Workload as Source,
};
use stbpu_sim::{OwnedSession, Protection, SessionOptions, SimReport, Warmup};
use stbpu_trace::binfmt::BinTraceWriter;
use stbpu_trace::{
    open_trace_file, profiles, read_cbp_trace, CbpWriter, EventSource, TraceGenerator,
};
use std::fs::File;
use std::io::BufWriter;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

/// The replayed models, all unprotected, by registry name.
const MODELS: [&str; 4] = ["tagescl", "ittage", "tage64", "skl"];
/// Scheme names of [`MODELS`] in spans and readings (unprotected `skl`
/// is Figure 3's `baseline`).
const SCHEMES: [&str; 4] = ["tagescl", "ittage", "tage64", "baseline"];

/// The `realtrace` suite's indirect-heavy profiles with fixed lengths.
const POOL: [(&str, usize); 6] = [
    ("520.omnetpp", 18_000),
    ("500.perlbench", 24_000),
    ("510.parest", 32_000),
    ("502.gcc", 42_000),
    ("523.xalancbmk", 56_000),
    ("chrome-1je_1mo_1sp", 74_000),
];

const GOLDEN_CBP: &[u8] = include_bytes!("../../ci/golden.cbp");
const GOLDEN_REPORT: &str = include_str!("../../ci/golden-cbp-oae.json");
/// Seed `ci/golden-cbp-oae.json` was produced with; its model is
/// `MODELS[0]` (tagescl).
const GOLDEN_SEED: u64 = 42;

#[derive(Clone, Copy, PartialEq)]
enum Format {
    Stbt,
    Cbp,
}

impl Format {
    fn tag(self) -> &'static str {
        match self {
            Format::Stbt => "stbt",
            Format::Cbp => "cbp",
        }
    }
}

/// One staged file and the reference report of each model over it.
struct Staged {
    path: PathBuf,
    format: Format,
    seed: u64,
    branches: u64,
    bytes: u64,
    refs: Vec<SimReport>,
}

pub struct Replay {
    seed: u64,
    dir: PathBuf,
    registry: ModelRegistry,
    files: Vec<Staged>,
    golden: Option<Staged>,
}

/// Generates `branches` branches of `profile` and writes them as `.stbt`
/// and `.cbp`; returns the byte sizes.
fn stage(
    profile: &str,
    branches: usize,
    seed: u64,
    stbt: &Path,
    cbp: &Path,
) -> Result<(u64, u64), String> {
    let profile = profiles::by_name(profile).ok_or_else(|| format!("unknown profile {profile}"))?;
    let mut source = TraceGenerator::new(profile, seed).into_source(branches);
    let io = |e: std::io::Error| e.to_string();
    let mut bin = BinTraceWriter::new(BufWriter::new(File::create(stbt).map_err(io)?));
    bin.header(profile.name, Some(branches as u64), source.thread_count())
        .map_err(io)?;
    let mut cbpw = CbpWriter::new(BufWriter::new(File::create(cbp).map_err(io)?));
    cbpw.header(Some(branches as u64)).map_err(io)?;
    let mut buf = Vec::new();
    while source
        .next_batch(&mut buf, 4_096)
        .map_err(|e| e.to_string())?
        > 0
    {
        for ev in &buf {
            bin.event(ev).map_err(io)?;
            cbpw.event(ev).map_err(io)?;
        }
    }
    bin.flush().map_err(io)?;
    cbpw.flush().map_err(io)?;
    let size = |p: &Path| std::fs::metadata(p).map(|m| m.len()).map_err(io);
    Ok((size(stbt)?, size(cbp)?))
}

impl Replay {
    pub fn new(seed: u64, dir: &Path) -> Self {
        Replay {
            seed,
            dir: dir.to_path_buf(),
            registry: ModelRegistry::standard(),
            files: Vec::new(),
            golden: None,
        }
    }

    fn session(&self, f: &Staged, m: usize, t: &mut Tracer) -> Result<SimReport, String> {
        let span = t.open("engine.model_build", SCHEMES[m]);
        let model = self.registry.build(MODELS[m], f.seed);
        t.close(span, 1, 0);
        let mut source = open_trace_file(&f.path).map_err(|e| e.to_string())?;
        let threads = source.thread_count();
        let span = t.open("sim.open", SCHEMES[m]);
        let session = OwnedSession::new(
            model.map_err(|e| e.to_string())?,
            Protection::Unprotected,
            SessionOptions {
                warmup: Warmup::Branches(0),
                threads: (threads != 0).then_some(threads),
                interval: None,
                workload: None,
            },
        );
        t.close(span, 1, 0);
        let mut session = session.map_err(|e| e.to_string())?;
        pump(&mut session, &mut source, f.format.tag(), SCHEMES[m], t)?;
        let span = t.open("sim.finish", SCHEMES[m]);
        let report = session.finish();
        t.close(span, 1, 0);
        Ok(report)
    }
}

impl Workload for Replay {
    fn name(&self) -> &'static str {
        "cbp-replay"
    }

    fn setup_pieces(&self) -> usize {
        POOL.len() + 1
    }

    /// Piece `i < POOL.len()` stages profile `i` in both formats; the last
    /// piece stages `ci/golden.cbp`.
    fn setup_piece(&mut self, rep: usize, piece: usize, t: &mut Tracer) -> Result<(), String> {
        let name = |stem: &str| self.dir.join(format!("r{rep}-{stem}"));
        let file = |path, format, seed, branches, bytes| Staged {
            path,
            format,
            seed,
            branches,
            bytes,
            refs: Vec::new(),
        };
        let span = t.open("trace.stage", "");
        let staged = if piece == POOL.len() {
            let path = name("golden.cbp");
            std::fs::write(&path, GOLDEN_CBP).map_err(|e| e.to_string())?;
            vec![file(
                path,
                Format::Cbp,
                GOLDEN_SEED,
                0,
                GOLDEN_CBP.len() as u64,
            )]
        } else {
            let (profile, branches) = POOL[piece];
            let seed = mix(self.seed, piece as u64 + 1);
            let (stbt, cbp) = (
                name(&format!("{piece}.stbt")),
                name(&format!("{piece}.cbp")),
            );
            let (stbt_bytes, cbp_bytes) = stage(profile, branches, seed, &stbt, &cbp)?;
            let branches = branches as u64;
            vec![
                file(stbt, Format::Stbt, seed, branches, stbt_bytes),
                file(cbp, Format::Cbp, seed, branches, cbp_bytes),
            ]
        };
        let (branches, bytes) = staged
            .iter()
            .fold((0, 0), |(n, b), f| (n + f.branches, b + f.bytes));
        t.close(span, branches, bytes);
        for f in staged {
            if rep > 0 {
                std::fs::remove_file(&f.path).map_err(|e| e.to_string())?;
            } else if piece == POOL.len() {
                self.golden = Some(f);
            } else {
                self.files.push(f);
            }
        }
        Ok(())
    }

    fn references(&mut self) -> Result<(), String> {
        let scenarios: Vec<Scenario> = MODELS
            .iter()
            .map(|m| Scenario::new(m, Protection::Unprotected))
            .collect();
        for (k, f) in self.files.iter_mut().enumerate() {
            let (profile, branches) = POOL[k / 2];
            f.refs = match f.format {
                Format::Stbt => Experiment::new("perfbench-reference")
                    .workload(profile)
                    .scenarios(scenarios.clone())
                    .branches(branches)
                    .seed(f.seed)
                    .warmup_branches(0)
                    .run()
                    .map_err(|e| e.to_string())?
                    .records()
                    .iter()
                    .map(|r| r.report.clone())
                    .collect(),
                Format::Cbp => {
                    let file = File::open(&f.path).map_err(|e| e.to_string())?;
                    let trace =
                        read_cbp_trace(std::io::BufReader::new(file)).map_err(|e| e.to_string())?;
                    let source = Source::Trace(Arc::new(trace));
                    MODELS
                        .iter()
                        .map(|m| {
                            run_sequential(
                                &self.registry,
                                m,
                                Protection::Unprotected,
                                f.seed,
                                &source,
                                0,
                                Warmup::Branches(0),
                                None,
                                None,
                            )
                            .map(|(r, _)| r)
                            .map_err(|e| e.to_string())
                        })
                        .collect::<Result<_, _>>()?
                }
            };
        }
        Ok(())
    }

    fn round(&mut self, round: usize, t: &mut Tracer, ledger: &mut Ledger) {
        for f in &self.files {
            for k in 0..MODELS.len() {
                let m = (k + round) % MODELS.len();
                t.next_session();
                let span = t.open("session", SCHEMES[m]);
                let start = Instant::now();
                let res = self.session(f, m, t);
                let secs = start.elapsed().as_secs_f64();
                t.close(span, f.branches, f.bytes);
                match res {
                    Ok(r) => ledger.record(
                        secs,
                        f.branches,
                        compare(&r, &f.refs[m]).map_err(|e| format!("{}: {e}", f.path.display())),
                    ),
                    Err(e) => ledger.record_error(&e),
                }
            }
        }
        let Some(golden) = &self.golden else {
            ledger.record_error("ci/golden.cbp was not staged");
            return;
        };
        t.next_session();
        let span = t.open("session", SCHEMES[0]);
        let start = Instant::now();
        let res = self.session(golden, 0, t);
        let secs = start.elapsed().as_secs_f64();
        t.close(span, 0, golden.bytes);
        match res {
            Ok(r) => {
                let got = report_to_json(&r, GOLDEN_SEED);
                let verdict = if got == GOLDEN_REPORT.trim_end() {
                    Ok(())
                } else {
                    Err(format!(
                        "ci/golden.cbp replay {got} != ci/golden-cbp-oae.json"
                    ))
                };
                ledger.record(secs, r.branches, verdict);
            }
            Err(e) => ledger.record_error(&e),
        }
    }

    fn probe(&mut self, _t: &mut Tracer, readings: &mut Readings) -> Result<(), String> {
        for (format, name) in [(Format::Stbt, "stbt"), (Format::Cbp, "cbp")] {
            let (bytes, branches) = self
                .files
                .iter()
                .filter(|f| f.format == format)
                .fold((0, 0), |(b, n), f| (b + f.bytes, n + f.branches));
            readings.insert(
                format!("trace.{name}_bytes_per_branch"),
                bytes as f64 / branches as f64,
            );
        }
        // Unprotected skl's OAE is reported by fig3-generated as baseline.
        for (m, scheme) in SCHEMES.iter().enumerate().take(3) {
            let mean =
                self.files.iter().map(|f| f.refs[m].oae).sum::<f64>() / self.files.len() as f64;
            readings.insert(format!("sim.oae.{scheme}"), mean);
        }
        Ok(())
    }
}
