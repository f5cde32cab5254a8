//! `sliced-stbt`: exact `run_sharded` at N = available cores and
//! `run_phase_file` over one staged `.stbt` — the only workload using the
//! slice drivers, skip/decode-from-start and the `.stck` codec.
//!
//! References: each sharded report must equal `run_sequential` over the
//! same file bit for bit; each phase estimate must stay within
//! [`OAE_BOUND`] of that full run's OAE. The phase files assembled here
//! from `extract_bbv`, `cluster_slices` and `cut_checkpoints` must equal
//! `build_phase_file`'s byte for byte.
//!
//! Each model gets its own phase file with embedded warm checkpoints, the
//! mode whose estimates hold the documented bound at this trace length
//! (cold-started slices of 20k branches miss it on some seeds).

use crate::oracle::{compare, Ledger};
use crate::runner::{Readings, Workload};
use crate::stats::mix;
use crate::tracer::Tracer;
use stbpu_engine::{
    auto_protection, build_phase_file, cut_checkpoints, run_phase_file, run_sequential,
    run_sharded, ModelRegistry, PhaseBuildOptions, ShardConfig, Workload as Source,
};
use stbpu_phases::{cluster_slices, phase_entries, PhaseFile};
use stbpu_sim::{Checkpoint, SimReport, Warmup};
use stbpu_trace::binfmt::BinTraceWriter;
use stbpu_trace::{
    extract_bbv, open_trace_file, profiles, BbvProfile, EventSource, TraceGenerator,
};
use std::collections::BTreeMap;
use std::fs::File;
use std::io::BufWriter;
use std::path::{Path, PathBuf};
use std::time::Instant;

const PROFILE: (&str, usize) = ("523.xalancbmk", 240_000);
const SLICE_BRANCHES: u64 = 20_000;
const MODELS: [&str; 3] = ["skl", "tagescl", "st_skl@r=0.05"];
const SCHEMES: [&str; 3] = ["baseline", "tagescl", "stbpu"];
/// The documented |ΔOAE| bound of phase estimation (`bench --suite simpoint`).
const OAE_BOUND: f64 = 0.02;

/// What one set-up repetition has built so far.
struct Pending {
    path: PathBuf,
    bbv: Option<BbvProfile>,
    /// The model-independent phase file, then one per model.
    plain: Option<PhaseFile>,
    embedded: Vec<PhaseFile>,
}

pub struct Sliced {
    seed: u64,
    dir: PathBuf,
    registry: ModelRegistry,
    shards: usize,
    base: Option<Source>,
    /// One phase file per model, with that model's warm checkpoints.
    phases: Vec<PhaseFile>,
    pending: BTreeMap<usize, Pending>,
    refs: Vec<SimReport>,
}

fn stage(path: &Path, seed: u64) -> Result<(), String> {
    let io = |e: std::io::Error| e.to_string();
    let (name, branches) = PROFILE;
    let profile = profiles::by_name(name).ok_or_else(|| format!("unknown profile {name}"))?;
    let mut source = TraceGenerator::new(profile, seed).into_source(branches);
    let mut w = BinTraceWriter::new(BufWriter::new(File::create(path).map_err(io)?));
    w.header(name, Some(branches as u64), source.thread_count())
        .map_err(io)?;
    let mut buf = Vec::new();
    while source
        .next_batch(&mut buf, 4_096)
        .map_err(|e| e.to_string())?
        > 0
    {
        for ev in &buf {
            w.event(ev).map_err(io)?;
        }
    }
    w.flush().map_err(io)
}

impl Sliced {
    pub fn new(seed: u64, dir: &Path) -> Self {
        Sliced {
            seed,
            dir: dir.to_path_buf(),
            registry: ModelRegistry::standard(),
            shards: std::thread::available_parallelism().map_or(2, |n| n.get()),
            base: None,
            phases: Vec::new(),
            pending: BTreeMap::new(),
            refs: Vec::new(),
        }
    }

    fn options(&self, m: usize) -> PhaseBuildOptions {
        let mut opts = PhaseBuildOptions {
            slice_branches: SLICE_BRANCHES,
            embed: Some((MODELS[m].to_string(), auto_protection(MODELS[m]))),
            ..PhaseBuildOptions::default()
        };
        opts.cluster.seed = mix(self.seed, 2);
        opts
    }

    fn shard_config(&self) -> ShardConfig {
        ShardConfig {
            shards: self.shards,
            warmup: Warmup::Branches(0),
            interval: None,
            threads: None,
            checkpoint_dir: None,
        }
    }

    fn base(&self) -> Result<&Source, String> {
        self.base
            .as_ref()
            .ok_or_else(|| "set-up has not run".to_string())
    }
}

impl Workload for Sliced {
    fn name(&self) -> &'static str {
        "sliced-stbt"
    }

    fn setup_pieces(&self) -> usize {
        3 + MODELS.len()
    }

    /// Piece 0 stages the `.stbt`, piece 1 extracts its basic-block
    /// vectors, piece 2 clusters them into phases, and piece `3 + m` cuts
    /// model `m`'s warm checkpoints at the phase starts.
    fn setup_piece(&mut self, rep: usize, piece: usize, t: &mut Tracer) -> Result<(), String> {
        let seed = mix(self.seed, 1);
        if piece == 0 {
            let path = self.dir.join(format!("r{rep}-sliced.stbt"));
            let span = t.open("trace.stage", "stbt");
            let staged = stage(&path, seed);
            t.close(span, PROFILE.1 as u64, 0);
            staged?;
            let pending = Pending {
                path,
                bbv: None,
                plain: None,
                embedded: Vec::new(),
            };
            self.pending.insert(rep, pending);
            return Ok(());
        }
        let opts = self.options(0);
        let shard_cfg = self.shard_config();
        let pending = self
            .pending
            .get_mut(&rep)
            .ok_or("set-up piece out of order")?;
        let base = Source::File(pending.path.clone());
        match piece {
            1 => {
                let span = t.open("phases.bbv", "");
                let bbv = open_trace_file(&pending.path)
                    .map_err(|e| e.to_string())
                    .and_then(|mut src| {
                        extract_bbv(&mut src, SLICE_BRANCHES).map_err(|e| e.to_string())
                    });
                t.close(span, PROFILE.1 as u64, 0);
                pending.bbv = Some(bbv?);
            }
            2 => {
                let bbv = pending.bbv.take().ok_or("set-up piece out of order")?;
                let span = t.open("phases.cluster", "");
                let clustering = cluster_slices(&bbv.slices, &opts.cluster);
                let entries = phase_entries(&bbv, &clustering);
                t.close(span, bbv.slices.len() as u64, 0);
                pending.plain = Some(PhaseFile {
                    workload: base.label(),
                    seed,
                    total_branches: bbv.total_branches,
                    total_instructions: bbv.total_instructions,
                    total_events: bbv.total_events,
                    slice_branches: bbv.slice_branches,
                    cluster_seed: opts.cluster.seed,
                    phases: entries,
                });
            }
            _ => {
                let m = piece - 3;
                let mut file = pending.plain.clone().ok_or("set-up piece out of order")?;
                let targets: Vec<u64> = file.phases.iter().map(|e| e.start_branch).collect();
                let cfg = ShardConfig {
                    shards: targets.len().max(1),
                    ..shard_cfg
                };
                let span = t.open("phases.embed", SCHEMES[m]);
                let cut = cut_checkpoints(
                    &self.registry,
                    MODELS[m],
                    auto_protection(MODELS[m]),
                    seed,
                    &base,
                    0,
                    &cfg,
                    &targets,
                );
                t.close(span, targets.last().copied().unwrap_or(0), 0);
                for (entry, cp) in file.phases.iter_mut().zip(cut.map_err(|e| e.to_string())?) {
                    if cp.branches_seen != entry.start_branch {
                        return Err("checkpoint cut missed a phase start".to_string());
                    }
                    entry.checkpoint = cp.to_bytes();
                }
                pending.embedded.push(file);
                if m + 1 == MODELS.len() {
                    let done = self
                        .pending
                        .remove(&rep)
                        .ok_or("set-up piece out of order")?;
                    if rep == 0 {
                        self.base = Some(base);
                        self.phases = done.embedded;
                    } else {
                        std::fs::remove_file(&done.path).map_err(|e| e.to_string())?;
                    }
                }
            }
        }
        Ok(())
    }

    fn references(&mut self) -> Result<(), String> {
        let base = self.base()?;
        let seed = mix(self.seed, 1);
        for (m, pf) in self.phases.iter().enumerate() {
            let built = build_phase_file(&self.registry, seed, base, 0, &self.options(m))
                .map_err(|e| e.to_string())?;
            if built.to_bytes() != pf.to_bytes() {
                return Err(format!(
                    "{} phase file differs from build_phase_file",
                    MODELS[m]
                ));
            }
        }
        self.refs = MODELS
            .iter()
            .map(|m| {
                run_sequential(
                    &self.registry,
                    m,
                    auto_protection(m),
                    seed,
                    base,
                    0,
                    Warmup::Branches(0),
                    None,
                    None,
                )
                .map(|(r, _)| r)
                .map_err(|e| e.to_string())
            })
            .collect::<Result<_, _>>()?;
        Ok(())
    }

    fn round(&mut self, round: usize, t: &mut Tracer, ledger: &mut Ledger) {
        let Ok(base) = self.base() else {
            ledger.record_error("set-up has not run");
            return;
        };
        let cfg = self.shard_config();
        for k in 0..MODELS.len() {
            let m = (k + round) % MODELS.len();
            let (model, prot, want) = (MODELS[m], auto_protection(MODELS[m]), &self.refs[m]);
            let pf = &self.phases[m];

            t.next_session();
            let span = t.open("engine.shard_run", SCHEMES[m]);
            let start = Instant::now();
            let res = run_sharded(&self.registry, model, prot, pf.seed, base, 0, &cfg);
            let secs = start.elapsed().as_secs_f64();
            t.close(span, pf.total_branches, 0);
            match res {
                Ok(run) => ledger.record(
                    secs,
                    pf.total_branches,
                    compare(&run.report, want).map_err(|e| format!("sharded {model}: {e}")),
                ),
                Err(e) => ledger.record_error(&e.to_string()),
            }

            t.next_session();
            let span = t.open("engine.phase_run", SCHEMES[m]);
            let start = Instant::now();
            let res = run_phase_file(&self.registry, model, prot, pf, base);
            let secs = start.elapsed().as_secs_f64();
            t.close(span, pf.total_branches, 0);
            match res {
                Ok(run) => {
                    let err = (run.report.oae - want.oae).abs();
                    let verdict = if err <= OAE_BOUND {
                        Ok(())
                    } else {
                        Err(format!(
                            "phase estimate {model}: |ΔOAE| {err} > {OAE_BOUND}"
                        ))
                    };
                    ledger.record(secs, pf.total_branches, verdict);
                }
                Err(e) => ledger.record_error(&e.to_string()),
            }
        }
    }

    /// Cuts one mid-stream checkpoint of the stbpu session and round-trips
    /// it through the `.stck` codec.
    fn probe(&mut self, t: &mut Tracer, readings: &mut Readings) -> Result<(), String> {
        const CODEC_REPS: usize = 5;
        let base = self.base()?;
        let pf = self.phases.last().ok_or("set-up has not run")?;
        let model = MODELS[2];
        let span = t.open("engine.shard_cut", SCHEMES[2]);
        let cut = cut_checkpoints(
            &self.registry,
            model,
            auto_protection(model),
            pf.seed,
            base,
            0,
            &self.shard_config(),
            &[pf.total_branches / 2],
        );
        t.close(span, pf.total_branches / 2, 0);
        let cut = cut.map_err(|e| e.to_string())?;
        let cp = cut.first().ok_or("no checkpoint cut")?;
        let mut bytes = Vec::new();
        for _ in 0..CODEC_REPS {
            let span = t.open("sim.checkpoint_encode", SCHEMES[2]);
            bytes = cp.to_bytes();
            t.close(span, 1, bytes.len() as u64);
            let span = t.open("sim.checkpoint_decode", SCHEMES[2]);
            let back = Checkpoint::from_bytes(&bytes);
            t.close(span, 1, bytes.len() as u64);
            if back.as_ref() != Ok(cp) {
                return Err("checkpoint codec round trip changed the checkpoint".to_string());
            }
        }
        readings.insert("sim.checkpoint_bytes".into(), bytes.len() as f64);
        Ok(())
    }
}
