//! `fig3-generated`: the five Figure 3 schemes over Figure 3 profiles,
//! streamed from `TraceGenerator` on one thread — the paper's headline
//! experiment, and the workload where the remap circuits (the stbpu
//! sessions) and the generator (the four other schemes) do most of the
//! work.
//!
//! Timed path: `TraceGenerator::into_source` streamed through
//! `OwnedSession::run`. Reference path: the same cell through the engine's
//! `Experiment` grid, which materializes the trace and replays it through
//! `SimSession`. The anchor cell (541.leela, 200k branches, seed 42) is
//! also checked against `ci/baseline.json`.

use crate::drive::pump;
use crate::oracle::{compare, Ledger};
use crate::runner::{Readings, Workload};
use crate::stats::mix;
use crate::tracer::Tracer;
use stbpu_engine::minijson::Json;
use stbpu_engine::{Experiment, ModelRegistry, Scenario};
use stbpu_remap::RemapSet;
use stbpu_sim::{OwnedSession, SessionOptions, SimReport, Warmup};
use stbpu_trace::{profiles, EventSource, TraceEvent, TraceGenerator, WorkloadProfile};
use std::hint::black_box;
use std::time::Instant;

/// `Scenario::fig3()` in legend order, by the names `ci/baseline.json` uses.
pub const SCHEMES: [&str; 5] = ["baseline", "stbpu", "ucode1", "ucode2", "conservative"];

/// Figure 3 profiles with fixed lengths. The lengths form a ladder so
/// session times spread smoothly; the seed varies the traces' content and
/// the models' keys, not how much work a run does.
const POOL: [(&str, usize); 8] = [
    ("505.mcf", 12_000),
    ("557.xz", 16_000),
    ("500.perlbench", 21_000),
    ("523.xalancbmk", 28_000),
    ("apache2_prefork_c128", 37_000),
    ("mysql_64con_50s", 49_000),
    ("chrome-1jetstream", 64_000),
    ("531.deepsjeng", 84_000),
];

/// The `ci/baseline.json` anchor cell: profile, branches, seed.
const ANCHOR: (&str, usize, u64) = ("541.leela", 200_000, 42);
const BASELINE_JSON: &str = include_str!("../../ci/baseline.json");

/// Figure 3's printed paper averages of OAE normalized by the baseline,
/// for stbpu, ucode1, ucode2 and conservative.
const PAPER_NORMALIZED: [f64; 4] = [0.99, 0.82, 0.77, 0.88];

/// Tolerance of the baseline gate (`stbpu bench --check`).
const FIXTURE_TOLERANCE: f64 = 1e-9;

struct Input {
    profile: &'static WorkloadProfile,
    branches: usize,
    seed: u64,
    threads: Option<usize>,
}

pub struct Fig3 {
    seed: u64,
    scenarios: Vec<Scenario>,
    registry: Option<ModelRegistry>,
    inputs: Vec<Input>,
    /// Anchor OAE per scheme from `ci/baseline.json` (ucode2 has none).
    fixture: [Option<f64>; 5],
    refs: Vec<Vec<SimReport>>,
}

impl Fig3 {
    pub fn new(seed: u64) -> Self {
        Fig3 {
            seed,
            scenarios: Scenario::fig3(),
            registry: None,
            inputs: Vec::new(),
            fixture: [None; 5],
            refs: Vec::new(),
        }
    }

    /// (profile, branches, seed) of input `i`; the anchor comes first.
    fn cell(&self, i: usize) -> (&'static str, usize, u64) {
        match i {
            0 => ANCHOR,
            _ => {
                let (name, branches) = POOL[i - 1];
                (name, branches, mix(self.seed, i as u64))
            }
        }
    }

    fn session(&self, i: usize, s: usize, t: &mut Tracer) -> Result<SimReport, String> {
        let registry = self.registry.as_ref().ok_or("set-up has not run")?;
        let input = &self.inputs[i];
        let sc = &self.scenarios[s];
        let span = t.open("engine.model_build", SCHEMES[s]);
        let model = registry.build(&sc.model, input.seed);
        t.close(span, 1, 0);
        let span = t.open("trace.generator_new", input.profile.name);
        let mut source = TraceGenerator::new(input.profile, input.seed).into_source(input.branches);
        t.close(span, 1, 0);
        let span = t.open("sim.open", SCHEMES[s]);
        let session = OwnedSession::new(
            model.map_err(|e| e.to_string())?,
            sc.protection,
            SessionOptions {
                warmup: Warmup::Branches(0),
                threads: input.threads,
                interval: None,
                workload: None,
            },
        );
        t.close(span, 1, 0);
        let mut session = session.map_err(|e| e.to_string())?;
        pump(&mut session, &mut source, "generated", SCHEMES[s], t)?;
        let span = t.open("sim.finish", SCHEMES[s]);
        let report = session.finish();
        t.close(span, 1, 0);
        Ok(report)
    }

    fn verdict(&self, i: usize, s: usize, got: &SimReport) -> Result<(), String> {
        compare(got, &self.refs[i][s])
            .map_err(|e| format!("{} {}: {e}", SCHEMES[s], got.workload))?;
        match self.fixture[s] {
            Some(want) if i == 0 && (got.oae - want).abs() > FIXTURE_TOLERANCE => Err(format!(
                "{} anchor OAE {} differs from ci/baseline.json {want}",
                SCHEMES[s], got.oae
            )),
            _ => Ok(()),
        }
    }

    /// Times every remap circuit over the branch PCs of the pool's traces.
    fn probe_remap(&self, t: &mut Tracer, readings: &mut Readings) -> Result<(), String> {
        const PCS_PER_INPUT: usize = 8_192;
        let mut pcs = Vec::new();
        for input in &self.inputs[1..] {
            let mut source =
                TraceGenerator::new(input.profile, input.seed).into_source(PCS_PER_INPUT);
            while let Some(ev) = source.next_event().map_err(|e| e.to_string())? {
                if let TraceEvent::Branch { rec, .. } = ev {
                    pcs.push(rec.pc.raw() & ((1 << 48) - 1));
                }
            }
        }
        let remap = RemapSet::standard();
        let psi = mix(self.seed, 0x9517) as u32;
        let calls = pcs.len() as u64;
        let circuits: [(&'static str, &dyn Fn(u64) -> u64); 6] = [
            ("remap.r1", &|pc| remap.r1(psi, pc).1),
            ("remap.r2", &|pc| {
                remap.r2(psi, pc.rotate_left(10) & ((1 << 58) - 1))
            }),
            ("remap.r3", &|pc| remap.r3(psi, pc) as u64),
            ("remap.r4", &|pc| {
                remap.r4(psi, pc as u16 ^ 0x5a5a, pc) as u64
            }),
            ("remap.rt", &|pc| remap.rt(psi, pc, (pc >> 4) as u16).0),
            ("remap.rp", &|pc| remap.rp(psi, pc) as u64),
        ];
        for (name, f) in circuits {
            let span = t.open(name, "");
            let start = Instant::now();
            let mut acc = 0u64;
            for &pc in &pcs {
                acc ^= f(black_box(pc));
            }
            black_box(acc);
            let ns = start.elapsed().as_nanos() as f64 / calls as f64;
            t.close(span, calls, 0);
            readings.insert(format!("{name}_ns"), ns);
        }
        Ok(())
    }
}

impl Workload for Fig3 {
    fn name(&self) -> &'static str {
        "fig3-generated"
    }

    fn setup_pieces(&self) -> usize {
        1 + 1 + POOL.len()
    }

    /// Piece 0 builds the registry and validates every scheme's model and
    /// the baseline fixture; piece `i + 1` resolves input `i` and builds
    /// its generator (program synthesis) to learn its thread count.
    fn setup_piece(&mut self, rep: usize, piece: usize, t: &mut Tracer) -> Result<(), String> {
        if piece == 0 {
            let registry = ModelRegistry::standard();
            for sc in &self.scenarios {
                let span = t.open("engine.model_build", "validate");
                let built = registry.build(&sc.model, 0);
                t.close(span, 1, 0);
                built.map_err(|e| e.to_string())?;
            }
            let doc = Json::parse(BASELINE_JSON).map_err(|e| format!("ci/baseline.json: {e}"))?;
            let same_cell = doc.get("workload").and_then(Json::as_str) == Some(ANCHOR.0)
                && doc.get("branches").and_then(Json::as_f64) == Some(ANCHOR.1 as f64)
                && doc.get("seed").and_then(Json::as_f64) == Some(ANCHOR.2 as f64);
            if !same_cell {
                return Err("ci/baseline.json no longer describes the anchor cell".to_string());
            }
            let schemes = doc
                .get("schemes")
                .ok_or("ci/baseline.json has no schemes")?;
            let fixture = SCHEMES.map(|s| schemes.get(s).and_then(Json::as_f64));
            if rep == 0 {
                self.registry = Some(registry);
                self.fixture = fixture;
            }
            return Ok(());
        }
        let (name, branches, seed) = self.cell(piece - 1);
        let profile = profiles::by_name(name).ok_or_else(|| format!("unknown profile {name}"))?;
        let span = t.open("trace.generator_new", profile.name);
        let threads = TraceGenerator::new(profile, seed).threads();
        t.close(span, 1, 0);
        if rep == 0 {
            self.inputs.push(Input {
                profile,
                branches,
                seed,
                threads: (threads != 0).then_some(threads),
            });
        }
        Ok(())
    }

    fn references(&mut self) -> Result<(), String> {
        self.refs = self
            .inputs
            .iter()
            .map(|input| {
                let set = Experiment::new("perfbench-reference")
                    .workload(input.profile.name)
                    .scenarios(self.scenarios.clone())
                    .branches(input.branches)
                    .seed(input.seed)
                    .warmup_branches(0)
                    .run()
                    .map_err(|e| e.to_string())?;
                Ok(set.records().iter().map(|r| r.report.clone()).collect())
            })
            .collect::<Result<_, String>>()?;
        Ok(())
    }

    fn round(&mut self, round: usize, t: &mut Tracer, ledger: &mut Ledger) {
        for i in 0..self.inputs.len() {
            for k in 0..SCHEMES.len() {
                let s = (k + round) % SCHEMES.len();
                t.next_session();
                let span = t.open("session", SCHEMES[s]);
                let start = Instant::now();
                let res = self.session(i, s, t);
                let secs = start.elapsed().as_secs_f64();
                let branches = self.inputs[i].branches as u64;
                t.close(span, branches, 0);
                match res {
                    Ok(report) => ledger.record(secs, branches, self.verdict(i, s, &report)),
                    Err(e) => ledger.record_error(&e),
                }
            }
        }
    }

    fn probe(&mut self, t: &mut Tracer, readings: &mut Readings) -> Result<(), String> {
        self.probe_remap(t, readings)?;
        // Deterministic readings over one pass of every input; the OAE
        // means leave out the anchor, which does not vary with the seed.
        let (mut rerand, mut flushes) = (0u64, 0u64);
        for r in self.refs.iter().flatten() {
            rerand += r.rerandomizations;
            flushes += r.flushes;
        }
        let pool = &self.refs[1..];
        readings.insert("core.rerandomizations".into(), rerand as f64);
        readings.insert("core.flushes".into(), flushes as f64);
        for (s, name) in SCHEMES.iter().enumerate() {
            let mean = pool.iter().map(|row| row[s].oae).sum::<f64>() / pool.len() as f64;
            readings.insert(format!("sim.oae.{name}"), mean);
        }
        let err = PAPER_NORMALIZED
            .iter()
            .enumerate()
            .map(|(k, paper)| {
                let norm = pool
                    .iter()
                    .map(|row| row[k + 1].oae / row[0].oae)
                    .sum::<f64>()
                    / pool.len() as f64;
                (norm - paper).abs()
            })
            .sum::<f64>()
            / PAPER_NORMALIZED.len() as f64;
        readings.insert("sim.oae_norm_err_vs_paper".into(), err);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_altered_reference_fails_exactly_its_session() {
        let mut w = Fig3::new(5);
        let mut t = Tracer::new(false);
        for p in 0..w.setup_pieces() {
            w.setup_piece(0, p, &mut t).unwrap();
        }
        w.references().unwrap();
        let oae = &mut w.refs[3][1].oae;
        *oae = f64::from_bits(oae.to_bits() + 1);
        let mut ledger = Ledger::default();
        w.round(0, &mut t, &mut ledger);
        assert_eq!(ledger.attempted, (w.inputs.len() * SCHEMES.len()) as u64);
        assert_eq!(ledger.failed, 1);
    }
}
