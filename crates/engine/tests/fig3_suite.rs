//! Figure 3 scheme behavior, exercised through the engine API.
//!
//! These tests were migrated from `stbpu-sim` when its deprecated
//! `ModelKind` / `build_model` / `fig3_schemes` / `run_fig3_suite` shims
//! were removed: the accuracy/ordering claims they check are properties of
//! the five protection schemes, and the engine registry + `run_scenarios`
//! is the supported way to run them.

use stbpu_bpu::{BaselineMapper, BtbConfig, BtbCoord, Mapper};
use stbpu_engine::{run_scenarios, ModelCore, ModelRegistry, Scenario};
use stbpu_predictors::{FullBpu, PerceptronConfig, PerceptronPredictor, SklCond};
use stbpu_sim::{
    simulate_with, OwnedSession, Protection, SessionOptions, SimOptions, SimReport, Warmup,
};
use stbpu_trace::{profiles, Trace, TraceEvent, TraceGenerator};
use std::cell::Cell;

fn trace_for_seeded(name: &str, branches: usize, seed: u64) -> Trace {
    TraceGenerator::new(profiles::by_name(name).unwrap(), seed).generate(branches)
}

fn trace_for(name: &str, branches: usize) -> Trace {
    trace_for_seeded(name, branches, 42)
}

fn fig3_suite(trace: &Trace, seed: u64, warmup: f64) -> Vec<SimReport> {
    run_scenarios(
        &ModelRegistry::standard(),
        trace,
        &Scenario::fig3(),
        seed,
        warmup,
    )
    .expect("fig3 scenarios are valid")
}

#[test]
fn baseline_accuracy_in_published_range_for_spec() {
    let registry = ModelRegistry::standard();
    let baseline = [Scenario::new("skl", stbpu_sim::Protection::Unprotected)];

    // Predictable FP workload: baseline OAE must be high.
    let t = trace_for_seeded("519.lbm", 30_000, 1);
    let r = &run_scenarios(&registry, &t, &baseline, 1, 0.2).unwrap()[0];
    assert!(r.oae > 0.93, "lbm baseline OAE {}", r.oae);

    // Hard integer workload: noticeably lower but still decent.
    let t = trace_for_seeded("541.leela", 30_000, 1);
    let r2 = &run_scenarios(&registry, &t, &baseline, 1, 0.2).unwrap()[0];
    assert!(
        r2.oae > 0.75 && r2.oae < 0.99,
        "leela baseline OAE {}",
        r2.oae
    );
    assert!(r.oae > r2.oae, "lbm must beat leela");
}

#[test]
fn stbpu_close_to_baseline_on_spec() {
    let t = trace_for("525.x264", 25_000);
    let suite = fig3_suite(&t, 1, 0.2);
    let (rb, rs) = (&suite[0], &suite[1]);
    assert!(
        rs.oae > rb.oae - 0.05,
        "STBPU ({}) must track baseline ({})",
        rs.oae,
        rb.oae
    );
}

#[test]
fn ucode_flushing_hurts_switch_heavy_workloads() {
    let t = trace_for("apache2_prefork_c256", 30_000);
    let suite = fig3_suite(&t, 7, 0.1);
    let base = suite[0].oae;
    let stbpu = suite[1].oae;
    let ucode1 = suite[2].oae;
    assert!(
        ucode1 < base - 0.03,
        "flushing must cost accuracy on apache: base {base}, ucode {ucode1}"
    );
    assert!(
        stbpu > ucode1,
        "STBPU ({stbpu}) must beat microcode flushing ({ucode1})"
    );
    assert!(suite[2].flushes > 100, "apache must trigger many flushes");
}

#[test]
fn stbpu_does_not_flush() {
    let t = trace_for("mysql_64con_50s", 15_000);
    let suite = fig3_suite(&t, 3, 0.1);
    assert_eq!(suite[1].flushes, 0, "STBPU never flushes");
    assert_eq!(suite[0].flushes, 0, "baseline never flushes");
    assert!(suite[2].flushes > 0);
}

#[test]
fn partitioning_makes_ucode2_at_most_ucode1() {
    let t = trace_for("chrome-1jetstream", 25_000);
    let suite = fig3_suite(&t, 3, 0.1);
    let (u1, u2) = (suite[2].oae, suite[3].oae);
    assert!(
        u2 <= u1 + 0.02,
        "STIBP partitioning should not help: u1 {u1}, u2 {u2}"
    );
}

/// The ST mapper memoizes its remap circuits, so the 2.56 circuit calls
/// per branch ST_SKLCond makes on the CI baseline cell (R1 once per
/// branch, R3 and R4 once per conditional, R2 at most once per branch;
/// see `skl_maps_each_structure_once_per_branch`) cost at most one actual
/// evaluation per branch. The count is deterministic for a fixed trace
/// and seed.
#[test]
fn stbpu_evaluates_at_most_one_remap_circuit_per_branch() {
    const BRANCHES: usize = 200_000;
    let trace = trace_for("541.leela", BRANCHES);
    let mut model = ModelRegistry::standard()
        .build("st_skl@r=0.05", 42)
        .unwrap();
    let opts = SimOptions {
        warmup_frac: 0.0,
        threads: Some(trace.thread_count().max(1)),
    };
    simulate_with(&mut model, Protection::Stbpu, &trace, &opts).unwrap();
    let ModelCore::SklSt(bpu) = &model else {
        panic!("st_skl builds the SKLCond x StMapper composition");
    };
    let evals = bpu.mapper().remap_evaluations();
    let total: u64 = evals.iter().sum();
    let per_branch = total as f64 / BRANCHES as f64;
    assert!(
        per_branch <= 1.0,
        "{per_branch:.3} remap evaluations per branch (R1,R2,R3,R4,Rt,Rp = {evals:?})"
    );
    assert!(evals[0] > 0 && evals[2] > 0 && evals[3] > 0, "{evals:?}");
}

/// The baseline mapping functions, counting calls to ①–④ (`btb1`,
/// `btb2_tag`, `pht1`, `pht2`, in that order) and then to the
/// perceptron's row function (p / Rp).
#[derive(Default)]
struct CountingMapper {
    calls: Cell<[u64; 5]>,
}

impl CountingMapper {
    fn count(&self, f: usize) {
        let mut c = self.calls.get();
        c[f] += 1;
        self.calls.set(c);
    }
}

impl Mapper for CountingMapper {
    fn btb1(&self, tid: usize, pc: u64) -> BtbCoord {
        self.count(0);
        BaselineMapper.btb1(tid, pc)
    }

    fn btb2_tag(&self, tid: usize, bhb: u64) -> u64 {
        self.count(1);
        BaselineMapper.btb2_tag(tid, bhb)
    }

    fn pht1(&self, tid: usize, pc: u64) -> usize {
        self.count(2);
        BaselineMapper.pht1(tid, pc)
    }

    fn pht2(&self, tid: usize, pc: u64, ghr: u64) -> usize {
        self.count(3);
        BaselineMapper.pht2(tid, pc, ghr)
    }

    fn tage(
        &self,
        tid: usize,
        pc: u64,
        folded_idx: u64,
        folded_tag: u64,
        table: usize,
        idx_bits: u32,
        tag_bits: u32,
    ) -> (usize, u64) {
        BaselineMapper.tage(tid, pc, folded_idx, folded_tag, table, idx_bits, tag_bits)
    }

    fn perceptron(&self, tid: usize, pc: u64, idx_bits: u32) -> usize {
        self.count(4);
        BaselineMapper.perceptron(tid, pc, idx_bits)
    }
}

/// Work counter: the SKL model computes each structure's mapping once per
/// branch — one mode-one BTB coordinate (①) per branch, one of each PHT
/// index (③, ④) per conditional and at most one mode-two tag (②) per
/// branch, however predict and update share them. Run under ucode1 on a
/// two-thread server trace, so kernel-entry flushes empty the RSB and
/// returns take the underflow path through mode two as well.
#[test]
fn skl_maps_each_structure_once_per_branch() {
    let trace = trace_for("apache2_prefork_c128", 60_000);
    let bpu = FullBpu::new(
        "SKLCond/counting",
        SklCond::new(),
        CountingMapper::default(),
        BtbConfig::skylake(),
        false,
    );
    let opts = SessionOptions {
        warmup: Warmup::Branches(0),
        ..SessionOptions::default()
    };
    let mut session = OwnedSession::new(bpu, Protection::Ucode1, opts).unwrap();
    session.begin(&trace.name, None).unwrap();
    let mut mode2 = 0;
    for ev in trace.events() {
        let before = session.model().mapper().calls.get();
        session.feed_batch(std::slice::from_ref(ev)).unwrap();
        let after = session.model().mapper().calls.get();
        let d: Vec<u64> = (0..5).map(|f| after[f] - before[f]).collect();
        match ev {
            TraceEvent::Branch { rec, .. } => {
                let cond = u64::from(rec.kind.is_conditional());
                assert_eq!(d[0], 1, "btb1 calls for {rec:?}");
                assert!(d[1] <= 1, "{} btb2_tag calls for {rec:?}", d[1]);
                assert_eq!((d[2], d[3]), (cond, cond), "PHT mapping calls for {rec:?}");
                assert_eq!(d[4], 0, "perceptron calls for {rec:?}");
                mode2 += d[1];
            }
            _ => assert_eq!(d, [0; 5], "mapping calls outside a branch ({ev:?})"),
        }
    }
    let report = session.finish();
    assert!(trace.thread_count() == 2 && report.flushes > 0 && mode2 > 0);
}

/// Work counter: the perceptron maps its weight row (p / Rp) once per
/// conditional branch — `update` trains the row its paired `predict`
/// mapped — and the rest of the BPU still maps ① once per branch.
#[test]
fn perceptron_maps_its_row_once_per_conditional_branch() {
    let trace = trace_for("apache2_prefork_c128", 30_000);
    let bpu = FullBpu::new(
        "Perceptron/counting",
        PerceptronPredictor::new(PerceptronConfig::default()),
        CountingMapper::default(),
        BtbConfig::skylake(),
        false,
    );
    let opts = SessionOptions {
        warmup: Warmup::Branches(0),
        ..SessionOptions::default()
    };
    let mut session = OwnedSession::new(bpu, Protection::Unprotected, opts).unwrap();
    session.begin(&trace.name, None).unwrap();
    let mut conditional = 0;
    for ev in trace.events() {
        let before = session.model().mapper().calls.get();
        session.feed_batch(std::slice::from_ref(ev)).unwrap();
        let after = session.model().mapper().calls.get();
        let (btb1, rp) = (after[0] - before[0], after[4] - before[4]);
        match ev {
            TraceEvent::Branch { rec, .. } => {
                let cond = u64::from(rec.kind.is_conditional());
                assert_eq!((btb1, rp), (1, cond), "btb1/Rp calls for {rec:?}");
                conditional += cond;
            }
            _ => assert_eq!(
                (btb1, rp),
                (0, 0),
                "mapping calls outside a branch ({ev:?})"
            ),
        }
    }
    assert!(conditional > 0);
}
