//! One equivalence matrix over the slice executor's plans: for every
//! registry model (aliases excluded) on one SPEC and one server workload,
//! each plan must reproduce the sequential run bit for bit:
//!
//! * `run_sharded` at N = 3 — report and the stitched interval windows;
//! * a resume (`resume_to_end`) from a midpoint `cut_checkpoints` cut —
//!   report, and the windows closed after the cut (the cut drains the
//!   ones before it, exactly as shard pass 1 does);
//! * a warm phase file with one phase per slice (`run_phase_file`) —
//!   the report of the `Warmup::Branches(0)` run it reconstructs (phase
//!   runs carry no windows).
//!
//! Serve parity is checked in `crates/serve`.

use stbpu_engine::{
    auto_protection, build_phase_file, cut_checkpoints, resume_to_end, run_phase_file,
    run_sequential, run_sharded, ModelRegistry, PhaseBuildOptions, ShardConfig, Workload,
};
use stbpu_phases::ClusterConfig;
use stbpu_sim::{SimReport, Warmup};

const BRANCHES: usize = 3_000;
const SLICE: u64 = 1_000;
const INTERVAL: u64 = 400;
const SEED: u64 = 42;

fn models(reg: &ModelRegistry) -> Vec<String> {
    let models: Vec<String> = reg
        .catalog()
        .into_iter()
        .filter(|&(_, _, alias)| !alias)
        .map(|(name, _, _)| name.to_string())
        .collect();
    assert!(models.len() >= 10, "registry lists only {models:?}");
    models
}

/// Reports equal field for field, rates compared by bit pattern.
fn assert_same_report(got: &SimReport, want: &SimReport, ctx: &str) {
    assert_eq!(got, want, "{ctx}");
    assert_eq!(got.oae.to_bits(), want.oae.to_bits(), "{ctx}: oae");
    let (g, w) = (got.direction_rate, want.direction_rate);
    assert_eq!(g.to_bits(), w.to_bits(), "{ctx}: direction rate");
    let (g, w) = (got.target_rate, want.target_rate);
    assert_eq!(g.to_bits(), w.to_bits(), "{ctx}: target rate");
}

fn matrix(workload: &str) {
    let reg = ModelRegistry::standard();
    let wl = Workload::Named(workload.to_string());
    let cfg = ShardConfig {
        shards: 3,
        warmup: Warmup::Fraction(0.1),
        interval: Some(INTERVAL),
        threads: None,
        checkpoint_dir: None,
    };
    for model in models(&reg) {
        let prot = auto_protection(&model);
        let ctx = format!("{model} on {workload}");
        let (seq, seq_iv) = run_sequential(
            &reg,
            &model,
            prot,
            SEED,
            &wl,
            BRANCHES,
            cfg.warmup,
            cfg.interval,
            None,
        )
        .unwrap();
        assert!(seq_iv.len() >= 4, "{ctx}: {} windows", seq_iv.len());

        let sharded = run_sharded(&reg, &model, prot, SEED, &wl, BRANCHES, &cfg).unwrap();
        assert_same_report(&sharded.report, &seq, &format!("sharded {ctx}"));
        assert_eq!(sharded.intervals, seq_iv, "sharded {ctx}: windows");
        assert_eq!(sharded.cuts.len(), 2, "sharded {ctx}: cuts");

        let mid = BRANCHES as u64 / 2;
        let cps = cut_checkpoints(&reg, &model, prot, SEED, &wl, BRANCHES, &cfg, &[mid]).unwrap();
        assert_eq!(cps[0].branches_seen, mid, "{ctx}: cut");
        let mut source = wl.open(SEED, BRANCHES).unwrap();
        let (resumed, tail) = resume_to_end(&reg, &cps[0], source.as_mut()).unwrap();
        assert_same_report(&resumed, &seq, &format!("resumed {ctx}"));
        let (before, after) = seq_iv.split_at(seq_iv.len() - tail.len());
        assert_eq!(tail, after, "resumed {ctx}: windows after the cut");
        let closed_by_cut = before.iter().all(|w| w.start_branch + w.branches <= mid);
        assert!(closed_by_cut, "{ctx}: {before:?}");
        assert!(
            !before.is_empty() && !tail.is_empty(),
            "{ctx}: cut at the edge"
        );

        let opts = PhaseBuildOptions {
            slice_branches: SLICE,
            cluster: ClusterConfig {
                forced_k: Some(BRANCHES / SLICE as usize),
                ..ClusterConfig::default()
            },
            embed: Some((model.clone(), prot)),
        };
        let pf = build_phase_file(&reg, SEED, &wl, BRANCHES, &opts).unwrap();
        assert!(pf.fully_warm(), "{ctx}: cold phases");
        assert_eq!(pf.phases.len(), BRANCHES / SLICE as usize, "{ctx}: phases");
        let phased = run_phase_file(&reg, &model, prot, &pf, &wl).unwrap();
        let (full, _) = run_sequential(
            &reg,
            &model,
            prot,
            SEED,
            &wl,
            BRANCHES,
            Warmup::Branches(0),
            None,
            None,
        )
        .unwrap();
        assert_same_report(&phased.report, &full, &format!("phases {ctx}"));
    }
}

#[test]
fn every_plan_matches_sequential_on_a_spec_workload() {
    matrix("541.leela");
}

#[test]
fn every_plan_matches_sequential_on_a_server_workload() {
    matrix("apache2_prefork_c32");
}
