//! Criterion microbenchmarks: remapping-circuit evaluation cost, mapper
//! overhead, full-model throughput, trace generation, attack primitives,
//! and streamed- vs materialized-simulation throughput.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use stbpu_bpu::{BaselineMapper, Bpu, EntityId, Mapper};
use stbpu_core::{st_skl, st_tage64, StConfig, StMapper};
use stbpu_predictors::{skl_baseline, tage64_baseline};
use stbpu_remap::{analysis, RemapSet};
use stbpu_sim::{simulate_with, Protection, SessionOptions, SimOptions, SimSession, Warmup};
use stbpu_trace::{profiles, TraceGenerator};

fn bench_remap_circuits(c: &mut Criterion) {
    let set = RemapSet::standard();
    let mut g = c.benchmark_group("remap_eval");
    g.bench_function("r1", |b| {
        let mut pc = 0x4000u64;
        b.iter(|| {
            pc = pc.wrapping_add(0x44);
            black_box(set.r1(0xdead_beef, pc & ((1 << 48) - 1)))
        })
    });
    g.bench_function("rt", |b| {
        let mut pc = 0x4000u64;
        b.iter(|| {
            pc = pc.wrapping_add(0x44);
            black_box(set.rt(0xdead_beef, pc & ((1 << 48) - 1), pc as u16))
        })
    });
    g.bench_function("reference_mulxor_hash", |b| {
        let mut pc = 0x4000u64;
        b.iter(|| {
            pc = pc.wrapping_add(0x44);
            black_box(analysis::reference_hash(0xdead_beef, pc, 22))
        })
    });
    g.finish();
}

fn bench_mappers(c: &mut Criterion) {
    let mut g = c.benchmark_group("mapper_btb1");
    let base = BaselineMapper::new();
    g.bench_function("baseline", |b| {
        let mut pc = 0x4000u64;
        b.iter(|| {
            pc = pc.wrapping_add(0x44);
            black_box(base.btb1(0, pc))
        })
    });
    let mut st = StMapper::new(StConfig::default(), 1);
    st.set_entity(0, EntityId::user(1));
    // An ever-advancing pc misses the R1 memo every time: the circuit cost.
    g.bench_function("stbpu_miss", |b| {
        let mut pc = 0x4000u64;
        b.iter(|| {
            pc = pc.wrapping_add(0x44);
            black_box(st.btb1(0, pc))
        })
    });
    // A 64-pc working set stays resident in the memo: the hit cost.
    g.bench_function("stbpu_hit", |b| {
        let mut i = 0u64;
        b.iter(|| {
            i = (i + 1) % 64;
            black_box(st.btb1(0, 0x4000 + i * 0x44))
        })
    });
    g.finish();
}

fn bench_models(c: &mut Criterion) {
    let p = profiles::se_profile(profiles::by_name("525.x264").expect("profile"));
    let trace = TraceGenerator::new(&p, 7).generate(2_000);
    let recs: Vec<_> = trace.branches().map(|(_, r)| *r).collect();

    let mut g = c.benchmark_group("model_process_2k_branches");
    g.sample_size(20);
    for name in ["SKLCond", "ST_SKLCond", "TAGE64", "ST_TAGE64"] {
        g.bench_with_input(BenchmarkId::from_parameter(name), &name, |b, &name| {
            b.iter_batched(
                || -> Box<dyn Bpu> {
                    match name {
                        "SKLCond" => Box::new(skl_baseline()),
                        "ST_SKLCond" => Box::new(st_skl(StConfig::default(), 1)),
                        "TAGE64" => Box::new(tage64_baseline()),
                        _ => Box::new(st_tage64(StConfig::default(), 1)),
                    }
                },
                |mut m| {
                    for r in &recs {
                        black_box(m.process(0, r));
                    }
                },
                criterion::BatchSize::LargeInput,
            )
        });
    }
    g.finish();
}

fn bench_trace_generation(c: &mut Criterion) {
    let p = *profiles::by_name("505.mcf").expect("profile");
    c.bench_function("trace_generate_10k", |b| {
        b.iter(|| {
            let t = TraceGenerator::new(&p, 3).generate(10_000);
            black_box(t.branch_count())
        })
    });
}

/// Streamed (generator-sourced session) vs materialized (generate whole
/// trace, then `simulate_with`) throughput for one end-to-end workload
/// simulation — the two ends of the memory/latency trade-off.
fn bench_sim_throughput(c: &mut Criterion) {
    const N: usize = 10_000;
    let p = *profiles::by_name("505.mcf").expect("profile");
    let mut g = c.benchmark_group("sim_10k_branches");
    g.sample_size(20);
    g.bench_function("materialized", |b| {
        b.iter(|| {
            let trace = TraceGenerator::new(&p, 3).generate(N);
            let mut model = skl_baseline();
            let opts = SimOptions {
                warmup_frac: 0.0,
                threads: None,
            };
            black_box(
                simulate_with(&mut model, Protection::Unprotected, &trace, &opts)
                    .expect("simulates")
                    .oae,
            )
        })
    });
    g.bench_function("streamed", |b| {
        b.iter(|| {
            let mut model = skl_baseline();
            let mut session = SimSession::new(
                &mut model,
                Protection::Unprotected,
                SessionOptions {
                    warmup: Warmup::Branches(0),
                    ..SessionOptions::default()
                },
            )
            .expect("session opens");
            let mut src = TraceGenerator::new(&p, 3).into_source(N);
            session.run(&mut src).expect("simulates");
            black_box(session.finish().oae)
        })
    });
    // Replay from an already-materialized trace (the engine's shared-trace
    // workload path): isolates session overhead from generation cost.
    let trace = TraceGenerator::new(&p, 3).generate(N);
    g.bench_function("streamed_replay", |b| {
        b.iter(|| {
            let mut model = skl_baseline();
            let mut session = SimSession::new(
                &mut model,
                Protection::Unprotected,
                SessionOptions {
                    warmup: Warmup::Branches(0),
                    ..SessionOptions::default()
                },
            )
            .expect("session opens");
            session.run(&mut trace.source()).expect("simulates");
            black_box(session.finish().oae)
        })
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_remap_circuits,
    bench_mappers,
    bench_models,
    bench_trace_generation,
    bench_sim_throughput
);
criterion_main!(benches);
