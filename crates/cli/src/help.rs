//! The single source of truth for `stbpu` help text.
//!
//! Every subcommand's usage string lives in [`SUBCOMMANDS`]; `stbpu
//! --help`, `stbpu help <cmd>` and `<cmd> --help` all print from here, and
//! the model/workload catalogs are generated live from the
//! [`stbpu_engine::ModelRegistry`] and `stbpu_trace::profiles` tables —
//! so help can never drift from what is actually registered.

use stbpu_engine::ModelRegistry;
use stbpu_trace::profiles;

/// One subcommand's help entry.
pub struct Sub {
    /// Subcommand name.
    pub name: &'static str,
    /// One-line summary for the main help screen.
    pub summary: &'static str,
    /// Full usage text (flags and examples).
    pub help: &'static str,
}

/// Every subcommand, in help order.
pub const SUBCOMMANDS: &[Sub] = &[
    Sub {
        name: "simulate",
        summary: "run one model over one workload, streaming",
        help: "\
usage: stbpu simulate --model SPEC [--workload NAME | --trace-file PATH] [options]

  --model SPEC          registry model spec (e.g. skl, st_skl@r=0.01); see the
                        model catalog below
  --workload NAME       named workload profile (default 541.leela)
  --trace-file PATH     line-format trace file instead of a generated workload
  --protection P        unprotected|stbpu|ucode1|ucode2|conservative|auto
                        (default auto: st_* models run under stbpu, the
                        conservative model under conservative, others
                        unprotected)
  --branches N          branches to generate (default 120000; ignored for
                        trace files, which replay their stored stream)
  --seed S              trace + secret-token seed (default 42)
  --threads T           hardware-thread provision (default: from the source)
  --interval N          also record OAE-over-time windows of N branches
  --warmup F            fractional warm-up (default 0.1)
  --warmup-branches N   absolute warm-up budget (works on hint-less sources)
  --format F            human|json|csv (default human)
  --progress            streaming progress on stderr (sequential path only)
  --shards N            two-pass sharded run: pass 1 fast-forwards to the
                        N-1 shard boundaries and checkpoints them, pass 2
                        simulates the shards from those warm checkpoints —
                        output is bit-identical to the sequential run
                        (CI diffs the two)
  --checkpoint-dir DIR  with --shards: cache boundary checkpoints in DIR
                        so repeat runs skip pass 1 (keyed on every knob
                        that affects the stream)
  --resume-from FILE    resume a .stck checkpoint to the end of its
                        workload; model/protection/seed come from the
                        checkpoint (--model is not needed)
  --phases FILE         SimPoint estimation: simulate only the .stbp
                        file's representative slices and reconstruct the
                        whole-trace report as the branch-weighted sum
                        (stream/seed/branches come from the file; any
                        --workload/--trace-file overrides the base
                        stream; zero warm-up always)
  --compare-full        with --phases: also run the full simulation and
                        report the estimated-vs-full error on stderr

examples:
  stbpu simulate --model st_skl@r=0.05 --workload 505.mcf --branches 1000000
  stbpu simulate --model skl --trace-file capture.trace --warmup-branches 500 --format json
  stbpu simulate --model st_skl@r=0.05 --branches 1000000 --shards 4 --format json
  stbpu simulate --resume-from boundary.stck --branches 1000000 --format json
  stbpu simulate --model st_skl@r=0.05 --phases leela.stbp --format json
  stbpu simulate --model skl --phases leela.stbp --compare-full
",
    },
    Sub {
        name: "grid",
        summary: "run a workloads x scenarios x seeds experiment grid",
        help: "\
usage: stbpu grid [--spec FILE] [--suite NAME] [grid flags] [output flags]

Declare the grid in a TOML/JSON spec file (--spec; same keys as the
flags), inline, or by naming a workload suite; inline flags override the
spec file, and a suite fills whatever both left unset.

  --spec FILE           TOML or JSON experiment spec (see README)
  --suite NAME          named workloads x scenarios bundle
                        (paper|spec-like|adversarial|stress; see the suite
                        catalog below)
  --workloads A,B       named workload profiles
  --trace-files P,Q     trace files as workloads (line or binary .stbt,
                        auto-detected by magic)
  --scenarios M:P,...   scenario cells, each 'model:protection'
                        (e.g. skl:unprotected,st_skl@r=0.05:stbpu)
  --fig3                shorthand for the five Figure 3 scheme cells
  --seeds 1,2,3         seeds (each workload x seed pair is one suite)
  --branches N          branches per generated stream (default 20000)
  --warmup F            fractional warm-up
  --warmup-branches N   absolute warm-up budget
  --interval N          attach OAE-over-time windows of N branches
  --threads T           explicit hardware-thread provision
  --name NAME           experiment name (labels only)
  --format F            csv|json (default csv)
  --out FILE            write results to FILE instead of stdout
  --summary             also print per-scenario mean/geomean OAE to stderr
  --checkpoint-dir DIR  crash-safe mode: persist per-suite results and
                        in-flight cell checkpoints in DIR; a killed run
                        rerun with the same flags resumes where it died
                        and produces byte-identical output. DIR is bound
                        to one grid shape (fingerprinted manifest).
  --checkpoint-every N  in-flight cell checkpoint cadence in branches
                        (default 1000000; requires --checkpoint-dir)

examples:
  stbpu grid --workloads 505.mcf,541.leela --fig3 --branches 8000
  stbpu grid --suite paper --branches 4000 --summary
  stbpu grid --spec sweep.toml --format json --out sweep.json
",
    },
    Sub {
        name: "attack",
        summary: "execute the Table I attack surface + monitor telemetry",
        help: "\
usage: stbpu attack [--seed S] [--no-surface] [--no-telemetry] [options]

Runs the executed Table I collision-attack surface (baseline vs STBPU,
cell by cell), then records attacker-observable monitor telemetry — the
branch-indexed timeline of secret-token re-randomizations and policy
flushes — over a realistic workload stream.

  --seed S              attack + trace seed (default 42)
  --no-surface          skip the Table I surface
  --no-telemetry        skip the telemetry timelines
  --model SPEC          ST model for the re-randomization timeline
                        (default st_skl@r=0.001 — aggressive thresholds so
                        the rhythm is visible at small branch counts)
  --workload NAME       telemetry workload (default 541.leela; the flush
                        timeline always uses apache2_prefork_c128)
  --branches N          telemetry stream length (default 100000)
  --json                machine-readable telemetry (marks arrays) on stdout

examples:
  stbpu attack
  stbpu attack --no-surface --model st_tage64@r=0.0005 --branches 500000 --json
",
    },
    Sub {
        name: "trace",
        summary: "generate, inspect, convert and phase-cluster trace files",
        help: "\
usage: stbpu trace generate --workload NAME --out FILE [--branches N] [--seed S] [--format F]
       stbpu trace inspect FILE [--json]     ('-' reads a stream from stdin)
       stbpu trace convert IN OUT [--name NAME] [--format F] [--from F]
       stbpu trace simpoint (--workload NAME | --trace-file PATH) --out FILE.stbp [options]

Three on-disk trace formats exist: the line text format, the compact
binary .stbt format (magic \"STBT\"; ~5x smaller, far faster to ingest)
and the CBP championship import format (magic \"CBPT\"; fixed 18-byte
branch records, the real-trace frontend) — byte-level specs in the
README. Inputs are auto-detected by magic; outputs follow the
destination extension (.stbt = binary, .cbp = CBP), with
--format line|binary|cbp|auto overriding.

generate streams a synthetic workload to a trace file in O(1) memory
(any --branches works). inspect streams a file of any format and
reports the detected format, file size, declared metadata, exact
event/branch counts and scan throughput (records/s); on a .stbp phase
file (magic \"STBP\") it reports phase count, slice size, per-phase
weights and embedded-checkpoint presence instead. convert re-serializes
between formats — normalizing headers (branches/threads recomputed) and
optionally renaming the trace; --from line|binary|cbp asserts the input
format (exits loudly on a mismatch instead of trusting auto-detection).
line <-> binary round trips are lossless and byte-identical, and
cbp -> .stbt -> cbp reproduces any valid .cbp byte-for-byte; converting
*into* cbp is lossy (thread ids, non-branch events and gaps drop).

simpoint runs the SimPoint pipeline: one streaming basic-block-vector
pass over the stream, seeded k-means over the slices, one weighted
representative slice per phase, and a .stbp phase file out (README has
the byte-level spec). `stbpu simulate --phases` then estimates
whole-trace metrics from the representatives alone.

simpoint options:
  --branches N          branches for generated workloads (default 120000)
  --seed S              stream seed (default 42)
  --slice-branches N    slice size in branches (default 100000)
  --k-max K             largest k the BIC scan considers (default 8)
  --k K                 skip the scan, force exactly K clusters
  --cluster-seed S      k-means RNG seed (default 42)
  --embed-model SPEC    also cut and embed one warm .stck checkpoint per
                        phase while simulating SPEC (pins the file to
                        that model/protection/seed; omit for a
                        model-independent file)
  --protection P        protection for --embed-model (default auto)

examples:
  stbpu trace generate --workload apache2_prefork_c128 --branches 2000000 --out apache.stbt
  stbpu trace inspect apache.stbt --json
  stbpu trace convert apache.stbt apache.trace
  stbpu trace convert --from cbp capture.cbp capture.stbt
  stbpu trace simpoint --workload 541.leela --branches 10000000 --out leela.stbp
  stbpu trace inspect leela.stbp
",
    },
    Sub {
        name: "checkpoint",
        summary: "inspect and create .stck simulation checkpoints",
        help: "\
usage: stbpu checkpoint inspect FILE [--json]
       stbpu checkpoint create --model SPEC --at-branches N --out FILE [options]

A .stck checkpoint (magic \"STCK\"; see the README byte-level spec)
freezes one simulation mid-stream: model spec, workload label,
protection, seed, stream position and the full session + model state
blobs, tailed by an FNV-1a checksum. `stbpu simulate --resume-from`
continues one to the end of its workload; the sharded driver and the
grid crash-resume layer read and write the same format.

inspect decodes FILE (verifying version and checksum) and prints its
metadata and blob sizes. create runs the fast-forward pass over a
workload and snapshots immediately after branch N retires:

  --model SPEC          registry model spec (required)
  --workload NAME       named workload profile (default 541.leela)
  --trace-file PATH     trace file instead of a generated workload
  --protection P        protection policy (default auto)
  --at-branches N       snapshot position, in retired branches (required)
  --out FILE            where the .stck file goes (required)
  --branches N          stream length for generated workloads
                        (default 120000; must be >= --at-branches)
  --seed S              trace + token seed (default 42)
  --threads T           hardware-thread provision (default: from source)
  --interval N          interval cadence baked into the session state
  --warmup F            fractional warm-up (default 0.1)
  --warmup-branches N   absolute warm-up budget

examples:
  stbpu checkpoint create --model st_skl@r=0.05 --at-branches 60000 --out half.stck
  stbpu checkpoint inspect half.stck --json
  stbpu simulate --resume-from half.stck --format json
",
    },
    Sub {
        name: "figures",
        summary: "reproduce the paper's figures and tables",
        help: "\
usage: stbpu figures NAME... | --all [--quick] [options]

Each figure prints exactly what its historical `cargo run --bin` harness
printed — the implementations are shared, so outputs are bit-identical
for identical knobs. With several figures a `== name ==` banner goes to
stderr between them; stdout stays pure figure output.

  --all                 run every figure/table (see list below)
  --quick               deterministic CI-sized knobs (8000 branches,
                        seed 42, scaled-down pipeline figures)
  --branches N          override branches per workload
  --seed S              override the seed
  --workload NAME       oae_over_time focus workload
  --windows N           oae_over_time window count
  --list                list figure names and exit

examples:
  stbpu figures fig3
  stbpu figures --all --quick
",
    },
    Sub {
        name: "bench",
        summary: "deterministic perf harness with machine-readable output",
        help: "\
usage: stbpu bench [--suite NAME] [--quick] [--json] [--out-dir DIR] [baseline flags]

Streams a fixed scheme suite (baseline, stbpu, ucode1, conservative,
st_tage64) over one generated workload, measuring wall-clock time,
branches/second and OAE per scheme. Each scheme writes a
BENCH_<name>.json record into --out-dir so CI can archive perf
trajectories; OAE is deterministic for a fixed seed and is the value the
baseline gate compares.

  --suite NAME          default: one batched run per scheme.
                        throughput: batched AND single-event runs per
                        scheme — hard-fails unless both paths are
                        bit-identical, emits one BENCH_throughput.json
                        (branches/s per path, batch speedup), and treats
                        --check drift as warn-only notes (wall-clock is
                        machine-dependent)
                        ingest: writes one trace to disk in both formats
                        (line + binary .stbt), measures parse-only and
                        parse+simulate branches/s per format — hard-fails
                        unless line and binary produce bit-identical
                        reports — and emits one BENCH_ingest.json (file
                        sizes, size ratio, ingest speedup)
                        shard: times the sequential run, then sharded
                        runs at N=2 and N=4 (pass-1 cut cost, cold and
                        warm pass-2 wall time, checkpoint save/load
                        throughput) — hard-fails unless every sharded
                        report is bit-identical to the sequential one —
                        and emits one BENCH_shard.json (scaling curve,
                        warm-resume speedup, core count)
                        serve: spawns the streaming daemon on loopback,
                        drives concurrent socket clients through it —
                        hard-fails unless every streamed report is
                        bit-identical to an offline run — and emits one
                        BENCH_serve.json (sessions/s, aggregate branches/s,
                        p50/p99 flush-to-report latency)
                        simpoint: distills the workload into a .stbp
                        phase file (one BBV + k-means pass), estimates
                        every scheme from the representative slices, and
                        — unless --estimate-only — runs each scheme in
                        full too, hard-failing if any |estimated − full|
                        OAE exceeds the documented 0.02 bound or the
                        speedup falls below 10x at paper scale; emits one
                        BENCH_simpoint.json
  --quick               200k branches per scheme (default 2M;
                        ingest suite defaults to a 10M-branch trace,
                        shard/simpoint suites to 10M branches / 1M with
                        --quick)
  --branches N          explicit branch count (overrides --quick/default)
  --seed S              trace + token seed (default 42)
  --workload NAME       workload profile (default 541.leela)
  --clients N           serve suite: concurrent socket clients (default 8)
  --sessions N          serve suite: sessions per client (default 2)
  --out-dir DIR         where BENCH_*.json records go (default .)
  --json                print the combined record array on stdout
  --check FILE          fail (exit 1) if any scheme's OAE drifts from the
                        committed baseline beyond --tolerance
                        (throughput suite: warn-only branches/s notes;
                        simpoint suite: compares estimated OAE against
                        the committed ci/simpoint-reference.json)
  --update-baseline FILE  write/refresh the baseline file instead
                        (throughput suite also refreshes its throughput
                        section; the default suite preserves it)
  --estimate-only       simpoint suite: skip the full reference runs —
                        the cheap per-PR CI gate shape (estimates are
                        deterministic, so --check still gates exactly)
  --update-reference FILE  simpoint suite: write/refresh the estimation
                        reference file instead of checking it
  --tolerance T         OAE drift tolerance for --check (default 1e-9)

examples:
  stbpu bench --quick --json --out-dir bench-artifacts --check ci/baseline.json
  stbpu bench --quick --update-baseline ci/baseline.json
  stbpu bench --suite throughput --quick --check ci/baseline.json
  stbpu bench --suite ingest --quick --check ci/baseline.json
  stbpu bench --suite shard --quick --out-dir bench-artifacts
  stbpu bench --suite serve --quick --out-dir bench-artifacts
  stbpu bench --suite simpoint --estimate-only --check ci/simpoint-reference.json
",
    },
    Sub {
        name: "serve",
        summary: "streaming TCP simulation daemon (and its socket self-test)",
        help: "\
usage: stbpu serve [--listen ADDR] [daemon options]
       stbpu serve --client [--connect ADDR] [self-test options]

Daemon mode binds a TCP listener and accepts sessions over a
length-prefixed binary protocol (see the README frame spec): a client
sends Hello{model, protection, workload, seed, warmup, interval},
streams raw .stbt record bytes in TraceChunk frames, and receives
IntervalRecord frames as windows complete plus one FinalReport after
Flush — bit-identical to running `stbpu simulate` offline on the same
stream. Per-connection quotas bound sessions and buffered bytes;
overload answers with advisory Backpressure/Resume frames and TCP
pushback, never a dropped session.

daemon options:
  --listen ADDR         bind address (default 127.0.0.1:4588)
  --workers N           worker threads (default: one per core, max 8)
  --max-sessions N      live sessions per connection (default 16)
  --max-buffered N      buffered chunk bytes per connection (default
                        8 MiB, minimum one 1 MiB frame)
  --idle-timeout-ms N   idle session reap timeout (default 30000)
  --write-timeout-ms N  per-write timeout to a client socket; a client
                        that stops reading loses its connection after
                        at most this long (default 10000)

self-test options (--client):
  --connect ADDR        target a running daemon (default: spawn one
                        in-process on loopback)
  --clients N           concurrent socket clients (default 2)
  --workload NAME       workload profile (default 541.leela)
  --model SPEC          model spec (default st_skl)
  --protection P        protection policy (default auto)
  --branches N          branches per session (default 60000)
  --seed S              trace + token seed (default 42)
  --warmup-branches N   warm-up budget (default branches/10)
  --interval N          also stream OAE interval windows of N branches
  --json                print the streamed report as `stbpu simulate
                        --format json` would (byte-identical for the
                        same flags — CI diffs the two)

every self-test client hard-fails unless its streamed report is
bit-identical to one offline reference run of the same events.

examples:
  stbpu serve --listen 0.0.0.0:4588
  stbpu serve --client --clients 4 --branches 100000
  stbpu serve --client --connect 10.0.0.7:4588 --json
",
    },
    Sub {
        name: "list",
        summary: "list registered models, workloads, suites and figures",
        help: "\
usage: stbpu list [models|workloads|suites|figures]

Prints the live catalogs (everything name-resolvable from the shell).
With no operand, prints all four.
",
    },
];

/// Looks up a subcommand's help entry.
pub fn sub(name: &str) -> Option<&'static Sub> {
    SUBCOMMANDS.iter().find(|s| s.name == name)
}

/// Prints the top-level help: subcommands plus the live model catalog and
/// workload listing.
pub fn print_main() {
    println!("stbpu — STBPU reproduction driver: figures, attacks, workloads, benchmarks");
    println!();
    println!("usage: stbpu <command> [args]   (stbpu help <command> for details)");
    println!();
    println!("commands:");
    for s in SUBCOMMANDS {
        println!("  {:<10} {}", s.name, s.summary);
    }
    println!();
    print_models();
    println!();
    print_workloads();
}

/// Prints the live model catalog from the standard registry.
pub fn print_models() {
    let registry = ModelRegistry::standard();
    println!("models (every spec accepts a seed; ST models take @r=..., gshare @bits=...):");
    for (name, summary, alias) in registry.catalog() {
        if !alias {
            println!("  {name:<16} {summary}");
        }
    }
    let aliases = registry.alias_names().join(", ");
    println!("  aliases: {aliases}");
}

/// Prints the live workload-suite catalog.
pub fn print_suites() {
    println!("workload suites (grid --suite NAME; workloads x scenarios bundles):");
    for s in stbpu_engine::WorkloadSuite::all() {
        println!(
            "  {:<12} {} ({} workloads x {} scenarios, default {} branches)",
            s.name,
            s.summary,
            s.workload_names().len(),
            s.scenario_specs().len(),
            s.branches
        );
    }
}

/// Prints the live workload-profile listing.
pub fn print_workloads() {
    println!(
        "workloads ({} SPEC CPU 2017 profiles, {} application profiles):",
        profiles::SPEC.len(),
        profiles::APPS.len()
    );
    print_name_columns(profiles::SPEC.iter().map(|p| p.name));
    print_name_columns(profiles::APPS.iter().map(|p| p.name));
}

fn print_name_columns<'a>(names: impl Iterator<Item = &'a str>) {
    let names: Vec<&str> = names.collect();
    for row in names.chunks(3) {
        let mut line = String::from(" ");
        for n in row {
            line.push_str(&format!(" {n:<24}"));
        }
        println!("{}", line.trim_end());
    }
}

/// Prints the figure catalog (from the shared bench registry).
pub fn print_figures() {
    println!("figures:");
    for f in stbpu_bench::figures::ALL {
        println!("  {:<14} {}", f.name, f.summary);
    }
}
