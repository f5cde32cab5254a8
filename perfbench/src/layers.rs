//! Per-layer metrics of a traced run, derived from its spans and the
//! workloads' probe readings.
//!
//! Every span-derived metric is read from the spans of one fixed workload
//! (its source below), whichever workload the run times. So a metric means
//! the same thing in every traced run, and a shift in it points at that
//! one workload's end-to-end metrics.

use crate::runner::Readings;
use crate::stats::median;
use crate::tracer::{Span, Tracer};
use std::collections::BTreeMap;

const FIG3: &str = "fig3-generated";
const REPLAY: &str = "cbp-replay";
const SERVE: &str = "serve-sessions";
const SLICED: &str = "sliced-stbt";

/// Every scheme fed through `feed_batch` by the benchmark, by its span
/// tag, and the workload its feed time is read from.
const SCHEMES: [(&str, &str); 8] = [
    ("baseline", FIG3),
    ("stbpu", FIG3),
    ("ucode1", FIG3),
    ("ucode2", FIG3),
    ("conservative", FIG3),
    ("tagescl", REPLAY),
    ("ittage", REPLAY),
    ("tage64", REPLAY),
];

/// Readings every traced run must carry (name, unit), in output order
/// after the span-derived metrics.
const READINGS: [(&str, &str); 21] = [
    ("trace.stbt_bytes_per_branch", "B"),
    ("trace.cbp_bytes_per_branch", "B"),
    ("remap.r1_ns", "ns"),
    ("remap.r2_ns", "ns"),
    ("remap.r3_ns", "ns"),
    ("remap.r4_ns", "ns"),
    ("remap.rt_ns", "ns"),
    ("remap.rp_ns", "ns"),
    ("core.rerandomizations", "count"),
    ("core.flushes", "count"),
    ("serve.wire_bytes_per_branch", "B"),
    ("sim.checkpoint_bytes", "B"),
    ("sim.oae.baseline", "ratio"),
    ("sim.oae.stbpu", "ratio"),
    ("sim.oae.ucode1", "ratio"),
    ("sim.oae.ucode2", "ratio"),
    ("sim.oae.conservative", "ratio"),
    ("sim.oae_norm_err_vs_paper", "ratio"),
    ("sim.oae.tagescl", "ratio"),
    ("sim.oae.ittage", "ratio"),
    ("sim.oae.tage64", "ratio"),
];

struct View<'a> {
    spans: &'a [Span],
    selfs: Vec<u64>,
}

impl View<'_> {
    /// Spans named `name` of workload `workload`, with tag `tag` if given.
    fn matching<'s>(
        &'s self,
        name: &'s str,
        tag: Option<&'s str>,
        workload: &'s str,
    ) -> impl Iterator<Item = (usize, &'s Span)> + 's {
        self.spans.iter().enumerate().filter(move |(_, s)| {
            s.name == name && s.workload == workload && tag.is_none_or(|t| s.tag == t)
        })
    }

    /// Self nanoseconds per unit of work (`count`).
    fn ns_per_count(&self, name: &str, tag: Option<&str>, workload: &str) -> f64 {
        let (ns, n) = self
            .matching(name, tag, workload)
            .fold((0u64, 0u64), |(ns, n), (i, s)| {
                (ns + self.selfs[i], n + s.count)
            });
        ns as f64 / n as f64
    }

    /// Median span duration in seconds. A median, because the first call
    /// can pay one-time costs (the first ST model build generates the
    /// remap circuits).
    fn median_s(&self, name: &str, workload: &str) -> f64 {
        let mut v: Vec<f64> = self
            .matching(name, None, workload)
            .map(|(_, s)| (s.end_ns - s.start_ns) as f64 / 1e9)
            .collect();
        median(&mut v)
    }

    /// Median over set-up repetitions of the time spent in `name` spans
    /// within one repetition. A set-up piece's span carries its
    /// repetition as count.
    fn per_setup_rep_s(&self, name: &str, workload: &str) -> f64 {
        let mut reps: BTreeMap<u64, u64> = BTreeMap::new();
        for (_, s) in self.matching(name, None, workload) {
            if let Some(p) = s.parent.map(|p| &self.spans[p]) {
                *reps.entry(p.count).or_default() += s.end_ns - s.start_ns;
            }
        }
        let mut v: Vec<f64> = reps.values().map(|&ns| ns as f64 / 1e9).collect();
        median(&mut v)
    }
}

/// Every per-layer metric as (name, value, unit), in a fixed order.
pub fn metrics(
    t: &Tracer,
    readings: &Readings,
    overhead_branches_per_s: f64,
) -> Vec<(String, f64, &'static str)> {
    let view = View {
        spans: t.spans(),
        selfs: t.self_times_ns(),
    };
    let mut out: Vec<(String, f64, &'static str)> = vec![
        (
            "trace.generate_ns_per_branch".into(),
            view.ns_per_count("trace.next_batch", Some("generated"), FIG3),
            "ns",
        ),
        (
            "trace.stbt_decode_ns_per_branch".into(),
            view.ns_per_count("trace.next_batch", Some("stbt"), REPLAY),
            "ns",
        ),
        (
            "trace.cbp_decode_ns_per_branch".into(),
            view.ns_per_count("trace.next_batch", Some("cbp"), REPLAY),
            "ns",
        ),
        (
            "trace.stage_s".into(),
            view.per_setup_rep_s("trace.stage", REPLAY),
            "s",
        ),
        (
            "trace.stage_s.sliced-stbt".into(),
            view.per_setup_rep_s("trace.stage", SLICED),
            "s",
        ),
    ];
    for (scheme, workload) in SCHEMES {
        out.push((
            format!("sim.feed_ns_per_branch.{scheme}"),
            view.ns_per_count("sim.feed_batch", Some(scheme), workload),
            "ns",
        ));
    }
    out.extend([
        (
            "engine.model_build_us".into(),
            view.median_s("engine.model_build", FIG3) * 1e6,
            "us",
        ),
        (
            "sim.open_us".into(),
            view.median_s("sim.open", FIG3) * 1e6,
            "us",
        ),
        (
            "serve.open_ms".into(),
            view.median_s("serve.open", SERVE) * 1e3,
            "ms",
        ),
        (
            "serve.send_ns_per_branch".into(),
            view.ns_per_count("serve.send", None, SERVE),
            "ns",
        ),
        (
            "serve.report_wait_ms".into(),
            view.median_s("serve.report_wait", SERVE) * 1e3,
            "ms",
        ),
        (
            "engine.shard_cut_s".into(),
            view.median_s("engine.shard_cut", SLICED),
            "s",
        ),
        (
            "engine.shard_run_s".into(),
            view.median_s("engine.shard_run", SLICED),
            "s",
        ),
        (
            "engine.phase_run_s".into(),
            view.median_s("engine.phase_run", SLICED),
            "s",
        ),
        (
            "sim.checkpoint_encode_ms".into(),
            view.median_s("sim.checkpoint_encode", SLICED) * 1e3,
            "ms",
        ),
        (
            "sim.checkpoint_decode_ms".into(),
            view.median_s("sim.checkpoint_decode", SLICED) * 1e3,
            "ms",
        ),
        (
            "phases.bbv_s".into(),
            view.per_setup_rep_s("phases.bbv", SLICED),
            "s",
        ),
        (
            "phases.cluster_s".into(),
            view.per_setup_rep_s("phases.cluster", SLICED),
            "s",
        ),
    ]);
    for (name, unit) in READINGS {
        let value = readings.get(name).copied().unwrap_or(f64::NAN);
        out.push((name.to_string(), value, unit));
    }
    out.push((
        "bench.trace_overhead_branches_per_s".into(),
        overhead_branches_per_s,
        "1/s",
    ));
    out
}
