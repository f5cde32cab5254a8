//! Kill/resume support for grid runs: the completed-suite log and the
//! checkpointable cell runner behind `Experiment::checkpoint_dir`.
//!
//! A checkpointed grid run persists two kinds of state:
//!
//! * **`completed.jsonl`** — one line per finished (workload, seed)
//!   suite, appended and flushed the moment the suite's records arrive on
//!   the main thread. Every numeric field is encoded as a *string*: `u64`
//!   as decimal (JSON numbers are doubles and would corrupt counters
//!   above 2⁵³) and `f64` via Rust's shortest-roundtrip `Display`, which
//!   `str::parse::<f64>` restores bit-exactly. A process killed
//!   mid-append leaves at most one partial trailing line, which the
//!   parser skips.
//! * **`cell-<suite>-<scenario>.stck`** — an in-flight [`Checkpoint`] per
//!   running cell, refreshed every `checkpoint_every` branches
//!   (atomically: temp file + rename). Unlike the shard driver, the cell
//!   blob keeps its retained interval windows — a resumed cell's final
//!   series must equal the uninterrupted one.
//!
//! On resume, suites present in the log are skipped outright; a live cell
//! checkpoint is the start of the cell's slice (see [`crate::slice`]).
//! Both paths are bit-identical to never having been killed (test- and
//! CI-enforced).

#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::indexing_slicing,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented
)]

use crate::error::EngineError;
use crate::experiment::{RunRecord, Scenario};
use crate::minijson::{escape, Json};
use crate::registry::ModelRegistry;
use crate::report::protection_from_str;
use crate::slice::{ckpt_err, Model, Slice, Span, Start};
use crate::workload::Workload;
use stbpu_sim::{Checkpoint, IntervalWindow, SimReport, Warmup};
use std::path::{Path, PathBuf};

/// In-flight checkpoint path for one cell of the grid.
pub(crate) fn cell_path(dir: &Path, suite: usize, scenario: usize) -> PathBuf {
    dir.join(format!("cell-{suite}-{scenario}.stck"))
}

/// One completed suite as a `completed.jsonl` line (no trailing newline).
pub(crate) fn suite_to_json_line(suite: usize, records: &[RunRecord]) -> String {
    let fields = |pairs: &[(&str, String)]| {
        let kv: Vec<String> = pairs
            .iter()
            .map(|(k, v)| format!("{}:{}", escape(k), escape(v)))
            .collect();
        kv.join(",")
    };
    let records: Vec<String> = records
        .iter()
        .map(|r| {
            let rep = &r.report;
            let report = fields(&[
                ("model", rep.model.clone()),
                ("protection", rep.protection.to_string()),
                ("workload", rep.workload.clone()),
                ("oae", rep.oae.to_string()),
                ("direction_rate", rep.direction_rate.to_string()),
                ("target_rate", rep.target_rate.to_string()),
                ("branches", rep.branches.to_string()),
                ("mispredictions", rep.mispredictions.to_string()),
                ("evictions", rep.evictions.to_string()),
                ("flushes", rep.flushes.to_string()),
                ("rerandomizations", rep.rerandomizations.to_string()),
            ]);
            let windows: Vec<String> = r
                .intervals
                .iter()
                .map(|w| {
                    format!(
                        "[\"{}\",\"{}\",\"{}\",\"{}\",\"{}\",\"{}\"]",
                        w.start_branch,
                        w.branches,
                        w.effective_correct,
                        w.mispredictions,
                        w.flushes,
                        w.rerandomizations
                    )
                })
                .collect();
            let head = fields(&[
                ("workload", r.workload.clone()),
                ("model_spec", r.model_spec.clone()),
                ("seed", r.seed.to_string()),
            ]);
            format!(
                "{{{head},\"report\":{{{report}}},\"intervals\":[{}]}}",
                windows.join(",")
            )
        })
        .collect();
    let head = fields(&[("suite", suite.to_string())]);
    format!("{{{head},\"records\":[{}]}}", records.join(","))
}

fn str_parse<T: std::str::FromStr>(j: &Json, key: &str) -> Option<T> {
    j.get(key)?.as_str()?.parse().ok()
}

fn str_string(j: &Json, key: &str) -> Option<String> {
    Some(j.get(key)?.as_str()?.to_string())
}

fn record_from_json(j: &Json) -> Option<RunRecord> {
    let rep = j.get("report")?;
    // The log stores the display label; map it back to the one static
    // string every live report carries.
    let protection = protection_from_str(rep.get("protection")?.as_str()?)
        .ok()?
        .label();
    let mut intervals = Vec::new();
    for w in j.get("intervals")?.as_array()? {
        let v: Vec<u64> = w
            .as_array()?
            .iter()
            .map(|x| x.as_str()?.parse().ok())
            .collect::<Option<_>>()?;
        let &[start_branch, branches, effective_correct, mispredictions, flushes, rerandomizations] =
            v.as_slice()
        else {
            return None;
        };
        intervals.push(IntervalWindow {
            start_branch,
            branches,
            effective_correct,
            mispredictions,
            flushes,
            rerandomizations,
        });
    }
    Some(RunRecord {
        workload: str_string(j, "workload")?,
        model_spec: str_string(j, "model_spec")?,
        seed: str_parse(j, "seed")?,
        report: SimReport {
            model: str_string(rep, "model")?,
            protection,
            workload: str_string(rep, "workload")?,
            oae: str_parse(rep, "oae")?,
            direction_rate: str_parse(rep, "direction_rate")?,
            target_rate: str_parse(rep, "target_rate")?,
            branches: str_parse(rep, "branches")?,
            mispredictions: str_parse(rep, "mispredictions")?,
            evictions: str_parse(rep, "evictions")?,
            flushes: str_parse(rep, "flushes")?,
            rerandomizations: str_parse(rep, "rerandomizations")?,
        },
        intervals,
    })
}

/// Parses one `completed.jsonl` line; `None` for anything malformed —
/// notably the partial trailing line a kill can leave behind.
pub(crate) fn suite_from_json_line(line: &str) -> Option<(usize, Vec<RunRecord>)> {
    let j = Json::parse(line).ok()?;
    let suite = str_parse::<u64>(&j, "suite")? as usize;
    let records = j
        .get("records")?
        .as_array()?
        .iter()
        .map(record_from_json)
        .collect::<Option<Vec<_>>>()?;
    Some((suite, records))
}

/// Runs one grid cell with periodic in-flight checkpointing, resuming
/// from an existing valid checkpoint at `cell` when one is present.
///
/// Cell checkpointing is best-effort where the *model* is concerned — a
/// custom model without snapshot support silently disables it (the suite
/// log still gives whole-suite resume) — but I/O failures while saving
/// are loud: a full disk must not masquerade as a checkpointed run.
///
/// # Errors
///
/// Registry, workload, simulation, or checkpoint-save errors.
#[allow(clippy::too_many_arguments)]
pub(crate) fn run_cell(
    registry: &ModelRegistry,
    sc: &Scenario,
    workload: &Workload,
    seed: u64,
    branches: usize,
    warmup: Warmup,
    threads: Option<usize>,
    interval: Option<u64>,
    cell: &Path,
    checkpoint_every: u64,
) -> Result<RunRecord, EngineError> {
    // A valid in-flight checkpoint for exactly this cell warm-starts it;
    // anything stale or mismatched is ignored and the cell runs fresh.
    let m = Model::new(registry, &sc.model, sc.protection, seed);
    let resumable = Checkpoint::load(cell).ok().filter(|cp| m.cut_for(cp));
    let start = match &resumable {
        Some(cp) => Start::Checkpoint(cp),
        None => Start::Fresh(warmup, interval, threads),
    };
    let mut source = workload.open(seed, branches)?;
    let mut slice = Slice::open(m, source.as_mut(), start, EngineError::Checkpoint)?;
    // Save every `checkpoint_every` branches; a model without snapshot
    // support runs the rest of the cell in one span.
    let mut every = checkpoint_every.max(1);
    while slice.advance(Span::Branch(slice.branches().saturating_add(every)), true)? {
        match slice.capture() {
            Ok(cp) => cp.save(cell).map_err(ckpt_err)?,
            Err(_) => every = u64::MAX,
        }
    }
    let (report, intervals) = slice.finish()?;
    Ok(RunRecord {
        workload: workload.label(),
        model_spec: sc.model.clone(),
        seed,
        report,
        intervals,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use stbpu_sim::Protection;

    fn sample_records() -> Vec<RunRecord> {
        vec![RunRecord {
            workload: "w,\"quoted\"".to_string(),
            model_spec: "st_skl@r=0.05".to_string(),
            seed: u64::MAX,
            report: SimReport {
                model: "st_skl".to_string(),
                protection: Protection::Stbpu.label(),
                workload: "w,\"quoted\"".to_string(),
                oae: 0.1 + 0.2, // not representable as a short decimal
                direction_rate: f64::MIN_POSITIVE,
                target_rate: 1.0 / 3.0,
                branches: (1 << 53) + 1, // would corrupt as a JSON double
                mispredictions: 7,
                evictions: 0,
                flushes: u64::MAX,
                rerandomizations: 3,
            },
            intervals: vec![IntervalWindow {
                start_branch: 9_007_199_254_740_993,
                branches: 1,
                effective_correct: 2,
                mispredictions: 3,
                flushes: 4,
                rerandomizations: 5,
            }],
        }]
    }

    #[test]
    fn suite_log_line_roundtrips_bit_exactly() {
        let recs = sample_records();
        let line = suite_to_json_line(17, &recs);
        let (suite, back) = suite_from_json_line(&line).unwrap();
        assert_eq!(suite, 17);
        assert_eq!(back.len(), 1);
        let (a, b) = (&recs[0], &back[0]);
        assert_eq!(a.workload, b.workload);
        assert_eq!(a.model_spec, b.model_spec);
        assert_eq!(a.seed, b.seed);
        assert_eq!(a.report, b.report);
        assert_eq!(a.report.oae.to_bits(), b.report.oae.to_bits());
        assert_eq!(
            a.report.direction_rate.to_bits(),
            b.report.direction_rate.to_bits()
        );
        assert_eq!(a.intervals, b.intervals);
    }

    #[test]
    fn partial_and_garbage_lines_are_skipped() {
        let line = suite_to_json_line(0, &sample_records());
        // A kill can truncate the trailing line anywhere.
        for cut in [1, line.len() / 2, line.len() - 1] {
            assert!(suite_from_json_line(&line[..cut]).is_none(), "cut={cut}");
        }
        assert!(suite_from_json_line("").is_none());
        assert!(suite_from_json_line("{\"suite\":\"0\"}").is_none());
        assert!(suite_from_json_line("not json at all").is_none());
    }
}
