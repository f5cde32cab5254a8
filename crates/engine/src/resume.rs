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
//! checkpoint warm-starts its cell via [`crate::resume_session`] +
//! [`stbpu_trace::EventSource::skip_events`]. Both paths are
//! bit-identical to never having been killed (test- and CI-enforced).

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
use crate::shard::resume_session;
use crate::workload::Workload;
use stbpu_sim::{Checkpoint, IntervalWindow, OwnedSession, SessionOptions, SimReport, Warmup};
use std::path::{Path, PathBuf};
/// Batch size for the cell feed loop (matches the session's pull size).
const CELL_BATCH: usize = 4_096;

/// In-flight checkpoint path for one cell of the grid.
pub(crate) fn cell_path(dir: &Path, suite: usize, scenario: usize) -> PathBuf {
    dir.join(format!("cell-{suite}-{scenario}.stck"))
}

fn push_str_field(out: &mut String, key: &str, val: &str, first: bool) {
    if !first {
        out.push(',');
    }
    out.push_str(&escape(key));
    out.push(':');
    out.push_str(&escape(val));
}

/// One completed suite as a `completed.jsonl` line (no trailing newline).
pub(crate) fn suite_to_json_line(suite: usize, records: &[RunRecord]) -> String {
    let mut out = String::from("{");
    push_str_field(&mut out, "suite", &suite.to_string(), true);
    out.push_str(",\"records\":[");
    for (i, r) in records.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push('{');
        push_str_field(&mut out, "workload", &r.workload, true);
        push_str_field(&mut out, "model_spec", &r.model_spec, false);
        push_str_field(&mut out, "seed", &r.seed.to_string(), false);
        out.push_str(",\"report\":{");
        push_str_field(&mut out, "model", &r.report.model, true);
        push_str_field(&mut out, "protection", r.report.protection, false);
        push_str_field(&mut out, "workload", &r.report.workload, false);
        push_str_field(&mut out, "oae", &format!("{}", r.report.oae), false);
        push_str_field(
            &mut out,
            "direction_rate",
            &format!("{}", r.report.direction_rate),
            false,
        );
        push_str_field(
            &mut out,
            "target_rate",
            &format!("{}", r.report.target_rate),
            false,
        );
        push_str_field(&mut out, "branches", &r.report.branches.to_string(), false);
        push_str_field(
            &mut out,
            "mispredictions",
            &r.report.mispredictions.to_string(),
            false,
        );
        push_str_field(
            &mut out,
            "evictions",
            &r.report.evictions.to_string(),
            false,
        );
        push_str_field(&mut out, "flushes", &r.report.flushes.to_string(), false);
        push_str_field(
            &mut out,
            "rerandomizations",
            &r.report.rerandomizations.to_string(),
            false,
        );
        out.push_str("},\"intervals\":[");
        for (j, w) in r.intervals.iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "[\"{}\",\"{}\",\"{}\",\"{}\",\"{}\",\"{}\"]",
                w.start_branch,
                w.branches,
                w.effective_correct,
                w.mispredictions,
                w.flushes,
                w.rerandomizations
            ));
        }
        out.push_str("]}");
    }
    out.push_str("]}");
    out
}

fn str_u64(j: &Json, key: &str) -> Option<u64> {
    j.get(key)?.as_str()?.parse().ok()
}

fn str_f64(j: &Json, key: &str) -> Option<f64> {
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
            .map(|x| x.as_str().and_then(|s| s.parse().ok()))
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
        seed: str_u64(j, "seed")?,
        report: SimReport {
            model: str_string(rep, "model")?,
            protection,
            workload: str_string(rep, "workload")?,
            oae: str_f64(rep, "oae")?,
            direction_rate: str_f64(rep, "direction_rate")?,
            target_rate: str_f64(rep, "target_rate")?,
            branches: str_u64(rep, "branches")?,
            mispredictions: str_u64(rep, "mispredictions")?,
            evictions: str_u64(rep, "evictions")?,
            flushes: str_u64(rep, "flushes")?,
            rerandomizations: str_u64(rep, "rerandomizations")?,
        },
        intervals,
    })
}

/// Parses one `completed.jsonl` line; `None` for anything malformed —
/// notably the partial trailing line a kill can leave behind.
pub(crate) fn suite_from_json_line(line: &str) -> Option<(usize, Vec<RunRecord>)> {
    let j = Json::parse(line).ok()?;
    let suite = str_u64(&j, "suite")? as usize;
    let records = j
        .get("records")?
        .as_array()?
        .iter()
        .map(record_from_json)
        .collect::<Option<Vec<_>>>()?;
    Some((suite, records))
}

fn src_err(e: stbpu_trace::SourceError) -> EngineError {
    EngineError::WorkloadSource(e.to_string())
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
    let mut source = workload.open(seed, branches)?;

    // A valid in-flight checkpoint for exactly this cell warm-starts it;
    // anything stale or mismatched is ignored and the cell runs fresh.
    let resumable = Checkpoint::load(cell).ok().filter(|cp| {
        cp.model_spec == sc.model && cp.seed == seed && cp.protection == sc.protection
    });
    let (mut session, mut events_fed) = match resumable {
        Some(cp) => {
            let s = resume_session(registry, &cp)?;
            let skipped = source.skip_events(cp.events_consumed).map_err(src_err)?;
            if skipped != cp.events_consumed {
                return Err(EngineError::Checkpoint(format!(
                    "cell checkpoint consumed {} events but its stream has only {skipped}",
                    cp.events_consumed
                )));
            }
            (s, cp.events_consumed)
        }
        None => {
            let model = registry.build(&sc.model, seed)?;
            let threads = threads.or(match source.thread_count() {
                0 => None,
                t => Some(t),
            });
            let mut s: OwnedSession<crate::ModelCore> = OwnedSession::new(
                model,
                sc.protection,
                SessionOptions {
                    warmup,
                    threads,
                    interval,
                    workload: None,
                },
            )?;
            s.begin(source.name(), source.branch_hint())?;
            (s, 0u64)
        }
    };

    let mut buf = Vec::new();
    let mut last_saved = session.branches_seen();
    let mut every = checkpoint_every.max(1);
    loop {
        let n = source.next_batch(&mut buf, CELL_BATCH).map_err(src_err)?;
        if n == 0 {
            break;
        }
        session.feed_batch(&buf)?;
        events_fed += n as u64;
        if session.branches_seen().saturating_sub(last_saved) >= every {
            match Checkpoint::capture(&session, &sc.model, seed, events_fed) {
                Ok(cp) => {
                    cp.save(cell)
                        .map_err(|e| EngineError::Checkpoint(e.to_string()))?;
                    last_saved = session.branches_seen();
                }
                Err(_) => every = u64::MAX,
            }
        }
    }
    let (report, intervals) = session.finish_with_intervals();
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
