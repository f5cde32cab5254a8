//! Basic-block-vector (BBV) extraction — the profiling pass behind
//! SimPoint-style phase clustering.
//!
//! The SimPoint methodology (Sherwood et al.) observes that long program
//! executions cycle through a small number of *phases*, and that a cheap
//! structural fingerprint — how often each basic block executes inside a
//! fixed-size slice of the run — identifies them without simulating
//! anything. This module computes that fingerprint over any
//! [`EventSource`]: the stream is split into consecutive slices of
//! [`BbvProfile::slice_branches`] branch events each, and every slice
//! gets a sparse vector mapping branch PC → instructions attributed to
//! that block (`1 + gap` per branch event, i.e. the branch itself plus
//! the straight-line instructions leading to it).
//!
//! Slice boundaries follow the shard-cut convention
//! (`stbpu_engine::cut_checkpoints`): a slice closes immediately after
//! the branch event that fills it, and trailing non-branch events belong
//! to the next slice — so a slice's `(start_branch, start_event)`
//! coordinates can seed both a warm checkpoint cut and a cold
//! [`EventSource::skip_events`] reposition.
//!
//! The extraction is a single streaming pass in O(distinct blocks)
//! memory, reads no clocks, iterates no hash-ordered containers
//! ([`std::collections::BTreeMap`] keeps vectors ordered), and never
//! panics on any input. The crate's `clippy.toml` bans clock reads and
//! hash containers; the `#![deny]` below bans panicking calls.

#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::indexing_slicing,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented
)]

use crate::event::TraceEvent;
use crate::source::{EventSource, SourceError};
use std::collections::BTreeMap;

/// Default slice size in branch events (the SimPoint-classic 100k).
pub const DEFAULT_SLICE_BRANCHES: u64 = 100_000;

/// Events pulled per batch while streaming (matches the shard driver).
const BBV_BATCH: usize = 4_096;

/// One fixed-size slice of the stream and its basic-block vector.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SliceProfile {
    /// 0-based slice index.
    pub index: u64,
    /// Branch events consumed before this slice starts.
    pub start_branch: u64,
    /// Trace events (all kinds) consumed before this slice starts — the
    /// [`EventSource::skip_events`] count that repositions a fresh stream
    /// at the slice boundary.
    pub start_event: u64,
    /// Branch events in this slice (equal to the slice size except for a
    /// trailing partial slice).
    pub branches: u64,
    /// Instructions attributed to this slice (`1 + gap` per branch).
    pub instructions: u64,
    /// Sparse basic-block vector: branch PC → instructions attributed to
    /// the block ending at that PC. Ordered, so iteration is
    /// deterministic.
    pub vector: BTreeMap<u64, u64>,
}

/// The whole-stream BBV profile: every slice plus stream totals.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BbvProfile {
    /// Workload name the source declared.
    pub workload: String,
    /// Slice size in branch events.
    pub slice_branches: u64,
    /// Total branch events in the stream. Slice branch counts always sum
    /// to exactly this (test-enforced).
    pub total_branches: u64,
    /// Total instructions (`1 + gap` summed over every branch event).
    pub total_instructions: u64,
    /// Total trace events of all kinds.
    pub total_events: u64,
    /// The per-slice profiles, in stream order.
    pub slices: Vec<SliceProfile>,
}

/// Streams `source` to exhaustion, splitting it into slices of
/// `slice_branches` branch events and building one [`SliceProfile`] per
/// slice. A trailing partial slice (fewer branches than the slice size)
/// is kept; trailing non-branch events after the last branch are counted
/// in [`BbvProfile::total_events`] but open no empty slice.
///
/// # Errors
///
/// [`SourceError`] when `slice_branches` is zero or the source fails
/// mid-stream. Never panics.
pub fn extract_bbv(
    source: &mut dyn EventSource,
    slice_branches: u64,
) -> Result<BbvProfile, SourceError> {
    if slice_branches == 0 {
        return Err(SourceError(
            "BBV slice size must be at least 1 branch".to_string(),
        ));
    }
    let mut profile = BbvProfile {
        workload: source.name().to_string(),
        slice_branches,
        total_branches: 0,
        total_instructions: 0,
        total_events: 0,
        slices: Vec::new(),
    };
    let mut cur = SliceProfile {
        index: 0,
        start_branch: 0,
        start_event: 0,
        branches: 0,
        instructions: 0,
        vector: BTreeMap::new(),
    };
    let mut buf: Vec<TraceEvent> = Vec::new();
    loop {
        let n = source.next_batch(&mut buf, BBV_BATCH)?;
        if n == 0 {
            break;
        }
        for ev in &buf {
            profile.total_events += 1;
            if let TraceEvent::Branch { rec, .. } = ev {
                let instructions = 1 + u64::from(rec.gap);
                profile.total_branches += 1;
                profile.total_instructions += instructions;
                cur.branches += 1;
                cur.instructions += instructions;
                *cur.vector.entry(rec.pc.raw()).or_insert(0) += instructions;
                if cur.branches == slice_branches {
                    // Close the slice right after the branch that fills
                    // it; following non-branch events open the next one.
                    let next = SliceProfile {
                        index: cur.index + 1,
                        start_branch: profile.total_branches,
                        start_event: profile.total_events,
                        branches: 0,
                        instructions: 0,
                        vector: BTreeMap::new(),
                    };
                    profile.slices.push(std::mem::replace(&mut cur, next));
                }
            }
        }
    }
    // A trailing partial slice counts only if it saw a branch; a tail of
    // pure non-branch events stays in the totals but adds no slice.
    if cur.branches > 0 {
        profile.slices.push(cur);
    }
    // The source may have refined its name mid-stream (late file header).
    profile.workload = source.name().to_string();
    Ok(profile)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{TraceGenerator, WorkloadProfile};

    fn sample_source(branches: usize) -> impl EventSource {
        TraceGenerator::new(&WorkloadProfile::test_profile(), 7).into_source(branches)
    }

    #[test]
    fn slice_weights_sum_to_stream_totals() {
        let mut src = sample_source(2_500);
        let p = extract_bbv(&mut src, 400).unwrap();
        assert_eq!(p.total_branches, 2_500);
        assert_eq!(p.slice_branches, 400);
        assert_eq!(p.slices.len(), 7, "6 full slices + 1 partial");
        let branch_sum: u64 = p.slices.iter().map(|s| s.branches).sum();
        let instr_sum: u64 = p.slices.iter().map(|s| s.instructions).sum();
        assert_eq!(branch_sum, p.total_branches);
        assert_eq!(instr_sum, p.total_instructions);
        for s in &p.slices {
            let v: u64 = s.vector.values().sum();
            assert_eq!(v, s.instructions, "slice {} vector mass", s.index);
        }
    }

    #[test]
    fn slice_coordinates_follow_the_cut_convention() {
        let mut src = sample_source(1_000);
        let p = extract_bbv(&mut src, 250).unwrap();
        for (i, s) in p.slices.iter().enumerate() {
            assert_eq!(s.index, i as u64);
            assert_eq!(s.start_branch, i as u64 * 250);
        }
        // start_event repositions a fresh stream exactly: skipping
        // start_event events leaves exactly (total - start_branch)
        // branches ahead.
        let s2 = &p.slices[2];
        let mut fresh = sample_source(1_000);
        assert_eq!(fresh.skip_events(s2.start_event).unwrap(), s2.start_event);
        let mut remaining = 0u64;
        while let Some(ev) = fresh.next_event().unwrap() {
            if matches!(ev, TraceEvent::Branch { .. }) {
                remaining += 1;
            }
        }
        assert_eq!(remaining, p.total_branches - s2.start_branch);
    }

    #[test]
    fn extraction_is_deterministic() {
        let a = extract_bbv(&mut sample_source(1_200), 300).unwrap();
        let b = extract_bbv(&mut sample_source(1_200), 300).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn exact_multiple_yields_no_partial_slice() {
        let p = extract_bbv(&mut sample_source(900), 300).unwrap();
        assert_eq!(p.slices.len(), 3);
        assert!(p.slices.iter().all(|s| s.branches == 300));
    }

    #[test]
    fn zero_slice_size_is_an_error() {
        let err = extract_bbv(&mut sample_source(10), 0).unwrap_err();
        assert!(err.0.contains("slice size"), "{err}");
    }
}
