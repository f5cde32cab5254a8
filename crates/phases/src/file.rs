//! The versioned `.stbp` phase-file container: a clustering result
//! (representative slices, weights, stream coordinates, optional
//! embedded warm checkpoints) that a later run can estimate from without
//! re-profiling.
//!
//! # File format (version 1)
//!
//! All multi-byte scalars are little-endian; `varint` is the LEB128
//! encoding of the workspace codec core ([`stbpu_bpu::snap`]), which also
//! owns the header check and the checksum envelope.
//!
//! | field              | encoding                                   |
//! |--------------------|--------------------------------------------|
//! | magic              | 4 bytes `"STBP"`                           |
//! | version            | u16 LE (currently 1)                       |
//! | flags              | u16 LE (must be 0)                         |
//! | workload           | varint length + UTF-8 bytes                |
//! | seed               | varint (stream seed the profile was cut on)|
//! | total branches     | varint                                     |
//! | total instructions | varint                                     |
//! | total events       | varint                                     |
//! | slice size         | varint (branches per slice)                |
//! | cluster seed       | varint (k-means / projection seed)         |
//! | phase count        | varint                                     |
//! | per phase          | see below                                  |
//! | checksum           | u64 LE, FNV-1a 64 of all preceding bytes   |
//!
//! Each phase record is eight varints — representative slice index,
//! weight in branches, weight in instructions, weight in slices, start
//! branch, start event, representative branches, representative
//! instructions — followed by a varint-framed blob holding the raw bytes
//! of an embedded `.stck` warm checkpoint cut at the phase's start
//! branch. A zero-length blob means "no embedded checkpoint" (cold
//! start); a real checkpoint is never empty, so the encoding is
//! unambiguous.
//!
//! Decoding is total: any truncated, corrupt or alien input produces a
//! positioned [`PhaseError`], never a panic (the `#![deny]` below bans
//! `unwrap`, `expect`, unchecked indexing and the panic macros).

#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::indexing_slicing,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented
)]

use stbpu_bpu::snap::{write_atomic, Format, SnapError};
use std::path::Path;

/// Magic bytes opening every phase file.
pub const STBP_MAGIC: [u8; 4] = *b"STBP";
/// Current format version.
pub const STBP_VERSION: u16 = 1;

const STBP: Format = Format {
    magic: STBP_MAGIC,
    version: STBP_VERSION,
    known_flags: 0,
};

/// A `.stbp` decode/validation failure with the byte offset where it was
/// detected (I/O failures report offset 0); displayed as "phase file
/// error at byte …".
pub type PhaseError = SnapError;

/// Labels `e` as a phase-file error.
fn phase_err(e: SnapError) -> PhaseError {
    e.in_context("phase file")
}

/// One phase: a representative slice, the weight of the cluster it
/// stands for, and where it lives in the stream.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PhaseEntry {
    /// 0-based index of the representative slice.
    pub rep_slice: u64,
    /// Branch events across every slice of this phase's cluster.
    pub weight_branches: u64,
    /// Instructions across every slice of this phase's cluster.
    pub weight_instructions: u64,
    /// Number of slices in this phase's cluster.
    pub weight_slices: u64,
    /// Branch events before the representative slice starts.
    pub start_branch: u64,
    /// Trace events (all kinds) before the representative slice starts —
    /// the cold-start `skip_events` count.
    pub start_event: u64,
    /// Branch events inside the representative slice.
    pub rep_branches: u64,
    /// Instructions inside the representative slice.
    pub rep_instructions: u64,
    /// Raw bytes of an embedded `.stck` checkpoint cut at
    /// [`PhaseEntry::start_branch`]; empty = no embedded checkpoint
    /// (cold start).
    pub checkpoint: Vec<u8>,
}

impl PhaseEntry {
    /// Whether a warm checkpoint is embedded.
    pub fn has_checkpoint(&self) -> bool {
        !self.checkpoint.is_empty()
    }
}

/// A complete phase file, decoded from (or ready to encode into) a
/// `.stbp` file.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PhaseFile {
    /// Workload label the profile was extracted from.
    pub workload: String,
    /// Stream seed the profile was cut on (generator workloads replay
    /// bit-identically from this).
    pub seed: u64,
    /// Total branch events in the profiled stream. Phase weights sum to
    /// exactly this.
    pub total_branches: u64,
    /// Total instructions in the profiled stream.
    pub total_instructions: u64,
    /// Total trace events of all kinds.
    pub total_events: u64,
    /// Slice size in branch events.
    pub slice_branches: u64,
    /// Seed the projection/k-means ran under.
    pub cluster_seed: u64,
    /// The phases, sorted by representative slice index.
    pub phases: Vec<PhaseEntry>,
}

impl PhaseFile {
    /// Encodes the phase file into the `.stbp` byte format.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut w = STBP.writer();
        w.str(&self.workload);
        w.u64(self.seed);
        w.u64(self.total_branches);
        w.u64(self.total_instructions);
        w.u64(self.total_events);
        w.u64(self.slice_branches);
        w.u64(self.cluster_seed);
        w.usize(self.phases.len());
        for p in &self.phases {
            w.u64(p.rep_slice);
            w.u64(p.weight_branches);
            w.u64(p.weight_instructions);
            w.u64(p.weight_slices);
            w.u64(p.start_branch);
            w.u64(p.start_event);
            w.u64(p.rep_branches);
            w.u64(p.rep_instructions);
            w.bytes(&p.checkpoint);
        }
        w.seal()
    }

    /// Decodes a phase file, validating magic, version, flags, framing
    /// and the trailer checksum.
    ///
    /// # Errors
    ///
    /// A positioned [`PhaseError`] on any malformed input; decoding
    /// never panics.
    pub fn from_bytes(data: &[u8]) -> Result<PhaseFile, PhaseError> {
        PhaseFile::decode(data).map_err(phase_err)
    }

    fn decode(data: &[u8]) -> Result<PhaseFile, SnapError> {
        let mut r = STBP.open(data)?;
        let workload = r.str()?;
        let seed = r.u64()?;
        let total_branches = r.u64()?;
        let total_instructions = r.u64()?;
        let total_events = r.u64()?;
        let slice_branches = r.u64()?;
        let cluster_seed = r.u64()?;
        let count = r.u64()?;
        // Growth by push keeps a forged count from allocating anything
        // before the (bounded) body runs out.
        let mut phases = Vec::new();
        for _ in 0..count {
            phases.push(PhaseEntry {
                rep_slice: r.u64()?,
                weight_branches: r.u64()?,
                weight_instructions: r.u64()?,
                weight_slices: r.u64()?,
                start_branch: r.u64()?,
                start_event: r.u64()?,
                rep_branches: r.u64()?,
                rep_instructions: r.u64()?,
                checkpoint: r.bytes()?.to_vec(),
            });
        }
        r.expect_end()?;
        Ok(PhaseFile {
            workload,
            seed,
            total_branches,
            total_instructions,
            total_events,
            slice_branches,
            cluster_seed,
            phases,
        })
    }

    /// Writes the phase file to `path` atomically and durably (see
    /// [`write_atomic`]), so a crash mid-write never leaves a
    /// half-written `.stbp` behind.
    ///
    /// # Errors
    ///
    /// I/O failures, reported with offset 0.
    pub fn save(&self, path: &Path) -> Result<(), PhaseError> {
        write_atomic(path, &self.to_bytes())
            .map_err(|e| phase_err(SnapError::new(0, format!("{}: {e}", path.display()))))
    }

    /// Reads and decodes a phase file from `path`.
    ///
    /// # Errors
    ///
    /// I/O failures (offset 0) and everything [`PhaseFile::from_bytes`]
    /// can return.
    pub fn load(path: &Path) -> Result<PhaseFile, PhaseError> {
        let data = std::fs::read(path)
            .map_err(|e| phase_err(SnapError::new(0, format!("{}: {e}", path.display()))))?;
        PhaseFile::from_bytes(&data)
    }

    /// Branch events that estimation actually simulates (the sum of the
    /// representative slices).
    pub fn simulated_branches(&self) -> u64 {
        self.phases.iter().map(|p| p.rep_branches).sum()
    }

    /// Whether every phase carries an embedded warm checkpoint.
    pub fn fully_warm(&self) -> bool {
        self.phases.iter().all(PhaseEntry::has_checkpoint)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stbpu_bpu::snap::fnv1a64;

    fn sample() -> PhaseFile {
        PhaseFile {
            workload: "541.leela".to_string(),
            seed: 42,
            total_branches: 1_000_000,
            total_instructions: 5_431_002,
            total_events: 1_020_408,
            slice_branches: 100_000,
            cluster_seed: 7,
            phases: vec![
                PhaseEntry {
                    rep_slice: 0,
                    weight_branches: 300_000,
                    weight_instructions: 1_630_000,
                    weight_slices: 3,
                    start_branch: 0,
                    start_event: 0,
                    rep_branches: 100_000,
                    rep_instructions: 542_113,
                    checkpoint: Vec::new(),
                },
                PhaseEntry {
                    rep_slice: 4,
                    weight_branches: 700_000,
                    weight_instructions: 3_801_002,
                    weight_slices: 7,
                    start_branch: 400_000,
                    start_event: 408_163,
                    rep_branches: 100_000,
                    rep_instructions: 544_201,
                    checkpoint: b"not-a-real-checkpoint-but-opaque-here".to_vec(),
                },
            ],
        }
    }

    #[test]
    fn roundtrips_bit_exactly() {
        let pf = sample();
        let bytes = pf.to_bytes();
        let back = PhaseFile::from_bytes(&bytes).unwrap();
        assert_eq!(back, pf);
        assert_eq!(back.to_bytes(), bytes, "re-encode is byte-identical");
        assert_eq!(back.simulated_branches(), 200_000);
        assert!(!back.fully_warm());
        assert!(back.phases[1].has_checkpoint());
    }

    #[test]
    fn every_truncation_is_a_positioned_error() {
        let bytes = sample().to_bytes();
        for n in 0..bytes.len() {
            let err = PhaseFile::from_bytes(&bytes[..n])
                .expect_err("truncated phase file must not decode");
            assert!(err.offset <= n, "offset {} past truncation {n}", err.offset);
        }
    }

    #[test]
    fn corruption_is_caught_by_the_checksum() {
        let mut bytes = sample().to_bytes();
        // Flip one bit in the middle of the body.
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        let err = PhaseFile::from_bytes(&bytes).unwrap_err();
        assert!(err.msg.contains("checksum mismatch"), "{}", err.msg);
        assert_eq!(
            err.to_string(),
            format!("phase file error at byte {}: {}", err.offset, err.msg)
        );
    }

    #[test]
    fn alien_headers_are_rejected_up_front() {
        let pf = sample();
        let mut bad_magic = pf.to_bytes();
        bad_magic[0] = b'X';
        assert_eq!(PhaseFile::from_bytes(&bad_magic).unwrap_err().offset, 0);

        let mut v2 = pf.to_bytes();
        v2[4] = 2;
        let body_end = v2.len() - 8;
        let sum = fnv1a64(&v2[..body_end]);
        v2[body_end..].copy_from_slice(&sum.to_le_bytes());
        let err = PhaseFile::from_bytes(&v2).unwrap_err();
        assert_eq!(err.offset, 4);
        assert!(err.msg.contains("version 2"), "{}", err.msg);

        let mut flagged = pf.to_bytes();
        flagged[6] = 1;
        let sum = fnv1a64(&flagged[..body_end]);
        flagged[body_end..].copy_from_slice(&sum.to_le_bytes());
        assert_eq!(PhaseFile::from_bytes(&flagged).unwrap_err().offset, 6);
    }

    #[test]
    fn forged_phase_count_fails_without_allocating() {
        // A body that declares u64::MAX phases but carries none must die
        // on the first missing field, positioned inside the real bytes.
        let mut pf = sample();
        pf.phases.clear();
        let mut bytes = pf.to_bytes();
        let body_end = bytes.len() - 8;
        // The phase count is the last varint before the checksum; a
        // zero-phase file ends ...count(0). Rewrite it to a huge count.
        bytes.truncate(body_end - 1);
        bytes.extend_from_slice(&[0xff; 10]);
        bytes.push(0x01);
        let sum = fnv1a64(&bytes);
        bytes.extend_from_slice(&sum.to_le_bytes());
        let err = PhaseFile::from_bytes(&bytes).unwrap_err();
        assert!(
            err.msg.contains("phase 0") || err.msg.contains("overflow"),
            "{}",
            err.msg
        );
    }

    #[test]
    fn save_load_via_disk() {
        let dir = std::env::temp_dir().join("stbp-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("roundtrip.stbp");
        let pf = sample();
        pf.save(&path).unwrap();
        assert_eq!(PhaseFile::load(&path).unwrap(), pf);
        std::fs::remove_file(&path).unwrap();
    }
}
