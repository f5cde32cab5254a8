//! The versioned `.stck` checkpoint container: a complete simulation
//! snapshot (model tables, mapper tokens, session bookkeeping) that a
//! fresh process can resume bit-identically.
//!
//! # File format (version 1)
//!
//! All multi-byte scalars are little-endian; `varint` is the LEB128
//! encoding of the workspace codec core ([`stbpu_bpu::snap`]), which also
//! owns the header check and the checksum envelope.
//!
//! | field             | encoding                                  |
//! |-------------------|-------------------------------------------|
//! | magic             | 4 bytes `"STCK"`                          |
//! | version           | u16 LE (currently 1)                      |
//! | flags             | u16 LE (must be 0)                        |
//! | model spec        | varint length + UTF-8 bytes               |
//! | workload          | varint length + UTF-8 bytes               |
//! | protection        | 1 byte ([`Protection`] code)              |
//! | seed              | varint                                    |
//! | events consumed   | varint (trace events fed, all kinds)      |
//! | branches seen     | varint (branch events fed, warm-up incl.) |
//! | session state     | varint length + opaque snapshot bytes     |
//! | model state       | varint length + opaque snapshot bytes     |
//! | checksum          | u64 LE, FNV-1a 64 of all preceding bytes  |
//!
//! The session and model state blobs are the [`stbpu_bpu::StateWriter`]
//! streams produced by [`OwnedSession::save_session_state`] and
//! [`stbpu_bpu::Bpu::save_state`]; their internal layout is owned by the
//! components themselves and validated on load. The model is *rebuilt*
//! from the spec string and seed before the blob is applied, so
//! configuration never travels in the blob — only mutable state does.
//!
//! Decoding is total: any truncated, corrupt or alien input produces a
//! positioned [`CheckpointError`], never a panic (the `#![deny]` below
//! bans `unwrap`, `expect`, unchecked indexing and the panic macros).

#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::indexing_slicing,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented
)]

use crate::session::OwnedSession;
use crate::{Protection, SimError};
use stbpu_bpu::snap::{write_atomic, Format};
use stbpu_bpu::{Bpu, SnapError, StateReader, StateWriter};
use std::path::Path;

/// Magic bytes opening every checkpoint file.
pub const STCK_MAGIC: [u8; 4] = *b"STCK";
/// Current format version.
pub const STCK_VERSION: u16 = 1;

const STCK: Format = Format {
    magic: STCK_MAGIC,
    version: STCK_VERSION,
    known_flags: 0,
};

/// A `.stck` decode/validation failure with the byte offset where it was
/// detected (I/O failures report offset 0); displayed as "checkpoint
/// error at byte …".
pub type CheckpointError = SnapError;

/// Labels `e` as a checkpoint error.
fn ckpt_err(e: SnapError) -> CheckpointError {
    e.in_context("checkpoint")
}

/// A session or model state blob that does not fit the session.
fn state_err(e: SnapError) -> CheckpointError {
    ckpt_err(SnapError::new(
        e.offset,
        format!("state snapshot: {}", e.msg),
    ))
}

impl Protection {
    /// The stable one-byte code this policy serializes as.
    pub fn code(self) -> u8 {
        match self {
            Protection::Unprotected => 0,
            Protection::Stbpu => 1,
            Protection::Ucode1 => 2,
            Protection::Ucode2 => 3,
            Protection::Conservative => 4,
        }
    }

    /// Inverse of [`Protection::code`].
    pub fn from_code(code: u8) -> Option<Self> {
        match code {
            0 => Some(Protection::Unprotected),
            1 => Some(Protection::Stbpu),
            2 => Some(Protection::Ucode1),
            3 => Some(Protection::Ucode2),
            4 => Some(Protection::Conservative),
            _ => None,
        }
    }
}

/// One complete simulation snapshot, decoded from (or ready to encode
/// into) a `.stck` file.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Checkpoint {
    /// Registry spec of the model (e.g. `st_skl@r=0.05`) — resume rebuilds
    /// the model from this and `seed` before applying `model_state`.
    pub model_spec: String,
    /// Workload label the session carries.
    pub workload: String,
    /// Protection policy the session runs under.
    pub protection: Protection,
    /// Seed the model was built with.
    pub seed: u64,
    /// Trace events consumed so far (all kinds — the resume skip count).
    pub events_consumed: u64,
    /// Branch events consumed so far (warm-up included).
    pub branches_seen: u64,
    /// Opaque session bookkeeping snapshot.
    pub session_state: Vec<u8>,
    /// Opaque model state snapshot.
    pub model_state: Vec<u8>,
}

impl Checkpoint {
    /// Snapshots a live session: the session bookkeeping, the model's
    /// complete mutable state, and the resume coordinates.
    ///
    /// # Errors
    ///
    /// [`SnapError`] (converted) when the model does not support state
    /// snapshots.
    pub fn capture<B: Bpu>(
        session: &OwnedSession<B>,
        model_spec: &str,
        seed: u64,
        events_consumed: u64,
    ) -> Result<Checkpoint, CheckpointError> {
        let mut sw = StateWriter::new();
        session.save_session_state(&mut sw);
        let mut mw = StateWriter::new();
        session.model().save_state(&mut mw).map_err(state_err)?;
        Ok(Checkpoint {
            model_spec: model_spec.to_string(),
            workload: session.workload().unwrap_or("unnamed").to_string(),
            protection: session.protection(),
            seed,
            events_consumed,
            branches_seen: session.branches_seen(),
            session_state: sw.into_bytes(),
            model_state: mw.into_bytes(),
        })
    }

    /// Applies this checkpoint's session and model state to `session`,
    /// which must have been opened under [`Checkpoint::protection`] over
    /// a model freshly built from [`Checkpoint::model_spec`] and
    /// [`Checkpoint::seed`].
    ///
    /// # Errors
    ///
    /// A positioned [`CheckpointError`] when either blob does not match
    /// the session/model geometry.
    pub fn apply<B: Bpu>(&self, session: &mut OwnedSession<B>) -> Result<(), CheckpointError> {
        let mut r = StateReader::new(&self.session_state);
        session
            .load_session_state(&mut r)
            .and_then(|()| r.expect_end())
            .map_err(state_err)?;
        let mut r = StateReader::new(&self.model_state);
        session.model_mut().load_state(&mut r).map_err(state_err)
    }

    /// Encodes the checkpoint into the `.stck` byte format.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut w = STCK.writer();
        w.str(&self.model_spec);
        w.str(&self.workload);
        w.u8(self.protection.code());
        w.u64(self.seed);
        w.u64(self.events_consumed);
        w.u64(self.branches_seen);
        w.bytes(&self.session_state);
        w.bytes(&self.model_state);
        w.seal()
    }

    /// Decodes a checkpoint, validating magic, version, flags, framing
    /// and the trailer checksum.
    ///
    /// # Errors
    ///
    /// A positioned [`CheckpointError`] on any malformed input; decoding
    /// never panics.
    pub fn from_bytes(data: &[u8]) -> Result<Checkpoint, CheckpointError> {
        Checkpoint::decode(data).map_err(ckpt_err)
    }

    fn decode(data: &[u8]) -> Result<Checkpoint, SnapError> {
        let mut r = STCK.open(data)?;
        let model_spec = r.str()?;
        let workload = r.str()?;
        let code_at = r.offset();
        let code = r.u8()?;
        let protection = Protection::from_code(code)
            .ok_or_else(|| SnapError::new(code_at, format!("unknown protection code {code}")))?;
        let checkpoint = Checkpoint {
            model_spec,
            workload,
            protection,
            seed: r.u64()?,
            events_consumed: r.u64()?,
            branches_seen: r.u64()?,
            session_state: r.bytes()?.to_vec(),
            model_state: r.bytes()?.to_vec(),
        };
        r.expect_end()?;
        Ok(checkpoint)
    }

    /// Writes the checkpoint to `path` atomically and durably (see
    /// [`write_atomic`]), so a crash mid-write never leaves a
    /// half-written `.stck` behind.
    ///
    /// # Errors
    ///
    /// I/O failures, reported with offset 0.
    pub fn save(&self, path: &Path) -> Result<(), CheckpointError> {
        write_atomic(path, &self.to_bytes())
            .map_err(|e| ckpt_err(SnapError::new(0, format!("{}: {e}", path.display()))))
    }

    /// Reads and decodes a checkpoint from `path`.
    ///
    /// # Errors
    ///
    /// I/O failures (offset 0) and everything [`Checkpoint::from_bytes`]
    /// can return.
    pub fn load(path: &Path) -> Result<Checkpoint, CheckpointError> {
        let data = std::fs::read(path)
            .map_err(|e| ckpt_err(SnapError::new(0, format!("{}: {e}", path.display()))))?;
        Checkpoint::from_bytes(&data)
    }
}

impl From<CheckpointError> for SimError {
    fn from(e: CheckpointError) -> Self {
        SimError::Source(e.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{SessionOptions, Warmup};
    use stbpu_bpu::snap::fnv1a64;
    use stbpu_predictors::skl_baseline;
    use stbpu_trace::{TraceGenerator, WorkloadProfile};

    fn sample() -> Checkpoint {
        let opts = SessionOptions {
            warmup: Warmup::Branches(0),
            interval: Some(500),
            ..SessionOptions::default()
        };
        let mut s = OwnedSession::new(skl_baseline(), Protection::Stbpu, opts).unwrap();
        let mut src = TraceGenerator::new(&WorkloadProfile::test_profile(), 3).into_source(1_200);
        s.run(&mut src).unwrap();
        Checkpoint::capture(&s, "skl", 7, 1_234).unwrap()
    }

    #[test]
    fn roundtrips_bit_exactly() {
        let cp = sample();
        let bytes = cp.to_bytes();
        let back = Checkpoint::from_bytes(&bytes).unwrap();
        assert_eq!(back, cp);
        assert_eq!(back.to_bytes(), bytes, "re-encode is byte-identical");
    }

    #[test]
    fn every_truncation_is_a_positioned_error() {
        let bytes = sample().to_bytes();
        for n in 0..bytes.len() {
            let err = Checkpoint::from_bytes(&bytes[..n])
                .expect_err("truncated checkpoint must not decode");
            assert!(err.offset <= n, "offset {} past truncation {n}", err.offset);
        }
    }

    #[test]
    fn corruption_is_caught_by_the_checksum() {
        let mut bytes = sample().to_bytes();
        // Flip one bit in the middle of the body.
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        let err = Checkpoint::from_bytes(&bytes).unwrap_err();
        assert!(err.msg.contains("checksum mismatch"), "{}", err.msg);
        assert_eq!(
            err.to_string(),
            format!("checkpoint error at byte {}: {}", err.offset, err.msg)
        );
    }

    #[test]
    fn alien_headers_are_rejected_up_front() {
        let cp = sample();
        let mut bad_magic = cp.to_bytes();
        bad_magic[0] = b'X';
        assert_eq!(Checkpoint::from_bytes(&bad_magic).unwrap_err().offset, 0);

        let mut v2 = cp.to_bytes();
        v2[4] = 2;
        let body_end = v2.len() - 8;
        let sum = fnv1a64(&v2[..body_end]);
        v2[body_end..].copy_from_slice(&sum.to_le_bytes());
        let err = Checkpoint::from_bytes(&v2).unwrap_err();
        assert_eq!(err.offset, 4);
        assert!(err.msg.contains("version 2"), "{}", err.msg);

        let mut flagged = cp.to_bytes();
        flagged[6] = 1;
        let sum = fnv1a64(&flagged[..body_end]);
        flagged[body_end..].copy_from_slice(&sum.to_le_bytes());
        assert_eq!(Checkpoint::from_bytes(&flagged).unwrap_err().offset, 6);
    }

    #[test]
    fn protection_codes_roundtrip() {
        for p in [
            Protection::Unprotected,
            Protection::Stbpu,
            Protection::Ucode1,
            Protection::Ucode2,
            Protection::Conservative,
        ] {
            assert_eq!(Protection::from_code(p.code()), Some(p));
        }
        assert_eq!(Protection::from_code(5), None);
    }

    #[test]
    fn save_load_via_disk() {
        let dir = std::env::temp_dir().join("stck-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("roundtrip.stck");
        let cp = sample();
        cp.save(&path).unwrap();
        assert_eq!(Checkpoint::load(&path).unwrap(), cp);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn capture_apply_resume_is_bit_identical() {
        // Simulate 2_000 events straight through...
        let trace = TraceGenerator::new(&WorkloadProfile::test_profile(), 9).generate(2_500);
        let opts = || SessionOptions {
            warmup: Warmup::Branches(100),
            ..SessionOptions::default()
        };
        let mut full = OwnedSession::new(skl_baseline(), Protection::Unprotected, opts()).unwrap();
        full.begin(&trace.name, Some(trace.branch_count() as u64))
            .unwrap();
        full.feed_batch(trace.events()).unwrap();
        let r_full = full.finish();

        // ...and in two halves through a checkpoint.
        let cut = trace.events().len() / 2;
        let mut first = OwnedSession::new(skl_baseline(), Protection::Unprotected, opts()).unwrap();
        first
            .begin(&trace.name, Some(trace.branch_count() as u64))
            .unwrap();
        first.feed_batch(&trace.events()[..cut]).unwrap();
        let cp = Checkpoint::capture(&first, "skl", 0, cut as u64).unwrap();
        let bytes = cp.to_bytes();

        let cp = Checkpoint::from_bytes(&bytes).unwrap();
        let mut resumed = OwnedSession::new(
            skl_baseline(),
            cp.protection,
            SessionOptions {
                warmup: Warmup::Branches(0),
                ..SessionOptions::default()
            },
        )
        .unwrap();
        cp.apply(&mut resumed).unwrap();
        resumed.feed_batch(&trace.events()[cut..]).unwrap();
        let r_resumed = resumed.finish();

        assert_eq!(r_full.oae.to_bits(), r_resumed.oae.to_bits());
        assert_eq!(r_full.branches, r_resumed.branches);
        assert_eq!(r_full.mispredictions, r_resumed.mispredictions);
        assert_eq!(r_full.workload, r_resumed.workload);
    }

    #[test]
    fn mismatched_state_is_a_checkpoint_error() {
        let mut cp = sample();
        cp.model_state.truncate(cp.model_state.len() / 2);
        let mut s = OwnedSession::new(skl_baseline(), Protection::Stbpu, SessionOptions::default())
            .unwrap();
        let err = cp.apply(&mut s).unwrap_err();
        assert!(
            err.to_string().starts_with(&format!(
                "checkpoint error at byte {}: state snapshot: ",
                err.offset
            )),
            "{err}"
        );
    }
}
