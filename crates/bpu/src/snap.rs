//! The workspace's binary codec core: every byte format (`.stbt` and
//! `.cbp` traces, `.stck` checkpoints, `.stbp` phase files, serve frames
//! and the component state blobs inside checkpoints) is a thin schema
//! over the pieces here.
//!
//! * **Scalars** — [`push_varint`]/[`decode_varint`] (LEB128 varints for
//!   unsigned integers), [`zigzag`]/[`unzigzag`] (signed integers as
//!   varints), fixed 8-byte little-endian for `f64` bit patterns, and
//!   varint-length-prefixed byte strings, all reachable through
//!   [`StateWriter`] and [`StateReader`].
//! * **Header** — [`Format`]: a 4-byte magic, a u16 LE version and u16
//!   LE flags at offsets 0/4/6, checked in one place.
//! * **Envelope** — [`StateWriter::seal`] appends an FNV-1a 64
//!   ([`fnv1a64`]) trailer; [`Format::open`] checks length, header and
//!   checksum and hands back a [`StateReader`] over the body.
//! * **Durable write** — [`write_atomic`] replaces a file so that neither
//!   a killed process nor an OS crash leaves half of it behind.
//!
//! Two invariants matter for checkpoint correctness:
//!
//! 1. **Determinism** — the same logical state always serializes to the
//!    same bytes (all collections are ordered; no addresses, no clocks),
//!    so shard-handoff verification can compare snapshots with `==`.
//! 2. **No panics** — [`StateReader`] is bounds-checked everywhere and
//!    reports failures as positioned [`SnapError`]s, because the bytes
//!    come from disk or the network and may be truncated or corrupt (the
//!    `#![deny]` below bans `unwrap`, `expect`, unchecked indexing and
//!    the panic macros).

#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::indexing_slicing,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented
)]

use std::fmt;
use std::io::Write;
use std::path::Path;

/// A positioned encode/decode failure, labelled by what was being
/// decoded.
///
/// `offset` is the byte position in the decoded buffer where decoding
/// stopped making sense — sufficient to pinpoint truncation or
/// corruption. The label leads the message: `snapshot` by default, and
/// each file format names its own (the `.stck` checkpoint and `.stbp`
/// phase-file errors are this type under their own names).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SnapError {
    /// Byte offset within the buffer at which the error was detected.
    pub offset: usize,
    /// Human-readable description of what went wrong.
    pub msg: String,
    context: &'static str,
}

impl SnapError {
    /// A new positioned error.
    pub fn new(offset: usize, msg: impl Into<String>) -> Self {
        SnapError {
            offset,
            msg: msg.into(),
            context: "snapshot",
        }
    }

    /// The error a model that cannot snapshot itself returns from the
    /// default `save_state`/`load_state` implementations.
    pub fn unsupported(what: &str) -> Self {
        SnapError::new(0, format!("'{what}' does not support state snapshots"))
    }

    /// The same error, labelled as a failure to decode `context` (e.g.
    /// `"checkpoint"`).
    pub fn in_context(self, context: &'static str) -> Self {
        SnapError { context, ..self }
    }
}

impl fmt::Display for SnapError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} error at byte {}: {}",
            self.context, self.offset, self.msg
        )
    }
}

impl std::error::Error for SnapError {}

/// Zigzag-encodes a signed value so small magnitudes of either sign get
/// short varints.
pub fn zigzag(v: i64) -> u64 {
    (v.wrapping_shl(1) ^ (v >> 63)) as u64
}

/// Inverse of [`zigzag`].
pub fn unzigzag(u: u64) -> i64 {
    ((u >> 1) as i64) ^ -((u & 1) as i64)
}

/// Appends an LEB128 varint.
pub fn push_varint(out: &mut Vec<u8>, mut v: u64) {
    while v >= 0x80 {
        out.push((v as u8) | 0x80);
        v >>= 7;
    }
    out.push(v as u8);
}

/// An LEB128 varint whose continuation bytes run past 64 bits of payload
/// — corrupt input, never produced by [`push_varint`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct VarintOverflow;

impl fmt::Display for VarintOverflow {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("varint overflows 64 bits")
    }
}

impl std::error::Error for VarintOverflow {}

/// Bounds-checked LEB128 decode from the front of `data`. Returns
/// `Ok(Some((value, encoded_len)))` on a complete varint, `Ok(None)` when
/// `data` ends mid-varint (stream callers wait for more bytes), and never
/// reads past the tenth byte.
///
/// # Errors
///
/// [`VarintOverflow`] when the encoding exceeds 64 bits of payload.
pub fn decode_varint(data: &[u8]) -> Result<Option<(u64, usize)>, VarintOverflow> {
    let mut v = 0u64;
    let mut shift = 0u32;
    for (n, &b) in data.iter().enumerate().take(10) {
        if shift == 63 && b > 1 {
            return Err(VarintOverflow);
        }
        v |= ((b & 0x7f) as u64) << shift;
        if b & 0x80 == 0 {
            return Ok(Some((v, n + 1)));
        }
        shift += 7;
    }
    // Ten buffered bytes always resolve inside the loop (the tenth byte
    // is terminal or overflows), so falling out means a short buffer.
    Ok(None)
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// FNV-1a 64 over `data` — the trailer checksum of sealed containers
/// ([`StateWriter::seal`]) and the engine's grid/cell keys.
pub fn fnv1a64(data: &[u8]) -> u64 {
    let mut h = FNV_OFFSET;
    for &b in data {
        h ^= u64::from(b);
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// Bytes in the magic + version + flags prefix.
const HEADER_LEN: usize = 8;
/// Bytes in the FNV-1a 64 trailer a sealed container ends with.
const TRAILER_LEN: usize = 8;

/// A binary format's identity: the 8-byte prefix every workspace file
/// format opens with — 4-byte magic, u16 LE version, u16 LE flags.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Format {
    /// The four-byte file magic at offset 0.
    pub magic: [u8; 4],
    /// The one version this build reads and writes (offset 4).
    pub version: u16,
    /// Every flag bit (offset 6) this version defines.
    pub known_flags: u16,
}

impl Format {
    /// The encoded prefix carrying `flags`.
    pub fn header(&self, flags: u16) -> [u8; HEADER_LEN] {
        let ([m0, m1, m2, m3], [v0, v1], [f0, f1]) =
            (self.magic, self.version.to_le_bytes(), flags.to_le_bytes());
        [m0, m1, m2, m3, v0, v1, f0, f1]
    }

    /// Validates the prefix of `data` and returns its flags.
    ///
    /// # Errors
    ///
    /// A bad magic (offset 0), a prefix cut short (offset `data.len()`),
    /// another version (offset 4) or a flag bit outside
    /// [`Format::known_flags`] (offset 6).
    pub fn check_header(&self, data: &[u8]) -> Result<u16, SnapError> {
        if data.get(..4) != Some(&self.magic[..]) {
            let short = if data.len() < 4 {
                " (file shorter than the magic)"
            } else {
                ""
            };
            let (magic, found) = (self.magic, data.get(..4).unwrap_or(data));
            let text = String::from_utf8_lossy(&magic);
            let msg = format!("bad magic: expected {magic:?} (\"{text}\"), found {found:?}{short}");
            return Err(SnapError::new(0, msg));
        }
        let Some(&[.., v0, v1, f0, f1]) = data.first_chunk::<HEADER_LEN>() else {
            let msg = format!(
                "truncated header: {} bytes, need at least {HEADER_LEN}",
                data.len()
            );
            return Err(SnapError::new(data.len(), msg));
        };
        let (version, flags) = (u16::from_le_bytes([v0, v1]), u16::from_le_bytes([f0, f1]));
        if version != self.version {
            let msg = format!(
                "unsupported format version {version} (this build reads version {})",
                self.version
            );
            return Err(SnapError::new(4, msg));
        }
        let unknown = flags & !self.known_flags;
        if unknown != 0 {
            return Err(SnapError::new(
                6,
                format!("unknown header flags {unknown:#06x}"),
            ));
        }
        Ok(flags)
    }

    /// A writer that already holds this format's prefix (no flags set) —
    /// encode the body, then [`StateWriter::seal`] it.
    pub fn writer(&self) -> StateWriter {
        StateWriter {
            buf: self.header(0).to_vec(),
        }
    }

    /// Opens a sealed container: checks the header, the minimum length
    /// and the FNV-1a trailer, then returns a reader over the body,
    /// positioned just past the header. Reader offsets are offsets into
    /// `data`.
    ///
    /// # Errors
    ///
    /// Header faults as [`Format::check_header`] reports them, a file too
    /// short for header plus trailer (offset `data.len()`), or a checksum
    /// mismatch (offset of the trailer).
    pub fn open<'a>(&self, data: &'a [u8]) -> Result<StateReader<'a>, SnapError> {
        self.check_header(data)?;
        let body_end = data.len().saturating_sub(TRAILER_LEN);
        let (Some(body), Some(&trailer)) = (
            data.get(..body_end).filter(|b| b.len() >= HEADER_LEN),
            data.last_chunk::<TRAILER_LEN>(),
        ) else {
            let need = HEADER_LEN + TRAILER_LEN;
            let msg = format!("truncated: {} bytes, need at least {need}", data.len());
            return Err(SnapError::new(data.len(), msg));
        };
        let (stored, actual) = (u64::from_le_bytes(trailer), fnv1a64(body));
        if stored != actual {
            let msg = format!("checksum mismatch: stored {stored:#018x}, computed {actual:#018x}");
            return Err(SnapError::new(body_end, msg));
        }
        Ok(StateReader {
            buf: body,
            pos: HEADER_LEN,
        })
    }
}

/// Writes `bytes` to `path` through a `.tmp` sibling that is synced to
/// disk before it is renamed over `path`; on Unix the directory is synced
/// after the rename too. Neither a killed process nor an OS crash leaves a
/// half-written file behind.
///
/// # Errors
///
/// Propagates I/O errors; `path` keeps its old contents when any step
/// before the rename fails.
pub fn write_atomic(path: &Path, bytes: &[u8]) -> std::io::Result<()> {
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    let mut file = std::fs::File::create(&tmp)?;
    file.write_all(bytes)?;
    file.sync_all()?;
    std::fs::rename(&tmp, path)?;
    #[cfg(unix)]
    {
        let dir = path.parent().filter(|d| !d.as_os_str().is_empty());
        std::fs::File::open(dir.unwrap_or(Path::new(".")))?.sync_all()?;
    }
    Ok(())
}

/// Append-only encoder.
#[derive(Debug, Default)]
pub struct StateWriter {
    buf: Vec<u8>,
}

impl StateWriter {
    /// An empty writer.
    pub fn new() -> Self {
        StateWriter::default()
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True if nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Consumes the writer, yielding the encoded blob.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Consumes the writer, appending the FNV-1a 64 (u64 LE) of every
    /// byte written — the trailer [`Format::open`] verifies.
    pub fn seal(mut self) -> Vec<u8> {
        let sum = fnv1a64(&self.buf);
        self.buf.extend_from_slice(&sum.to_le_bytes());
        self.buf
    }

    /// Writes an unsigned integer as a LEB128 varint.
    pub fn u64(&mut self, v: u64) {
        push_varint(&mut self.buf, v);
    }

    /// Writes a signed integer as a zigzag LEB128 varint.
    pub fn i64(&mut self, v: i64) {
        self.u64(zigzag(v));
    }

    /// Writes a `u32` (as a varint).
    pub fn u32(&mut self, v: u32) {
        self.u64(u64::from(v));
    }

    /// Writes a `usize` (as a varint).
    pub fn usize(&mut self, v: usize) {
        self.u64(v as u64);
    }

    /// Writes one raw byte.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Writes a bool as one byte (0 or 1).
    pub fn bool(&mut self, v: bool) {
        self.buf.push(u8::from(v));
    }

    /// Writes an `f64` as its 8-byte little-endian bit pattern.
    pub fn f64(&mut self, v: f64) {
        self.buf.extend_from_slice(&v.to_bits().to_le_bytes());
    }

    /// Writes raw bytes with no length prefix.
    pub fn raw(&mut self, v: &[u8]) {
        self.buf.extend_from_slice(v);
    }

    /// Writes a length-prefixed byte string.
    pub fn bytes(&mut self, v: &[u8]) {
        self.usize(v.len());
        self.raw(v);
    }

    /// Writes a length-prefixed UTF-8 string.
    pub fn str(&mut self, v: &str) {
        self.bytes(v.as_bytes());
    }
}

/// Bounds-checked decoder over an encoded buffer.
#[derive(Debug)]
pub struct StateReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> StateReader<'a> {
    /// A reader positioned at the start of `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        StateReader { buf, pos: 0 }
    }

    /// Current byte offset into the buffer.
    pub fn offset(&self) -> usize {
        self.pos
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len().saturating_sub(self.pos)
    }

    /// A positioned error at the current offset.
    pub fn err(&self, msg: impl Into<String>) -> SnapError {
        SnapError::new(self.pos, msg)
    }

    /// Fails unless every byte of the buffer has been consumed — catches
    /// blobs from a component with different geometry than the decoder.
    pub fn expect_end(&self) -> Result<(), SnapError> {
        match self.remaining() {
            0 => Ok(()),
            n => Err(self.err(format!("{n} trailing bytes"))),
        }
    }

    /// Reads one raw byte.
    pub fn u8(&mut self) -> Result<u8, SnapError> {
        let [b] = self.array::<1>()?;
        Ok(b)
    }

    /// Reads a LEB128 varint into a `u64`.
    pub fn u64(&mut self) -> Result<u64, SnapError> {
        match decode_varint(self.buf.get(self.pos..).unwrap_or_default()) {
            Ok(Some((v, n))) => {
                self.pos += n;
                Ok(v)
            }
            Ok(None) => Err(self.err("truncated varint")),
            Err(e) => Err(self.err(e.to_string())),
        }
    }

    /// Reads a zigzag varint into an `i64`.
    pub fn i64(&mut self) -> Result<i64, SnapError> {
        self.u64().map(unzigzag)
    }

    /// Reads a varint expected to fit a `u32`.
    pub fn u32(&mut self) -> Result<u32, SnapError> {
        let start = self.pos;
        let v = self.u64()?;
        u32::try_from(v).map_err(|_| SnapError::new(start, "varint overflows u32"))
    }

    /// Reads a varint expected to fit a `usize`.
    pub fn usize(&mut self) -> Result<usize, SnapError> {
        let start = self.pos;
        let v = self.u64()?;
        usize::try_from(v).map_err(|_| SnapError::new(start, "varint overflows usize"))
    }

    /// Reads a one-byte bool, rejecting anything but 0 or 1.
    pub fn bool(&mut self) -> Result<bool, SnapError> {
        let start = self.pos;
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            other => Err(SnapError::new(
                start,
                format!("invalid bool byte 0x{other:02x}"),
            )),
        }
    }

    /// Reads an 8-byte little-endian `f64` bit pattern.
    pub fn f64(&mut self) -> Result<f64, SnapError> {
        Ok(f64::from_bits(u64::from_le_bytes(self.array::<8>()?)))
    }

    /// Reads a length-prefixed byte string.
    pub fn bytes(&mut self) -> Result<&'a [u8], SnapError> {
        let len = self.usize()?;
        self.take(len)
    }

    /// Reads a length-prefixed UTF-8 string.
    pub fn str(&mut self) -> Result<String, SnapError> {
        let start = self.pos;
        let raw = self.bytes()?;
        String::from_utf8(raw.to_vec()).map_err(|_| SnapError::new(start, "invalid UTF-8 string"))
    }

    /// Reads exactly `len` raw bytes.
    fn take(&mut self, len: usize) -> Result<&'a [u8], SnapError> {
        let slice = self
            .pos
            .checked_add(len)
            .and_then(|end| self.buf.get(self.pos..end))
            .ok_or_else(|| self.truncated(len))?;
        self.pos += len;
        Ok(slice)
    }

    /// Reads every remaining byte.
    pub fn take_rest(&mut self) -> &'a [u8] {
        let rest = self.buf.get(self.pos..).unwrap_or_default();
        self.pos = self.buf.len();
        rest
    }

    fn array<const N: usize>(&mut self) -> Result<[u8; N], SnapError> {
        let arr = *self
            .buf
            .get(self.pos..)
            .and_then(<[u8]>::first_chunk::<N>)
            .ok_or_else(|| self.truncated(N))?;
        self.pos += N;
        Ok(arr)
    }

    fn truncated(&self, need: usize) -> SnapError {
        self.err(format!(
            "truncated: need {need} bytes, have {}",
            self.remaining()
        ))
    }
}

/// Checks that a restored collection length matches the construction-time
/// geometry of the receiving component.
pub fn check_len(
    r: &StateReader<'_>,
    what: &str,
    got: usize,
    expected: usize,
) -> Result<(), SnapError> {
    if got == expected {
        Ok(())
    } else {
        Err(SnapError::new(
            r.offset(),
            format!("{what} length mismatch: snapshot has {got}, component expects {expected}"),
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn roundtrip_scalars() {
        let mut w = StateWriter::new();
        w.u64(0);
        w.u64(127);
        w.u64(128);
        w.u64(u64::MAX);
        w.i64(-1);
        w.i64(i64::MIN);
        w.i64(i64::MAX);
        w.u32(u32::MAX);
        w.u8(0xab);
        w.bool(true);
        w.bool(false);
        w.f64(-0.0);
        w.f64(f64::from_bits(0x7ff8_0000_0000_0001));
        w.str("stbpu");
        w.bytes(&[1, 2, 3]);
        w.raw(&[9]);
        let blob = w.into_bytes();
        let mut r = StateReader::new(&blob);
        assert_eq!(r.u64().unwrap(), 0);
        assert_eq!(r.u64().unwrap(), 127);
        assert_eq!(r.u64().unwrap(), 128);
        assert_eq!(r.u64().unwrap(), u64::MAX);
        assert_eq!(r.i64().unwrap(), -1);
        assert_eq!(r.i64().unwrap(), i64::MIN);
        assert_eq!(r.i64().unwrap(), i64::MAX);
        assert_eq!(r.u32().unwrap(), u32::MAX);
        assert_eq!(r.u8().unwrap(), 0xab);
        assert!(r.bool().unwrap());
        assert!(!r.bool().unwrap());
        assert_eq!(r.f64().unwrap().to_bits(), (-0.0f64).to_bits());
        assert_eq!(r.f64().unwrap().to_bits(), 0x7ff8_0000_0000_0001);
        assert_eq!(r.str().unwrap(), "stbpu");
        assert_eq!(r.bytes().unwrap(), &[1, 2, 3]);
        assert_eq!(r.take_rest(), &[9]);
        assert!(r.expect_end().is_ok());
    }

    #[test]
    fn truncated_reads_are_positioned_errors() {
        let mut w = StateWriter::new();
        w.u64(300);
        let mut blob = w.into_bytes();
        blob.truncate(1);
        let mut r = StateReader::new(&blob);
        let e = r.u64().unwrap_err();
        assert_eq!(e.offset, 0);
        assert!(e.msg.contains("truncated"));

        let mut r = StateReader::new(&[0x05, b'a']);
        let e = r.bytes().unwrap_err();
        assert_eq!(e.offset, 1);

        let mut r = StateReader::new(&[2]);
        let e = r.bool().unwrap_err();
        assert!(e.msg.contains("invalid bool"));

        let mut r = StateReader::new(&[0xff; 11]);
        assert!(r.u64().unwrap_err().msg.contains("overflows"));

        let mut r = StateReader::new(&[0; 7]);
        assert!(r.f64().unwrap_err().msg.contains("truncated"));
        assert_eq!(r.offset(), 0);
    }

    #[test]
    fn trailing_bytes_rejected() {
        let mut r = StateReader::new(&[1, 2]);
        assert_eq!(r.u8().unwrap(), 1);
        let e = r.expect_end().unwrap_err();
        assert_eq!(e.offset, 1);
        assert!(e.msg.contains("trailing"));
    }

    #[test]
    fn decode_varint_matches_push_varint() {
        for v in [0u64, 1, 0x7f, 0x80, 0x3fff, u32::MAX as u64, u64::MAX] {
            let mut buf = Vec::new();
            push_varint(&mut buf, v);
            assert_eq!(decode_varint(&buf).unwrap(), Some((v, buf.len())));
            // Every strict prefix is incomplete, never an error.
            for cut in 0..buf.len() {
                assert_eq!(decode_varint(&buf[..cut]).unwrap(), None);
            }
        }
        // 64-bit overflow: ten continuation bytes.
        assert_eq!(decode_varint(&[0x80u8; 10]).unwrap_err(), VarintOverflow);
        // Tenth byte carrying more than one payload bit.
        let mut buf = vec![0x80u8; 9];
        buf.push(0x02);
        assert_eq!(decode_varint(&buf).unwrap_err(), VarintOverflow);
        assert_eq!(zigzag(unzigzag(12345)), 12345);
        for v in [0i64, -1, 1, i64::MIN, i64::MAX] {
            assert_eq!(unzigzag(zigzag(v)), v);
        }
    }

    const TEST: Format = Format {
        magic: *b"TEST",
        version: 3,
        known_flags: 0b101,
    };

    #[test]
    fn header_faults_land_at_their_field() {
        let mut h = TEST.header(0b100).to_vec();
        assert_eq!(TEST.check_header(&h), Ok(0b100));
        let e = TEST.check_header(b"TE").unwrap_err();
        assert_eq!(e.offset, 0);
        assert!(e.msg.contains("shorter than the magic"), "{}", e.msg);
        let e = TEST.check_header(b"TESTx").unwrap_err();
        assert_eq!(e.offset, 5);
        assert!(e.msg.contains("truncated header"), "{}", e.msg);
        h[4] = 9;
        let e = TEST.check_header(&h).unwrap_err();
        assert_eq!(e.offset, 4);
        assert!(e.msg.contains("version 9") && e.msg.contains("version 3"));
        h[4] = 3;
        h[6] = 0b10;
        let e = TEST.check_header(&h).unwrap_err();
        assert_eq!(e.offset, 6);
        assert!(e.msg.contains("unknown header flags"), "{}", e.msg);
        h[0] = b'X';
        let e = TEST.check_header(&h).unwrap_err();
        assert_eq!(e.offset, 0);
        assert!(e.msg.contains("bad magic") && e.msg.contains("TEST"));
    }

    /// Sealed containers define no header flags.
    const SEALED: Format = Format {
        known_flags: 0,
        ..TEST
    };

    fn sealed(body: &[u8]) -> Vec<u8> {
        let mut w = SEALED.writer();
        w.bytes(body);
        w.seal()
    }

    #[test]
    fn seal_then_open_returns_the_body() {
        let blob = sealed(b"payload");
        let mut r = SEALED.open(&blob).unwrap();
        assert_eq!(r.offset(), HEADER_LEN);
        assert_eq!(r.bytes().unwrap(), b"payload");
        assert!(r.expect_end().is_ok());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Every truncation of a sealed blob errors at an offset no later
        /// than the cut, every single-byte flip is rejected, and header
        /// faults land at offsets 0, 4 and 6.
        #[test]
        fn open_rejects_truncation_and_every_flip(
            body in proptest::collection::vec(any::<u8>(), 0..64),
            flip in 1u8..=255,
        ) {
            let blob = sealed(&body);
            for cut in 0..blob.len() {
                let e = SEALED.open(&blob[..cut]).unwrap_err();
                prop_assert!(e.offset <= cut, "offset {} past cut {cut}", e.offset);
            }
            for i in 0..blob.len() {
                let mut bad = blob.clone();
                bad[i] ^= flip;
                let e = SEALED.open(&bad).unwrap_err();
                match i {
                    0..=3 => prop_assert_eq!(e.offset, 0),
                    4..=5 => prop_assert_eq!(e.offset, 4),
                    6..=7 => prop_assert_eq!(e.offset, 6),
                    _ => prop_assert!(e.msg.contains("checksum mismatch"), "{}", e.msg),
                }
            }
        }
    }

    #[test]
    fn write_atomic_replaces_and_leaves_no_temp() {
        let dir = std::env::temp_dir().join(format!("snap-atomic-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("out.bin");
        write_atomic(&path, b"first").unwrap();
        write_atomic(&path, b"second").unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"second");
        let names: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name())
            .collect();
        assert_eq!(names, ["out.bin"], "a temp file was left behind");
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
