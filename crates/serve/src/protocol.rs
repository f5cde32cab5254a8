//! The serve wire protocol: length-prefixed binary frames over TCP.
//!
//! Built from the workspace codec core ([`stbpu_bpu::snap`]: LEB128
//! varints, length-prefixed strings, raw `f64` bits), the same primitives
//! every other binary format uses. One frame is:
//!
//! ```text
//! varint  length      total size of tag + payload (1 ..= MAX_FRAME)
//! u8      tag         message type
//! …       payload     tag-specific, exactly length - 1 bytes
//! ```
//!
//! Integers are varints unless stated otherwise; strings are a varint
//! byte length followed by that many bytes of UTF-8; floats are the IEEE
//! bit pattern as 8 little-endian bytes (so reports survive the wire
//! bit-identically — the regression property the whole suite gates on).
//! See the README "Serving" section for the byte-by-byte message
//! catalogue, and CONTRIBUTING.md for the version-bump policy.
//!
//! Client→server tags are `0x01..=0x04`, server→client tags have the
//! high bit set (`0x81..=0x86`); a peer receiving a tag from the wrong
//! direction rejects it.

#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::indexing_slicing,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented
)]

use stbpu_bpu::snap::{decode_varint, push_varint, SnapError, StateReader, StateWriter};
use stbpu_sim::{IntervalWindow, SimReport};
use std::fmt;

/// Protocol version carried in every [`Hello`]. Bump on any frame-layout
/// change, under the binary-format version policy in CONTRIBUTING.md.
pub const PROTOCOL_VERSION: u64 = 1;

/// Upper bound on one frame's declared length (tag + payload). Anything
/// larger is rejected *before* buffering, so a malicious length cannot
/// make the receiver allocate.
pub const MAX_FRAME: usize = 1 << 20;

/// Upper bound on any string field (model spec, workload label, error
/// message).
const MAX_STRING: usize = 4 << 10;

// Client → server tags.
const T_HELLO: u8 = 0x01;
const T_CHUNK: u8 = 0x02;
const T_FLUSH: u8 = 0x03;
const T_CLOSE: u8 = 0x04;
// Server → client tags.
const T_HELLO_ACK: u8 = 0x81;
const T_INTERVAL: u8 = 0x82;
const T_REPORT: u8 = 0x83;
const T_ERROR: u8 = 0x84;
const T_BACKPRESSURE: u8 = 0x85;
const T_RESUME: u8 = 0x86;

/// A malformed frame stream: a [`SnapError`] labelled `wire protocol`,
/// positioned at the absolute byte offset (counted from the first byte
/// this [`FrameReader`] saw) where the damage starts — the wire
/// counterpart of [`stbpu_trace::binfmt::BinTraceError`].
///
/// The offset is `SnapError`'s `usize`, not a `u64`. On a 64-bit target
/// that holds every offset a connection can reach; a 32-bit target
/// saturates offsets past 4 GiB at `usize::MAX` rather than wrapping.
pub type WireError = SnapError;

/// A [`WireError`] at absolute stream offset `at`.
fn wire_error(at: u64, msg: String) -> WireError {
    SnapError::new(usize::try_from(at).unwrap_or(usize::MAX), msg).in_context("wire protocol")
}

/// Incremental frame splitter: feed it raw socket bytes in any chunking,
/// pull complete frames (tag + payload, length prefix stripped) out.
/// Never over-reads — an oversized or zero declared length errors as soon
/// as the length varint is complete, before any payload is awaited.
///
/// ```
/// use stbpu_serve::protocol::FrameReader;
///
/// let mut r = FrameReader::new();
/// r.extend(&[2, 0x03]); // length 2, then the first body byte...
/// assert_eq!(r.next_frame().unwrap(), None); // ...still one byte short
/// r.extend(&[7]);
/// assert_eq!(r.next_frame().unwrap(), Some(vec![0x03, 7]));
/// ```
#[derive(Default)]
pub struct FrameReader {
    buf: Vec<u8>,
    pos: usize,
    /// Absolute stream offset of `buf[0]`.
    base: u64,
}

impl FrameReader {
    /// An empty reader at stream offset 0.
    pub fn new() -> Self {
        FrameReader::default()
    }

    /// Appends raw bytes from the transport.
    pub fn extend(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Bytes buffered but not yet returned as frames.
    pub fn buffered(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Extracts the next complete frame body (tag + payload), or
    /// `Ok(None)` when more transport bytes are needed.
    ///
    /// # Errors
    ///
    /// [`WireError`] on a zero, oversized, or overflowing declared
    /// length. The reader has no way to resynchronize afterwards, so the
    /// connection should be dropped.
    pub fn next_frame(&mut self) -> Result<Option<Vec<u8>>, WireError> {
        let at = self.base + self.pos as u64;
        let avail = self.buf.get(self.pos..).unwrap_or_default();
        let (len, n) = match decode_varint(avail) {
            Ok(Some(v)) => v,
            Ok(None) => {
                self.compact();
                return Ok(None);
            }
            Err(e) => return Err(wire_error(at, format!("frame length: {e}"))),
        };
        if len == 0 {
            return Err(wire_error(
                at,
                "frame length 0 (a frame is at least its tag byte)".to_string(),
            ));
        }
        if len > MAX_FRAME as u64 {
            return Err(wire_error(
                at,
                format!("declared frame length {len} exceeds the {MAX_FRAME}-byte cap"),
            ));
        }
        let len = len as usize;
        let Some(body) = avail.get(n..n + len) else {
            self.compact();
            return Ok(None);
        };
        let body = body.to_vec();
        self.pos += n + len;
        self.compact();
        Ok(Some(body))
    }

    /// Drops consumed bytes once they dominate the buffer.
    fn compact(&mut self) {
        if self.pos > 4096 && self.pos * 2 >= self.buf.len() {
            self.buf.drain(..self.pos);
            self.base += self.pos as u64;
            self.pos = 0;
        }
    }
}

/// Appends a frame (varint length + body) to `out`.
fn push_frame(out: &mut Vec<u8>, body: StateWriter) {
    let body = body.into_bytes();
    debug_assert!(!body.is_empty() && body.len() <= MAX_FRAME);
    push_varint(out, body.len() as u64);
    out.extend_from_slice(&body);
}

/// Reads a length-prefixed string no longer than [`MAX_STRING`].
fn string(r: &mut StateReader<'_>) -> Result<String, SnapError> {
    let at = r.offset();
    let s = r.str()?;
    if s.len() > MAX_STRING {
        return Err(SnapError::new(
            at,
            format!(
                "string length {} exceeds the {MAX_STRING}-byte cap",
                s.len()
            ),
        ));
    }
    Ok(s)
}

/// The decode error text a peer reports: the failing payload offset and
/// why.
fn wire_text(e: SnapError) -> String {
    format!("payload byte {}: {}", e.offset, e.msg)
}

/// Why the server rejected a frame or tore a session down, carried in
/// every [`ServerMsg::Error`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ErrorCode {
    /// The byte stream is not valid frames; the connection closes.
    BadFrame = 1,
    /// The `Hello` was malformed (bad version, unknown model or
    /// protection, session id 0).
    BadHello = 2,
    /// A `Hello` reused a live session id on the same connection.
    DuplicateSession = 3,
    /// A chunk/flush/close named a session this connection never opened
    /// (or one already torn down).
    UnknownSession = 4,
    /// The per-connection live-session quota is exhausted.
    QuotaSessions = 5,
    /// A single chunk exceeded the whole per-connection buffered-bytes
    /// quota; the offending session is torn down. (Gradual pressure is
    /// handled by `Backpressure` frames plus the server stalling its
    /// socket reads, never by a kill.)
    QuotaBuffered = 6,
    /// The session's `.stbt` record bytes failed to decode.
    TraceDecode = 7,
    /// The simulation rejected an event (bad thread id, …).
    Sim = 8,
    /// The session sat idle past the server's timeout.
    IdleTimeout = 9,
}

impl ErrorCode {
    fn from_u64(v: u64) -> Option<ErrorCode> {
        Some(match v {
            1 => ErrorCode::BadFrame,
            2 => ErrorCode::BadHello,
            3 => ErrorCode::DuplicateSession,
            4 => ErrorCode::UnknownSession,
            5 => ErrorCode::QuotaSessions,
            6 => ErrorCode::QuotaBuffered,
            7 => ErrorCode::TraceDecode,
            8 => ErrorCode::Sim,
            9 => ErrorCode::IdleTimeout,
            _ => return None,
        })
    }
}

impl fmt::Display for ErrorCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self:?}")
    }
}

/// Session parameters a client declares when opening a session — the
/// payload of the `Hello` frame. Session ids are client-chosen, scoped to
/// the connection, and must be nonzero (0 is reserved for
/// connection-level [`ServerMsg::Error`] frames).
#[derive(Clone, Debug, PartialEq)]
pub struct Hello {
    /// Client-chosen nonzero session id, unique per connection.
    pub session: u64,
    /// Model RNG seed.
    pub seed: u64,
    /// Registry model spec (`st_skl@r=0.05`, `baseline`, …).
    pub model: String,
    /// Protection policy name, or `"auto"` to infer from the model spec
    /// exactly like `stbpu simulate`.
    pub protection: String,
    /// Workload label for the final report.
    pub workload: String,
    /// Warm-up branch count (streams have no branch hint to resolve a
    /// fraction against, so warm-up is always an absolute count here).
    pub warmup_branches: u64,
    /// Interval window size in branches; 0 disables interval streaming.
    pub interval: u64,
    /// Hardware threads to provision; 0 means the model maximum.
    pub threads: u64,
}

/// A final report as it crosses the wire — [`stbpu_sim::SimReport`] with
/// the policy label as an owned string. Floats travel as raw IEEE bits,
/// so equality with an offline run is exact, not approximate.
#[derive(Clone, Debug, PartialEq)]
pub struct WireReport {
    /// Model name.
    pub model: String,
    /// Protection policy label.
    pub protection: String,
    /// Workload label.
    pub workload: String,
    /// Overall accuracy effective.
    pub oae: f64,
    /// Direction prediction accuracy.
    pub direction_rate: f64,
    /// Target prediction accuracy.
    pub target_rate: f64,
    /// Counted branches (post warm-up).
    pub branches: u64,
    /// Mispredictions.
    pub mispredictions: u64,
    /// BTB evictions.
    pub evictions: u64,
    /// Flushes.
    pub flushes: u64,
    /// ST re-randomizations.
    pub rerandomizations: u64,
}

impl From<&SimReport> for WireReport {
    fn from(r: &SimReport) -> Self {
        WireReport {
            model: r.model.clone(),
            protection: r.protection.to_string(),
            workload: r.workload.clone(),
            oae: r.oae,
            direction_rate: r.direction_rate,
            target_rate: r.target_rate,
            branches: r.branches,
            mispredictions: r.mispredictions,
            evictions: r.evictions,
            flushes: r.flushes,
            rerandomizations: r.rerandomizations,
        }
    }
}

/// A client→server message.
#[derive(Clone, Debug, PartialEq)]
pub enum ClientMsg {
    /// Open a session.
    Hello(Hello),
    /// Raw `.stbt` record bytes for a live session (headerless; chunk
    /// boundaries may fall anywhere, including inside a record).
    TraceChunk {
        /// The session the bytes belong to.
        session: u64,
        /// The raw record bytes.
        bytes: Vec<u8>,
    },
    /// End of stream: finish the session and send the final report.
    Flush {
        /// The session to finish.
        session: u64,
    },
    /// Abandon the session without a report (server aborts it).
    Close {
        /// The session to abandon.
        session: u64,
    },
}

impl ClientMsg {
    /// Appends this message as a complete frame (length prefix included).
    pub fn encode(&self, out: &mut Vec<u8>) {
        let mut w = StateWriter::new();
        match self {
            ClientMsg::Hello(h) => {
                w.u8(T_HELLO);
                w.u64(PROTOCOL_VERSION);
                w.u64(h.session);
                w.u64(h.seed);
                w.str(&h.model);
                w.str(&h.protection);
                w.str(&h.workload);
                w.u64(h.warmup_branches);
                w.u64(h.interval);
                w.u64(h.threads);
            }
            ClientMsg::TraceChunk { session, bytes } => {
                w.u8(T_CHUNK);
                w.u64(*session);
                w.raw(bytes);
            }
            ClientMsg::Flush { session } => {
                w.u8(T_FLUSH);
                w.u64(*session);
            }
            ClientMsg::Close { session } => {
                w.u8(T_CLOSE);
                w.u64(*session);
            }
        }
        push_frame(out, w);
    }

    /// Decodes a frame body (as returned by [`FrameReader::next_frame`]).
    ///
    /// # Errors
    ///
    /// A description of the malformation; arbitrary bytes never panic.
    /// The reported protocol version rides along in `Hello` errors so the
    /// server can answer version mismatches precisely.
    pub fn decode(body: &[u8]) -> Result<ClientMsg, String> {
        let (&tag, payload) = body.split_first().ok_or("empty frame body")?;
        Self::decode_payload(tag, &mut StateReader::new(payload)).map_err(wire_text)
    }

    fn decode_payload(tag: u8, c: &mut StateReader<'_>) -> Result<ClientMsg, SnapError> {
        let msg = match tag {
            T_HELLO => {
                let version = c.u64()?;
                if version != PROTOCOL_VERSION {
                    return Err(SnapError::new(
                        0,
                        format!(
                            "protocol version {version} not supported (this build speaks \
                             version {PROTOCOL_VERSION})"
                        ),
                    ));
                }
                ClientMsg::Hello(Hello {
                    session: c.u64()?,
                    seed: c.u64()?,
                    model: string(c)?,
                    protection: string(c)?,
                    workload: string(c)?,
                    warmup_branches: c.u64()?,
                    interval: c.u64()?,
                    threads: c.u64()?,
                })
            }
            T_CHUNK => ClientMsg::TraceChunk {
                session: c.u64()?,
                bytes: c.take_rest().to_vec(),
            },
            T_FLUSH => ClientMsg::Flush { session: c.u64()? },
            T_CLOSE => ClientMsg::Close { session: c.u64()? },
            other => {
                return Err(SnapError::new(
                    0,
                    format!("unknown client frame tag {other:#04x}"),
                ))
            }
        };
        c.expect_end()?;
        Ok(msg)
    }
}

/// A server→client message.
#[derive(Clone, Debug, PartialEq)]
pub enum ServerMsg {
    /// The session from a `Hello` is open and may receive chunks.
    HelloAck {
        /// The session being acknowledged.
        session: u64,
    },
    /// One closed interval window (streamed as the simulation crosses
    /// each interval boundary).
    Interval {
        /// The session the window belongs to.
        session: u64,
        /// The window statistics.
        window: IntervalWindow,
    },
    /// The final report answering a `Flush`; the session is gone
    /// afterwards.
    Report {
        /// The session being finished.
        session: u64,
        /// The aggregated report.
        report: WireReport,
    },
    /// A rejected frame or torn-down session. `session` 0 means the
    /// error is connection-level (the connection closes after it).
    Error {
        /// The affected session, or 0 for connection-level errors.
        session: u64,
        /// Why.
        code: ErrorCode,
        /// Human-readable detail.
        message: String,
    },
    /// The connection's buffered bytes crossed the high watermark: stop
    /// sending chunks until [`ServerMsg::Resume`].
    Backpressure {
        /// The session whose chunk crossed the watermark.
        session: u64,
        /// Bytes currently buffered for the connection.
        buffered: u64,
    },
    /// Buffered bytes drained below the low watermark: sending may
    /// continue.
    Resume {
        /// The session that was told to pause.
        session: u64,
    },
}

impl ServerMsg {
    /// Appends this message as a complete frame (length prefix included).
    pub fn encode(&self, out: &mut Vec<u8>) {
        let mut w = StateWriter::new();
        match self {
            ServerMsg::HelloAck { session } => {
                w.u8(T_HELLO_ACK);
                w.u64(*session);
            }
            ServerMsg::Interval { session, window } => {
                w.u8(T_INTERVAL);
                w.u64(*session);
                w.u64(window.start_branch);
                w.u64(window.branches);
                w.u64(window.effective_correct);
                w.u64(window.mispredictions);
                w.u64(window.flushes);
                w.u64(window.rerandomizations);
            }
            ServerMsg::Report { session, report } => {
                w.u8(T_REPORT);
                w.u64(*session);
                w.str(&report.model);
                w.str(&report.protection);
                w.str(&report.workload);
                w.f64(report.oae);
                w.f64(report.direction_rate);
                w.f64(report.target_rate);
                w.u64(report.branches);
                w.u64(report.mispredictions);
                w.u64(report.evictions);
                w.u64(report.flushes);
                w.u64(report.rerandomizations);
            }
            ServerMsg::Error {
                session,
                code,
                message,
            } => {
                w.u8(T_ERROR);
                w.u64(*session);
                w.u64(*code as u64);
                w.str(message);
            }
            ServerMsg::Backpressure { session, buffered } => {
                w.u8(T_BACKPRESSURE);
                w.u64(*session);
                w.u64(*buffered);
            }
            ServerMsg::Resume { session } => {
                w.u8(T_RESUME);
                w.u64(*session);
            }
        }
        push_frame(out, w);
    }

    /// Decodes a frame body (as returned by [`FrameReader::next_frame`]).
    ///
    /// # Errors
    ///
    /// A description of the malformation; arbitrary bytes never panic.
    pub fn decode(body: &[u8]) -> Result<ServerMsg, String> {
        let (&tag, payload) = body.split_first().ok_or("empty frame body")?;
        Self::decode_payload(tag, &mut StateReader::new(payload)).map_err(wire_text)
    }

    fn decode_payload(tag: u8, c: &mut StateReader<'_>) -> Result<ServerMsg, SnapError> {
        let msg = match tag {
            T_HELLO_ACK => ServerMsg::HelloAck { session: c.u64()? },
            T_INTERVAL => ServerMsg::Interval {
                session: c.u64()?,
                window: IntervalWindow {
                    start_branch: c.u64()?,
                    branches: c.u64()?,
                    effective_correct: c.u64()?,
                    mispredictions: c.u64()?,
                    flushes: c.u64()?,
                    rerandomizations: c.u64()?,
                },
            },
            T_REPORT => ServerMsg::Report {
                session: c.u64()?,
                report: WireReport {
                    model: string(c)?,
                    protection: string(c)?,
                    workload: string(c)?,
                    oae: c.f64()?,
                    direction_rate: c.f64()?,
                    target_rate: c.f64()?,
                    branches: c.u64()?,
                    mispredictions: c.u64()?,
                    evictions: c.u64()?,
                    flushes: c.u64()?,
                    rerandomizations: c.u64()?,
                },
            },
            T_ERROR => {
                let session = c.u64()?;
                let at = c.offset();
                let raw = c.u64()?;
                let code = ErrorCode::from_u64(raw)
                    .ok_or_else(|| SnapError::new(at, format!("unknown error code {raw}")))?;
                ServerMsg::Error {
                    session,
                    code,
                    message: string(c)?,
                }
            }
            T_BACKPRESSURE => ServerMsg::Backpressure {
                session: c.u64()?,
                buffered: c.u64()?,
            },
            T_RESUME => ServerMsg::Resume { session: c.u64()? },
            other => {
                return Err(SnapError::new(
                    0,
                    format!("unknown server frame tag {other:#04x}"),
                ))
            }
        };
        c.expect_end()?;
        Ok(msg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip_client(msg: ClientMsg) {
        let mut wire = Vec::new();
        msg.encode(&mut wire);
        let mut r = FrameReader::new();
        r.extend(&wire);
        let body = r.next_frame().unwrap().expect("complete frame");
        assert_eq!(ClientMsg::decode(&body).unwrap(), msg);
        assert_eq!(r.next_frame().unwrap(), None);
        assert_eq!(r.buffered(), 0);
    }

    fn roundtrip_server(msg: ServerMsg) {
        let mut wire = Vec::new();
        msg.encode(&mut wire);
        let mut r = FrameReader::new();
        r.extend(&wire);
        let body = r.next_frame().unwrap().expect("complete frame");
        assert_eq!(ServerMsg::decode(&body).unwrap(), msg);
    }

    #[test]
    fn every_message_roundtrips() {
        roundtrip_client(ClientMsg::Hello(Hello {
            session: 7,
            seed: u64::MAX,
            model: "st_skl@r=0.05".to_string(),
            protection: "auto".to_string(),
            workload: "apache2_prefork_c256".to_string(),
            warmup_branches: 10_000,
            interval: 50_000,
            threads: 0,
        }));
        roundtrip_client(ClientMsg::TraceChunk {
            session: 7,
            bytes: vec![0x03, 0x00, 0x03, 0x01],
        });
        roundtrip_client(ClientMsg::TraceChunk {
            session: 1,
            bytes: Vec::new(),
        });
        roundtrip_client(ClientMsg::Flush { session: 7 });
        roundtrip_client(ClientMsg::Close { session: u64::MAX });

        roundtrip_server(ServerMsg::HelloAck { session: 7 });
        roundtrip_server(ServerMsg::Interval {
            session: 7,
            window: IntervalWindow {
                start_branch: 50_000,
                branches: 50_000,
                effective_correct: 48_211,
                mispredictions: 1_789,
                flushes: 3,
                rerandomizations: 2,
            },
        });
        roundtrip_server(ServerMsg::Report {
            session: 7,
            report: WireReport {
                model: "SKLCond+ST".to_string(),
                protection: "stbpu".to_string(),
                workload: "serve".to_string(),
                oae: 0.964_321_234_567,
                direction_rate: f64::from_bits(0x3FEF_0000_0000_0001),
                target_rate: 0.99,
                branches: 1_000_000,
                mispredictions: 35_679,
                evictions: 120,
                flushes: 0,
                rerandomizations: 17,
            },
        });
        roundtrip_server(ServerMsg::Error {
            session: 0,
            code: ErrorCode::BadFrame,
            message: "declared frame length 99999999 exceeds the cap".to_string(),
        });
        roundtrip_server(ServerMsg::Backpressure {
            session: 3,
            buffered: 9_000_000,
        });
        roundtrip_server(ServerMsg::Resume { session: 3 });
    }

    /// Lower-case hex of one encoded frame.
    fn wire_hex(encode: impl FnOnce(&mut Vec<u8>)) -> String {
        let mut wire = Vec::new();
        encode(&mut wire);
        wire.iter().map(|b| format!("{b:02x}")).collect()
    }

    /// The exact bytes of two frames under `PROTOCOL_VERSION` 1, so an
    /// encoder and decoder that drift together cannot pass as a round
    /// trip.
    #[test]
    fn wire_bytes_are_pinned() {
        let hello = ClientMsg::Hello(Hello {
            session: 7,
            seed: 42,
            model: "st_skl@r=0.05".to_string(),
            protection: "auto".to_string(),
            workload: "541.leela".to_string(),
            warmup_branches: 1_000,
            interval: 300,
            threads: 2,
        });
        assert_eq!(
            wire_hex(|w| hello.encode(w)),
            "260101072a0d73745f736b6c40723d302e3035046175746f093534312e6c65656c61e807ac0202"
        );
        let report = ServerMsg::Report {
            session: 7,
            report: WireReport {
                model: "SKLCond+ST".to_string(),
                protection: "stbpu".to_string(),
                workload: "serve".to_string(),
                oae: 0.5,
                direction_rate: f64::from_bits(0x3FEF_0000_0000_0001),
                target_rate: -0.0,
                branches: 1_000,
                mispredictions: 300,
                evictions: 2,
                flushes: 0,
                rerandomizations: 129,
            },
        };
        assert_eq!(
            wire_hex(|w| report.encode(w)),
            "3983070a534b4c436f6e642b5354057374627075057365727665000000000000e03f\
             010000000000ef3f0000000000000080e807ac0202008101"
        );
    }

    #[test]
    fn frames_reassemble_from_any_chunking() {
        let mut wire = Vec::new();
        for i in 0..20u64 {
            ClientMsg::Flush { session: i + 1 }.encode(&mut wire);
            ClientMsg::TraceChunk {
                session: i + 1,
                bytes: vec![7u8; i as usize * 11],
            }
            .encode(&mut wire);
        }
        for chunk in [1usize, 2, 3, 17, wire.len()] {
            let mut r = FrameReader::new();
            let mut frames = Vec::new();
            for c in wire.chunks(chunk) {
                r.extend(c);
                while let Some(body) = r.next_frame().unwrap() {
                    frames.push(ClientMsg::decode(&body).unwrap());
                }
            }
            assert_eq!(frames.len(), 40, "chunk size {chunk}");
            assert_eq!(frames[0], ClientMsg::Flush { session: 1 });
        }
    }

    #[test]
    fn oversized_and_zero_lengths_error_with_offset() {
        // Oversized declared length: rejected from the length varint
        // alone, before any payload arrives.
        let mut r = FrameReader::new();
        let mut wire = Vec::new();
        push_varint(&mut wire, (MAX_FRAME + 1) as u64);
        r.extend(&wire);
        let e = r.next_frame().unwrap_err();
        assert_eq!(e.offset, 0);
        assert!(e.to_string().contains("exceeds"), "{e}");

        // Zero length, after one valid frame (offset must point past it).
        let mut wire = Vec::new();
        ClientMsg::Flush { session: 1 }.encode(&mut wire);
        let valid_len = wire.len();
        wire.push(0);
        let mut r = FrameReader::new();
        r.extend(&wire);
        assert!(r.next_frame().unwrap().is_some());
        let e = r.next_frame().unwrap_err();
        assert_eq!(e.offset, valid_len);
        assert_eq!(
            e.to_string(),
            format!(
                "wire protocol error at byte {valid_len}: \
                 frame length 0 (a frame is at least its tag byte)"
            )
        );
    }

    #[test]
    fn wrong_direction_and_unknown_tags_rejected() {
        let mut wire = Vec::new();
        ServerMsg::Resume { session: 1 }.encode(&mut wire);
        let mut r = FrameReader::new();
        r.extend(&wire);
        let body = r.next_frame().unwrap().unwrap();
        // A server-tag frame is not a valid client message and vice versa.
        assert!(ClientMsg::decode(&body).unwrap_err().contains("unknown"));
        assert!(ServerMsg::decode(&[0x7f]).unwrap_err().contains("unknown"));
        assert!(ClientMsg::decode(&[]).unwrap_err().contains("empty"));
    }

    #[test]
    fn hello_version_mismatch_is_rejected() {
        let mut body = vec![T_HELLO];
        push_varint(&mut body, PROTOCOL_VERSION + 1);
        push_varint(&mut body, 1);
        let e = ClientMsg::decode(&body).unwrap_err();
        assert!(e.contains("version"), "{e}");
    }
}
