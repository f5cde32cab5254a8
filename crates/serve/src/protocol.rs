//! The serve wire protocol: length-prefixed binary frames over TCP.
//!
//! Built from the same primitives as the `.stbt` format (LEB128 varints,
//! see [`stbpu_trace::binfmt`]), so a client that can write traces
//! already has every encoder it needs. One frame is:
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

use stbpu_sim::{IntervalWindow, SimReport};
use stbpu_trace::binfmt::{decode_varint, push_varint};
use std::fmt;

/// Protocol version carried in every [`Hello`]. Bump on any frame-layout
/// change, mirroring the `.stbt` version policy (see CONTRIBUTING.md).
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

/// A malformed frame stream, positioned at the absolute byte offset
/// (counted from the first byte this [`FrameReader`] saw) where the
/// damage starts — the wire counterpart of
/// [`stbpu_trace::binfmt::BinTraceError`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WireError {
    offset: u64,
    msg: String,
}

impl WireError {
    /// Absolute stream offset the failing frame starts at.
    pub fn offset(&self) -> u64 {
        self.offset
    }

    /// The reason, without the position prefix.
    pub fn message(&self) -> &str {
        &self.msg
    }
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "wire protocol error at byte {}: {}",
            self.offset, self.msg
        )
    }
}

impl std::error::Error for WireError {}

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
            Err(e) => {
                return Err(WireError {
                    offset: at,
                    msg: format!("frame length: {e}"),
                })
            }
        };
        if len == 0 {
            return Err(WireError {
                offset: at,
                msg: "frame length 0 (a frame is at least its tag byte)".to_string(),
            });
        }
        if len > MAX_FRAME as u64 {
            return Err(WireError {
                offset: at,
                msg: format!("declared frame length {len} exceeds the {MAX_FRAME}-byte cap"),
            });
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
fn push_frame(out: &mut Vec<u8>, body: &[u8]) {
    debug_assert!(!body.is_empty() && body.len() <= MAX_FRAME);
    push_varint(out, body.len() as u64);
    out.extend_from_slice(body);
}

/// Appends a length-prefixed string.
fn push_string(out: &mut Vec<u8>, s: &str) {
    push_varint(out, s.len() as u64);
    out.extend_from_slice(s.as_bytes());
}

/// Decode cursor over one frame body — every read is bounds-checked, so
/// arbitrary payload bytes produce an `Err(String)`, never a panic.
struct Cur<'a> {
    data: &'a [u8],
    pos: usize,
}

impl<'a> Cur<'a> {
    fn new(data: &'a [u8]) -> Self {
        Cur { data, pos: 0 }
    }

    fn varint(&mut self, what: &str) -> Result<u64, String> {
        match decode_varint(self.rest()) {
            Ok(Some((v, n))) => {
                self.pos += n;
                Ok(v)
            }
            Ok(None) => Err(format!("truncated {what} varint")),
            Err(e) => Err(format!("{what}: {e}")),
        }
    }

    fn string(&mut self, what: &str) -> Result<String, String> {
        let len = self.varint(what)? as usize;
        if len > MAX_STRING {
            return Err(format!(
                "{what} length {len} exceeds the {MAX_STRING}-byte cap"
            ));
        }
        let end = self.pos + len;
        let Some(bytes) = self.data.get(self.pos..end) else {
            return Err(format!("truncated {what} (declares {len} bytes)"));
        };
        let s = std::str::from_utf8(bytes)
            .map_err(|_| format!("{what} is not UTF-8"))?
            .to_string();
        self.pos = end;
        Ok(s)
    }

    fn f64(&mut self, what: &str) -> Result<f64, String> {
        let Some(bytes) = self.rest().first_chunk::<8>() else {
            return Err(format!("truncated {what} (needs 8 bytes)"));
        };
        let bits = u64::from_le_bytes(*bytes);
        self.pos += 8;
        Ok(f64::from_bits(bits))
    }

    /// The unread bytes (empty once `pos` reaches the end).
    fn rest(&self) -> &'a [u8] {
        self.data.get(self.pos..).unwrap_or_default()
    }

    fn done(self, tag: &str) -> Result<(), String> {
        if self.pos != self.data.len() {
            return Err(format!(
                "{} trailing bytes after {tag} payload",
                self.data.len() - self.pos
            ));
        }
        Ok(())
    }
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
        let mut body = Vec::new();
        match self {
            ClientMsg::Hello(h) => {
                body.push(T_HELLO);
                push_varint(&mut body, PROTOCOL_VERSION);
                push_varint(&mut body, h.session);
                push_varint(&mut body, h.seed);
                push_string(&mut body, &h.model);
                push_string(&mut body, &h.protection);
                push_string(&mut body, &h.workload);
                push_varint(&mut body, h.warmup_branches);
                push_varint(&mut body, h.interval);
                push_varint(&mut body, h.threads);
            }
            ClientMsg::TraceChunk { session, bytes } => {
                body.push(T_CHUNK);
                push_varint(&mut body, *session);
                body.extend_from_slice(bytes);
            }
            ClientMsg::Flush { session } => {
                body.push(T_FLUSH);
                push_varint(&mut body, *session);
            }
            ClientMsg::Close { session } => {
                body.push(T_CLOSE);
                push_varint(&mut body, *session);
            }
        }
        push_frame(out, &body);
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
        let mut c = Cur::new(payload);
        match tag {
            T_HELLO => {
                let version = c.varint("protocol version")?;
                if version != PROTOCOL_VERSION {
                    return Err(format!(
                        "protocol version {version} not supported (this build speaks \
                         version {PROTOCOL_VERSION})"
                    ));
                }
                let session = c.varint("session id")?;
                let seed = c.varint("seed")?;
                let model = c.string("model spec")?;
                let protection = c.string("protection name")?;
                let workload = c.string("workload label")?;
                let warmup_branches = c.varint("warmup branch count")?;
                let interval = c.varint("interval")?;
                let threads = c.varint("thread count")?;
                c.done("Hello")?;
                Ok(ClientMsg::Hello(Hello {
                    session,
                    seed,
                    model,
                    protection,
                    workload,
                    warmup_branches,
                    interval,
                    threads,
                }))
            }
            T_CHUNK => {
                let session = c.varint("session id")?;
                Ok(ClientMsg::TraceChunk {
                    session,
                    bytes: c.rest().to_vec(),
                })
            }
            T_FLUSH => {
                let session = c.varint("session id")?;
                c.done("Flush")?;
                Ok(ClientMsg::Flush { session })
            }
            T_CLOSE => {
                let session = c.varint("session id")?;
                c.done("Close")?;
                Ok(ClientMsg::Close { session })
            }
            other => Err(format!("unknown client frame tag {other:#04x}")),
        }
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
        let mut body = Vec::new();
        match self {
            ServerMsg::HelloAck { session } => {
                body.push(T_HELLO_ACK);
                push_varint(&mut body, *session);
            }
            ServerMsg::Interval { session, window } => {
                body.push(T_INTERVAL);
                push_varint(&mut body, *session);
                push_varint(&mut body, window.start_branch);
                push_varint(&mut body, window.branches);
                push_varint(&mut body, window.effective_correct);
                push_varint(&mut body, window.mispredictions);
                push_varint(&mut body, window.flushes);
                push_varint(&mut body, window.rerandomizations);
            }
            ServerMsg::Report { session, report } => {
                body.push(T_REPORT);
                push_varint(&mut body, *session);
                push_string(&mut body, &report.model);
                push_string(&mut body, &report.protection);
                push_string(&mut body, &report.workload);
                body.extend_from_slice(&report.oae.to_bits().to_le_bytes());
                body.extend_from_slice(&report.direction_rate.to_bits().to_le_bytes());
                body.extend_from_slice(&report.target_rate.to_bits().to_le_bytes());
                push_varint(&mut body, report.branches);
                push_varint(&mut body, report.mispredictions);
                push_varint(&mut body, report.evictions);
                push_varint(&mut body, report.flushes);
                push_varint(&mut body, report.rerandomizations);
            }
            ServerMsg::Error {
                session,
                code,
                message,
            } => {
                body.push(T_ERROR);
                push_varint(&mut body, *session);
                push_varint(&mut body, *code as u64);
                push_string(&mut body, message);
            }
            ServerMsg::Backpressure { session, buffered } => {
                body.push(T_BACKPRESSURE);
                push_varint(&mut body, *session);
                push_varint(&mut body, *buffered);
            }
            ServerMsg::Resume { session } => {
                body.push(T_RESUME);
                push_varint(&mut body, *session);
            }
        }
        push_frame(out, &body);
    }

    /// Decodes a frame body (as returned by [`FrameReader::next_frame`]).
    ///
    /// # Errors
    ///
    /// A description of the malformation; arbitrary bytes never panic.
    pub fn decode(body: &[u8]) -> Result<ServerMsg, String> {
        let (&tag, payload) = body.split_first().ok_or("empty frame body")?;
        let mut c = Cur::new(payload);
        match tag {
            T_HELLO_ACK => {
                let session = c.varint("session id")?;
                c.done("HelloAck")?;
                Ok(ServerMsg::HelloAck { session })
            }
            T_INTERVAL => {
                let session = c.varint("session id")?;
                let window = IntervalWindow {
                    start_branch: c.varint("start_branch")?,
                    branches: c.varint("branches")?,
                    effective_correct: c.varint("effective_correct")?,
                    mispredictions: c.varint("mispredictions")?,
                    flushes: c.varint("flushes")?,
                    rerandomizations: c.varint("rerandomizations")?,
                };
                c.done("IntervalRecord")?;
                Ok(ServerMsg::Interval { session, window })
            }
            T_REPORT => {
                let session = c.varint("session id")?;
                let report = WireReport {
                    model: c.string("model name")?,
                    protection: c.string("protection label")?,
                    workload: c.string("workload label")?,
                    oae: c.f64("oae")?,
                    direction_rate: c.f64("direction_rate")?,
                    target_rate: c.f64("target_rate")?,
                    branches: c.varint("branches")?,
                    mispredictions: c.varint("mispredictions")?,
                    evictions: c.varint("evictions")?,
                    flushes: c.varint("flushes")?,
                    rerandomizations: c.varint("rerandomizations")?,
                };
                c.done("FinalReport")?;
                Ok(ServerMsg::Report { session, report })
            }
            T_ERROR => {
                let session = c.varint("session id")?;
                let raw = c.varint("error code")?;
                let code =
                    ErrorCode::from_u64(raw).ok_or_else(|| format!("unknown error code {raw}"))?;
                let message = c.string("error message")?;
                c.done("Error")?;
                Ok(ServerMsg::Error {
                    session,
                    code,
                    message,
                })
            }
            T_BACKPRESSURE => {
                let session = c.varint("session id")?;
                let buffered = c.varint("buffered byte count")?;
                c.done("Backpressure")?;
                Ok(ServerMsg::Backpressure { session, buffered })
            }
            T_RESUME => {
                let session = c.varint("session id")?;
                c.done("Resume")?;
                Ok(ServerMsg::Resume { session })
            }
            other => Err(format!("unknown server frame tag {other:#04x}")),
        }
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
        assert_eq!(e.offset(), 0);
        assert!(e.to_string().contains("exceeds"), "{e}");

        // Zero length, after one valid frame (offset must point past it).
        let mut wire = Vec::new();
        ClientMsg::Flush { session: 1 }.encode(&mut wire);
        let valid_len = wire.len() as u64;
        wire.push(0);
        let mut r = FrameReader::new();
        r.extend(&wire);
        assert!(r.next_frame().unwrap().is_some());
        let e = r.next_frame().unwrap_err();
        assert_eq!(e.offset(), valid_len);
        assert!(e.to_string().contains("length 0"), "{e}");
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
