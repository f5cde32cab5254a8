//! Client library for the serve protocol: one socket, many multiplexed
//! sessions, plus a [`ChunkEncoder`] that turns events into wire chunks.
//!
//! A background reader thread splits server frames and routes them to
//! the owning [`SessionHandle`] by session id, so handles can be driven
//! from different threads over the same connection. Backpressure is
//! honored transparently: [`SessionHandle::send_chunk`] blocks after the
//! server's `Backpressure` frame until the matching `Resume`.

#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::indexing_slicing,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented
)]

use crate::protocol::{ClientMsg, ErrorCode, FrameReader, Hello, ServerMsg, WireReport};
use stbpu_sim::IntervalWindow;
use stbpu_trace::binfmt::BinTraceWriter;
use stbpu_trace::TraceEvent;
use std::collections::btree_map::Entry;
use std::collections::BTreeMap;
use std::fmt;
use std::io::{self, Read, Write};
use std::net::{Shutdown, TcpStream, ToSocketAddrs};
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender, TryRecvError};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

/// How long a handle waits for an expected server frame before giving
/// up — generous enough for a loaded CI runner, finite so a wedged peer
/// cannot hang a test forever.
const REPLY_TIMEOUT: Duration = Duration::from_secs(30);

/// A client-side failure.
#[derive(Debug)]
pub enum ServeError {
    /// The transport failed (or timed out waiting for a reply).
    Io(io::Error),
    /// The server sent something the protocol does not allow here.
    Protocol(String),
    /// The server answered with an [`ServerMsg::Error`] frame.
    Remote {
        /// The server's error code.
        code: ErrorCode,
        /// The server's message.
        message: String,
    },
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::Io(e) => write!(f, "serve transport error: {e}"),
            ServeError::Protocol(m) => write!(f, "serve protocol error: {m}"),
            ServeError::Remote { code, message } => {
                write!(f, "server error ({code}): {message}")
            }
        }
    }
}

impl std::error::Error for ServeError {}

impl From<io::Error> for ServeError {
    fn from(e: io::Error) -> Self {
        ServeError::Io(e)
    }
}

/// State shared between the client, its handles, and the reader thread.
/// `routes` is a `BTreeMap` because the reader broadcasts session-0
/// errors by iterating it — delivery order must be deterministic (the
/// crate's `clippy.toml` bans `HashMap`/`HashSet`).
struct Inner {
    writer: Mutex<TcpStream>,
    routes: Mutex<BTreeMap<u64, Sender<ServerMsg>>>,
}

impl Inner {
    /// Writes one whole encoded frame under the writer mutex. Holding the
    /// lock across the write is deliberate: it serializes frames from
    /// concurrent session handles onto the one socket. The lock covers
    /// exactly one `write_all` and nothing can deadlock against it — the
    /// reader thread never takes it.
    fn send(&self, msg: &ClientMsg) -> Result<(), ServeError> {
        let mut wire = Vec::new();
        msg.encode(&mut wire);
        self.writer
            .lock()
            .map_err(|_| ServeError::Protocol("writer lock poisoned".to_string()))?
            .write_all(&wire)?;
        Ok(())
    }
}

/// A connection to a serve daemon. Sessions opened from it share the
/// socket; dropping the client shuts the socket down and joins the
/// reader thread.
pub struct ServeClient {
    inner: Arc<Inner>,
    stream: TcpStream,
    reader: Option<JoinHandle<()>>,
}

impl ServeClient {
    /// Connects to `addr` and starts the demultiplexing reader thread.
    /// The socket runs with `TCP_NODELAY`, so a session's small `Flush`
    /// frame leaves at once instead of waiting behind the last unacked
    /// `TraceChunk` for the server's delayed ACK (40 ms on Linux).
    ///
    /// # Errors
    ///
    /// Propagates connect/nodelay/clone failures.
    pub fn connect<A: ToSocketAddrs>(addr: A) -> Result<ServeClient, ServeError> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        let writer = stream.try_clone()?;
        let read_half = stream.try_clone()?;
        let inner = Arc::new(Inner {
            writer: Mutex::new(writer),
            routes: Mutex::new(BTreeMap::new()),
        });
        let routes = Arc::clone(&inner);
        let reader = std::thread::spawn(move || reader_loop(read_half, &routes));
        Ok(ServeClient {
            inner,
            stream,
            reader: Some(reader),
        })
    }

    /// Opens a session and waits for the server's `HelloAck`.
    ///
    /// # Errors
    ///
    /// [`ServeError::Protocol`] if this client already has a live
    /// session with the same id (refused locally, before anything is
    /// sent, so the existing session's frame route is untouched),
    /// [`ServeError::Remote`] if the server refuses (bad model, quota,
    /// duplicate id from another client object on the same socket, …),
    /// [`ServeError::Io`] on transport failure.
    pub fn open(&self, hello: Hello) -> Result<SessionHandle, ServeError> {
        let id = hello.session;
        let (tx, rx) = channel();
        match self
            .inner
            .routes
            .lock()
            .map_err(|_| ServeError::Protocol("route lock poisoned".to_string()))?
            .entry(id)
        {
            Entry::Occupied(_) => {
                return Err(ServeError::Protocol(format!(
                    "session {id} is already open on this client"
                )))
            }
            Entry::Vacant(v) => {
                v.insert(tx);
            }
        }
        let mut handle = SessionHandle {
            inner: Arc::clone(&self.inner),
            session: id,
            rx,
            paused: false,
            open: true,
        };
        if let Err(e) = self.inner.send(&ClientMsg::Hello(hello)) {
            handle.open = false;
            return Err(e);
        }
        match handle.recv()? {
            ServerMsg::HelloAck { .. } => Ok(handle),
            ServerMsg::Error { code, message, .. } => {
                handle.open = false;
                Err(ServeError::Remote { code, message })
            }
            other => {
                handle.open = false;
                Err(ServeError::Protocol(format!(
                    "expected HelloAck, got {other:?}"
                )))
            }
        }
    }
}

impl Drop for ServeClient {
    fn drop(&mut self) {
        let _ = self.stream.shutdown(Shutdown::Both);
        if let Some(t) = self.reader.take() {
            let _ = t.join();
        }
    }
}

/// Routes every inbound server frame to the session that owns it.
/// Connection-level errors (session 0) are broadcast to every live
/// route; EOF or a framing error drops all routes, which surfaces as a
/// disconnect on every waiting handle.
fn reader_loop(mut stream: TcpStream, inner: &Arc<Inner>) {
    let mut frames = FrameReader::new();
    let mut buf = vec![0u8; 64 << 10];
    loop {
        let n = match stream.read(&mut buf) {
            Ok(0) | Err(_) => break,
            Ok(n) => n,
        };
        #[expect(
            clippy::indexing_slicing,
            reason = "Read::read just above returned n <= buf.len()"
        )]
        frames.extend(&buf[..n]);
        loop {
            let body = match frames.next_frame() {
                Ok(Some(b)) => b,
                Ok(None) => break,
                Err(_) => {
                    // Unframeable server bytes: tear everything down.
                    if let Ok(mut routes) = inner.routes.lock() {
                        routes.clear();
                    }
                    return;
                }
            };
            let Ok(msg) = ServerMsg::decode(&body) else {
                continue; // forward-compat: skip unknown-but-framed messages
            };
            let Ok(routes) = inner.routes.lock() else {
                return;
            };
            match msg.session_id() {
                0 => {
                    // Connection-level: every session sees it.
                    for tx in routes.values() {
                        let _ = tx.send(msg.clone());
                    }
                }
                id => {
                    if let Some(tx) = routes.get(&id) {
                        let _ = tx.send(msg);
                    }
                }
            }
        }
    }
    if let Ok(mut routes) = inner.routes.lock() {
        routes.clear();
    }
}

impl ServerMsg {
    /// The session a server message addresses (0 = connection-level).
    fn session_id(&self) -> u64 {
        match self {
            ServerMsg::HelloAck { session }
            | ServerMsg::Interval { session, .. }
            | ServerMsg::Report { session, .. }
            | ServerMsg::Error { session, .. }
            | ServerMsg::Backpressure { session, .. }
            | ServerMsg::Resume { session } => *session,
        }
    }
}

/// One open session. Stream chunks with [`SessionHandle::send_chunk`],
/// then either [`SessionHandle::finish`] for the final report or
/// [`SessionHandle::close`] to abandon it.
pub struct SessionHandle {
    inner: Arc<Inner>,
    session: u64,
    rx: Receiver<ServerMsg>,
    paused: bool,
    open: bool,
}

impl fmt::Debug for SessionHandle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SessionHandle")
            .field("session", &self.session)
            .field("paused", &self.paused)
            .field("open", &self.open)
            .finish_non_exhaustive()
    }
}

impl SessionHandle {
    /// The session id this handle drives.
    pub fn session(&self) -> u64 {
        self.session
    }

    /// Blocks for the next server frame addressed to this session.
    fn recv(&self) -> Result<ServerMsg, ServeError> {
        match self.rx.recv_timeout(REPLY_TIMEOUT) {
            Ok(m) => Ok(m),
            Err(RecvTimeoutError::Timeout) => Err(ServeError::Io(io::Error::new(
                io::ErrorKind::TimedOut,
                "no server reply within 30s",
            ))),
            Err(RecvTimeoutError::Disconnected) => Err(ServeError::Io(io::Error::new(
                io::ErrorKind::ConnectionAborted,
                "server connection closed",
            ))),
        }
    }

    /// Folds one async server frame into handle state, collecting
    /// interval windows. Returns an error for `Error` frames and for
    /// frames that make no sense mid-stream.
    fn absorb(
        &mut self,
        msg: ServerMsg,
        intervals: &mut Vec<IntervalWindow>,
    ) -> Result<(), ServeError> {
        match msg {
            ServerMsg::Interval { window, .. } => {
                intervals.push(window);
                Ok(())
            }
            ServerMsg::Backpressure { .. } => {
                self.paused = true;
                Ok(())
            }
            ServerMsg::Resume { .. } => {
                self.paused = false;
                Ok(())
            }
            ServerMsg::Error { code, message, .. } => {
                self.open = false;
                Err(ServeError::Remote { code, message })
            }
            other => Err(ServeError::Protocol(format!(
                "unexpected mid-stream frame {other:?}"
            ))),
        }
    }

    /// Sends raw `.stbt` record bytes, first draining any pending server
    /// frames (streamed intervals, backpressure). Blocks while the
    /// server has this connection paused. Returns the interval windows
    /// that arrived along the way.
    ///
    /// # Errors
    ///
    /// [`ServeError::Remote`] if the server tore the session down,
    /// transport errors otherwise.
    pub fn send_chunk(&mut self, bytes: &[u8]) -> Result<Vec<IntervalWindow>, ServeError> {
        let mut intervals = Vec::new();
        loop {
            match self.rx.try_recv() {
                Ok(m) => self.absorb(m, &mut intervals)?,
                Err(TryRecvError::Empty) => break,
                Err(TryRecvError::Disconnected) => {
                    return Err(ServeError::Io(io::Error::new(
                        io::ErrorKind::ConnectionAborted,
                        "server connection closed",
                    )))
                }
            }
        }
        while self.paused {
            let m = self.recv()?;
            self.absorb(m, &mut intervals)?;
        }
        self.inner.send(&ClientMsg::TraceChunk {
            session: self.session,
            bytes: bytes.to_vec(),
        })?;
        Ok(intervals)
    }

    /// Flushes the stream and waits for the final report, returning it
    /// with every interval window received after the last `send_chunk`.
    ///
    /// # Errors
    ///
    /// [`ServeError::Remote`] if the tail of the stream failed to decode
    /// or simulate, transport errors otherwise.
    pub fn finish(mut self) -> Result<(WireReport, Vec<IntervalWindow>), ServeError> {
        self.inner.send(&ClientMsg::Flush {
            session: self.session,
        })?;
        let mut intervals = Vec::new();
        loop {
            match self.recv()? {
                ServerMsg::Report { report, .. } => {
                    self.open = false;
                    return Ok((report, intervals));
                }
                other => self.absorb(other, &mut intervals)?,
            }
        }
    }

    /// Abandons the session; the server aborts it without a report.
    ///
    /// # Errors
    ///
    /// Transport errors only.
    pub fn close(mut self) -> Result<(), ServeError> {
        self.inner.send(&ClientMsg::Close {
            session: self.session,
        })?;
        self.open = false;
        Ok(())
    }
}

impl Drop for SessionHandle {
    fn drop(&mut self) {
        if let Ok(mut routes) = self.inner.routes.lock() {
            routes.remove(&self.session);
        }
        if self.open {
            // Dropped mid-stream: tell the server rather than waiting
            // for its idle sweep. Best-effort.
            let _ = self.inner.send(&ClientMsg::Close {
                session: self.session,
            });
        }
    }
}

/// Batches [`TraceEvent`]s into wire-ready `.stbt` record chunks. One
/// encoder per session: per-thread PC delta state spans chunk
/// boundaries, exactly like a file writer whose sink is drained
/// mid-stream, so the server's [`stbpu_trace::binfmt::RecordDecoder`]
/// reassembles the identical record stream.
pub struct ChunkEncoder {
    w: BinTraceWriter<Vec<u8>>,
    target: usize,
}

impl ChunkEncoder {
    /// Chunks are emitted once they reach `target` bytes (the frame
    /// layer caps a chunk at a bit under [`crate::protocol::MAX_FRAME`]).
    pub fn new(target: usize) -> Self {
        ChunkEncoder {
            w: BinTraceWriter::new(Vec::new()),
            target: target.clamp(64, crate::protocol::MAX_FRAME - 64),
        }
    }

    /// Encodes one event; returns a full chunk when the target size is
    /// reached.
    ///
    /// # Errors
    ///
    /// Never fails in practice (the sink is a `Vec`); the signature
    /// matches the underlying writer.
    pub fn push(&mut self, ev: &TraceEvent) -> io::Result<Option<Vec<u8>>> {
        self.w.event(ev)?;
        if self.w.get_mut().len() >= self.target {
            Ok(Some(std::mem::take(self.w.get_mut())))
        } else {
            Ok(None)
        }
    }

    /// Takes whatever is buffered (possibly empty) as a final chunk.
    pub fn flush(&mut self) -> Vec<u8> {
        std::mem::take(self.w.get_mut())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    /// The client's socket runs with Nagle's algorithm off.
    #[test]
    fn client_socket_sets_nodelay() -> Result<(), ServeError> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let client = ServeClient::connect(listener.local_addr()?)?;
        assert!(client.stream.nodelay()?);
        Ok(())
    }
}
