//! The daemon: a session manager owning a worker pool over a registry of
//! live sessions.
//!
//! # Architecture
//!
//! One accept thread hands each connection to its own reader thread; the
//! reader splits frames, answers `Hello`s, and queues `TraceChunk` bytes
//! on the addressed session's slot. A fixed pool of worker threads pulls
//! ready sessions off a run queue, checks the session's engine (trace
//! decoder + [`OwnedSession`]) *out* of the registry, processes every
//! queued chunk through the batched fast path without holding the
//! registry lock, and checks the engine back in — so N workers advance N
//! sessions concurrently while readers keep accepting bytes.
//!
//! # Isolation
//!
//! Per-connection quotas (live sessions, buffered bytes) and per-session
//! failure domains: a malformed chunk, quota overflow or idle timeout
//! tears down exactly the offending session with a
//! [`ServerMsg::Error`] — every other session, on the same connection or
//! others, keeps streaming. Only an unframeable byte stream costs the
//! whole connection, because framing has no resync point.
//!
//! Outbound frames never touch the socket while the global state lock is
//! held: they are queued per connection under the lock and flushed after
//! it is released, and every send half carries
//! [`ServerConfig::write_timeout`] — so a client that stops *reading*
//! wedges nothing; its first timed-out write kills its own connection
//! and frees whatever worker was serving it.

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
use stbpu_engine::{auto_protection, protection_from_str, ModelCore, ModelRegistry};
use stbpu_sim::{OwnedSession, SessionOptions, Warmup};
use stbpu_trace::binfmt::RecordDecoder;
use stbpu_trace::TraceEvent;
use std::collections::{BTreeMap, VecDeque};
use std::io::{self, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

/// Tuning knobs for [`spawn`]. The defaults suit tests and the CLI; the
/// bench harness raises the quotas to keep 8+ clients streaming.
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Worker threads advancing sessions; 0 means one per available
    /// core, capped at 8.
    pub workers: usize,
    /// Live sessions allowed per connection before `Hello`s are refused
    /// with [`ErrorCode::QuotaSessions`].
    pub max_sessions_per_conn: usize,
    /// Bytes of undecoded chunk data buffered per connection. At ¾ of
    /// this an advisory [`ServerMsg::Backpressure`] frame fires and the
    /// server stops reading the connection's socket until workers drain
    /// below ¼ (so real memory is bounded by the watermark plus one read
    /// buffer even against clients that ignore the frame). A single
    /// chunk larger than the whole quota tears its session down with
    /// [`ErrorCode::QuotaBuffered`].
    pub max_buffered_per_conn: usize,
    /// A session receiving nothing for this long is torn down with
    /// [`ErrorCode::IdleTimeout`].
    pub idle_timeout: Duration,
    /// Per-write timeout on every connection's send half. A peer that
    /// stops reading its socket makes the next write to it fail after at
    /// most this long, which tears that one connection down — a
    /// non-reading client costs whoever writes to it one timeout, never
    /// a permanently wedged worker or reader.
    pub write_timeout: Duration,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            workers: 0,
            max_sessions_per_conn: 16,
            max_buffered_per_conn: 8 << 20,
            idle_timeout: Duration::from_secs(30),
            write_timeout: Duration::from_secs(10),
        }
    }
}

impl ServerConfig {
    /// Buffered-bytes level that triggers a [`ServerMsg::Backpressure`].
    /// Clamped to at least 1 so a degenerate quota (< 4 bytes) still
    /// leaves the stall check satisfiable — the connection throttles
    /// per-chunk instead of wedging on a watermark of 0.
    fn high_watermark(&self) -> usize {
        (self.max_buffered_per_conn / 4 * 3).max(1)
    }

    /// Buffered-bytes level that triggers the matching
    /// [`ServerMsg::Resume`].
    fn low_watermark(&self) -> usize {
        self.max_buffered_per_conn / 4
    }
}

/// Registry key: connection id + client-chosen session id.
type Key = (u64, u64);

/// A session's compute state, checked out of the registry by exactly one
/// worker at a time.
struct Engine {
    decoder: RecordDecoder,
    sim: OwnedSession<ModelCore>,
    /// Reused decode scratch, so steady-state chunks allocate nothing.
    events: Vec<TraceEvent>,
}

/// How a session ends.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Closing {
    /// Still streaming.
    No,
    /// `Flush` received: drain, finish, report.
    Finish,
    /// `Close` received or the session was torn down: drop silently.
    Abort,
}

/// One live session in the registry.
struct Slot {
    pending: VecDeque<Vec<u8>>,
    pending_bytes: usize,
    closing: Closing,
    /// True while the key sits in the run queue.
    queued: bool,
    /// `None` while a worker has the engine checked out.
    engine: Option<Box<Engine>>,
    writer: ConnWriter,
    last_activity: Instant,
}

/// Per-connection accounting.
struct ConnInfo {
    buffered: usize,
    sessions: usize,
    /// The session that was sent a `Backpressure` and awaits `Resume`.
    paused: Option<u64>,
}

/// The shared half of a connection's socket; workers, the reader and the
/// sweep all push frames through it.
///
/// Sending is split in two so no socket I/O ever happens under the
/// global state lock: [`ConnWriter::queue_msg`] encodes onto the end of
/// a pending byte buffer (cheap, lock-safe — wire order is queue order,
/// which under the state lock is state-transition order, keeping e.g.
/// `Backpressure` ahead of its `Resume`), and [`ConnWriter::flush`]
/// writes the buffer to the socket and must only run with no state lock
/// held. The socket carries the configured write timeout, so a peer that
/// stops reading fails the write in bounded time; the failure marks the
/// writer dead and shuts the socket down, which the reader notices and
/// turns into a full connection teardown — releasing any sessions (and
/// therefore workers) the stalled peer was holding.
#[derive(Clone)]
struct ConnWriter {
    /// Encoded frames not yet written, in wire order.
    queue: Arc<Mutex<Vec<u8>>>,
    stream: Arc<Mutex<TcpStream>>,
    dead: Arc<AtomicBool>,
}

impl ConnWriter {
    fn new(stream: TcpStream) -> ConnWriter {
        ConnWriter {
            queue: Arc::new(Mutex::new(Vec::new())),
            stream: Arc::new(Mutex::new(stream)),
            dead: Arc::new(AtomicBool::new(false)),
        }
    }

    /// Encodes one frame onto the outbound queue. No I/O — safe while
    /// holding the state lock. The caller must [`ConnWriter::flush`]
    /// after releasing it.
    fn queue_msg(&self, msg: &ServerMsg) {
        if self.dead.load(Ordering::Relaxed) {
            return;
        }
        if let Ok(mut q) = self.queue.lock() {
            msg.encode(&mut q);
        }
    }

    /// Writes every queued frame, in queue order, with one `write_all`.
    /// The socket runs with `TCP_NODELAY`, so a write per frame would put
    /// each `Interval` of a burst and its `Report` in a segment of its
    /// own; one write per flush sends the burst together. Blocks up to
    /// the write timeout per syscall, so it must never run with the state
    /// lock held. A failed or timed-out write kills the writer and shuts
    /// the socket down; the reader thread then cleans the connection up —
    /// a dead peer is not an error worth propagating.
    fn flush(&self) {
        let Ok(mut s) = self.stream.lock() else {
            return;
        };
        // Only the stream-lock holder drains, so frames hit the wire in
        // queue order even with concurrent flushers.
        let wire = match self.queue.lock() {
            Ok(mut q) => std::mem::take(&mut *q),
            Err(_) => return,
        };
        if wire.is_empty() || self.dead.load(Ordering::Relaxed) {
            return;
        }
        if s.write_all(&wire).is_err() {
            self.dead.store(true, Ordering::Relaxed);
            let _ = s.shutdown(Shutdown::Both);
        }
    }

    /// Queue + flush, for call sites that hold no locks.
    fn send(&self, msg: &ServerMsg) {
        self.queue_msg(msg);
        self.flush();
    }

    /// True once a write failed or timed out; the connection is doomed.
    fn is_dead(&self) -> bool {
        self.dead.load(Ordering::Relaxed)
    }
}

/// Registry + run queue, under one lock. Both maps are `BTreeMap` on
/// purpose: the sweep and cleanup paths iterate them, and anything that
/// iterates registry state must do so in a deterministic order (the
/// crate's `clippy.toml` bans `HashMap`/`HashSet`).
struct State {
    sessions: BTreeMap<Key, Slot>,
    ready: VecDeque<Key>,
    conns: BTreeMap<u64, ConnInfo>,
}

/// Everything the threads share. Every acquisition of `state` recovers
/// from poisoning via `unwrap_or_else(PoisonError::into_inner)` rather
/// than unwrapping: a panicking thread elsewhere must degrade one
/// session, not wedge the registry for every live connection — each path
/// re-validates the slot it touches anyway. (This file's
/// `#![deny(clippy::unwrap_used, ...)]` bans the `unwrap()` form.)
struct Shared {
    cfg: ServerConfig,
    registry: ModelRegistry,
    state: Mutex<State>,
    work: Condvar,
    /// Wakes the accept loop out of its poll wait at shutdown.
    stop: Condvar,
    /// Set under the `state` lock, so a thread that checks it under that
    /// lock and then waits on `work` or `stop` cannot miss the wakeup.
    shutdown: AtomicBool,
    next_conn: AtomicU64,
}

/// A running daemon. Keep it alive for as long as the service should
/// accept connections; [`ServerHandle::shutdown`] stops it.
pub struct ServerHandle {
    addr: SocketAddr,
    shared: Arc<Shared>,
    threads: Vec<JoinHandle<()>>,
}

impl ServerHandle {
    /// The bound address (resolves `:0` to the real port).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops accepting, wakes every thread, and joins the pool. Live
    /// sessions are aborted, not finished.
    pub fn shutdown(mut self) {
        {
            let _st = self
                .shared
                .state
                .lock()
                .unwrap_or_else(PoisonError::into_inner);
            self.shared.shutdown.store(true, Ordering::SeqCst);
        }
        self.shared.work.notify_all();
        self.shared.stop.notify_all();
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }
}

/// Binds `addr` (e.g. `127.0.0.1:0`) and spawns the accept loop plus the
/// worker pool.
///
/// # Errors
///
/// Propagates the bind failure.
pub fn spawn(addr: &str, cfg: ServerConfig) -> io::Result<ServerHandle> {
    let listener = TcpListener::bind(addr)?;
    listener.set_nonblocking(true)?;
    let local = listener.local_addr()?;
    let workers = match cfg.workers {
        0 => thread::available_parallelism()
            .map(|n| n.get().min(8))
            .unwrap_or(4),
        n => n,
    };
    let shared = Arc::new(Shared {
        cfg,
        registry: ModelRegistry::standard(),
        state: Mutex::new(State {
            sessions: BTreeMap::new(),
            ready: VecDeque::new(),
            conns: BTreeMap::new(),
        }),
        work: Condvar::new(),
        stop: Condvar::new(),
        shutdown: AtomicBool::new(false),
        next_conn: AtomicU64::new(1),
    });
    let mut threads = Vec::with_capacity(workers + 1);
    for _ in 0..workers {
        let sh = Arc::clone(&shared);
        threads.push(thread::spawn(move || worker_loop(&sh)));
    }
    let sh = Arc::clone(&shared);
    threads.push(thread::spawn(move || accept_loop(&sh, listener)));
    Ok(ServerHandle {
        addr: local,
        shared,
        threads,
    })
}

/// Accepts connections (nonblocking, polled every 10 ms) and runs the
/// idle-session sweep between polls. The poll waits on the `stop`
/// condvar rather than sleeping, so shutdown ends it at once.
fn accept_loop(shared: &Arc<Shared>, listener: TcpListener) {
    let mut last_sweep = Instant::now();
    while !shared.shutdown.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((stream, _)) => {
                let conn_id = shared.next_conn.fetch_add(1, Ordering::SeqCst);
                let sh = Arc::clone(shared);
                // Reader threads are not joined on shutdown: they notice
                // the flag within one 50ms read timeout and exit on their
                // own, and the Arc keeps the state alive until they do.
                thread::spawn(move || conn_loop(&sh, stream, conn_id));
            }
            Err(_) => {
                let st = shared.state.lock().unwrap_or_else(PoisonError::into_inner);
                if !shared.shutdown.load(Ordering::SeqCst) {
                    drop(shared.stop.wait_timeout(st, Duration::from_millis(10)));
                }
            }
        }
        if last_sweep.elapsed() >= Duration::from_millis(250) {
            sweep_idle(shared);
            last_sweep = Instant::now();
        }
    }
}

/// Tears down sessions idle past the configured timeout. Sessions with a
/// checked-out or queued engine are actively progressing and skipped.
fn sweep_idle(shared: &Shared) {
    let timeout = shared.cfg.idle_timeout;
    let mut writers = Vec::new();
    {
        let mut st = shared.state.lock().unwrap_or_else(PoisonError::into_inner);
        let idle: Vec<Key> = st
            .sessions
            .iter()
            .filter(|(_, s)| {
                s.engine.is_some() && !s.queued && s.last_activity.elapsed() >= timeout
            })
            .map(|(k, _)| *k)
            .collect();
        for key in idle {
            if let Some(slot) = st.sessions.remove(&key) {
                settle_removed(&mut st, key.0, &slot);
                slot.writer.queue_msg(&ServerMsg::Error {
                    session: key.1,
                    code: ErrorCode::IdleTimeout,
                    message: format!("session idle for {}s", timeout.as_secs()),
                });
                writers.push(slot.writer);
            }
        }
    }
    // Flush outside the lock: a stalled peer costs this thread at most
    // one write timeout (once — the writer is dead afterwards).
    for w in writers {
        w.flush();
    }
}

/// Adjusts connection accounting after a slot left the registry.
fn settle_removed(st: &mut State, conn_id: u64, slot: &Slot) {
    // If the removed session was the one told to pause, the pause can
    // never be resumed — clear it so the connection isn't wedged.
    let clear_pause = st
        .conns
        .get(&conn_id)
        .and_then(|c| c.paused)
        .is_some_and(|s| !st.sessions.contains_key(&(conn_id, s)));
    if let Some(conn) = st.conns.get_mut(&conn_id) {
        conn.sessions = conn.sessions.saturating_sub(1);
        conn.buffered = conn.buffered.saturating_sub(slot.pending_bytes);
        if clear_pause {
            conn.paused = None;
        }
    }
}

/// Per-connection reader: splits frames, dispatches messages, owns the
/// connection's lifetime.
fn conn_loop(shared: &Arc<Shared>, stream: TcpStream, conn_id: u64) {
    // TCP_NODELAY: a `Report` must not wait behind its unacknowledged
    // `Interval` frames for the peer's delayed ACK (40 ms on Linux).
    if stream.set_nodelay(true).is_err()
        || stream
            .set_read_timeout(Some(Duration::from_millis(50)))
            .is_err()
    {
        return;
    }
    let Ok(clone) = stream.try_clone() else {
        return;
    };
    // SO_SNDTIMEO on the shared socket: bounds every write to this peer.
    if clone
        .set_write_timeout(Some(shared.cfg.write_timeout))
        .is_err()
    {
        return;
    }
    let writer = ConnWriter::new(clone);
    shared
        .state
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .conns
        .insert(
            conn_id,
            ConnInfo {
                buffered: 0,
                sessions: 0,
                paused: None,
            },
        );

    let mut stream = stream;
    let mut frames = FrameReader::new();
    let mut buf = vec![0u8; 64 << 10];
    'conn: while !shared.shutdown.load(Ordering::SeqCst) {
        // Hard quota enforcement: while this connection is over the high
        // watermark, stop reading its socket entirely — TCP pushes back
        // on the peer, so buffered bytes are bounded by the watermark
        // plus one read buffer even if the client ignores the advisory
        // Backpressure frame. Compliant clients are never killed for
        // data that was in flight before the frame reached them.
        loop {
            let over = shared
                .state
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .conns
                .get(&conn_id)
                .is_some_and(|c| c.buffered >= shared.cfg.high_watermark());
            if !over || shared.shutdown.load(Ordering::SeqCst) {
                break;
            }
            if writer.is_dead() {
                break 'conn; // a write timed out; the connection is doomed
            }
            thread::sleep(Duration::from_millis(5));
        }
        match stream.read(&mut buf) {
            Ok(0) => break,
            Ok(n) => {
                #[expect(
                    clippy::indexing_slicing,
                    reason = "Read::read just above returned n <= buf.len()"
                )]
                frames.extend(&buf[..n]);
                loop {
                    match frames.next_frame() {
                        Ok(Some(body)) => {
                            if !handle_frame(shared, conn_id, &writer, &body) {
                                break 'conn;
                            }
                        }
                        Ok(None) => break,
                        Err(e) => {
                            // Framing is unrecoverable: no resync point.
                            writer.send(&ServerMsg::Error {
                                session: 0,
                                code: ErrorCode::BadFrame,
                                message: e.to_string(),
                            });
                            break 'conn;
                        }
                    }
                }
            }
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut => {
            }
            Err(_) => break,
        }
    }
    let _ = stream.shutdown(Shutdown::Both);
    cleanup_conn(shared, conn_id);
}

/// Aborts every session a vanished connection still has in the registry.
fn cleanup_conn(shared: &Shared, conn_id: u64) {
    let mut st = shared.state.lock().unwrap_or_else(PoisonError::into_inner);
    let keys: Vec<Key> = st
        .sessions
        .keys()
        .filter(|k| k.0 == conn_id)
        .copied()
        .collect();
    for key in keys {
        let checked_out = st.sessions.get(&key).is_some_and(|s| s.engine.is_none());
        if checked_out {
            // A worker holds the engine: flag the slot and let the
            // check-in path drop it.
            if let Some(slot) = st.sessions.get_mut(&key) {
                slot.closing = Closing::Abort;
                slot.pending.clear();
                slot.pending_bytes = 0;
            }
        } else {
            st.sessions.remove(&key);
        }
    }
    st.conns.remove(&conn_id);
}

/// Handles one complete frame. Returns `false` when the connection must
/// close (undecodable message — same class as unframeable bytes).
fn handle_frame(shared: &Shared, conn_id: u64, writer: &ConnWriter, body: &[u8]) -> bool {
    let msg = match ClientMsg::decode(body) {
        Ok(m) => m,
        Err(e) => {
            writer.send(&ServerMsg::Error {
                session: 0,
                code: ErrorCode::BadFrame,
                message: e,
            });
            return false;
        }
    };
    match msg {
        ClientMsg::Hello(h) => handle_hello(shared, conn_id, writer, h),
        ClientMsg::TraceChunk { session, bytes } => {
            handle_chunk(shared, conn_id, writer, session, bytes)
        }
        ClientMsg::Flush { session } => {
            handle_end(shared, conn_id, writer, session, Closing::Finish)
        }
        ClientMsg::Close { session } => {
            handle_end(shared, conn_id, writer, session, Closing::Abort)
        }
    }
    true
}

/// Opens a session: quota and duplicate checks under the lock, model
/// construction outside it (this reader is the only writer of its own
/// connection's ids, so the gap is race-free).
fn handle_hello(shared: &Shared, conn_id: u64, writer: &ConnWriter, h: Hello) {
    let reject = |code: ErrorCode, message: String| {
        writer.send(&ServerMsg::Error {
            session: h.session,
            code,
            message,
        });
    };
    if h.session == 0 {
        return reject(
            ErrorCode::BadHello,
            "session id 0 is reserved for connection-level errors".to_string(),
        );
    }
    // Look, decide, release — the reject frames go out lock-free below.
    let (duplicate, live) = {
        let st = shared.state.lock().unwrap_or_else(PoisonError::into_inner);
        (
            st.sessions.contains_key(&(conn_id, h.session)),
            st.conns.get(&conn_id).map_or(0, |c| c.sessions),
        )
    };
    if duplicate {
        return reject(
            ErrorCode::DuplicateSession,
            format!("session {} is already open on this connection", h.session),
        );
    }
    if live >= shared.cfg.max_sessions_per_conn {
        return reject(
            ErrorCode::QuotaSessions,
            format!(
                "connection already has {live} live sessions (quota {})",
                shared.cfg.max_sessions_per_conn
            ),
        );
    }

    let model = match shared.registry.build(&h.model, h.seed) {
        Ok(m) => m,
        Err(e) => return reject(ErrorCode::BadHello, e.to_string()),
    };
    let policy = if h.protection == "auto" {
        auto_protection(&h.model)
    } else {
        match protection_from_str(&h.protection) {
            Ok(p) => p,
            Err(e) => return reject(ErrorCode::BadHello, e.to_string()),
        }
    };
    let opts = SessionOptions {
        warmup: Warmup::Branches(h.warmup_branches),
        threads: (h.threads != 0).then_some(h.threads as usize),
        interval: (h.interval != 0).then_some(h.interval),
        workload: Some(h.workload.clone()),
    };
    let sim = match OwnedSession::new(model, policy, opts) {
        Ok(s) => s,
        Err(e) => return reject(ErrorCode::BadHello, e.to_string()),
    };

    let mut st = shared.state.lock().unwrap_or_else(PoisonError::into_inner);
    if !st.conns.contains_key(&conn_id) {
        return; // connection died while we built the model
    }
    st.sessions.insert(
        (conn_id, h.session),
        Slot {
            pending: VecDeque::new(),
            pending_bytes: 0,
            closing: Closing::No,
            queued: false,
            engine: Some(Box::new(Engine {
                decoder: RecordDecoder::new(),
                sim,
                events: Vec::new(),
            })),
            writer: writer.clone(),
            last_activity: Instant::now(),
        },
    );
    if let Some(conn) = st.conns.get_mut(&conn_id) {
        conn.sessions += 1;
    }
    drop(st);
    // Safe to ack after the lock: this reader is the only thread that
    // can feed the new session, so nothing else addresses it before the
    // ack is on the wire.
    writer.send(&ServerMsg::HelloAck { session: h.session });
}

/// Queues chunk bytes on a live session, enforcing the buffered-bytes
/// quota and emitting backpressure at the high watermark.
fn handle_chunk(shared: &Shared, conn_id: u64, writer: &ConnWriter, session: u64, bytes: Vec<u8>) {
    let key = (conn_id, session);
    let len = bytes.len();
    let mut st = shared.state.lock().unwrap_or_else(PoisonError::into_inner);
    let refusal = match st.sessions.get(&key) {
        None => Some(format!("no live session {session} on this connection")),
        Some(slot) if slot.closing != Closing::No => {
            Some(format!("session {session} is already closing"))
        }
        Some(_) => None,
    };
    if let Some(message) = refusal {
        drop(st);
        writer.send(&ServerMsg::Error {
            session,
            code: ErrorCode::UnknownSession,
            message,
        });
        return;
    }
    if len > shared.cfg.max_buffered_per_conn {
        // A single chunk no draining could ever make room for: abusive
        // by construction, and the one quota kill that cannot be a race
        // against in-flight data. Costs the offending session only.
        kill_session(&mut st, key);
        drop(st);
        writer.send(&ServerMsg::Error {
            session,
            code: ErrorCode::QuotaBuffered,
            message: format!(
                "one {len}-byte chunk exceeds the whole {} -byte connection buffer quota",
                shared.cfg.max_buffered_per_conn
            ),
        });
        return;
    }
    // Liveness was checked above and the lock has been held throughout,
    // so the slot is present; the defensive return (instead of a panic
    // that would kill this reader and every session it feeds) costs
    // nothing on the happy path.
    let Some(slot) = st.sessions.get_mut(&key) else {
        return;
    };
    slot.last_activity = Instant::now();
    slot.pending_bytes += len;
    slot.pending.push_back(bytes);
    enqueue(&mut st, key);
    if let Some(conn) = st.conns.get_mut(&conn_id) {
        conn.buffered += len;
        if conn.paused.is_none() && conn.buffered >= shared.cfg.high_watermark() {
            conn.paused = Some(session);
            // Queued under the lock so the frame is ordered before any
            // Resume a draining worker issues for the same pause.
            writer.queue_msg(&ServerMsg::Backpressure {
                session,
                buffered: conn.buffered as u64,
            });
        }
    }
    shared.work.notify_one();
    drop(st);
    writer.flush();
}

/// Handles `Flush` (finish + report) and `Close` (silent abort).
fn handle_end(shared: &Shared, conn_id: u64, writer: &ConnWriter, session: u64, how: Closing) {
    let key = (conn_id, session);
    let mut st = shared.state.lock().unwrap_or_else(PoisonError::into_inner);
    let Some(slot) = st.sessions.get_mut(&key) else {
        drop(st);
        writer.send(&ServerMsg::Error {
            session,
            code: ErrorCode::UnknownSession,
            message: format!("no live session {session} on this connection"),
        });
        return;
    };
    if slot.closing != Closing::No {
        return; // second Flush/Close is a no-op; the first wins
    }
    slot.closing = how;
    slot.last_activity = Instant::now();
    if how == Closing::Abort {
        let dropped = slot.pending_bytes;
        slot.pending.clear();
        slot.pending_bytes = 0;
        if let Some(conn) = st.conns.get_mut(&conn_id) {
            conn.buffered = conn.buffered.saturating_sub(dropped);
        }
    }
    enqueue(&mut st, key);
    shared.work.notify_one();
}

/// Removes a session immediately if its engine is home, or flags it for
/// the worker check-in path to drop.
fn kill_session(st: &mut State, key: Key) {
    let checked_out = st.sessions.get(&key).is_some_and(|s| s.engine.is_none());
    if checked_out {
        if let Some(slot) = st.sessions.get_mut(&key) {
            slot.closing = Closing::Abort;
            let dropped = slot.pending_bytes;
            slot.pending.clear();
            slot.pending_bytes = 0;
            if let Some(conn) = st.conns.get_mut(&key.0) {
                conn.buffered = conn.buffered.saturating_sub(dropped);
            }
        }
    } else if let Some(slot) = st.sessions.remove(&key) {
        settle_removed(st, key.0, &slot);
    }
}

/// Puts `key` on the run queue if it has work and its engine is home.
fn enqueue(st: &mut State, key: Key) {
    if let Some(slot) = st.sessions.get_mut(&key) {
        let has_work = !slot.pending.is_empty() || slot.closing != Closing::No;
        if has_work && !slot.queued && slot.engine.is_some() {
            slot.queued = true;
            st.ready.push_back(key);
        }
    }
}

/// One worker: pop a ready session, advance it, repeat.
fn worker_loop(shared: &Arc<Shared>) {
    loop {
        let key = {
            let mut st = shared.state.lock().unwrap_or_else(PoisonError::into_inner);
            loop {
                if shared.shutdown.load(Ordering::SeqCst) {
                    return;
                }
                if let Some(k) = st.ready.pop_front() {
                    break k;
                }
                let (guard, _) = shared
                    .work
                    .wait_timeout(st, Duration::from_millis(100))
                    .unwrap_or_else(PoisonError::into_inner);
                st = guard;
            }
        };
        advance_session(shared, key);
    }
}

/// Checks the engine out, runs every queued chunk through decode +
/// batched simulation without the registry lock, streams intervals, and
/// checks the engine back in (or finishes/aborts the session).
fn advance_session(shared: &Shared, key: Key) {
    // Check out.
    let (mut engine, chunks, closing, writer) = {
        let mut st = shared.state.lock().unwrap_or_else(PoisonError::into_inner);
        let Some(slot) = st.sessions.get_mut(&key) else {
            return; // torn down while queued
        };
        slot.queued = false;
        let Some(engine) = slot.engine.take() else {
            return; // another worker beat us to it (shouldn't happen)
        };
        let chunks: Vec<Vec<u8>> = slot.pending.drain(..).collect();
        let taken: usize = chunks.iter().map(Vec::len).sum();
        slot.pending_bytes -= taken;
        let closing = slot.closing;
        let writer = slot.writer.clone();
        if let Some(conn) = st.conns.get_mut(&key.0) {
            conn.buffered = conn.buffered.saturating_sub(taken);
            if conn.buffered <= shared.cfg.low_watermark() {
                if let Some(paused) = conn.paused.take() {
                    // Queued under the lock: ordered after the
                    // Backpressure that set the pause, flushed below
                    // once the lock is gone.
                    writer.queue_msg(&ServerMsg::Resume { session: paused });
                }
            }
        }
        (engine, chunks, closing, writer)
    };
    writer.flush();

    // Process without the lock.
    let mut failure: Option<(ErrorCode, String)> = None;
    if closing != Closing::Abort {
        for chunk in &chunks {
            engine.events.clear();
            if let Err(e) = engine.decoder.feed(chunk, &mut engine.events) {
                failure = Some((ErrorCode::TraceDecode, e.to_string()));
                break;
            }
            if let Err(e) = engine.sim.feed_batch(&engine.events) {
                failure = Some((ErrorCode::Sim, e.to_string()));
                break;
            }
            for window in engine.sim.take_intervals() {
                writer.queue_msg(&ServerMsg::Interval {
                    session: key.1,
                    window,
                });
            }
            writer.flush();
        }
    }

    if let Some((code, message)) = failure {
        writer.send(&ServerMsg::Error {
            session: key.1,
            code,
            message,
        });
        remove_session(shared, key);
        return; // engine dropped here; unrelated sessions unaffected
    }

    if closing == Closing::Finish {
        let Engine {
            mut decoder,
            mut sim,
            mut events,
        } = *engine;
        events.clear();
        let finished = decoder
            .finish(&mut events)
            .map_err(|e| (ErrorCode::TraceDecode, e.to_string()))
            .and_then(|()| {
                sim.feed_batch(&events)
                    .map_err(|e| (ErrorCode::Sim, e.to_string()))
            });
        match finished {
            Ok(()) => {
                let (report, intervals) = sim.finish_with_intervals();
                for window in intervals {
                    writer.queue_msg(&ServerMsg::Interval {
                        session: key.1,
                        window,
                    });
                }
                // The windows and the report leave in one write.
                writer.send(&ServerMsg::Report {
                    session: key.1,
                    report: WireReport::from(&report),
                });
            }
            Err((code, message)) => {
                writer.send(&ServerMsg::Error {
                    session: key.1,
                    code,
                    message,
                });
            }
        }
        remove_session(shared, key);
        return;
    }

    // Check back in (or honor an abort that landed while we worked).
    let mut st = shared.state.lock().unwrap_or_else(PoisonError::into_inner);
    let Some(slot) = st.sessions.get_mut(&key) else {
        return; // connection cleanup removed the slot; drop the engine
    };
    if closing == Closing::Abort || slot.closing == Closing::Abort {
        if let Some(removed) = st.sessions.remove(&key) {
            settle_removed(&mut st, key.0, &removed);
        }
        return;
    }
    slot.engine = Some(engine);
    enqueue(&mut st, key);
    if !st.ready.is_empty() {
        shared.work.notify_one();
    }
}

/// Removes a finished/failed session and settles its connection's books.
fn remove_session(shared: &Shared, key: Key) {
    let mut st = shared.state.lock().unwrap_or_else(PoisonError::into_inner);
    if let Some(slot) = st.sessions.remove(&key) {
        settle_removed(&mut st, key.0, &slot);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Degenerate buffer quotas must still leave the reader's stall
    /// check satisfiable: a watermark of 0 with nothing buffered would
    /// wedge every connection forever.
    #[test]
    fn high_watermark_never_zero() {
        for quota in [1, 2, 3, 4, 5, 8] {
            let cfg = ServerConfig {
                max_buffered_per_conn: quota,
                ..ServerConfig::default()
            };
            assert!(cfg.high_watermark() >= 1, "quota {quota}");
            assert!(cfg.low_watermark() < cfg.high_watermark(), "quota {quota}");
        }
    }
}
