//! End-to-end daemon tests over real loopback sockets: bit-parity with
//! offline simulation, malicious-client containment, quota enforcement,
//! idle-session reaping, and session and shutdown latency.

use stbpu_engine::{auto_protection, ModelRegistry};
use stbpu_serve::client::{ChunkEncoder, ServeClient};
use stbpu_serve::protocol::{ClientMsg, ErrorCode, FrameReader, Hello, ServerMsg};
use stbpu_serve::server::{spawn, ServerConfig};
use stbpu_serve::ServeError;
use stbpu_sim::{IntervalWindow, OwnedSession, SessionOptions, SimReport, Warmup};
use stbpu_trace::{profiles, EventSource, TraceEvent, TraceGenerator};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

const MODEL: &str = "st_skl";
const WORKLOAD: &str = "541.leela";
const BRANCHES: usize = 30_000;
const WARMUP: u64 = 3_000;
const SEED: u64 = 1234;

/// Trace events, their wire chunks, and the offline reference results.
struct Fixture {
    chunks: Vec<Vec<u8>>,
    report: SimReport,
    intervals: Vec<IntervalWindow>,
}

/// `branches` generated branches of [`WORKLOAD`].
fn events(branches: usize) -> Vec<TraceEvent> {
    let profile = profiles::by_name(WORKLOAD).expect("workload exists");
    let mut source = TraceGenerator::new(profile, SEED).into_source(branches);
    let mut events: Vec<TraceEvent> = Vec::new();
    let collected: Result<(), stbpu_trace::SourceError> = source.for_each_batch(4_096, |b| {
        events.extend_from_slice(b);
        Ok(())
    });
    collected.unwrap();
    events
}

/// The events as 4 KiB wire chunks.
fn chunks(events: &[TraceEvent]) -> Vec<Vec<u8>> {
    let mut enc = ChunkEncoder::new(4 << 10);
    let mut chunks = Vec::new();
    for ev in events {
        if let Some(c) = enc.push(ev).unwrap() {
            chunks.push(c);
        }
    }
    let tail = enc.flush();
    if !tail.is_empty() {
        chunks.push(tail);
    }
    chunks
}

fn fixture(interval: Option<u64>) -> Fixture {
    let events = events(BRANCHES);

    let model = ModelRegistry::standard().build(MODEL, SEED).unwrap();
    let mut sim = OwnedSession::new(
        model,
        auto_protection(MODEL),
        SessionOptions {
            warmup: Warmup::Branches(WARMUP),
            threads: None,
            interval,
            workload: Some(WORKLOAD.to_string()),
        },
    )
    .unwrap();
    sim.feed_batch(&events).unwrap();
    let (report, intervals) = sim.finish_with_intervals();
    Fixture {
        chunks: chunks(&events),
        report,
        intervals,
    }
}

fn hello(session: u64, interval: u64) -> Hello {
    Hello {
        session,
        seed: SEED,
        model: MODEL.to_string(),
        protection: "auto".to_string(),
        workload: WORKLOAD.to_string(),
        warmup_branches: WARMUP,
        interval,
        threads: 0,
    }
}

/// The load-bearing acceptance property: a session streamed chunk by
/// chunk through a real socket reports **bit-identically** to the
/// offline run — final report and every streamed interval window.
#[test]
fn socket_session_matches_offline_bit_for_bit() {
    let fx = fixture(Some(5_000));
    let server = spawn("127.0.0.1:0", ServerConfig::default()).unwrap();
    let client = ServeClient::connect(server.addr()).unwrap();

    let mut handle = client.open(hello(1, 5_000)).unwrap();
    let mut windows = Vec::new();
    for chunk in &fx.chunks {
        windows.extend(handle.send_chunk(chunk).unwrap());
    }
    let (report, tail) = handle.finish().unwrap();
    windows.extend(tail);

    assert_eq!(report.oae.to_bits(), fx.report.oae.to_bits());
    assert_eq!(
        report.direction_rate.to_bits(),
        fx.report.direction_rate.to_bits()
    );
    assert_eq!(
        report.target_rate.to_bits(),
        fx.report.target_rate.to_bits()
    );
    assert_eq!(report.branches, fx.report.branches);
    assert_eq!(report.mispredictions, fx.report.mispredictions);
    assert_eq!(report.evictions, fx.report.evictions);
    assert_eq!(report.flushes, fx.report.flushes);
    assert_eq!(report.rerandomizations, fx.report.rerandomizations);
    assert_eq!(report.model, fx.report.model);
    assert_eq!(report.protection, fx.report.protection);
    assert_eq!(report.workload, fx.report.workload);
    assert_eq!(windows, fx.intervals);

    drop(client);
    server.shutdown();
}

/// Reads server frames off a raw socket until one decodes (or EOF).
fn read_frame(stream: &mut TcpStream, frames: &mut FrameReader) -> Option<ServerMsg> {
    let mut buf = [0u8; 4096];
    loop {
        if let Ok(Some(body)) = frames.next_frame() {
            return Some(ServerMsg::decode(&body).unwrap());
        }
        match stream.read(&mut buf) {
            Ok(0) | Err(_) => return None,
            Ok(n) => frames.extend(&buf[..n]),
        }
    }
}

/// Malicious clients are contained: an oversized declared frame length
/// kills only its own connection, a quota overflow kills only its own
/// session, an unknown-session chunk is answered and survived — all
/// while an unrelated victim session on another connection streams to a
/// bit-identical report.
#[test]
fn malicious_clients_cannot_kill_unrelated_sessions() {
    let fx = fixture(None);
    let server = spawn(
        "127.0.0.1:0",
        ServerConfig {
            max_buffered_per_conn: 64 << 10,
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let addr = server.addr();

    // The victim: a well-behaved session that stays open throughout.
    let victim = ServeClient::connect(addr).unwrap();
    let mut victim_session = victim.open(hello(1, 0)).unwrap();
    let mid = fx.chunks.len() / 2;
    for chunk in &fx.chunks[..mid] {
        victim_session.send_chunk(chunk).unwrap();
    }

    // Attacker 1: declares a frame length far beyond the cap. The server
    // must answer a connection-level BadFrame error and close — without
    // ever buffering the phantom payload.
    {
        let mut s = TcpStream::connect(addr).unwrap();
        let mut wire = Vec::new();
        stbpu_bpu::snap::push_varint(&mut wire, u64::MAX / 2);
        s.write_all(&wire).unwrap();
        let mut frames = FrameReader::new();
        match read_frame(&mut s, &mut frames) {
            Some(ServerMsg::Error { session, code, .. }) => {
                assert_eq!(session, 0);
                assert_eq!(code, ErrorCode::BadFrame);
            }
            other => panic!("expected connection-level BadFrame, got {other:?}"),
        }
        // The connection is closed afterwards.
        assert!(read_frame(&mut s, &mut frames).is_none());
    }

    // Attacker 2: a single chunk bigger than the whole connection quota.
    // Its session dies with QuotaBuffered; the connection survives and
    // can open another session.
    {
        let attacker = ServeClient::connect(addr).unwrap();
        let mut sess = attacker.open(hello(1, 0)).unwrap();
        let blob = vec![0u8; 80 << 10];
        let mut outcome = sess.send_chunk(&blob);
        for _ in 0..100 {
            if outcome.is_err() {
                break;
            }
            // The teardown error arrives asynchronously; poke until the
            // handle drains it.
            std::thread::sleep(Duration::from_millis(10));
            outcome = sess.send_chunk(&[]);
        }
        match outcome {
            Err(ServeError::Remote { code, .. }) => assert_eq!(code, ErrorCode::QuotaBuffered),
            other => panic!("expected QuotaBuffered teardown, got {other:?}"),
        }
        // Same connection, fresh session id: still serviceable.
        let fresh = attacker.open(hello(2, 0)).unwrap();
        fresh.close().unwrap();
    }

    // Attacker 3: addresses a session that was never opened. The server
    // answers UnknownSession and the connection keeps working.
    {
        let mut s = TcpStream::connect(addr).unwrap();
        let mut wire = Vec::new();
        ClientMsg::Hello(hello(7, 0)).encode(&mut wire);
        ClientMsg::TraceChunk {
            session: 99,
            bytes: vec![1, 2, 3],
        }
        .encode(&mut wire);
        s.write_all(&wire).unwrap();
        let mut frames = FrameReader::new();
        match read_frame(&mut s, &mut frames) {
            Some(ServerMsg::HelloAck { session: 7 }) => {}
            other => panic!("expected HelloAck for 7, got {other:?}"),
        }
        match read_frame(&mut s, &mut frames) {
            Some(ServerMsg::Error { session, code, .. }) => {
                assert_eq!(session, 99);
                assert_eq!(code, ErrorCode::UnknownSession);
            }
            other => panic!("expected UnknownSession for 99, got {other:?}"),
        }
        // Still alive: a second Hello on the same connection is acked.
        let mut wire = Vec::new();
        ClientMsg::Hello(hello(8, 0)).encode(&mut wire);
        s.write_all(&wire).unwrap();
        match read_frame(&mut s, &mut frames) {
            Some(ServerMsg::HelloAck { session: 8 }) => {}
            other => panic!("expected HelloAck for 8, got {other:?}"),
        }
    }

    // The victim finishes and still matches offline bit-for-bit.
    for chunk in &fx.chunks[mid..] {
        victim_session.send_chunk(chunk).unwrap();
    }
    let (report, _) = victim_session.finish().unwrap();
    assert_eq!(report.oae.to_bits(), fx.report.oae.to_bits());
    assert_eq!(report.mispredictions, fx.report.mispredictions);

    drop(victim);
    server.shutdown();
}

/// Session-count quota: the N+1th concurrent Hello is refused with
/// QuotaSessions, duplicate ids are refused (locally by the client
/// library, with DuplicateSession by the server for raw peers) without
/// disturbing the live session, and closing one session frees its slot.
#[test]
fn session_quota_and_duplicate_ids_are_enforced() {
    let fx = fixture(None);
    let server = spawn(
        "127.0.0.1:0",
        ServerConfig {
            max_sessions_per_conn: 2,
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let client = ServeClient::connect(server.addr()).unwrap();

    let a = client.open(hello(1, 0)).unwrap();
    let mut b = client.open(hello(2, 0)).unwrap();
    match client.open(hello(3, 0)) {
        Err(ServeError::Remote { code, .. }) => assert_eq!(code, ErrorCode::QuotaSessions),
        other => panic!("expected QuotaSessions, got {other:?}"),
    }
    // A duplicate id is refused locally, before any frame goes out…
    match client.open(hello(2, 0)) {
        Err(ServeError::Protocol(m)) => assert!(m.contains("already open"), "{m}"),
        other => panic!("expected a local duplicate-id refusal, got {other:?}"),
    }
    // …and the live session it collided with keeps its frame route: it
    // still streams to a bit-identical report instead of going deaf.
    for chunk in &fx.chunks {
        b.send_chunk(chunk).unwrap();
    }
    let (report, _) = b.finish().unwrap();
    assert_eq!(report.oae.to_bits(), fx.report.oae.to_bits());

    // Raw peers that bypass the client library still get the server's
    // own DuplicateSession answer.
    {
        let mut s = TcpStream::connect(server.addr()).unwrap();
        let mut wire = Vec::new();
        ClientMsg::Hello(hello(5, 0)).encode(&mut wire);
        ClientMsg::Hello(hello(5, 0)).encode(&mut wire);
        s.write_all(&wire).unwrap();
        let mut frames = FrameReader::new();
        match read_frame(&mut s, &mut frames) {
            Some(ServerMsg::HelloAck { session: 5 }) => {}
            other => panic!("expected HelloAck for 5, got {other:?}"),
        }
        match read_frame(&mut s, &mut frames) {
            Some(ServerMsg::Error { session, code, .. }) => {
                assert_eq!(session, 5);
                assert_eq!(code, ErrorCode::DuplicateSession);
            }
            other => panic!("expected DuplicateSession for 5, got {other:?}"),
        }
    }
    a.close().unwrap();
    // Closing is asynchronous on the server; retry briefly.
    let mut freed = false;
    for _ in 0..50 {
        std::thread::sleep(Duration::from_millis(20));
        match client.open(hello(4, 0)) {
            Ok(h) => {
                h.close().unwrap();
                freed = true;
                break;
            }
            Err(ServeError::Remote {
                code: ErrorCode::QuotaSessions,
                ..
            }) => continue,
            other => panic!("expected the freed slot to admit a session, got {other:?}"),
        }
    }
    assert!(freed, "closed session never freed its quota slot");

    drop(client);
    server.shutdown();
}

/// A client that streams work but never reads its socket must not wedge
/// the daemon: outbound frames are never written under the global state
/// lock, and the write timeout tears the stalled connection down. With
/// a single worker (the worst case for starvation), a victim on another
/// connection still streams to a bit-identical report.
#[test]
fn non_reading_client_cannot_wedge_the_daemon() {
    let fx = fixture(None);
    let server = spawn(
        "127.0.0.1:0",
        ServerConfig {
            workers: 1,
            write_timeout: Duration::from_millis(300),
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let addr = server.addr();

    // The stalled peer: an interval window every branch makes the
    // server push hundreds of kilobytes of IntervalRecord frames back
    // at a socket nobody reads, jamming its writes once the kernel
    // buffers fill.
    let mut stalled = TcpStream::connect(addr).unwrap();
    let mut wire = Vec::new();
    ClientMsg::Hello(hello(1, 1)).encode(&mut wire);
    for chunk in &fx.chunks {
        ClientMsg::TraceChunk {
            session: 1,
            bytes: chunk.clone(),
        }
        .encode(&mut wire);
    }
    ClientMsg::Flush { session: 1 }.encode(&mut wire);
    stalled.write_all(&wire).unwrap();
    // Deliberately never read from `stalled`.

    let victim = ServeClient::connect(addr).unwrap();
    let mut session = victim.open(hello(1, 0)).unwrap();
    for chunk in &fx.chunks {
        session.send_chunk(chunk).unwrap();
    }
    let (report, _) = session.finish().unwrap();
    assert_eq!(report.oae.to_bits(), fx.report.oae.to_bits());
    assert_eq!(report.branches, fx.report.branches);

    drop(stalled);
    drop(victim);
    server.shutdown();
}

/// Sessions that stop sending are reaped with IdleTimeout; an active
/// session on the same server is untouched.
#[test]
fn idle_sessions_are_reaped() {
    let fx = fixture(None);
    let server = spawn(
        "127.0.0.1:0",
        ServerConfig {
            idle_timeout: Duration::from_millis(300),
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let client = ServeClient::connect(server.addr()).unwrap();
    let idle = client.open(hello(1, 0)).unwrap();

    // An active session outlives the sweep by streaming slowly: total
    // stream time comfortably exceeds idle_timeout + sweep period.
    let active_client = ServeClient::connect(server.addr()).unwrap();
    let mut active = active_client.open(hello(1, 0)).unwrap();
    for chunk in &fx.chunks {
        active.send_chunk(chunk).unwrap();
        std::thread::sleep(Duration::from_millis(25));
    }

    // The idle one is gone: the reaper's error beats the Flush reply.
    match idle.finish() {
        Err(ServeError::Remote { code, .. }) => assert_eq!(code, ErrorCode::IdleTimeout),
        other => panic!("expected IdleTimeout, got {other:?}"),
    }
    let (report, _) = active.finish().unwrap();
    assert_eq!(report.oae.to_bits(), fx.report.oae.to_bits());

    drop(client);
    drop(active_client);
    server.shutdown();
}

/// The middle of an odd number of samples.
fn median(mut times: Vec<Duration>) -> Duration {
    times.sort();
    times[times.len() / 2]
}

/// A served session costs its compute time, not a delayed ACK. With
/// Nagle's algorithm on at either end, a session's small `Flush` (client
/// side) or its `Report` behind a burst of `Interval` frames (server
/// side) waits for the peer's delayed ACK — 40 ms at least on Linux. So
/// 21 back-to-back ~5k-branch sessions on one connection, without and
/// with streamed intervals, must each have a median well under that.
#[test]
fn sessions_do_not_wait_for_delayed_acks() {
    let chunks = chunks(&events(5_000));
    let server = spawn("127.0.0.1:0", ServerConfig::default()).unwrap();
    let client = ServeClient::connect(server.addr()).unwrap();
    let mut medians = Vec::new();
    for interval in [0, 500] {
        let mut times = Vec::new();
        for i in 0..21 {
            let start = Instant::now();
            let mut session = client
                .open(Hello {
                    model: "skl".to_string(),
                    ..hello(interval + i + 1, interval)
                })
                .unwrap();
            for chunk in &chunks {
                session.send_chunk(chunk).unwrap();
            }
            let (report, _) = session.finish().unwrap();
            times.push(start.elapsed());
            assert_eq!(report.model, "SKLCond");
        }
        medians.push((interval, median(times)));
    }
    drop(client);
    server.shutdown();
    assert!(
        medians.iter().all(|m| m.1 < Duration::from_millis(20)),
        "median session time per interval setting: {medians:?}"
    );
}

/// Shutdown wakes the accept loop out of its poll wait instead of
/// joining it mid-sleep: over 21 spawn → connect → shutdown cycles, the
/// median shutdown takes well under the 10 ms poll period.
#[test]
fn shutdown_does_not_wait_out_the_accept_poll() {
    let mut times = Vec::new();
    for _ in 0..21 {
        let server = spawn("127.0.0.1:0", ServerConfig::default()).unwrap();
        drop(ServeClient::connect(server.addr()).unwrap());
        let start = Instant::now();
        server.shutdown();
        times.push(start.elapsed());
    }
    let median = median(times.clone());
    assert!(
        median < Duration::from_millis(5),
        "median shutdown {median:?} (all {times:?})"
    );
}
