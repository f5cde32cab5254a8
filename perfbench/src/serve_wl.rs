//! `serve-sessions`: a closed loop of short sessions (st_skl and skl) from
//! one client over loopback to an in-process `serve::spawn` daemon with one
//! worker. Per-session fixed costs — model build, handshake, framing,
//! report — dominate here.
//!
//! Reference: every streamed report must be bit-identical (`check_parity`)
//! to an offline `OwnedSession` over the same events.

use crate::oracle::Ledger;
use crate::runner::{Readings, Workload};
use crate::stats::mix;
use crate::tracer::Tracer;
use stbpu_engine::{auto_protection, ModelRegistry};
use stbpu_serve::server::{self, ServerConfig, ServerHandle};
use stbpu_serve::{check_parity, ChunkEncoder, Hello, ServeClient, WireReport};
use stbpu_sim::{OwnedSession, SessionOptions, SimReport, Warmup};
use stbpu_trace::{profiles, EventSource, TraceEvent, TraceGenerator};
use std::time::{Duration, Instant};

/// Served models (protection resolved like `stbpu simulate`) and their
/// scheme names.
const MODELS: [&str; 2] = ["st_skl@r=0.05", "skl"];
const SCHEMES: [&str; 2] = ["stbpu", "baseline"];

/// Short sessions over Figure 3 profiles, fixed lengths in a ladder.
const POOL: [(&str, usize); 12] = [
    ("541.leela", 3_000),
    ("505.mcf", 3_600),
    ("557.xz", 4_300),
    ("500.perlbench", 5_200),
    ("523.xalancbmk", 6_200),
    ("520.omnetpp", 7_400),
    ("apache2_prefork_c64", 8_900),
    ("mysql_32con_50s", 10_700),
    ("531.deepsjeng", 12_800),
    ("502.gcc", 15_400),
    ("chrome-1motionmark", 18_500),
    ("525.x264", 22_200),
];

/// Target wire chunk size (the serve bench's default).
const CHUNK_BYTES: usize = 32 << 10;

struct Input {
    name: &'static str,
    seed: u64,
    events: Vec<TraceEvent>,
    branches: u64,
    chunks: Vec<Vec<u8>>,
    wire_bytes: u64,
    refs: Vec<SimReport>,
}

pub struct Serve {
    seed: u64,
    server: Option<ServerHandle>,
    client: Option<ServeClient>,
    inputs: Vec<Input>,
    next_session: u64,
}

fn daemon() -> Result<(ServerHandle, ServeClient), String> {
    let server = server::spawn(
        "127.0.0.1:0",
        ServerConfig {
            workers: 1,
            idle_timeout: Duration::from_secs(60),
            ..ServerConfig::default()
        },
    )
    .map_err(|e| format!("cannot bind loopback: {e}"))?;
    match ServeClient::connect(server.addr()) {
        Ok(client) => Ok((server, client)),
        Err(e) => {
            server.shutdown();
            Err(e.to_string())
        }
    }
}

impl Serve {
    pub fn new(seed: u64) -> Self {
        Serve {
            seed,
            server: None,
            client: None,
            inputs: Vec::new(),
            next_session: 0,
        }
    }

    /// Streams input `i` under model `m` and returns the wire report.
    fn session(&mut self, i: usize, m: usize, t: &mut Tracer) -> Result<WireReport, String> {
        let client = self.client.as_ref().ok_or("no daemon")?;
        let input = &self.inputs[i];
        self.next_session += 1;
        let span = t.open("serve.open", SCHEMES[m]);
        let handle = client.open(Hello {
            session: self.next_session,
            seed: input.seed,
            model: MODELS[m].to_string(),
            protection: "auto".to_string(),
            workload: input.name.to_string(),
            warmup_branches: 0,
            interval: 0,
            threads: 0,
        });
        t.close(span, 1, 0);
        let mut handle = handle.map_err(|e| e.to_string())?;
        let span = t.open("serve.send", SCHEMES[m]);
        for chunk in &input.chunks {
            handle.send_chunk(chunk).map_err(|e| e.to_string())?;
        }
        t.close(span, input.branches, input.wire_bytes);
        let span = t.open("serve.report_wait", SCHEMES[m]);
        let finished = handle.finish();
        t.close(span, 1, 0);
        let (report, _) = finished.map_err(|e| e.to_string())?;
        Ok(report)
    }
}

impl Workload for Serve {
    fn name(&self) -> &'static str {
        "serve-sessions"
    }

    fn setup_pieces(&self) -> usize {
        1 + POOL.len()
    }

    /// Piece 0 starts the daemon and connects the client; piece `i + 1`
    /// generates input `i` and encodes its wire chunks.
    fn setup_piece(&mut self, rep: usize, piece: usize, t: &mut Tracer) -> Result<(), String> {
        if piece == 0 {
            let span = t.open("serve.spawn", "");
            let started = daemon();
            t.close(span, 1, 0);
            let (server, client) = started?;
            if rep == 0 {
                self.server = Some(server);
                self.client = Some(client);
            } else {
                drop(client);
                server.shutdown();
            }
            return Ok(());
        }
        let (name, branches) = POOL[piece - 1];
        let seed = mix(self.seed, piece as u64);
        let profile = profiles::by_name(name).ok_or_else(|| format!("unknown profile {name}"))?;
        let span = t.open("serve.encode", "");
        let mut source = TraceGenerator::new(profile, seed).into_source(branches);
        let mut events = Vec::new();
        let mut buf = Vec::new();
        while source
            .next_batch(&mut buf, 4_096)
            .map_err(|e| e.to_string())?
            > 0
        {
            events.extend_from_slice(&buf);
        }
        let mut enc = ChunkEncoder::new(CHUNK_BYTES);
        let mut chunks = Vec::new();
        for ev in &events {
            if let Some(chunk) = enc.push(ev).map_err(|e| e.to_string())? {
                chunks.push(chunk);
            }
        }
        let tail = enc.flush();
        if !tail.is_empty() {
            chunks.push(tail);
        }
        let wire_bytes = chunks.iter().map(|c| c.len() as u64).sum();
        t.close(span, branches as u64, wire_bytes);
        if rep == 0 {
            self.inputs.push(Input {
                name,
                seed,
                events,
                branches: branches as u64,
                chunks,
                wire_bytes,
                refs: Vec::new(),
            });
        }
        Ok(())
    }

    fn references(&mut self) -> Result<(), String> {
        let registry = ModelRegistry::standard();
        for input in &mut self.inputs {
            input.refs = MODELS
                .iter()
                .map(|m| {
                    let model = registry.build(m, input.seed).map_err(|e| e.to_string())?;
                    let mut sim = OwnedSession::new(
                        model,
                        auto_protection(m),
                        SessionOptions {
                            warmup: Warmup::Branches(0),
                            threads: None,
                            interval: None,
                            workload: Some(input.name.to_string()),
                        },
                    )
                    .map_err(|e| e.to_string())?;
                    sim.feed_batch(&input.events).map_err(|e| e.to_string())?;
                    Ok(sim.finish())
                })
                .collect::<Result<_, String>>()?;
        }
        Ok(())
    }

    fn round(&mut self, round: usize, t: &mut Tracer, ledger: &mut Ledger) {
        for i in 0..self.inputs.len() {
            for k in 0..MODELS.len() {
                let m = (k + round) % MODELS.len();
                t.next_session();
                let span = t.open("session", SCHEMES[m]);
                let start = Instant::now();
                let streamed = self.session(i, m, t);
                let secs = start.elapsed().as_secs_f64();
                let input = &self.inputs[i];
                t.close(span, input.branches, input.wire_bytes);
                match streamed {
                    Ok(report) => {
                        ledger.record(secs, input.branches, check_parity(&report, &input.refs[m]))
                    }
                    Err(e) => ledger.record_error(&e),
                }
            }
        }
    }

    fn probe(&mut self, _t: &mut Tracer, readings: &mut Readings) -> Result<(), String> {
        let (bytes, branches) = self
            .inputs
            .iter()
            .fold((0, 0), |(b, n), i| (b + i.wire_bytes, n + i.branches));
        readings.insert(
            "serve.wire_bytes_per_branch".into(),
            bytes as f64 / branches as f64,
        );
        Ok(())
    }
}

impl Drop for Serve {
    fn drop(&mut self) {
        self.client.take();
        if let Some(server) = self.server.take() {
            server.shutdown();
        }
    }
}
