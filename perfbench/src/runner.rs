//! The run loop shared by every workload.
//!
//! A run sets up once (repetition 0, whose products are the inputs),
//! computes every session's reference outside all timing, then runs
//! rounds of sessions until `--seconds` have passed and at least
//! [`MIN_SESSIONS`] sessions have run. Set-up is repeated
//! [`SETUP_REPS`]` - 1` more times, piece by piece between rounds, so each
//! repetition spans the whole run; `setup_s` is the median repetition.
//! The host this runs on alternates between speeds for seconds at a time,
//! and a set-up timed in one piece falls wholly into one of them.

use crate::oracle::Ledger;
use crate::tracer::Tracer;
use std::collections::BTreeMap;
use std::time::Instant;

/// Set-up repetitions per run, the first included.
pub const SETUP_REPS: usize = 7;

/// Fewest sessions a run may end with: p90 then has ten samples beyond it.
pub const MIN_SESSIONS: u64 = 100;

/// Seconds of rounds in a traced run's pass over each workload it does
/// not time.
const SIDE_SECONDS: f64 = 3.0;

/// Which parts of a run are traced.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Tracing {
    /// Nothing.
    Off,
    /// Set-up and odd rounds, so tracing overhead is measured under the
    /// same host phases as the untraced even rounds.
    Alternate,
    /// Everything.
    On,
}

/// Per-layer readings a workload reports from its probes (OAE, counters,
/// codec sizes, remap circuit timings), by metric name.
pub type Readings = BTreeMap<String, f64>;

pub trait Workload {
    /// The workload's name, as `--workload` spells it.
    fn name(&self) -> &'static str;

    /// Number of pieces one set-up repetition is split into.
    fn setup_pieces(&self) -> usize;

    /// Runs piece `piece` of set-up repetition `rep`. Repetition 0 keeps
    /// what it builds as the run's inputs; later repetitions discard
    /// theirs after their last piece.
    fn setup_piece(&mut self, rep: usize, piece: usize, t: &mut Tracer) -> Result<(), String>;

    /// Computes the reference report of every session (untimed).
    fn references(&mut self) -> Result<(), String>;

    /// Runs every session once; `round` rotates the scheme order.
    fn round(&mut self, round: usize, t: &mut Tracer, ledger: &mut Ledger);

    /// Layer measurements that are not sessions (traced runs only).
    fn probe(&mut self, t: &mut Tracer, readings: &mut Readings) -> Result<(), String>;
}

pub struct Timed {
    pub setup_reps_s: Vec<f64>,
    /// Sessions of untraced rounds.
    pub plain: Ledger,
    /// Sessions of traced rounds (alternating runs only).
    pub traced: Ledger,
    pub rounds: usize,
    /// Wall seconds of each round, a diagnostic.
    pub round_s: Vec<f64>,
}

fn setup_piece(
    w: &mut dyn Workload,
    rep: usize,
    piece: usize,
    t: &mut Tracer,
) -> Result<f64, String> {
    let span = t.open("bench.setup", w.name());
    let start = Instant::now();
    let res = w.setup_piece(rep, piece, t);
    let secs = start.elapsed().as_secs_f64();
    t.close(span, rep as u64, 0);
    res.map(|()| secs)
}

/// The timed run: rounds until `seconds` have passed and at least
/// `min_sessions` sessions have run.
pub fn run_timed(
    w: &mut dyn Workload,
    seconds: f64,
    min_sessions: u64,
    tracing: Tracing,
    t: &mut Tracer,
) -> Result<Timed, String> {
    let pieces = w.setup_pieces();
    let mut reps = vec![0.0; SETUP_REPS];
    let setup_traced = tracing != Tracing::Off;
    t.set_workload(w.name());
    t.set_enabled(setup_traced);
    for p in 0..pieces {
        reps[0] += setup_piece(w, 0, p, t)?;
    }
    w.references()?;

    // Piece-major order: every repetition advances through its pieces
    // across the whole run.
    let spread: Vec<(usize, usize)> = (0..pieces)
        .flat_map(|p| (1..SETUP_REPS).map(move |r| (r, p)))
        .collect();
    let mut next = 0;
    let mut timed = Timed {
        setup_reps_s: Vec::new(),
        plain: Ledger::default(),
        traced: Ledger::default(),
        rounds: 0,
        round_s: Vec::new(),
    };
    let start = Instant::now();
    loop {
        let sessions = timed.plain.attempted + timed.traced.attempted;
        if start.elapsed().as_secs_f64() >= seconds && sessions >= min_sessions {
            break;
        }
        let traced = match tracing {
            Tracing::Off => false,
            Tracing::Alternate => timed.rounds % 2 == 1,
            Tracing::On => true,
        };
        t.set_enabled(traced);
        let ledger = if traced {
            &mut timed.traced
        } else {
            &mut timed.plain
        };
        let round_start = Instant::now();
        w.round(timed.rounds, t, ledger);
        timed.round_s.push(round_start.elapsed().as_secs_f64());
        timed.rounds += 1;
        t.set_enabled(setup_traced);
        let done = start.elapsed().as_secs_f64() / seconds;
        while next < spread.len() && (next + 1) as f64 / (spread.len() + 1) as f64 <= done {
            let (r, p) = spread[next];
            reps[r] += setup_piece(w, r, p, t)?;
            next += 1;
        }
    }
    for &(r, p) in &spread[next..] {
        reps[r] += setup_piece(w, r, p, t)?;
    }
    timed.setup_reps_s = reps;
    Ok(timed)
}

/// A short traced pass over a workload the run does not time, so a traced
/// run reports every layer: every set-up repetition, references, and
/// rounds for [`SIDE_SECONDS`].
pub fn run_side(w: &mut dyn Workload, t: &mut Tracer) -> Result<Ledger, String> {
    Ok(run_timed(w, SIDE_SECONDS, 1, Tracing::On, t)?.traced)
}
