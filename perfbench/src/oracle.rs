//! The correctness oracle and the session ledger.
//!
//! Every timed session has a reference report, computed before the timed
//! phase: a repository fixture where one exists (`ci/baseline.json`,
//! `ci/golden-cbp-oae.json`), otherwise the same input driven through a
//! different offline path. A session counts as failed when it errors or
//! when its report differs from the reference in any bit.

use stbpu_sim::SimReport;

/// Field-by-field bit comparison of two reports (`f64::to_bits` on every
/// rate, exact equality on counters and labels).
pub fn compare(got: &SimReport, want: &SimReport) -> Result<(), String> {
    let mut diffs = Vec::new();
    let rates = [
        ("oae", got.oae, want.oae),
        ("direction_rate", got.direction_rate, want.direction_rate),
        ("target_rate", got.target_rate, want.target_rate),
    ];
    for (name, g, w) in rates {
        if g.to_bits() != w.to_bits() {
            diffs.push(format!("{name} {g} != {w}"));
        }
    }
    let counts = [
        ("branches", got.branches, want.branches),
        ("mispredictions", got.mispredictions, want.mispredictions),
        ("evictions", got.evictions, want.evictions),
        ("flushes", got.flushes, want.flushes),
        (
            "rerandomizations",
            got.rerandomizations,
            want.rerandomizations,
        ),
    ];
    for (name, g, w) in counts {
        if g != w {
            diffs.push(format!("{name} {g} != {w}"));
        }
    }
    if got.model != want.model || got.protection != want.protection || got.workload != want.workload
    {
        diffs.push(format!(
            "labels {}/{}/{} != {}/{}/{}",
            got.model, got.protection, got.workload, want.model, want.protection, want.workload
        ));
    }
    if diffs.is_empty() {
        Ok(())
    } else {
        Err(diffs.join(", "))
    }
}

/// Attempted and failed sessions plus the timing of every session.
#[derive(Default)]
pub struct Ledger {
    pub attempted: u64,
    pub failed: u64,
    /// Stream branches of every session that produced a report.
    pub branches: u64,
    /// Wall seconds spent inside sessions.
    pub busy_s: f64,
    pub session_ms: Vec<f64>,
    errors_logged: usize,
}

impl Ledger {
    /// Records one session that ran for `secs` over `branches` branches;
    /// `verdict` is its oracle result.
    pub fn record(&mut self, secs: f64, branches: u64, verdict: Result<(), String>) {
        self.attempted += 1;
        self.busy_s += secs;
        self.branches += branches;
        self.session_ms.push(secs * 1e3);
        if let Err(e) = verdict {
            self.fail(&e);
        }
    }

    /// Records a session that errored before producing a report.
    pub fn record_error(&mut self, e: &str) {
        self.attempted += 1;
        self.fail(e);
    }

    fn fail(&mut self, e: &str) {
        self.failed += 1;
        if self.errors_logged < 5 {
            self.errors_logged += 1;
            eprintln!("perfbench: failed session: {e}");
        }
    }

    pub fn merge(&mut self, other: &Ledger) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.branches += other.branches;
        self.busy_s += other.busy_s;
        self.session_ms.extend_from_slice(&other.session_ms);
    }

    pub fn branches_per_s(&self) -> f64 {
        self.branches as f64 / self.busy_s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stbpu_engine::ModelRegistry;
    use stbpu_sim::{OwnedSession, Protection, SessionOptions, Warmup};
    use stbpu_trace::{profiles, TraceGenerator};

    fn real_report() -> SimReport {
        let model = ModelRegistry::standard().build("st_skl@r=0.05", 3).unwrap();
        let mut session = OwnedSession::new(
            model,
            Protection::Stbpu,
            SessionOptions {
                warmup: Warmup::Branches(0),
                ..SessionOptions::default()
            },
        )
        .unwrap();
        let profile = profiles::by_name("541.leela").unwrap();
        session
            .run(&mut TraceGenerator::new(profile, 3).into_source(4_000))
            .unwrap();
        session.finish()
    }

    #[test]
    fn identical_report_passes() {
        let r = real_report();
        let mut ledger = Ledger::default();
        ledger.record(0.01, r.branches, compare(&r, &r.clone()));
        assert_eq!((ledger.attempted, ledger.failed), (1, 0));
    }

    #[test]
    fn altered_reference_counts_as_failed_session() {
        let got = real_report();
        let alterations: [fn(&mut SimReport); 4] = [
            |r| r.oae = f64::from_bits(r.oae.to_bits() + 1),
            |r| r.mispredictions += 1,
            |r| r.rerandomizations += 1,
            |r| r.workload.push('x'),
        ];
        let mut ledger = Ledger::default();
        for alter in &alterations {
            let mut reference = got.clone();
            alter(&mut reference);
            ledger.record(0.01, got.branches, compare(&got, &reference));
        }
        assert_eq!(ledger.attempted, alterations.len() as u64);
        assert_eq!(ledger.failed, alterations.len() as u64);
    }

    #[test]
    fn errored_session_counts_as_failed() {
        let mut ledger = Ledger::default();
        ledger.record_error("boom");
        assert_eq!(
            (ledger.attempted, ledger.failed, ledger.branches),
            (1, 1, 0)
        );
    }
}
