//! The declarative scenario/experiment API: declare a
//! `workloads × scenarios × seeds` grid, run it in parallel, get a
//! structured [`RunSet`] back.
//!
//! Grid cells are simulated through streaming [`stbpu_sim::SimSession`]s
//! over [`Workload`]-opened event sources. Small generator-backed suites
//! materialize their stream once per (workload, seed) and replay views of
//! it; everything else — large runs, trace files, custom sources — streams
//! per cell, so memory never bounds branch count. An optional interval
//! configuration attaches an [`IntervalRecorder`] so every [`RunRecord`]
//! can carry an OAE-over-time series.

use crate::error::EngineError;
use crate::parallel::parallel_map;
use crate::registry::ModelRegistry;
use crate::report::{csv_header, protection_from_str, report_to_csv_row, report_to_json};
use crate::resume::{cell_path, run_cell, suite_from_json_line, suite_to_json_line};
use crate::slice::resolve_threads;
use crate::stats::{geomean, mean};
use crate::workload::Workload;
use stbpu_bpu::snap::{fnv1a64, write_atomic};
use stbpu_sim::{
    simulate_with, IntervalRecorder, IntervalWindow, Protection, SessionOptions, SimOptions,
    SimReport, SimSession, Warmup,
};
use stbpu_trace::{EventSource, Trace, WorkloadProfile};
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Arc};

/// Suites over generator-backed workloads materialize their stream once
/// (instead of regenerating it per scenario) up to this many branches;
/// larger runs stream every cell in O(1) memory.
const MATERIALIZE_SUITE_CAP: usize = 1_000_000;

/// One (model, protection) cell of an experiment — the unit the old
/// `fig3_schemes()` tuples and every per-binary model loop collapsed into.
#[derive(Clone, Debug)]
pub struct Scenario {
    /// Registry model spec (`"skl"`, `"st_skl@r=0.05"`, …).
    pub model: String,
    /// Protection policy the simulator enforces around the model.
    pub protection: Protection,
}

impl Scenario {
    /// A scenario from a model spec string and a [`Protection`].
    pub fn new(model: &str, protection: Protection) -> Self {
        Scenario {
            model: model.to_string(),
            protection,
        }
    }

    /// A scenario from `"model:protection"` (e.g. `"st_skl@r=0.01:stbpu"`).
    pub fn parse(s: &str) -> Result<Self, EngineError> {
        let (model, protection) = s
            .rsplit_once(':')
            .ok_or_else(|| EngineError::InvalidScenario(s.to_string()))?;
        Ok(Scenario::new(
            model.trim(),
            protection_from_str(protection)?,
        ))
    }

    /// The five Figure 3 schemes, in legend order.
    pub fn fig3() -> Vec<Scenario> {
        vec![
            Scenario::new("skl", Protection::Unprotected),
            Scenario::new("st_skl@r=0.05", Protection::Stbpu),
            Scenario::new("skl", Protection::Ucode1),
            Scenario::new("skl", Protection::Ucode2),
            Scenario::new("conservative", Protection::Conservative),
        ]
    }
}

/// Runs every scenario over one already-materialized trace, in order.
/// `seed` keys the models; the caller owns trace generation.
pub fn run_scenarios(
    registry: &ModelRegistry,
    trace: &Trace,
    scenarios: &[Scenario],
    seed: u64,
    warmup_frac: f64,
) -> Result<Vec<SimReport>, EngineError> {
    let opts = SimOptions {
        warmup_frac,
        threads: Some(trace.thread_count().max(1)),
    };
    scenarios
        .iter()
        .map(|sc| {
            let mut model = registry.build(&sc.model, seed)?;
            Ok(simulate_with(&mut model, sc.protection, trace, &opts)?)
        })
        .collect()
}

/// One completed cell of an experiment grid.
#[derive(Clone, Debug)]
pub struct RunRecord {
    /// Workload label (profile name, trace name, file path…).
    pub workload: String,
    /// Model spec string the cell was built from.
    pub model_spec: String,
    /// Seed that keyed trace generation and the model.
    pub seed: u64,
    /// The simulation result.
    pub report: SimReport,
    /// OAE-over-time windows (empty unless [`Experiment::interval`] was
    /// configured).
    pub intervals: Vec<IntervalWindow>,
}

/// Results of an [`Experiment`] run, in grid order:
/// workloads (outer) × seeds × scenarios (inner).
#[derive(Clone, Debug)]
pub struct RunSet {
    records: Vec<RunRecord>,
    scenarios_per_suite: usize,
}

impl RunSet {
    /// All records, grid-ordered.
    pub fn records(&self) -> &[RunRecord] {
        &self.records
    }

    /// Iterates (workload, seed)-suites: each yielded slice holds one
    /// record per scenario, in scenario order.
    pub fn suites(&self) -> impl Iterator<Item = &[RunRecord]> {
        self.records.chunks(self.scenarios_per_suite)
    }

    /// Reports of suite `i`, in scenario order (legend order for Figure 3
    /// presets).
    ///
    /// # Panics
    ///
    /// Panics if `i >= suite_count()`.
    pub fn suite_reports(&self, i: usize) -> Vec<&SimReport> {
        assert!(
            i < self.suite_count(),
            "suite index {i} out of range (suite_count = {})",
            self.suite_count()
        );
        self.records[i * self.scenarios_per_suite..(i + 1) * self.scenarios_per_suite]
            .iter()
            .map(|r| &r.report)
            .collect()
    }

    /// Number of (workload, seed)-suites.
    pub fn suite_count(&self) -> usize {
        self.records
            .len()
            .checked_div(self.scenarios_per_suite)
            .unwrap_or(0)
    }

    /// Per-suite OAE of each scenario normalized by scenario 0's OAE —
    /// the Figure 3 presentation (rows = suites, columns = scenarios 1..).
    pub fn oae_normalized_to_first(&self) -> Vec<Vec<f64>> {
        self.suites()
            .map(|suite| {
                let base = suite[0].report.oae.max(1e-9);
                suite[1..].iter().map(|r| r.report.oae / base).collect()
            })
            .collect()
    }

    /// Mean OAE per scenario column across all suites.
    pub fn mean_oae_by_scenario(&self) -> Vec<f64> {
        self.column_summary(mean)
    }

    /// Geometric-mean OAE per scenario column across all suites.
    pub fn geomean_oae_by_scenario(&self) -> Vec<f64> {
        self.column_summary(geomean)
    }

    fn column_summary(&self, f: fn(&[f64]) -> f64) -> Vec<f64> {
        (0..self.scenarios_per_suite)
            .map(|col| {
                let column: Vec<f64> = self.suites().map(|suite| suite[col].report.oae).collect();
                f(&column)
            })
            .collect()
    }

    /// The whole set as CSV (header + one row per record).
    pub fn to_csv(&self) -> String {
        let mut out = String::from(csv_header());
        out.push('\n');
        for r in &self.records {
            out.push_str(&report_to_csv_row(&r.report, r.seed));
            out.push('\n');
        }
        out
    }

    /// The whole set as a JSON array of report objects.
    pub fn to_json(&self) -> String {
        let rows: Vec<String> = self
            .records
            .iter()
            .map(|r| report_to_json(&r.report, r.seed))
            .collect();
        format!("[{}]", rows.join(","))
    }
}

/// Builder for a grid of simulations: `workloads × scenarios × seeds`,
/// run in parallel over all cores via streaming sessions.
///
/// ```
/// use stbpu_engine::{Experiment, Scenario};
/// use stbpu_sim::Protection;
///
/// let set = Experiment::new("demo")
///     .workloads(["541.leela", "505.mcf"])
///     .scenario(Scenario::new("skl", Protection::Unprotected))
///     .scenario(Scenario::new("tage64", Protection::Unprotected))
///     .branches(3_000)
///     .seeds([1, 2])
///     .run()
///     .unwrap();
/// assert_eq!(set.records().len(), 2 * 2 * 2);
/// assert_eq!(set.suite_count(), 4);
/// ```
pub struct Experiment {
    name: String,
    registry: ModelRegistry,
    workloads: Vec<Workload>,
    scenarios: Vec<Scenario>,
    seeds: Vec<u64>,
    branches: usize,
    warmup: Warmup,
    threads: Option<usize>,
    interval: Option<u64>,
    checkpoint_dir: Option<PathBuf>,
    checkpoint_every: u64,
}

impl Experiment {
    /// A named experiment with defaults: no workloads/scenarios yet,
    /// seed 42, 20 000 branches, 10 % warm-up, threads derived per source,
    /// no interval series, the standard registry.
    pub fn new(name: &str) -> Self {
        Experiment {
            name: name.to_string(),
            registry: ModelRegistry::standard(),
            workloads: Vec::new(),
            scenarios: Vec::new(),
            seeds: vec![42],
            branches: 20_000,
            warmup: Warmup::Fraction(0.1),
            threads: None,
            interval: None,
            checkpoint_dir: None,
            checkpoint_every: 1_000_000,
        }
    }

    /// The experiment name (used in logs and output labels).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Replaces the model registry (to use custom-registered models).
    pub fn registry(mut self, registry: ModelRegistry) -> Self {
        self.registry = registry;
        self
    }

    /// Adds one workload of any kind.
    pub fn add_workload(mut self, workload: Workload) -> Self {
        self.workloads.push(workload);
        self
    }

    /// Adds one named workload profile.
    pub fn workload(self, name: &str) -> Self {
        self.add_workload(Workload::Named(name.to_string()))
    }

    /// Adds several named workload profiles.
    pub fn workloads<I, S>(mut self, names: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: AsRef<str>,
    {
        for n in names {
            self.workloads.push(Workload::Named(n.as_ref().to_string()));
        }
        self
    }

    /// Adds a custom (non-registered) workload profile.
    pub fn profile(self, profile: WorkloadProfile) -> Self {
        self.add_workload(Workload::Profile(profile))
    }

    /// Adds an already-materialized trace; workers stream views of it
    /// without cloning the event vector.
    pub fn trace(self, trace: impl Into<Arc<Trace>>) -> Self {
        self.add_workload(Workload::Trace(trace.into()))
    }

    /// Adds a line-format trace file, streamed from disk.
    pub fn trace_file(self, path: impl Into<std::path::PathBuf>) -> Self {
        self.add_workload(Workload::File(path.into()))
    }

    /// Adds a custom source-factory workload.
    pub fn source<F>(self, name: &str, factory: F) -> Self
    where
        F: Fn(u64, usize) -> Box<dyn EventSource + Send> + Send + Sync + 'static,
    {
        self.add_workload(Workload::custom(name, factory))
    }

    /// Adds one scenario cell.
    pub fn scenario(mut self, scenario: Scenario) -> Self {
        self.scenarios.push(scenario);
        self
    }

    /// Adds several scenario cells (e.g. [`Scenario::fig3`]).
    pub fn scenarios<I: IntoIterator<Item = Scenario>>(mut self, scenarios: I) -> Self {
        self.scenarios.extend(scenarios);
        self
    }

    /// Cross-product convenience: every model spec under one protection.
    pub fn models_under<I, S>(mut self, protection: Protection, specs: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: AsRef<str>,
    {
        for s in specs {
            self.scenarios.push(Scenario::new(s.as_ref(), protection));
        }
        self
    }

    /// Sets a single seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seeds = vec![seed];
        self
    }

    /// Sets multiple seeds (each (workload, seed) pair is one suite).
    pub fn seeds<I: IntoIterator<Item = u64>>(mut self, seeds: I) -> Self {
        self.seeds = seeds.into_iter().collect();
        self
    }

    /// Branches generated per workload stream (generator-backed workloads
    /// only; traces and files replay their stored stream).
    pub fn branches(mut self, branches: usize) -> Self {
        self.branches = branches;
        self
    }

    /// Warm-up fraction (statistics reset after this share of branches).
    /// Needs streams that declare a branch count — generator-backed
    /// workloads always do; for hint-less trace files or custom sources
    /// use [`Experiment::warmup_branches`].
    pub fn warmup(mut self, warmup_frac: f64) -> Self {
        self.warmup = Warmup::Fraction(warmup_frac);
        self
    }

    /// Absolute warm-up budget in branch events — works for any stream,
    /// including hint-less trace files and custom sources.
    pub fn warmup_branches(mut self, branches: u64) -> Self {
        self.warmup = Warmup::Branches(branches);
        self
    }

    /// Explicit hardware-thread provision, validated against every stream
    /// (default: taken from each source's declared thread count).
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = Some(threads);
        self
    }

    /// Closes an OAE-over-time window every `branches` branch events;
    /// every [`RunRecord`] then carries the window series.
    pub fn interval(mut self, branches: u64) -> Self {
        self.interval = Some(branches);
        self
    }

    /// Makes the run killable: completed suites stream into
    /// `completed.jsonl` under `dir` and in-flight cells persist periodic
    /// `.stck` checkpoints there, so rerunning the identical experiment
    /// after a crash (or SIGKILL) resumes instead of restarting and
    /// produces byte-identical output. The directory is created on
    /// demand; reusing it for a *different* experiment is rejected via a
    /// manifest fingerprint.
    pub fn checkpoint_dir(mut self, dir: impl Into<PathBuf>) -> Self {
        self.checkpoint_dir = Some(dir.into());
        self
    }

    /// How often (in branch events per cell) in-flight cell checkpoints
    /// are refreshed when [`Experiment::checkpoint_dir`] is set. Default:
    /// 1 000 000.
    pub fn checkpoint_every(mut self, branches: u64) -> Self {
        self.checkpoint_every = branches.max(1);
        self
    }

    /// Runs the whole grid in parallel and collects a [`RunSet`].
    ///
    /// Each (workload, seed, scenario) cell runs a [`SimSession`] over a
    /// streaming source; generator-backed suites up to 1M branches
    /// generate once and replay views,
    /// larger ones stream each cell in O(1) memory. Suites are distributed
    /// over all cores. Workload names, file paths, model specs and
    /// protections are validated before any simulation starts.
    pub fn run(self) -> Result<RunSet, EngineError> {
        if self.workloads.is_empty() {
            return Err(EngineError::EmptyGrid("workloads"));
        }
        if self.scenarios.is_empty() {
            return Err(EngineError::EmptyGrid("scenarios"));
        }
        if self.seeds.is_empty() {
            return Err(EngineError::EmptyGrid("seeds"));
        }
        // Validate the grid up front: fail fast on the first bad name
        // instead of deep inside a worker thread.
        for w in &self.workloads {
            w.validate()?;
        }
        let mut checked = std::collections::BTreeSet::new();
        for sc in &self.scenarios {
            if checked.insert(sc.model.as_str()) {
                self.registry.build(&sc.model, 0)?;
            }
        }

        let scenarios_per_suite = self.scenarios.len();
        let jobs: Vec<(Workload, u64)> = self
            .workloads
            .iter()
            .flat_map(|w| self.seeds.iter().map(move |&s| (w.clone(), s)))
            .collect();

        if let Some(dir) = self.checkpoint_dir.clone() {
            return self.run_checkpointed(&dir, &jobs, scenarios_per_suite);
        }

        let suites: Vec<Result<Vec<RunRecord>, EngineError>> =
            parallel_map(jobs, |(workload, seed)| {
                // Generator-backed workloads would regenerate an identical
                // stream for every scenario; when the suite fits in memory,
                // materialize once and let each scenario replay a view —
                // bit-identical events (generate() and into_source() share
                // the stepping machinery) at one generation cost. Above
                // the cap, stream per cell so memory stays O(1).
                let shared: Option<Trace> =
                    if matches!(workload, Workload::Named(_) | Workload::Profile(_))
                        && self.scenarios.len() > 1
                        && self.branches <= MATERIALIZE_SUITE_CAP
                    {
                        let mut src = workload.open(*seed, self.branches)?;
                        Some(
                            src.collect_trace()
                                .map_err(|e| EngineError::Sim(e.into()))?,
                        )
                    } else {
                        None
                    };
                self.scenarios
                    .iter()
                    .map(|sc| {
                        let mut source: Box<dyn EventSource + '_> = match &shared {
                            Some(t) => Box::new(t.source()),
                            None => workload.open(*seed, self.branches)?,
                        };
                        let mut model = self.registry.build(&sc.model, *seed)?;
                        let threads = resolve_threads(self.threads, source.thread_count());
                        // `&mut ModelCore` (not `&mut dyn Bpu`): the
                        // session monomorphizes over the sealed enum.
                        let mut session = SimSession::new(
                            &mut model,
                            sc.protection,
                            SessionOptions {
                                warmup: self.warmup,
                                threads,
                                interval: self.interval,
                                workload: None, // take the source's name
                            },
                        )
                        .map_err(EngineError::from)?;
                        let mut recorder = IntervalRecorder::new();
                        if self.interval.is_some() {
                            session.attach(&mut recorder);
                        }
                        session.run(source.as_mut()).map_err(EngineError::from)?;
                        let report = session.finish();
                        Ok(RunRecord {
                            workload: workload.label(),
                            model_spec: sc.model.clone(),
                            seed: *seed,
                            report,
                            intervals: recorder.into_windows(),
                        })
                    })
                    .collect()
            });

        let mut records = Vec::with_capacity(suites.len() * scenarios_per_suite);
        for suite in suites {
            records.extend(suite?);
        }
        Ok(RunSet {
            records,
            scenarios_per_suite,
        })
    }

    /// Everything that changes the grid's results, as one canonical
    /// string — the manifest fingerprint that stops two different
    /// experiments from sharing (and corrupting) one checkpoint
    /// directory. `checkpoint_every` is deliberately excluded: it only
    /// changes how often state is saved, never what is computed.
    fn grid_fingerprint(&self) -> String {
        let workloads: Vec<String> = self.workloads.iter().map(|w| w.label()).collect();
        let scenarios: Vec<String> = self
            .scenarios
            .iter()
            .map(|sc| format!("{}:{}", sc.model, sc.protection.code()))
            .collect();
        let seeds: Vec<String> = self.seeds.iter().map(|s| s.to_string()).collect();
        let warm = match self.warmup {
            Warmup::Fraction(f) => format!("f{:016x}", f.to_bits()),
            Warmup::Branches(n) => format!("b{n}"),
        };
        format!(
            "v1|{}|{}|{}|{}|{}|{}|{}",
            workloads.join(";"),
            scenarios.join(";"),
            seeds.join(";"),
            self.branches,
            warm,
            self.interval
                .map(|n| n.to_string())
                .unwrap_or_else(|| "none".to_string()),
            self.threads
                .map(|n| n.to_string())
                .unwrap_or_else(|| "auto".to_string()),
        )
    }

    /// The killable grid path: suites stream to `completed.jsonl` as they
    /// finish, in-flight cells checkpoint periodically, and a rerun of
    /// the identical experiment picks up where the dead process stopped.
    fn run_checkpointed(
        &self,
        dir: &Path,
        jobs: &[(Workload, u64)],
        scenarios_per_suite: usize,
    ) -> Result<RunSet, EngineError> {
        let io_err = |e: std::io::Error| EngineError::Checkpoint(e.to_string());
        std::fs::create_dir_all(dir).map_err(io_err)?;
        let key = format!("{:016x}", fnv1a64(self.grid_fingerprint().as_bytes()));

        // Manifest: create on first run, verify on resume.
        let manifest = dir.join("manifest.json");
        match std::fs::read_to_string(&manifest) {
            Ok(text) => {
                let stored = crate::minijson::Json::parse(&text)
                    .ok()
                    .and_then(|j| j.get("key").and_then(|k| k.as_str().map(String::from)));
                if stored.as_deref() != Some(key.as_str()) {
                    return Err(EngineError::Checkpoint(format!(
                        "checkpoint directory {} belongs to a different experiment \
                         (manifest fingerprint mismatch) — point --checkpoint-dir at a \
                         fresh directory or rerun the original command",
                        dir.display()
                    )));
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                let body = format!(
                    "{{\"version\":\"1\",\"name\":{},\"key\":\"{key}\",\"suites\":\"{}\"}}\n",
                    crate::minijson::escape(&self.name),
                    jobs.len()
                );
                write_atomic(&manifest, body.as_bytes()).map_err(io_err)?;
            }
            Err(e) => return Err(io_err(e)),
        }

        // Replay the completed-suite log (ignoring any partial trailing
        // line a kill left behind), then clear now-stale cell files.
        let log_path = dir.join("completed.jsonl");
        let mut results: Vec<Option<Vec<RunRecord>>> = Vec::with_capacity(jobs.len());
        results.resize_with(jobs.len(), || None);
        if let Ok(text) = std::fs::read_to_string(&log_path) {
            for line in text.lines() {
                if let Some((i, recs)) = suite_from_json_line(line) {
                    if i < jobs.len() && recs.len() == scenarios_per_suite {
                        for sidx in 0..scenarios_per_suite {
                            let _ = std::fs::remove_file(cell_path(dir, i, sidx));
                        }
                        results[i] = Some(recs);
                    }
                }
            }
        }
        let todo: Vec<usize> = (0..jobs.len()).filter(|&i| results[i].is_none()).collect();

        if !todo.is_empty() {
            let mut log = std::fs::OpenOptions::new()
                .create(true)
                .append(true)
                .open(&log_path)
                .map_err(io_err)?;
            let next = AtomicUsize::new(0);
            let (tx, rx) = mpsc::channel::<(usize, Result<Vec<RunRecord>, EngineError>)>();
            let mut first_err: Option<EngineError> = None;
            std::thread::scope(|s| {
                let workers = std::thread::available_parallelism()
                    .map(|p| p.get())
                    .unwrap_or(4)
                    .min(todo.len());
                for _ in 0..workers {
                    let tx = tx.clone();
                    let (next, todo) = (&next, todo.as_slice());
                    s.spawn(move || loop {
                        let t = next.fetch_add(1, Ordering::Relaxed);
                        if t >= todo.len() {
                            break;
                        }
                        let i = todo[t];
                        let (workload, seed) = &jobs[i];
                        let res = self.run_suite_checkpointed(dir, i, workload, *seed);
                        if tx.send((i, res)).is_err() {
                            break;
                        }
                    });
                }
                drop(tx);
                // Main thread is the only log writer: one durable line
                // per finished suite, then its cell files are obsolete.
                for (i, res) in rx {
                    match res {
                        Ok(recs) => {
                            let line = suite_to_json_line(i, &recs);
                            let write = writeln!(log, "{line}").and_then(|()| log.flush());
                            if let Err(e) = write {
                                first_err.get_or_insert(io_err(e));
                                continue;
                            }
                            for sidx in 0..scenarios_per_suite {
                                let _ = std::fs::remove_file(cell_path(dir, i, sidx));
                            }
                            results[i] = Some(recs);
                        }
                        Err(e) => {
                            first_err.get_or_insert(e);
                        }
                    }
                }
            });
            if let Some(e) = first_err {
                return Err(e);
            }
        }

        let mut records = Vec::with_capacity(jobs.len() * scenarios_per_suite);
        for r in results {
            records.extend(r.ok_or_else(|| {
                EngineError::Checkpoint("a suite finished without reporting".to_string())
            })?);
        }
        Ok(RunSet {
            records,
            scenarios_per_suite,
        })
    }

    /// One (workload, seed) suite under the checkpointed path: every cell
    /// streams (no shared materialization — cells must be individually
    /// resumable) and saves periodic in-flight checkpoints.
    fn run_suite_checkpointed(
        &self,
        dir: &Path,
        suite: usize,
        workload: &Workload,
        seed: u64,
    ) -> Result<Vec<RunRecord>, EngineError> {
        self.scenarios
            .iter()
            .enumerate()
            .map(|(sidx, sc)| {
                run_cell(
                    &self.registry,
                    sc,
                    workload,
                    seed,
                    self.branches,
                    self.warmup,
                    self.threads,
                    self.interval,
                    &cell_path(dir, suite, sidx),
                    self.checkpoint_every,
                )
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stbpu_trace::{profiles, TraceGenerator};

    #[test]
    fn fig3_preset_runs_in_legend_order() {
        let set = Experiment::new("fig3-unit")
            .workload("520.omnetpp")
            .scenarios(Scenario::fig3())
            .branches(3_000)
            .seed(3)
            .run()
            .unwrap();
        let labels: Vec<&str> = set.records().iter().map(|r| r.report.protection).collect();
        assert_eq!(
            labels,
            [
                "baseline",
                "STBPU",
                "ucode protection",
                "ucode protection2",
                "conservative"
            ]
        );
        assert_eq!(set.suite_count(), 1);
        assert_eq!(set.oae_normalized_to_first()[0].len(), 4);
    }

    #[test]
    fn grid_order_is_workload_seed_scenario() {
        let set = Experiment::new("grid")
            .workloads(["541.leela", "505.mcf"])
            .scenario(Scenario::new("skl", Protection::Unprotected))
            .branches(1_000)
            .seeds([1, 2])
            .run()
            .unwrap();
        let got: Vec<(String, u64)> = set
            .records()
            .iter()
            .map(|r| (r.workload.clone(), r.seed))
            .collect();
        assert_eq!(
            got,
            [
                ("541.leela".to_string(), 1),
                ("541.leela".to_string(), 2),
                ("505.mcf".to_string(), 1),
                ("505.mcf".to_string(), 2),
            ]
        );
    }

    #[test]
    fn empty_grids_rejected() {
        assert_eq!(
            Experiment::new("e")
                .scenario(Scenario::new("skl", Protection::Unprotected))
                .run()
                .unwrap_err(),
            EngineError::EmptyGrid("workloads")
        );
        assert_eq!(
            Experiment::new("e").workload("505.mcf").run().unwrap_err(),
            EngineError::EmptyGrid("scenarios")
        );
    }

    #[test]
    fn bad_names_fail_before_simulation() {
        let err = Experiment::new("e")
            .workload("not_a_workload")
            .scenarios(Scenario::fig3())
            .run()
            .unwrap_err();
        assert_eq!(
            err,
            EngineError::UnknownWorkload("not_a_workload".to_string())
        );

        let err = Experiment::new("e")
            .workload("505.mcf")
            .scenario(Scenario::new("warp_drive", Protection::Unprotected))
            .run()
            .unwrap_err();
        assert!(matches!(err, EngineError::UnknownModel { .. }));

        let err = Experiment::new("e")
            .trace_file("/does/not/exist.trace")
            .scenario(Scenario::new("skl", Protection::Unprotected))
            .run()
            .unwrap_err();
        assert!(matches!(err, EngineError::WorkloadSource(_)));
    }

    #[test]
    fn empty_seeds_rejected() {
        let err = Experiment::new("e")
            .workload("505.mcf")
            .scenario(Scenario::new("skl", Protection::Unprotected))
            .seeds(Vec::new())
            .run()
            .unwrap_err();
        assert_eq!(err, EngineError::EmptyGrid("seeds"));
    }

    #[test]
    #[should_panic(expected = "suite index 1 out of range")]
    fn suite_reports_bounds_checked() {
        let set = Experiment::new("b")
            .workload("505.mcf")
            .scenario(Scenario::new("skl", Protection::Unprotected))
            .branches(500)
            .run()
            .unwrap();
        let _ = set.suite_reports(1);
    }

    #[test]
    fn scenario_parse_round_trip() {
        let sc = Scenario::parse("st_skl@r=0.01:stbpu").unwrap();
        assert_eq!(sc.model, "st_skl@r=0.01");
        assert_eq!(sc.protection, Protection::Stbpu);
        assert_eq!(
            Scenario::parse("skl").unwrap_err(),
            EngineError::InvalidScenario("skl".to_string())
        );
        assert!(matches!(
            Scenario::parse("skl:warp").unwrap_err(),
            EngineError::UnknownProtection(_)
        ));
    }

    #[test]
    fn serialization_shapes() {
        let set = Experiment::new("ser")
            .workload("505.mcf")
            .scenario(Scenario::new("skl", Protection::Unprotected))
            .branches(1_000)
            .seed(5)
            .run()
            .unwrap();
        let csv = set.to_csv();
        assert_eq!(csv.lines().count(), 2);
        assert!(csv.lines().next().unwrap().starts_with("workload,model"));
        let json = set.to_json();
        assert!(json.starts_with("[{") && json.ends_with("}]"));
        assert!(json.contains("\"workload\":\"505.mcf\""));
    }

    #[test]
    fn matches_direct_simulation_exactly() {
        // The engine path (streamed per cell) must reproduce a hand-rolled
        // materialized run bit-for-bit.
        use stbpu_predictors::skl_baseline;
        let set = Experiment::new("ref")
            .workload("525.x264")
            .scenario(Scenario::new("skl", Protection::Unprotected))
            .branches(5_000)
            .seed(11)
            .warmup(0.1)
            .run()
            .unwrap();

        let trace = TraceGenerator::new(profiles::by_name("525.x264").unwrap(), 11).generate(5_000);
        let mut model = skl_baseline();
        let reference = stbpu_sim::simulate(&mut model, Protection::Unprotected, &trace, 0.1);
        let got = &set.records()[0].report;
        assert_eq!(got.oae, reference.oae);
        assert_eq!(got.mispredictions, reference.mispredictions);
        assert_eq!(got.evictions, reference.evictions);
    }

    #[test]
    fn shared_trace_workload_matches_generator_workload() {
        let trace = TraceGenerator::new(profiles::by_name("541.leela").unwrap(), 9).generate(4_000);
        let via_trace = Experiment::new("t")
            .trace(trace)
            .scenario(Scenario::new("skl", Protection::Unprotected))
            .seed(9)
            .run()
            .unwrap();
        let via_name = Experiment::new("n")
            .workload("541.leela")
            .scenario(Scenario::new("skl", Protection::Unprotected))
            .branches(4_000)
            .seed(9)
            .run()
            .unwrap();
        assert_eq!(
            via_trace.records()[0].report.oae,
            via_name.records()[0].report.oae
        );
        assert_eq!(via_trace.records()[0].workload, "541.leela");
    }

    #[test]
    fn interval_series_lands_in_records() {
        let set = Experiment::new("iv")
            .workload("505.mcf")
            .scenario(Scenario::new("skl", Protection::Unprotected))
            .branches(4_000)
            .interval(1_000)
            .warmup(0.0)
            .seed(2)
            .run()
            .unwrap();
        let rec = &set.records()[0];
        assert_eq!(rec.intervals.len(), 4);
        assert_eq!(rec.intervals.iter().map(|w| w.branches).sum::<u64>(), 4_000);
        assert!(rec.intervals.iter().all(|w| w.oae() > 0.4));
        // Without .interval() the series is empty.
        let plain = Experiment::new("plain")
            .workload("505.mcf")
            .scenario(Scenario::new("skl", Protection::Unprotected))
            .branches(1_000)
            .run()
            .unwrap();
        assert!(plain.records()[0].intervals.is_empty());
    }

    #[test]
    fn hintless_sources_need_warmup_branches() {
        // A source without a branch hint (e.g. a headerless trace file)
        // cannot resolve a fractional warm-up…
        struct Hintless(stbpu_trace::TraceSource<'static>);
        impl EventSource for Hintless {
            fn name(&self) -> &str {
                "hintless"
            }
            fn thread_count(&self) -> usize {
                0
            }
            fn branch_hint(&self) -> Option<u64> {
                None
            }
            fn next_event(
                &mut self,
            ) -> Result<Option<stbpu_trace::TraceEvent>, stbpu_trace::SourceError> {
                self.0.next_event()
            }
        }
        fn hintless_exp(name: &str) -> Experiment {
            let trace: &'static Trace = Box::leak(Box::new(
                TraceGenerator::new(profiles::by_name("505.mcf").unwrap(), 3).generate(1_000),
            ));
            Experiment::new(name)
                .source("hintless", move |_, _| Box::new(Hintless(trace.source())))
                .scenario(Scenario::new("skl", Protection::Unprotected))
        }
        let err = hintless_exp("frac").run().unwrap_err();
        assert_eq!(
            err,
            EngineError::Sim(stbpu_sim::SimError::WarmupNeedsBranchCount)
        );
        // …but an absolute warm-up budget works on any stream.
        let set = hintless_exp("abs").warmup_branches(200).run().unwrap();
        assert_eq!(set.records()[0].report.branches, 800);
    }

    #[test]
    fn streamed_and_materialized_suites_agree_across_the_cap() {
        // Multi-scenario suites materialize once below the cap and stream
        // per cell above it; a single-scenario grid always streams. All
        // paths must agree bit-for-bit.
        let single = Experiment::new("stream")
            .workload("541.leela")
            .scenario(Scenario::new("skl", Protection::Unprotected))
            .branches(3_000)
            .seed(8)
            .run()
            .unwrap();
        let multi = Experiment::new("materialize")
            .workload("541.leela")
            .scenario(Scenario::new("skl", Protection::Unprotected))
            .scenario(Scenario::new("skl", Protection::Ucode1))
            .branches(3_000)
            .seed(8)
            .run()
            .unwrap();
        assert_eq!(
            single.records()[0].report.oae,
            multi.records()[0].report.oae
        );
        assert_eq!(
            single.records()[0].report.mispredictions,
            multi.records()[0].report.mispredictions
        );
    }

    fn ckpt_experiment(name: &str, dir: &std::path::Path) -> Experiment {
        Experiment::new(name)
            .workloads(["541.leela", "505.mcf"])
            .scenario(Scenario::new("skl", Protection::Unprotected))
            .scenario(Scenario::new("st_skl@r=0.05", Protection::Stbpu))
            .branches(6_000)
            .seeds([1, 2])
            .interval(2_000)
            .checkpoint_dir(dir)
            .checkpoint_every(1_500)
    }

    fn tmpdir(tag: &str) -> std::path::PathBuf {
        let d = std::env::temp_dir().join(format!("stbpu-grid-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        d
    }

    #[test]
    fn checkpointed_grid_matches_plain_grid_exactly() {
        let dir = tmpdir("plain");
        let plain = Experiment::new("ref")
            .workloads(["541.leela", "505.mcf"])
            .scenario(Scenario::new("skl", Protection::Unprotected))
            .scenario(Scenario::new("st_skl@r=0.05", Protection::Stbpu))
            .branches(6_000)
            .seeds([1, 2])
            .interval(2_000)
            .run()
            .unwrap();
        let ckpt = ckpt_experiment("ckpt", &dir).run().unwrap();
        assert_eq!(plain.to_csv(), ckpt.to_csv());
        for (a, b) in plain.records().iter().zip(ckpt.records()) {
            assert_eq!(a.report, b.report);
            assert_eq!(a.intervals, b.intervals);
        }
        // Completed run: one log line per suite, no leftover cell files.
        let log = std::fs::read_to_string(dir.join("completed.jsonl")).unwrap();
        assert_eq!(log.lines().count(), 4);
        assert!(!std::fs::read_dir(&dir).unwrap().any(|e| e
            .unwrap()
            .file_name()
            .to_string_lossy()
            .starts_with("cell-")));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn killed_run_resumes_to_identical_output() {
        let dir = tmpdir("resume");
        let full = ckpt_experiment("a", &dir).run().unwrap();
        let log_path = dir.join("completed.jsonl");
        let log = std::fs::read_to_string(&log_path).unwrap();

        // Simulate a kill after the first suite landed, mid-write of the
        // second: keep line 1 plus a truncated prefix of line 2.
        let lines: Vec<&str> = log.lines().collect();
        let truncated = format!("{}\n{}", lines[0], &lines[1][..lines[1].len() / 2]);
        std::fs::write(&log_path, truncated).unwrap();

        let resumed = ckpt_experiment("a", &dir).run().unwrap();
        assert_eq!(full.to_csv(), resumed.to_csv());
        for (a, b) in full.records().iter().zip(resumed.records()) {
            assert_eq!(a.report, b.report);
            assert_eq!(a.intervals, b.intervals);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn in_flight_cell_checkpoint_resumes_bit_identically() {
        let dir = tmpdir("cell");
        std::fs::create_dir_all(&dir).unwrap();
        // Plant a genuine mid-stream checkpoint where suite 0 / scenario 0
        // of the experiment will look for it — as if the process died with
        // the cell half done.
        let reg = ModelRegistry::standard();
        let wl = Workload::Named("541.leela".to_string());
        let model = reg.build("skl", 1).unwrap();
        let mut source = wl.open(1, 6_000).unwrap();
        let threads = match source.thread_count() {
            0 => None,
            t => Some(t),
        };
        let mut session = stbpu_sim::OwnedSession::new(
            model,
            Protection::Unprotected,
            SessionOptions {
                warmup: Warmup::Fraction(0.1),
                threads,
                interval: Some(2_000),
                workload: None,
            },
        )
        .unwrap();
        session.begin(source.name(), source.branch_hint()).unwrap();
        let mut fed = 0u64;
        let mut buf = Vec::new();
        while session.branches_seen() < 3_000 {
            let n = source.next_batch(&mut buf, 64).unwrap();
            assert!(n > 0);
            session.feed_batch(&buf).unwrap();
            fed += n as u64;
        }
        let cp = stbpu_sim::Checkpoint::capture(&session, "skl", 1, fed).unwrap();
        cp.save(&cell_path(&dir, 0, 0)).unwrap();
        drop(session);

        let reference = ckpt_experiment("b", &tmpdir("cell-ref")).run().unwrap();
        let resumed = ckpt_experiment("b", &dir).run().unwrap();
        assert_eq!(reference.to_csv(), resumed.to_csv());
        assert_eq!(
            reference.records()[0].intervals,
            resumed.records()[0].intervals
        );
        let _ = std::fs::remove_dir_all(&dir);
        let _ = std::fs::remove_dir_all(tmpdir("cell-ref"));
    }

    #[test]
    fn checkpoint_dir_rejects_a_different_experiment() {
        let dir = tmpdir("mismatch");
        ckpt_experiment("a", &dir).run().unwrap();
        let err = ckpt_experiment("a", &dir).seed(99).run().unwrap_err();
        assert!(matches!(err, EngineError::Checkpoint(_)), "{err}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn custom_source_workload_runs() {
        let set = Experiment::new("custom")
            .source("gen-proxy", |seed, branches| {
                let p = profiles::by_name("505.mcf").unwrap();
                Box::new(TraceGenerator::new(p, seed).into_source(branches))
            })
            .scenario(Scenario::new("skl", Protection::Unprotected))
            .branches(2_000)
            .seed(4)
            .run()
            .unwrap();
        assert_eq!(set.records()[0].workload, "gen-proxy");
        assert_eq!(set.records()[0].report.branches, 1_800); // 10 % warm-up
    }
}
