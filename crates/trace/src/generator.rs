//! The trace generator: interleaves per-process program walks with kernel
//! excursions (syscalls, interrupts, scheduler-driven context switches)
//! across one or two logical threads — the shape of a live Intel PT
//! capture of a physical core (Section VII-B1).

use crate::event::{Trace, TraceEvent};
use crate::profiles::WorkloadProfile;
use crate::program::{Program, ProgramShape, Walker};
use crate::source::{EventSource, SourceError};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use stbpu_bpu::EntityId;

/// Kernel image base (inside the canonical 48-bit space).
const KERNEL_BASE: u64 = 0xffff_8000_0000;
/// Branches executed inside a syscall handler.
const SYSCALL_LEN: (u32, u32) = (25, 70);
/// Branches executed inside an interrupt handler.
const IRQ_LEN: (u32, u32) = (8, 25);
/// Branches executed by the scheduler on a context switch.
const SCHED_LEN: (u32, u32) = (40, 90);
/// Thread time-slice in branches for two-thread traces.
const THREAD_CHUNK: usize = 96;

/// Deterministic synthetic-trace generator for one workload profile.
///
/// Traces can be materialized with [`TraceGenerator::generate`] or streamed
/// with [`TraceGenerator::into_source`] — the two paths share the same
/// stepping machinery, so for equal seeds the streamed events are
/// bit-identical to the materialized vector while the stream needs only
/// O(1) memory (one kernel excursion of look-ahead).
///
/// ```
/// use stbpu_trace::{TraceGenerator, WorkloadProfile};
/// let t = TraceGenerator::new(&WorkloadProfile::test_profile(), 1).generate(5_000);
/// assert_eq!(t.branch_count(), 5_000);
/// assert!(t.kernel_entries() > 0, "live traces include OS activity");
/// ```
pub struct TraceGenerator {
    profile: WorkloadProfile,
    rng: StdRng,
    programs: Vec<Program>,
    walkers: Vec<Walker>,
    kernel_prog: Program,
    kernel_walkers: Vec<Walker>,
    /// Current process (index into `programs`) per thread.
    current: [usize; 2],
    /// Logical threads the trace occupies (see [`TraceGenerator::threads`]).
    threads: usize,
    /// Cumulative per-step probabilities of a context switch, a syscall
    /// and an interrupt: a roll below `cuts[0]` switches, and so on.
    cuts: [f64; 3],
}

/// Cursor state of one in-progress trace emission.
#[derive(Clone, Copy, Debug)]
struct StreamPlan {
    budget: usize,
    emitted: usize,
    tid: usize,
    chunk: usize,
    started: bool,
}

impl StreamPlan {
    fn new(budget: usize) -> Self {
        StreamPlan {
            budget,
            emitted: 0,
            tid: 0,
            chunk: 0,
            started: false,
        }
    }
}

impl TraceGenerator {
    /// Creates a generator for `profile` with deterministic randomness.
    pub fn new(profile: &WorkloadProfile, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed ^ hash_name(profile.name));
        let shape = ProgramShape {
            functions: profile.functions,
            blocks_per_fn: profile.blocks_per_fn,
            loop_fraction: profile.loop_fraction,
            avg_trip: profile.avg_trip,
            pattern_complexity: profile.pattern_complexity,
            taken_bias: profile.taken_bias,
            indirect_fraction: profile.indirect_fraction,
            indirect_targets: profile.indirect_targets,
            call_fraction: profile.call_fraction,
            hardness: profile.noise,
        };
        let nproc = profile.processes.max(1);
        let mut programs = Vec::with_capacity(nproc);
        let mut walkers = Vec::with_capacity(nproc);
        for p in 0..nproc {
            // Per-process ASLR-style base; identical program *shape* per
            // process of the same workload (like forked server workers).
            let base = 0x4000_0000 + (p as u64) * 0x0002_1000_0000;
            let prog = Program::build(&shape, base, &mut rng);
            let wseed = rng.gen();
            walkers.push(Walker::new(
                &prog,
                profile.call_depth,
                profile.noise * 0.5,
                wseed,
            ));
            programs.push(prog);
        }
        let kshape = ProgramShape {
            functions: 36,
            blocks_per_fn: 6,
            loop_fraction: 0.15,
            avg_trip: 6,
            pattern_complexity: 0.1,
            taken_bias: 0.75,
            indirect_fraction: 0.1,
            indirect_targets: 5,
            call_fraction: 0.22,
            hardness: 0.05,
        };
        let kernel_prog = Program::build(&kshape, KERNEL_BASE, &mut rng);
        let kernel_walkers = (0..2)
            .map(|i| Walker::new(&kernel_prog, 10, 0.04, seed ^ 0xbeef ^ i))
            .collect();
        let p_ctx = profile.ctx_switches_per_1k / 1000.0;
        let p_sys = profile.syscalls_per_1k / 1000.0;
        let p_irq = profile.interrupts_per_1k / 1000.0;
        TraceGenerator {
            profile: *profile,
            rng,
            threads: profile.threads.clamp(1, 2).min(programs.len()),
            programs,
            walkers,
            kernel_prog,
            kernel_walkers,
            current: [0, 0],
            cuts: [p_ctx, p_ctx + p_sys, p_ctx + p_sys + p_irq],
        }
    }

    /// Name of the workload profile this generator emits.
    pub fn profile_name(&self) -> &'static str {
        self.profile.name
    }

    /// Threads used by this workload's traces. A trace never occupies more
    /// threads than it has processes (each walker is owned by one thread,
    /// keeping per-thread call/return streams well nested).
    pub fn threads(&self) -> usize {
        self.threads
    }

    fn sample_gap(rng: &mut StdRng, mean: f64) -> u16 {
        // Exponential gaps, clamped: bursty like real instruction streams.
        let u: f64 = rng.gen::<f64>().max(1e-9);
        ((-u.ln() * mean) as u64).min(900) as u16
    }

    fn entity_for(&self, proc_idx: usize) -> EntityId {
        EntityId::user(proc_idx as u32)
    }

    /// Emits `n` kernel branches on `tid` into `out`.
    fn kernel_run(&mut self, out: &mut Vec<TraceEvent>, tid: usize, n: u32) {
        for _ in 0..n {
            let mut rec = self.kernel_walkers[tid].next(&self.kernel_prog);
            rec.gap = Self::sample_gap(&mut self.rng, 4.0);
            out.push(TraceEvent::Branch {
                tid: tid as u8,
                rec,
            });
        }
    }

    /// Advances the emission by one slice (the stream prologue or one
    /// user-branch / kernel-excursion step), appending events to `out`
    /// after whatever it already holds. Returns `false` once the branch
    /// budget is exhausted. Overshoot from the final kernel excursion is
    /// trimmed inside the slice, so the cumulative branch count lands
    /// exactly on the budget.
    fn step(&mut self, plan: &mut StreamPlan, out: &mut Vec<TraceEvent>) -> bool {
        if !plan.started {
            plan.started = true;
            // Announce the initial process on each thread (processes are
            // partitioned across threads by index parity).
            let threads = self.threads;
            let nproc = self.programs.len();
            for t in 0..threads {
                let first = (0..nproc).find(|p| p % threads == t).unwrap_or(0);
                self.current[t] = first;
                out.push(TraceEvent::ContextSwitch {
                    tid: t as u8,
                    entity: self.entity_for(first),
                });
            }
            return true;
        }
        if plan.emitted >= plan.budget {
            return false;
        }

        let threads = self.threads;
        let nproc = self.programs.len();

        // Thread time-slicing for two-thread traces.
        plan.chunk += 1;
        if threads == 2 && plan.chunk.is_multiple_of(THREAD_CHUNK) {
            plan.tid = 1 - plan.tid;
        }
        let tid = plan.tid;

        let roll: f64 = self.rng.gen();
        if roll < self.cuts[0] && nproc > 1 {
            // Scheduler: kernel entry, scheduler body, switch, exit.
            out.push(TraceEvent::ModeSwitch {
                tid: tid as u8,
                kernel: true,
            });
            let n = self.rng.gen_range(SCHED_LEN.0..=SCHED_LEN.1);
            self.kernel_run(out, tid, n);
            plan.emitted += n as usize;
            // Round-robin among this thread's processes.
            let mine: Vec<usize> = (0..nproc)
                .filter(|p| p % threads == tid % threads)
                .collect();
            let pos = mine
                .iter()
                .position(|&p| p == self.current[tid])
                .unwrap_or(0);
            let next = mine[(pos + 1) % mine.len()];
            self.current[tid] = next;
            out.push(TraceEvent::ContextSwitch {
                tid: tid as u8,
                entity: self.entity_for(next),
            });
            out.push(TraceEvent::ModeSwitch {
                tid: tid as u8,
                kernel: false,
            });
        } else if roll < self.cuts[1] {
            out.push(TraceEvent::ModeSwitch {
                tid: tid as u8,
                kernel: true,
            });
            let n = self.rng.gen_range(SYSCALL_LEN.0..=SYSCALL_LEN.1);
            self.kernel_run(out, tid, n);
            plan.emitted += n as usize;
            out.push(TraceEvent::ModeSwitch {
                tid: tid as u8,
                kernel: false,
            });
        } else if roll < self.cuts[2] {
            out.push(TraceEvent::Interrupt { tid: tid as u8 });
            out.push(TraceEvent::ModeSwitch {
                tid: tid as u8,
                kernel: true,
            });
            let n = self.rng.gen_range(IRQ_LEN.0..=IRQ_LEN.1);
            self.kernel_run(out, tid, n);
            plan.emitted += n as usize;
            out.push(TraceEvent::ModeSwitch {
                tid: tid as u8,
                kernel: false,
            });
        } else {
            let proc_idx = self.current[tid];
            let mut rec = self.walkers[proc_idx].next(&self.programs[proc_idx]);
            rec.gap = Self::sample_gap(&mut self.rng, self.profile.gap_mean);
            out.push(TraceEvent::Branch {
                tid: tid as u8,
                rec,
            });
            plan.emitted += 1;
        }

        // Trim overshoot from a final kernel excursion so the cumulative
        // branch count is exact (all excess branches live in this slice).
        while plan.emitted > plan.budget {
            let pos = out
                .iter()
                .rposition(|e| matches!(e, TraceEvent::Branch { .. }))
                .expect("overshooting slice has branches");
            out.remove(pos);
            plan.emitted -= 1;
        }
        true
    }

    /// Generates a trace containing exactly `branches` branch events
    /// (kernel branches included): the [`TraceGenerator::into_source`]
    /// stream, collected.
    pub fn generate(self, branches: usize) -> Trace {
        self.into_source(branches)
            .collect_trace()
            .expect("a generator source never fails")
    }

    /// Converts the generator into a streaming [`EventSource`] emitting
    /// exactly `branches` branch events — generate-as-you-simulate with
    /// O(1) memory, never materializing the event vector.
    pub fn into_source(self, branches: usize) -> GeneratorSource {
        GeneratorSource {
            gen: self,
            plan: StreamPlan::new(branches),
            spill: Vec::new(),
            next: 0,
        }
    }
}

/// Streaming [`EventSource`] over a [`TraceGenerator`] (see
/// [`TraceGenerator::into_source`]). Batches are stepped straight into the
/// caller's buffer; only the overshoot of a batch's last slice (≤ ~100
/// events) is held back, regardless of run length.
pub struct GeneratorSource {
    gen: TraceGenerator,
    plan: StreamPlan,
    /// Stepped events not yet handed out, served from `spill[next..]`
    /// before the generator steps again. The capacity is reused — the hot
    /// path allocates nothing.
    spill: Vec<TraceEvent>,
    next: usize,
}

impl EventSource for GeneratorSource {
    fn name(&self) -> &str {
        self.gen.profile_name()
    }

    fn thread_count(&self) -> usize {
        self.gen.threads()
    }

    fn branch_hint(&self) -> Option<u64> {
        Some(self.plan.budget as u64)
    }

    fn next_event(&mut self) -> Result<Option<TraceEvent>, SourceError> {
        while self.next == self.spill.len() {
            self.spill.clear();
            self.next = 0;
            if !self.gen.step(&mut self.plan, &mut self.spill) {
                return Ok(None);
            }
        }
        self.next += 1;
        Ok(Some(self.spill[self.next - 1]))
    }

    fn next_batch(&mut self, buf: &mut Vec<TraceEvent>, max: usize) -> Result<usize, SourceError> {
        buf.clear();
        let pending = &self.spill[self.next..];
        let take = pending.len().min(max);
        buf.extend_from_slice(&pending[..take]);
        self.next += take;
        // Stepping only starts once the spill is drained.
        while buf.len() < max && self.gen.step(&mut self.plan, buf) {}
        if buf.len() > max {
            self.spill.clear();
            self.spill.extend(buf.drain(max..));
            self.next = 0;
        }
        Ok(buf.len())
    }
}

// Not `snap::fnv1a64`: this multiplier is not the FNV prime, and it seeds every generated trace.
fn hash_name(name: &str) -> u64 {
    name.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
        (h ^ b as u64).wrapping_mul(0x1000_0000_01b3)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profiles;

    #[test]
    fn exact_branch_count() {
        let t = TraceGenerator::new(&WorkloadProfile::test_profile(), 3).generate(1234);
        assert_eq!(t.branch_count(), 1234);
    }

    #[test]
    fn mode_switches_are_balanced() {
        let t = TraceGenerator::new(&WorkloadProfile::test_profile(), 3).generate(5000);
        let mut depth = 0i32;
        for e in t.events() {
            match e {
                TraceEvent::ModeSwitch { kernel: true, .. } => depth += 1,
                TraceEvent::ModeSwitch { kernel: false, .. } => depth -= 1,
                _ => {}
            }
            assert!((0..=1).contains(&depth), "mode switches must not nest");
        }
        assert_eq!(depth, 0);
    }

    #[test]
    fn kernel_branches_live_in_kernel_windows() {
        let t = TraceGenerator::new(&WorkloadProfile::test_profile(), 9).generate(5000);
        let mut in_kernel = [false; 2];
        for e in t.events() {
            match e {
                TraceEvent::ModeSwitch { tid, kernel } => in_kernel[*tid as usize] = *kernel,
                TraceEvent::Branch { tid, rec } => {
                    let is_kernel_addr = rec.pc.raw() >= KERNEL_BASE;
                    assert_eq!(
                        is_kernel_addr, in_kernel[*tid as usize],
                        "kernel-address branches only in kernel mode"
                    );
                }
                _ => {}
            }
        }
    }

    #[test]
    fn server_profile_uses_two_threads_and_many_processes() {
        let p = profiles::by_name("apache2_prefork_c128").unwrap();
        let t = TraceGenerator::new(p, 5).generate(20_000);
        let mut tids = std::collections::BTreeSet::new();
        let mut entities = std::collections::BTreeSet::new();
        for e in t.events() {
            match e {
                TraceEvent::Branch { tid, .. } => {
                    tids.insert(*tid);
                }
                TraceEvent::ContextSwitch { entity, .. } => {
                    entities.insert(*entity);
                }
                _ => {}
            }
        }
        assert_eq!(tids.len(), 2, "server traces occupy both logical threads");
        assert!(
            entities.len() >= 4,
            "prefork spawns many workers: {}",
            entities.len()
        );
    }

    #[test]
    fn spec_trace_is_mostly_user_code() {
        let p = profiles::by_name("519.lbm").unwrap();
        let t = TraceGenerator::new(p, 5).generate(20_000);
        let kernel_branches = t
            .branches()
            .filter(|(_, r)| r.pc.raw() >= KERNEL_BASE)
            .count();
        assert!(
            (kernel_branches as f64) < 0.15 * t.branch_count() as f64,
            "compute-bound SPEC should be mostly user branches ({kernel_branches})"
        );
    }

    #[test]
    fn determinism_across_generators() {
        let p = profiles::by_name("505.mcf").unwrap();
        let a = TraceGenerator::new(p, 77).generate(3000);
        let b = TraceGenerator::new(p, 77).generate(3000);
        assert_eq!(a.events(), b.events());
        let c = TraceGenerator::new(p, 78).generate(3000);
        assert_ne!(a.events(), c.events());
    }

    #[test]
    fn streamed_events_bit_identical_to_generate() {
        for name in ["505.mcf", "apache2_prefork_c128"] {
            let p = profiles::by_name(name).unwrap();
            let materialized = TraceGenerator::new(p, 31).generate(4_000);
            let mut src = TraceGenerator::new(p, 31).into_source(4_000);
            assert_eq!(src.name(), name);
            assert_eq!(src.branch_hint(), Some(4_000));
            let streamed = src.collect_trace().unwrap();
            assert_eq!(streamed.events(), materialized.events(), "{name}");
            assert_eq!(src.next_event().unwrap(), None, "exhausted stays exhausted");
        }
    }

    /// A budget that ends halfway through the first kernel excursion after
    /// `after` branches, so the final slice trims its overshoot.
    fn budget_inside_excursion(p: &WorkloadProfile, seed: u64, after: usize) -> usize {
        let long = TraceGenerator::new(p, seed).generate(after + 20_000);
        let mut branches = 0;
        let mut entry = None;
        for e in long.events() {
            match e {
                TraceEvent::ModeSwitch { kernel: true, .. } if branches >= after => {
                    entry = Some(branches);
                }
                TraceEvent::ModeSwitch { kernel: false, .. } if entry.is_some() => break,
                TraceEvent::Branch { .. } => branches += 1,
                _ => {}
            }
        }
        let entry = entry.expect("the trace enters the kernel");
        let budget = entry + (branches - entry) / 2;
        let trimmed = TraceGenerator::new(p, seed).generate(budget);
        assert!(
            !long.events().starts_with(trimmed.events()),
            "budget {budget} must cut an excursion short"
        );
        budget
    }

    /// Concatenates `next_batch(max)` pulls until the stream ends; with
    /// `interleave`, one `next_event` pull precedes every batch.
    fn pull_all(src: &mut GeneratorSource, max: usize, interleave: bool) -> Vec<TraceEvent> {
        let mut buf = Vec::new();
        let mut got = Vec::new();
        loop {
            if interleave {
                got.extend(src.next_event().unwrap());
            }
            if src.next_batch(&mut buf, max).unwrap() == 0 {
                break;
            }
            assert!(buf.len() <= max);
            got.extend_from_slice(&buf);
        }
        assert_eq!(src.next_event().unwrap(), None, "exhausted stays exhausted");
        assert_eq!(src.next_batch(&mut buf, max).unwrap(), 0);
        got
    }

    #[test]
    fn batched_pulls_bit_identical_to_generate() {
        for name in ["505.mcf", "apache2_prefork_c128"] {
            let p = profiles::by_name(name).unwrap();
            for budget in [3_000, budget_inside_excursion(p, 13, 2_000)] {
                let want = TraceGenerator::new(p, 13).generate(budget);
                // 301: larger than one generator slice, not dividing it.
                for max in [1, 2, 31, 97, 301, 4096] {
                    for interleave in [false, true] {
                        let mut src = TraceGenerator::new(p, 13).into_source(budget);
                        assert_eq!(
                            pull_all(&mut src, max, interleave),
                            want.events(),
                            "{name} budget {budget} max {max} interleave {interleave}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn source_declares_generator_threads() {
        let p = profiles::by_name("apache2_prefork_c128").unwrap();
        let src = TraceGenerator::new(p, 1).into_source(100);
        assert_eq!(src.thread_count(), 2);
    }

    #[test]
    fn different_workloads_have_different_kernel_share() {
        let spec =
            TraceGenerator::new(profiles::by_name("503.bwaves").unwrap(), 1).generate(30_000);
        let srv =
            TraceGenerator::new(profiles::by_name("mysql_256con_50s").unwrap(), 1).generate(30_000);
        assert!(srv.kernel_entries() > 4 * spec.kernel_entries().max(1));
        assert!(srv.context_switches() > spec.context_switches());
    }
}
