//! The timing simulator: a centralized, continuous-window out-of-order
//! superscalar core (Table 2), generalized so that the distributed,
//! split-window model of Section 3.7 is the `units > 1` case.
//!
//! The machine replays the correct-path dynamic trace produced by the
//! functional interpreter. Fetch follows the trace (branch mispredictions
//! stall fetch until the branch resolves, modeling the redirect); memory
//! dependence mis-speculations squash the window suffix and re-inject the
//! trace from the violating load, so lost work is genuinely re-simulated.

use crate::artifacts::{OpMeta, TraceArtifacts};
use crate::config::{BranchPredictorConfig, CoreConfig, Policy, Recovery, WindowModel};
use crate::oracle::OracleDeps;
use crate::pipetrace::{PipeStage, PipeTrace};
use crate::sched::{SchedState, Wake};
use crate::stats::{SimResult, SimStats};
use crate::window::{RegDeps, Slot, Window, NOT_YET};
use mds_frontend::{Bimodal, DirectionKind, FrontEnd, Gshare, LocalHistory, StaticNotTaken};
use mds_isa::Trace;
use mds_mem::{AccessKind, MemSystem, StoreBuffer};
use mds_obs::StallCause;
use mds_predict::{Mdpt, SelectivePredictor, StoreBarrierPredictor, StoreSets};
use std::collections::VecDeque;

/// Per-unit front-end state (one unit in the continuous window).
#[derive(Debug)]
pub(crate) struct UnitState {
    /// Fetched but not yet dispatched: `(seq, dispatch_ready_at)`.
    pub queue: VecDeque<(u64, u64)>,
    /// Earliest cycle this unit may fetch again.
    pub next_fetch_at: u64,
    /// Sequence number of an unresolved mispredicted branch stalling
    /// this unit's fetch.
    pub stalled_on: Option<u64>,
}

/// The configured timing simulator.
///
/// # Examples
///
/// ```
/// use mds_core::{CoreConfig, Policy, Simulator};
/// use mds_isa::{Asm, Interpreter, Reg};
///
/// let mut a = Asm::new();
/// a.li(Reg::int(1), 3);
/// a.addi(Reg::int(1), Reg::int(1), -1);
/// a.halt();
/// let trace = Interpreter::new(a.assemble()?).run(100)?;
///
/// let sim = Simulator::new(CoreConfig::paper_128().with_policy(Policy::NasNaive));
/// let result = sim.run(&trace);
/// assert_eq!(result.stats.committed, trace.len() as u64);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone)]
pub struct Simulator {
    config: CoreConfig,
}

impl Simulator {
    /// Creates a simulator for the given configuration.
    pub fn new(config: CoreConfig) -> Simulator {
        Simulator { config }
    }

    /// The configuration.
    pub fn config(&self) -> &CoreConfig {
        &self.config
    }

    /// Runs the timing simulation over `trace` to completion, building
    /// the trace's [`TraceArtifacts`] on the fly.
    ///
    /// When the same trace is replayed under several configurations,
    /// build the artifacts once and use
    /// [`run_with_artifacts`](Simulator::run_with_artifacts) instead —
    /// the results are identical.
    ///
    /// # Panics
    ///
    /// Panics if the machine deadlocks (an internal invariant violation)
    /// or if the trace is empty.
    pub fn run(&self, trace: &Trace) -> SimResult {
        let artifacts = TraceArtifacts::build(trace);
        self.run_with_artifacts(trace, &artifacts)
    }

    /// Runs the timing simulation over `trace` using precomputed,
    /// possibly shared [`TraceArtifacts`].
    ///
    /// The artifacts are read-only for the whole simulation, so one
    /// bundle (behind an [`Arc`](std::sync::Arc)) can serve any number
    /// of concurrent simulations of the same trace.
    ///
    /// # Panics
    ///
    /// Panics if `artifacts` was built from a different trace, in
    /// addition to the panics [`Simulator::run`] can raise.
    pub fn run_with_artifacts(&self, trace: &Trace, artifacts: &TraceArtifacts) -> SimResult {
        self.run_inner(trace, artifacts, |_| {})
    }

    /// Runs the timing simulation with event-driven fast-forward
    /// disabled: every cycle is executed individually.
    ///
    /// Produces stats identical to [`Simulator::run`] (which skips
    /// provably-quiet cycle spans); exists as the differential reference
    /// for the equivalence suites and as an escape hatch.
    ///
    /// # Panics
    ///
    /// As for [`Simulator::run`].
    pub fn run_per_cycle(&self, trace: &Trace) -> SimResult {
        let artifacts = TraceArtifacts::build(trace);
        self.run_inner(trace, &artifacts, |m| m.fast_forward = false)
    }

    /// Runs the timing simulation in differential-equivalence mode:
    /// every issue-stage gate evaluation also runs the retired
    /// scan-based implementation, and the incremental scheduler state is
    /// recounted from the window each cycle.
    ///
    /// Only available with the `paranoid-sched` feature (or in the
    /// crate's own tests). Dramatically slower; for the equivalence
    /// harness, not for experiments.
    ///
    /// # Panics
    ///
    /// Panics on the first cycle where an incremental gate disagrees
    /// with its scan-based twin or the scheduler state diverges from a
    /// window recount — in addition to the panics [`Simulator::run`]
    /// can raise.
    #[cfg(any(test, feature = "paranoid-sched"))]
    pub fn run_paranoid(&self, trace: &Trace) -> SimResult {
        let artifacts = TraceArtifacts::build(trace);
        self.run_inner(trace, &artifacts, |m| {
            m.paranoid = true;
            // Paranoid mode cross-checks every cycle; running it
            // per-cycle makes `run()` vs `run_paranoid()` a fast-forward
            // differential on top of the gate differential.
            m.fast_forward = false;
        })
    }

    /// Builds a machine, lets `configure` set its run mode, runs it to
    /// completion and packages the result.
    fn run_inner(
        &self,
        trace: &Trace,
        artifacts: &TraceArtifacts,
        configure: impl FnOnce(&mut Machine<'_>),
    ) -> SimResult {
        assert!(!trace.is_empty(), "cannot simulate an empty trace");
        artifacts.assert_matches(trace);
        let mut m = Machine::new(&self.config, trace, artifacts);
        configure(&mut m);
        m.run_to_completion();
        SimResult {
            stats: m.stats,
            policy_name: self.config.policy.paper_name().to_owned(),
            pipetrace: m.pipetrace,
            skipped_cycles: m.skipped_cycles,
        }
    }
}

/// Builds the configured front end.
fn build_frontend(cfg: BranchPredictorConfig) -> FrontEnd {
    match cfg {
        BranchPredictorConfig::PaperCombined => FrontEnd::paper(),
        BranchPredictorConfig::Bimodal { entries } => {
            FrontEnd::with_direction(DirectionKind::Bimodal(Bimodal::new(entries)))
        }
        BranchPredictorConfig::Gshare { entries, history } => {
            FrontEnd::with_direction(DirectionKind::Gshare(Gshare::new(entries, history)))
        }
        BranchPredictorConfig::Local { entries, history } => {
            FrontEnd::with_direction(DirectionKind::Local(LocalHistory::new(entries, history)))
        }
        BranchPredictorConfig::StaticNotTaken => {
            FrontEnd::with_direction(DirectionKind::StaticNotTaken(StaticNotTaken))
        }
    }
}

/// Upper bound on cycles between consecutive commits for a live machine
/// under `cfg`, used by the deadlock watchdog.
///
/// When the window head is ready to make progress, its register
/// producers are all committed, so the longest legal inter-commit gap is
/// bounded by one full refetch (squash resume + I-side miss to main
/// memory + decode), address scheduling, and a D-side miss to main
/// memory — once per slot that may sit between the head and the
/// resource freeing it (window, LSQ, plus slack for fetch queues). The
/// bound is deliberately generous (an order of magnitude over any legal
/// schedule): it exists to catch genuine deadlocks with a useful
/// message, not to police performance.
fn stall_limit(cfg: &CoreConfig) -> u64 {
    let mem = &cfg.mem;
    let block = mem
        .l1i
        .block_bytes
        .max(mem.l1d.block_bytes)
        .max(mem.l2.block_bytes);
    let words = block.div_ceil(4);
    let miss_worst = mem.l1i.hit_latency
        + mem.l1d.hit_latency
        + mem.l2.hit_latency
        + mem.main.latency(block)
        + words.div_ceil(4) * mem.l2_transfer_per_four_words;
    let per_slot =
        miss_worst + cfg.addr_sched_latency + cfg.squash_latency + cfg.decode_latency + 8;
    let slots = (cfg.window_size + cfg.lsq_size + 64) as u64;
    2_000 + per_slot * slots
}

pub(crate) struct Machine<'t> {
    pub cfg: &'t CoreConfig,
    pub trace: &'t Trace,
    /// Trace-derived register dependences, borrowed from the (possibly
    /// shared) [`TraceArtifacts`]; never mutated by simulation.
    pub regdeps: &'t RegDeps,
    /// Trace-derived oracle memory dependences (shared, read-only).
    pub oracle: &'t OracleDeps,
    /// Per-op classification (shared, read-only).
    pub ops: &'t [OpMeta],
    pub mem: MemSystem,
    pub frontend: FrontEnd,
    pub sb: StoreBuffer,
    pub window: Window,
    pub selective: SelectivePredictor,
    pub store_barrier: StoreBarrierPredictor,
    pub mdpt: Mdpt,
    pub store_sets: StoreSets,
    pub units: Vec<UnitState>,
    pub task_size: u64,
    /// Next dynamic index to fetch, per task.
    pub task_pos: Vec<u64>,
    pub unit_window_cap: usize,
    /// Per-unit fetch bandwidth: `fetch_width / units` with the
    /// remainder spread over the leading units, so the total equals
    /// `fetch_width` instead of silently truncating on non-divisible
    /// unit counts (each unit still fetches at least one instruction
    /// per cycle, matching the old floor).
    pub unit_fetch_widths: Vec<usize>,
    pub next_commit: u64,
    /// Stores whose execution completes at a future cycle, awaiting the
    /// violation check: `(seq, exec_at)`.
    pub pending_checks: Vec<(u64, u64)>,
    pub now: u64,
    pub stats: SimStats,
    pub pipetrace: Option<PipeTrace>,
    /// Incrementally-maintained issue-stage state (pending-store lists,
    /// synonym wait lists, issue-order scratch buffers).
    pub sched: SchedState,
    /// Differential-equivalence mode: every gate evaluation also runs
    /// the retired scan-based implementation and asserts agreement.
    #[cfg(any(test, feature = "paranoid-sched"))]
    pub paranoid: bool,
    /// An empty window is a squash's fault until re-fetch refills it
    /// (distinguishes `SquashRecovery` from plain `EmptyWindow` cycles).
    pub squash_shadow: bool,
    /// In-flight (dispatched, uncommitted) memory operations, bounded by
    /// the load/store queue size.
    pub mem_in_flight: usize,
    /// Event-driven fast-forward: when a cycle provably changes nothing,
    /// jump `now` to just before the next event instead of ticking.
    /// Disabled by [`Simulator::run_per_cycle`] and
    /// [`Simulator::run_paranoid`] so the per-cycle core stays available
    /// as the differential reference.
    pub fast_forward: bool,
    /// Cycles skipped by fast-forward (0 in per-cycle mode). Surfaced on
    /// [`SimResult`], not [`SimStats`]: both modes must produce
    /// identical stats, and this counter is the one value that differs
    /// by construction.
    pub skipped_cycles: u64,
    /// The cycle `next_commit` last advanced — the deadlock watchdog
    /// asserts on lack of commit progress, not raw cycle count, so it
    /// neither false-trips on legitimately long-latency configurations
    /// nor loses meaning when fast-forward makes `now` jump.
    pub last_commit_at: u64,
    /// Upper bound on cycles between consecutive commits, scaled by the
    /// configuration's worst-case latencies.
    pub stall_limit: u64,
}

impl<'t> Machine<'t> {
    pub fn new(cfg: &'t CoreConfig, trace: &'t Trace, arts: &'t TraceArtifacts) -> Machine<'t> {
        let units = cfg.units();
        let task_size = match cfg.window_model {
            WindowModel::Continuous => trace.len() as u64,
            WindowModel::Split { task_size, .. } => task_size as u64,
        }
        .max(1);
        let n_tasks = (trace.len() as u64).div_ceil(task_size);
        Machine {
            cfg,
            trace,
            regdeps: &arts.regdeps,
            oracle: &arts.oracle,
            ops: &arts.ops,
            mem: MemSystem::new(cfg.mem.clone()),
            frontend: build_frontend(cfg.branch_predictor),
            sb: StoreBuffer::new(cfg.store_buffer),
            window: Window::new(units),
            selective: SelectivePredictor::new(cfg.selective),
            store_barrier: StoreBarrierPredictor::new(cfg.store_barrier),
            mdpt: Mdpt::new(cfg.mdpt),
            store_sets: StoreSets::new(cfg.store_sets),
            units: (0..units)
                .map(|_| UnitState {
                    queue: VecDeque::new(),
                    next_fetch_at: 0,
                    stalled_on: None,
                })
                .collect(),
            task_size,
            task_pos: (0..n_tasks).map(|t| t * task_size).collect(),
            unit_window_cap: (cfg.window_size / units as usize).max(1),
            unit_fetch_widths: (0..units as usize)
                .map(|u| {
                    (cfg.fetch_width / units as usize
                        + usize::from(u < cfg.fetch_width % units as usize))
                    .max(1)
                })
                .collect(),
            next_commit: 0,
            pending_checks: Vec::new(),
            now: 0,
            stats: SimStats::default(),
            pipetrace: cfg.record_pipeline_trace.then(PipeTrace::default),
            sched: SchedState::new(units as usize),
            #[cfg(any(test, feature = "paranoid-sched"))]
            paranoid: false,
            squash_shadow: false,
            mem_in_flight: 0,
            fast_forward: true,
            skipped_cycles: 0,
            last_commit_at: 0,
            stall_limit: stall_limit(cfg),
        }
    }

    /// Steps cycles (fast-forwarding quiet spans when enabled) until the
    /// whole trace has committed, then seals the statistics: the final
    /// cycle count plus the front-end and memory-system counters.
    fn run_to_completion(&mut self) {
        let total = self.trace.len() as u64;
        while self.next_commit < total {
            self.now += 1;
            assert!(
                self.now.saturating_sub(self.last_commit_at) <= self.stall_limit,
                "simulator deadlock: no commit progress for {} cycles at cycle {} \
                 with {} of {} committed (policy {})",
                self.now - self.last_commit_at,
                self.now,
                self.next_commit,
                total,
                self.cfg.policy.paper_name()
            );
            let active = self.step_cycle();
            if self.fast_forward && !active && self.next_commit < total {
                self.fast_forward_quiet_span();
            }
        }
        self.stats.cycles = self.now;
        self.stats.frontend = *self.frontend.stats();
        self.stats.mem = self.mem.stats();
    }

    /// Executes one full pipeline cycle at `self.now`, returning whether
    /// any architectural state changed (a commit, an issue, a dispatch, a
    /// fetch, a stall resolution, a violation recovery or fix-up, or a
    /// load newly noting itself gate-blocked). A `false` return means
    /// the cycle only re-sampled unchanged state — repeating it until
    /// the next event would record the same occupancy and the same stall
    /// cause every time, which is exactly what fast-forward exploits.
    fn step_cycle(&mut self) -> bool {
        self.maintain_predictors();
        let mut active = self.process_pending_checks();
        active |= self.resume_stalled_units();
        active |= self.commit_stage();
        active |= self.issue_stage();
        active |= self.dispatch_stage();
        active |= self.fetch_stage();
        active
    }

    /// After a quiet cycle: computes the earliest future cycle at which
    /// any state change is possible and jumps `now` to just before it,
    /// bulk-charging the skipped span to the stall cause the quiet cycle
    /// established (the CPI-stack partition `cpi.total_cycles() ==
    /// cycles` holds by construction) and bulk-sampling the unchanged
    /// window occupancy. The horizon cycle itself is then executed
    /// normally, so events fire at exactly the per-cycle cycles.
    fn fast_forward_quiet_span(&mut self) {
        let horizon = self.next_event_horizon();
        if horizon == u64::MAX {
            // No future event at all: keep ticking per-cycle so the
            // commit-progress watchdog can report the deadlock.
            return;
        }
        let skip = horizon.saturating_sub(1).saturating_sub(self.now);
        if skip == 0 {
            return;
        }
        let cause = self.classify_stall_cause();
        self.stats.cpi.record_n(cause, skip);
        self.stats
            .window_occupancy
            .record_n(self.window.len() as u64, skip);
        self.skipped_cycles += skip;
        self.now += skip;
    }

    /// The earliest future cycle at which the machine's state can next
    /// change, computed from state the incremental scheduler and the
    /// stages already keep (`u64::MAX` when no event is queued — a
    /// deadlock). Sound only immediately after a quiet cycle: every
    /// possible state change is then driven by one of
    ///
    /// * a pending store-violation check coming due,
    /// * a stalled fetch unit's mispredicted branch completing,
    /// * a fetch unit's `next_fetch_at` arriving,
    /// * a fetched instruction's decode (`ready_at`) arriving,
    /// * an issue candidate's operands (or posted address) becoming
    ///   visible,
    /// * a queued scheduler visibility event (store execution or address
    ///   posting) draining,
    /// * the window head completing and becoming committable, or
    /// * a periodic predictor reset firing,
    ///
    /// and everything else (gate unblocking, dispatch, task advance,
    /// store-buffer drain) is a consequence of one of those happening
    /// first on an executed cycle.
    fn next_event_horizon(&self) -> u64 {
        let mut h = u64::MAX;
        for &(_, at) in &self.pending_checks {
            h = h.min(at);
        }
        for u in &self.units {
            if let Some(&(_, ready_at)) = u.queue.front() {
                if ready_at > self.now {
                    h = h.min(ready_at);
                }
            }
            match u.stalled_on {
                Some(bseq) => {
                    if let Some(s) = self.window.get(bseq) {
                        if s.issued {
                            h = h.min(s.complete_at);
                        }
                        // Not issued: the branch is an issue candidate;
                        // its own operand horizon (below) bounds it.
                    }
                }
                None => {
                    if u.next_fetch_at > self.now {
                        h = h.min(u.next_fetch_at);
                    }
                }
            }
        }
        for c in self.sched.pending_issue() {
            // A sleeping gated load is operand-ready, and a producer that
            // still has not issued leaves no ready time: neither bounds
            // the horizon. Every other state is recomputed, because a
            // cached `Wake::At` is only a lower bound.
            let at = match c.wake {
                Wake::StoreGate | Wake::BarrierGate => continue,
                Wake::Producer(p) if self.unissued_producer(p) => continue,
                _ => {
                    self.ready_at(self.window.get(c.seq).expect("candidate in window"))
                        .0
                }
            };
            if at > self.now {
                h = h.min(at);
            }
        }
        h = h.min(self.sched.next_event_at());
        if let Some(front) = self.window.front() {
            if front.seq == self.next_commit && front.issued {
                // Commit requires `complete_at < now`.
                h = h.min(front.complete_at.saturating_add(1));
            }
        }
        if let Some(at) = self.next_predictor_event() {
            h = h.min(at);
        }
        h
    }

    /// The next cycle the active policy's periodic predictor maintenance
    /// fires, if any: fast-forward must execute that exact cycle so
    /// resets land at the same `now` (and thus re-arm the same next
    /// reset) as in per-cycle mode.
    fn next_predictor_event(&self) -> Option<u64> {
        match self.cfg.policy {
            Policy::NasSelective => self.selective.next_reset_at(),
            Policy::NasStoreBarrier => self.store_barrier.next_reset_at(),
            Policy::NasSync => self.mdpt.next_flush_at(),
            Policy::NasStoreSets => self.store_sets.next_clear_at(),
            _ => None,
        }
    }

    fn maintain_predictors(&mut self) {
        match self.cfg.policy {
            Policy::NasSelective => self.selective.maybe_reset(self.now),
            Policy::NasStoreBarrier => self.store_barrier.maybe_reset(self.now),
            Policy::NasSync => self.mdpt.maybe_flush(self.now),
            Policy::NasStoreSets => self.store_sets.maybe_clear(self.now),
            _ => {}
        }
    }

    /// The oldest sequence number not yet dispatched into the window
    /// (used by the `AS/NO` gate, which must respect unknown older
    /// instructions).
    pub fn min_undispatched(&self) -> u64 {
        let mut min = u64::MAX;
        for u in &self.units {
            if let Some(&(seq, _)) = u.queue.front() {
                min = min.min(seq);
            }
        }
        // Task fetch positions: approximate with the per-unit next fetch
        // sequence, tracked via the tasks. The fetch stage stores these in
        // `task_pos`, consulted here through `next_unfetched`.
        min.min(self.next_unfetched())
    }

    /// PC of the dynamic instruction at `seq`.
    #[inline]
    pub fn pc_of(&self, seq: u64) -> u64 {
        self.trace.pc(seq as usize)
    }

    fn resume_stalled_units(&mut self) -> bool {
        let mut resumed = false;
        for u in 0..self.units.len() {
            if let Some(bseq) = self.units[u].stalled_on {
                let resolved = if bseq < self.next_commit {
                    Some(self.now)
                } else {
                    match self.window.get(bseq) {
                        Some(s) if s.issued && s.complete_at <= self.now => Some(s.complete_at),
                        Some(_) => None,
                        // Squashed branches clear the stall during squash;
                        // reaching here means the branch is gone.
                        None => Some(self.now),
                    }
                };
                if let Some(at) = resolved {
                    self.units[u].stalled_on = None;
                    let unit = &mut self.units[u];
                    unit.next_fetch_at = unit.next_fetch_at.max(at + 1);
                    resumed = true;
                }
            }
        }
        resumed
    }

    fn commit_stage(&mut self) -> bool {
        self.stats.window_occupancy.record(self.window.len() as u64);
        let mut budget = self.cfg.commit_width;
        let committed_before = self.stats.committed;
        while budget > 0 {
            let Some(front) = self.window.front() else {
                break;
            };
            if front.seq != self.next_commit {
                break; // older instruction not yet dispatched (split window)
            }
            // Commit happens the cycle after writeback, keeping committed
            // stores visible in the store buffer for one forwarding cycle.
            if !(front.issued && front.complete_at < self.now) {
                break;
            }
            if (front.is_store || front.is_load) && !front.executed {
                break;
            }
            let s = self.window.pop_front().expect("front exists");
            self.trace_event(s.seq, PipeStage::Commit, self.now);
            if s.is_load || s.is_store {
                self.mem_in_flight -= 1;
            }
            self.stats.committed += 1;
            if s.is_store {
                self.stats.committed_stores += 1;
                // Drain the store to the data cache (the store buffer does
                // not combine writes, Table 2).
                self.mem.access(AccessKind::Write, s.addr, self.now);
                self.sb.retire(s.seq);
                self.sched.on_commit_store(s.seq, s.synonym);
            }
            if s.is_load {
                self.stats.committed_loads += 1;
                if let Some(t0) = s.fd_blocked_at {
                    let delay = s.issue_at.saturating_sub(t0);
                    if s.fd_false {
                        self.stats.false_dep_loads += 1;
                        self.stats.false_dep_cycles += delay;
                        self.stats.false_dep_delay.record(delay);
                    } else {
                        self.stats.true_dep_loads += 1;
                    }
                }
                if let Some(f) = s.forwarded_from {
                    self.stats.forwarded_loads += 1;
                    self.stats.forward_distance.record(s.seq - f);
                }
                if s.speculative {
                    self.stats.speculative_loads += 1;
                }
                if s.sync_delayed {
                    self.stats.sync_delayed_loads += 1;
                }
            }
            self.next_commit += 1;
            budget -= 1;
        }
        if self.stats.committed > committed_before {
            self.stats.cpi.commit();
            self.last_commit_at = self.now;
            true
        } else {
            let cause = self.classify_stall_cause();
            self.stats.cpi.record(cause);
            false
        }
    }

    /// Attributes a non-committing cycle to the cause blocking the
    /// window head (the CPI-stack methodology: commit is in order, so
    /// whatever stalls the head stalls the machine).
    fn classify_stall_cause(&self) -> StallCause {
        let Some(front) = self.window.front() else {
            return if self.squash_shadow {
                StallCause::SquashRecovery
            } else {
                StallCause::EmptyWindow
            };
        };
        if front.seq != self.next_commit {
            // Split window: an older instruction has not dispatched yet.
            return StallCause::Other;
        }
        if !front.issued {
            if self.cfg.policy.uses_address_scheduler()
                && (front.is_load || front.is_store)
                && front.addr_issued
                && self.now < front.addr_posted_at
            {
                return StallCause::SchedulerLatency;
            }
            // A gate-blocked load cannot be the head pre-issue (the
            // blocking older store is ahead of it), so a not-issued head
            // is waiting on register operands, ports, or the scheduler.
            return StallCause::Other;
        }
        // Issued but not yet committable: the head is draining the
        // latency of whatever delayed or serviced it.
        if front.is_load {
            if front.dmiss {
                return StallCause::CacheMiss;
            }
            if front.sync_delayed {
                return StallCause::SyncDelay;
            }
            if front.fd_blocked_at.is_some() {
                return if front.fd_false {
                    StallCause::FalseDependence
                } else {
                    StallCause::TrueDependence
                };
            }
        }
        StallCause::Other
    }

    /// Runs the store-triggered violation checks whose stores executed by
    /// this cycle; squashes on the oldest violated load. Returns whether
    /// any check changed machine state (a recovery ran, or a silent
    /// fix-up extended a load's completion).
    fn process_pending_checks(&mut self) -> bool {
        let mut acted = false;
        let fixups_before = self.stats.silent_fixups;
        loop {
            // Take one due check at a time: a squash can invalidate others.
            let due = self
                .pending_checks
                .iter()
                .enumerate()
                .filter(|(_, &(_, at))| at <= self.now)
                .min_by_key(|(_, &(seq, at))| (at, seq))
                .map(|(i, _)| i);
            let Some(i) = due else { break };
            let (store_seq, _) = self.pending_checks.swap_remove(i);
            let Some(violator) = self.find_violation(store_seq) else {
                continue;
            };
            match self.cfg.recovery {
                Recovery::Squash => self.squash(violator, store_seq),
                Recovery::SelectiveReissue => self.selective_recover(violator, store_seq),
            }
            acted = true;
        }
        acted || self.stats.silent_fixups > fixups_before
    }

    /// Finds the oldest load younger than `store_seq` that read memory
    /// before the store executed, overlaps it, and did not source its
    /// value from the store or a younger one. Applies the value-based
    /// filter (and silent fix-ups) in `AS` modes.
    fn find_violation(&mut self, store_seq: u64) -> Option<u64> {
        let store = self.window.get(store_seq)?;
        debug_assert!(store.is_store && store.executed);
        let (s_addr, s_size, s_exec) = (store.addr, store.size, store.exec_at);
        let value_differs = store.store_value != store.store_old;
        let address_scheduled = self.cfg.policy.uses_address_scheduler();

        let mut fixups: Vec<u64> = Vec::new();
        let mut violator: Option<u64> = None;
        for slot in self.window.iter_from(store_seq + 1) {
            if !slot.is_load || !slot.executed {
                continue;
            }
            if slot.exec_at > s_exec {
                continue; // read after the store's data was visible
            }
            let overlap = mds_mem::ranges_overlap(slot.addr, slot.size, s_addr, s_size);
            if !overlap {
                continue;
            }
            if let Some(f) = slot.forwarded_from {
                if f >= store_seq {
                    continue; // value came from this store or a younger one
                }
            }
            if address_scheduled {
                // Section 3.4: a mis-speculation is signaled only when the
                // load (1) read memory, (2) propagated the value, and
                // (3) the value differs from the store's.
                if !value_differs {
                    continue; // silent store
                }
                if !slot.value_propagated {
                    fixups.push(slot.seq);
                    continue;
                }
            }
            violator = Some(slot.seq);
            break; // window iteration is oldest-first
        }

        for seq in fixups {
            // The store delivers the correct value before it propagates:
            // no squash, the load's completion is simply extended.
            if violator.is_some_and(|v| seq >= v) {
                continue; // will be squashed anyway
            }
            let now = self.now;
            if let Some(slot) = self.window.get_mut(seq) {
                slot.complete_at = slot.complete_at.max(s_exec + 1).max(now + 1);
                slot.forwarded_from = Some(store_seq);
                self.stats.silent_fixups += 1;
            }
        }
        violator
    }

    /// Trains the active dependence predictor with a violated pair.
    fn train_predictors(&mut self, load_seq: u64, store_seq: u64) {
        let load_pc = self.pc_of(load_seq);
        let store_pc = self.pc_of(store_seq);
        match self.cfg.policy {
            Policy::NasSelective => self.selective.record_misspeculation(load_pc),
            Policy::NasStoreBarrier => self.store_barrier.record_misspeculation(store_pc),
            Policy::NasSync => self.mdpt.record_violation(load_pc, store_pc),
            Policy::NasStoreSets => self.store_sets.record_violation(load_pc, store_pc),
            _ => {}
        }
    }

    /// Selective invalidation (Section 2's idealized alternative): keep
    /// the window intact and re-issue only the violated load and its
    /// transitive dependents (through registers, and through store-buffer
    /// forwarding from re-executed stores).
    fn selective_recover(&mut self, load_seq: u64, store_seq: u64) {
        self.stats.misspeculations += 1;
        self.train_predictors(load_seq, store_seq);

        // Transitive dependence closure over the in-flight window. The
        // set is kept sorted so membership tests are binary searches
        // instead of linear scans (closure order does not matter: only
        // membership does, and the per-seq reset below is idempotent).
        let mut affected: Vec<u64> = vec![load_seq];
        let in_affected = |set: &[u64], deps: &[u32]| {
            deps.iter().any(|&p| set.binary_search(&(p as u64)).is_ok())
        };
        loop {
            let mut grew = false;
            for slot in self.window.iter() {
                if slot.seq <= load_seq || !slot.issued || affected.binary_search(&slot.seq).is_ok()
                {
                    continue;
                }
                let i = slot.seq as usize;
                let dep = in_affected(&affected, self.regdeps.srcs(i))
                    || in_affected(&affected, self.regdeps.addr(i))
                    || in_affected(&affected, self.regdeps.data(i))
                    || slot
                        .forwarded_from
                        .is_some_and(|f| affected.binary_search(&f).is_ok());
                if dep {
                    let pos = affected.partition_point(|&s| s < slot.seq);
                    affected.insert(pos, slot.seq);
                    grew = true;
                }
            }
            if !grew {
                break;
            }
        }

        for &seq in &affected {
            let Some(slot) = self.window.get_mut(seq) else {
                continue;
            };
            let was_store = slot.is_store && slot.issued;
            let barrier = slot.barrier;
            slot.issued = false;
            slot.executed = false;
            slot.issue_at = crate::window::NOT_YET;
            slot.complete_at = crate::window::NOT_YET;
            slot.exec_at = crate::window::NOT_YET;
            slot.forwarded_from = None;
            slot.value_propagated = false;
            slot.speculative = false;
            slot.dmiss = false;
            if was_store {
                self.sb.retire(seq);
                // The store is un-executed again: put it back on the
                // pending lists (idempotent — its old execution event may
                // still be queued and is re-validated against the window
                // when it drains).
                self.sched.on_store_reset(seq, barrier);
            }
            // `issued` was cleared: the op is an issue candidate again.
            self.sched.on_op_reset(seq);
            self.stats.reissued += 1;
        }
        // A reset producer can re-issue and complete earlier than any
        // cached wake-up time.
        self.sched.wake_all();
        self.pending_checks
            .retain(|&(seq, _)| affected.binary_search(&seq).is_err());
        // Fetch state and younger unrelated instructions are untouched:
        // that is the whole point of selective invalidation.
    }

    /// Squash invalidation: invalidates the violated load and everything
    /// younger, trains the predictors, and re-arms fetch from the load.
    fn squash(&mut self, load_seq: u64, store_seq: u64) {
        self.stats.misspeculations += 1;
        self.train_predictors(load_seq, store_seq);

        let removed = self.window.squash_from(load_seq);
        self.mem_in_flight -= removed.iter().filter(|s| s.is_load || s.is_store).count();
        if self.pipetrace.is_some() {
            let now = self.now;
            for s in &removed {
                self.trace_event(s.seq, PipeStage::Squash, now);
            }
        }
        self.stats.squashed += removed.len() as u64;
        if self.cfg.policy == Policy::NasStoreSets {
            for s in &removed {
                if s.is_store {
                    self.store_sets
                        .squash_store(self.trace.pc(s.seq as usize), s.seq);
                }
            }
        }
        self.sb.squash_from(load_seq);
        self.sched.squash_from(load_seq);
        self.pending_checks.retain(|&(seq, _)| seq < load_seq);

        let mut discarded = removed.len() as u64;
        let resume = self.now + 1 + self.cfg.squash_latency;
        for ui in 0..self.units.len() {
            let removed_from_queue: Vec<u64> = self.units[ui]
                .queue
                .iter()
                .filter(|&&(seq, _)| seq >= load_seq)
                .map(|&(seq, _)| seq)
                .collect();
            self.units[ui].queue.retain(|&(seq, _)| seq < load_seq);
            self.stats.squashed += removed_from_queue.len() as u64;
            discarded += removed_from_queue.len() as u64;
            if self.pipetrace.is_some() {
                let now = self.now;
                for seq in removed_from_queue {
                    self.trace_event(seq, PipeStage::Squash, now);
                }
            }
            let u = &mut self.units[ui];
            if u.stalled_on.is_some_and(|b| b >= load_seq) {
                u.stalled_on = None;
            }
            u.next_fetch_at = u.next_fetch_at.max(resume);
        }
        self.stats.squash_penalty.record(discarded);
        self.squash_shadow = true;
        self.reset_fetch_to(load_seq);
    }

    fn dispatch_stage(&mut self) -> bool {
        let mut budget = self.cfg.issue_width;
        let units = self.units.len();
        let mut dispatched = false;
        let mut progressed = true;
        while budget > 0 && progressed {
            progressed = false;
            for u in 0..units {
                if budget == 0 {
                    break;
                }
                let Some(&(seq, ready_at)) = self.units[u].queue.front() else {
                    continue;
                };
                if ready_at > self.now {
                    continue;
                }
                if self.window.len() >= self.cfg.window_size
                    || self.window.unit_count(u as u32) >= self.unit_window_cap
                {
                    continue;
                }
                if self.ops[seq as usize].is_mem && self.mem_in_flight >= self.cfg.lsq_size {
                    continue; // load/store queue full
                }
                self.units[u].queue.pop_front();
                self.dispatch_one(seq, u as u32);
                budget -= 1;
                progressed = true;
                dispatched = true;
            }
        }
        dispatched
    }

    fn dispatch_one(&mut self, seq: u64, unit: u32) {
        let i = seq as usize;
        let rec = self.trace.record(i);
        let pc = self.trace.pc(i);
        let is_load = self.ops[i].is_load;
        let is_store = self.ops[i].is_store;

        let mut slot = Slot {
            seq,
            unit,
            is_load,
            is_store,
            addr: rec.effaddr,
            size: rec.size,
            store_value: rec.value,
            store_old: rec.old_value,
            issued: false,
            issue_at: NOT_YET,
            complete_at: NOT_YET,
            executed: false,
            exec_at: NOT_YET,
            addr_issued: false,
            addr_posted_at: NOT_YET,
            forwarded_from: None,
            speculative: false,
            value_propagated: false,
            dmiss: false,
            synonym: None,
            predicted_wait: false,
            barrier: false,
            sset_wait: None,
            fd_blocked_at: None,
            fd_false: false,
            sync_delayed: false,
        };

        match self.cfg.policy {
            Policy::NasSelective if is_load => {
                slot.predicted_wait = self.selective.predicts_dependence(pc);
            }
            Policy::NasStoreBarrier if is_store => {
                slot.barrier = self.store_barrier.predicts_barrier(pc);
            }
            Policy::NasSync => {
                if is_load {
                    slot.synonym = self.mdpt.load_synonym(pc);
                } else if is_store {
                    slot.synonym = self.mdpt.store_synonym(pc);
                }
            }
            Policy::NasStoreSets => {
                if is_store {
                    self.store_sets.dispatch_store(pc, seq);
                } else if is_load {
                    // The LFST names the set's last *dispatched* store,
                    // which is necessarily older than this load. A
                    // non-older entry is stale: a squash invalidates LFST
                    // entries under the SSID the store's PC maps to *now*,
                    // so a set merge between dispatch and squash leaves the
                    // old entry behind, and re-fetch recycles its sequence
                    // number for a younger instruction — waiting on that
                    // can deadlock the window (the "store" may depend on
                    // this very load).
                    slot.sset_wait = self.store_sets.dispatch_load(pc).filter(|&w| w < seq);
                }
            }
            _ => {}
        }

        if is_load || is_store {
            self.mem_in_flight += 1;
        }
        if is_store {
            self.sched.on_dispatch_store(
                seq,
                slot.barrier,
                self.cfg.policy.uses_address_scheduler(),
                slot.synonym,
            );
        }
        self.sched.on_dispatch_op(seq);
        self.window.insert(slot);
        self.squash_shadow = false;
        self.trace_event(seq, PipeStage::Dispatch, self.now);
    }

    /// Records a pipeline event when tracing is enabled.
    #[inline]
    pub fn trace_event(&mut self, seq: u64, stage: PipeStage, cycle: u64) {
        if let Some(t) = &mut self.pipetrace {
            t.record(seq, stage, cycle);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mds_isa::{Asm, Interpreter, Reg};
    use mds_mem::MemConfig;

    fn r(n: u8) -> Reg {
        Reg::int(n)
    }

    /// A loop whose body is a chain of dependent adds (I-cache friendly:
    /// the paper's workloads loop, so fetch runs from a warm cache).
    fn chain_loop_trace(iters: usize, body: usize) -> Trace {
        let mut a = Asm::new();
        a.li(r(1), 1);
        a.li(r(9), iters as i64);
        let top = a.label();
        a.bind(top);
        for _ in 0..body {
            a.addi(r(1), r(1), 1);
        }
        a.addi(r(9), r(9), -1);
        a.bgtz(r(9), top);
        a.halt();
        Interpreter::new(a.assemble().unwrap())
            .run(1_000_000)
            .unwrap()
    }

    fn run_policy(trace: &Trace, policy: Policy) -> SimResult {
        Simulator::new(CoreConfig::paper_128().with_policy(policy)).run(trace)
    }

    #[test]
    fn commits_every_instruction_exactly_once() {
        let t = chain_loop_trace(5, 10);
        for policy in Policy::ALL {
            let res = run_policy(&t, policy);
            assert_eq!(res.stats.committed, t.len() as u64, "{policy}");
        }
    }

    #[test]
    fn serial_dependence_chain_limits_ipc() {
        // A chain of dependent addis cannot exceed IPC 1 (the loop
        // counter and branch add a little slack).
        let t = chain_loop_trace(100, 16);
        let res = run_policy(&t, Policy::NasNaive);
        assert!(
            res.ipc() <= 1.25,
            "dependent chain must stay near IPC 1, got {}",
            res.ipc()
        );
        assert!(
            res.ipc() > 0.7,
            "pipeline should still stream, got {}",
            res.ipc()
        );
    }

    #[test]
    fn independent_instructions_reach_superscalar_ipc() {
        let mut a = Asm::new();
        a.li(r(9), 200);
        let top = a.label();
        a.bind(top);
        for _ in 0..4 {
            // 8 independent streams per group.
            for k in 1..=8 {
                a.addi(r(k), r(k), 1);
            }
        }
        a.addi(r(9), r(9), -1);
        a.bgtz(r(9), top);
        a.halt();
        let t = Interpreter::new(a.assemble().unwrap())
            .run(100_000)
            .unwrap();
        let res = run_policy(&t, Policy::NasNaive);
        assert!(
            res.ipc() > 3.0,
            "independent streams should superscale, got {}",
            res.ipc()
        );
    }

    fn recurrence_trace(iters: usize) -> Trace {
        // Figure 7: a[i] = a[i-1] + k, one word apart.
        let mut a = Asm::new();
        let arr = a.alloc_data(8 * (iters as u64 + 2), 8);
        let (i, n, base, k, t) = (r(1), r(2), r(3), r(4), r(5));
        a.li(i, 1);
        a.li(n, iters as i64 + 1);
        a.li(base, arr as i64);
        a.li(k, 3);
        let top = a.label();
        a.bind(top);
        a.sll(t, i, 3);
        a.add(t, base, t);
        a.lw(r(6), t, -8);
        a.add(r(6), r(6), k);
        a.sw(r(6), t, 0);
        a.addi(i, i, 1);
        a.slt(r(7), i, n);
        a.bgtz(r(7), top);
        a.halt();
        Interpreter::new(a.assemble().unwrap())
            .run(1_000_000)
            .unwrap()
    }

    #[test]
    fn naive_speculation_missspeculates_on_recurrence() {
        let t = recurrence_trace(300);
        let nav = run_policy(&t, Policy::NasNaive);
        assert!(
            nav.stats.misspeculations > 10,
            "tight recurrence must trip naive speculation, got {}",
            nav.stats.misspeculations
        );
    }

    #[test]
    fn no_speculation_never_missspeculates() {
        let t = recurrence_trace(200);
        for policy in [Policy::NasNo, Policy::NasOracle, Policy::AsNo] {
            let res = run_policy(&t, policy);
            assert_eq!(
                res.stats.misspeculations, 0,
                "{policy} must not mis-speculate"
            );
        }
    }

    #[test]
    fn oracle_is_at_least_as_fast_as_no_speculation() {
        let t = recurrence_trace(200);
        let no = run_policy(&t, Policy::NasNo);
        let oracle = run_policy(&t, Policy::NasOracle);
        assert!(
            oracle.ipc() >= no.ipc() * 0.99,
            "oracle {} vs no-speculation {}",
            oracle.ipc(),
            no.ipc()
        );
    }

    #[test]
    fn address_scheduler_avoids_squashes_on_recurrence() {
        let t = recurrence_trace(300);
        let as_nav = run_policy(&t, Policy::AsNaive);
        let nas_nav = run_policy(&t, Policy::NasNaive);
        assert!(
            as_nav.stats.misspeculations * 10 <= nas_nav.stats.misspeculations.max(1),
            "AS/NAV should virtually eliminate mis-speculations: {} vs {}",
            as_nav.stats.misspeculations,
            nas_nav.stats.misspeculations
        );
    }

    #[test]
    fn sync_learns_the_recurrence() {
        let t = recurrence_trace(500);
        let sync = run_policy(&t, Policy::NasSync);
        let nav = run_policy(&t, Policy::NasNaive);
        assert!(
            sync.stats.misspeculations * 5 <= nav.stats.misspeculations.max(1),
            "SYNC should eliminate most mis-speculations: {} vs {}",
            sync.stats.misspeculations,
            nav.stats.misspeculations
        );
        assert!(
            sync.ipc() >= nav.ipc(),
            "SYNC should not be slower than naive on a recurrence: {} vs {}",
            sync.ipc(),
            nav.ipc()
        );
    }

    #[test]
    fn store_sets_also_learn() {
        let t = recurrence_trace(500);
        let sset = run_policy(&t, Policy::NasStoreSets);
        let nav = run_policy(&t, Policy::NasNaive);
        assert!(sset.stats.misspeculations * 5 <= nav.stats.misspeculations.max(1));
    }

    #[test]
    fn false_dependences_counted_under_nas_no() {
        // Stores and loads to disjoint addresses: every delayed load is a
        // false dependence.
        let mut a = Asm::new();
        let arr = a.alloc_data(4096, 8);
        let (pa, pb) = (r(1), r(2));
        a.li(pa, arr as i64);
        a.li(pb, arr as i64 + 2048);
        a.li(r(3), 7);
        for i in 0..100 {
            a.sw(r(3), pa, (i % 64) * 4); // slowish chain: store depends on r3
            a.mult(r(3), r(3));
            a.mflo(r(3)); // delay next store's data
            a.lw(r(4), pb, (i % 64) * 4); // never conflicts
        }
        a.halt();
        let t = Interpreter::new(a.assemble().unwrap())
            .run(1_000_000)
            .unwrap();
        let res = run_policy(&t, Policy::NasNo);
        assert!(
            res.stats.false_dep_loads > 20,
            "disjoint loads behind slow stores are false dependences, got {}",
            res.stats.false_dep_loads
        );
        assert_eq!(res.stats.misspeculations, 0);
    }

    #[test]
    fn deterministic_across_runs() {
        let t = recurrence_trace(100);
        let a = run_policy(&t, Policy::NasSync);
        let b = run_policy(&t, Policy::NasSync);
        assert_eq!(a.stats, b.stats);
    }

    #[test]
    fn ideal_memory_speeds_things_up() {
        let t = recurrence_trace(100);
        let paper = run_policy(&t, Policy::NasNaive);
        let ideal = Simulator::new(
            CoreConfig::paper_128()
                .with_policy(Policy::NasNaive)
                .with_mem(MemConfig::ideal()),
        )
        .run(&t);
        assert!(ideal.ipc() >= paper.ipc());
    }

    /// An unrolled memory recurrence shaped like Figure 7 as a split
    /// window sees it: each step's addresses come from constants (ready
    /// at dispatch), the load sits early in its task and the store —
    /// whose *data* is late behind a multiply chain — at the end of the
    /// previous one.
    fn unrolled_recurrence_trace(steps: usize) -> Trace {
        let mut a = Asm::new();
        let arr = a.alloc_data(4 * (steps as u64 + 2), 8);
        let (base, three) = (r(1), r(2));
        a.li(base, arr as i64);
        a.li(three, 3);
        a.li(r(3), 17);
        a.sw(r(3), base, 0); // seed a[0]
        a.nop();
        a.nop();
        a.nop();
        a.nop(); // align the first step to a task boundary
        for j in 0..steps as i64 {
            // One 8-instruction "iteration" per task: load early, store
            // late, with filler so every task boundary splits a
            // store->load pair (the Figure 7(c) assignment).
            a.lw(r(4), base, 4 * j);
            a.mult(r(4), three); // slow data chain
            a.mflo(r(4));
            a.addi(r(4), r(4), 1);
            a.addi(r(10), r(10), 1);
            a.addi(r(11), r(11), 1);
            a.addi(r(12), r(12), 1);
            a.sw(r(4), base, 4 * (j + 1));
        }
        a.halt();
        Interpreter::new(a.assemble().unwrap())
            .run(1_000_000)
            .unwrap()
    }

    #[test]
    fn split_window_defeats_address_scheduling() {
        // Section 3.7: under a split window, a later unit's load computes
        // its address before an earlier unit's store is even fetched, so
        // even a 0-cycle address scheduler cannot avoid mis-speculations.
        let t = unrolled_recurrence_trace(400);
        let continuous =
            Simulator::new(CoreConfig::paper_128().with_policy(Policy::AsNaive)).run(&t);
        let split = Simulator::new(
            CoreConfig::paper_128()
                .with_policy(Policy::AsNaive)
                .with_window_model(WindowModel::Split {
                    units: 4,
                    task_size: 8,
                }),
        )
        .run(&t);
        assert!(
            split.stats.misspeculations > continuous.stats.misspeculations.max(5) * 4,
            "split window must mis-speculate where continuous does not: split={} continuous={}",
            split.stats.misspeculations,
            continuous.stats.misspeculations
        );
    }

    #[test]
    fn split_window_commits_in_program_order() {
        let t = recurrence_trace(120);
        let res = Simulator::new(
            CoreConfig::paper_128()
                .with_policy(Policy::NasNaive)
                .with_window_model(WindowModel::Split {
                    units: 4,
                    task_size: 16,
                }),
        )
        .run(&t);
        assert_eq!(res.stats.committed, t.len() as u64);
    }

    #[test]
    fn split_window_runs_every_policy() {
        let t = recurrence_trace(60);
        for policy in Policy::ALL {
            let res = Simulator::new(
                CoreConfig::paper_128()
                    .with_policy(policy)
                    .with_window_model(WindowModel::Split {
                        units: 2,
                        task_size: 32,
                    }),
            )
            .run(&t);
            assert_eq!(res.stats.committed, t.len() as u64, "{policy}");
        }
    }

    #[test]
    fn as_no_releases_disjoint_loads_earlier_than_nas_no() {
        // A store whose data hangs behind a divide, followed by loads to
        // unrelated addresses: NAS/NO stalls them until the store
        // executes; AS/NO releases them once the store posts its address.
        let mut a = Asm::new();
        let arr = a.alloc_data(4096, 64);
        a.li(r(1), arr as i64);
        a.li(r(2), 1_000_000);
        a.li(r(3), 7);
        a.li(r(9), 150);
        let top = a.label();
        a.bind(top);
        a.div(r(2), r(3));
        a.mflo(r(4)); // 12-cycle chain feeding the store data
        a.sw(r(4), r(1), 0);
        for k in 0..6 {
            // Disjoint loads spread across cache blocks (and thus banks)
            // so bank ports do not mask the scheduling effect.
            a.lw(r(10 + k), r(1), 64 + 64 * k as i64);
        }
        a.addi(r(9), r(9), -1);
        a.bgtz(r(9), top);
        a.halt();
        let t = Interpreter::new(a.assemble().unwrap())
            .run(100_000)
            .unwrap();
        // A small window creates the commit pressure that makes the
        // loads' stall visible (steady-state pipelining hides constant
        // per-iteration delays otherwise).
        let run32 = |policy| {
            Simulator::new(
                CoreConfig::paper_128()
                    .with_window_size(32)
                    .with_policy(policy),
            )
            .run(&t)
        };
        let nas = run32(Policy::NasNo);
        let asn = run32(Policy::AsNo);
        assert!(
            asn.ipc() > nas.ipc() * 1.05,
            "address posting should release disjoint loads: AS/NO {:.2} vs NAS/NO {:.2}",
            asn.ipc(),
            nas.ipc()
        );
        assert_eq!(asn.stats.misspeculations, 0);
    }

    #[test]
    fn silent_stores_do_not_squash_under_address_scheduler() {
        // The store always rewrites the same value: under AS/NAV the
        // value filter must suppress every would-be violation.
        let mut a = Asm::new();
        let cell = a.alloc_data(8, 8);
        a.init_u32(cell, 7);
        a.li(r(1), cell as i64);
        a.li(r(2), 7);
        a.li(r(9), 200);
        let top = a.label();
        a.bind(top);
        a.mult(r(2), r(2)); // delay the store data
        a.mflo(r(3)); // 49, then... keep storing the constant instead:
        a.sw(r(2), r(1), 0); // always writes 7 over 7 (silent)
        a.lw(r(4), r(1), 0);
        a.addi(r(9), r(9), -1);
        a.bgtz(r(9), top);
        a.halt();
        let t = Interpreter::new(a.assemble().unwrap())
            .run(100_000)
            .unwrap();
        let res = run_policy(&t, Policy::AsNaive);
        assert_eq!(
            res.stats.misspeculations, 0,
            "silent stores must not trigger squashes under AS/NAV"
        );
    }

    #[test]
    fn occupancy_and_stall_stats_are_consistent() {
        let t = recurrence_trace(200);
        let r = run_policy(&t, Policy::NasNo);
        let occ = r.stats.mean_window_occupancy();
        assert!(occ > 0.0 && occ <= 128.0, "occupancy {occ}");
        assert_eq!(
            r.stats.window_occupancy.count(),
            r.stats.cycles,
            "occupancy is sampled exactly once per cycle"
        );
        // A serial recurrence under NO stalls commit on most cycles.
        assert!(
            r.stats.cpi.total_stalls() > r.stats.cycles / 4,
            "expected heavy commit stalling: {} of {}",
            r.stats.cpi.total_stalls(),
            r.stats.cycles
        );
    }

    #[test]
    fn cpi_stack_partitions_total_cycles() {
        let t = recurrence_trace(200);
        for policy in Policy::ALL {
            let r = run_policy(&t, policy);
            assert_eq!(
                r.stats.cpi.total_cycles(),
                r.stats.cycles,
                "{policy}: CPI stack must charge every cycle exactly once"
            );
        }
    }

    #[test]
    fn cpi_stack_charges_dependences_under_nas_no() {
        use mds_obs::StallCause;
        let t = recurrence_trace(300);
        let r = run_policy(&t, Policy::NasNo);
        // A serial memory recurrence under NO blocks head loads on both
        // kinds of dependence; together they must show up in the stack.
        let dep = r.stats.cpi.stall(StallCause::TrueDependence)
            + r.stats.cpi.stall(StallCause::FalseDependence);
        assert!(
            dep > 0,
            "blocked head loads must be charged to dependences: {:?}",
            r.stats.cpi
        );
    }

    #[test]
    fn cpi_stack_charges_squash_recovery_under_naive() {
        use mds_obs::StallCause;
        let t = recurrence_trace(300);
        let r = run_policy(&t, Policy::NasNaive);
        assert!(r.stats.misspeculations > 10);
        assert!(
            r.stats.cpi.stall(StallCause::SquashRecovery) > 0,
            "squashes empty the window; recovery cycles must be charged: {:?}",
            r.stats.cpi
        );
        assert_eq!(
            r.stats.squash_penalty.count(),
            r.stats.misspeculations,
            "one squash-penalty sample per squash event"
        );
        assert_eq!(r.stats.squash_penalty.sum(), r.stats.squashed);
    }

    #[test]
    fn histogram_counts_match_flat_counters() {
        let t = recurrence_trace(200);
        for policy in [Policy::NasNo, Policy::NasNaive, Policy::NasSync] {
            let r = run_policy(&t, policy);
            assert_eq!(
                r.stats.false_dep_delay.count(),
                r.stats.false_dep_loads,
                "{policy}"
            );
            assert_eq!(
                r.stats.false_dep_delay.sum(),
                r.stats.false_dep_cycles,
                "{policy}"
            );
            assert_eq!(
                r.stats.forward_distance.count(),
                r.stats.forwarded_loads,
                "{policy}"
            );
        }
    }

    #[test]
    fn tiny_lsq_throttles_but_completes() {
        let t = recurrence_trace(150);
        let mut cfg = CoreConfig::paper_128().with_policy(Policy::NasOracle);
        cfg.lsq_size = 2;
        let throttled = Simulator::new(cfg).run(&t);
        let full = run_policy(&t, Policy::NasOracle);
        assert_eq!(throttled.stats.committed, t.len() as u64);
        assert!(
            throttled.ipc() <= full.ipc(),
            "a 2-entry LSQ cannot be faster: {:.2} vs {:.2}",
            throttled.ipc(),
            full.ipc()
        );
    }

    #[test]
    fn tiny_store_buffer_still_completes() {
        let t = recurrence_trace(150);
        let mut cfg = CoreConfig::paper_128().with_policy(Policy::NasNaive);
        cfg.store_buffer = 2;
        let res = Simulator::new(cfg).run(&t);
        assert_eq!(res.stats.committed, t.len() as u64);
    }

    #[test]
    fn narrow_machine_is_slower() {
        let t = recurrence_trace(200);
        let wide = run_policy(&t, Policy::NasOracle);
        let mut cfg = CoreConfig::paper_128().with_policy(Policy::NasOracle);
        cfg.issue_width = 1;
        cfg.commit_width = 1;
        cfg.fetch_width = 1;
        let narrow = Simulator::new(cfg).run(&t);
        assert!(narrow.ipc() <= 1.0 + 1e-9, "1-wide commit bounds IPC at 1");
        assert!(wide.ipc() >= narrow.ipc());
    }

    #[test]
    fn ipc_never_exceeds_commit_width() {
        let t = recurrence_trace(100);
        for policy in Policy::ALL {
            let res = run_policy(&t, policy);
            assert!(res.ipc() <= 8.0 + 1e-9, "{policy}");
        }
    }

    #[test]
    fn branchy_code_pays_for_mispredictions() {
        // A data-dependent branch pattern (period 3, learnable) vs pure
        // straight-line filler of the same dynamic length.
        let make = |branchy: bool| {
            let mut a = Asm::new();
            a.li(r(9), 400);
            a.li(r(5), 0);
            let top = a.label();
            a.bind(top);
            if branchy {
                a.addi(r(5), r(5), 1);
                // branch on (i*2654435761 >> 13) & 1 — effectively random
                a.li(r(6), 0x9E3779B1u32 as i64);
                a.mult(r(5), r(6));
                a.mflo(r(7));
                a.srl(r(7), r(7), 13);
                a.andi(r(7), r(7), 1);
                let skip = a.label();
                a.bgtz(r(7), skip);
                a.bind(skip);
                a.nop();
            } else {
                for _ in 0..8 {
                    a.nop();
                }
            }
            a.addi(r(9), r(9), -1);
            a.bgtz(r(9), top);
            a.halt();
            Interpreter::new(a.assemble().unwrap())
                .run(100_000)
                .unwrap()
        };
        let b = run_policy(&make(true), Policy::NasNaive);
        let s = run_policy(&make(false), Policy::NasNaive);
        assert!(
            b.stats.frontend.dir_mispredicts > 50,
            "pseudo-random branches must mispredict, got {}",
            b.stats.frontend.dir_mispredicts
        );
        assert!(b.ipc() < s.ipc(), "mispredictions must cost cycles");
    }

    #[test]
    fn selective_reissue_recovers_without_refetch() {
        let t = recurrence_trace(300);
        let squash = Simulator::new(CoreConfig::paper_128().with_policy(Policy::NasNaive)).run(&t);
        let reissue = Simulator::new(
            CoreConfig::paper_128()
                .with_policy(Policy::NasNaive)
                .with_recovery(Recovery::SelectiveReissue),
        )
        .run(&t);
        assert_eq!(reissue.stats.committed, t.len() as u64);
        assert!(
            reissue.stats.misspeculations > 0,
            "recurrence must still violate"
        );
        assert_eq!(
            reissue.stats.squashed, 0,
            "selective recovery never squashes"
        );
        assert!(reissue.stats.reissued > 0);
        assert!(
            reissue.ipc() >= squash.ipc() * 0.98,
            "re-executing only dependents must not lose to squashing: {:.3} vs {:.3}",
            reissue.ipc(),
            squash.ipc()
        );
    }

    #[test]
    fn selective_reissue_is_deterministic() {
        let t = recurrence_trace(100);
        let cfg = CoreConfig::paper_128()
            .with_policy(Policy::NasNaive)
            .with_recovery(Recovery::SelectiveReissue);
        let a = Simulator::new(cfg.clone()).run(&t);
        let b = Simulator::new(cfg).run(&t);
        assert_eq!(a.stats, b.stats);
    }

    #[test]
    fn fetch_width_distributes_remainder_across_units() {
        let t = chain_loop_trace(2, 4);
        let arts = TraceArtifacts::build(&t);
        let widths = |fetch_width: usize, units: u32| {
            let mut cfg = CoreConfig::paper_128().with_window_model(WindowModel::Split {
                units,
                task_size: 8,
            });
            cfg.fetch_width = fetch_width;
            Machine::new(&cfg, &t, &arts).unit_fetch_widths
        };
        // 8 wide over 3 units: the old truncating split fetched 2+2+2=6
        // per cycle; the remainder spread restores the full 8.
        assert_eq!(widths(8, 3), vec![3, 3, 2]);
        assert_eq!(widths(8, 4), vec![2, 2, 2, 2]);
        assert_eq!(widths(7, 2), vec![4, 3]);
        // Fewer slots than units: every unit keeps the ≥1 floor (a
        // zero-width unit could never fetch its task and the split
        // window would deadlock at that task's boundary).
        assert_eq!(widths(2, 4), vec![1, 1, 1, 1]);
    }

    #[test]
    fn non_divisible_fetch_width_uses_full_bandwidth() {
        // Fetch-bound straight-line code: with the truncating split an
        // 8-wide/3-unit machine lost a quarter of its fetch bandwidth.
        let t = chain_loop_trace(60, 24);
        let run_units = |units| {
            Simulator::new(
                CoreConfig::paper_128()
                    .with_policy(Policy::NasOracle)
                    .with_window_model(WindowModel::Split {
                        units,
                        task_size: 32,
                    }),
            )
            .run(&t)
        };
        let three = run_units(3);
        assert_eq!(three.stats.committed, t.len() as u64);
        let four = run_units(4);
        // 3 units now fetch 8/cycle just like 4 units do; the residual
        // difference is window partitioning, not a 6-vs-8 fetch cliff.
        assert!(
            three.ipc() > four.ipc() * 0.85,
            "3-unit split must not be fetch-starved: {:.2} vs {:.2}",
            three.ipc(),
            four.ipc()
        );
    }

    #[test]
    fn watchdog_tolerates_long_latency_configs() {
        // A high-latency memory system must not trip the progress
        // watchdog as long as commits keep happening.
        let t = recurrence_trace(50);
        let mut cfg = CoreConfig::paper_128().with_policy(Policy::NasNo);
        cfg.mem.main.base_latency = 2_000;
        cfg.mem.l2.hit_latency = 400;
        let res = Simulator::new(cfg).run(&t);
        assert_eq!(res.stats.committed, t.len() as u64);
    }

    #[test]
    #[should_panic(expected = "simulator deadlock")]
    fn watchdog_reports_genuine_deadlock() {
        // No memory ports: the first load can never issue, commit never
        // advances, and the progress watchdog must fire (in bounded
        // time, even though fast-forward finds no event horizon).
        let t = recurrence_trace(5);
        let mut cfg = CoreConfig::paper_128();
        cfg.mem_ports = 0;
        Simulator::new(cfg).run(&t);
    }

    #[test]
    fn fast_forward_skips_are_reported_and_stats_identical() {
        let t = recurrence_trace(200);
        let cfg = CoreConfig::paper_128().with_policy(Policy::NasNo);
        let fast = Simulator::new(cfg.clone()).run(&t);
        let slow = Simulator::new(cfg).run_per_cycle(&t);
        assert_eq!(fast.stats, slow.stats);
        assert_eq!(slow.skipped_cycles, 0);
        assert!(
            fast.skipped_cycles > 0,
            "a serial memory recurrence has quiet spans to skip"
        );
        assert!(fast.skipped_cycles < fast.stats.cycles);
    }

    #[test]
    fn window_64_is_not_faster_than_128() {
        let mut a = Asm::new();
        // Independent work with long-latency divides to fill the window.
        for k in 1..=8 {
            a.li(r(k), 1000 + k as i64);
        }
        for _ in 0..60 {
            for k in 1..=4 {
                a.div(r(k), r(k + 4));
                a.mflo(r(k));
                a.addi(r(k + 4), r(k + 4), 3);
            }
        }
        a.halt();
        let t = Interpreter::new(a.assemble().unwrap())
            .run(100_000)
            .unwrap();
        let big = Simulator::new(CoreConfig::paper_128().with_policy(Policy::NasOracle)).run(&t);
        let small = Simulator::new(CoreConfig::paper_64().with_policy(Policy::NasOracle)).run(&t);
        assert!(
            big.ipc() >= small.ipc() * 0.98,
            "128-entry {} vs 64-entry {}",
            big.ipc(),
            small.ipc()
        );
    }
}
