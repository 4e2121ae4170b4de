//! The issue stage: program-order-priority selection, functional-unit
//! and memory-port arbitration, and the load scheduling gates that
//! implement the paper's `A/B` policy space.
//!
//! The gates answer from the incrementally-maintained
//! [`SchedState`](crate::sched) instead of re-scanning the window per
//! candidate per cycle; the original scan-based implementations are kept
//! behind `cfg(any(test, feature = "paranoid-sched"))` and cross-checked
//! against the incremental answers on every evaluation when
//! [`Simulator::run_paranoid`](crate::Simulator::run_paranoid) is used.
//! Candidates whose cached wake-up state proves the decision would be a
//! no-op are skipped without being decided (see [`crate::sched`]).

use crate::config::Policy;
use crate::pipetrace::PipeStage;
use crate::sched::{Candidate, Wake};
use crate::sim::Machine;
use crate::window::Slot;
use mds_isa::FuClass;
use mds_mem::{AccessKind, Forward};

/// Functional-unit pool indices (one pool per [`FuClass`]).
const N_FU: usize = 10;

fn fu_index(class: FuClass) -> Option<usize> {
    Some(match class {
        FuClass::IntAlu => 0,
        FuClass::IntMul => 1,
        FuClass::IntDiv => 2,
        FuClass::FpAdd => 3,
        FuClass::FpMulS => 4,
        FuClass::FpMulD => 5,
        FuClass::FpDivS => 6,
        FuClass::FpDivD => 7,
        FuClass::Branch => 8,
        FuClass::Mem => 9,
        FuClass::None => return None,
    })
}

/// What the selection logic decided for one slot this cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Decision {
    /// The next step's operands are not readable yet: they arrive at
    /// `ready_at`, or never before `blocker` (an un-issued producer)
    /// issues.
    Wait { ready_at: u64, blocker: Option<u64> },
    /// Ready, but out of functional units, memory ports or store-buffer
    /// space this cycle.
    None,
    /// Issue the address micro-op (AS modes).
    AddrUop,
    /// Issue the store (write the store buffer).
    Store,
    /// Issue the load's memory access.
    Load,
    /// Issue a non-memory operation on the given functional-unit class.
    Alu(FuClass),
    /// The load is address-ready but the policy gate blocks it;
    /// `synced` marks blocking by an explicit dependence prediction.
    Blocked { synced: bool },
}

/// Result of a load scheduling gate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Gate {
    Ready,
    Blocked { synced: bool },
}

impl Machine<'_> {
    /// One cycle of the issue stage. Returns whether anything issued or
    /// any slot's blocked-state flags changed (fast-forward activity).
    pub(crate) fn issue_stage(&mut self) -> bool {
        let mut active = false;
        self.sched.refresh(self.now, &self.window);
        #[cfg(any(test, feature = "paranoid-sched"))]
        if self.paranoid {
            self.sched.assert_consistent(
                self.now,
                &self.window,
                self.cfg.policy.uses_address_scheduler(),
            );
        }

        let mut issue_left = self.cfg.issue_width;
        let mut ports_left = self.cfg.mem_ports;
        let mut fu = [self.cfg.fu_copies; N_FU];

        // Reuse the scheduler's scratch buffers: the issue order is
        // rebuilt every cycle but never reallocated.
        let mut order = std::mem::take(&mut self.sched.order_buf);
        let mut unit_bufs = std::mem::take(&mut self.sched.unit_bufs);
        order.clear();
        self.fill_issue_order(&mut order, &mut unit_bufs);
        #[cfg(any(test, feature = "paranoid-sched"))]
        if self.paranoid {
            let mut scan = Vec::new();
            let mut scan_units = vec![Vec::new(); unit_bufs.len()];
            self.scan_fill_issue_order(&mut scan, &mut scan_units);
            let pending = self.sched.pending_issue();
            let seqs: Vec<u64> = order.iter().map(|&idx| pending[idx as usize].seq).collect();
            assert_eq!(
                seqs, scan,
                "issue order diverged from the window scan at cycle {}",
                self.now
            );
        }

        for &idx in &order {
            if issue_left == 0 {
                break;
            }
            let idx = idx as usize;
            let Candidate { seq, wake } = self.sched.pending_issue()[idx];
            if self.asleep(seq, wake) {
                #[cfg(any(test, feature = "paranoid-sched"))]
                if self.paranoid {
                    self.assert_sleep_is_noop(seq, wake, ports_left, &fu);
                }
                continue;
            }
            let decision = self.decide(seq, ports_left, &fu);
            let wake = match decision {
                Decision::Wait { ready_at, blocker } => {
                    blocker.map_or(Wake::At(ready_at), Wake::Producer)
                }
                Decision::None => Wake::Now,
                Decision::Blocked { synced } => {
                    active |= self.note_blocked(seq, synced);
                    self.gated_wake(seq)
                }
                Decision::AddrUop => {
                    issue_left -= 1;
                    fu[fu_index(FuClass::IntAlu).expect("IntAlu pool")] -= 1;
                    self.apply_addr_uop(seq);
                    active = true;
                    self.issued_wake(seq)
                }
                Decision::Store => {
                    issue_left -= 1;
                    ports_left -= 1;
                    self.apply_store(seq);
                    active = true;
                    self.issued_wake(seq)
                }
                Decision::Load => {
                    issue_left -= 1;
                    ports_left -= 1;
                    self.apply_load(seq);
                    active = true;
                    self.issued_wake(seq)
                }
                Decision::Alu(class) => {
                    issue_left -= 1;
                    if let Some(i) = fu_index(class) {
                        fu[i] -= 1;
                    }
                    self.apply_alu(seq);
                    active = true;
                    self.issued_wake(seq)
                }
            };
            self.sched.set_wake(idx, wake);
        }
        self.sched.drop_retired();

        self.sched.order_buf = order;
        self.sched.unit_bufs = unit_bufs;
        active
    }

    /// Whether a candidate's cached [`Wake`] state proves that deciding
    /// it this cycle would change nothing (see the `sched` module docs).
    #[inline]
    fn asleep(&self, seq: u64, wake: Wake) -> bool {
        match wake {
            Wake::Now | Wake::Retired => false,
            Wake::At(t) => self.now < t,
            Wake::Producer(p) => self.unissued_producer(p),
            Wake::StoreGate => self.sched.has_pending_store_before(seq),
            Wake::BarrierGate => self.sched.has_pending_barrier_before(seq),
        }
    }

    /// Whether in-flight producer `p` has not issued yet (including, in
    /// the split window, not yet dispatched).
    #[inline]
    pub(crate) fn unissued_producer(&self, p: u64) -> bool {
        p >= self.next_commit && !self.window.get(p).is_some_and(|s| s.issued)
    }

    /// The paranoid twin of a skip: decides the sleeping candidate anyway
    /// and asserts the decision is the no-op its state promised — still
    /// waiting on operands, or gate-blocked with notes that re-noting
    /// would not change.
    #[cfg(any(test, feature = "paranoid-sched"))]
    fn assert_sleep_is_noop(&self, seq: u64, wake: Wake, ports_left: usize, fu: &[usize; N_FU]) {
        let decision = self.decide(seq, ports_left, fu);
        let slot = self.window.get(seq).expect("candidate in window");
        let noop = match decision {
            Decision::Wait { .. } => true,
            Decision::Blocked { synced } => {
                slot.fd_blocked_at.is_some() && (!synced || slot.sync_delayed)
            }
            _ => false,
        };
        assert!(
            noop,
            "sleeping candidate {seq} ({wake:?}) would decide {decision:?} at cycle {}",
            self.now
        );
    }

    /// The wake state of a load that was just noted gate-blocked: asleep
    /// behind its head-peek gate once its notes are complete, otherwise
    /// decided again next cycle. Only the `NAS` head-peek gates qualify:
    /// their answer is re-tested per cycle in O(1), and a `NAS` load's
    /// address operands, once ready, stay ready (only selective reissue
    /// resets a producer, and it wakes every candidate).
    fn gated_wake(&self, seq: u64) -> Wake {
        let slot = self.window.get(seq).expect("candidate in window");
        if slot.fd_blocked_at.is_none() {
            return Wake::Now;
        }
        match self.cfg.policy {
            Policy::NasNo => Wake::StoreGate,
            Policy::NasSelective if slot.predicted_wait && slot.sync_delayed => Wake::StoreGate,
            Policy::NasStoreBarrier if slot.sync_delayed => Wake::BarrierGate,
            _ => Wake::Now,
        }
    }

    /// The wake state of a candidate that just issued a step: retired if
    /// nothing is left to issue (AS-mode memory ops stay until both the
    /// address micro-op and the main op have issued).
    fn issued_wake(&self, seq: u64) -> Wake {
        let s = self.window.get(seq).expect("candidate in window");
        let fully = s.issued
            && !(self.cfg.policy.uses_address_scheduler()
                && (s.is_load || s.is_store)
                && !s.addr_issued);
        if fully {
            Wake::Retired
        } else {
            Wake::Now
        }
    }

    /// When the not-fully-issued candidate `slot`'s next step (address
    /// micro-op, store, load access or ALU op) has its operands — its
    /// register producers' values, or in `AS` modes its own posted
    /// address — as `(ready_at, blocker)`: the first cycle they are all
    /// readable, or `(u64::MAX, Some(p))` while producer `p` has not even
    /// issued (split window: not dispatched). The one readiness rule
    /// shared by [`decide`](Machine::decide) (ready iff
    /// `ready_at <= now`) and the fast-forward horizon.
    pub(crate) fn ready_at(&self, slot: &Slot) -> (u64, Option<u64>) {
        let i = slot.seq as usize;
        let mem = slot.is_load || slot.is_store;
        let as_mode = self.cfg.policy.uses_address_scheduler();
        if mem && as_mode && !slot.addr_issued {
            // Next step: the address micro-op.
            return self.producers_ready_at(self.regdeps.addr(i));
        }
        if !mem {
            return self.producers_ready_at(self.regdeps.srcs(i));
        }
        let addr = if as_mode {
            (slot.addr_posted_at, None)
        } else {
            self.producers_ready_at(self.regdeps.addr(i))
        };
        if !slot.is_store || addr.1.is_some() {
            return addr;
        }
        match self.producers_ready_at(self.regdeps.data(i)) {
            (at, None) => (at.max(addr.0), None),
            blocked => blocked,
        }
    }

    /// `(ready_at, blocker)` for one producer list: committed producers
    /// are ready, issued in-window producers at `complete_at`, and the
    /// first un-issued (or undispatched) producer blocks.
    fn producers_ready_at(&self, producers: &[u32]) -> (u64, Option<u64>) {
        let mut at = 0;
        for &p in producers {
            let p = p as u64;
            if p < self.next_commit {
                continue;
            }
            match self.window.get(p) {
                Some(s) if s.issued => at = at.max(s.complete_at),
                _ => return (u64::MAX, Some(p)),
            }
        }
        (at, None)
    }

    /// Fills `order` with candidate indices into the scheduler's
    /// `pending_issue` list, in issue-priority order — work is
    /// proportional to the not-yet-issued ops, not the window size.
    ///
    /// Continuous window: strict program order (oldest first) — the
    /// defining property of Section 2.2. Split window: units take turns
    /// (round-robin) with intra-unit age order, modeling schedulers that
    /// do not enforce program-order priority across units. The order is
    /// built over every candidate, sleeping or not — who goes first
    /// depends on all of them — and the issue loop skips sleepers in
    /// place.
    fn fill_issue_order(&self, order: &mut Vec<u32>, unit_bufs: &mut [Vec<u32>]) {
        let pending = self.sched.pending_issue();
        if self.units.len() == 1 {
            order.extend(0..pending.len() as u32);
            return;
        }
        for buf in unit_bufs.iter_mut() {
            buf.clear();
        }
        for (idx, c) in pending.iter().enumerate() {
            let unit = self.window.get(c.seq).expect("pending op in window").unit;
            unit_bufs[unit as usize].push(idx as u32);
        }
        let longest = unit_bufs.iter().map(Vec::len).max().unwrap_or(0);
        for i in 0..longest {
            for unit in unit_bufs.iter() {
                if let Some(&idx) = unit.get(i) {
                    order.push(idx);
                }
            }
        }
    }

    /// The retired window-filtering order construction, kept for the
    /// differential harness: `issue_stage` asserts the incremental order
    /// matches this scan's output on every paranoid cycle.
    #[cfg(any(test, feature = "paranoid-sched"))]
    fn scan_fill_issue_order(&self, order: &mut Vec<u64>, unit_bufs: &mut [Vec<u64>]) {
        let pending = |s: &Slot| {
            !s.issued
                || (self.cfg.policy.uses_address_scheduler()
                    && (s.is_load || s.is_store)
                    && !s.addr_issued)
        };
        if self.units.len() == 1 {
            order.extend(self.window.iter().filter(|s| pending(s)).map(|s| s.seq));
            return;
        }
        for buf in unit_bufs.iter_mut() {
            buf.clear();
        }
        for s in self.window.iter() {
            if pending(s) {
                unit_bufs[s.unit as usize].push(s.seq);
            }
        }
        let longest = unit_bufs.iter().map(Vec::len).max().unwrap_or(0);
        for i in 0..longest {
            for unit in unit_bufs.iter() {
                if let Some(&seq) = unit.get(i) {
                    order.push(seq);
                }
            }
        }
    }

    fn decide(&self, seq: u64, ports_left: usize, fu: &[usize; N_FU]) -> Decision {
        let slot = self.window.get(seq).expect("candidate in window");
        let (ready_at, blocker) = self.ready_at(slot);
        if ready_at > self.now {
            return Decision::Wait { ready_at, blocker };
        }
        if (slot.is_load || slot.is_store)
            && !slot.addr_issued
            && self.cfg.policy.uses_address_scheduler()
        {
            if fu[fu_index(FuClass::IntAlu).expect("IntAlu pool")] > 0 {
                return Decision::AddrUop;
            }
            return Decision::None;
        }
        if slot.is_store {
            if ports_left > 0 && !self.sb.is_full() {
                return Decision::Store;
            }
            return Decision::None;
        }
        if slot.is_load {
            return match self.load_gate(slot) {
                Gate::Blocked { synced } => Decision::Blocked { synced },
                Gate::Ready if ports_left > 0 => Decision::Load,
                Gate::Ready => Decision::None,
            };
        }
        let class = self.ops[seq as usize].fu_class;
        if fu_index(class).is_none_or(|fi| fu[fi] > 0) {
            return Decision::Alu(class);
        }
        Decision::None
    }

    // ---- load scheduling gates (the paper's policy space) -----------------

    fn load_gate(&self, slot: &Slot) -> Gate {
        let gate = self.policy_gate(slot);
        if gate == (Gate::Blocked { synced: false }) {
            // The store-buffer check below could only give this answer
            // too: skip its search.
            return gate;
        }
        // A partially-overlapping older store in the store buffer blocks
        // the load under every policy: no single source can supply the
        // value until the store drains.
        if self.sb.forward(slot.seq, slot.addr, slot.size) == Forward::Partial {
            return Gate::Blocked { synced: false };
        }
        gate
    }

    fn policy_gate(&self, slot: &Slot) -> Gate {
        match self.cfg.policy {
            Policy::NasNo => self.gate_all_older_stores(slot, false),
            Policy::NasNaive => Gate::Ready,
            Policy::NasSelective => {
                if slot.predicted_wait {
                    self.gate_all_older_stores(slot, true)
                } else {
                    Gate::Ready
                }
            }
            Policy::NasStoreBarrier => self.gate_barrier(slot),
            Policy::NasSync => self.gate_synonym(slot),
            Policy::NasStoreSets => self.gate_store_set(slot),
            Policy::NasOracle => self.gate_oracle(slot),
            Policy::AsNo => self.gate_addr_no_spec(slot),
            Policy::AsNaive => self.gate_addr_naive(slot),
        }
    }

    /// `NAS/NO` (and the waiting half of `NAS/SEL`): wait until every
    /// older store in the window has executed. O(1): a head peek at the
    /// pending-store list.
    fn gate_all_older_stores(&self, slot: &Slot, synced: bool) -> Gate {
        let gate = if self.sched.has_pending_store_before(slot.seq) {
            Gate::Blocked { synced }
        } else {
            Gate::Ready
        };
        #[cfg(any(test, feature = "paranoid-sched"))]
        if self.paranoid {
            assert_eq!(
                gate,
                self.scan_gate_all_older_stores(slot, synced),
                "gate_all_older_stores diverged: cycle {} load {}",
                self.now,
                slot.seq
            );
        }
        gate
    }

    /// `NAS/STORE`: wait only for older *predicted-barrier* stores.
    /// O(1): a head peek at the pending-barrier list.
    fn gate_barrier(&self, slot: &Slot) -> Gate {
        let gate = if self.sched.has_pending_barrier_before(slot.seq) {
            Gate::Blocked { synced: true }
        } else {
            Gate::Ready
        };
        #[cfg(any(test, feature = "paranoid-sched"))]
        if self.paranoid {
            assert_eq!(
                gate,
                self.scan_gate_barrier(slot),
                "gate_barrier diverged: cycle {} load {}",
                self.now,
                slot.seq
            );
        }
        gate
    }

    /// `NAS/SYNC`: wait for the closest older store marked with the same
    /// synonym; the load may issue one cycle after that store issues.
    /// Resolved through the synonym wait lists: a hash lookup plus a
    /// binary search instead of a window scan.
    fn gate_synonym(&self, slot: &Slot) -> Gate {
        let producer = slot
            .synonym
            .and_then(|syn| self.sched.synonyms.closest_older(syn, slot.seq));
        let gate = match producer {
            Some(pseq) => {
                let st = self
                    .window
                    .get(pseq)
                    .expect("synonym wait lists track in-window stores");
                // `issued && now > issue_at` looks different from the
                // `executed && exec_at <= now` the other gates use, but
                // for an in-window store the two are identical: stores
                // set `exec_at = issue_at + 1` at issue, and selective
                // reissue resets `issued`/`executed` together. The
                // issued-based phrasing mirrors Section 3.5's
                // synchronization rule — the load is released one cycle
                // after the store it synchronizes with *issues* — and is
                // pinned by `sync_released_one_cycle_after_store_issue`
                // in tests/policy_orderings.rs.
                if st.issued && self.now > st.issue_at {
                    Gate::Ready
                } else {
                    Gate::Blocked { synced: true }
                }
            }
            None => Gate::Ready,
        };
        #[cfg(any(test, feature = "paranoid-sched"))]
        if self.paranoid {
            assert_eq!(
                gate,
                self.scan_gate_synonym(slot),
                "gate_synonym diverged: cycle {} load {}",
                self.now,
                slot.seq
            );
        }
        gate
    }

    /// Store-set synchronization: wait for the specific store instance
    /// the LFST named at dispatch. Already scan-free: `sset_wait` *is*
    /// the store-set-indexed wait entry, resolved with one window
    /// binary search. The issued-based predicate matches `gate_synonym`
    /// (see the comment there).
    fn gate_store_set(&self, slot: &Slot) -> Gate {
        let Some(wseq) = slot.sset_wait else {
            return Gate::Ready;
        };
        match self.window.get(wseq) {
            Some(st) if !(st.issued && self.now > st.issue_at) => Gate::Blocked { synced: true },
            _ => Gate::Ready, // issued, committed, or squashed
        }
    }

    /// `NAS/ORACLE`: wait exactly for the stores that truly feed this
    /// load (perfect a-priori dependence knowledge). The producer lists
    /// are tiny and precomputed; no window scan to replace.
    fn gate_oracle(&self, slot: &Slot) -> Gate {
        for &p in self.oracle.producers(slot.seq as usize) {
            let p = p as u64;
            if p < self.next_commit {
                continue; // committed, data in cache or store buffer
            }
            match self.window.get(p) {
                Some(s) if s.executed && s.exec_at <= self.now => {}
                // In-window but not executed, or (split window) not even
                // dispatched yet: the load must wait for its producer.
                _ => return Gate::Blocked { synced: false },
            }
        }
        Gate::Ready
    }

    /// `AS/NO`: every older store must have *posted* its address, no
    /// older instruction may still be outside the window, and posted
    /// overlapping stores must have executed. Iterates only the older
    /// *un-executed* stores (once the unposted check passes, every one
    /// of them is posted), not the whole window.
    fn gate_addr_no_spec(&self, slot: &Slot) -> Gate {
        let gate = self.addr_no_spec_incremental(slot);
        #[cfg(any(test, feature = "paranoid-sched"))]
        if self.paranoid {
            assert_eq!(
                gate,
                self.scan_gate_addr_no_spec(slot),
                "gate_addr_no_spec diverged: cycle {} load {}",
                self.now,
                slot.seq
            );
        }
        gate
    }

    fn addr_no_spec_incremental(&self, slot: &Slot) -> Gate {
        if self.min_undispatched() < slot.seq || self.sched.has_unposted_store_before(slot.seq) {
            return Gate::Blocked { synced: false };
        }
        for &sseq in self.sched.pending_stores_before(slot.seq) {
            let s = self.window.get(sseq).expect("pending store in window");
            if s.overlaps(slot) {
                return Gate::Blocked { synced: false }; // known true dependence
            }
        }
        Gate::Ready
    }

    /// `AS/NAV`: ignore unposted store addresses; always respect posted
    /// overlapping stores ("if a true dependence is found, a load always
    /// waits", Section 3.4). Iterates only the older un-executed stores.
    fn gate_addr_naive(&self, slot: &Slot) -> Gate {
        let gate = self.addr_naive_incremental(slot);
        #[cfg(any(test, feature = "paranoid-sched"))]
        if self.paranoid {
            assert_eq!(
                gate,
                self.scan_gate_addr_naive(slot),
                "gate_addr_naive diverged: cycle {} load {}",
                self.now,
                slot.seq
            );
        }
        gate
    }

    fn addr_naive_incremental(&self, slot: &Slot) -> Gate {
        for &sseq in self.sched.pending_stores_before(slot.seq) {
            let s = self.window.get(sseq).expect("pending store in window");
            if s.addr_issued && s.addr_posted_at <= self.now && s.overlaps(slot) {
                return Gate::Blocked { synced: false };
            }
        }
        Gate::Ready
    }

    // ---- the retired scan-based gates (differential-equivalence only) -----
    //
    // These are the original O(window) implementations, kept verbatim so
    // `run_paranoid` can assert, on every evaluation, that the
    // incremental answers are identical.

    #[cfg(any(test, feature = "paranoid-sched"))]
    fn scan_gate_all_older_stores(&self, slot: &Slot, synced: bool) -> Gate {
        for s in self.window.iter() {
            if s.seq >= slot.seq {
                break;
            }
            if s.is_store && !(s.executed && s.exec_at <= self.now) {
                return Gate::Blocked { synced };
            }
        }
        Gate::Ready
    }

    #[cfg(any(test, feature = "paranoid-sched"))]
    fn scan_gate_barrier(&self, slot: &Slot) -> Gate {
        for s in self.window.iter() {
            if s.seq >= slot.seq {
                break;
            }
            if s.is_store && s.barrier && !(s.executed && s.exec_at <= self.now) {
                return Gate::Blocked { synced: true };
            }
        }
        Gate::Ready
    }

    #[cfg(any(test, feature = "paranoid-sched"))]
    fn scan_gate_synonym(&self, slot: &Slot) -> Gate {
        let Some(syn) = slot.synonym else {
            return Gate::Ready;
        };
        let mut producer: Option<&Slot> = None;
        for s in self.window.iter() {
            if s.seq >= slot.seq {
                break;
            }
            if s.is_store && s.synonym == Some(syn) {
                producer = Some(s); // keep the closest (youngest older)
            }
        }
        match producer {
            Some(st) if !(st.issued && self.now > st.issue_at) => Gate::Blocked { synced: true },
            _ => Gate::Ready,
        }
    }

    #[cfg(any(test, feature = "paranoid-sched"))]
    fn scan_gate_addr_no_spec(&self, slot: &Slot) -> Gate {
        if self.min_undispatched() < slot.seq {
            return Gate::Blocked { synced: false };
        }
        for s in self.window.iter() {
            if s.seq >= slot.seq {
                break;
            }
            if !s.is_store {
                continue;
            }
            if !(s.addr_issued && s.addr_posted_at <= self.now) {
                return Gate::Blocked { synced: false }; // unresolved address
            }
            if s.overlaps(slot) && !(s.executed && s.exec_at <= self.now) {
                return Gate::Blocked { synced: false }; // known true dependence
            }
        }
        Gate::Ready
    }

    #[cfg(any(test, feature = "paranoid-sched"))]
    fn scan_gate_addr_naive(&self, slot: &Slot) -> Gate {
        for s in self.window.iter() {
            if s.seq >= slot.seq {
                break;
            }
            if s.is_store
                && s.addr_issued
                && s.addr_posted_at <= self.now
                && s.overlaps(slot)
                && !(s.executed && s.exec_at <= self.now)
            {
                return Gate::Blocked { synced: false };
            }
        }
        Gate::Ready
    }

    // ---- false-dependence accounting (Table 3) ----------------------------

    /// Records the first cycle a load was address-ready but gate-blocked,
    /// classifying the blockage as a true or false dependence using the
    /// oracle ("we check to see if a true dependence with a preceding yet
    /// un-executed store exists", Section 3.2). Returns whether any flag
    /// changed (re-noting an already-noted load is not activity).
    fn note_blocked(&mut self, seq: u64, synced: bool) -> bool {
        let first_block = self
            .window
            .get(seq)
            .is_some_and(|s| s.fd_blocked_at.is_none());
        // The oracle walk classifies the first block only.
        let has_true_dep = first_block && self.load_has_unexecuted_producer(seq);
        let now = self.now;
        let Some(slot) = self.window.get_mut(seq) else {
            return false;
        };
        let mut changed = false;
        if synced && !slot.sync_delayed {
            slot.sync_delayed = true;
            changed = true;
        }
        if first_block {
            slot.fd_blocked_at = Some(now);
            slot.fd_false = !has_true_dep;
            changed = true;
        }
        changed
    }

    fn load_has_unexecuted_producer(&self, seq: u64) -> bool {
        self.oracle.producers(seq as usize).iter().any(|&p| {
            let p = p as u64;
            if p < self.next_commit {
                return false;
            }
            match self.window.get(p) {
                Some(s) => !(s.executed && s.exec_at <= self.now),
                None => true, // not yet dispatched
            }
        })
    }

    // ---- apply steps -------------------------------------------------------

    fn apply_addr_uop(&mut self, seq: u64) {
        let now = self.now;
        let lat = self.cfg.addr_sched_latency;
        let i = seq as usize;
        let mut store_posted_at = None;
        if let Some(slot) = self.window.get_mut(seq) {
            slot.addr_issued = true;
            slot.addr_posted_at = now + 1 + lat;
            if slot.is_store {
                store_posted_at = Some(slot.addr_posted_at);
            }
        }
        if let Some(at) = store_posted_at {
            self.sched.on_store_addr_posted(seq, at);
        }
        self.trace_event(seq, PipeStage::AddrIssue, now);
        self.window.mark_propagated(self.regdeps.addr(i));
    }

    fn apply_store(&mut self, seq: u64) {
        let now = self.now;
        let i = seq as usize;
        let (addr, size, value, pc) = {
            let slot = self.window.get(seq).expect("store in window");
            (slot.addr, slot.size, slot.store_value, self.trace.pc(i))
        };
        self.sb.push(seq, addr, size, value);
        if let Some(slot) = self.window.get_mut(seq) {
            slot.issued = true;
            slot.issue_at = now;
            slot.executed = true;
            slot.exec_at = now + 1;
            slot.complete_at = now + 1;
        }
        // The execution becomes visible to the gates at `exec_at`.
        self.sched.on_store_executed(seq, now + 1);
        self.pending_checks.push((seq, now + 1));
        self.trace_event(seq, PipeStage::Issue, now);
        self.trace_event(seq, PipeStage::Execute, now + 1);
        if self.cfg.policy == Policy::NasStoreSets {
            self.store_sets.issue_store(pc, seq);
        }
        self.window.mark_propagated(self.regdeps.addr(i));
        self.window.mark_propagated(self.regdeps.data(i));
    }

    fn apply_load(&mut self, seq: u64) {
        let now = self.now;
        let i = seq as usize;
        let (addr, size) = {
            let slot = self.window.get(seq).expect("load in window");
            (slot.addr, slot.size)
        };
        let access_at = now + 1; // address generation
        let (complete_at, forwarded_from) = match self.sb.forward(seq, addr, size) {
            Forward::Hit { store_seq, .. } => (access_at + 1, Some(store_seq)),
            Forward::Partial => unreachable!("gate blocks partial forwards"),
            Forward::Miss => (self.mem.access(AccessKind::Read, addr, access_at), None),
        };
        let dmiss =
            forwarded_from.is_none() && complete_at > access_at + self.cfg.mem.l1d.hit_latency;
        // Speculative if any older store in the window has not executed:
        // an O(1) peek at the pending-store list.
        let speculative = self.sched.has_pending_store_before(seq);
        #[cfg(any(test, feature = "paranoid-sched"))]
        if self.paranoid {
            let scan = self
                .window
                .iter()
                .any(|s| s.seq < seq && s.is_store && !(s.executed && s.exec_at <= now));
            assert_eq!(
                speculative, scan,
                "speculative bit diverged: cycle {now} load {seq}"
            );
        }
        if let Some(slot) = self.window.get_mut(seq) {
            slot.issued = true;
            slot.issue_at = now;
            slot.executed = true;
            slot.exec_at = access_at;
            slot.complete_at = complete_at;
            slot.forwarded_from = forwarded_from;
            slot.speculative = speculative;
            slot.dmiss = dmiss;
        }
        self.window.mark_propagated(self.regdeps.addr(i));
        self.trace_event(seq, PipeStage::Issue, now);
        self.trace_event(seq, PipeStage::Execute, access_at);
        self.trace_event(seq, PipeStage::Complete, complete_at);
    }

    fn apply_alu(&mut self, seq: u64) {
        let now = self.now;
        let i = seq as usize;
        let latency = self.ops[i].latency;
        if let Some(slot) = self.window.get_mut(seq) {
            slot.issued = true;
            slot.issue_at = now;
            slot.complete_at = now + latency;
            slot.executed = true; // non-memory ops have no memory action
            slot.exec_at = now + latency;
        }
        self.window.mark_propagated(self.regdeps.srcs(i));
        self.trace_event(seq, PipeStage::Issue, now);
        self.trace_event(seq, PipeStage::Complete, now + latency);
    }
}

#[cfg(test)]
mod tests {
    use crate::config::CoreConfig;
    use crate::pipetrace::PipeStage;
    use crate::sim::Simulator;
    use mds_isa::{Asm, FuClass, Interpreter, Reg, Trace};

    fn r(n: u8) -> Reg {
        Reg::int(n)
    }

    /// One producer feeding two independent multiplies: both become
    /// ready the same cycle, so a single-copy IntMul pool must defer
    /// the younger one.
    fn twin_mult_trace() -> Trace {
        let mut a = Asm::new();
        a.li(r(1), 6);
        a.mult(r(1), r(1));
        a.mult(r(1), r(1));
        a.halt();
        Interpreter::new(a.assemble().unwrap()).run(100).unwrap()
    }

    fn issue_cycles_of_mults(cfg: CoreConfig, trace: &Trace) -> Vec<u64> {
        let res = Simulator::new(cfg.with_pipetrace(true)).run(trace);
        let pt = res.pipetrace.expect("pipetrace requested");
        (0..trace.len() as u64)
            .filter(|&seq| trace.inst(seq as usize).op.fu_class() == FuClass::IntMul)
            .map(|seq| {
                pt.of(seq)
                    .iter()
                    .find(|e| e.stage == PipeStage::Issue)
                    .expect("mult issued")
                    .cycle
            })
            .collect()
    }

    #[test]
    fn fu_pool_exhaustion_defers_the_younger_op_by_one_cycle() {
        let t = twin_mult_trace();
        let mut cfg = CoreConfig::paper_128();
        cfg.fu_copies = 1;
        let starved = issue_cycles_of_mults(cfg, &t);
        assert_eq!(starved.len(), 2);
        assert_eq!(
            starved[1],
            starved[0] + 1,
            "one IntMul copy: the younger mult must wait exactly one cycle"
        );

        let wide = issue_cycles_of_mults(CoreConfig::paper_128(), &t);
        assert_eq!(
            wide[0], wide[1],
            "eight IntMul copies: both mults issue together"
        );
        assert_eq!(wide[0], starved[0], "the older mult is never delayed");
    }
}
