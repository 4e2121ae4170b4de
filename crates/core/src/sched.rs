//! Incrementally-maintained issue-stage scheduler state.
//!
//! The load scheduling gates all ask variants of one question: "is there
//! an older store that has not yet (visibly) executed / posted its
//! address?". Re-scanning the whole window per candidate per cycle makes
//! the big-window sweeps quadratic-ish in window size, so [`SchedState`]
//! keeps the answers as sorted sequence-number lists that are updated at
//! the points where the underlying facts change:
//!
//! * **dispatch** of a store inserts it into `pending_stores` (and
//!   `pending_barriers` / `pending_addrs` / the synonym wait lists as the
//!   policy requires);
//! * **issue** of a store (or of its address micro-op) enqueues a
//!   *visibility event* for the cycle the execution (or address posting)
//!   becomes observable — timestamps compare with `<= now`, so a store
//!   issued this cycle must stay "pending" until the next one;
//! * **refresh**, at the top of every issue stage, drains the due events
//!   and removes each store whose slot confirms the fact (the guard
//!   protects against sequence-number reuse after a squash and against
//!   selective reissue un-executing a store before its event drains);
//! * **squash** truncates every list at the violated load (sequence
//!   numbers at or above it are re-fetched later and re-dispatch);
//! * **selective reissue** re-inserts a store it reset to un-executed
//!   (insertion is idempotent, so a store whose event had not drained
//!   yet is not duplicated);
//! * **commit** only touches the synonym wait lists: a committing store
//!   is provably absent from the pending lists (commit requires
//!   `complete_at < now`, and the exec event drained at
//!   `exec_at = complete_at`), but synonym lists track *all* in-window
//!   stores regardless of execution state.
//!
//! With these invariants, `gate_all_older_stores`, `gate_barrier`, and
//! `apply_load`'s speculative bit are O(1) head peeks; the `AS` gates
//! iterate only the (few) un-executed older stores; and `gate_synonym`
//! is a hash lookup plus binary search. The per-cycle issue order is
//! built from `pending_issue` — every op that has not fully issued —
//! so the issue stage no longer filters the whole window either: its
//! work is proportional to the ops that can still do something.
//!
//! # Wake-up states
//!
//! Most candidates cannot do anything on most cycles, so each entry of
//! `pending_issue` also caches *why* it did not issue last time it was
//! decided, as a [`Wake`] state, and the issue loop skips every
//! candidate whose state proves the decision would again be a no-op
//! (the dataflow firing rule: an instruction is looked at again only
//! when something it waits on arrives):
//!
//! * [`Wake::At`]`(t)` — its operands (or, `AS` modes, its posted
//!   address) become readable at cycle `t`. Producer completion times
//!   only ever move later once set (a silent fix-up extends a load's
//!   `complete_at`), so `t` is a lower bound and sleeping until it is
//!   exact; if the operands are still not ready at `t`, the candidate is
//!   simply decided again and re-armed.
//! * [`Wake::Producer`]`(p)` — operand producer `p` has not issued (or,
//!   split window, not even dispatched), so no ready time exists yet.
//!   Producers are older than their consumers, so a squash that removes
//!   `p` removes the candidate too.
//! * [`Wake::StoreGate`] / [`Wake::BarrierGate`] — a `NAS` load whose
//!   address is ready, held by a head-peek gate (`NAS/NO` and `NAS/SEL`
//!   predicted-wait on any older pending store, `NAS/STORE` on an older
//!   pending barrier), whose blocked-state notes are complete:
//!   `fd_blocked_at` is set, and for the synchronizing gates
//!   (`NAS/SEL`, `NAS/STORE`) `sync_delayed` is set too. While the gate
//!   is closed the decision is `Blocked` (a partially overlapping
//!   store-buffer entry can only turn it into the unsynced `Blocked`),
//!   and re-noting a fully noted load changes nothing. The skip is
//!   re-tested against the live head peek every cycle, so it ends the
//!   cycle the gate opens.
//!
//! Selective reissue resets every cached state to [`Wake::Now`]: a
//! producer it resets to un-issued can re-issue and complete *earlier*
//! than a sleeping consumer's `t`. The split window's round-robin order
//! depends on every candidate, sleeping or not, so the order is built
//! over all of `pending_issue` and sleepers are skipped in place. The
//! fast-forward horizon computes exactly what it computed before the
//! cache existed; it only uses a state where that state proves the
//! candidate contributes nothing (a sleeping gated load is operand-ready,
//! a producer that has still not issued leaves no ready time).
//!
//! The scan-based gates survive behind
//! `cfg(any(test, feature = "paranoid-sched"))` so the
//! differential-equivalence harness can assert, cycle-locked, that both
//! implementations agree (see `tests/sched_equivalence.rs`); the same
//! mode also decides every sleeping candidate and asserts the decision
//! is the no-op its state promised.

use crate::window::Window;
use mds_predict::{Synonym, SynonymWaitLists};

/// Keeps a sorted seq list sorted on insert; idempotent, O(1) for
/// in-order (ascending) insertion.
fn insert_sorted(v: &mut Vec<u64>, seq: u64) {
    match v.last() {
        Some(&last) if last < seq => v.push(seq),
        Some(&last) if last == seq => {}
        _ => {
            if let Err(pos) = v.binary_search(&seq) {
                v.insert(pos, seq);
            }
        }
    }
}

fn remove_sorted(v: &mut Vec<u64>, seq: u64) {
    if let Ok(pos) = v.binary_search(&seq) {
        v.remove(pos);
    }
}

fn truncate_sorted(v: &mut Vec<u64>, from: u64) {
    v.truncate(v.partition_point(|&s| s < from));
}

/// Why an issue candidate did nothing the last time it was decided,
/// and so when it is next worth deciding (see the module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Wake {
    /// Decide it this cycle.
    Now,
    /// Its operands become readable at this cycle.
    At(u64),
    /// This operand producer has not issued yet.
    Producer(u64),
    /// A fully noted `NAS/NO` or `NAS/SEL` predicted-wait load: asleep
    /// while an older store is pending.
    StoreGate,
    /// A fully noted `NAS/STORE` load: asleep while an older barrier
    /// store is pending.
    BarrierGate,
    /// Fully issued during the current issue loop; dropped from
    /// `pending_issue` when the loop ends.
    Retired,
}

/// One `pending_issue` entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Candidate {
    pub seq: u64,
    pub wake: Wake,
}

/// The incrementally-maintained scheduler state (see the module docs for
/// the update protocol and invariants).
#[derive(Debug, Clone, Default)]
pub(crate) struct SchedState {
    /// In-window stores that are not yet *visibly* executed — i.e.
    /// `!(executed && exec_at <= now)` as of the last [`refresh`] —
    /// sorted by sequence number.
    ///
    /// [`refresh`]: SchedState::refresh
    pending_stores: Vec<u64>,
    /// The subset of `pending_stores` carrying the `NAS/STORE` barrier
    /// prediction.
    pending_barriers: Vec<u64>,
    /// AS modes: in-window stores whose address is not yet visibly
    /// posted (`!(addr_issued && addr_posted_at <= now)`).
    pending_addrs: Vec<u64>,
    /// Store executions awaiting visibility: `(visible_at, seq)`.
    exec_events: Vec<(u64, u64)>,
    /// Store address postings awaiting visibility: `(visible_at, seq)`.
    addr_events: Vec<(u64, u64)>,
    /// All in-window ops that have not fully issued — `!issued`, or an
    /// AS-mode memory op whose address micro-op is still outstanding —
    /// each with its cached [`Wake`] state, sorted by seq. This *is* the
    /// per-cycle issue candidate set: membership is a pure function of
    /// the slot flags (no visibility delay), so ops are removed at the
    /// end of the issue loop that set the last flag and re-added when
    /// selective reissue clears `issued`.
    pending_issue: Vec<Candidate>,
    /// The lowest `pending_issue` index retired in the current issue
    /// loop (`usize::MAX`: none).
    first_retired: usize,
    /// `NAS/SYNC`: per-synonym lists of *all* in-window stores.
    pub synonyms: SynonymWaitLists,
    /// Reusable scratch for the issue order, as indices into
    /// `pending_issue` (no per-cycle allocation).
    pub order_buf: Vec<u32>,
    /// Reusable per-unit scratch for the split window's round-robin
    /// interleave.
    pub unit_bufs: Vec<Vec<u32>>,
}

impl SchedState {
    pub fn new(units: usize) -> SchedState {
        SchedState {
            unit_bufs: vec![Vec::new(); units],
            first_retired: usize::MAX,
            ..SchedState::default()
        }
    }

    // ---- queries ----------------------------------------------------------

    /// Is any store older than `seq` not yet visibly executed?
    #[inline]
    pub fn has_pending_store_before(&self, seq: u64) -> bool {
        self.pending_stores.first().is_some_and(|&s| s < seq)
    }

    /// Is any *barrier* store older than `seq` not yet visibly executed?
    #[inline]
    pub fn has_pending_barrier_before(&self, seq: u64) -> bool {
        self.pending_barriers.first().is_some_and(|&s| s < seq)
    }

    /// AS modes: is any store older than `seq` not yet visibly posted?
    #[inline]
    pub fn has_unposted_store_before(&self, seq: u64) -> bool {
        self.pending_addrs.first().is_some_and(|&s| s < seq)
    }

    /// The not-visibly-executed stores older than `seq`, ascending.
    #[inline]
    pub fn pending_stores_before(&self, seq: u64) -> &[u64] {
        &self.pending_stores[..self.pending_stores.partition_point(|&s| s < seq)]
    }

    /// Every in-window op that has not fully issued, ascending — the
    /// issue stage's candidate set, in program order.
    #[inline]
    pub fn pending_issue(&self) -> &[Candidate] {
        &self.pending_issue
    }

    /// The earliest cycle any queued visibility event (store execution
    /// or address posting) becomes due, or `u64::MAX` when none are
    /// queued. After a [`refresh`](SchedState::refresh) at cycle `now`,
    /// every remaining event is strictly in the future — the
    /// fast-forward horizon uses this to stop at the cycle a pending
    /// store becomes visibly executed or visibly posted, which is when
    /// the gates (and the head's `SchedulerLatency` classification) can
    /// change answer.
    pub fn next_event_at(&self) -> u64 {
        let exec = self.exec_events.iter().map(|&(at, _)| at).min();
        let addr = self.addr_events.iter().map(|&(at, _)| at).min();
        exec.unwrap_or(u64::MAX).min(addr.unwrap_or(u64::MAX))
    }

    // ---- updates ----------------------------------------------------------

    /// Any op entered the window.
    pub fn on_dispatch_op(&mut self, seq: u64) {
        self.insert_candidate(seq);
    }

    /// Records why the candidate at `pending_issue[idx]` did nothing
    /// this cycle, or [`Wake::Retired`] once it has fully issued (its
    /// main issue and, in AS modes, its address micro-op have both
    /// happened).
    #[inline]
    pub fn set_wake(&mut self, idx: usize, wake: Wake) {
        self.pending_issue[idx].wake = wake;
        if wake == Wake::Retired {
            self.first_retired = self.first_retired.min(idx);
        }
    }

    /// Ends an issue loop: drops every candidate it retired. Indices into
    /// `pending_issue` stay valid until this runs.
    pub fn drop_retired(&mut self) {
        let first = std::mem::replace(&mut self.first_retired, usize::MAX);
        if first == usize::MAX {
            return;
        }
        let mut kept = first;
        for i in first + 1..self.pending_issue.len() {
            let c = self.pending_issue[i];
            if c.wake != Wake::Retired {
                self.pending_issue[kept] = c;
                kept += 1;
            }
        }
        self.pending_issue.truncate(kept);
    }

    /// Selective reissue reset an op to un-issued: it is a candidate
    /// again (idempotent).
    pub fn on_op_reset(&mut self, seq: u64) {
        self.insert_candidate(seq);
    }

    /// Selective reissue ran: a producer it reset can re-issue and
    /// complete earlier than any cached wake-up time, so every candidate
    /// is decided afresh.
    pub fn wake_all(&mut self) {
        for c in &mut self.pending_issue {
            c.wake = Wake::Now;
        }
    }

    /// Sorted, idempotent insertion with a fresh [`Wake::Now`] state;
    /// O(1) for in-order (ascending) dispatch.
    fn insert_candidate(&mut self, seq: u64) {
        let fresh = Candidate {
            seq,
            wake: Wake::Now,
        };
        match self.pending_issue.last() {
            Some(last) if last.seq < seq => self.pending_issue.push(fresh),
            _ => match self.pending_issue.binary_search_by_key(&seq, |c| c.seq) {
                Ok(pos) => self.pending_issue[pos].wake = Wake::Now,
                Err(pos) => self.pending_issue.insert(pos, fresh),
            },
        }
    }

    /// A store entered the window.
    pub fn on_dispatch_store(
        &mut self,
        seq: u64,
        barrier: bool,
        as_mode: bool,
        synonym: Option<Synonym>,
    ) {
        insert_sorted(&mut self.pending_stores, seq);
        if barrier {
            insert_sorted(&mut self.pending_barriers, seq);
        }
        if as_mode {
            insert_sorted(&mut self.pending_addrs, seq);
        }
        if let Some(syn) = synonym {
            self.synonyms.insert(syn, seq);
        }
    }

    /// A store issued; its execution becomes visible at `visible_at`.
    pub fn on_store_executed(&mut self, seq: u64, visible_at: u64) {
        self.exec_events.push((visible_at, seq));
    }

    /// AS modes: a store's address micro-op issued; the posting becomes
    /// visible at `visible_at`.
    pub fn on_store_addr_posted(&mut self, seq: u64, visible_at: u64) {
        self.addr_events.push((visible_at, seq));
    }

    /// Selective reissue reset a store to un-executed: put it back in
    /// the pending lists. (Address posting is *not* reset by selective
    /// reissue, so `pending_addrs` is untouched.)
    pub fn on_store_reset(&mut self, seq: u64, barrier: bool) {
        insert_sorted(&mut self.pending_stores, seq);
        if barrier {
            insert_sorted(&mut self.pending_barriers, seq);
        }
    }

    /// A store committed (left the window).
    pub fn on_commit_store(&mut self, seq: u64, synonym: Option<Synonym>) {
        if let Some(syn) = synonym {
            self.synonyms.remove(syn, seq);
        }
        // A committing store cannot still be pending: commit requires
        // `complete_at < now` and the exec event drained at `exec_at`.
        debug_assert!(
            self.pending_stores.binary_search(&seq).is_err(),
            "store {seq} committed while still in pending_stores"
        );
    }

    /// Squash recovery: every slot with `seq >= from` left the window.
    pub fn squash_from(&mut self, from: u64) {
        truncate_sorted(&mut self.pending_stores, from);
        truncate_sorted(&mut self.pending_barriers, from);
        truncate_sorted(&mut self.pending_addrs, from);
        self.pending_issue
            .truncate(self.pending_issue.partition_point(|c| c.seq < from));
        self.exec_events.retain(|&(_, seq)| seq < from);
        self.addr_events.retain(|&(_, seq)| seq < from);
        self.synonyms.squash_from(from);
    }

    /// Drains the visibility events due by `now`, removing each store
    /// from the pending lists only when its slot confirms the fact —
    /// the guard against sequence-number reuse (squash + re-fetch) and
    /// against selective reissue un-executing a store after its event
    /// was queued.
    ///
    /// Called at the top of every issue stage, so events are always
    /// drained the cycle they become due; the pending lists then hold
    /// exactly the stores the scan-based gates would find.
    pub fn refresh(&mut self, now: u64, window: &Window) {
        let mut i = 0;
        while i < self.exec_events.len() {
            let (at, seq) = self.exec_events[i];
            if at > now {
                i += 1;
                continue;
            }
            self.exec_events.swap_remove(i);
            let visible = window
                .get(seq)
                .is_some_and(|s| s.is_store && s.executed && s.exec_at <= now);
            if visible {
                remove_sorted(&mut self.pending_stores, seq);
                remove_sorted(&mut self.pending_barriers, seq);
            }
        }
        let mut i = 0;
        while i < self.addr_events.len() {
            let (at, seq) = self.addr_events[i];
            if at > now {
                i += 1;
                continue;
            }
            self.addr_events.swap_remove(i);
            let visible = window
                .get(seq)
                .is_some_and(|s| s.is_store && s.addr_issued && s.addr_posted_at <= now);
            if visible {
                remove_sorted(&mut self.pending_addrs, seq);
            }
        }
    }

    /// Recounts every list from the window and asserts the incremental
    /// state matches — the cycle-locked half of the differential
    /// equivalence harness.
    #[cfg(any(test, feature = "paranoid-sched"))]
    pub fn assert_consistent(&self, now: u64, window: &Window, as_mode: bool) {
        let expect: Vec<u64> = window
            .iter()
            .filter(|s| s.is_store && !(s.executed && s.exec_at <= now))
            .map(|s| s.seq)
            .collect();
        assert_eq!(
            self.pending_stores, expect,
            "pending_stores diverged from the window scan at cycle {now}"
        );
        let expect: Vec<u64> = window
            .iter()
            .filter(|s| s.is_store && s.barrier && !(s.executed && s.exec_at <= now))
            .map(|s| s.seq)
            .collect();
        assert_eq!(
            self.pending_barriers, expect,
            "pending_barriers diverged from the window scan at cycle {now}"
        );
        if as_mode {
            let expect: Vec<u64> = window
                .iter()
                .filter(|s| s.is_store && !(s.addr_issued && s.addr_posted_at <= now))
                .map(|s| s.seq)
                .collect();
            assert_eq!(
                self.pending_addrs, expect,
                "pending_addrs diverged from the window scan at cycle {now}"
            );
        }
        let expect: Vec<u64> = window
            .iter()
            .filter(|s| !s.issued || (as_mode && (s.is_load || s.is_store) && !s.addr_issued))
            .map(|s| s.seq)
            .collect();
        let seqs: Vec<u64> = self.pending_issue.iter().map(|c| c.seq).collect();
        assert_eq!(
            seqs, expect,
            "pending_issue diverged from the window scan at cycle {now}"
        );
        for s in window.iter() {
            if let (true, Some(syn)) = (s.is_store, s.synonym) {
                assert_eq!(
                    self.synonyms.closest_older(syn, s.seq + 1),
                    Some(s.seq),
                    "synonym wait list lost in-window store {} at cycle {now}",
                    s.seq
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sorted_helpers_keep_order_and_dedup() {
        let mut v = Vec::new();
        for seq in [3, 1, 7, 3, 5, 7] {
            insert_sorted(&mut v, seq);
        }
        assert_eq!(v, vec![1, 3, 5, 7]);
        remove_sorted(&mut v, 3);
        remove_sorted(&mut v, 99); // absent: no-op
        assert_eq!(v, vec![1, 5, 7]);
        truncate_sorted(&mut v, 6);
        assert_eq!(v, vec![1, 5]);
    }

    #[test]
    fn queries_answer_strictly_older() {
        let mut s = SchedState::new(1);
        s.on_dispatch_store(10, true, true, None);
        assert!(!s.has_pending_store_before(10));
        assert!(s.has_pending_store_before(11));
        assert!(s.has_pending_barrier_before(11));
        assert!(s.has_unposted_store_before(11));
        assert_eq!(s.pending_stores_before(10), &[] as &[u64]);
        assert_eq!(s.pending_stores_before(11), &[10]);
    }

    #[test]
    fn candidates_keep_order_wake_states_and_retire_in_place() {
        let mut s = SchedState::new(1);
        for seq in [2, 4, 6, 8] {
            s.on_dispatch_op(seq);
        }
        let seqs = |s: &SchedState| s.pending_issue().iter().map(|c| c.seq).collect::<Vec<_>>();
        s.set_wake(0, Wake::At(50));
        s.set_wake(1, Wake::Retired);
        s.set_wake(2, Wake::StoreGate);
        // Indices stay valid until the loop ends and drops the retired.
        assert_eq!(seqs(&s), vec![2, 4, 6, 8]);
        s.drop_retired();
        assert_eq!(seqs(&s), vec![2, 6, 8]);
        assert_eq!(s.pending_issue()[1].wake, Wake::StoreGate);
        // A reset op re-enters in order, awake; re-adding is idempotent.
        s.on_op_reset(4);
        s.on_op_reset(6);
        assert_eq!(seqs(&s), vec![2, 4, 6, 8]);
        assert_eq!(s.pending_issue()[2].wake, Wake::Now);
        assert_eq!(s.pending_issue()[0].wake, Wake::At(50));
        s.wake_all();
        assert!(s.pending_issue().iter().all(|c| c.wake == Wake::Now));
        s.squash_from(6);
        assert_eq!(seqs(&s), vec![2, 4]);
    }

    #[test]
    fn squash_truncates_everything_and_reuse_is_safe() {
        let mut s = SchedState::new(1);
        s.on_dispatch_store(4, false, true, Some(1));
        s.on_dispatch_store(8, true, true, Some(1));
        s.on_store_executed(8, 100);
        s.on_store_addr_posted(8, 100);
        s.squash_from(8);
        assert_eq!(s.pending_stores_before(100), &[4]);
        assert_eq!(s.synonyms.closest_older(1, 100), Some(4));
        // Re-dispatch of the reused seq works.
        s.on_dispatch_store(8, false, true, Some(1));
        assert_eq!(s.pending_stores_before(100), &[4, 8]);
    }
}
