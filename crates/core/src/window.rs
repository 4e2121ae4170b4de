//! The instruction window (RUU/reorder buffer) and per-instruction state.

use crate::csr::Csr;
use mds_isa::Trace;
use std::collections::vec_deque::{self, VecDeque};

/// Per-dynamic-instruction state while in flight.
///
/// Timestamps are absolute cycles; `u64::MAX` marks "not yet".
#[derive(Debug, Clone)]
pub(crate) struct Slot {
    /// Dynamic index into the trace; doubles as the sequence number.
    pub seq: u64,
    /// Owning unit (0 in the continuous window).
    pub unit: u32,
    /// Cached instruction classification.
    pub is_load: bool,
    /// Whether this is a store.
    pub is_store: bool,
    /// Effective address (memory ops).
    pub addr: u64,
    /// Access size in bytes (memory ops).
    pub size: u8,
    /// Store: value written (masked).
    pub store_value: u64,
    /// Store: value overwritten (masked) — for the value-based filter.
    pub store_old: u64,

    /// Whether the main operation has issued.
    pub issued: bool,
    /// Issue cycle of the main operation.
    pub issue_at: u64,
    /// Cycle the result is available to consumers.
    pub complete_at: u64,
    /// Memory ops: whether the memory action happened (loads: read
    /// performed; stores: store-buffer write done).
    pub executed: bool,
    /// Cycle the memory action happened.
    pub exec_at: u64,

    /// AS modes: whether the address micro-op has issued.
    pub addr_issued: bool,
    /// AS modes: cycle the address becomes visible to the scheduler.
    pub addr_posted_at: u64,

    /// Loads: sequence number of the store the value was forwarded from.
    pub forwarded_from: Option<u64>,
    /// Loads: issued while older stores were still unresolved.
    pub speculative: bool,
    /// Loads: a consumer has issued using this load's value.
    pub value_propagated: bool,
    /// Loads: the access missed in the L1 data cache (completion took
    /// longer than a hit would have).
    pub dmiss: bool,

    /// `NAS/SYNC`: MDPT synonym (producer for stores, consumer for loads).
    pub synonym: Option<u32>,
    /// `NAS/SEL`: predicted to have a dependence — do not speculate.
    pub predicted_wait: bool,
    /// `NAS/STORE`: this store is a predicted barrier.
    pub barrier: bool,
    /// `NAS/SSET`: store sequence number this load must wait on.
    pub sset_wait: Option<u64>,

    /// False-dependence accounting: cycle the load first had its address
    /// and was blocked by the policy gate.
    pub fd_blocked_at: Option<u64>,
    /// Whether the blocking was a false dependence (no true producer
    /// among the un-executed older stores at that time).
    pub fd_false: bool,
    /// Loads delayed by an explicit synchronization prediction.
    pub sync_delayed: bool,
}

pub(crate) const NOT_YET: u64 = u64::MAX;

impl Slot {
    /// Byte-range overlap between two memory slots (overflow-safe: the
    /// naive `addr + size` comparison wraps near the top of the address
    /// space).
    #[inline]
    pub fn overlaps(&self, other: &Slot) -> bool {
        mds_mem::ranges_overlap(self.addr, self.size, other.addr, other.size)
    }
}

/// The instruction window: slots ordered by sequence number, held in a
/// ring buffer.
///
/// The continuous window dispatches in order (pushes at the back), so
/// its slots hold consecutive sequence numbers and the slot for `seq`
/// sits at ring offset `seq - front.seq`: lookup is one index and one
/// compare, and commit (`pop_front`) is O(1). The split window may
/// dispatch out of order (sorted insertion), which leaves gaps; when
/// the slot at the computed offset does not carry `seq`, lookup falls
/// back to a binary search.
#[derive(Debug, Clone, Default)]
pub(crate) struct Window {
    slots: VecDeque<Slot>,
    unit_counts: Vec<usize>,
}

impl Window {
    pub fn new(units: u32) -> Window {
        Window {
            slots: VecDeque::new(),
            unit_counts: vec![0; units as usize],
        }
    }

    pub fn len(&self) -> usize {
        self.slots.len()
    }

    pub fn unit_count(&self, unit: u32) -> usize {
        self.unit_counts[unit as usize]
    }

    /// Inserts a slot, keeping sequence order.
    pub fn insert(&mut self, slot: Slot) {
        self.unit_counts[slot.unit as usize] += 1;
        match self.slots.back() {
            Some(last) if last.seq < slot.seq => self.slots.push_back(slot),
            _ => {
                let pos = self.slots.partition_point(|s| s.seq < slot.seq);
                debug_assert!(
                    self.slots.get(pos).is_none_or(|s| s.seq != slot.seq),
                    "duplicate sequence number {}",
                    slot.seq
                );
                self.slots.insert(pos, slot);
            }
        }
    }

    /// Ring index of the slot holding `seq`, if it is in the window.
    #[inline]
    fn position(&self, seq: u64) -> Option<usize> {
        let first = self.slots.front()?.seq;
        let offset = usize::try_from(seq.checked_sub(first)?).ok()?;
        match self.slots.get(offset) {
            Some(s) if s.seq == seq => Some(offset),
            // Younger than every slot: not dispatched (yet).
            None if self.slots.back()?.seq < seq => None,
            // Gaps (split window) put `seq`, if present, at a lower index.
            _ => self.slots.binary_search_by_key(&seq, |s| s.seq).ok(),
        }
    }

    #[inline]
    pub fn get(&self, seq: u64) -> Option<&Slot> {
        self.position(seq).map(|i| &self.slots[i])
    }

    #[inline]
    pub fn get_mut(&mut self, seq: u64) -> Option<&mut Slot> {
        self.position(seq).map(|i| &mut self.slots[i])
    }

    pub fn iter(&self) -> vec_deque::Iter<'_, Slot> {
        self.slots.iter()
    }

    /// The slots with `seq >= from`, oldest first.
    pub fn iter_from(&self, from: u64) -> vec_deque::Iter<'_, Slot> {
        let pos = self.slots.partition_point(|s| s.seq < from);
        self.slots.range(pos..)
    }

    /// Marks in-window loads among `producers` as value-propagated (a
    /// consumer has issued with their value).
    pub fn mark_propagated(&mut self, producers: &[u32]) {
        for &p in producers {
            if let Some(s) = self.get_mut(p as u64) {
                if s.is_load {
                    s.value_propagated = true;
                }
            }
        }
    }

    pub fn front(&self) -> Option<&Slot> {
        self.slots.front()
    }

    /// Removes and returns the oldest slot.
    pub fn pop_front(&mut self) -> Option<Slot> {
        let s = self.slots.pop_front()?;
        self.unit_counts[s.unit as usize] -= 1;
        Some(s)
    }

    /// Removes every slot with `seq >= from`, returning them (oldest
    /// first) for squash bookkeeping.
    pub fn squash_from(&mut self, from: u64) -> Vec<Slot> {
        let pos = self.slots.partition_point(|s| s.seq < from);
        let removed: Vec<Slot> = self.slots.drain(pos..).collect();
        for s in &removed {
            self.unit_counts[s.unit as usize] -= 1;
        }
        removed
    }
}

/// Register dependence edges, precomputed from the trace.
///
/// `producer` lists hold the dynamic indices of the most recent older
/// writers of each source register. Precomputing them from the trace (in
/// program order) makes register scheduling independent of dispatch
/// order, which the split window needs: a load may dispatch before the
/// older producer of its base register is even fetched.
///
/// Each list family is stored in CSR form — one flat array for all
/// dynamic instructions instead of one boxed slice each.
#[derive(Debug, Clone)]
pub(crate) struct RegDeps {
    /// All source-operand producers (for non-memory ops and branches).
    srcs: Csr,
    /// Producers of the address (base register) operand of memory ops.
    addr: Csr,
    /// Producers of the data operand of stores.
    data: Csr,
}

impl RegDeps {
    pub fn build(trace: &Trace) -> RegDeps {
        use mds_isa::NUM_REGS;
        let n = trace.len();
        let mut last_writer: [Option<u32>; NUM_REGS] = [None; NUM_REGS];
        let mut srcs = Csr::with_row_capacity(n);
        let mut addr = Csr::with_row_capacity(n);
        let mut data = Csr::with_row_capacity(n);
        let mut row: Vec<u32> = Vec::new();
        for i in 0..n {
            let inst = trace.inst(i);
            if inst.op.is_mem() {
                srcs.push_row(&[]);
                row.clear();
                if let Some(base) = inst.base_reg() {
                    if let Some(p) = last_writer[base.index()] {
                        row.push(p);
                    }
                }
                addr.push_row(&row);
                row.clear();
                if let Some(dr) = inst.store_data_reg() {
                    if let Some(p) = last_writer[dr.index()] {
                        row.push(p);
                    }
                }
                data.push_row(&row);
            } else {
                row.clear();
                for r in inst.src_regs() {
                    if let Some(p) = last_writer[r.index()] {
                        if !row.contains(&p) {
                            row.push(p);
                        }
                    }
                }
                srcs.push_row(&row);
                addr.push_row(&[]);
                data.push_row(&[]);
            }
            for r in inst.dst_regs() {
                last_writer[r.index()] = Some(i as u32);
            }
        }
        RegDeps { srcs, addr, data }
    }

    /// Source-operand producers of the instruction at dynamic index `i`
    /// (empty for memory ops).
    #[inline]
    pub fn srcs(&self, i: usize) -> &[u32] {
        self.srcs.row(i)
    }

    /// Address (base register) producers of the memory op at dynamic
    /// index `i` (empty for non-memory ops).
    #[inline]
    pub fn addr(&self, i: usize) -> &[u32] {
        self.addr.row(i)
    }

    /// Data-operand producers of the store at dynamic index `i` (empty
    /// for everything else).
    #[inline]
    pub fn data(&self, i: usize) -> &[u32] {
        self.data.row(i)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mds_isa::{Asm, Interpreter, Reg};
    use proptest::prelude::*;

    fn blank(seq: u64, unit: u32) -> Slot {
        Slot {
            seq,
            unit,
            is_load: false,
            is_store: false,
            addr: 0,
            size: 0,
            store_value: 0,
            store_old: 0,
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
        }
    }

    #[test]
    fn insert_keeps_order_even_out_of_order() {
        let mut w = Window::new(2);
        w.insert(blank(5, 1));
        w.insert(blank(2, 0));
        w.insert(blank(9, 1));
        w.insert(blank(3, 0));
        let seqs: Vec<u64> = w.iter().map(|s| s.seq).collect();
        assert_eq!(seqs, vec![2, 3, 5, 9]);
        assert_eq!(w.unit_count(0), 2);
        assert_eq!(w.unit_count(1), 2);
    }

    #[test]
    fn squash_removes_suffix_and_fixes_counts() {
        let mut w = Window::new(2);
        for i in 0..6 {
            w.insert(blank(i, (i % 2) as u32));
        }
        let removed = w.squash_from(3);
        assert_eq!(removed.len(), 3);
        assert_eq!(w.len(), 3);
        assert_eq!(w.unit_count(0), 2); // seqs 0, 2
        assert_eq!(w.unit_count(1), 1); // seq 1
        assert!(w.get(3).is_none());
        assert!(w.get(2).is_some());
    }

    #[test]
    fn pop_front_is_oldest() {
        let mut w = Window::new(1);
        w.insert(blank(7, 0));
        w.insert(blank(3, 0));
        assert_eq!(w.pop_front().unwrap().seq, 3);
        assert_eq!(w.front().unwrap().seq, 7);
    }

    /// The sorted-`Vec` window the ring replaced, kept as the reference
    /// model: binary-search lookup, `remove(0)` commit.
    #[derive(Default)]
    struct Model {
        slots: Vec<Slot>,
    }

    impl Model {
        fn insert(&mut self, slot: Slot) {
            let pos = self.slots.partition_point(|s| s.seq < slot.seq);
            self.slots.insert(pos, slot);
        }

        fn get(&self, seq: u64) -> Option<&Slot> {
            let i = self.slots.binary_search_by_key(&seq, |s| s.seq).ok()?;
            Some(&self.slots[i])
        }

        fn get_mut(&mut self, seq: u64) -> Option<&mut Slot> {
            let i = self.slots.binary_search_by_key(&seq, |s| s.seq).ok()?;
            Some(&mut self.slots[i])
        }

        fn pop_front(&mut self) -> Option<Slot> {
            (!self.slots.is_empty()).then(|| self.slots.remove(0))
        }

        fn squash_from(&mut self, from: u64) -> Vec<Slot> {
            let pos = self.slots.partition_point(|s| s.seq < from);
            self.slots.drain(pos..).collect()
        }
    }

    /// A slot whose `addr` tags it, so a lookup that lands on the wrong
    /// slot is caught even when the `seq` happens to match.
    fn tagged(seq: u64, unit: u32) -> Slot {
        let mut s = blank(seq, unit);
        s.addr = seq * 1000 + unit as u64;
        s
    }

    fn key(s: Option<&Slot>) -> Option<(u64, u32, u64)> {
        s.map(|s| (s.seq, s.unit, s.addr))
    }

    const UNITS: u32 = 3;

    /// Checks every observable of `w` against `m`, probing lookups from
    /// below the front to past the back (and every gap in between).
    fn agree(w: &mut Window, m: &mut Model, floor: u64, ceil: u64) -> Result<(), TestCaseError> {
        let seqs: Vec<u64> = w.iter().map(|s| s.seq).collect();
        let model_seqs: Vec<u64> = m.slots.iter().map(|s| s.seq).collect();
        prop_assert_eq!(seqs, model_seqs);
        prop_assert_eq!(w.len(), m.slots.len());
        prop_assert_eq!(key(w.front()), key(m.slots.first()));
        for u in 0..UNITS {
            let n = m.slots.iter().filter(|s| s.unit == u).count();
            prop_assert_eq!(w.unit_count(u), n, "unit {} count", u);
        }
        for seq in floor.saturating_sub(3)..ceil + 3 {
            prop_assert_eq!(key(w.get(seq)), key(m.get(seq)), "get({})", seq);
            // get_mut must reach the same slot: bump its tag in both.
            let (a, b) = (w.get_mut(seq), m.get_mut(seq));
            prop_assert_eq!(a.is_some(), b.is_some(), "get_mut({})", seq);
            if let (Some(a), Some(b)) = (a, b) {
                a.addr += 1;
                b.addr += 1;
            }
            let from: Vec<u64> = w.iter_from(seq).map(|s| s.seq).collect();
            let model_from: Vec<u64> = m
                .slots
                .iter()
                .filter(|s| s.seq >= seq)
                .map(|s| s.seq)
                .collect();
            prop_assert_eq!(from, model_from, "iter_from({})", seq);
        }
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Random in-order and out-of-order inserts, commits, and
        /// squashes followed by reuse of the squashed sequence numbers:
        /// the ring and the sorted-`Vec` model agree on every lookup,
        /// iteration order, and unit count after every step.
        #[test]
        fn ring_matches_sorted_vec_model(
            ops in proptest::collection::vec((0u8..8, any::<u8>()), 1..120),
        ) {
            let mut w = Window::new(UNITS);
            let mut m = Model::default();
            // Sequence numbers below `floor` have committed and never
            // come back; `ceil` is one past the youngest ever inserted.
            let (mut floor, mut ceil) = (0u64, 0u64);
            for (op, arg) in ops {
                let unit = arg as u32 % UNITS;
                match op {
                    // In-order dispatch at the tail (the common case).
                    0..=2 => {
                        let seq = m.slots.last().map_or(floor, |s| s.seq + 1);
                        w.insert(tagged(seq, unit));
                        m.insert(tagged(seq, unit));
                        ceil = ceil.max(seq + 1);
                    }
                    // Out-of-order dispatch anywhere above the floor.
                    3 | 4 => {
                        let seq = floor + arg as u64 % 48;
                        if m.get(seq).is_none() {
                            w.insert(tagged(seq, unit));
                            m.insert(tagged(seq, unit));
                            ceil = ceil.max(seq + 1);
                        }
                    }
                    // Commit.
                    5 | 6 => {
                        let (a, b) = (w.pop_front(), m.pop_front());
                        prop_assert_eq!(key(a.as_ref()), key(b.as_ref()));
                        if let Some(s) = b {
                            floor = s.seq + 1;
                        }
                    }
                    // Squash; later inserts reuse the squashed seqs.
                    _ => {
                        let from = floor + arg as u64 % (ceil - floor + 1);
                        let a: Vec<u64> = w.squash_from(from).iter().map(|s| s.seq).collect();
                        let b: Vec<u64> = m.squash_from(from).iter().map(|s| s.seq).collect();
                        prop_assert_eq!(a, b);
                    }
                }
                agree(&mut w, &mut m, floor, ceil)?;
            }
        }
    }

    /// A window kept full through many times its capacity of commit/
    /// dispatch cycles: the ring's physical head wraps around, and the
    /// offset lookup still finds every slot.
    #[test]
    fn full_window_wraps_the_ring() {
        const CAP: u64 = 128;
        let mut w = Window::new(1);
        for seq in 0..CAP {
            w.insert(tagged(seq, 0));
        }
        let mut wrapped = false;
        for next in CAP..CAP * 20 {
            let front = w.pop_front().expect("full window").seq;
            assert_eq!(front, next - CAP);
            w.insert(tagged(next, 0));
            wrapped |= !w.slots.as_slices().1.is_empty();
            assert_eq!(w.len() as u64, CAP);
            for seq in [next - CAP + 1, next - CAP / 2, next] {
                assert_eq!(key(w.get(seq)), Some((seq, 0, seq * 1000)));
            }
            assert!(w.get(next - CAP).is_none(), "committed slot still found");
            assert!(w.get(next + 1).is_none(), "undispatched slot found");
        }
        assert!(wrapped, "the ring never wrapped");
        assert_eq!(w.unit_count(0), CAP as usize);
    }

    #[test]
    fn slot_overlap() {
        let mut a = blank(0, 0);
        let mut b = blank(1, 0);
        a.addr = 100;
        a.size = 4;
        b.addr = 102;
        b.size = 4;
        assert!(a.overlaps(&b));
        b.addr = 104;
        assert!(!a.overlaps(&b));
        // No wrap-around at the top of the address space.
        a.addr = u64::MAX - 1;
        b.addr = 0;
        assert!(!a.overlaps(&b));
        b.addr = u64::MAX;
        assert!(a.overlaps(&b));
    }

    #[test]
    fn regdeps_tracks_last_writer() {
        let mut a = Asm::new();
        let base = a.alloc_data(16, 8);
        let r = Reg::int;
        a.li(r(1), 5); // 0: writes r1
        a.li(r(2), base as i64); // 1: writes r2
        a.add(r(1), r(1), r(2)); // 2: reads r1(0), r2(1); writes r1
        a.sw(r(1), r(2), 0); // 3: base r2 (1), data r1 (2)
        a.lw(r(3), r(2), 0); // 4: base r2 (1)
        a.halt();
        let t = Interpreter::new(a.assemble().unwrap()).run(100).unwrap();
        let d = RegDeps::build(&t);
        assert_eq!(d.srcs(2), &[0, 1]);
        assert_eq!(d.addr(3), &[1]);
        assert_eq!(d.data(3), &[2]);
        assert_eq!(d.addr(4), &[1]);
        assert!(d.data(4).is_empty());
    }

    #[test]
    fn regdeps_no_producer_for_cold_registers() {
        let mut a = Asm::new();
        let r = Reg::int;
        a.add(r(1), r(2), r(3)); // r2, r3 never written
        a.halt();
        let t = Interpreter::new(a.assemble().unwrap()).run(100).unwrap();
        let d = RegDeps::build(&t);
        assert!(d.srcs(0).is_empty());
    }
}
