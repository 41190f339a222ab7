//! Per-run pipeline state shared by the O3 stage modules.
//!
//! Everything that lives exactly as long as one [`super::O3Core::run_warm`]
//! call sits here: the reorder buffer, issue queue, split load/store
//! queues, fetch/replay queues, the writeback event wheel, register-pool
//! occupancy and the stall/redirect clocks. The long-lived machine state
//! (caches, TLBs, predictor, BTB) stays on [`super::O3Core`] so it
//! survives across runs and intervals.
//!
//! The in-flight window is **one record per structure, keyed by ROB
//! slot**: op indices in the ROB are always contiguous
//! (`head_idx..head_idx+len`), so `idx & mask` names an op's slot in
//! every ROB-sized ring, and an op's dynamic state lives exactly once —
//! its fetched fields in [`OpBuf`], its dispatch-time state in a
//! [`RobEntry`], its issue-queue record and wait-list links in an
//! [`IqEntry`], its pending completion in an [`EventHeap`] node. "Has
//! this producer completed" is the producer's ROB state, not a mirror of
//! it; the queues that refer to an op (the ready queue, the wait lists,
//! the wheel's per-cycle lists) hold its trace index and nothing else,
//! and a squash withdraws the op from each of them.

use crate::config::CoreConfig;
use belenos_trace::MicroOp;
use std::collections::VecDeque;

/// Deadlock detector: cycles without a commit before the engine reports a
/// wedged pipeline (a simulator bug, not a workload condition).
pub(super) const STALL_LIMIT: u64 = 1_000_000;

/// Exclusive bound on the trace indices of one run. The ready queue,
/// resolved producers, wait-list links and event-wheel links all hold
/// them in 32 bits, with `u32::MAX` as the "none" sentinel, so a single
/// `run_warm` call simulates at most 2³² − 1 ops; [`Pipeline::accept`]
/// panics at the bound instead of aliasing.
pub(super) const PACK_LIMIT: u64 = u32::MAX as u64;

/// "No op": the ready-producer sentinel and the wait-list and wheel-list
/// terminator.
const NONE: u32 = u32::MAX;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) enum OpState {
    Waiting,
    Issued,
    Done,
}

/// In-flight op storage: one idx-keyed ring holding the fetched
/// [`MicroOp`] of every op between fetch and commit.
///
/// Live trace indices (ROB occupants, the fetch queue and the replay
/// range) are contiguous — `[rob.head_idx, next_idx)` — and their count
/// is bounded by ROB capacity plus fetch-queue capacity (every live op
/// sits in exactly one of the three containers, and squash only
/// redistributes them; [`Pipeline::accept`] asserts it). The ring is
/// that bound rounded up to a power of two — no larger, so the live
/// window stays cache-resident — and slot lookup is `idx & mask` with
/// no aliasing.
///
/// Each op is written exactly once, when fetch first pulls it from the
/// trace; every later stage (dispatch hazards, issue address rules,
/// commit retirement, squash replay) reads the same slot instead of
/// copying a `MicroOp` from queue to queue.
pub(super) struct OpBuf {
    mask: u64,
    ops: Vec<MicroOp>,
    /// The direction fetch predicted for each op (branches only).
    predicted_taken: Vec<bool>,
}

impl OpBuf {
    fn new(rob_entries: usize, fetchq_cap: usize) -> Self {
        let cap = (rob_entries + fetchq_cap).next_power_of_two();
        OpBuf {
            mask: (cap - 1) as u64,
            ops: vec![MicroOp::int(0, 0, 0, belenos_trace::FnCategory::Internal); cap],
            predicted_taken: vec![false; cap],
        }
    }

    /// Files the op fetched at trace index `idx`.
    #[inline]
    fn insert(&mut self, idx: u64, op: &MicroOp) {
        self.ops[(idx & self.mask) as usize] = *op;
    }

    #[inline]
    pub(super) fn set_predicted_taken(&mut self, idx: u64, taken: bool) {
        self.predicted_taken[(idx & self.mask) as usize] = taken;
    }

    #[inline]
    pub(super) fn predicted_taken(&self, idx: u64) -> bool {
        self.predicted_taken[(idx & self.mask) as usize]
    }

    /// The micro-op stored at a live trace index.
    #[inline]
    pub(super) fn get(&self, idx: u64) -> &MicroOp {
        &self.ops[(idx & self.mask) as usize]
    }
}

/// Dispatch-time state of one ROB occupant (8 bytes).
#[derive(Debug, Clone, Copy)]
pub(super) struct RobEntry {
    /// Physical load/store-queue slot of a memory op (`u32::MAX`
    /// otherwise), recorded at dispatch so issue and writeback reach
    /// the LSQ entry directly instead of binary-searching by index.
    pub(super) lsq_slot: u32,
    pub(super) state: OpState,
    /// Branch fetched with a wrong direction prediction.
    pub(super) mispredicted: bool,
}

/// The reorder buffer as a ring of [`RobEntry`].
///
/// ROB occupants always carry contiguous trace indices (dispatch pushes
/// in index order; squash pops from the back; commit pops from the
/// front), so slot lookup is `idx & mask` with no position arithmetic
/// and no per-entry allocation. Only dispatch-time state lives here —
/// the op's immutable fields stay in the fetch-time [`OpBuf`] and are
/// never copied into the ROB.
pub(super) struct RobRing {
    mask: u64,
    /// Trace index of the oldest occupant (meaningful when `len > 0`;
    /// after a pop that empties the ring it stays one past the last
    /// popped op until the next push re-anchors it).
    pub(super) head_idx: u64,
    len: usize,
    entries: Vec<RobEntry>,
}

impl RobRing {
    pub(super) fn new(rob_entries: usize) -> Self {
        let cap = rob_entries.next_power_of_two().max(2);
        RobRing {
            mask: (cap - 1) as u64,
            head_idx: 0,
            len: 0,
            entries: vec![
                RobEntry {
                    lsq_slot: u32::MAX,
                    state: OpState::Waiting,
                    mispredicted: false,
                };
                cap
            ],
        }
    }

    pub(super) fn len(&self) -> usize {
        self.len
    }

    pub(super) fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Ring slot for a trace index (shared by every ROB-sized ring).
    #[inline]
    pub(super) fn slot(&self, idx: u64) -> usize {
        (idx & self.mask) as usize
    }

    /// The entry of the occupant with trace index `idx`.
    #[inline]
    pub(super) fn entry(&self, idx: u64) -> &RobEntry {
        &self.entries[(idx & self.mask) as usize]
    }

    #[inline]
    pub(super) fn entry_mut(&mut self, idx: u64) -> &mut RobEntry {
        &mut self.entries[(idx & self.mask) as usize]
    }

    /// True when `idx` is a current occupant.
    #[inline]
    pub(super) fn contains(&self, idx: u64) -> bool {
        idx >= self.head_idx && ((idx - self.head_idx) as usize) < self.len
    }

    pub(super) fn push_back(&mut self, idx: u64, mispred: bool, lsq_slot: u32) {
        if self.len == 0 {
            self.head_idx = idx;
        }
        debug_assert_eq!(idx, self.head_idx + self.len as u64, "rob idx contiguity");
        debug_assert!(self.len <= self.mask as usize, "rob ring overflow");
        *self.entry_mut(idx) = RobEntry {
            lsq_slot,
            state: OpState::Waiting,
            mispredicted: mispred,
        };
        self.len += 1;
    }

    /// Drops the oldest occupant (commit).
    pub(super) fn pop_front(&mut self) {
        debug_assert!(self.len > 0);
        self.head_idx += 1;
        self.len -= 1;
    }

    /// Removes the youngest occupant (squash), returning its index.
    pub(super) fn pop_back(&mut self) -> u64 {
        debug_assert!(self.len > 0);
        self.len -= 1;
        self.head_idx + self.len as u64
    }
}

/// A load or store queue as a struct-of-arrays ring.
///
/// Entries arrive in trace-index order, retire from the front at commit
/// and truncate from the back on a squash, so the ring stays sorted by
/// index. `inflight` maintains the count of issued-but-incomplete
/// entries, replacing the old per-cycle `iter().any(...)` scan in the
/// commit stage's memory-bound classification.
pub(super) struct LsqRing {
    mask: usize,
    start: usize,
    len: usize,
    idx: Vec<u64>,
    addr: Vec<u64>,
    issued: Vec<bool>,
    done: Vec<bool>,
    inflight: usize,
    /// Counting filter over the 8-byte blocks of *issued* entries. A
    /// zero bucket proves no issued entry touches that block, letting
    /// `forward_from` skip its scan — the overwhelmingly common case
    /// for loads with no older matching store.
    filter: Vec<u16>,
}

/// Bucket count of the issued-address counting filter (2 KiB of u16s).
const LSQ_FILTER_BUCKETS: usize = 1024;

/// Filter bucket for an address's 8-byte block (Fibonacci hash).
#[inline]
fn lsq_filter_bucket(addr: u64) -> usize {
    (((addr >> 3).wrapping_mul(0x9E37_79B9_7F4A_7C15)) >> 54) as usize
}

impl LsqRing {
    pub(super) fn new(entries: usize) -> Self {
        let cap = entries.next_power_of_two().max(2);
        LsqRing {
            mask: cap - 1,
            start: 0,
            len: 0,
            idx: vec![0; cap],
            addr: vec![0; cap],
            issued: vec![false; cap],
            done: vec![false; cap],
            inflight: 0,
            filter: vec![0; LSQ_FILTER_BUCKETS],
        }
    }

    pub(super) fn len(&self) -> usize {
        self.len
    }

    #[inline]
    fn slot(&self, i: usize) -> usize {
        (self.start + i) & self.mask
    }

    /// Appends an entry and returns its physical slot, which stays
    /// valid for the entry's whole lifetime (the ring only moves
    /// `start`/`len`, never entry contents).
    pub(super) fn push_back(&mut self, idx: u64, addr: u64) -> u32 {
        debug_assert!(self.len <= self.mask, "lsq ring overflow");
        let s = self.slot(self.len);
        self.idx[s] = idx;
        self.addr[s] = addr;
        self.issued[s] = false;
        self.done[s] = false;
        self.len += 1;
        s as u32
    }

    /// Pops the oldest entry, returning its trace index.
    pub(super) fn pop_front(&mut self) -> Option<u64> {
        if self.len == 0 {
            return None;
        }
        let s = self.slot(0);
        if self.issued[s] {
            if !self.done[s] {
                self.inflight -= 1;
            }
            self.filter[lsq_filter_bucket(self.addr[s])] -= 1;
        }
        self.start = (self.start + 1) & self.mask;
        self.len -= 1;
        Some(self.idx[s])
    }

    /// Logical position of the first entry with trace index >= `idx`.
    /// The live window is trace-order sorted (push_back appends rising
    /// indices; truncation drops a sorted suffix), so this is a binary
    /// search.
    #[inline]
    fn lower_bound(&self, idx: u64) -> usize {
        let (mut lo, mut hi) = (0usize, self.len);
        while lo < hi {
            let mid = (lo + hi) / 2;
            if self.idx[self.slot(mid)] < idx {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        lo
    }

    fn find(&self, idx: u64) -> Option<usize> {
        let pos = self.lower_bound(idx);
        if pos < self.len {
            let s = self.slot(pos);
            if self.idx[s] == idx {
                return Some(s);
            }
        }
        None
    }

    /// Physical slot for a live entry given the slot hint the ROB
    /// recorded at dispatch. The hint is authoritative while the entry
    /// lives (slots never move); the identity check catches a stale
    /// hint after squash-and-replay and falls back to the search.
    #[inline]
    fn slot_for(&self, idx: u64, hint: u32) -> Option<usize> {
        let s = hint as usize;
        if s <= self.mask && self.idx[s] == idx {
            let pos = (s.wrapping_sub(self.start)) & self.mask;
            if pos < self.len {
                return Some(s);
            }
        }
        self.find(idx)
    }

    /// Marks an entry issued with its resolved address.
    pub(super) fn mark_issued(&mut self, idx: u64, addr: u64, hint: u32) {
        if let Some(s) = self.slot_for(idx, hint) {
            if !self.issued[s] && !self.done[s] {
                self.inflight += 1;
            }
            if self.issued[s] {
                self.filter[lsq_filter_bucket(self.addr[s])] -= 1;
            }
            self.issued[s] = true;
            self.addr[s] = addr;
            self.filter[lsq_filter_bucket(addr)] += 1;
        }
    }

    /// Marks an entry complete (loads at writeback).
    pub(super) fn mark_done(&mut self, idx: u64, hint: u32) {
        if let Some(s) = self.slot_for(idx, hint) {
            if self.issued[s] && !self.done[s] {
                self.inflight -= 1;
            }
            self.done[s] = true;
        }
    }

    /// True when any entry has issued but not completed (the commit
    /// stage's memory-bound signal).
    pub(super) fn has_inflight(&self) -> bool {
        self.inflight > 0
    }

    /// Youngest issued store older than `load_idx` to the same 8-byte
    /// block: `Some((store_idx, store_done))`.
    pub(super) fn forward_from(&self, load_idx: u64, load_addr: u64) -> Option<(u64, bool)> {
        // A zero filter bucket proves no issued store touches the
        // load's block — skip the scan outright (the common case).
        if self.filter[lsq_filter_bucket(load_addr)] == 0 {
            return None;
        }
        // Only entries older than the load can forward; start the
        // youngest-first scan just below its sorted position.
        for i in (0..self.lower_bound(load_idx)).rev() {
            let s = self.slot(i);
            if self.issued[s] && (self.addr[s] >> 3) == (load_addr >> 3) {
                return Some((self.idx[s], self.done[s]));
            }
        }
        None
    }

    /// Drops every entry younger than `keep_max_idx` (squash). Entries
    /// are index-sorted, so this is truncation from the back.
    pub(super) fn truncate_younger(&mut self, keep_max_idx: u64) {
        while self.len > 0 {
            let s = self.slot(self.len - 1);
            if self.idx[s] <= keep_max_idx {
                break;
            }
            if self.issued[s] {
                if !self.done[s] {
                    self.inflight -= 1;
                }
                self.filter[lsq_filter_bucket(self.addr[s])] -= 1;
            }
            self.len -= 1;
        }
    }
}

/// The issue-queue record of one ROB occupant (32 bytes, written once
/// at dispatch into the ROB-slot array [`Pipeline::iq`]): its
/// producers' *resolved* trace indices, its functional-unit class and
/// latency, and the links of the intrusive wait lists.
///
/// An op whose producers have not all completed is parked on the list
/// of its first still-pending producer: the list head lives in the
/// producer's record (`waiters`), the doubly-linked node in the
/// consumer's (`next`/`prev`/`on`), and every link is a trace index —
/// both ends are ROB occupants, so `idx & mask` reaches them without a
/// slab, a free list or a copy. Writeback wakes a producer's list in
/// O(waiters); squash unlinks exactly the victims it pops. An op waits
/// on one producer at a time; if its second producer is still pending
/// at wake time it re-parks on that one.
#[derive(Debug, Clone, Copy)]
pub(super) struct IqEntry {
    /// Producers as trace indices (`NONE` = no producer to wait for).
    dep1: u32,
    dep2: u32,
    /// Execution latency in cycles, precomputed at dispatch so the
    /// issue scan never re-derives it from the op kind (every real
    /// latency is far below 2^32).
    pub(super) lat: u32,
    /// First op parked on this one, or `NONE`.
    waiters: u32,
    next: u32,
    prev: u32,
    /// The producer this op is parked on, or `NONE` when it is not
    /// parked (ready, issued or done).
    on: u32,
    /// Functional-unit class (index into `fu_counts`).
    pub(super) fu: u8,
}

impl IqEntry {
    /// No producers, on no list, nothing parked on it.
    const UNLINKED: IqEntry = IqEntry {
        dep1: NONE,
        dep2: NONE,
        lat: 0,
        waiters: NONE,
        next: NONE,
        prev: NONE,
        on: NONE,
        fu: 0,
    };
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) enum FetchBlock {
    None,
    ICache,
    ITlb,
    Squash,
    QueueFull,
}

/// Wheel size in cycles. Worst-case completion delta is a TLB walk
/// plus a DRAM access behind a bandwidth-saturated channel — a few
/// hundred cycles at the paper's settings; 2048 leaves generous slack,
/// and anything farther out (a starved DRAM channel queues without a
/// static bound) parks on the overflow list.
const EVENT_WHEEL_SIZE: usize = 2048;
const EVENT_WHEEL_WORDS: usize = EVENT_WHEEL_SIZE / 64;

/// An op's pending completion: its cycle and the next op on that
/// cycle's list (`NONE` at the tail).
#[derive(Debug, Clone, Copy, Default)]
struct EventNode {
    at: u64,
    next: u32,
}

/// Completion-event queue: a timing wheel with one intrusive list per
/// future cycle, an occupancy bitmap and an overflow list.
///
/// An op has at most one pending completion (issue files it; the squash
/// that pops an issued op cancels it), so its cycle and list links live
/// in the node of its ROB slot, and a cycle's list is a `[head, tail]`
/// pair of trace indices. Lists are sorted by index at insert
/// (same-cycle issue files rising indices, so an insert is an append
/// almost always), which makes the pop order (cycle, op idx) — the
/// order the digest pins observe through the writeback-width cap. A pop
/// unlinks the head; a cancel walks its cycle's list, which holds only
/// the ops completing in that cycle. Fast-forwarded idle gaps cost a
/// few bitmap word scans instead of per-event compares.
///
/// The wheel keeps its own clock — the latest `now` handed to
/// [`EventHeap::pop_due`] — and files nothing at or before it, so "an
/// event's cycle is never behind the cursor" is a property of the type:
/// the cursor only ever moves to the earliest pending cycle or to
/// `clock + 1`, whichever is lower.
pub(super) struct EventHeap {
    /// `[head, tail]` of each cycle's list, `NONE` when empty.
    ends: Vec<[u32; 2]>,
    bitmap: [u64; EVENT_WHEEL_WORDS],
    /// Per ROB slot (`idx & (len - 1)`), live while its op is filed.
    nodes: Vec<EventNode>,
    /// Every wheel entry's cycle is in `[cursor, cursor +
    /// EVENT_WHEEL_SIZE)`, every overflow entry's past it, and `cursor
    /// <= clock + 1`.
    cursor: u64,
    clock: u64,
    /// Events on the wheel (excludes overflow).
    wheel_len: usize,
    /// `(cycle, op idx)` of events beyond the wheel horizon, folded onto
    /// the wheel as the cursor advances. Empty at the paper's settings.
    overflow: Vec<(u64, u32)>,
    /// Cycle of the earliest event on the wheel or the overflow list
    /// (`u64::MAX` when both are empty), exact at all times: the
    /// per-cycle pop is one compare until an event actually comes due.
    next_pending: u64,
}

impl EventHeap {
    /// An empty wheel for ops whose live indices span at most `slots`,
    /// a power of two (the ROB ring's capacity).
    fn new(slots: usize) -> Self {
        debug_assert!(slots.is_power_of_two());
        EventHeap {
            ends: vec![[NONE; 2]; EVENT_WHEEL_SIZE],
            bitmap: [0; EVENT_WHEEL_WORDS],
            nodes: vec![EventNode::default(); slots],
            cursor: 0,
            clock: 0,
            wheel_len: 0,
            overflow: Vec::new(),
            next_pending: u64::MAX,
        }
    }

    #[inline]
    fn node(&mut self, idx: u32) -> &mut EventNode {
        let slot = idx as usize & (self.nodes.len() - 1);
        &mut self.nodes[slot]
    }

    /// Files the completion of op `idx`, which has none pending, at
    /// cycle `t`, or at the cycle after the wheel's clock if `t` is not
    /// past it — nothing completes in the cycle it issued.
    #[inline]
    pub(super) fn push(&mut self, t: u64, idx: u64) {
        debug_assert!(idx < PACK_LIMIT);
        let (t, idx) = (t.max(self.clock + 1), idx as u32);
        self.node(idx).at = t;
        self.next_pending = self.next_pending.min(t);
        if t - self.cursor < EVENT_WHEEL_SIZE as u64 {
            self.file(t, idx);
        } else {
            self.push_far(t, idx);
        }
    }

    /// An event beyond the horizon: first let a cursor that lags the
    /// clock (no event came due for a while) catch up, then park the
    /// event on the overflow list if it still does not fit.
    #[cold]
    fn push_far(&mut self, t: u64, idx: u32) {
        self.advance_cursor((self.clock + 1).min(self.next_pending));
        if t - self.cursor < EVENT_WHEEL_SIZE as u64 {
            self.file(t, idx);
        } else {
            self.overflow.push((t, idx));
        }
    }

    /// Links op `idx` into cycle `t`'s list behind the youngest older
    /// op: after the tail, or else found walking from the head.
    #[inline]
    fn file(&mut self, t: u64, idx: u32) {
        let b = (t as usize) & (EVENT_WHEEL_SIZE - 1);
        let [head, tail] = self.ends[b];
        let (mut prev, mut next) = (NONE, head);
        if tail < idx {
            (prev, next) = (tail, NONE);
        } else {
            while next < idx {
                (prev, next) = (next, self.node(next).next);
            }
        }
        self.node(idx).next = next;
        match prev {
            NONE => self.ends[b][0] = idx,
            p => self.node(p).next = idx,
        }
        if next == NONE {
            self.ends[b][1] = idx;
        }
        self.bitmap[b >> 6] |= 1 << (b & 63);
        self.wheel_len += 1;
    }

    /// Unlinks wheel entry `idx`, found walking its cycle's list from the
    /// head (at once, for a pop). Emptying the earliest list moves
    /// `next_pending` on to the next pending cycle.
    #[inline]
    fn unlink(&mut self, idx: u32) {
        let EventNode { at, next } = *self.node(idx);
        let b = (at as usize) & (EVENT_WHEEL_SIZE - 1);
        let (mut prev, mut cur) = (NONE, self.ends[b][0]);
        while cur != idx {
            assert!(cur != NONE, "a filed op is on its cycle's list");
            (prev, cur) = (cur, self.node(cur).next);
        }
        match prev {
            NONE => self.ends[b][0] = next,
            p => self.node(p).next = next,
        }
        if next == NONE {
            self.ends[b][1] = prev;
        }
        self.wheel_len -= 1;
        if self.ends[b][0] == NONE {
            self.bitmap[b >> 6] &= !(1u64 << (b & 63));
            if at == self.next_pending {
                self.next_pending = self.earliest();
            }
        }
    }

    /// Moves the cursor forward to `to` — at most the earliest pending
    /// cycle, so every list it passes is empty — and re-homes overflow
    /// events that now fit on the wheel.
    fn advance_cursor(&mut self, to: u64) {
        if to <= self.cursor {
            return;
        }
        debug_assert!(to <= self.next_pending && to <= self.clock + 1);
        self.cursor = to;
        let mut i = 0;
        while i < self.overflow.len() {
            let (t, idx) = self.overflow[i];
            if t - to < EVENT_WHEEL_SIZE as u64 {
                self.overflow.swap_remove(i);
                self.file(t, idx);
            } else {
                i += 1;
            }
        }
    }

    /// Pops the earliest event if it is due at or before `now`,
    /// returning its op's trace index. `now` never decreases from one
    /// call to the next.
    #[inline]
    pub(super) fn pop_due(&mut self, now: u64) -> Option<u64> {
        debug_assert!(now >= self.clock, "the pipeline clock is monotone");
        self.clock = now;
        if self.next_pending > now {
            return None;
        }
        // The earliest event heads the cursor's list once the cursor
        // moves there (folding in any overflow event of that cycle).
        self.advance_cursor(self.next_pending);
        let idx = self.ends[(self.cursor as usize) & (EVENT_WHEEL_SIZE - 1)][0];
        self.unlink(idx);
        Some(idx as u64)
    }

    /// Withdraws the pending completion of op `idx` (an issued op a
    /// squash pops), keeping `next_pending` exact.
    pub(super) fn cancel(&mut self, idx: u64) {
        let idx = idx as u32;
        let at = self.node(idx).at;
        if at - self.cursor < EVENT_WHEEL_SIZE as u64 {
            return self.unlink(idx);
        }
        self.overflow.retain(|&(_, o)| o != idx);
        if at == self.next_pending {
            self.next_pending = self.earliest();
        }
    }

    /// Cycle of the earliest event (`u64::MAX` when there is none): the
    /// first marked list at or after the cursor, found by scanning the
    /// occupancy bitmap a word at a time and wrapping once; overflow
    /// events lie past every wheel event.
    fn earliest(&self) -> u64 {
        if self.wheel_len == 0 {
            return self.overflow.iter().fold(u64::MAX, |e, &(t, _)| e.min(t));
        }
        let start = (self.cursor as usize) & (EVENT_WHEEL_SIZE - 1);
        for k in 0..=EVENT_WHEEL_WORDS {
            let w = ((start >> 6) + k) & (EVENT_WHEEL_WORDS - 1);
            // The start word's bits below the cursor are the cycles just
            // before the horizon wraps: they come last.
            let bits = self.bitmap[w] & if k == 0 { !0u64 << (start & 63) } else { !0 };
            if bits != 0 {
                let pos = (w << 6) | bits.trailing_zeros() as usize;
                return self.cursor + (pos.wrapping_sub(start) & (EVENT_WHEEL_SIZE - 1)) as u64;
            }
        }
        unreachable!("a non-empty wheel has a marked list")
    }

    /// Cycle of the earliest pending event (the fast-forward's wake
    /// candidate). O(1): `next_pending` is exact.
    pub(super) fn next_time(&self) -> Option<u64> {
        (self.next_pending != u64::MAX).then_some(self.next_pending)
    }
}

/// The per-run pipeline state; one instance per `run_warm` invocation.
pub(super) struct Pipeline {
    /// Effective front-end width: decode/rename/dispatch bottleneck.
    pub(super) fe_width: usize,
    pub(super) fetchq_cap: usize,
    pub(super) now: u64,
    pub(super) next_idx: u64,
    pub(super) rob: RobRing,
    /// Issue-queue record of every ROB occupant, in the occupant's ROB
    /// slot (see [`IqEntry`]).
    iq: Vec<IqEntry>,
    /// Ready half of the issue queue: trace indices of ops whose
    /// producers have all completed, ascending (dispatch appends in
    /// order; wakeups insert sorted), compacted in place each cycle.
    pub(super) ready_q: Vec<u32>,
    /// Per functional-unit-class population of `ready_q`, letting the
    /// issue scan stop as soon as every represented class is saturated.
    pub(super) ready_fu_count: [usize; 5],
    /// Waiting half of the issue queue: how many ops are parked.
    parked: usize,
    /// The fetched micro-op of every live op, written once when the op
    /// is first read from the trace (see [`OpBuf`]).
    pub(super) ops: OpBuf,
    pub(super) lq: LsqRing,
    pub(super) sq: LsqRing,
    /// The fetch and replay queues as two cursors. Live ops are
    /// contiguous in trace order — ROB, then fetch queue, then replay
    /// range, then the unread trace — so the fetch queue (fetched, not
    /// yet dispatched) is `[fetch_head, replay_next)` and the ops read
    /// from the trace that await (re-)fetch are `[replay_next,
    /// next_idx)`; their fields and predictions are in `ops`, and
    /// nothing is copied from queue to queue. A squash at branch `b`
    /// makes the correct path exactly `[b + 1, next_idx)`: two cursor
    /// stores.
    pub(super) fetch_head: u64,
    pub(super) replay_next: u64,
    /// The pending completion of every issued op.
    pub(super) events: EventHeap,
    pub(super) serializers: VecDeque<u64>,
    pub(super) int_regs_used: usize,
    pub(super) fp_regs_used: usize,
    pub(super) int_pool: usize,
    pub(super) fp_pool: usize,
    pub(super) fetch_stall_until: u64,
    pub(super) fetch_block: FetchBlock,
    pub(super) squash_recovery_until: u64,
    pub(super) icache_pending_until: u64,
    pub(super) cur_fetch_line: u64,
    pub(super) fpdiv_busy_until: u64,
    pub(super) last_commit_cycle: u64,
    /// Peak ROB-ring occupancy over the run (telemetry).
    pub(super) rob_peak: usize,
    /// Cycles the event-driven fast-forward skipped (telemetry).
    pub(super) ff_cycles_skipped: u64,
    /// Ops parked on a producer, re-parks included (telemetry).
    pub(super) parks: u64,
    /// Producer completions that found at least one op parked on them
    /// (telemetry).
    pub(super) wakeups: u64,
    /// Branch-misprediction squashes (telemetry).
    pub(super) squashes: u64,
    /// Pending completions withdrawn at squash (telemetry).
    pub(super) cancels: u64,
}

impl Pipeline {
    pub(super) fn new(cfg: &CoreConfig) -> Self {
        let fe_width = cfg
            .decode_width
            .min(cfg.rename_width)
            .min(cfg.dispatch_width);
        let fetchq_cap = (cfg.fetch_width * cfg.frontend_depth as usize).max(16);
        let rob = RobRing::new(cfg.rob_entries);
        Pipeline {
            fe_width,
            fetchq_cap,
            now: 0,
            next_idx: 0,
            iq: vec![IqEntry::UNLINKED; rob.entries.len()],
            events: EventHeap::new(rob.entries.len()),
            rob,
            ready_q: Vec::with_capacity(cfg.iq_entries),
            ready_fu_count: [0; 5],
            parked: 0,
            ops: OpBuf::new(cfg.rob_entries, fetchq_cap),
            lq: LsqRing::new(cfg.lq_entries),
            sq: LsqRing::new(cfg.sq_entries),
            fetch_head: 0,
            replay_next: 0,
            serializers: VecDeque::new(),
            int_regs_used: 0,
            fp_regs_used: 0,
            int_pool: cfg.int_regs.saturating_sub(32),
            fp_pool: cfg.fp_regs.saturating_sub(32),
            fetch_stall_until: 0,
            fetch_block: FetchBlock::None,
            squash_recovery_until: 0,
            icache_pending_until: 0,
            cur_fetch_line: u64::MAX,
            fpdiv_busy_until: 0,
            last_commit_cycle: 0,
            rob_peak: 0,
            ff_cycles_skipped: 0,
            parks: 0,
            wakeups: 0,
            squashes: 0,
            cancels: 0,
        }
    }

    /// Files the next op read from the trace; it awaits fetch behind
    /// the replay cursor.
    ///
    /// # Panics
    ///
    /// At [`PACK_LIMIT`] ops in one run.
    #[inline]
    pub(super) fn accept(&mut self, op: &MicroOp) {
        assert!(
            self.next_idx < PACK_LIMIT,
            "an o3 run is limited to 2^32 - 1 trace ops (32-bit event and queue keys)"
        );
        debug_assert!(
            self.next_idx - self.rob.head_idx <= self.ops.mask,
            "live ops exceed ROB plus fetch-queue capacity"
        );
        self.ops.insert(self.next_idx, op);
        self.next_idx += 1;
    }

    /// Writes the issue-queue record of the op just pushed onto the
    /// ROB and routes it (see [`Pipeline::classify`]). Producers are
    /// resolved from dependency distances to trace indices once, here;
    /// a distance of zero or one reaching before the trace start has
    /// no producer to wait for.
    pub(super) fn iq_insert(&mut self, idx: u64, fu: usize, lat: u64) {
        debug_assert!(lat <= u32::MAX as u64);
        let op = self.ops.get(idx);
        let resolve = |dep: u32| match dep as u64 {
            0 => NONE,
            d if d > idx => NONE,
            d => (idx - d) as u32,
        };
        *self.iq_mut(idx) = IqEntry {
            dep1: resolve(op.dep1),
            dep2: resolve(op.dep2),
            lat: lat as u32,
            fu: fu as u8,
            ..IqEntry::UNLINKED
        };
        self.classify(idx);
    }

    /// The issue-queue record of ROB occupant `idx`.
    #[inline]
    pub(super) fn iq_entry(&self, idx: impl Into<u64>) -> &IqEntry {
        &self.iq[self.rob.slot(idx.into())]
    }

    #[inline]
    fn iq_mut(&mut self, idx: impl Into<u64>) -> &mut IqEntry {
        &mut self.iq[self.rob.slot(idx.into())]
    }

    /// True while resolved producer `dep` has neither completed nor
    /// retired. A consumer is a ROB occupant and its producer strictly
    /// older, so the producer has either left the ROB from the front
    /// (`dep < head_idx`: committed) or is an occupant whose state
    /// says. Monotone while the consumer lives: no squash that spares
    /// the consumer can undo the producer.
    #[inline]
    pub(super) fn pending(&self, dep: u32) -> bool {
        dep != NONE
            && dep as u64 >= self.rob.head_idx
            && self.rob.entry(dep as u64).state != OpState::Done
    }

    /// Fetch-queue occupancy.
    #[inline]
    pub(super) fn fetchq_len(&self) -> usize {
        (self.replay_next - self.fetch_head) as usize
    }

    /// True when no op is in flight anywhere: ROB, fetch queue and
    /// replay range are all empty.
    #[inline]
    pub(super) fn is_drained(&self) -> bool {
        self.rob.is_empty() && self.fetch_head == self.next_idx
    }

    /// Total issue-queue occupancy (ready + waiting), gating dispatch.
    pub(super) fn iq_len(&self) -> usize {
        self.ready_q.len() + self.parked
    }

    /// Routes a new or woken op: to the ready queue when both producers
    /// have completed — kept sorted by trace index; a dispatch-time
    /// entry always appends (the newest index), only wakeups pay the
    /// sorted insert — else onto the wait list of the first
    /// still-pending producer.
    pub(super) fn classify(&mut self, idx: u64) {
        let e = *self.iq_entry(idx);
        let producer = if self.pending(e.dep1) {
            e.dep1
        } else if self.pending(e.dep2) {
            e.dep2
        } else {
            self.ready_fu_count[e.fu as usize] += 1;
            let idx = idx as u32;
            if self.ready_q.last().is_none_or(|&l| l < idx) {
                self.ready_q.push(idx);
            } else {
                let pos = self.ready_q.partition_point(|&x| x < idx);
                self.ready_q.insert(pos, idx);
            }
            return;
        };
        let first = std::mem::replace(&mut self.iq_mut(producer).waiters, idx as u32);
        if first != NONE {
            self.iq_mut(first).prev = idx as u32;
        }
        let node = self.iq_mut(idx);
        node.next = first;
        node.prev = NONE;
        node.on = producer;
        self.parked += 1;
        self.parks += 1;
    }

    /// Wakes every op parked on completed producer `idx`,
    /// re-classifying each (one whose other producer is still pending
    /// re-parks on that one's list — never on the list being walked,
    /// whose producer is done). Called by writeback right after the
    /// producer's ROB state is set.
    pub(super) fn wake_waiters(&mut self, idx: u64) {
        let mut node = std::mem::replace(&mut self.iq_mut(idx).waiters, NONE);
        if node != NONE {
            self.wakeups += 1;
        }
        while node != NONE {
            let e = self.iq_mut(node);
            e.on = NONE;
            let next = e.next;
            self.parked -= 1;
            self.classify(node as u64);
            node = next;
        }
    }

    /// Removes the youngest ROB occupant (squash) and withdraws what
    /// refers to it: an issued op's pending completion, a parked op's
    /// node on its producer's wait list. Returns its index. Victims go
    /// youngest first, so by the time a producer is popped every op
    /// that waited on it is already gone.
    pub(super) fn squash_youngest(&mut self) -> u64 {
        let idx = self.rob.pop_back();
        let e = *self.iq_entry(idx);
        debug_assert_eq!(e.waiters, NONE, "a victim's consumers are younger victims");
        if self.rob.entry(idx).state == OpState::Issued {
            self.events.cancel(idx);
            self.cancels += 1;
        } else if e.on != NONE {
            match e.prev {
                NONE => self.iq_mut(e.on).waiters = e.next,
                prev => self.iq_mut(prev).next = e.next,
            }
            if e.next != NONE {
                self.iq_mut(e.next).prev = e.prev;
            }
            self.parked -= 1;
        }
        idx
    }

    /// Drops every ready-queue entry younger than `keep_max_idx`
    /// (squash); the queue is sorted, so they are its tail.
    pub(super) fn ready_drop_younger(&mut self, keep_max_idx: u64) {
        while let Some(&last) = self.ready_q.last() {
            if last as u64 <= keep_max_idx {
                break;
            }
            self.ready_fu_count[self.iq_entry(last).fu as usize] -= 1;
            self.ready_q.pop();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use belenos_trace::FnCategory;
    use proptest::prelude::*;
    use std::collections::BTreeSet;

    /// Every `(cycle, op idx)` the wheel holds, sorted, after checking
    /// its structure: each marked list runs head to tail in rising index
    /// order with every node in its cycle's list, unmarked lists are
    /// empty, and `wheel_len` counts the lists' nodes.
    fn wheel_entries(w: &EventHeap) -> Vec<(u64, u64)> {
        let node = |i: u32| w.nodes[i as usize & (w.nodes.len() - 1)];
        let mut entries = Vec::new();
        for (b, &[head, tail]) in w.ends.iter().enumerate() {
            let marked = w.bitmap[b >> 6] & (1 << (b & 63)) != 0;
            assert_eq!(marked, head != NONE, "bitmap bit of list {b}");
            let (mut i, mut prev) = (head, NONE);
            while i != NONE {
                let n = node(i);
                assert!(prev == NONE || prev < i, "list {b} sorted by index");
                assert_eq!((n.at as usize) & (EVENT_WHEEL_SIZE - 1), b);
                assert!(n.at >= w.cursor && n.at - w.cursor < EVENT_WHEEL_SIZE as u64);
                entries.push((n.at, i as u64));
                (prev, i) = (i, n.next);
            }
            assert_eq!(tail, prev, "tail of list {b}");
        }
        assert_eq!(w.wheel_len, entries.len());
        for &(t, i) in &w.overflow {
            assert_eq!(node(i).at, t);
            assert!(
                t - w.cursor >= EVENT_WHEEL_SIZE as u64,
                "overflow entry fits the wheel"
            );
            entries.push((t, i as u64));
        }
        entries.sort_unstable();
        entries
    }

    /// What the wait lists and the wheel implement, spelled naively: who
    /// is parked on whom as a list of pairs, the ready set as a sorted
    /// vector, the pending completions as a set of `(cycle, op)`.
    #[derive(Default)]
    struct NaiveIq {
        head: u64,
        done: BTreeSet<u64>,
        deps: Vec<(u32, u32)>,
        parked: Vec<(u64, u64)>,
        ready: Vec<u64>,
        pending: BTreeSet<(u64, u64)>,
    }

    impl NaiveIq {
        fn pending(&self, c: u64, dist: u32) -> Option<u64> {
            let d = c.checked_sub(dist as u64).filter(|_| dist > 0)?;
            (d >= self.head && !self.done.contains(&d)).then_some(d)
        }

        fn classify(&mut self, c: u64) {
            let (d1, d2) = self.deps[c as usize];
            match self.pending(c, d1).or(self.pending(c, d2)) {
                Some(d) => self.parked.push((d, c)),
                None => {
                    let pos = self.ready.partition_point(|&r| r < c);
                    self.ready.insert(pos, c);
                }
            }
        }
    }

    /// The wait lists hold exactly the model's pairs, every parked op
    /// is reachable from exactly one list, and the ready queue and
    /// occupancy agree.
    fn assert_iq_matches(p: &Pipeline, m: &NaiveIq) {
        let ready: Vec<u64> = p.ready_q.iter().map(|&i| i as u64).collect();
        assert_eq!(ready, m.ready);
        assert_eq!(p.ready_fu_count[0], m.ready.len());
        assert_eq!(p.iq_len(), m.ready.len() + m.parked.len());
        let mut linked = Vec::new();
        for producer in p.rob.head_idx..p.rob.head_idx + p.rob.len() as u64 {
            let (mut node, mut prev) = (p.iq_entry(producer).waiters, NONE);
            while node != NONE {
                let e = p.iq_entry(node);
                assert_eq!((e.on as u64, e.prev), (producer, prev));
                linked.push((producer, node as u64));
                (prev, node) = (node, e.next);
            }
        }
        let consumers: BTreeSet<u64> = linked.iter().map(|&(_, c)| c).collect();
        assert_eq!(
            consumers.len(),
            linked.len(),
            "an op reachable from two lists"
        );
        linked.sort_unstable();
        let mut expected = m.parked.clone();
        expected.sort_unstable();
        assert_eq!(linked, expected);
        // One completion per issued op, none for any other.
        let entries = wheel_entries(&p.events);
        assert_eq!(entries, m.pending.iter().copied().collect::<Vec<_>>());
        let mut named: Vec<u64> = entries.iter().map(|&(_, i)| i).collect();
        named.sort_unstable();
        let issued: Vec<u64> = (p.rob.head_idx..p.rob.head_idx + p.rob.len() as u64)
            .filter(|&i| p.rob.entry(i).state == OpState::Issued)
            .collect();
        assert_eq!(named, issued);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        #[test]
        fn event_wheel_pops_in_binary_heap_order(
            steps in prop::collection::vec(
                (
                    prop::collection::vec((0u8..10, 1u64..301, 1500u64..5501, 0u64..48), 0..4),
                    0u8..8,
                    1u64..5000,
                ),
                1..300,
            ),
            width in 1usize..5,
            ops in 1u64..48,
        ) {
            let mut wheel = EventHeap::new(64);
            let mut model: BTreeSet<(u64, u64)> = BTreeSet::new();
            let earliest = |m: &BTreeSet<(u64, u64)>| m.first().map(|&(t, _)| t);
            let mut now = 0u64;
            for (pushes, advance, jump) in steps {
                // Writeback: up to `width` due events, oldest first.
                for _ in 0..width {
                    let expected = model.first().copied().filter(|&(t, _)| t <= now);
                    if let Some(e) = expected {
                        model.remove(&e);
                    }
                    prop_assert_eq!(wheel.pop_due(now), expected.map(|(_, idx)| idx));
                    prop_assert_eq!(wheel.next_time(), earliest(&model));
                }
                // Issue files completions strictly past the clock, now
                // and then beyond the wheel horizon; an op that has one
                // pending is squashed instead, which cancels it. With
                // few ops, the wheel is often empty or holds only far
                // events.
                for (far, near_delta, far_delta, idx) in pushes {
                    let idx = idx % ops;
                    match model.iter().find(|&&(_, i)| i == idx).copied() {
                        Some(pending) => {
                            wheel.cancel(idx);
                            model.remove(&pending);
                        }
                        None => {
                            let t = now + if far == 0 { far_delta } else { near_delta };
                            wheel.push(t, idx);
                            model.insert((t, idx));
                        }
                    }
                    prop_assert_eq!(wheel.next_time(), earliest(&model));
                }
                prop_assert_eq!(wheel_entries(&wheel), model.iter().copied().collect::<Vec<_>>());
                let next = earliest(&model);
                // The driver steps one cycle or fast-forwards: to the
                // next event, or anywhere short of it.
                now = match (advance, next) {
                    (0..=4, _) => now + 1,
                    (5..=6, Some(t)) => t.max(now + 1),
                    (_, Some(t)) => (now + jump).min(t).max(now + 1),
                    (_, None) => now + jump,
                };
            }
        }

        #[test]
        fn wait_lists_match_a_naive_pair_list(
            script in prop::collection::vec(
                (0u8..10, 0u32..6, 0u32..6, 0usize..64, 1u64..48),
                1..400,
            )
        ) {
            let rob_entries = 16;
            let cfg = CoreConfig::gem5_baseline().with_rob_iq(rob_entries, rob_entries);
            let mut p = Pipeline::new(&cfg);
            let mut m = NaiveIq::default();
            let (mut next, mut now) = (0u64, 0u64);
            for (action, d1, d2, pick, lat) in script {
                match action {
                    // Dispatch (a replayed index keeps its first-drawn
                    // dependencies, as a replayed op does).
                    0..=4 if p.rob.len() < rob_entries => {
                        if next == p.next_idx {
                            p.accept(&MicroOp::int(0x1000, d1, d2, FnCategory::Internal));
                            m.deps.push((d1, d2));
                        }
                        p.rob.push_back(next, false, u32::MAX);
                        p.iq_insert(next, 0, 1);
                        m.classify(next);
                        next += 1;
                    }
                    // Issue one ready op: its completion is filed a
                    // random latency out, now and then past the horizon.
                    5..=6 if !m.ready.is_empty() => {
                        let at = pick % m.ready.len();
                        let idx = m.ready.remove(at);
                        prop_assert_eq!(p.ready_q.remove(at) as u64, idx);
                        p.ready_fu_count[0] -= 1;
                        p.rob.entry_mut(idx).state = OpState::Issued;
                        let t = now + if lat > 44 { lat * 60 } else { lat };
                        p.events.push(t, idx);
                        m.pending.insert((t, idx));
                    }
                    // Write back the earliest completion; wake its list.
                    7 if !m.pending.is_empty() => {
                        let (t, idx) = m.pending.pop_first().expect("not empty");
                        now = now.max(t);
                        prop_assert_eq!(p.events.pop_due(now), Some(idx));
                        p.rob.entry_mut(idx).state = OpState::Done;
                        p.wake_waiters(idx);
                        m.done.insert(idx);
                        let woken: Vec<u64> =
                            m.parked.iter().filter(|&&(d, _)| d == idx).map(|&(_, c)| c).collect();
                        m.parked.retain(|&(d, _)| d != idx);
                        woken.into_iter().for_each(|c| m.classify(c));
                    }
                    // Commit the head if it is done.
                    8 if !p.rob.is_empty() && m.done.contains(&p.rob.head_idx) => {
                        p.rob.pop_front();
                        m.head = p.rob.head_idx;
                    }
                    // Squash everything younger than a random occupant.
                    9 if !p.rob.is_empty() => {
                        let keep = p.rob.head_idx + (pick % p.rob.len()) as u64;
                        while p.rob.head_idx + p.rob.len() as u64 > keep + 1 {
                            p.squash_youngest();
                        }
                        p.ready_drop_younger(keep);
                        m.parked.retain(|&(_, c)| c <= keep);
                        m.ready.retain(|&c| c <= keep);
                        m.done.retain(|&c| c <= keep);
                        m.pending.retain(|&(_, c)| c <= keep);
                        next = keep + 1;
                    }
                    _ => {}
                }
                assert_iq_matches(&p, &m);
            }
        }
    }

    #[test]
    fn rob_ring_roundtrips_and_pops_both_ends() {
        let mut rob = RobRing::new(4);
        for i in 0..4u64 {
            rob.push_back(i, false, i as u32 + 1);
        }
        assert_eq!(rob.len(), 4);
        assert_eq!(rob.head_idx, 0);
        assert_eq!(rob.entry(2).lsq_slot, 3);
        assert_eq!(rob.pop_back(), 3);
        rob.pop_front();
        assert_eq!(rob.head_idx, 1);
        assert_eq!(rob.len(), 2);
        // Wrap-around: ring capacity is 4, indices keep climbing.
        rob.push_back(3, true, 9);
        rob.push_back(4, false, 10);
        assert_eq!(rob.entry(4).lsq_slot, 10);
        assert!(rob.entry(3).mispredicted);
        assert_eq!(rob.entry(1).lsq_slot, 2, "old entries survive the wrap");
    }

    #[test]
    fn op_buf_reconstructs_ops_across_wrap() {
        let mut ops = OpBuf::new(4, 4);
        for i in 0..40u64 {
            let op = MicroOp::int(0x100 + i as u32, i as u32 % 3, 0, FnCategory::Internal);
            ops.insert(i, &op);
            assert_eq!(ops.get(i).pc, 0x100 + i as u32);
        }
        // The last window of indices — ROB plus fetch-queue capacity —
        // stays intact after the wrap.
        for i in 32..40u64 {
            assert_eq!(ops.get(i).pc, 0x100 + i as u32);
            assert_eq!(ops.get(i).dep1, i as u32 % 3);
        }
    }

    #[test]
    fn lsq_ring_tracks_inflight_and_truncates_sorted() {
        let mut lq = LsqRing::new(4);
        lq.push_back(10, 0x40);
        lq.push_back(12, 0x80);
        lq.push_back(15, 0xc0);
        assert!(!lq.has_inflight());
        lq.mark_issued(12, 0x88, u32::MAX);
        lq.mark_issued(15, 0xc8, u32::MAX);
        assert!(lq.has_inflight());
        lq.mark_done(12, u32::MAX);
        assert!(lq.has_inflight(), "15 still outstanding");
        // Squash everything younger than 12: drops 15, inflight clears.
        lq.truncate_younger(12);
        assert_eq!(lq.len(), 2);
        assert!(!lq.has_inflight());
        assert_eq!(lq.pop_front(), Some(10));
        assert_eq!(lq.pop_front(), Some(12));
        assert_eq!(lq.pop_front(), None);
    }

    #[test]
    fn store_forwarding_finds_youngest_older_match() {
        let mut sq = LsqRing::new(8);
        sq.push_back(1, 0x100);
        sq.push_back(3, 0x100);
        sq.push_back(5, 0x200);
        sq.mark_issued(1, 0x100, u32::MAX);
        sq.mark_issued(3, 0x100, u32::MAX);
        // Load at idx 4, addr in the same 8-byte block as 0x100.
        assert_eq!(sq.forward_from(4, 0x104), Some((3, false)));
        sq.mark_done(3, u32::MAX);
        assert_eq!(sq.forward_from(4, 0x104), Some((3, true)));
        // Nothing older matches block 0x200 (store 5 is younger).
        assert_eq!(sq.forward_from(4, 0x200), None);
    }
}
