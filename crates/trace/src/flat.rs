//! [`Ops`], the one cursor every simulation replays a trace through, and
//! [`FlatTrace`], the struct-of-arrays layout of a stored trace.
//!
//! A simulation streams its trace: an [`Ops`] cursor replays the
//! [`Expander`]'s chunk buffer in place and asks for the next chunk only
//! while it is short of its stop, so a cursor that ends there has
//! generated no chunk past it. A caller that already holds the expanded
//! ops (a test, a benchmark) replays a range of them through the same
//! cursor. Replay is **bit-identical** either way:
//! expansion is deterministic, so a range and a stream over the same
//! positions yield the same ops.
//!
//! `FlatTrace` is the layout of the trace store's optional flat section
//! and of the benchmark harness: the same op sequence as parallel
//! primitive arrays, ~29 bytes a stored op. [`FlatTrace::get`]
//! reconstructs exactly the op that was pushed, field for field. No
//! simulation reads it.

use crate::expand::Expander;
use crate::op::{FnCategory, MicroOp, OpKind};

/// A micro-op trace in struct-of-arrays layout.
///
/// Field correspondence with [`MicroOp`] (one entry per op, all arrays
/// share one length):
///
/// | array    | `MicroOp` field | notes                                  |
/// |----------|-----------------|----------------------------------------|
/// | `kind`   | `kind`          | functional class (1 byte)              |
/// | `pc`     | `pc`            | synthetic program counter              |
/// | `addr`   | `addr`          | effective address (loads/stores)       |
/// | `size`   | `size`          | access size in bytes (loads/stores)    |
/// | `taken`  | `taken`         | branch outcome (branches only)         |
/// | `target` | `target`        | branch target pc (branches only)       |
/// | `dep1`   | `dep1`          | producer distance 1 (0 = none)         |
/// | `dep2`   | `dep2`          | producer distance 2 (0 = none)         |
/// | `cat`    | `cat`           | hotspot category (1 byte)              |
#[derive(Debug, Default, Clone)]
pub struct FlatTrace {
    kind: Vec<OpKind>,
    pc: Vec<u32>,
    addr: Vec<u64>,
    size: Vec<u8>,
    taken: Vec<bool>,
    target: Vec<u32>,
    dep1: Vec<u32>,
    dep2: Vec<u32>,
    cat: Vec<FnCategory>,
}

impl FlatTrace {
    /// An empty trace.
    pub fn new() -> Self {
        FlatTrace::default()
    }

    /// An empty trace with room for `n` ops in every array.
    pub fn with_capacity(n: usize) -> Self {
        FlatTrace {
            kind: Vec::with_capacity(n),
            pc: Vec::with_capacity(n),
            addr: Vec::with_capacity(n),
            size: Vec::with_capacity(n),
            taken: Vec::with_capacity(n),
            target: Vec::with_capacity(n),
            dep1: Vec::with_capacity(n),
            dep2: Vec::with_capacity(n),
            cat: Vec::with_capacity(n),
        }
    }

    /// Number of ops stored.
    pub fn len(&self) -> usize {
        self.kind.len()
    }

    /// True when no ops are stored.
    pub fn is_empty(&self) -> bool {
        self.kind.is_empty()
    }

    /// Approximate heap footprint in bytes (capacity-based).
    pub fn footprint_bytes(&self) -> usize {
        self.kind.capacity()
            + self.pc.capacity() * 4
            + self.addr.capacity() * 8
            + self.size.capacity()
            + self.taken.capacity()
            + self.target.capacity() * 4
            + self.dep1.capacity() * 4
            + self.dep2.capacity() * 4
            + self.cat.capacity()
    }

    /// Appends one op, scattering its fields across the arrays.
    pub fn push(&mut self, op: MicroOp) {
        self.kind.push(op.kind);
        self.pc.push(op.pc);
        self.addr.push(op.addr);
        self.size.push(op.size);
        self.taken.push(op.taken);
        self.target.push(op.target);
        self.dep1.push(op.dep1);
        self.dep2.push(op.dep2);
        self.cat.push(op.cat);
    }

    /// Reconstructs op `i` exactly as it was pushed.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.len()`.
    #[inline]
    pub fn get(&self, i: usize) -> MicroOp {
        MicroOp {
            kind: self.kind[i],
            pc: self.pc[i],
            addr: self.addr[i],
            size: self.size[i],
            taken: self.taken[i],
            target: self.target[i],
            dep1: self.dep1[i],
            dep2: self.dep2[i],
            cat: self.cat[i],
        }
    }

    /// Iterates ops `start..end` (clamped to the trace length) as
    /// reconstructed [`MicroOp`]s. The returned iterator is a concrete
    /// type, so loops driven by it monomorphize — no per-op virtual
    /// dispatch.
    pub fn range(&self, start: usize, end: usize) -> FlatIter<'_> {
        let end = end.min(self.len());
        FlatIter {
            kind: &self.kind,
            pc: &self.pc,
            addr: &self.addr,
            size: &self.size,
            taken: &self.taken,
            target: &self.target,
            dep1: &self.dep1,
            dep2: &self.dep2,
            cat: &self.cat,
            next: start.min(end),
            end,
        }
    }

    /// Iterates the whole trace.
    pub fn iter(&self) -> FlatIter<'_> {
        self.range(0, self.len())
    }
}

impl FromIterator<MicroOp> for FlatTrace {
    fn from_iter<T: IntoIterator<Item = MicroOp>>(iter: T) -> Self {
        let iter = iter.into_iter();
        let mut t = FlatTrace::with_capacity(iter.size_hint().0);
        for op in iter {
            t.push(op);
        }
        t
    }
}

impl<'a> IntoIterator for &'a FlatTrace {
    type Item = MicroOp;
    type IntoIter = FlatIter<'a>;

    fn into_iter(self) -> FlatIter<'a> {
        self.iter()
    }
}

/// Iterator over a [`FlatTrace`] range, yielding reconstructed
/// [`MicroOp`]s.
///
/// Holds one slice per field array so the per-op reassembly is nine
/// unchecked loads: the single `next < end` compare subsumes every
/// bounds check (all arrays share one length, and `end` is clamped to
/// it at construction).
#[derive(Debug, Clone, Default)]
pub struct FlatIter<'a> {
    kind: &'a [OpKind],
    pc: &'a [u32],
    addr: &'a [u64],
    size: &'a [u8],
    taken: &'a [bool],
    target: &'a [u32],
    dep1: &'a [u32],
    dep2: &'a [u32],
    cat: &'a [FnCategory],
    next: usize,
    end: usize,
}

impl Iterator for FlatIter<'_> {
    type Item = MicroOp;

    #[inline]
    fn next(&mut self) -> Option<MicroOp> {
        let i = self.next;
        if i >= self.end {
            return None;
        }
        self.next = i + 1;
        // SAFETY: `i < end`, `end <= kind.len()` (clamped in `range`),
        // and every field array has the same length (`push` appends to
        // all nine in lockstep).
        unsafe {
            Some(MicroOp {
                kind: *self.kind.get_unchecked(i),
                pc: *self.pc.get_unchecked(i),
                addr: *self.addr.get_unchecked(i),
                size: *self.size.get_unchecked(i),
                taken: *self.taken.get_unchecked(i),
                target: *self.target.get_unchecked(i),
                dep1: *self.dep1.get_unchecked(i),
                dep2: *self.dep2.get_unchecked(i),
                cat: *self.cat.get_unchecked(i),
            })
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let n = self.end - self.next;
        (n, Some(n))
    }
}

impl ExactSizeIterator for FlatIter<'_> {}

// Once exhausted the iterator stays exhausted, so `Fuse` adapters
// specialize to a pass-through instead of tracking a done flag on the
// simulator's per-op hot path.
impl std::iter::FusedIterator for FlatIter<'_> {}

/// The op cursor every simulation replays a trace through: the
/// [`Expander`]'s buffer of one bounded chunk at a time, refilled out of
/// line, or a range of a caller's pre-expanded ops.
///
/// Either way the per-op path is one `next < end` compare and one
/// unchecked load from a `&[MicroOp]`, and nothing on it depends on the
/// source. Positions count ops from the start of the trace, so a sampling
/// driver can warm up to one position and measure up to the next
/// ([`Ops::at`], [`Ops::stop_at`]).
#[derive(Debug)]
pub struct Ops<'a> {
    /// The current table: the rest of a chunk, or the range's ops.
    table: &'a [MicroOp],
    /// Index in `table` of the next op.
    next: usize,
    /// Index in `table` the cursor ends at: the stop, or the table's end.
    end: usize,
    /// Trace position of `table[0]`.
    base: u64,
    /// Trace position the cursor ends at, unless the trace ends first.
    stop: u64,
    /// Where a streamed cursor refills from; `None` for a range and for
    /// a stream that has run dry.
    expander: Option<Expander<'a>>,
}

impl<'a> Ops<'a> {
    /// A cursor over ops `start..end` of a pre-expanded trace (clamped to
    /// its length); trace positions are the trace's indices.
    pub fn range(trace: &'a [MicroOp], start: usize, end: usize) -> Self {
        let end = end.min(trace.len());
        Ops {
            table: trace,
            next: start.min(end),
            end,
            base: 0,
            stop: end as u64,
            expander: None,
        }
    }

    /// A cursor over the whole stream `expander` emits, generated a
    /// chunk at a time and never past the chunk that holds the stop.
    pub fn stream(expander: Expander<'a>) -> Self {
        Ops {
            table: &[],
            next: 0,
            end: 0,
            base: 0,
            stop: u64::MAX,
            expander: Some(expander),
        }
    }

    /// Trace position of the next op.
    pub fn at(&self) -> u64 {
        self.base + self.next as u64
    }

    /// Makes the cursor end at trace position `stop`, or where the trace
    /// does if that is sooner. Moving the stop past the position resumes
    /// a cursor that had ended.
    pub fn stop_at(&mut self, stop: u64) {
        self.stop = stop;
        let end = stop
            .saturating_sub(self.base)
            .clamp(self.next as u64, self.table.len() as u64);
        self.end = end as usize;
    }

    /// The cold half of [`Iterator::next`]: the table is used up, so a
    /// stream short of its stop replays the rest of the expander's
    /// current chunk, or generates the next one. A cursor at its stop
    /// generates nothing; a stop moved later only costs this call.
    #[cold]
    #[inline(never)]
    fn refill(&mut self) -> Option<MicroOp> {
        let position = self.at();
        let expander = self.expander.as_mut().filter(|_| position < self.stop)?;
        // The table may borrow the chunk buffer: let go of it first.
        self.table = &[];
        let Some(chunk) = expander.next_chunk() else {
            self.expander = None;
            return None;
        };
        // Borrowing the chunk buffer for `'a` is what keeps the per-op
        // path free of a branch on the source: a range and a chunk are
        // both a `&'a [MicroOp]`.
        // SAFETY: the buffer lives on the heap, so moving the cursor
        // leaves it in place, and the expander writes, grows or shrinks
        // it only in `next_chunk` above, after `self.table` has let go of
        // it. `self.table` is private and the only borrow made.
        self.table = unsafe { &*std::ptr::from_ref(chunk) };
        self.base = position;
        self.next = 0;
        self.stop_at(self.stop);
        self.next()
    }
}

impl Iterator for Ops<'_> {
    type Item = MicroOp;

    #[inline]
    fn next(&mut self) -> Option<MicroOp> {
        let i = self.next;
        if i >= self.end {
            return self.refill();
        }
        self.next = i + 1;
        // SAFETY: `i < end` and `end <= table.len()`: `stream` sets both
        // to 0, and `range` and `stop_at`, the other writers of `end`,
        // clamp it to the table.
        Some(unsafe { *self.table.get_unchecked(i) })
    }
}

// Once exhausted, a cursor stays exhausted until `stop_at` moves its
// stop: within one run, `Fuse` passes it through unwrapped.
impl std::iter::FusedIterator for Ops<'_> {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expand::CHUNK_OPS;

    fn sample_ops() -> Vec<MicroOp> {
        vec![
            MicroOp::int(0x10, 1, 2, FnCategory::Internal),
            MicroOp::load(0x14, 0xdead_beef, 8, 3, FnCategory::Sparsity),
            MicroOp::store(0x18, 0xfeed, 4, 1, FnCategory::MklBlas),
            MicroOp::branch(0x1c, 0x10, true, 2, FnCategory::MatrixDense),
            MicroOp::fp(OpKind::FpDiv, 0x20, 4, 0, FnCategory::MklPardiso),
            MicroOp::pause(0x24, FnCategory::FebioSpecific),
            MicroOp::serialize(0x28, FnCategory::Internal),
        ]
    }

    #[test]
    fn roundtrips_every_field() {
        let ops = sample_ops();
        let flat: FlatTrace = ops.iter().copied().collect();
        assert_eq!(flat.len(), ops.len());
        for (i, op) in ops.iter().enumerate() {
            assert_eq!(flat.get(i), *op, "op {i}");
        }
        let replayed: Vec<MicroOp> = flat.iter().collect();
        assert_eq!(replayed, ops);
    }

    #[test]
    fn range_clamps_and_counts() {
        let flat: FlatTrace = sample_ops().into_iter().collect();
        let mid: Vec<MicroOp> = flat.range(2, 5).collect();
        assert_eq!(mid, sample_ops()[2..5].to_vec());
        assert_eq!(flat.range(5, 100).count(), 2, "end clamps to len");
        assert_eq!(flat.range(9, 100).count(), 0, "start past end is empty");
        assert_eq!(flat.range(0, 0).count(), 0);
        let it = flat.iter();
        assert_eq!(it.len(), flat.len(), "exact size");
    }

    #[test]
    fn empty_trace_is_empty() {
        let flat = FlatTrace::new();
        assert!(flat.is_empty());
        assert_eq!(flat.iter().next(), None);
    }

    fn small_log() -> crate::PhaseLog {
        use crate::KernelCall;
        let mut log = crate::PhaseLog::new();
        log.record(KernelCall::Dot { n: 40 });
        log.record(KernelCall::Axpy { n: 33 });
        log.record(KernelCall::VecOp { n: 50 });
        log.record(KernelCall::Norm { n: 24 });
        log
    }

    /// Splits a cursor the way the sampling driver does — warm the gap up
    /// to each window, then run to the window's end — and returns the
    /// pieces.
    fn split(mut ops: Ops<'_>, windows: &[(u64, u64)]) -> Vec<Vec<MicroOp>> {
        let mut pieces = Vec::new();
        for &(start, len) in windows {
            ops.stop_at(start + len);
            let gap = start - ops.at();
            pieces.push(ops.by_ref().take(gap as usize).collect());
            pieces.push(ops.by_ref().collect());
            assert_eq!(ops.at(), start + len);
            assert_eq!(ops.next(), None, "ended at the stop");
        }
        pieces
    }

    /// Where each kernel call of `log` starts, then the trace's length:
    /// the op count of the log's prefix before it (expansion is
    /// prefix-closed).
    fn call_starts(log: &crate::PhaseLog) -> Vec<u64> {
        (0..=log.len())
            .map(|i| {
                let mut prefix = crate::PhaseLog::new();
                for call in &log.calls()[..i] {
                    prefix.record(call.clone());
                }
                Expander::new(&prefix).count() as u64
            })
            .collect()
    }

    #[test]
    fn streamed_cursor_yields_the_range() {
        let log = small_log();
        let all: Vec<MicroOp> = Expander::new(&log).collect();
        let total = all.len();
        let starts = call_starts(&log);
        assert!(starts[1] > 192, "premise: the stops below are in one call");

        let mut ops = Ops::stream(Expander::new(&log));
        assert_eq!(ops.by_ref().collect::<Vec<_>>(), all);
        assert_eq!(ops.at(), total as u64);
        assert_eq!(ops.next(), None, "stays exhausted");

        // A stop inside a call, then one at a call's exact end; moving
        // the stop resumes where the cursor ended.
        let mut ops = Ops::stream(Expander::new(&log));
        ops.stop_at(100);
        assert_eq!(ops.by_ref().collect::<Vec<_>>(), all[..100]);
        ops.stop_at(192);
        assert_eq!(ops.by_ref().collect::<Vec<_>>(), all[100..192]);
        ops.stop_at(starts[1]);
        assert_eq!(
            ops.by_ref().collect::<Vec<_>>(),
            all[192..starts[1] as usize]
        );
        ops.stop_at(u64::MAX);
        assert_eq!(ops.collect::<Vec<_>>(), all[starts[1] as usize..]);
        let mut range = Ops::range(&all, 0, 100);
        assert_eq!(range.by_ref().count(), 100);
        range.stop_at(u64::MAX);
        assert_eq!(
            range.collect::<Vec<_>>(),
            all[100..],
            "clamped to the trace"
        );

        // Warm gaps and windows inside a call and straddling calls, and a
        // window ending at the last op.
        let last = total as u64 - 1;
        let windows = [
            (5, 3),
            (20, 50),
            (127, 1),
            (128, 64),
            (starts[1] - 10, 20),
            (starts[2] + 60, 0),
            (starts[3] - 1, 2),
            (last, 1),
        ];
        let expected = split(Ops::range(&all, 0, total), &windows);
        let mut pos = 0;
        for (i, &(start, len)) in windows.iter().enumerate() {
            let (start, end) = (start as usize, (start + len) as usize);
            assert_eq!(expected[2 * i], all[pos..start], "range gap {i}");
            assert_eq!(expected[2 * i + 1], all[start..end], "range window {i}");
            pos = end;
        }
        let streamed = split(Ops::stream(Expander::new(&log)), &windows);
        assert_eq!(streamed, expected);
    }

    #[test]
    fn a_stopped_stream_generates_no_call_past_its_stop() {
        let log = small_log();
        let starts = call_starts(&log);
        let total = starts[log.len()];
        assert!(
            starts.windows(2).all(|w| w[0] < w[1]),
            "premise: every call emits"
        );
        assert!(
            starts.windows(2).all(|w| w[1] - w[0] < CHUNK_OPS as u64),
            "premise: every call is one chunk"
        );

        for stop in [1, starts[1], starts[1] + 1, starts[2] + 5, total - 1] {
            let mut ops = Ops::stream(Expander::new(&log));
            ops.stop_at(stop);
            assert_eq!(ops.by_ref().count() as u64, stop);
            let expander = ops.expander.as_ref().expect("stopped, not dry");
            // The calls that start before the stop, and no other.
            let reached = starts[..log.len()].iter().filter(|&&s| s < stop).count();
            assert_eq!(expander.emitted_ops(), starts[reached], "stop {stop}");
        }
    }

    #[test]
    fn soa_is_denser_than_vec_of_microop() {
        // The point of the layout: a stored op costs well under the
        // 40-byte `MicroOp` struct (29 bytes of payload across arrays).
        let mut flat = FlatTrace::with_capacity(1000);
        for op in sample_ops().into_iter().cycle().take(1000) {
            flat.push(op);
        }
        assert!(flat.footprint_bytes() < 1000 * std::mem::size_of::<MicroOp>());
    }
}
