//! Property-based tests over trace expansion invariants.

use belenos_sparse::CsrPattern;
use belenos_trace::expand::{ExpandConfig, Expander};
use belenos_trace::{expand_fingerprint, trace_fingerprint, Fnv64};
use belenos_trace::{FlatTrace, KernelCall, MaterialClass, OpKind, PhaseLog, PrecondClass};
use belenos_trace::{SolveMeta, StoreError, StoreHeader, TraceArtifact, HEADER_LEN};
use proptest::prelude::*;
use std::sync::Arc;

fn random_pattern(n: usize, extra: &[(usize, usize)]) -> Arc<CsrPattern> {
    use std::collections::BTreeSet;
    let mut rows: Vec<BTreeSet<u32>> = vec![BTreeSet::new(); n];
    for (i, row) in rows.iter_mut().enumerate() {
        row.insert(i as u32);
    }
    for &(i, j) in extra {
        let (i, j) = (i % n, j % n);
        rows[i].insert(j as u32);
        rows[j].insert(i as u32);
    }
    let mut row_ptr = vec![0usize];
    let mut col = Vec::new();
    for r in rows {
        col.extend(r);
        row_ptr.push(col.len());
    }
    Arc::new(CsrPattern::new(n, n, row_ptr, col).unwrap())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn dependencies_always_point_backwards(
        n in 1usize..80,
        spins in 1usize..40
    ) {
        let mut log = PhaseLog::new();
        log.record(KernelCall::Dot { n });
        log.record(KernelCall::OmpBarrier { spin_iters: spins });
        log.record(KernelCall::Axpy { n });
        let ops: Vec<_> = Expander::new(&log).collect();
        for (i, op) in ops.iter().enumerate() {
            // A dep distance may reach before the stream start (treated as
            // ready), but must never be forward-referencing; here that is
            // guaranteed by the encoding, so check the stronger property:
            // in-stream producers exist for short distances.
            if op.dep1 > 0 && (op.dep1 as usize) <= i {
                prop_assert!(i >= op.dep1 as usize);
            }
        }
    }

    #[test]
    fn expansion_is_deterministic(
        n in 2usize..30,
        extra in prop::collection::vec((0usize..30, 0usize..30), 0..40)
    ) {
        let p = random_pattern(n, &extra);
        let mut log = PhaseLog::new();
        log.record(KernelCall::SpMv { pattern: Arc::clone(&p) });
        let a: Vec<_> = Expander::new(&log).collect();
        let b: Vec<_> = Expander::new(&log).collect();
        prop_assert_eq!(a, b);
    }

    #[test]
    fn spmv_gather_count_matches_nnz(
        n in 2usize..30,
        extra in prop::collection::vec((0usize..30, 0usize..30), 0..40)
    ) {
        let p = random_pattern(n, &extra);
        let nnz = p.nnz();
        let mut log = PhaseLog::new();
        log.record(KernelCall::SpMv { pattern: p });
        let loads = Expander::new(&log).filter(|o| o.kind == OpKind::Load).count();
        // 3 loads per entry + 2 row-pointer loads per row.
        prop_assert_eq!(loads, 3 * nnz + 2 * n);
    }

    #[test]
    fn kernel_cap_is_respected(
        n in 100usize..2000,
        cap in 500usize..5_000
    ) {
        let mut log = PhaseLog::new();
        log.record(KernelCall::Dot { n });
        let cfg = ExpandConfig { max_kernel_ops: cap, ..ExpandConfig::default() };
        let count = Expander::with_config(&log, cfg).count();
        // Stride sampling keeps each kernel within ~2x of the cap.
        prop_assert!(count <= 2 * cap + 16, "count {} cap {}", count, cap);
    }

    #[test]
    fn loop_branches_end_not_taken(n in 1usize..60) {
        let mut log = PhaseLog::new();
        log.record(KernelCall::VecOp { n });
        let ops: Vec<_> = Expander::new(&log).collect();
        let last_branch = ops.iter().rev().find(|o| o.kind == OpKind::Branch).unwrap();
        prop_assert!(!last_branch.taken, "final loop branch must fall through");
    }
}

/// Values for the fields of a kernel call, by listing kind, that the
/// expander accepts together: node ids inside the pattern, a factor
/// structure whose `row_idx` the `col_ptr` indexes. Every field of one
/// name gets the same `Arc`, so calls share structures as a solve's do.
struct Fields {
    rng: u64,
    pattern: Arc<CsrPattern>,
    conn: Arc<Vec<u32>>,
    col_ptr: Arc<Vec<usize>>,
    row_idx: Arc<Vec<u32>>,
    heights: Arc<Vec<usize>>,
    outcomes: Arc<Vec<bool>>,
}

impl Fields {
    fn new(n: usize, extra: &[(usize, usize)], outcomes: Vec<bool>, seed: u64) -> Self {
        use std::collections::BTreeSet;
        // Strictly-lower entries of an n x n factor, by column.
        let mut below: Vec<BTreeSet<u32>> = vec![BTreeSet::new(); n];
        for &(i, j) in extra {
            let (i, j) = (i % n, j % n);
            if i != j {
                below[i.min(j)].insert(i.max(j) as u32);
            }
        }
        let mut col_ptr = vec![0usize];
        let mut row_idx = Vec::new();
        for col in below {
            row_idx.extend(col);
            col_ptr.push(row_idx.len());
        }
        Fields {
            rng: seed,
            pattern: random_pattern(n, extra),
            conn: Arc::new((0..4 * n).map(|i| (i * 7 % n) as u32).collect()),
            col_ptr: Arc::new(col_ptr),
            row_idx: Arc::new(row_idx),
            heights: Arc::new((0..n).map(|j| 1 + (seed as usize + j) % (j + 1)).collect()),
            outcomes: Arc::new(outcomes),
        }
    }

    fn draw(&mut self, below: usize) -> usize {
        self.rng = self.rng.wrapping_mul(6364136223846793005).wrapping_add(1);
        (self.rng >> 33) as usize % below
    }

    fn count(&mut self, name: &str) -> usize {
        match name {
            "nodes_per_elem" => 4,
            "dofs_per_node" => 3,
            "gauss_points" => 1 + self.draw(8),
            "iterations" | "restart" => 1 + self.draw(20),
            _ => 1 + self.draw(200),
        }
    }

    fn material(&mut self, _: &str) -> MaterialClass {
        use MaterialClass::*;
        [
            LinearElastic,
            Hyperelastic,
            FiberExponential,
            Viscoelastic,
            Biphasic,
            Multiphasic,
            Damage,
            Plasticity,
            ActiveMuscle,
            Growth,
            Fluid,
            Rigid,
        ][self.draw(12)]
    }

    fn precond(&mut self, _: &str) -> PrecondClass {
        [PrecondClass::None, PrecondClass::Jacobi, PrecondClass::Ilu0][self.draw(3)]
    }

    fn pattern(&mut self, _: &str) -> Arc<CsrPattern> {
        Arc::clone(&self.pattern)
    }

    fn usizes(&mut self, name: &str) -> Arc<Vec<usize>> {
        Arc::clone(if name == "heights" {
            &self.heights
        } else {
            &self.col_ptr
        })
    }

    fn u32s(&mut self, name: &str) -> Arc<Vec<u32>> {
        Arc::clone(if name == "conn" {
            &self.conn
        } else {
            &self.row_idx
        })
    }

    fn bools(&mut self, _: &str) -> Arc<Vec<bool>> {
        Arc::clone(&self.outcomes)
    }
}

/// From the kernel listing: the store tag of every row, and a call of
/// the row with a given tag, each field drawn from [`Fields`] by kind.
macro_rules! arbitrary {
    ($($tag:literal $label:literal $variant:ident { $($field:ident: $kind:ident),* })*) => {
        const TAGS: &[u8] = &[$($tag),*];

        fn arbitrary(tag: u8, fields: &mut Fields) -> KernelCall {
            match tag {
                $($tag => KernelCall::$variant {
                    $($field: fields.$kind(stringify!($field))),*
                },)*
                _ => unreachable!("no listing row has tag {tag}"),
            }
        }
    };
}
belenos_trace::kernels!(arbitrary);

/// Every listed kernel once, starting anywhere, then `more` again.
fn every_kernel_log(fields: &mut Fields, start: usize, more: &[usize]) -> PhaseLog {
    let mut log = PhaseLog::new();
    let all = (0..TAGS.len()).map(|i| start + i);
    for i in all.chain(more.iter().copied()) {
        log.record(arbitrary(TAGS[i % TAGS.len()], fields));
    }
    log
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    // Store round-trip over random logs of every listed kernel: the
    // decoded artifact must reconstruct every `MicroOp` of the expanded
    // trace exactly and fingerprint as the original did — encoding loss
    // would surface as a persistent-cache fingerprint mismatch in
    // production, so the property is load-bearing.
    #[test]
    fn store_roundtrip_reconstructs_every_micro_op(
        n in 2usize..30,
        extra in prop::collection::vec((0usize..30, 0usize..30), 0..40),
        outcomes in prop::collection::vec(any::<bool>(), 1..32),
        more in prop::collection::vec(0usize..1000, 0..12),
        digest in 0u64..u64::MAX,
    ) {
        let mut fields = Fields::new(n, &extra, outcomes, digest);
        let log = every_kernel_log(&mut fields, digest as usize % TAGS.len(), &more);
        let expand = ExpandConfig::default();

        let mut flat = FlatTrace::new();
        for op in Expander::new(&log) {
            flat.push(op);
        }
        let artifact = TraceArtifact {
            scenario_digest: digest,
            expand_fingerprint: expand_fingerprint(&expand),
            trace_fingerprint: trace_fingerprint(&log, &expand),
            solve: SolveMeta {
                wall_secs: digest % 1000,
                wall_subsec_nanos: (digest % 1_000_000_000) as u32,
                n_dofs: 3 * n,
                iterations: more.len(),
                size_kb: n as f64 * 0.75,
                converged: digest.is_multiple_of(2),
            },
            log,
            flat: Some(Arc::new(flat)),
        };

        let decoded = TraceArtifact::decode(&artifact.encode()).unwrap();
        prop_assert_eq!(decoded.scenario_digest, artifact.scenario_digest);
        prop_assert_eq!(decoded.expand_fingerprint, artifact.expand_fingerprint);
        prop_assert_eq!(decoded.trace_fingerprint, artifact.trace_fingerprint);
        prop_assert_eq!(&decoded.solve, &artifact.solve);
        prop_assert_eq!(decoded.log.len(), artifact.log.len());
        // The decoded log is other allocations of equal content…
        prop_assert_eq!(trace_fingerprint(&decoded.log, &expand), artifact.trace_fingerprint);
        // …it must re-expand to the identical op stream…
        let a: Vec<_> = Expander::new(&artifact.log).collect();
        let b: Vec<_> = Expander::new(&decoded.log).collect();
        prop_assert_eq!(a, b);
        // …and the decoded *flat section* must hold every op exactly.
        let fa = artifact.flat.as_ref().unwrap();
        let fb = decoded.flat.as_ref().unwrap();
        prop_assert_eq!(fa.len(), fb.len());
        for i in 0..fa.len() {
            prop_assert_eq!(fa.get(i), fb.get(i));
        }
    }
}

/// Records the largest single allocation made on the calling thread.
struct Probe;

thread_local! {
    static LARGEST: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

fn saw(size: usize) {
    // `try_with`: a thread being torn down allocates too.
    let _ = LARGEST.try_with(|l| l.set(l.get().max(size)));
}

// SAFETY: every method hands its arguments to `System` unchanged, so
// `System`'s own guarantees carry over; recording the size touches no
// memory the allocator hands out and does not allocate (the cell is
// const-initialised and has no destructor).
unsafe impl std::alloc::GlobalAlloc for Probe {
    unsafe fn alloc(&self, layout: std::alloc::Layout) -> *mut u8 {
        saw(layout.size());
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { std::alloc::System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: std::alloc::Layout) {
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { std::alloc::System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: std::alloc::Layout, new_size: usize) -> *mut u8 {
        saw(new_size);
        // SAFETY: as for `dealloc`, with the caller's `new_size`.
        unsafe { std::alloc::System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static PROBE: Probe = Probe;

/// Structural fuzz *past* the checksum: flip bits of a valid log payload
/// and recompute the section checksum, so the decoder sees the damage.
/// It may accept (a count changed) or refuse, but never panics, and no
/// length field makes it reserve more than a small multiple of the input.
#[test]
fn damaged_log_payloads_with_valid_checksums_decode_or_fail_cleanly() {
    let mut fields = Fields::new(9, &[(1, 4), (2, 7), (3, 5)], vec![true, false, true], 7);
    let log = every_kernel_log(&mut fields, 0, &[4, 5, 7, 14]);
    let artifact = TraceArtifact {
        scenario_digest: 1,
        expand_fingerprint: 2,
        trace_fingerprint: 3,
        solve: SolveMeta {
            wall_secs: 1,
            wall_subsec_nanos: 2,
            n_dofs: 27,
            iterations: 3,
            size_kb: 1.5,
            converged: true,
        },
        log,
        flat: None,
    };
    let intact = artifact.encode();
    let header = StoreHeader::decode(&intact).unwrap();
    let payload = HEADER_LEN..HEADER_LEN + header.log_len as usize;
    let (mut accepted, mut refused) = (0, 0);
    for at in payload.clone() {
        for mask in [0x01, 0x10, 0x80, 0xff] {
            let mut damaged = intact.clone();
            damaged[at] ^= mask;
            let sum = Fnv64::new().write_bytes(&damaged[payload.clone()]).finish();
            damaged[payload.end..payload.end + 8].copy_from_slice(&sum.to_le_bytes());
            LARGEST.with(|l| l.set(0));
            let result = TraceArtifact::decode(&damaged);
            let largest = LARGEST.with(|l| l.get());
            assert!(
                largest <= 8 * damaged.len(),
                "byte {at} ^ {mask:#x}: one allocation of {largest} B for {} B of input",
                damaged.len()
            );
            match result {
                Ok(decoded) => {
                    accepted += 1;
                    // Not always `damaged` itself (an index can change
                    // which table entry comes first), but a fixed point.
                    let canonical = decoded.encode();
                    let again = TraceArtifact::decode(&canonical).unwrap().encode();
                    assert!(again == canonical, "byte {at} ^ {mask:#x}");
                }
                Err(e) => {
                    refused += 1;
                    assert_ne!(e, StoreError::Checksum, "byte {at} ^ {mask:#x}");
                }
            }
        }
    }
    assert!(
        accepted > 0 && refused > 0,
        "{accepted} accepted, {refused} refused"
    );
}
