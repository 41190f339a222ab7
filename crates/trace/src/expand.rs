//! Expansion of a [`PhaseLog`] into a micro-op stream.
//!
//! Each kernel class has a generator that emits the op sequence its real
//! implementation executes: loads/stores at addresses derived from the live
//! index arrays, FP ops wired with true dependency distances, loop branches
//! with actual trip counts, and PAUSE spins for barriers.
//!
//! A generator is one function: its per-call setup, run when the call
//! starts, then its trip loop, a closure that each chunk resumes. What
//! every generator shares lives once:
//!
//! * the **emitter** (`Emit`): it holds the stream's chunk buffer and is
//!   bound to the running kernel's code region (the current code copy of
//!   it) and [`FnCategory`]. An op is one call naming its pc offset,
//!   operands and producers; the emitter turns producers, which are op
//!   positions counted from the start of the kernel call, into dependency
//!   distances.
//! * the **trip helper** (`Trips`, `Emit::trip`): large kernels are
//!   *deterministically subsampled* (strided) to bound per-kernel op
//!   counts, so the emitted stream is a representative slice with
//!   identical per-iteration structure. The emitter hands out each
//!   sampled iteration with its loop-back outcome, and starts none once
//!   the chunk is full.
//! * the **array memo** (`Expander::placed`): the arrays of a sparse
//!   pattern, factor or mesh are placed in the synthetic address space
//!   once, keyed by kind and `Arc` pointer, so repeated kernels over the
//!   same structure touch the same addresses.
//! * the **material rows** (`material_profile`): one constitutive cost
//!   row per [`MaterialClass`].
//!
//! # Chunks
//!
//! The stream is generated a bounded chunk at a time. A refill resumes
//! the current kernel call at its next trip and generates whole trips
//! until the chunk holds at least [`CHUNK_OPS`] ops or the call ends, so
//! a stream holds at most one chunk plus one trip however large its
//! calls are. An iterative solve (`CgSolve`, `FgmresSolve`) runs as its
//! leaf kernels in turn. Where a chunk ends moves no op: positions count
//! from the start of the call, and a call's arrays are placed when it
//! starts. A truncated stream starts no trip once its stored ops reach
//! the limit.

use crate::digest::Fnv64;
use crate::layout::{AddressSpace, ArrayHandle};
use crate::op::{FnCategory, MicroOp, OpKind};
use crate::program::{KernelCall, MaterialClass, PhaseLog, PrecondClass};
use belenos_json::record;
use belenos_sparse::CsrPattern;
use std::collections::HashMap;
use std::sync::Arc;

/// Tuning knobs for trace expansion (per-workload character).
#[derive(Debug, Clone, PartialEq)]
pub struct ExpandConfig {
    /// Stride applied inside the heaviest per-element loops (Gauss FP work,
    /// stiffness scatter): `1` = emit everything.
    pub sample: usize,
    /// Number of distinct code copies per kernel (models instruction-
    /// footprint bloat, e.g. template instantiation in multibody code).
    pub code_bloat: u32,
    /// Multiplier on recorded spin-barrier iterations.
    pub spin_scale: f64,
    /// Hard cap on ops emitted for a single kernel call (strided down).
    pub max_kernel_ops: usize,
}

record!(ExpandConfig {
    sample: COUNT,
    code_bloat: COUNT,
    spin_scale: Positive,
    max_kernel_ops: COUNT,
});

impl Default for ExpandConfig {
    fn default() -> Self {
        ExpandConfig {
            sample: 1,
            code_bloat: 1,
            spin_scale: 1.0,
            max_kernel_ops: 1_000_000,
        }
    }
}

impl ExpandConfig {
    /// Feeds every knob to `h`. The destructure has no `..`, so a new
    /// knob fails to compile here until it is hashed and can never
    /// silently alias a runner-cache entry or a persisted trace.
    pub(crate) fn feed(&self, h: &mut Fnv64) {
        let ExpandConfig {
            sample,
            code_bloat,
            spin_scale,
            max_kernel_ops,
        } = self;
        h.write_usize(*sample)
            .write_u64(*code_bloat as u64)
            .write_f64(*spin_scale)
            .write_usize(*max_kernel_ops);
    }
}

/// Stable fingerprint of an [`ExpandConfig`] alone — the second half of
/// the trace store's content address (`scenario_digest` × this).
pub fn expand_fingerprint(expand: &ExpandConfig) -> u64 {
    let mut h = Fnv64::new();
    h.write_str("expand-v1");
    expand.feed(&mut h);
    h.finish()
}

/// Ops a refill generates at least, unless its kernel call ends first
/// (128 KiB of `MicroOp`s). A stream holds at most one chunk plus one
/// trip.
pub const CHUNK_OPS: usize = 4096;

/// What an entry of the array memo was placed for.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Placed {
    Pattern,
    Factor,
    Mesh,
    /// A mesh's precomputed scatter-index (LM) table.
    Scatter,
    /// BLAS-1 scratch vectors, keyed by length: real solvers reuse their
    /// workspace buffers.
    Blas,
}

/// Streaming expander: iterates [`MicroOp`]s for a [`PhaseLog`],
/// generated a chunk of whole trips at a time.
pub struct Expander<'a> {
    calls: &'a [KernelCall],
    /// Index of the next call to start.
    call_idx: usize,
    /// The running kernel: the current call's, or the current leaf of
    /// its iterative solve; `None` between calls.
    kernel: Option<Kernel>,
    /// The current call's iterative solve, handing out its leaves.
    solve: Option<Solve>,
    /// The chunk and the running kernel's binding.
    emit: Emit,
    /// Index in the chunk of the next op the iterator yields.
    cursor: usize,
    space: AddressSpace,
    config: ExpandConfig,
    /// The array memo: repeated kernels over the same structure reuse the
    /// same addresses — essential for realistic cross-iteration cache
    /// reuse.
    placed: HashMap<(Placed, usize), Box<[ArrayHandle]>>,
    instance: u32,
    /// Ops stored in the chunks generated so far.
    emitted: u64,
    /// Where the stream ends, at the latest (see [`Expander::truncated`]).
    limit: u64,
}

impl std::fmt::Debug for Expander<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Expander")
            .field("call_idx", &self.call_idx)
            .field("emitted", &self.emitted)
            .finish_non_exhaustive()
    }
}

/// What a stream's chunk buffer has held so far ([`Expander::footprint`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Footprint {
    /// Ops the buffer has room for.
    pub capacity: usize,
    /// The most ops the buffer had room for since the last refill began,
    /// before [`Footprint::capacity`] was given back.
    pub peak_capacity: usize,
    /// Stored ops of the largest trip generated so far.
    pub largest_trip: usize,
    /// Stream position where the latest trip started.
    pub last_trip_at: u64,
}

// Fixed code layout (synthetic text segment). Each kernel gets a region;
// code bloat replicates the body at `region + copy * span`.
const PC_DOT: u32 = 0x0010_0000;
const PC_AXPY: u32 = 0x0011_0000;
const PC_NORM: u32 = 0x0012_0000;
const PC_VECOP: u32 = 0x0013_0000;
const PC_SPMV: u32 = 0x0020_0000;
const PC_ASSEMBLE: u32 = 0x0030_0000;
const PC_RESIDUAL: u32 = 0x0038_0000;
const PC_LDLFAC: u32 = 0x0040_0000;
const PC_LDLSOL: u32 = 0x0048_0000;
const PC_CONST: u32 = 0x0060_0000;
const PC_CONTACT: u32 = 0x0070_0000;
const PC_BARRIER: u32 = 0x0071_0000;
const PC_BC: u32 = 0x0072_0000;
const PC_MESH: u32 = 0x0073_0000;
const PC_RIGID: u32 = 0x0074_0000;
const PC_CONV: u32 = 0x0075_0000;
const PC_PRECOND: u32 = 0x0076_0000;
/// Span of one code copy inside a region.
const BLOAT_SPAN: u32 = 0x0400;

impl<'a> Expander<'a> {
    /// Expands `log` with default configuration.
    pub fn new(log: &'a PhaseLog) -> Self {
        Self::with_config(log, ExpandConfig::default())
    }

    /// Expands `log` with explicit configuration.
    pub fn with_config(log: &'a PhaseLog, config: ExpandConfig) -> Self {
        Expander {
            calls: log.calls(),
            call_idx: 0,
            kernel: None,
            solve: None,
            emit: Emit::default(),
            cursor: 0,
            space: AddressSpace::new(),
            config,
            placed: HashMap::new(),
            instance: 0,
            emitted: 0,
            limit: u64::MAX,
        }
    }

    /// Ends the stream after its first `limit` ops: the trip that reaches
    /// the limit stores no op past it, and no later trip is generated.
    /// The ops up to the limit are the untruncated stream's.
    pub fn truncated(mut self, limit: u64) -> Self {
        self.limit = limit;
        self
    }

    /// Ops emitted so far.
    pub fn emitted_ops(&self) -> u64 {
        self.emitted
    }

    /// What the chunk buffer has held so far.
    pub fn footprint(&self) -> Footprint {
        let chunk_at = self.emitted - self.emit.buf.len() as u64;
        Footprint {
            capacity: self.emit.buf.capacity(),
            peak_capacity: self.emit.peak_capacity,
            largest_trip: self.emit.largest_trip,
            last_trip_at: chunk_at + self.emit.trip_start as u64,
        }
    }

    /// Consumes the expander and returns the total number of ops the
    /// full stream emits (including any ops already consumed).
    ///
    /// This only runs the per-kernel generators — no per-op iteration,
    /// no simulation — so it is the cheap way to learn the trace length
    /// before placing sampling intervals over it.
    pub fn into_total_ops(self) -> u64 {
        self.total_ops_up_to(u64::MAX)
    }

    /// Like [`Expander::into_total_ops`] but stops generating once
    /// `limit` ops have been counted, doing only `O(min(limit, total))`
    /// work: the smaller of the total and `limit`. It drains the same
    /// chunks a stream replays.
    pub fn total_ops_up_to(mut self, limit: u64) -> u64 {
        self.limit = self.limit.min(limit);
        while self.generate() {}
        self.emitted
    }

    /// The rest of the current chunk's ops, or, once those are used up,
    /// the next chunk's; `None` when the stream ends. The ops are the
    /// ones [`Iterator::next`] would have yielded, and they count as
    /// yielded.
    pub fn next_chunk(&mut self) -> Option<&[MicroOp]> {
        while self.cursor == self.emit.buf.len() {
            if !self.generate() {
                return None;
            }
        }
        let rest = &self.emit.buf[self.cursor..];
        self.cursor = self.emit.buf.len();
        Some(rest)
    }

    /// Generates the next chunk: the running kernel call resumes at its
    /// next trip, or the next call starts, and whole trips follow until
    /// the chunk holds [`CHUNK_OPS`] ops or the call ends. No trip starts
    /// once the stored ops reach the limit. False when the stream has
    /// ended.
    fn generate(&mut self) -> bool {
        let between_calls = self.kernel.is_none();
        if self.emitted >= self.limit || between_calls && self.call_idx == self.calls.len() {
            return false;
        }
        let room = usize::try_from(self.limit - self.emitted).unwrap_or(usize::MAX);
        self.emit.restart(room);
        self.cursor = 0;
        if between_calls {
            self.start_call();
        }
        while let Some(kernel) = &mut self.kernel {
            if !kernel.run(&mut self.emit) {
                break;
            }
            self.kernel = self.next_leaf();
        }
        self.emit.settle();
        self.emitted += self.emit.buf.len() as u64;
        true
    }

    /// Starts the next kernel call: its per-call setup, once.
    fn start_call(&mut self) {
        let call = &self.calls[self.call_idx];
        self.call_idx += 1;
        self.instance = self.instance.wrapping_add(1);
        self.emit.base = 0;
        self.kernel = match call {
            KernelCall::Dot { n } => Some(self.dot(PC_DOT, *n, FnCategory::MklBlas)),
            KernelCall::Axpy { n } => Some(self.axpy(*n)),
            KernelCall::Norm { n } => Some(self.dot(PC_NORM, *n, FnCategory::MklBlas)),
            KernelCall::VecOp { n } => Some(self.vecop(*n)),
            KernelCall::SpMv { pattern } => Some(self.spmv(pattern, FnCategory::Sparsity)),
            KernelCall::AssembleStiffness {
                conn,
                nodes_per_elem,
                dofs_per_node,
                gauss_points,
                material,
                pattern,
            } => Some(self.assemble(
                conn,
                *nodes_per_elem,
                *dofs_per_node,
                *gauss_points,
                *material,
                Some(pattern),
            )),
            KernelCall::AssembleResidual {
                conn,
                nodes_per_elem,
                dofs_per_node,
                gauss_points,
                material,
            } => Some(self.assemble(
                conn,
                *nodes_per_elem,
                *dofs_per_node,
                *gauss_points,
                *material,
                None,
            )),
            KernelCall::LdlFactor { col_ptr, row_idx } => Some(self.ldl_factor(col_ptr, row_idx)),
            KernelCall::LdlSolve { col_ptr, row_idx } => Some(self.ldl_solve(col_ptr, row_idx)),
            KernelCall::CgSolve {
                pattern,
                iterations,
                precond,
            } => {
                self.solve = Some(self.cg(pattern, *iterations, *precond));
                self.next_leaf()
            }
            KernelCall::FgmresSolve {
                pattern,
                iterations,
                restart,
                precond,
            } => {
                self.solve = Some(self.fgmres(pattern, *iterations, *restart, *precond));
                self.next_leaf()
            }
            KernelCall::ConstitutiveUpdate {
                gauss_points,
                material,
            } => Some(self.constitutive(*gauss_points, *material)),
            KernelCall::ContactSearch { outcomes } => Some(self.contact(outcomes)),
            KernelCall::OmpBarrier { spin_iters } => {
                let spins = ((*spin_iters as f64) * self.config.spin_scale).round() as usize;
                Some(self.barrier(spins))
            }
            KernelCall::BcApply { n } => Some(self.bc(*n)),
            KernelCall::MeshUpdate { n_nodes } => Some(self.mesh_update(*n_nodes)),
            KernelCall::RigidUpdate { n_bodies, n_joints } => {
                Some(self.rigid(*n_bodies, *n_joints))
            }
            KernelCall::ConvergenceCheck { n } => Some(self.dot(PC_CONV, *n, FnCategory::Internal)),
        };
    }

    /// The next leaf kernel of the running iterative solve, set up when
    /// it starts; `None` once the solve, or a call without one, ends.
    fn next_leaf(&mut self) -> Option<Kernel> {
        let solve = self.solve.as_ref()?;
        let (pattern, precond) = (Arc::clone(&solve.pattern), solve.precond);
        let n = pattern.nrows();
        while let Some(leaf) = self.solve.as_mut()?.leaves.next() {
            let kernel = match leaf {
                Leaf::SpMv => Some(self.spmv(&pattern, FnCategory::Sparsity)),
                Leaf::Dot => Some(self.dot(PC_DOT, n, FnCategory::MklBlas)),
                Leaf::Axpy => Some(self.axpy(n)),
                Leaf::Precond => self.precond(&pattern, precond),
            };
            if kernel.is_some() {
                return kernel;
            }
        }
        self.solve = None;
        None
    }

    // ---- the array memo ---------------------------------------------------

    /// The arrays placed for `(kind, key)`. `place` allocates them on
    /// first use only, so the address-space layout follows the log.
    fn placed<const N: usize>(
        &mut self,
        kind: Placed,
        key: usize,
        place: impl FnOnce(&mut AddressSpace) -> [ArrayHandle; N],
    ) -> [ArrayHandle; N] {
        let space = &mut self.space;
        let arrays = self
            .placed
            .entry((kind, key))
            .or_insert_with(|| place(space).into());
        (&arrays[..])
            .try_into()
            .expect("a kind always places the same number of arrays")
    }

    /// Row pointers, column indices, values, x and y of a sparse pattern.
    fn pattern_arrays(&mut self, p: &Arc<CsrPattern>) -> [ArrayHandle; 5] {
        self.placed(Placed::Pattern, Arc::as_ptr(p) as usize, |s| {
            [
                s.alloc_u64(p.nrows() + 1),
                s.alloc_u32(p.nnz()),
                s.alloc_f64(p.nnz()),
                s.alloc_f64(p.ncols().max(1)),
                s.alloc_f64(p.nrows().max(1)),
            ]
        })
    }

    /// Column pointers, row indices, `L` values, work vector and diagonal
    /// of an LDLᵀ factor.
    fn factor_arrays(&mut self, col_ptr: &Arc<Vec<usize>>, nnz: usize) -> [ArrayHandle; 5] {
        let n = col_ptr.len().saturating_sub(1).max(1);
        self.placed(Placed::Factor, Arc::as_ptr(col_ptr) as usize, |s| {
            [
                s.alloc_u64(n + 1),
                s.alloc_u32(nnz.max(1)),
                s.alloc_f64(nnz.max(1)),
                s.alloc_f64(n),
                s.alloc_f64(n),
            ]
        })
    }

    fn blas(&mut self, n: usize) -> [ArrayHandle; 2] {
        self.placed(Placed::Blas, n, |s| {
            [s.alloc_f64(n.max(1)), s.alloc_f64(n.max(1))]
        })
    }

    // ---- the kernel binding and the trip helper ---------------------------

    /// A kernel whose code lives at `region`; code bloat rotates
    /// successive calls over `code_bloat` copies of the body. `body` is
    /// the kernel's trip loop.
    fn kernel(
        &self,
        region: u32,
        cat: FnCategory,
        trips: Trips,
        body: impl FnMut(&mut Emit, &mut Trips) + 'static,
    ) -> Kernel {
        let pc = region + (self.instance % self.config.code_bloat.max(1)) * BLOAT_SPAN;
        Kernel {
            pc,
            cat,
            trips,
            body: Box::new(body),
        }
    }

    fn stride_for(&self, total_iters: usize, ops_per_iter: usize) -> usize {
        let total = total_iters.saturating_mul(ops_per_iter);
        if total <= self.config.max_kernel_ops {
            1
        } else {
            total.div_ceil(self.config.max_kernel_ops)
        }
    }

    /// The sampled iterations of an `n`-trip loop of `ops_per_iter` ops,
    /// strided down to the kernel cap.
    fn trips(&self, n: usize, ops_per_iter: usize) -> Trips {
        Trips {
            next: 0,
            n,
            stride: self.stride_for(n, ops_per_iter),
        }
    }

    // ---- BLAS-1 -----------------------------------------------------------

    fn dot(&mut self, region: u32, n: usize, cat: FnCategory) -> Kernel {
        let [a, b] = self.blas(n);
        let mut acc = None;
        self.kernel(region, cat, self.trips(n, 6), move |e, trips| {
            while let Some((i, more)) = e.trip(trips) {
                let la = e.load(0, a.addr(i), 8, None);
                let lb = e.load(4, b.addr(i), 8, None);
                let m = e.fp(OpKind::FpMul, 8, la, lb);
                acc = Some(e.fp(OpKind::FpAdd, 12, m, acc));
                let inc = e.int(16, None, None);
                e.branch(20, 0, more, inc);
            }
        })
    }

    fn axpy(&mut self, n: usize) -> Kernel {
        let [x, y] = self.blas(n);
        let trips = self.trips(n, 7);
        self.kernel(PC_AXPY, FnCategory::MklBlas, trips, move |e, trips| {
            while let Some((i, more)) = e.trip(trips) {
                let lx = e.load(0, x.addr(i), 8, None);
                let ly = e.load(4, y.addr(i), 8, None);
                let m = e.fp(OpKind::FpMul, 8, lx, None);
                let s = e.fp(OpKind::FpAdd, 12, m, ly);
                e.store(16, y.addr(i), 8, s);
                let inc = e.int(20, None, None);
                e.branch(24, 0, more, inc);
            }
        })
    }

    fn vecop(&mut self, n: usize) -> Kernel {
        let [x, y] = self.blas(n);
        let trips = self.trips(n, 4);
        self.kernel(PC_VECOP, FnCategory::MklBlas, trips, move |e, trips| {
            while let Some((i, more)) = e.trip(trips) {
                let lx = e.load(0, x.addr(i), 8, None);
                e.store(4, y.addr(i), 8, lx);
                let inc = e.int(8, None, None);
                e.branch(12, 0, more, inc);
            }
        })
    }

    // ---- SpMV ---------------------------------------------------------------

    fn spmv(&mut self, p: &Arc<CsrPattern>, cat: FnCategory) -> Kernel {
        let [row_ptr, col_idx, vals, x, y] = self.pattern_arrays(p);
        let p = Arc::clone(p);
        let avg = p.avg_row_nnz().max(1.0) as usize;
        let trips = self.trips(p.nrows(), 7 * avg + 5);
        self.kernel(PC_SPMV, cat, trips, move |e, trips| {
            while let Some((r, more)) = e.trip(trips) {
                // Row-pointer loads (sequential, hot).
                let rp0 = e.load(0, row_ptr.addr(r), 8, None);
                let rp1 = e.load(4, row_ptr.addr(r + 1), 8, None);
                let cmp = e.int(8, rp0, rp1);
                let row = p.row(r);
                e.branch(12, 64, row.is_empty(), cmp);
                let base = p.row_ptr()[r];
                let mut acc = None;
                for (kk, &c) in row.iter().enumerate() {
                    // Sequential index + value loads, irregular x gather.
                    let lc = e.load(16, col_idx.addr(base + kk), 4, None);
                    let lv = e.load(20, vals.addr(base + kk), 8, None);
                    let lx = e.load(24, x.addr(c as usize), 8, lc);
                    let m = e.fp(OpKind::FpMul, 28, lv, lx);
                    acc = Some(e.fp(OpKind::FpAdd, 32, m, acc));
                    e.branch(36, 16, kk + 1 < row.len(), None);
                }
                e.store(40, y.addr(r), 8, acc);
                e.branch(44, 0, more, None);
            }
        })
    }

    // ---- assembly -----------------------------------------------------------

    fn assemble(
        &mut self,
        conn: &Arc<Vec<u32>>,
        npe: usize,
        dpn: usize,
        gp: usize,
        material: MaterialClass,
        pattern: Option<&Arc<CsrPattern>>,
    ) -> Kernel {
        let n_elems = conn.len() / npe.max(1);
        let dpe = npe * dpn;
        let m = material_profile(material);
        let sample = self.config.sample.max(1);
        let bloat = self.config.code_bloat.max(1);
        let gauss_fp = 30 + m.fp_add + m.fp_mul; // shape + constitutive
        let scatter = if pattern.is_some() {
            dpe * dpe / sample
        } else {
            dpe
        };
        let per_elem = npe * 4 + gp * (gauss_fp / sample) + scatter * 4;
        let trips = self.trips(n_elems, per_elem.max(1));
        let gp_state = n_elems * gp * m.state_f64;
        let [conn_a, coords, state, disp] =
            self.placed(Placed::Mesh, Arc::as_ptr(conn) as usize, |s| {
                let n_nodes = conn.iter().copied().max().unwrap_or(0) as usize + 1;
                [
                    s.alloc_u32(conn.len().max(1)),
                    s.alloc_f64(n_nodes * 3),
                    s.alloc_f64(gp_state.max(1)),
                    s.alloc_f64(n_nodes * 3),
                ]
            });
        let stiffness = pattern.map(|p| {
            let [row_ptr, _, vals, _, _] = self.pattern_arrays(p);
            (Arc::clone(p), row_ptr, vals)
        });
        // The precomputed scatter-index (LM) table, `dpe × dpe` entries per
        // element, is built once per mesh when its first element scatters.
        let table = (stiffness.is_some() && n_elems > 0).then(|| {
            let len = conn.len().max(1) * dpe * dpe / 8 + dpe * dpe;
            let [t] = self.placed(Placed::Scatter, Arc::as_ptr(conn) as usize, |s| {
                [s.alloc_u32(len)]
            });
            t
        });
        let region = if pattern.is_some() {
            PC_ASSEMBLE
        } else {
            PC_RESIDUAL
        };
        let conn = Arc::clone(conn);
        self.kernel(region, FnCategory::Internal, trips, move |e, trips| {
            let base_pc = e.pc;
            while let Some((el, more)) = e.trip(trips) {
                // Different elements exercise different inlined code
                // variants (material dispatch, element-shape
                // specializations).
                e.pc = base_pc + (el as u32 % bloat) * BLOAT_SPAN * 4;
                // Connectivity loads (sequential) + coordinate gathers
                // (irregular).
                let mut coord = None;
                for a in 0..npe {
                    let lc = e.load(0, conn_a.addr(el * npe + a), 4, None);
                    let node = conn[el * npe + a] as usize;
                    coord = Some(e.load(4, coords.addr(node * 3), 8, lc));
                    e.load(8, disp.addr(node * 3), 8, lc);
                }
                // Gauss-point work: shape-function block + constitutive
                // block.
                for g in (0..gp).step_by(sample) {
                    e.material_block(0x40, state, (el * gp + g) * m.state_f64, &m, sample, coord);
                }
                let dof = |i: usize| (conn[el * npe + i / dpn] as usize) * dpn + (i % dpn);
                if let (Some((p, row_ptr, vals)), Some(table)) = (&stiffness, table) {
                    // Scatter K_e into the global CSR through the LM table,
                    // as FE codes do: a streaming load of the table entry,
                    // then an irregular load-add-store on the matrix value
                    // it points at.
                    for i in 0..dpe {
                        let gi = dof(i).min(p.nrows().saturating_sub(1));
                        let lrp = e.load(0x80, row_ptr.addr(gi), 8, None);
                        let row_len = p.row(gi).len().max(1);
                        let base = p.row_ptr()[gi];
                        for j in (0..dpe).step_by(sample) {
                            let lt = e.load(0x90, table.addr((el * dpe + i) * dpe + j), 4, lrp);
                            // Deterministic position inside the row: binary
                            // search executed at table-build time, not here.
                            let k = base + (i * 7 + j * 3) % row_len;
                            let lv = e.load(0xA0, vals.addr(k), 8, lt);
                            let add = e.fp(OpKind::FpAdd, 0xA4, lv, None);
                            e.store(0xA8, vals.addr(k), 8, add);
                            // Row-bounds check: strongly biased, predictable.
                            e.branch(0xAC, 0x90, j + sample < dpe, None);
                        }
                    }
                } else {
                    // Residual scatter: one gather-add-store per element dof.
                    for i in 0..dpe {
                        let l = e.load(0xB0, disp.addr(dof(i)), 8, None);
                        let s = e.fp(OpKind::FpAdd, 0xB4, l, None);
                        e.store(0xB8, disp.addr(dof(i)), 8, s);
                    }
                }
                e.branch(0xC0, 0, more, None);
            }
        })
    }

    // ---- constitutive sweep ---------------------------------------------------

    fn constitutive(&mut self, gauss_points: usize, material: MaterialClass) -> Kernel {
        let m = material_profile(material);
        let per_gp = m.state_f64 + m.state_stores + m.fp_add + m.fp_mul + m.fp_div + 3;
        let trips = self.trips(gauss_points, per_gp);
        let state = self
            .space
            .alloc_f64(gauss_points.max(1) * m.state_f64.max(1));
        let bloat = self.config.code_bloat.max(1);
        // Each material's update code sits in its own 4 KiB slot.
        let region = PC_CONST + material.tag() as u32 * 0x1000;
        self.kernel(region, FnCategory::FebioSpecific, trips, move |e, trips| {
            let base_pc = e.pc;
            while let Some((g, more)) = e.trip(trips) {
                e.pc = base_pc + ((g as u32 / 8) % bloat) * BLOAT_SPAN * 4;
                e.material_block(0, state, g * m.state_f64, &m, 1, None);
                e.branch(0x200, 0, more, None);
            }
        })
    }

    // ---- direct solvers --------------------------------------------------------

    fn ldl_factor(&mut self, col_ptr: &Arc<Vec<usize>>, row_idx: &Arc<Vec<u32>>) -> Kernel {
        let [cp, ri, lx, work, diag] = self.factor_arrays(col_ptr, row_idx.len());
        let (col_ptr, row_idx) = (Arc::clone(col_ptr), Arc::clone(row_idx));
        let n = col_ptr.len().saturating_sub(1);
        let trips = self.trips(n, 8 * (row_idx.len() / n.max(1)).max(1) + 6);
        self.kernel(PC_LDLFAC, FnCategory::MklPardiso, trips, move |e, trips| {
            while let Some((j, more)) = e.trip(trips) {
                let (lo, hi) = (col_ptr[j], col_ptr[j + 1]);
                let lp0 = e.load(0, cp.addr(j), 8, None);
                let mut prev_store = None;
                for p in lo..hi {
                    let li = e.load(8, ri.addr(p), 4, lp0);
                    let lxp = e.load(12, lx.addr(p), 8, None);
                    let target = row_idx[p] as usize;
                    let ly = e.load(16, work.addr(target), 8, li);
                    let m = e.fp(OpKind::FpMul, 20, lxp, ly);
                    let s = e.fp(OpKind::FpAdd, 24, m, prev_store);
                    prev_store = Some(e.store(28, work.addr(target), 8, s));
                    e.branch(32, 8, p + 1 < hi, None);
                }
                // Pivot: divide and store diagonal.
                let d = e.fp(OpKind::FpDiv, 36, prev_store, None);
                e.store(40, diag.addr(j), 8, d);
                e.branch(44, 0, more, None);
            }
        })
    }

    fn ldl_solve(&mut self, col_ptr: &Arc<Vec<usize>>, row_idx: &Arc<Vec<u32>>) -> Kernel {
        let [_, ri, lx, work, diag] = self.factor_arrays(col_ptr, row_idx.len());
        let (col_ptr, row_idx) = (Arc::clone(col_ptr), Arc::clone(row_idx));
        let n = col_ptr.len().saturating_sub(1);
        let trips = self.trips(n, 6 * (row_idx.len() / n.max(1)).max(1) + 4);
        // Forward sweep: scatter updates chained through the work vector.
        self.kernel(PC_LDLSOL, FnCategory::MklPardiso, trips, move |e, trips| {
            while let Some((j, more)) = e.trip(trips) {
                let lxj = e.load(0, work.addr(j), 8, None);
                for p in col_ptr[j]..col_ptr[j + 1] {
                    let li = e.load(4, ri.addr(p), 4, None);
                    let lv = e.load(8, lx.addr(p), 8, None);
                    let target = row_idx[p] as usize;
                    let m = e.fp(OpKind::FpMul, 12, lv, lxj);
                    let lw = e.load(16, work.addr(target), 8, li);
                    let s = e.fp(OpKind::FpAdd, 20, m, lw);
                    e.store(24, work.addr(target), 8, s);
                }
                let dv = e.load(28, diag.addr(j), 8, None);
                let dd = e.fp(OpKind::FpDiv, 32, lxj, dv);
                e.store(36, work.addr(j), 8, dd);
                e.branch(40, 0, more, None);
            }
        })
    }

    // ---- iterative solvers -------------------------------------------------------

    /// The preconditioner's apply, if it emits any ops.
    fn precond(&mut self, p: &Arc<CsrPattern>, precond: PrecondClass) -> Option<Kernel> {
        match precond {
            PrecondClass::None => None,
            PrecondClass::Jacobi => {
                let [_, _, _, _, y] = self.pattern_arrays(p);
                let trips = self.trips(p.nrows(), 4);
                Some(
                    self.kernel(PC_PRECOND, FnCategory::MklBlas, trips, move |e, trips| {
                        while let Some((i, more)) = e.trip(trips) {
                            let l = e.load(0, y.addr(i), 8, None);
                            let m = e.fp(OpKind::FpMul, 4, l, None);
                            e.store(8, y.addr(i), 8, m);
                            e.branch(12, 0, more, None);
                        }
                    }),
                )
            }
            // Forward+backward sweep over the same pattern: same traversal
            // shape and traffic as a SpMV.
            PrecondClass::Ilu0 => Some(self.spmv(p, FnCategory::MklPardiso)),
        }
    }

    fn cg(&self, p: &Arc<CsrPattern>, iters: usize, precond: PrecondClass) -> Solve {
        // Sample iterations so one CG call respects the kernel cap: every
        // iteration is architecturally identical.
        let per_iter = p.nnz() * 7 + p.nrows() * 20;
        // Iterative solves share the kernel budget with assembly so one
        // solve does not monopolize the trace window.
        let budget_iters =
            (self.config.max_kernel_ops / 4 / per_iter.max(1)).clamp(1, iters.max(1));
        let iteration = [
            Leaf::SpMv,
            Leaf::Dot,
            Leaf::Axpy,
            Leaf::Axpy,
            Leaf::Precond,
            Leaf::Dot,
            Leaf::Axpy,
        ];
        let leaves = (0..budget_iters).flat_map(|_| iteration).collect();
        Solve::new(p, precond, leaves)
    }

    fn fgmres(
        &self,
        p: &Arc<CsrPattern>,
        iters: usize,
        restart: usize,
        precond: PrecondClass,
    ) -> Solve {
        let per_iter = p.nnz() * 7 + p.nrows() * 13 * (restart / 2).max(1);
        let budget_iters = (self.config.max_kernel_ops / per_iter.max(1)).clamp(1, iters.max(1));
        let mut leaves = Vec::new();
        for it in 0..budget_iters {
            leaves.extend([Leaf::Precond, Leaf::SpMv]);
            // Modified Gram-Schmidt against j+1 basis vectors.
            for _ in 0..=it % restart.max(1) {
                leaves.extend([Leaf::Dot, Leaf::Axpy]);
            }
            leaves.push(Leaf::Dot); // norm
        }
        Solve::new(p, precond, leaves)
    }

    // ---- misc kernels ----------------------------------------------------------

    fn contact(&mut self, outcomes: &Arc<Vec<bool>>) -> Kernel {
        let coords = self.space.alloc_f64(outcomes.len().max(1) * 3);
        let outcomes = Arc::clone(outcomes);
        let trips = self.trips(outcomes.len(), 14);
        self.kernel(
            PC_CONTACT,
            FnCategory::FebioSpecific,
            trips,
            move |e, trips| {
                while let Some((i, more)) = e.trip(trips) {
                    let l0 = e.load(0, coords.addr(i * 3), 8, None);
                    let l1 = e.load(4, coords.addr(i * 3 + 1), 8, None);
                    let l2 = e.load(8, coords.addr(i * 3 + 2), 8, None);
                    let d0 = e.fp(OpKind::FpAdd, 12, l0, l1);
                    let d1 = e.fp(OpKind::FpAdd, 16, d0, l2);
                    // The gap test: outcome from the real solve — irregular.
                    e.branch(20, 0x40, outcomes[i], d1);
                    if outcomes[i] {
                        // Penalty force evaluation + scatter.
                        let mut force = d1;
                        for t in 0..6 {
                            force = e.fp(OpKind::FpMul, 0x40 + t * 4, d1, None);
                        }
                        e.store(0x60, coords.addr(i * 3), 8, force);
                    }
                    e.branch(0x70, 0, more, None);
                }
            },
        )
    }

    fn barrier(&mut self, spins: usize) -> Kernel {
        let flag = self.space.alloc_f64(1);
        let trips = self.trips(spins, 4);
        self.kernel(
            PC_BARRIER,
            FnCategory::FebioSpecific,
            trips,
            move |e, trips| {
                while let Some((_, more)) = e.trip(trips) {
                    e.pause(0);
                    let l = e.load(4, flag.addr(0), 8, None);
                    let c = e.int(8, l, None);
                    e.branch(12, 0, more, c);
                }
            },
        )
    }

    fn bc(&mut self, n: usize) -> Kernel {
        let arr = self.space.alloc_f64(n.max(1));
        let trips = self.trips(n, 4);
        self.kernel(PC_BC, FnCategory::FebioSpecific, trips, move |e, trips| {
            while let Some((i, more)) = e.trip(trips) {
                let l = e.load(0, arr.addr(i), 8, None);
                e.store(4, arr.addr(i), 8, l);
                e.branch(8, 0, more, None);
            }
        })
    }

    fn mesh_update(&mut self, n_nodes: usize) -> Kernel {
        let coords = self.space.alloc_f64(n_nodes.max(1) * 3);
        let trips = self.trips(n_nodes, 9);
        self.kernel(PC_MESH, FnCategory::Internal, trips, move |e, trips| {
            while let Some((i, more)) = e.trip(trips) {
                for a in 0..3u32 {
                    let at = coords.addr(i * 3 + a as usize);
                    let l = e.load(a * 12, at, 8, None);
                    let s = e.fp(OpKind::FpAdd, a * 12 + 4, l, None);
                    e.store(a * 12 + 8, at, 8, s);
                }
                e.branch(40, 0, more, None);
            }
        })
    }

    fn rigid(&mut self, n_bodies: usize, n_joints: usize) -> Kernel {
        let state = self.space.alloc_f64(n_bodies.max(1) * 13);
        // One trip per body, then one per joint; neither is strided.
        let trips = Trips {
            next: 0,
            n: n_bodies + n_joints,
            stride: 1,
        };
        self.kernel(
            PC_RIGID,
            FnCategory::FebioSpecific,
            trips,
            move |e, trips| {
                let base_pc = e.pc;
                while let Some((i, more)) = e.trip(trips) {
                    if let Some(j) = i.checked_sub(n_bodies) {
                        // Joint constraint rows: small dense 6x6 blocks with
                        // divides.
                        e.pc = base_pc + 0x8000 + (j as u32 % 24) * 0x240;
                        let mut prev = None;
                        for t in 0..36u32 {
                            let kind = if t % 9 == 8 {
                                OpKind::FpDiv
                            } else {
                                OpKind::FpMul
                            };
                            let idx = e.fp(kind, 0x400 + t * 8, prev, None);
                            prev = Some(idx);
                            if t % 6 == 5 {
                                e.store(0x600, state.addr(j * 6 + (t as usize % 6)), 8, idx);
                            }
                        }
                        e.branch(0x700, 0, more, None);
                        continue;
                    }
                    // Rigid-body/joint code in FEBio is call-graph heavy: each
                    // body executes its own straight-line code stretch (the
                    // inlined per-body update of multibody frameworks) — large
                    // instruction footprint with little reuse.
                    e.pc = base_pc + (i as u32 % 24) * 0x240;
                    // Kinematic transforms propagate serially down the joint
                    // tree: each body's pose depends on its parent's (a true
                    // chain).
                    let mut prev = None;
                    for t in 0..13u32 {
                        let at = state.addr(i * 13 + t as usize);
                        let l = e.load(t * 16, at, 8, prev);
                        let m = e.fp(OpKind::FpMul, t * 16 + 4, l, prev);
                        let a = e.fp(OpKind::FpAdd, t * 16 + 8, m, None);
                        prev = Some(e.store(t * 16 + 12, at, 8, a));
                    }
                }
            },
        )
    }
}

impl Iterator for Expander<'_> {
    type Item = MicroOp;

    fn next(&mut self) -> Option<MicroOp> {
        loop {
            if let Some(&op) = self.emit.buf.get(self.cursor) {
                self.cursor += 1;
                return Some(op);
            }
            if !self.generate() {
                return None;
            }
        }
    }
}

/// The sampled iterations of a loop, strided down to the kernel cap and
/// handed out by [`Emit::trip`]; `next` is where the loop resumes.
#[derive(Debug, Clone, Copy)]
struct Trips {
    next: usize,
    n: usize,
    stride: usize,
}

/// A kernel in progress: its code binding, where its trips resume, and
/// its trip loop.
struct Kernel {
    /// Code address of the body (the current code copy of it).
    pc: u32,
    cat: FnCategory,
    trips: Trips,
    body: TripLoop,
}

/// A kernel's trip loop: it generates trips while [`Emit::trip`] hands
/// them out, and holds the arrays the kernel's setup placed and the
/// state one trip carries to the next.
type TripLoop = Box<dyn FnMut(&mut Emit, &mut Trips)>;

impl Kernel {
    /// Generates whole trips into the chunk until it is full; true once
    /// the kernel has ended.
    fn run(&mut self, e: &mut Emit) -> bool {
        e.pc = self.pc;
        e.cat = self.cat;
        (self.body)(e, &mut self.trips);
        self.trips.next >= self.trips.n
    }
}

/// A leaf kernel of an iterative solve.
#[derive(Debug, Clone, Copy)]
enum Leaf {
    SpMv,
    Dot,
    Axpy,
    Precond,
}

/// An iterative solve in progress: its system, and its leaf kernels
/// still to run, in order.
struct Solve {
    pattern: Arc<CsrPattern>,
    precond: PrecondClass,
    leaves: std::vec::IntoIter<Leaf>,
}

impl Solve {
    fn new(pattern: &Arc<CsrPattern>, precond: PrecondClass, leaves: Vec<Leaf>) -> Self {
        Solve {
            pattern: Arc::clone(pattern),
            precond,
            leaves: leaves.into_iter(),
        }
    }
}

/// A producer: the position an [`Emit`] call returned, or none.
type Dep = Option<usize>;

/// The op emitter: it holds the stream's chunk buffer, binds the running
/// kernel's code base and category, and turns producers — the positions
/// its calls return, counted from the start of the kernel call — into the
/// dependency distances a [`MicroOp`] carries. Each op is one call naming
/// its pc offset from `pc`, its operands and its producers.
#[derive(Debug)]
struct Emit {
    /// The chunk: the ops generated since the last refill.
    buf: Vec<MicroOp>,
    /// Position in the kernel call of `buf[0]`.
    base: usize,
    /// Ops the chunk may store before the stream's limit; the rest are
    /// dropped.
    room: usize,
    /// Length at which the chunk is full: no trip starts there.
    fill: usize,
    /// Code address the ops' pc offsets count from.
    pc: u32,
    cat: FnCategory,
    /// Index in `buf` where the latest trip started.
    trip_start: usize,
    /// Stored ops of the largest trip so far.
    largest_trip: usize,
    /// The buffer's largest capacity since the last `restart`.
    peak_capacity: usize,
}

impl Default for Emit {
    fn default() -> Self {
        Emit {
            buf: Vec::new(),
            base: 0,
            room: 0,
            fill: 0,
            pc: 0,
            cat: FnCategory::Internal,
            trip_start: 0,
            largest_trip: 0,
            peak_capacity: 0,
        }
    }
}

impl Emit {
    /// Empties the buffer for a chunk that may store `room` ops. It
    /// reserves a chunk plus the largest trip so far, so only a trip
    /// larger than every earlier one can grow it.
    fn restart(&mut self, room: usize) {
        self.base += self.buf.len();
        self.buf.clear();
        self.trip_start = 0;
        self.room = room;
        self.fill = CHUNK_OPS.min(room);
        self.buf.reserve_exact(self.fill + self.largest_trip);
        self.peak_capacity = self.buf.capacity();
    }

    /// Gives back what a record trip grew the buffer by past a chunk plus
    /// the largest trip.
    fn settle(&mut self) {
        self.buf.shrink_to(CHUNK_OPS + self.largest_trip);
    }

    /// Starts the next trip of `trips` unless the chunk is full: `(i,
    /// more)`, where `more` is the outcome of the loop-back branch that
    /// ends iteration `i`.
    #[inline]
    fn trip(&mut self, trips: &mut Trips) -> Option<(usize, bool)> {
        let len = self.buf.len();
        self.largest_trip = self.largest_trip.max(len - self.trip_start);
        if len >= self.fill || trips.next >= trips.n {
            return None;
        }
        self.trip_start = len;
        let i = trips.next;
        trips.next += trips.stride;
        Some((i, trips.next < trips.n))
    }

    /// Position of the next op in the kernel call.
    #[inline]
    fn pos(&self) -> usize {
        self.base + self.buf.len()
    }

    /// Distance from the next op back to producer `p` (`0` = none).
    /// Saturating: past the room, a dropped op may name a dropped
    /// producer beyond the chunk's end.
    fn dist(&self, p: impl Into<Dep>) -> u32 {
        p.into().map_or(0, |p| self.pos().saturating_sub(p) as u32)
    }

    fn add(&mut self, op: MicroOp) -> usize {
        let at = self.pos();
        let len = self.buf.len();
        if len < self.room {
            if len == self.buf.capacity() {
                self.grow();
            }
            self.buf.push(op);
        }
        at
    }

    /// Room for a record trip that outgrew the reserve, not a doubling of
    /// the whole chunk: as many ops again as the larger of the trip so far
    /// and the largest trip before it (a kernel's trips are alike, so one
    /// step mostly suffices). Neither exceeds the largest trip once this
    /// one ends, so the buffer stays below a chunk plus twice that.
    #[cold]
    fn grow(&mut self) {
        let trip = self.buf.len() - self.trip_start;
        self.buf.reserve_exact(trip.max(self.largest_trip).max(1));
        self.peak_capacity = self.peak_capacity.max(self.buf.capacity());
    }

    fn load(&mut self, at: u32, addr: u64, size: u8, dep: impl Into<Dep>) -> usize {
        let op = MicroOp::load(self.pc + at, addr, size, self.dist(dep), self.cat);
        self.add(op)
    }

    fn store(&mut self, at: u32, addr: u64, size: u8, data: impl Into<Dep>) -> usize {
        let op = MicroOp::store(self.pc + at, addr, size, self.dist(data), self.cat);
        self.add(op)
    }

    fn fp(&mut self, kind: OpKind, at: u32, p1: impl Into<Dep>, p2: impl Into<Dep>) -> usize {
        let op = MicroOp::fp(kind, self.pc + at, self.dist(p1), self.dist(p2), self.cat);
        self.add(op)
    }

    fn int(&mut self, at: u32, p1: impl Into<Dep>, p2: impl Into<Dep>) -> usize {
        let op = MicroOp::int(self.pc + at, self.dist(p1), self.dist(p2), self.cat);
        self.add(op)
    }

    /// A branch at offset `at` to offset `to`.
    fn branch(&mut self, at: u32, to: u32, taken: bool, dep: impl Into<Dep>) -> usize {
        let op = MicroOp::branch(self.pc + at, self.pc + to, taken, self.dist(dep), self.cat);
        self.add(op)
    }

    fn pause(&mut self, at: u32) -> usize {
        self.add(MicroOp::pause(self.pc + at, self.cat))
    }

    /// The FP body of one material-point update at offset `at`: state
    /// loads, an FP block wired per the material's chain structure, any
    /// data-dependent branch (yield/damage checks), then state stores.
    fn material_block(
        &mut self,
        at: u32,
        state: ArrayHandle,
        state_idx: usize,
        m: &MaterialProfile,
        sample: usize,
        extra_dep: Dep,
    ) {
        let first_load = self.pos();
        let mut prev = extra_dep;
        for s in 0..m.state_f64 {
            let dep = if m.serial_loads { prev } else { extra_dep };
            prev = Some(self.load(at + (s as u32 % 8) * 4, state.addr(state_idx + s), 8, dep));
        }
        // FP block: `chains` independent dependency chains of interleaved
        // mul/add, with divides inserted at chain boundaries.
        let total_fp = (m.fp_add + m.fp_mul) / sample.max(1);
        let chains = m.chains.max(1);
        let mut tail = [None; MAX_CHAINS];
        let tail = &mut tail[..chains];
        for t in 0..total_fp {
            let kind = if t % 2 == 0 {
                OpKind::FpMul
            } else {
                OpKind::FpAdd
            };
            let src = (m.state_f64 > 0).then(|| first_load + t % m.state_f64);
            // Straight-line constitutive code: each op has its own pc
            // (inlined template expansions), so the body spans
            // ~16 B x total_fp of icache footprint, as real material
            // kernels do.
            tail[t % chains] =
                Some(self.fp(kind, at + 0x40 + t as u32 * 16, tail[t % chains], src));
        }
        for d in 0..m.fp_div / sample.max(1) {
            let at = at + 0x90 + (d as u32 % 4) * 4;
            tail[d % chains] = Some(self.fp(OpKind::FpDiv, at, tail[d % chains], None));
        }
        // Data-dependent branches (yield surface / damage threshold / fiber
        // tension switch): outcomes keyed off the material-point index, so
        // they are irregular yet deterministic across Newton iterations.
        // The short-period mix defeats per-PC two-bit counters while
        // history-based predictors can learn it.
        if m.branchy {
            let point = state_idx / m.state_f64.max(1);
            for b in 0..(total_fp / 80).max(1) {
                let taken = (point * 3 + b * 5) % 7 < 3;
                self.branch(
                    at + 0xA0 + (b as u32 % 4) * 8,
                    at + 0x40,
                    taken,
                    tail[b % chains],
                );
            }
        }
        for s in 0..m.state_stores {
            let addr = state.addr(state_idx + s);
            self.store(at + 0xB0 + (s as u32 % 4) * 4, addr, 8, tail[s % chains]);
        }
    }
}

/// Per-material constitutive cost profile.
#[derive(Debug, Clone)]
struct MaterialProfile {
    state_f64: usize,
    state_stores: usize,
    fp_add: usize,
    fp_mul: usize,
    fp_div: usize,
    /// Number of independent dependency chains (1 = fully serial).
    chains: usize,
    /// Emits a data-dependent branch per point.
    branchy: bool,
    /// History loads chase pointers (each depends on the previous one) —
    /// latency-bound rather than MLP-friendly.
    serial_loads: bool,
}

/// The most dependency chains a material row may name: a material-point
/// block keeps its chains' tails in a fixed array of this length.
const MAX_CHAINS: usize = 10;

/// The material rows: one constitutive cost row per class.
#[rustfmt::skip]
fn material_profile(m: MaterialClass) -> MaterialProfile {
    use MaterialClass::*;
    let (state_f64, state_stores, fp_add, fp_mul, fp_div, chains, branchy, serial_loads) = match m {
        //                state stores add  mul div chains branchy serial_loads
        LinearElastic    => ( 6,  0, 12,  12, 0, 10, false, false),
        Hyperelastic     => (10,  2, 30,  40, 3,  8, false, false),
        FiberExponential => (12,  2, 60,  90, 2,  8, true,  false),
        Viscoelastic     => (24, 12, 80, 100, 2,  1, false, false),
        Biphasic         => (14,  4, 40,  50, 4,  6, false, false),
        Multiphasic      => (20,  6, 60,  70, 6,  6, false, false),
        Damage           => (10,  2, 25,  30, 1,  2, true,  true),
        Plasticity       => (12,  4, 30,  35, 2,  5, true,  false),
        ActiveMuscle     => (10,  2, 35,  45, 1,  7, false, false),
        Growth           => (10,  2, 30,  40, 2,  7, false, false),
        Fluid            => (12,  2, 45,  55, 6,  9, false, false),
        Rigid            => ( 2,  0,  4,   4, 0,  2, false, false),
    };
    MaterialProfile { state_f64, state_stores, fp_add, fp_mul, fp_div, chains, branchy, serial_loads }
}

#[cfg(test)]
mod tests {
    use super::*;
    use belenos_sparse::CsrPattern;
    use std::sync::Arc;

    fn tri_pattern(n: usize) -> Arc<CsrPattern> {
        let mut row_ptr = vec![0usize];
        let mut col = Vec::new();
        for i in 0..n {
            if i > 0 {
                col.push((i - 1) as u32);
            }
            col.push(i as u32);
            if i + 1 < n {
                col.push((i + 1) as u32);
            }
            row_ptr.push(col.len());
        }
        Arc::new(CsrPattern::new(n, n, row_ptr, col).unwrap())
    }

    #[test]
    fn every_material_row_fits_the_chain_tails() {
        let rows: Vec<MaterialClass> = (0..=u8::MAX).filter_map(MaterialClass::from_tag).collect();
        assert!(!rows.is_empty());
        for m in rows {
            let chains = material_profile(m).chains;
            assert!(chains <= MAX_CHAINS, "{m:?}: {chains} chains");
        }
    }

    #[test]
    fn dot_emits_expected_structure() {
        let mut log = PhaseLog::new();
        log.record(KernelCall::Dot { n: 10 });
        let ops: Vec<_> = Expander::new(&log).collect();
        let loads = ops.iter().filter(|o| o.kind == OpKind::Load).count();
        let branches = ops.iter().filter(|o| o.kind == OpKind::Branch).count();
        assert_eq!(loads, 20);
        assert_eq!(branches, 10);
        // Final loop branch must be not-taken.
        let last_br = ops.iter().rev().find(|o| o.kind == OpKind::Branch).unwrap();
        assert!(!last_br.taken);
    }

    #[test]
    fn dot_accumulation_chain_is_serial() {
        // 1 000 elements span two chunks: the chain crosses a refill.
        for n in [5, 1000] {
            let mut log = PhaseLog::new();
            log.record(KernelCall::Dot { n });
            let ops: Vec<_> = Expander::new(&log).collect();
            let adds: Vec<usize> = ops
                .iter()
                .enumerate()
                .filter(|(_, o)| o.kind == OpKind::FpAdd)
                .map(|(i, _)| i)
                .collect();
            assert_eq!(adds.len(), n);
            // Each add (after the first) depends on the previous add.
            for w in adds.windows(2) {
                let dist = (w[1] - w[0]) as u32;
                assert_eq!(
                    ops[w[1]].dep2, dist,
                    "accumulation chain broken at {}",
                    w[1]
                );
            }
        }
    }

    #[test]
    fn spmv_gathers_follow_pattern() {
        let p = tri_pattern(6);
        let mut log = PhaseLog::new();
        log.record(KernelCall::SpMv {
            pattern: Arc::clone(&p),
        });
        let mut ex = Expander::new(&log);
        let ops: Vec<_> = (&mut ex).collect();
        // nnz = 16: each entry yields 3 loads (colidx, vals, x-gather).
        let loads = ops.iter().filter(|o| o.kind == OpKind::Load).count();
        assert_eq!(loads, 16 * 3 + 6 * 2);
        assert_eq!(ex.emitted_ops() as usize, ops.len());
    }

    #[test]
    fn repeated_spmv_reuses_addresses() {
        let p = tri_pattern(4);
        let mut log = PhaseLog::new();
        log.record(KernelCall::SpMv {
            pattern: Arc::clone(&p),
        });
        log.record(KernelCall::SpMv {
            pattern: Arc::clone(&p),
        });
        let ops: Vec<_> = Expander::new(&log).collect();
        let loads: Vec<u64> = ops
            .iter()
            .filter(|o| o.kind == OpKind::Load)
            .map(|o| o.addr)
            .collect();
        let half = loads.len() / 2;
        assert_eq!(
            &loads[..half],
            &loads[half..],
            "second spmv must touch same addresses"
        );
    }

    fn count(ops: &[MicroOp], kind: OpKind) -> usize {
        ops.iter().filter(|o| o.kind == kind).count()
    }

    #[test]
    fn axpy_loads_stores_and_loops_once_per_element() {
        let mut log = PhaseLog::new();
        log.record(KernelCall::Axpy { n: 8 });
        let ops: Vec<_> = Expander::new(&log).collect();
        assert_eq!(count(&ops, OpKind::Load), 16);
        assert_eq!(count(&ops, OpKind::Store), 8);
        assert_eq!(count(&ops, OpKind::Branch), 8);
        let taken = ops.iter().filter(|o| o.kind == OpKind::Branch && o.taken);
        assert_eq!(taken.count(), 7);
    }

    #[test]
    fn dot_and_barrier_op_mix() {
        let mut log = PhaseLog::new();
        log.record(KernelCall::Dot { n: 32 });
        log.record(KernelCall::OmpBarrier { spin_iters: 8 });
        let ops: Vec<_> = Expander::new(&log).collect();
        let mix = [
            (OpKind::Load, 32 * 2 + 8),
            (OpKind::FpMul, 32),
            (OpKind::FpAdd, 32),
            (OpKind::IntAlu, 32 + 8),
            (OpKind::Branch, 32 + 8),
            (OpKind::Pause, 8),
        ];
        for (kind, n) in mix {
            assert_eq!(count(&ops, kind), n, "{kind:?}");
        }
        assert_eq!(ops.len(), mix.iter().map(|&(_, n)| n).sum::<usize>());
    }

    #[test]
    fn vecop_touches_its_two_arrays_lines() {
        let mut log = PhaseLog::new();
        log.record(KernelCall::VecOp { n: 64 }); // two 512 B arrays
        let lines: std::collections::HashSet<u64> = Expander::new(&log)
            .filter(|o| o.kind.is_mem())
            .map(|o| o.addr / 64)
            .collect();
        assert_eq!(lines.len(), 2 * 512 / 64);
    }

    #[test]
    fn barrier_emits_pauses() {
        let mut log = PhaseLog::new();
        log.record(KernelCall::OmpBarrier { spin_iters: 16 });
        let ops: Vec<_> = Expander::new(&log).collect();
        let pauses = ops.iter().filter(|o| o.kind == OpKind::Pause).count();
        assert_eq!(pauses, 16);
    }

    #[test]
    fn spin_scale_multiplies_pauses() {
        let mut log = PhaseLog::new();
        log.record(KernelCall::OmpBarrier { spin_iters: 10 });
        let cfg = ExpandConfig {
            spin_scale: 3.0,
            ..ExpandConfig::default()
        };
        let ops: Vec<_> = Expander::with_config(&log, cfg).collect();
        assert_eq!(ops.iter().filter(|o| o.kind == OpKind::Pause).count(), 30);
    }

    #[test]
    fn contact_branches_follow_outcomes() {
        let outcomes = Arc::new(vec![true, false, true, false]);
        let mut log = PhaseLog::new();
        log.record(KernelCall::ContactSearch { outcomes });
        let ops: Vec<_> = Expander::new(&log).collect();
        // The gap-test branches (at pc+20) mirror the outcome vector.
        let gap_branches: Vec<bool> = ops
            .iter()
            .filter(|o| o.kind == OpKind::Branch && o.pc == PC_CONTACT + 20)
            .map(|o| o.taken)
            .collect();
        assert_eq!(gap_branches, vec![true, false, true, false]);
    }

    #[test]
    fn kernel_cap_bounds_emission() {
        let p = tri_pattern(100_000);
        let mut log = PhaseLog::new();
        log.record(KernelCall::SpMv { pattern: p });
        let cfg = ExpandConfig {
            max_kernel_ops: 10_000,
            ..ExpandConfig::default()
        };
        let mut ex = Expander::with_config(&log, cfg);
        let count = (&mut ex).count();
        assert!(count <= 20_000, "emitted {count}");
        assert!(count < Expander::new(&log).count());
    }

    #[test]
    fn code_bloat_spreads_pcs() {
        let mut log = PhaseLog::new();
        for _ in 0..8 {
            log.record(KernelCall::Dot { n: 4 });
        }
        let one: std::collections::HashSet<u32> =
            Expander::with_config(&log, ExpandConfig::default())
                .map(|o| o.pc)
                .collect();
        let bloated: std::collections::HashSet<u32> = Expander::with_config(
            &log,
            ExpandConfig {
                code_bloat: 8,
                ..ExpandConfig::default()
            },
        )
        .map(|o| o.pc)
        .collect();
        assert!(bloated.len() > one.len());
    }

    #[test]
    fn cg_composite_contains_spmv_and_blas() {
        let p = tri_pattern(32);
        let mut log = PhaseLog::new();
        log.record(KernelCall::CgSolve {
            pattern: p,
            iterations: 3,
            precond: PrecondClass::Jacobi,
        });
        let ops: Vec<_> = Expander::new(&log).collect();
        assert!(ops.iter().any(|o| o.cat == FnCategory::Sparsity));
        assert!(ops.iter().any(|o| o.cat == FnCategory::MklBlas));
    }

    #[test]
    fn assemble_touches_matrix_values() {
        let p = tri_pattern(12);
        let conn = Arc::new(vec![0u32, 1, 2, 3, 2, 3, 4, 5]);
        let mut log = PhaseLog::new();
        log.record(KernelCall::AssembleStiffness {
            conn,
            nodes_per_elem: 4,
            dofs_per_node: 1,
            gauss_points: 2,
            material: MaterialClass::LinearElastic,
            pattern: p,
        });
        let ops: Vec<_> = Expander::new(&log).collect();
        assert!(ops
            .iter()
            .any(|o| o.kind == OpKind::Store && o.cat == FnCategory::Internal));
        // The scatter updates matrix values through the LM table.
        assert!(ops.iter().filter(|o| o.kind == OpKind::Store).count() > 4);
    }

    #[test]
    fn ldl_factor_scatter_uses_row_indices() {
        let col_ptr = Arc::new(vec![0usize, 2, 3, 3]);
        let row_idx = Arc::new(vec![1u32, 2, 2]);
        let mut log = PhaseLog::new();
        log.record(KernelCall::LdlFactor { col_ptr, row_idx });
        let ops: Vec<_> = Expander::new(&log).collect();
        assert!(ops.iter().any(|o| o.kind == OpKind::FpDiv));
        assert!(ops.iter().filter(|o| o.kind == OpKind::Store).count() >= 3);
        assert!(ops.iter().all(|o| o.cat == FnCategory::MklPardiso));
    }

    #[test]
    fn viscoelastic_material_is_serial_chained() {
        let mut log = PhaseLog::new();
        log.record(KernelCall::ConstitutiveUpdate {
            gauss_points: 2,
            material: MaterialClass::Viscoelastic,
        });
        let ops: Vec<_> = Expander::new(&log).collect();
        // Serial chain: most fp ops must have dep1 pointing at previous fp.
        let fp_ops: Vec<(usize, &MicroOp)> = ops
            .iter()
            .enumerate()
            .filter(|(_, o)| o.kind.is_fp())
            .collect();
        let chained = fp_ops.iter().filter(|(_, o)| o.dep1 > 0).count();
        assert!(
            chained * 10 >= fp_ops.len() * 8,
            "viscoelastic chain too loose"
        );
    }

    #[test]
    fn empty_log_yields_no_ops() {
        let log = PhaseLog::new();
        assert_eq!(Expander::new(&log).count(), 0);
        assert_eq!(Expander::new(&log).into_total_ops(), 0);
    }

    #[test]
    fn total_ops_matches_iterated_count() {
        let p = tri_pattern(64);
        let mut log = PhaseLog::new();
        log.record(KernelCall::Dot { n: 100 });
        log.record(KernelCall::SpMv {
            pattern: Arc::clone(&p),
        });
        log.record(KernelCall::OmpBarrier { spin_iters: 7 });
        let counted = Expander::new(&log).count() as u64;
        assert_eq!(Expander::new(&log).into_total_ops(), counted);
        // Partial consumption does not change the total.
        let mut half = Expander::new(&log);
        for _ in 0..counted / 2 {
            half.next();
        }
        assert_eq!(half.into_total_ops(), counted);
        // Bounded counting: the smaller of the total and the limit.
        assert_eq!(Expander::new(&log).total_ops_up_to(counted * 2), counted);
        assert_eq!(Expander::new(&log).total_ops_up_to(10), 10);
    }

    #[test]
    fn a_truncated_stream_is_the_prefix_up_to_its_limit() {
        let p = tri_pattern(64);
        let mut log = PhaseLog::new();
        log.record(KernelCall::Dot { n: 100 });
        log.record(KernelCall::SpMv {
            pattern: Arc::clone(&p),
        });
        log.record(KernelCall::OmpBarrier { spin_iters: 7 });
        let all: Vec<MicroOp> = Expander::new(&log).collect();
        let total = all.len() as u64;
        // Where the SpMV and the barrier start: each call is shorter than
        // a chunk, so a refill generates one whole call.
        let mut ex = Expander::new(&log);
        let starts = [1, 2].map(|_| {
            ex.generate();
            ex.emitted_ops()
        });
        // `(limit, kernel calls generated)`: a limit inside a call stores
        // that call's ops up to it, and generates no later call.
        for (limit, calls) in [
            (0, 0),
            (1, 1),
            (starts[0], 1),
            (starts[0] + 1, 2),
            (starts[1], 2),
            (starts[1] + 1, 3),
            (total, 3),
            (total + 3, 3),
        ] {
            let mut ex = Expander::new(&log).truncated(limit);
            let ops: Vec<MicroOp> = ex.by_ref().collect();
            let kept = limit.min(total);
            assert_eq!(ops, all[..kept as usize], "limit {limit}");
            assert_eq!(ex.emitted_ops(), kept, "limit {limit}");
            assert_eq!(ex.call_idx, calls, "limit {limit}");
        }
    }

    #[test]
    fn next_chunk_yields_the_rest_of_each_chunk() {
        let p = tri_pattern(64);
        let mut log = PhaseLog::new();
        // 9 000 ops: two full chunks and the rest of the call.
        log.record(KernelCall::Dot { n: 1500 });
        log.record(KernelCall::SpMv {
            pattern: Arc::clone(&p),
        });
        log.record(KernelCall::OmpBarrier { spin_iters: 7 });
        let all: Vec<MicroOp> = Expander::new(&log).collect();
        let total = all.len() as u64;
        // Where each chunk ends.
        let mut ex = Expander::new(&log);
        let ends: Vec<u64> =
            std::iter::from_fn(|| ex.generate().then(|| ex.emitted_ops())).collect();
        // A dot trip is 6 ops: a chunk stops at the first trip end at or
        // past `CHUNK_OPS`, and a call's last chunk at the call's end.
        let first = CHUNK_OPS.next_multiple_of(6) as u64;
        assert_eq!(ends[..3], [first, 2 * first, 9000], "the dot in chunks");
        assert_eq!(ends.len(), 5, "one chunk for each short call");

        // After `k` ops one at a time, the rest of the chunk holding op
        // `k`; at a chunk's end, the whole next chunk.
        for k in [
            0,
            1,
            5,
            ends[0] - 1,
            ends[0],
            ends[0] + 1,
            ends[2],
            ends[3],
            total - 1,
        ] {
            let mut ex = Expander::new(&log);
            for _ in 0..k {
                ex.next();
            }
            let end = *ends.iter().find(|&&e| e > k).unwrap();
            let rest = ex.next_chunk().expect("short of the end");
            assert_eq!(rest, &all[k as usize..end as usize], "after {k} ops");
            assert_eq!(ex.next(), all.get(end as usize).copied(), "after {k} ops");
        }

        // The chunks in a row are the op stream, whole or truncated.
        for limit in [u64::MAX, 0, 1, ends[0], ends[0] + 1, ends[2] + 1, total - 1] {
            let mut ex = Expander::new(&log).truncated(limit);
            let mut ops = Vec::new();
            while let Some(chunk) = ex.next_chunk() {
                assert!(!chunk.is_empty(), "limit {limit}");
                ops.extend_from_slice(chunk);
            }
            assert_eq!(ops, all[..limit.min(total) as usize], "limit {limit}");
            assert_eq!(ex.next_chunk(), None, "limit {limit}: stays dry");
        }
    }

    #[test]
    fn iterative_solves_run_their_leaf_kernels_in_order() {
        // A CG iteration is SpMV, dot, axpy, axpy, preconditioner, dot,
        // axpy; an FGMRES one is preconditioner, SpMV, `it % restart + 1`
        // dot-axpy pairs and the norm's dot. The leaves are the calls
        // themselves, so the solve's stream is theirs back to back.
        let p = tri_pattern(24);
        let n = p.nrows();
        let leaves = |solve: KernelCall, leaves: Vec<KernelCall>| {
            let mut one = PhaseLog::new();
            one.record(solve);
            let mut many = PhaseLog::new();
            for leaf in leaves {
                many.record(leaf);
            }
            // Code bloat would rotate the leaves' code copies per call.
            let solve: Vec<MicroOp> = Expander::new(&one).collect();
            let calls: Vec<MicroOp> = Expander::new(&many).collect();
            assert_eq!(solve.len(), calls.len());
            // Positions are call-relative, so every op matches.
            assert_eq!(solve, calls);
        };
        let spmv = || KernelCall::SpMv {
            pattern: Arc::clone(&p),
        };
        let cg_iteration = || {
            vec![
                spmv(),
                KernelCall::Dot { n },
                KernelCall::Axpy { n },
                KernelCall::Axpy { n },
                KernelCall::Dot { n },
                KernelCall::Axpy { n },
            ]
        };
        leaves(
            KernelCall::CgSolve {
                pattern: Arc::clone(&p),
                iterations: 3,
                precond: PrecondClass::None,
            },
            [cg_iteration(), cg_iteration(), cg_iteration()].concat(),
        );
        let fgmres_iteration = |it: usize| {
            // ILU(0) is an SpMV-shaped sweep, but in its own category.
            let mut leaves = vec![spmv(), spmv()];
            for _ in 0..=it % 2 {
                leaves.extend([KernelCall::Dot { n }, KernelCall::Axpy { n }]);
            }
            leaves.push(KernelCall::Dot { n });
            leaves
        };
        let mut one = PhaseLog::new();
        one.record(KernelCall::FgmresSolve {
            pattern: Arc::clone(&p),
            iterations: 3,
            restart: 2,
            precond: PrecondClass::Ilu0,
        });
        let solve: Vec<MicroOp> = Expander::new(&one).collect();
        let mut many = PhaseLog::new();
        for leaf in (0..3).flat_map(fgmres_iteration) {
            many.record(leaf);
        }
        let calls: Vec<MicroOp> = Expander::new(&many).collect();
        let category = |ops: &[MicroOp]| ops.iter().map(|o| o.cat).collect::<Vec<_>>();
        assert_eq!(solve.len(), calls.len());
        let strip = |ops: &[MicroOp]| {
            ops.iter()
                .map(|o| MicroOp {
                    cat: FnCategory::Internal,
                    ..*o
                })
                .collect::<Vec<_>>()
        };
        assert_eq!(strip(&solve), strip(&calls));
        assert_ne!(category(&solve), category(&calls), "ILU(0) is MKL's");
    }

    /// Small-mesh calls of every kernel kind, iterative solves included;
    /// the dot, the stiffness assembly and the barrier each span more
    /// than one chunk.
    fn every_kind_log() -> PhaseLog {
        let p = tri_pattern(40);
        let conn = Arc::new((0..48u32).map(|i| (i * 7) % 23).collect::<Vec<_>>());
        let col_ptr = Arc::new((0..=30).map(|j| 2 * j).collect::<Vec<usize>>());
        let row_idx = Arc::new((0..60u32).map(|k| (k / 2 + 1 + k % 2).min(29)).collect());
        let mut log = PhaseLog::new();
        for call in [
            KernelCall::Dot { n: 900 },
            KernelCall::Axpy { n: 30 },
            KernelCall::Norm { n: 20 },
            KernelCall::VecOp { n: 25 },
            KernelCall::SpMv {
                pattern: Arc::clone(&p),
            },
            KernelCall::AssembleStiffness {
                conn: Arc::clone(&conn),
                nodes_per_elem: 4,
                dofs_per_node: 3,
                gauss_points: 4,
                material: MaterialClass::FiberExponential,
                pattern: Arc::clone(&p),
            },
            KernelCall::AssembleResidual {
                conn,
                nodes_per_elem: 4,
                dofs_per_node: 3,
                gauss_points: 1,
                material: MaterialClass::Damage,
            },
            KernelCall::LdlFactor {
                col_ptr: Arc::clone(&col_ptr),
                row_idx: Arc::clone(&row_idx),
            },
            KernelCall::LdlSolve { col_ptr, row_idx },
            KernelCall::CgSolve {
                pattern: Arc::clone(&p),
                iterations: 4,
                precond: PrecondClass::Jacobi,
            },
            KernelCall::FgmresSolve {
                pattern: Arc::clone(&p),
                iterations: 5,
                restart: 3,
                precond: PrecondClass::Ilu0,
            },
            KernelCall::CgSolve {
                pattern: p,
                iterations: 2,
                precond: PrecondClass::None,
            },
            KernelCall::ConstitutiveUpdate {
                gauss_points: 30,
                material: MaterialClass::Plasticity,
            },
            KernelCall::ContactSearch {
                outcomes: Arc::new((0..40).map(|i| i % 3 == 0).collect()),
            },
            KernelCall::OmpBarrier { spin_iters: 1500 },
            KernelCall::BcApply { n: 12 },
            KernelCall::MeshUpdate { n_nodes: 27 },
            KernelCall::RigidUpdate {
                n_bodies: 3,
                n_joints: 2,
            },
            KernelCall::ConvergenceCheck { n: 81 },
        ] {
            log.record(call);
        }
        log
    }

    /// Where each kernel call of a stream starts and where each of its
    /// chunks ends, read off the expander as it refills.
    fn call_starts_and_chunk_ends(log: &PhaseLog, cfg: &ExpandConfig) -> (Vec<u64>, Vec<u64>) {
        let mut ex = Expander::with_config(log, cfg.clone());
        let (mut starts, mut ends) = (Vec::new(), Vec::new());
        let mut calls = 0;
        loop {
            let at = ex.emitted_ops();
            if !ex.generate() {
                return (starts, ends);
            }
            if ex.call_idx > calls {
                calls = ex.call_idx;
                starts.push(at);
            }
            ends.push(ex.emitted_ops());
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(48))]

        #[test]
        fn a_truncated_stream_is_the_prefix_at_every_kind_of_limit(
            kind in 0usize..4,
            pick in proptest::any::<u64>(),
            tuned in proptest::any::<bool>()
        ) {
            // Limits inside a trip, on a trip's start, on a call's start
            // and on a chunk's end, under the default knobs and under
            // tuned ones that stride the loops.
            let log = every_kind_log();
            let cfg = if tuned {
                ExpandConfig { sample: 2, code_bloat: 3, spin_scale: 1.5, max_kernel_ops: 500 }
            } else {
                ExpandConfig::default()
            };
            let all: Vec<MicroOp> = Expander::with_config(&log, cfg.clone()).collect();
            let total = all.len() as u64;
            let (starts, ends) = call_starts_and_chunk_ends(&log, &cfg);
            proptest::prop_assert!(starts.len() == log.len(), "every call emits");
            // Under the tuned cap no call fills a chunk.
            proptest::prop_assert!(tuned || ends.len() > starts.len() + 2, "calls span chunks");
            let truncated = |limit: u64| Expander::with_config(&log, cfg.clone()).truncated(limit);
            let inside = 1 + pick % total;
            let limit = match kind {
                0 => inside,
                // The start of the trip that holds op `inside - 1`.
                1 => {
                    let mut ex = truncated(inside);
                    while ex.next_chunk().is_some() {}
                    ex.footprint().last_trip_at
                }
                2 => starts[pick as usize % starts.len()],
                _ => ends[pick as usize % ends.len()],
            };
            let mut ex = truncated(limit);
            let ops: Vec<MicroOp> = ex.by_ref().collect();
            let kept = limit.min(total);
            proptest::prop_assert_eq!(&ops[..], &all[..kept as usize]);
            proptest::prop_assert_eq!(ex.emitted_ops(), kept);
            // No trip starts at or past the limit.
            proptest::prop_assert!(limit == 0 || ex.footprint().last_trip_at < limit);
            let footprint = ex.footprint();
            proptest::prop_assert!(footprint.capacity <= CHUNK_OPS + footprint.largest_trip);
            proptest::prop_assert!(footprint.peak_capacity <= CHUNK_OPS + 2 * footprint.largest_trip);
            proptest::prop_assert_eq!(truncated(limit).total_ops_up_to(u64::MAX), kept);
        }
    }
}
