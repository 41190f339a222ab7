//! Expansion of a [`PhaseLog`] into a micro-op stream.
//!
//! Each kernel class has a generator that emits the op sequence its real
//! implementation executes: loads/stores at addresses derived from the live
//! index arrays, FP ops wired with true dependency distances, loop branches
//! with actual trip counts, and PAUSE spins for barriers.
//!
//! Large kernels are *deterministically subsampled* (strided) to bound
//! per-kernel op counts: the emitted stream is a representative slice with
//! identical per-iteration structure. [`Expander::represented_ops`] tracks
//! how many dynamic ops the emitted stream stands for.

use crate::digest::Fnv64;
use crate::flat::FlatTrace;
use crate::layout::{AddressSpace, ArrayHandle};
use crate::op::{FnCategory, MicroOp, OpKind};
use crate::program::{KernelCall, MaterialClass, PhaseLog, PrecondClass};
use std::collections::HashMap;

/// Tuning knobs for trace expansion (per-workload character).
#[derive(Debug, Clone)]
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

/// Arrays allocated for one sparse object (keyed by `Arc` pointer identity
/// so repeated kernels over the same structure reuse the same addresses —
/// essential for realistic cross-iteration cache reuse).
#[derive(Debug, Clone, Copy)]
struct PatternArrays {
    row_ptr: ArrayHandle,
    col_idx: ArrayHandle,
    vals: ArrayHandle,
    x: ArrayHandle,
    y: ArrayHandle,
}

#[derive(Debug, Clone, Copy)]
struct FactorArrays {
    col_ptr: ArrayHandle,
    row_idx: ArrayHandle,
    lx: ArrayHandle,
    work: ArrayHandle,
    diag: ArrayHandle,
}

#[derive(Debug, Clone, Copy)]
struct MeshArrays {
    conn: ArrayHandle,
    coords: ArrayHandle,
    state: ArrayHandle,
    disp: ArrayHandle,
}

/// Streaming expander: iterates [`MicroOp`]s for a [`PhaseLog`].
pub struct Expander<'a> {
    calls: &'a [KernelCall],
    call_idx: usize,
    buf: Vec<MicroOp>,
    cursor: usize,
    space: AddressSpace,
    config: ExpandConfig,
    patterns: HashMap<usize, PatternArrays>,
    factors: HashMap<usize, FactorArrays>,
    meshes: HashMap<usize, MeshArrays>,
    skylines: HashMap<usize, FactorArrays>,
    /// Scratch vectors for BLAS-1 kernels (shared across calls — real
    /// solvers reuse their workspace buffers).
    blas_bufs: HashMap<usize, (ArrayHandle, ArrayHandle)>,
    instance: u32,
    emitted: u64,
    represented: u64,
}

impl std::fmt::Debug for Expander<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Expander")
            .field("call_idx", &self.call_idx)
            .field("emitted", &self.emitted)
            .finish_non_exhaustive()
    }
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
const PC_SKYFAC: u32 = 0x0050_0000;
const PC_SKYSOL: u32 = 0x0058_0000;
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
            buf: Vec::new(),
            cursor: 0,
            space: AddressSpace::new(),
            config,
            patterns: HashMap::new(),
            factors: HashMap::new(),
            meshes: HashMap::new(),
            skylines: HashMap::new(),
            blas_bufs: HashMap::new(),
            instance: 0,
            emitted: 0,
            represented: 0,
        }
    }

    /// Ops emitted so far.
    pub fn emitted_ops(&self) -> u64 {
        self.emitted
    }

    /// Dynamic ops the emitted stream represents (>= emitted when kernels
    /// were subsampled).
    pub fn represented_ops(&self) -> u64 {
        self.represented
    }

    /// Synthetic-heap footprint touched so far (working-set proxy).
    pub fn footprint_bytes(&self) -> u64 {
        self.space.footprint()
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
    /// work. The result is exact when it is below `limit`; otherwise it
    /// only certifies that the trace holds at least `limit` ops (the
    /// returned value can overshoot by up to one kernel call).
    pub fn total_ops_up_to(mut self, limit: u64) -> u64 {
        while self.emitted < limit && self.generate_next_call() {}
        self.emitted
    }

    /// Appends the stream's next ops to `trace`, column by column, until
    /// it holds `len` ops; `false` when the stream ends first. The ops
    /// are the ones [`Iterator::next`] would have yielded.
    pub fn fill(&mut self, trace: &mut FlatTrace, len: usize) -> bool {
        while trace.len() < len {
            if self.cursor == self.buf.len() && !self.generate_next_call() {
                return false;
            }
            let take = (self.buf.len() - self.cursor).min(len - trace.len());
            trace.extend_from_slice(&self.buf[self.cursor..self.cursor + take]);
            self.cursor += take;
        }
        true
    }

    fn bloat_base(&self, region: u32) -> u32 {
        region + (self.instance % self.config.code_bloat.max(1)) * BLOAT_SPAN
    }

    fn pattern_arrays(&mut self, p: &std::sync::Arc<belenos_sparse::CsrPattern>) -> PatternArrays {
        let key = std::sync::Arc::as_ptr(p) as usize;
        if let Some(a) = self.patterns.get(&key) {
            return *a;
        }
        let a = PatternArrays {
            row_ptr: self.space.alloc_u64(p.nrows() + 1),
            col_idx: self.space.alloc_u32(p.nnz()),
            vals: self.space.alloc_f64(p.nnz()),
            x: self.space.alloc_f64(p.ncols().max(1)),
            y: self.space.alloc_f64(p.nrows().max(1)),
        };
        self.patterns.insert(key, a);
        a
    }

    fn factor_arrays(&mut self, cp: &std::sync::Arc<Vec<usize>>, nnz: usize) -> FactorArrays {
        let key = std::sync::Arc::as_ptr(cp) as usize;
        if let Some(a) = self.factors.get(&key) {
            return *a;
        }
        let n = cp.len().saturating_sub(1).max(1);
        let a = FactorArrays {
            col_ptr: self.space.alloc_u64(n + 1),
            row_idx: self.space.alloc_u32(nnz.max(1)),
            lx: self.space.alloc_f64(nnz.max(1)),
            work: self.space.alloc_f64(n),
            diag: self.space.alloc_f64(n),
        };
        self.factors.insert(key, a);
        a
    }

    fn skyline_arrays(&mut self, heights: &std::sync::Arc<Vec<usize>>) -> FactorArrays {
        let key = std::sync::Arc::as_ptr(heights) as usize;
        if let Some(a) = self.skylines.get(&key) {
            return *a;
        }
        let n = heights.len().max(1);
        let total: usize = heights.iter().sum::<usize>().max(1);
        let a = FactorArrays {
            col_ptr: self.space.alloc_u64(n + 1),
            row_idx: self.space.alloc_u32(1),
            lx: self.space.alloc_f64(total),
            work: self.space.alloc_f64(n),
            diag: self.space.alloc_f64(n),
        };
        self.skylines.insert(key, a);
        a
    }

    fn mesh_arrays(&mut self, conn: &std::sync::Arc<Vec<u32>>, gp_state: usize) -> MeshArrays {
        let key = std::sync::Arc::as_ptr(conn) as usize;
        if let Some(a) = self.meshes.get(&key) {
            return *a;
        }
        let n_nodes = conn.iter().copied().max().unwrap_or(0) as usize + 1;
        let a = MeshArrays {
            conn: self.space.alloc_u32(conn.len().max(1)),
            coords: self.space.alloc_f64(n_nodes * 3),
            state: self.space.alloc_f64(gp_state.max(1)),
            disp: self.space.alloc_f64(n_nodes * 3),
        };
        self.meshes.insert(key, a);
        a
    }

    /// Per-mesh precomputed scatter-index (LM) table: `dpe x dpe` entries
    /// per element, as FE assembly builds once per pattern.
    fn scatter_table(&mut self, conn: &std::sync::Arc<Vec<u32>>, dpe: usize) -> ArrayHandle {
        let key = (std::sync::Arc::as_ptr(conn) as usize) ^ 0x5ca7;
        if let Some(a) = self.patterns.get(&key) {
            return a.col_idx;
        }
        let n_elems = conn.len().max(1);
        let handle = self.space.alloc_u32(n_elems * dpe * dpe / 8 + dpe * dpe);
        let a = PatternArrays {
            row_ptr: handle,
            col_idx: handle,
            vals: handle,
            x: handle,
            y: handle,
        };
        self.patterns.insert(key, a);
        handle
    }

    fn blas(&mut self, n: usize) -> (ArrayHandle, ArrayHandle) {
        if let Some(&b) = self.blas_bufs.get(&n) {
            return b;
        }
        let b = (
            self.space.alloc_f64(n.max(1)),
            self.space.alloc_f64(n.max(1)),
        );
        self.blas_bufs.insert(n, b);
        b
    }

    fn generate_next_call(&mut self) -> bool {
        if self.call_idx >= self.calls.len() {
            return false;
        }
        self.buf.clear();
        self.cursor = 0;
        let call = self.calls[self.call_idx].clone();
        self.call_idx += 1;
        self.instance = self.instance.wrapping_add(1);
        match call {
            KernelCall::Dot { n } => self.gen_dot(n, FnCategory::MklBlas),
            KernelCall::Axpy { n } => self.gen_axpy(n, FnCategory::MklBlas),
            KernelCall::Norm { n } => self.gen_dot_at(PC_NORM, n, FnCategory::MklBlas),
            KernelCall::VecOp { n } => self.gen_vecop(n),
            KernelCall::SpMv { pattern } => self.gen_spmv(&pattern, FnCategory::Sparsity),
            KernelCall::AssembleStiffness {
                conn,
                nodes_per_elem,
                dofs_per_node,
                gauss_points,
                material,
                pattern,
            } => self.gen_assemble(
                &conn,
                nodes_per_elem,
                dofs_per_node,
                gauss_points,
                material,
                Some(&pattern),
            ),
            KernelCall::AssembleResidual {
                conn,
                nodes_per_elem,
                dofs_per_node,
                gauss_points,
                material,
            } => self.gen_assemble(
                &conn,
                nodes_per_elem,
                dofs_per_node,
                gauss_points,
                material,
                None,
            ),
            KernelCall::LdlFactor { col_ptr, row_idx } => self.gen_ldl_factor(&col_ptr, &row_idx),
            KernelCall::LdlSolve { col_ptr, row_idx } => self.gen_ldl_solve(&col_ptr, &row_idx),
            KernelCall::SkylineFactor { heights } => self.gen_skyline(&heights, true),
            KernelCall::SkylineSolve { heights } => self.gen_skyline(&heights, false),
            KernelCall::CgSolve {
                pattern,
                iterations,
                precond,
            } => self.gen_cg(&pattern, iterations, precond),
            KernelCall::FgmresSolve {
                pattern,
                iterations,
                restart,
                precond,
            } => self.gen_fgmres(&pattern, iterations, restart, precond),
            KernelCall::ConstitutiveUpdate {
                gauss_points,
                material,
            } => self.gen_constitutive(gauss_points, material),
            KernelCall::ContactSearch { outcomes } => self.gen_contact(&outcomes),
            KernelCall::OmpBarrier { spin_iters } => {
                let spins = ((spin_iters as f64) * self.config.spin_scale).round() as usize;
                self.gen_barrier(spins)
            }
            KernelCall::BcApply { n } => self.gen_bc(n),
            KernelCall::MeshUpdate { n_nodes } => self.gen_mesh_update(n_nodes),
            KernelCall::RigidUpdate { n_bodies, n_joints } => self.gen_rigid(n_bodies, n_joints),
            KernelCall::ConvergenceCheck { n } => self.gen_dot_at(PC_CONV, n, FnCategory::Internal),
        }
        self.emitted += self.buf.len() as u64;
        true
    }

    // ---- emission helpers -------------------------------------------------

    fn push(&mut self, mut op: MicroOp, p1: Option<usize>, p2: Option<usize>) -> usize {
        let idx = self.buf.len();
        op.dep1 = p1.map_or(0, |p| (idx - p) as u32);
        op.dep2 = p2.map_or(0, |p| (idx - p) as u32);
        self.buf.push(op);
        idx
    }

    fn stride_for(&self, total_iters: usize, ops_per_iter: usize) -> (usize, f64) {
        let total = total_iters.saturating_mul(ops_per_iter);
        if total <= self.config.max_kernel_ops {
            (1, 1.0)
        } else {
            let stride = total.div_ceil(self.config.max_kernel_ops);
            (stride, stride as f64)
        }
    }

    // ---- BLAS-1 -----------------------------------------------------------

    fn gen_dot(&mut self, n: usize, cat: FnCategory) {
        self.gen_dot_at(PC_DOT, n, cat);
    }

    fn gen_dot_at(&mut self, region: u32, n: usize, cat: FnCategory) {
        let (a, b) = self.blas(n);
        let pc = self.bloat_base(region);
        let (stride, rep) = self.stride_for(n, 6);
        let mut acc: Option<usize> = None;
        let mut i = 0usize;
        while i < n {
            let la = self.push(MicroOp::load(pc, a.addr(i), 8, 0, cat), None, None);
            let lb = self.push(MicroOp::load(pc + 4, b.addr(i), 8, 0, cat), None, None);
            let m = self.push(
                MicroOp::fp(OpKind::FpMul, pc + 8, 0, 0, cat),
                Some(la),
                Some(lb),
            );
            let s = self.push(MicroOp::fp(OpKind::FpAdd, pc + 12, 0, 0, cat), Some(m), acc);
            acc = Some(s);
            let more = i + stride < n;
            let inc = self.push(MicroOp::int(pc + 16, 0, 0, cat), None, None);
            self.push(MicroOp::branch(pc + 20, pc, more, 0, cat), Some(inc), None);
            i += stride;
        }
        self.represented += (n as f64 / stride as f64 * 6.0 * rep) as u64;
    }

    fn gen_axpy(&mut self, n: usize, cat: FnCategory) {
        let (x, y) = self.blas(n);
        let pc = self.bloat_base(PC_AXPY);
        let (stride, _) = self.stride_for(n, 7);
        let mut i = 0usize;
        while i < n {
            let lx = self.push(MicroOp::load(pc, x.addr(i), 8, 0, cat), None, None);
            let ly = self.push(MicroOp::load(pc + 4, y.addr(i), 8, 0, cat), None, None);
            let m = self.push(
                MicroOp::fp(OpKind::FpMul, pc + 8, 0, 0, cat),
                Some(lx),
                None,
            );
            let s = self.push(
                MicroOp::fp(OpKind::FpAdd, pc + 12, 0, 0, cat),
                Some(m),
                Some(ly),
            );
            self.push(MicroOp::store(pc + 16, y.addr(i), 8, 0, cat), Some(s), None);
            let more = i + stride < n;
            let inc = self.push(MicroOp::int(pc + 20, 0, 0, cat), None, None);
            self.push(MicroOp::branch(pc + 24, pc, more, 0, cat), Some(inc), None);
            i += stride;
        }
        self.represented += n as u64 * 7;
    }

    fn gen_vecop(&mut self, n: usize) {
        let cat = FnCategory::MklBlas;
        let (x, y) = self.blas(n);
        let pc = self.bloat_base(PC_VECOP);
        let (stride, _) = self.stride_for(n, 4);
        let mut i = 0usize;
        while i < n {
            let lx = self.push(MicroOp::load(pc, x.addr(i), 8, 0, cat), None, None);
            self.push(MicroOp::store(pc + 4, y.addr(i), 8, 0, cat), Some(lx), None);
            let more = i + stride < n;
            let inc = self.push(MicroOp::int(pc + 8, 0, 0, cat), None, None);
            self.push(MicroOp::branch(pc + 12, pc, more, 0, cat), Some(inc), None);
            i += stride;
        }
        self.represented += n as u64 * 4;
    }

    // ---- SpMV ---------------------------------------------------------------

    fn gen_spmv(&mut self, p: &std::sync::Arc<belenos_sparse::CsrPattern>, cat: FnCategory) {
        let arrays = self.pattern_arrays(p);
        let pc = self.bloat_base(PC_SPMV);
        let avg = p.avg_row_nnz().max(1.0) as usize;
        let (stride, _) = self.stride_for(p.nrows(), 7 * avg + 5);
        let mut r = 0usize;
        while r < p.nrows() {
            // Row-pointer loads (sequential, hot).
            let rp0 = self.push(
                MicroOp::load(pc, arrays.row_ptr.addr(r), 8, 0, cat),
                None,
                None,
            );
            let rp1 = self.push(
                MicroOp::load(pc + 4, arrays.row_ptr.addr(r + 1), 8, 0, cat),
                None,
                None,
            );
            let cmp = self.push(MicroOp::int(pc + 8, 0, 0, cat), Some(rp0), Some(rp1));
            let row = p.row(r);
            self.push(
                MicroOp::branch(pc + 12, pc + 64, row.is_empty(), 0, cat),
                Some(cmp),
                None,
            );
            let base = p.row_ptr()[r];
            let mut acc: Option<usize> = None;
            for (kk, &c) in row.iter().enumerate() {
                let k = base + kk;
                // Sequential index + value loads, irregular x gather.
                let lc = self.push(
                    MicroOp::load(pc + 16, arrays.col_idx.addr(k), 4, 0, cat),
                    None,
                    None,
                );
                let lv = self.push(
                    MicroOp::load(pc + 20, arrays.vals.addr(k), 8, 0, cat),
                    None,
                    None,
                );
                let lx = self.push(
                    MicroOp::load(pc + 24, arrays.x.addr(c as usize), 8, 0, cat),
                    Some(lc),
                    None,
                );
                let m = self.push(
                    MicroOp::fp(OpKind::FpMul, pc + 28, 0, 0, cat),
                    Some(lv),
                    Some(lx),
                );
                let s = self.push(MicroOp::fp(OpKind::FpAdd, pc + 32, 0, 0, cat), Some(m), acc);
                acc = Some(s);
                let more = kk + 1 < row.len();
                self.push(MicroOp::branch(pc + 36, pc + 16, more, 0, cat), None, None);
            }
            self.push(
                MicroOp::store(pc + 40, arrays.y.addr(r), 8, 0, cat),
                acc,
                None,
            );
            let more = r + stride < p.nrows();
            self.push(MicroOp::branch(pc + 44, pc, more, 0, cat), None, None);
            r += stride;
        }
        self.represented += (p.nnz() * 7 + p.nrows() * 5) as u64;
    }

    // ---- assembly -----------------------------------------------------------

    #[allow(clippy::too_many_arguments)]
    fn gen_assemble(
        &mut self,
        conn: &std::sync::Arc<Vec<u32>>,
        npe: usize,
        dpn: usize,
        gp: usize,
        material: MaterialClass,
        pattern: Option<&std::sync::Arc<belenos_sparse::CsrPattern>>,
    ) {
        let n_elems = conn.len() / npe.max(1);
        let dpe = npe * dpn;
        let profile = material_profile(material);
        let gauss_fp = 30 + profile.fp_add + profile.fp_mul; // shape + constitutive
        let scatter = if pattern.is_some() {
            dpe * dpe / self.config.sample.max(1)
        } else {
            dpe
        };
        let per_elem = npe * 4 + gp * (gauss_fp / self.config.sample.max(1)) + scatter * 4;
        let (stride, _) = self.stride_for(n_elems, per_elem.max(1));
        let mesh = self.mesh_arrays(conn, n_elems * gp * profile.state_f64);
        let pat_arrays = pattern.map(|p| self.pattern_arrays(p));
        let base_pc = self.bloat_base(if pattern.is_some() {
            PC_ASSEMBLE
        } else {
            PC_RESIDUAL
        });
        let cat = FnCategory::Internal;
        let sample = self.config.sample.max(1);

        let bloat = self.config.code_bloat.max(1);
        let mut e = 0usize;
        while e < n_elems {
            // Different elements exercise different inlined code variants
            // (material dispatch, element-shape specializations).
            let base_pc = base_pc + ((e as u32) % bloat) * BLOAT_SPAN * 4;
            // Connectivity loads (sequential) + coordinate gathers (irregular).
            let mut node_loads = Vec::with_capacity(npe);
            for a in 0..npe {
                let lc = self.push(
                    MicroOp::load(base_pc, mesh.conn.addr(e * npe + a), 4, 0, cat),
                    None,
                    None,
                );
                let node = conn[e * npe + a] as usize;
                let lco = self.push(
                    MicroOp::load(base_pc + 4, mesh.coords.addr(node * 3), 8, 0, cat),
                    Some(lc),
                    None,
                );
                let ld = self.push(
                    MicroOp::load(base_pc + 8, mesh.disp.addr(node * 3), 8, 0, cat),
                    Some(lc),
                    None,
                );
                node_loads.push((lco, ld));
            }
            // Gauss-point work: shape-function block + constitutive block.
            for g in (0..gp).step_by(sample) {
                let state_idx = (e * gp + g) * profile.state_f64;
                self.emit_material_block(
                    base_pc + 0x40,
                    &mesh,
                    state_idx,
                    &profile,
                    sample,
                    FnCategory::Internal,
                    node_loads.last().map(|&(c, _)| c),
                );
            }
            if let (Some(pa), Some(p)) = (pat_arrays, pattern) {
                // Scatter K_e into the global CSR through precomputed
                // element index (LM) tables, as FE codes do: a streaming
                // load of the table entry, then an irregular
                // load-add-store on the matrix values it points at.
                let table = self.scatter_table(conn, dpe);
                for i in 0..dpe {
                    let gi = (conn[e * npe + i / dpn] as usize) * dpn + (i % dpn);
                    let gi = gi.min(p.nrows().saturating_sub(1));
                    let lrp = self.push(
                        MicroOp::load(base_pc + 0x80, pa.row_ptr.addr(gi), 8, 0, cat),
                        None,
                        None,
                    );
                    let row_len = p.row(gi).len().max(1);
                    let base = p.row_ptr()[gi];
                    for j in (0..dpe).step_by(sample) {
                        // Precomputed scatter position (streaming table).
                        let tpos = (e * dpe + i) * dpe + j;
                        let lt = self.push(
                            MicroOp::load(base_pc + 0x90, table.addr(tpos), 4, 0, cat),
                            Some(lrp),
                            None,
                        );
                        // Deterministic position inside the row: binary
                        // search executed at table-build time, not here.
                        let k = base + (i * 7 + j * 3) % row_len;
                        let lv = self.push(
                            MicroOp::load(base_pc + 0xA0, pa.vals.addr(k), 8, 0, cat),
                            Some(lt),
                            None,
                        );
                        let add = self.push(
                            MicroOp::fp(OpKind::FpAdd, base_pc + 0xA4, 0, 0, cat),
                            Some(lv),
                            None,
                        );
                        self.push(
                            MicroOp::store(base_pc + 0xA8, pa.vals.addr(k), 8, 0, cat),
                            Some(add),
                            None,
                        );
                        // Row-bounds check: strongly biased, predictable.
                        self.push(
                            MicroOp::branch(
                                base_pc + 0xAC,
                                base_pc + 0x90,
                                j + sample < dpe,
                                0,
                                cat,
                            ),
                            None,
                            None,
                        );
                    }
                }
            } else {
                // Residual scatter: one gather-add-store per element dof.
                for i in 0..dpe {
                    let gi = (conn[e * npe + i / dpn] as usize) * dpn + (i % dpn);
                    let l = self.push(
                        MicroOp::load(base_pc + 0xB0, mesh.disp.addr(gi), 8, 0, cat),
                        None,
                        None,
                    );
                    let s = self.push(
                        MicroOp::fp(OpKind::FpAdd, base_pc + 0xB4, 0, 0, cat),
                        Some(l),
                        None,
                    );
                    self.push(
                        MicroOp::store(base_pc + 0xB8, mesh.disp.addr(gi), 8, 0, cat),
                        Some(s),
                        None,
                    );
                }
            }
            let more = e + stride < n_elems;
            self.push(
                MicroOp::branch(base_pc + 0xC0, base_pc, more, 0, cat),
                None,
                None,
            );
            e += stride;
        }
        self.represented += (n_elems * per_elem) as u64;
    }

    // ---- constitutive sweep ---------------------------------------------------

    fn gen_constitutive(&mut self, gauss_points: usize, material: MaterialClass) {
        let profile = material_profile(material);
        let per_gp = profile.state_f64
            + profile.state_stores
            + profile.fp_add
            + profile.fp_mul
            + profile.fp_div
            + 3;
        let (stride, _) = self.stride_for(gauss_points, per_gp);
        let state = self
            .space
            .alloc_f64(gauss_points.max(1) * profile.state_f64.max(1));
        let pc = self.bloat_base(PC_CONST) + material_code_offset(material);
        let mesh = MeshArrays {
            conn: state,
            coords: state,
            state,
            disp: state,
        };
        let bloat = self.config.code_bloat.max(1);
        let mut g = 0usize;
        while g < gauss_points {
            let pc = pc + ((g as u32 / 8) % bloat) * BLOAT_SPAN * 4;
            self.emit_material_block(
                pc,
                &mesh,
                g * profile.state_f64,
                &profile,
                1,
                FnCategory::FebioSpecific,
                None,
            );
            let more = g + stride < gauss_points;
            self.push(
                MicroOp::branch(pc + 0x200, pc, more, 0, FnCategory::FebioSpecific),
                None,
                None,
            );
            g += stride;
        }
        self.represented += (gauss_points * per_gp) as u64;
    }

    /// Emits the FP body of one material-point update: state loads, an FP
    /// block wired per the material's chain structure, state stores, plus
    /// any data-dependent branch (yield/damage checks).
    #[allow(clippy::too_many_arguments)]
    fn emit_material_block(
        &mut self,
        pc: u32,
        mesh: &MeshArrays,
        state_idx: usize,
        profile: &MaterialProfile,
        sample: usize,
        cat: FnCategory,
        extra_dep: Option<usize>,
    ) {
        let mut loads = Vec::with_capacity(profile.state_f64);
        let mut prev_load: Option<usize> = extra_dep;
        for s in 0..profile.state_f64 {
            let dep = if profile.serial_loads {
                prev_load
            } else {
                extra_dep
            };
            let l = self.push(
                MicroOp::load(
                    pc + (s as u32 % 8) * 4,
                    mesh.state.addr(state_idx + s),
                    8,
                    0,
                    cat,
                ),
                dep,
                None,
            );
            prev_load = Some(l);
            loads.push(l);
        }
        // FP block: `chains` independent dependency chains of interleaved
        // mul/add, with divides inserted at chain boundaries.
        let total_fp = (profile.fp_add + profile.fp_mul) / sample.max(1);
        let chains = profile.chains.max(1);
        let mut chain_tail: Vec<Option<usize>> = vec![None; chains];
        for t in 0..total_fp {
            let c = t % chains;
            let kind = if t % 2 == 0 {
                OpKind::FpMul
            } else {
                OpKind::FpAdd
            };
            let src = loads.get(t % loads.len().max(1)).copied();
            // Straight-line constitutive code: each op has its own pc
            // (inlined template expansions), so the body spans
            // ~16 B x total_fp of icache footprint, as real material
            // kernels do.
            let idx = self.push(
                MicroOp::fp(kind, pc + 0x40 + (t as u32) * 16, 0, 0, cat),
                chain_tail[c],
                src,
            );
            chain_tail[c] = Some(idx);
        }
        for d in 0..profile.fp_div / sample.max(1) {
            let idx = self.push(
                MicroOp::fp(OpKind::FpDiv, pc + 0x90 + (d as u32 % 4) * 4, 0, 0, cat),
                chain_tail[d % chains],
                None,
            );
            chain_tail[d % chains] = Some(idx);
        }
        // Data-dependent branches (yield surface / damage threshold / fiber
        // tension switch): outcomes keyed off the material-point index, so
        // they are irregular yet deterministic across Newton iterations.
        // The short-period mix defeats per-PC two-bit counters while
        // history-based predictors can learn it.
        if profile.branchy {
            let point = state_idx / profile.state_f64.max(1);
            let n_branches = (total_fp / 80).max(1);
            for b in 0..n_branches {
                let cond = chain_tail[b % chains];
                let t = (point * 3 + b * 5) % 7 < 3;
                self.push(
                    MicroOp::branch(pc + 0xA0 + (b as u32 % 4) * 8, pc + 0x40, t, 0, cat),
                    cond,
                    None,
                );
            }
        }
        for s in 0..profile.state_stores {
            self.push(
                MicroOp::store(
                    pc + 0xB0 + (s as u32 % 4) * 4,
                    mesh.state.addr(state_idx + s),
                    8,
                    0,
                    cat,
                ),
                chain_tail[s % chains],
                None,
            );
        }
    }

    // ---- direct solvers --------------------------------------------------------

    fn gen_ldl_factor(
        &mut self,
        col_ptr: &std::sync::Arc<Vec<usize>>,
        row_idx: &std::sync::Arc<Vec<u32>>,
    ) {
        let arrays = self.factor_arrays(col_ptr, row_idx.len());
        let n = col_ptr.len().saturating_sub(1);
        let pc = self.bloat_base(PC_LDLFAC);
        let cat = FnCategory::MklPardiso;
        let nnz = row_idx.len();
        let (stride, _) = self.stride_for(n.max(1), 8 * (nnz / n.max(1)).max(1) + 6);
        let mut j = 0usize;
        while j < n {
            let lo = col_ptr[j];
            let hi = col_ptr[j + 1];
            let lp0 = self.push(
                MicroOp::load(pc, arrays.col_ptr.addr(j), 8, 0, cat),
                None,
                None,
            );
            let mut prev_store: Option<usize> = None;
            for p in lo..hi {
                let li = self.push(
                    MicroOp::load(pc + 8, arrays.row_idx.addr(p), 4, 0, cat),
                    Some(lp0),
                    None,
                );
                let lx = self.push(
                    MicroOp::load(pc + 12, arrays.lx.addr(p), 8, 0, cat),
                    None,
                    None,
                );
                let target = row_idx[p] as usize;
                let ly = self.push(
                    MicroOp::load(pc + 16, arrays.work.addr(target), 8, 0, cat),
                    Some(li),
                    None,
                );
                let m = self.push(
                    MicroOp::fp(OpKind::FpMul, pc + 20, 0, 0, cat),
                    Some(lx),
                    Some(ly),
                );
                let s = self.push(
                    MicroOp::fp(OpKind::FpAdd, pc + 24, 0, 0, cat),
                    Some(m),
                    prev_store,
                );
                let st = self.push(
                    MicroOp::store(pc + 28, arrays.work.addr(target), 8, 0, cat),
                    Some(s),
                    None,
                );
                prev_store = Some(st);
                self.push(
                    MicroOp::branch(pc + 32, pc + 8, p + 1 < hi, 0, cat),
                    None,
                    None,
                );
            }
            // Pivot: divide and store diagonal.
            let d = self.push(
                MicroOp::fp(OpKind::FpDiv, pc + 36, 0, 0, cat),
                prev_store,
                None,
            );
            self.push(
                MicroOp::store(pc + 40, arrays.diag.addr(j), 8, 0, cat),
                Some(d),
                None,
            );
            self.push(
                MicroOp::branch(pc + 44, pc, j + stride < n, 0, cat),
                None,
                None,
            );
            j += stride;
        }
        self.represented += (nnz * 8 + n * 6) as u64;
    }

    fn gen_ldl_solve(
        &mut self,
        col_ptr: &std::sync::Arc<Vec<usize>>,
        row_idx: &std::sync::Arc<Vec<u32>>,
    ) {
        let arrays = self.factor_arrays(col_ptr, row_idx.len());
        let n = col_ptr.len().saturating_sub(1);
        let pc = self.bloat_base(PC_LDLSOL);
        let cat = FnCategory::MklPardiso;
        let nnz = row_idx.len();
        let (stride, _) = self.stride_for(n.max(1), 6 * (nnz / n.max(1)).max(1) + 4);
        // Forward sweep: scatter updates chained through the work vector.
        let mut j = 0usize;
        while j < n {
            let lxj = self.push(
                MicroOp::load(pc, arrays.work.addr(j), 8, 0, cat),
                None,
                None,
            );
            for p in col_ptr[j]..col_ptr[j + 1] {
                let li = self.push(
                    MicroOp::load(pc + 4, arrays.row_idx.addr(p), 4, 0, cat),
                    None,
                    None,
                );
                let lv = self.push(
                    MicroOp::load(pc + 8, arrays.lx.addr(p), 8, 0, cat),
                    None,
                    None,
                );
                let target = row_idx[p] as usize;
                let m = self.push(
                    MicroOp::fp(OpKind::FpMul, pc + 12, 0, 0, cat),
                    Some(lv),
                    Some(lxj),
                );
                let lw = self.push(
                    MicroOp::load(pc + 16, arrays.work.addr(target), 8, 0, cat),
                    Some(li),
                    None,
                );
                let s = self.push(
                    MicroOp::fp(OpKind::FpAdd, pc + 20, 0, 0, cat),
                    Some(m),
                    Some(lw),
                );
                self.push(
                    MicroOp::store(pc + 24, arrays.work.addr(target), 8, 0, cat),
                    Some(s),
                    None,
                );
            }
            let dv = self.push(
                MicroOp::load(pc + 28, arrays.diag.addr(j), 8, 0, cat),
                None,
                None,
            );
            let dd = self.push(
                MicroOp::fp(OpKind::FpDiv, pc + 32, 0, 0, cat),
                Some(lxj),
                Some(dv),
            );
            self.push(
                MicroOp::store(pc + 36, arrays.work.addr(j), 8, 0, cat),
                Some(dd),
                None,
            );
            self.push(
                MicroOp::branch(pc + 40, pc, j + stride < n, 0, cat),
                None,
                None,
            );
            j += stride;
        }
        self.represented += (nnz * 6 + n * 4) as u64;
    }

    fn gen_skyline(&mut self, heights: &std::sync::Arc<Vec<usize>>, factor: bool) {
        let arrays = self.skyline_arrays(heights);
        let n = heights.len();
        let pc = self.bloat_base(if factor { PC_SKYFAC } else { PC_SKYSOL });
        let cat = FnCategory::MklPardiso;
        let total: usize = heights.iter().sum();
        let per_col = (total / n.max(1)).max(1);
        let work_per_entry = if factor { per_col.min(64) } else { 1 };
        let (stride, _) = self.stride_for(n, 4 * per_col * work_per_entry.max(1) + 4);
        let mut offset = 0usize;
        let mut j = 0usize;
        let mut jj = 0usize;
        while jj < n {
            let h = heights[jj];
            // Column sweep: sequential loads through the envelope, with an
            // inner reduction against overlapping previous columns when
            // factorizing (quadratic in height, the skyline cost signature).
            let inner = if factor { h.min(32) } else { 1 };
            let mut acc: Option<usize> = None;
            for k in 0..h {
                let l1 = self.push(
                    MicroOp::load(pc, arrays.lx.addr(offset + k), 8, 0, cat),
                    None,
                    None,
                );
                for _ in 0..inner.min(4) {
                    let m = self.push(MicroOp::fp(OpKind::FpMul, pc + 4, 0, 0, cat), Some(l1), acc);
                    let s = self.push(MicroOp::fp(OpKind::FpAdd, pc + 8, 0, 0, cat), Some(m), acc);
                    acc = Some(s);
                }
                self.push(MicroOp::branch(pc + 12, pc, k + 1 < h, 0, cat), None, None);
            }
            let d = self.push(MicroOp::fp(OpKind::FpDiv, pc + 16, 0, 0, cat), acc, None);
            self.push(
                MicroOp::store(pc + 20, arrays.diag.addr(jj), 8, 0, cat),
                Some(d),
                None,
            );
            self.push(
                MicroOp::branch(pc + 24, pc, jj + stride < n, 0, cat),
                None,
                None,
            );
            offset += h;
            j += 1;
            jj += stride;
            let _ = j;
        }
        self.represented += (total * if factor { 9 } else { 4 } + n * 3) as u64;
    }

    // ---- iterative solvers -------------------------------------------------------

    fn gen_precond_apply(
        &mut self,
        p: &std::sync::Arc<belenos_sparse::CsrPattern>,
        precond: PrecondClass,
    ) {
        match precond {
            PrecondClass::None => {}
            PrecondClass::Jacobi => {
                let arrays = self.pattern_arrays(p);
                let pc = self.bloat_base(PC_PRECOND);
                let cat = FnCategory::MklBlas;
                let n = p.nrows();
                let (stride, _) = self.stride_for(n, 4);
                let mut i = 0usize;
                while i < n {
                    let l = self.push(MicroOp::load(pc, arrays.y.addr(i), 8, 0, cat), None, None);
                    let m = self.push(MicroOp::fp(OpKind::FpMul, pc + 4, 0, 0, cat), Some(l), None);
                    self.push(
                        MicroOp::store(pc + 8, arrays.y.addr(i), 8, 0, cat),
                        Some(m),
                        None,
                    );
                    self.push(
                        MicroOp::branch(pc + 12, pc, i + stride < n, 0, cat),
                        None,
                        None,
                    );
                    i += stride;
                }
                self.represented += n as u64 * 4;
            }
            PrecondClass::Ilu0 => {
                // Forward+backward sweep over the same pattern: reuse the
                // SpMV generator twice (same traversal shape and traffic).
                self.gen_spmv(p, FnCategory::MklPardiso);
            }
        }
    }

    fn gen_cg(
        &mut self,
        p: &std::sync::Arc<belenos_sparse::CsrPattern>,
        iters: usize,
        precond: PrecondClass,
    ) {
        // Sample iterations so one CG call respects the kernel cap: every
        // iteration is architecturally identical.
        let per_iter = p.nnz() * 7 + p.nrows() * 20;
        // Iterative solves share the kernel budget with assembly so one
        // solve does not monopolize the trace window.
        let budget_iters =
            (self.config.max_kernel_ops / 4 / per_iter.max(1)).clamp(1, iters.max(1));
        let n = p.nrows();
        for _ in 0..budget_iters {
            self.gen_spmv(p, FnCategory::Sparsity);
            self.gen_dot(n, FnCategory::MklBlas);
            self.gen_axpy(n, FnCategory::MklBlas);
            self.gen_axpy(n, FnCategory::MklBlas);
            self.gen_precond_apply(p, precond);
            self.gen_dot(n, FnCategory::MklBlas);
            self.gen_axpy(n, FnCategory::MklBlas);
        }
        self.represented += (iters.saturating_sub(budget_iters) * per_iter) as u64;
    }

    fn gen_fgmres(
        &mut self,
        p: &std::sync::Arc<belenos_sparse::CsrPattern>,
        iters: usize,
        restart: usize,
        precond: PrecondClass,
    ) {
        let n = p.nrows();
        let per_iter = p.nnz() * 7 + n * 13 * (restart / 2).max(1);
        let budget_iters = (self.config.max_kernel_ops / per_iter.max(1)).clamp(1, iters.max(1));
        for it in 0..budget_iters {
            let j = it % restart.max(1);
            self.gen_precond_apply(p, precond);
            self.gen_spmv(p, FnCategory::Sparsity);
            // Modified Gram-Schmidt against j+1 basis vectors.
            for _ in 0..=j {
                self.gen_dot(n, FnCategory::MklBlas);
                self.gen_axpy(n, FnCategory::MklBlas);
            }
            self.gen_dot(n, FnCategory::MklBlas); // norm
        }
        self.represented += (iters.saturating_sub(budget_iters) * per_iter) as u64;
    }

    // ---- misc kernels ----------------------------------------------------------

    fn gen_contact(&mut self, outcomes: &[bool]) {
        let pc = self.bloat_base(PC_CONTACT);
        let cat = FnCategory::FebioSpecific;
        let coords = self.space.alloc_f64(outcomes.len().max(1) * 3);
        let (stride, _) = self.stride_for(outcomes.len(), 14);
        let mut i = 0usize;
        while i < outcomes.len() {
            let l0 = self.push(MicroOp::load(pc, coords.addr(i * 3), 8, 0, cat), None, None);
            let l1 = self.push(
                MicroOp::load(pc + 4, coords.addr(i * 3 + 1), 8, 0, cat),
                None,
                None,
            );
            let l2 = self.push(
                MicroOp::load(pc + 8, coords.addr(i * 3 + 2), 8, 0, cat),
                None,
                None,
            );
            let d0 = self.push(
                MicroOp::fp(OpKind::FpAdd, pc + 12, 0, 0, cat),
                Some(l0),
                Some(l1),
            );
            let d1 = self.push(
                MicroOp::fp(OpKind::FpAdd, pc + 16, 0, 0, cat),
                Some(d0),
                Some(l2),
            );
            // The gap test: outcome from the real solve — irregular.
            let hit = outcomes[i];
            self.push(
                MicroOp::branch(pc + 20, pc + 0x40, hit, 0, cat),
                Some(d1),
                None,
            );
            if hit {
                // Penalty force evaluation + scatter.
                for t in 0..6u32 {
                    self.push(
                        MicroOp::fp(OpKind::FpMul, pc + 0x40 + t * 4, 0, 0, cat),
                        Some(d1),
                        None,
                    );
                }
                let s = self.buf.len() - 1;
                self.push(
                    MicroOp::store(pc + 0x60, coords.addr(i * 3), 8, 0, cat),
                    Some(s),
                    None,
                );
            }
            self.push(
                MicroOp::branch(pc + 0x70, pc, i + stride < outcomes.len(), 0, cat),
                None,
                None,
            );
            i += stride;
        }
        self.represented += (outcomes.len() * 14) as u64;
    }

    fn gen_barrier(&mut self, spins: usize) {
        let pc = self.bloat_base(PC_BARRIER);
        let cat = FnCategory::FebioSpecific;
        let flag = self.space.alloc_f64(1);
        let (stride, _) = self.stride_for(spins, 4);
        let mut i = 0usize;
        while i < spins {
            self.push(MicroOp::pause(pc, cat), None, None);
            let l = self.push(MicroOp::load(pc + 4, flag.addr(0), 8, 0, cat), None, None);
            let c = self.push(MicroOp::int(pc + 8, 0, 0, cat), Some(l), None);
            self.push(
                MicroOp::branch(pc + 12, pc, i + stride < spins, 0, cat),
                Some(c),
                None,
            );
            i += stride;
        }
        self.represented += spins as u64 * 4;
    }

    fn gen_bc(&mut self, n: usize) {
        let pc = self.bloat_base(PC_BC);
        let cat = FnCategory::FebioSpecific;
        let arr = self.space.alloc_f64(n.max(1));
        let (stride, _) = self.stride_for(n, 4);
        let mut i = 0usize;
        while i < n {
            let l = self.push(MicroOp::load(pc, arr.addr(i), 8, 0, cat), None, None);
            self.push(
                MicroOp::store(pc + 4, arr.addr(i), 8, 0, cat),
                Some(l),
                None,
            );
            self.push(
                MicroOp::branch(pc + 8, pc, i + stride < n, 0, cat),
                None,
                None,
            );
            i += stride;
        }
        self.represented += n as u64 * 4;
    }

    fn gen_mesh_update(&mut self, n_nodes: usize) {
        let pc = self.bloat_base(PC_MESH);
        let cat = FnCategory::Internal;
        let coords = self.space.alloc_f64(n_nodes.max(1) * 3);
        let (stride, _) = self.stride_for(n_nodes, 9);
        let mut i = 0usize;
        while i < n_nodes {
            for a in 0..3u32 {
                let l = self.push(
                    MicroOp::load(pc + a * 12, coords.addr(i * 3 + a as usize), 8, 0, cat),
                    None,
                    None,
                );
                let s = self.push(
                    MicroOp::fp(OpKind::FpAdd, pc + a * 12 + 4, 0, 0, cat),
                    Some(l),
                    None,
                );
                self.push(
                    MicroOp::store(pc + a * 12 + 8, coords.addr(i * 3 + a as usize), 8, 0, cat),
                    Some(s),
                    None,
                );
            }
            self.push(
                MicroOp::branch(pc + 40, pc, i + stride < n_nodes, 0, cat),
                None,
                None,
            );
            i += stride;
        }
        self.represented += n_nodes as u64 * 9;
    }

    fn gen_rigid(&mut self, n_bodies: usize, n_joints: usize) {
        let pc = self.bloat_base(PC_RIGID);
        let cat = FnCategory::FebioSpecific;
        let state = self.space.alloc_f64((n_bodies.max(1)) * 13);
        // Rigid-body/joint code in FEBio is call-graph heavy: emulate with a
        // larger straight-line footprint per body (many distinct pcs).
        for b in 0..n_bodies {
            // Each body executes its own straight-line code stretch (the
            // inlined per-body update of multibody frameworks) — large
            // instruction footprint with little reuse.
            let pc = pc + ((b as u32) % 24) * 0x240;
            // Kinematic transforms propagate serially down the joint tree:
            // each body's pose depends on its parent's (a true chain).
            let mut prev: Option<usize> = None;
            for t in 0..13u32 {
                let l = self.push(
                    MicroOp::load(pc + t * 16, state.addr(b * 13 + t as usize), 8, 0, cat),
                    prev,
                    None,
                );
                let m = self.push(
                    MicroOp::fp(OpKind::FpMul, pc + t * 16 + 4, 0, 0, cat),
                    Some(l),
                    prev,
                );
                let a = self.push(
                    MicroOp::fp(OpKind::FpAdd, pc + t * 16 + 8, 0, 0, cat),
                    Some(m),
                    None,
                );
                let st = self.push(
                    MicroOp::store(pc + t * 16 + 12, state.addr(b * 13 + t as usize), 8, 0, cat),
                    Some(a),
                    None,
                );
                prev = Some(st);
            }
        }
        // Joint constraint rows: small dense 6x6 blocks with divides.
        for j in 0..n_joints {
            let pc = pc + 0x8000 + ((j as u32) % 24) * 0x240;
            let mut prev: Option<usize> = None;
            for t in 0..36u32 {
                let idx = self.push(
                    MicroOp::fp(
                        if t % 9 == 8 {
                            OpKind::FpDiv
                        } else {
                            OpKind::FpMul
                        },
                        pc + 0x400 + (t % 36) * 8,
                        0,
                        0,
                        cat,
                    ),
                    prev,
                    None,
                );
                prev = Some(idx);
                if t % 6 == 5 {
                    self.push(
                        MicroOp::store(pc + 0x600, state.addr(j * 6 + (t as usize % 6)), 8, 0, cat),
                        Some(idx),
                        None,
                    );
                }
            }
            self.push(
                MicroOp::branch(pc + 0x700, pc, j + 1 < n_joints, 0, cat),
                None,
                None,
            );
        }
        self.represented += (n_bodies * 52 + n_joints * 42) as u64;
    }
}

impl Iterator for Expander<'_> {
    type Item = MicroOp;

    fn next(&mut self) -> Option<MicroOp> {
        loop {
            if self.cursor < self.buf.len() {
                let op = self.buf[self.cursor];
                self.cursor += 1;
                return Some(op);
            }
            if !self.generate_next_call() {
                return None;
            }
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

fn material_profile(m: MaterialClass) -> MaterialProfile {
    match m {
        MaterialClass::LinearElastic => MaterialProfile {
            state_f64: 6,
            state_stores: 0,
            fp_add: 12,
            fp_mul: 12,
            fp_div: 0,
            chains: 10,
            branchy: false,
            serial_loads: false,
        },
        MaterialClass::Hyperelastic => MaterialProfile {
            state_f64: 10,
            state_stores: 2,
            fp_add: 30,
            fp_mul: 40,
            fp_div: 3,
            chains: 8,
            branchy: false,
            serial_loads: false,
        },
        MaterialClass::FiberExponential => MaterialProfile {
            state_f64: 12,
            state_stores: 2,
            fp_add: 60,
            fp_mul: 90,
            fp_div: 2,
            chains: 8,
            branchy: true,
            serial_loads: false,
        },
        MaterialClass::Viscoelastic => MaterialProfile {
            state_f64: 24,
            state_stores: 12,
            fp_add: 80,
            fp_mul: 100,
            fp_div: 2,
            chains: 1,
            branchy: false,
            serial_loads: false,
        },
        MaterialClass::Biphasic => MaterialProfile {
            state_f64: 14,
            state_stores: 4,
            fp_add: 40,
            fp_mul: 50,
            fp_div: 4,
            chains: 6,
            branchy: false,
            serial_loads: false,
        },
        MaterialClass::Multiphasic => MaterialProfile {
            state_f64: 20,
            state_stores: 6,
            fp_add: 60,
            fp_mul: 70,
            fp_div: 6,
            chains: 6,
            branchy: false,
            serial_loads: false,
        },
        MaterialClass::Damage => MaterialProfile {
            state_f64: 10,
            state_stores: 2,
            fp_add: 25,
            fp_mul: 30,
            fp_div: 1,
            chains: 2,
            branchy: true,
            serial_loads: true,
        },
        MaterialClass::Plasticity => MaterialProfile {
            state_f64: 12,
            state_stores: 4,
            fp_add: 30,
            fp_mul: 35,
            fp_div: 2,
            chains: 5,
            branchy: true,
            serial_loads: false,
        },
        MaterialClass::ActiveMuscle => MaterialProfile {
            state_f64: 10,
            state_stores: 2,
            fp_add: 35,
            fp_mul: 45,
            fp_div: 1,
            chains: 7,
            branchy: false,
            serial_loads: false,
        },
        MaterialClass::Growth => MaterialProfile {
            state_f64: 10,
            state_stores: 2,
            fp_add: 30,
            fp_mul: 40,
            fp_div: 2,
            chains: 7,
            branchy: false,
            serial_loads: false,
        },
        MaterialClass::Fluid => MaterialProfile {
            state_f64: 12,
            state_stores: 2,
            fp_add: 45,
            fp_mul: 55,
            fp_div: 6,
            chains: 9,
            branchy: false,
            serial_loads: false,
        },
        MaterialClass::Rigid => MaterialProfile {
            state_f64: 2,
            state_stores: 0,
            fp_add: 4,
            fp_mul: 4,
            fp_div: 0,
            chains: 2,
            branchy: false,
            serial_loads: false,
        },
    }
}

fn material_code_offset(m: MaterialClass) -> u32 {
    let idx = match m {
        MaterialClass::LinearElastic => 0,
        MaterialClass::Hyperelastic => 1,
        MaterialClass::FiberExponential => 2,
        MaterialClass::Viscoelastic => 3,
        MaterialClass::Biphasic => 4,
        MaterialClass::Multiphasic => 5,
        MaterialClass::Damage => 6,
        MaterialClass::Plasticity => 7,
        MaterialClass::ActiveMuscle => 8,
        MaterialClass::Growth => 9,
        MaterialClass::Fluid => 10,
        MaterialClass::Rigid => 11,
    };
    idx * 0x1000
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
        let mut log = PhaseLog::new();
        log.record(KernelCall::Dot { n: 5 });
        let ops: Vec<_> = Expander::new(&log).collect();
        let adds: Vec<usize> = ops
            .iter()
            .enumerate()
            .filter(|(_, o)| o.kind == OpKind::FpAdd)
            .map(|(i, _)| i)
            .collect();
        // Each add (after the first) depends on the previous add.
        for w in adds.windows(2) {
            let dist = (w[1] - w[0]) as u32;
            assert_eq!(ops[w[1]].dep2, dist, "accumulation chain broken");
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
        assert!(ex.represented_ops() > count as u64);
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
        // Bounded counting: exact when the trace is shorter than the
        // limit, an early stop (>= limit) when it is longer.
        assert_eq!(Expander::new(&log).total_ops_up_to(counted * 2), counted);
        let bounded = Expander::new(&log).total_ops_up_to(10);
        assert!((10..counted).contains(&bounded), "bounded {bounded}");
    }
}
