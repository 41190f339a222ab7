//! Phase logs: the kernel-level record of a finite-element solve.
//!
//! The FE solver appends one [`KernelCall`] per computational kernel it
//! executes, holding `Arc` references to the *live* sparse structures so
//! the expansion step can derive authentic memory-access streams.

use crate::digest::Fnv64;
use crate::expand::ExpandConfig;
use belenos_sparse::CsrPattern;
use std::collections::HashMap;
use std::sync::Arc;

/// Coarse material classes; each has a distinct constitutive-update cost
/// profile (FP mix, state traffic, chain depth) in the expander.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MaterialClass {
    /// Hookean linear elasticity — cheapest update.
    LinearElastic,
    /// Isotropic hyperelastic (neo-Hookean class): moderate FP, some div.
    Hyperelastic,
    /// Fiber-reinforced with exponential stiffening (arterial class):
    /// FP-heavy with long multiply chains (exp series).
    FiberExponential,
    /// Reactive viscoelastic (the paper's `ma26–ma31` group): deep Prony
    /// chains, heavy state traffic, spin-synchronized in FEBio.
    Viscoelastic,
    /// Biphasic poroelastic: extra pore-pressure coupling terms.
    Biphasic,
    /// Multiphasic (solute transport on top of biphasic).
    Multiphasic,
    /// Continuum damage: history lookups + data-dependent evolution.
    Damage,
    /// Small-strain plasticity with radial return (branchy).
    Plasticity,
    /// Active muscle contraction along a fiber.
    ActiveMuscle,
    /// Volumetric growth (tumor class).
    Growth,
    /// Incompressible fluid (viscous + convective terms, div-heavy).
    Fluid,
    /// Rigid body (negligible constitutive cost).
    Rigid,
}

tag_table!(named MaterialClass {
    LinearElastic = 0,
    Hyperelastic = 1,
    FiberExponential = 2,
    Viscoelastic = 3,
    Biphasic = 4,
    Multiphasic = 5,
    Damage = 6,
    Plasticity = 7,
    ActiveMuscle = 8,
    Growth = 9,
    Fluid = 10,
    Rigid = 11,
});

/// Preconditioner used by a recorded iterative solve.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PrecondClass {
    /// No preconditioning.
    None,
    /// Diagonal scaling.
    Jacobi,
    /// Incomplete LU with zero fill.
    Ilu0,
}

tag_table!(named PrecondClass {
    None = 0,
    Jacobi = 1,
    Ilu0 = 2,
});

/// One recorded kernel invocation.
///
/// Sizes and index structures are captured by value/`Arc` at record time so
/// the log outlives the solver state.
#[derive(Debug, Clone)]
pub enum KernelCall {
    /// BLAS-1 dot product of length `n`.
    Dot { n: usize },
    /// BLAS-1 `y += alpha x` of length `n`.
    Axpy { n: usize },
    /// BLAS-1 two-norm of length `n`.
    Norm { n: usize },
    /// Vector copy/scale of length `n`.
    VecOp { n: usize },
    /// Sparse matrix-vector product over a live pattern.
    SpMv { pattern: Arc<CsrPattern> },
    /// Stiffness-matrix assembly over a mesh.
    AssembleStiffness {
        /// Element connectivity, `nodes_per_elem` node ids per element.
        conn: Arc<Vec<u32>>,
        /// Nodes per element (8 = hex, 4 = tet).
        nodes_per_elem: usize,
        /// Unknown fields per node (3 = displacement, 4 = +pressure, ...).
        dofs_per_node: usize,
        /// Quadrature points per element.
        gauss_points: usize,
        /// Constitutive class (drives per-point FP cost).
        material: MaterialClass,
        /// The global matrix pattern scattered into.
        pattern: Arc<CsrPattern>,
    },
    /// Residual (internal force) assembly — same traversal, no matrix
    /// scatter.
    AssembleResidual {
        /// Element connectivity.
        conn: Arc<Vec<u32>>,
        /// Nodes per element.
        nodes_per_elem: usize,
        /// Unknown fields per node.
        dofs_per_node: usize,
        /// Quadrature points per element.
        gauss_points: usize,
        /// Constitutive class.
        material: MaterialClass,
    },
    /// Sparse LDLᵀ numeric factorization (PARDISO class). Holds the exact
    /// factor structure produced by the symbolic phase.
    LdlFactor {
        /// Column pointers of L (length `n + 1`).
        col_ptr: Arc<Vec<usize>>,
        /// Row indices of L.
        row_idx: Arc<Vec<u32>>,
    },
    /// Forward + diagonal + backward solve with LDLᵀ factors.
    LdlSolve {
        /// Column pointers of L.
        col_ptr: Arc<Vec<usize>>,
        /// Row indices of L.
        row_idx: Arc<Vec<u32>>,
    },
    /// Skyline LDLᵀ factorization (FEBio's Skyline solver).
    SkylineFactor {
        /// Column heights (diagonal inclusive).
        heights: Arc<Vec<usize>>,
    },
    /// Skyline forward/backward solve.
    SkylineSolve {
        /// Column heights.
        heights: Arc<Vec<usize>>,
    },
    /// A whole preconditioned-CG solve of `iterations` steps.
    CgSolve {
        /// System pattern (drives the per-iteration SpMV).
        pattern: Arc<CsrPattern>,
        /// Iterations actually taken.
        iterations: usize,
        /// Preconditioner applied per iteration.
        precond: PrecondClass,
    },
    /// A whole restarted-FGMRES solve.
    FgmresSolve {
        /// System pattern.
        pattern: Arc<CsrPattern>,
        /// Total inner iterations.
        iterations: usize,
        /// Restart length (Arnoldi basis bound).
        restart: usize,
        /// Preconditioner applied per iteration.
        precond: PrecondClass,
    },
    /// Constitutive (material-point) update sweep.
    ConstitutiveUpdate {
        /// Total quadrature points updated.
        gauss_points: usize,
        /// Material class.
        material: MaterialClass,
    },
    /// Contact detection sweep with the *actual* hit pattern observed.
    ContactSearch {
        /// Per-candidate outcome (true = penetrating) from the real solve.
        outcomes: Arc<Vec<bool>>,
    },
    /// OpenMP-style spin barrier: `spin_iters` PAUSE loop iterations.
    OmpBarrier {
        /// Number of spin-loop iterations (imbalance proxy).
        spin_iters: usize,
    },
    /// Dirichlet/Neumann boundary-condition application over `n` dofs.
    BcApply {
        /// Constrained dof count.
        n: usize,
    },
    /// Geometry update (coordinates += displacement increment).
    MeshUpdate {
        /// Node count.
        n_nodes: usize,
    },
    /// Rigid-body / joint constraint update.
    RigidUpdate {
        /// Number of rigid bodies.
        n_bodies: usize,
        /// Number of joint constraints.
        n_joints: usize,
    },
    /// Convergence-norm evaluation over `n` dofs.
    ConvergenceCheck {
        /// Dof count.
        n: usize,
    },
}

/// The one listing of kernel calls, handed as rows to the macro named
/// `$consumer`: per variant its store tag (`STORE_VERSION` 1), its
/// trace-fingerprint label (`"trace-v2"`) and its fields by kind, in the
/// order both formats write them. A kind is a method of [`Walker`] and
/// [`Source`]: `count`, `material`, `precond`, or one of the shared
/// index structures `pattern`, `usizes`, `u32s`, `bools`.
///
/// Exported so that tests outside the crate can build every variant
/// from it; inside, its one consumer is `walks!` below.
#[doc(hidden)]
#[macro_export]
macro_rules! kernels {
    ($consumer:ident) => {
        $consumer! {
            0 "dot" Dot { n: count }
            1 "axpy" Axpy { n: count }
            2 "norm" Norm { n: count }
            3 "vecop" VecOp { n: count }
            4 "spmv" SpMv { pattern: pattern }
            5 "asm_k" AssembleStiffness {
                conn: u32s, nodes_per_elem: count, dofs_per_node: count,
                gauss_points: count, material: material, pattern: pattern
            }
            6 "asm_r" AssembleResidual {
                conn: u32s, nodes_per_elem: count, dofs_per_node: count,
                gauss_points: count, material: material
            }
            7 "ldl_f" LdlFactor { col_ptr: usizes, row_idx: u32s }
            8 "ldl_s" LdlSolve { col_ptr: usizes, row_idx: u32s }
            9 "sky_f" SkylineFactor { heights: usizes }
            10 "sky_s" SkylineSolve { heights: usizes }
            11 "cg" CgSolve { pattern: pattern, iterations: count, precond: precond }
            12 "fgmres" FgmresSolve {
                pattern: pattern, iterations: count, restart: count, precond: precond
            }
            13 "const" ConstitutiveUpdate { gauss_points: count, material: material }
            14 "contact" ContactSearch { outcomes: bools }
            15 "barrier" OmpBarrier { spin_iters: count }
            16 "bc" BcApply { n: count }
            17 "mesh" MeshUpdate { n_nodes: count }
            18 "rigid" RigidUpdate { n_bodies: count, n_joints: count }
            19 "conv" ConvergenceCheck { n: count }
        }
    };
}

/// Something done to every field of a kernel call, in listing order.
/// Each visit returns the field's value for the rebuilt call.
pub(crate) trait Walker {
    /// Opens a call: its store tag and fingerprint label.
    fn kernel(&mut self, tag: u8, label: &'static str);
    fn count(&mut self, v: &usize) -> usize;
    fn material(&mut self, v: &MaterialClass) -> MaterialClass;
    fn precond(&mut self, v: &PrecondClass) -> PrecondClass;
    fn pattern(&mut self, v: &Arc<CsrPattern>) -> Arc<CsrPattern>;
    fn usizes(&mut self, v: &Arc<Vec<usize>>) -> Arc<Vec<usize>>;
    fn u32s(&mut self, v: &Arc<Vec<u32>>) -> Arc<Vec<u32>>;
    fn bools(&mut self, v: &Arc<Vec<bool>>) -> Arc<Vec<bool>>;
}

/// Where the fields of a call that does not exist yet come from, asked
/// in listing order.
pub(crate) trait Source {
    /// Why a field could not be produced.
    type Error;
    fn count(&mut self) -> Result<usize, Self::Error>;
    fn material(&mut self) -> Result<MaterialClass, Self::Error>;
    fn precond(&mut self) -> Result<PrecondClass, Self::Error>;
    fn pattern(&mut self) -> Result<Arc<CsrPattern>, Self::Error>;
    fn usizes(&mut self) -> Result<Arc<Vec<usize>>, Self::Error>;
    fn u32s(&mut self) -> Result<Arc<Vec<u32>>, Self::Error>;
    fn bools(&mut self) -> Result<Arc<Vec<bool>>, Self::Error>;
}

/// Both walks destructure and rebuild every variant without `..`, so a
/// variant or field the listing forgets (or invents) does not compile.
macro_rules! walks {
    ($($tag:literal $label:literal $variant:ident { $($field:ident: $kind:ident),* })*) => {
        impl KernelCall {
            /// Visits the call's tag, label and fields in listing order
            /// and rebuilds it from what the walker hands back.
            pub(crate) fn walk<W: Walker>(&self, w: &mut W) -> Self {
                match self {
                    $(KernelCall::$variant { $($field),* } => {
                        w.kernel($tag, $label);
                        KernelCall::$variant { $($field: w.$kind($field)),* }
                    })*
                }
            }

            /// Builds the call with store tag `tag`, fields from `s` in
            /// listing order; `None` for a tag no row carries.
            pub(crate) fn read<S: Source>(tag: u8, s: &mut S) -> Result<Option<Self>, S::Error> {
                Ok(Some(match tag {
                    $($tag => KernelCall::$variant { $($field: s.$kind()?),* },)*
                    _ => return Ok(None),
                }))
            }
        }
    };
}
kernels!(walks);

/// One value per distinct shared allocation, keyed by `Arc::as_ptr`:
/// every Newton iteration records the same pattern and factor arrays
/// again, and each is interned (store) or content-hashed (fingerprint)
/// exactly once. Sound while the log keeps the allocations alive.
#[derive(Default)]
pub(crate) struct ArcMemo<V> {
    seen: HashMap<usize, V>,
}

impl<V: Copy> ArcMemo<V> {
    /// The value remembered for `shared`'s allocation, computing it with
    /// `first` on first sight.
    pub(crate) fn get<T>(&mut self, shared: &Arc<T>, first: impl FnOnce() -> V) -> V {
        *self
            .seen
            .entry(Arc::as_ptr(shared) as usize)
            .or_insert_with(first)
    }
}

/// Feeds the `"trace-v2"` hash stream: a call is its label and its
/// fields in listing order, enums by their `Debug` name and index
/// arrays by memoized content hash.
struct Fingerprint {
    h: Fnv64,
    hashes: ArcMemo<u64>,
}

impl Fingerprint {
    fn array<T: Copy>(&mut self, v: &Arc<Vec<T>>, widen: impl Fn(T) -> u64) -> Arc<Vec<T>> {
        let sum = self.hashes.get(v, || {
            let mut h = Fnv64::new();
            h.write_usize(v.len());
            for &x in v.iter() {
                h.write_u64(widen(x));
            }
            h.finish()
        });
        self.h.write_u64(sum);
        Arc::clone(v)
    }
}

impl Walker for Fingerprint {
    fn kernel(&mut self, _tag: u8, label: &'static str) {
        self.h.write_str(label);
    }

    fn count(&mut self, v: &usize) -> usize {
        self.h.write_usize(*v);
        *v
    }

    fn material(&mut self, v: &MaterialClass) -> MaterialClass {
        self.h.write_str(v.name());
        *v
    }

    fn precond(&mut self, v: &PrecondClass) -> PrecondClass {
        self.h.write_str(v.name());
        *v
    }

    fn pattern(&mut self, v: &Arc<CsrPattern>) -> Arc<CsrPattern> {
        let sum = self.hashes.get(v, || {
            let mut h = Fnv64::new();
            h.write_usize(v.nrows()).write_usize(v.ncols());
            for &r in v.row_ptr() {
                h.write_usize(r);
            }
            for &c in v.col_idx() {
                h.write_u64(c as u64);
            }
            h.finish()
        });
        self.h.write_u64(sum);
        Arc::clone(v)
    }

    fn usizes(&mut self, v: &Arc<Vec<usize>>) -> Arc<Vec<usize>> {
        self.array(v, |x| x as u64)
    }

    fn u32s(&mut self, v: &Arc<Vec<u32>>) -> Arc<Vec<u32>> {
        self.array(v, |x| x as u64)
    }

    fn bools(&mut self, v: &Arc<Vec<bool>>) -> Arc<Vec<bool>> {
        self.array(v, |x| x as u64)
    }
}

/// Stable fingerprint of the trace a (log, expansion-config) pair will
/// replay. The same workload id can appear in several workload sets with
/// different expansion knobs (e.g. `co` in the catalog vs the gem5 set),
/// so the runner's cache key needs this beyond the id alone. Index
/// arrays are hashed by *content* (memoized per allocation), so a model
/// change that alters trace structure — even at equal sizes, e.g. a
/// different node numbering with identical nnz — changes the
/// fingerprint and can never alias a persistent cache entry.
pub fn trace_fingerprint(log: &PhaseLog, expand: &ExpandConfig) -> u64 {
    let mut f = Fingerprint {
        h: Fnv64::new(),
        hashes: ArcMemo::default(),
    };
    f.h.write_str("trace-v2");
    expand.feed(&mut f.h);
    f.h.write_usize(log.len());
    for call in log.calls() {
        call.walk(&mut f);
    }
    f.h.finish()
}

/// Ordered record of every kernel a solve executed.
#[derive(Debug, Clone, Default)]
pub struct PhaseLog {
    calls: Vec<KernelCall>,
}

impl PhaseLog {
    /// An empty log.
    pub fn new() -> Self {
        PhaseLog { calls: Vec::new() }
    }

    /// Appends a kernel record.
    pub fn record(&mut self, call: KernelCall) {
        self.calls.push(call);
    }

    /// Recorded calls in execution order.
    pub fn calls(&self) -> &[KernelCall] {
        &self.calls
    }

    /// Number of recorded calls.
    pub fn len(&self) -> usize {
        self.calls.len()
    }

    /// True when nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.calls.is_empty()
    }

    /// Merges another log onto the end of this one.
    pub fn extend_from(&mut self, other: &PhaseLog) {
        self.calls.extend_from_slice(&other.calls);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_and_read_back() {
        let mut log = PhaseLog::new();
        assert!(log.is_empty());
        log.record(KernelCall::Dot { n: 100 });
        log.record(KernelCall::OmpBarrier { spin_iters: 32 });
        assert_eq!(log.len(), 2);
        assert!(matches!(log.calls()[0], KernelCall::Dot { n: 100 }));
    }

    #[test]
    fn tag_tables_name_every_value_as_debug_does() {
        // The fingerprint hashes `name()` where it used to hash
        // `format!("{v:?}")`: the two must never drift.
        let materials: Vec<_> = (0u8..).map_while(MaterialClass::from_tag).collect();
        assert_eq!(materials.len(), 12);
        for (tag, m) in materials.into_iter().enumerate() {
            assert_eq!((m.tag() as usize, m.name()), (tag, &*format!("{m:?}")));
        }
        let preconds: Vec<_> = (0u8..).map_while(PrecondClass::from_tag).collect();
        assert_eq!(preconds.len(), 3);
        for (tag, p) in preconds.into_iter().enumerate() {
            assert_eq!((p.tag() as usize, p.name()), (tag, &*format!("{p:?}")));
        }
    }

    #[test]
    fn extend_concatenates() {
        let mut a = PhaseLog::new();
        a.record(KernelCall::Norm { n: 8 });
        let mut b = PhaseLog::new();
        b.record(KernelCall::Axpy { n: 4 });
        a.extend_from(&b);
        assert_eq!(a.len(), 2);
    }

    #[test]
    fn kernel_calls_share_patterns_cheaply() {
        let p = Arc::new(CsrPattern::new(2, 2, vec![0, 1, 2], vec![0, 1]).unwrap());
        let mut log = PhaseLog::new();
        for _ in 0..10 {
            log.record(KernelCall::SpMv {
                pattern: Arc::clone(&p),
            });
        }
        assert_eq!(Arc::strong_count(&p), 11);
    }
}
