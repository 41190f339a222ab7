//! The micro-operation vocabulary consumed by the out-of-order core model.

/// Functional class of a micro-op.
///
/// Latencies and functional-unit mapping live in the `belenos-uarch` crate;
/// this enum only encodes *what* the op is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OpKind {
    /// Integer ALU op (add/sub/logic/compare/address arithmetic).
    IntAlu,
    /// Integer multiply.
    IntMul,
    /// Floating-point add/sub/compare.
    FpAdd,
    /// Floating-point multiply.
    FpMul,
    /// Floating-point divide / sqrt (long latency, unpipelined).
    FpDiv,
    /// Memory load.
    Load,
    /// Memory store.
    Store,
    /// Conditional branch.
    Branch,
    /// x86 `PAUSE`: the spin-wait hint. Serializing, long effective
    /// latency — the mechanism behind the paper's core-bound material
    /// models (OpenMP barrier spinning).
    Pause,
    /// Full serializing instruction (CPUID/LFENCE class): blocks issue of
    /// younger ops until it commits.
    Serialize,
}

tag_table!(OpKind {
    IntAlu = 0,
    IntMul = 1,
    FpAdd = 2,
    FpMul = 3,
    FpDiv = 4,
    Load = 5,
    Store = 6,
    Branch = 7,
    Pause = 8,
    Serialize = 9,
});

impl OpKind {
    /// True for loads and stores.
    pub fn is_mem(self) -> bool {
        matches!(self, OpKind::Load | OpKind::Store)
    }

    /// True for FP arithmetic.
    pub fn is_fp(self) -> bool {
        matches!(self, OpKind::FpAdd | OpKind::FpMul | OpKind::FpDiv)
    }

    /// True for integer arithmetic.
    pub fn is_int(self) -> bool {
        matches!(self, OpKind::IntAlu | OpKind::IntMul)
    }
}

/// Function category for hotspot attribution (the paper's Figure 4 rows).
///
/// Every micro-op is tagged with the category of the function it would have
/// executed in, so the profiler can reproduce VTune's bottom-up clocktick
/// attribution per category.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FnCategory {
    /// FEBio internal functions: stiffness assembly, residual computation,
    /// force evaluation (the dominant category in the paper).
    Internal,
    /// Sparsity bookkeeping: CSR construction, pattern queries, scatter
    /// index searches.
    Sparsity,
    /// Dense (non-sparse) matrix functions: element-level mat-mat, small LU.
    MatrixDense,
    /// FEBio-specific domain logic: material point updates, BC application,
    /// contact.
    FebioSpecific,
    /// MKL BLAS analogues: dot, axpy, norm, dense kernels inside solvers.
    MklBlas,
    /// MKL PARDISO analogues: sparse factorization and triangular solves.
    MklPardiso,
}

tag_table!(FnCategory {
    Internal = 0,
    Sparsity = 1,
    MatrixDense = 2,
    FebioSpecific = 3,
    MklBlas = 4,
    MklPardiso = 5,
});

impl FnCategory {
    /// All categories in the paper's Figure-4 row order.
    pub const ALL: [FnCategory; 6] = [
        FnCategory::Internal,
        FnCategory::Sparsity,
        FnCategory::MatrixDense,
        FnCategory::FebioSpecific,
        FnCategory::MklBlas,
        FnCategory::MklPardiso,
    ];

    /// Display label matching the paper's figure rows.
    pub fn label(self) -> &'static str {
        match self {
            FnCategory::Internal => "Internal Functions",
            FnCategory::Sparsity => "Sparsity Functions",
            FnCategory::MatrixDense => "Matrix Functions (Not Sparse)",
            FnCategory::FebioSpecific => "FEBio Specific Functions",
            FnCategory::MklBlas => "MKL BLAS Library Functions",
            FnCategory::MklPardiso => "MKL Pardiso Library Functions",
        }
    }
}

/// One dynamic micro-operation.
///
/// `dep1`/`dep2` are *relative* distances to producer ops within the dynamic
/// stream (`0` = no dependency; `k` = depends on the op `k` positions
/// earlier). Relative encoding keeps the trace stream stateless and lets the
/// renamer reconstruct dataflow without architectural register names.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MicroOp {
    /// Functional class.
    pub kind: OpKind,
    /// Synthetic program counter (drives icache, branch prediction, BTB).
    pub pc: u32,
    /// Effective address for loads/stores (0 otherwise).
    pub addr: u64,
    /// Access size in bytes for loads/stores (0 otherwise).
    pub size: u8,
    /// Branch outcome (branches only).
    pub taken: bool,
    /// Branch target pc (branches only).
    pub target: u32,
    /// Distance to first producer (0 = none).
    pub dep1: u32,
    /// Distance to second producer (0 = none).
    pub dep2: u32,
    /// Hotspot category of the enclosing function.
    pub cat: FnCategory,
}

impl MicroOp {
    /// An integer ALU op with up to two producers.
    pub fn int(pc: u32, dep1: u32, dep2: u32, cat: FnCategory) -> Self {
        MicroOp {
            kind: OpKind::IntAlu,
            pc,
            addr: 0,
            size: 0,
            taken: false,
            target: 0,
            dep1,
            dep2,
            cat,
        }
    }

    /// A floating-point op of the given kind.
    pub fn fp(kind: OpKind, pc: u32, dep1: u32, dep2: u32, cat: FnCategory) -> Self {
        debug_assert!(kind.is_fp());
        MicroOp {
            kind,
            pc,
            addr: 0,
            size: 0,
            taken: false,
            target: 0,
            dep1,
            dep2,
            cat,
        }
    }

    /// A load of `size` bytes from `addr`.
    pub fn load(pc: u32, addr: u64, size: u8, dep1: u32, cat: FnCategory) -> Self {
        MicroOp {
            kind: OpKind::Load,
            pc,
            addr,
            size,
            taken: false,
            target: 0,
            dep1,
            dep2: 0,
            cat,
        }
    }

    /// A store of `size` bytes to `addr`; `dep1` is the data producer.
    pub fn store(pc: u32, addr: u64, size: u8, dep1: u32, cat: FnCategory) -> Self {
        MicroOp {
            kind: OpKind::Store,
            pc,
            addr,
            size,
            taken: false,
            target: 0,
            dep1,
            dep2: 0,
            cat,
        }
    }

    /// A conditional branch at `pc` jumping to `target` when taken.
    pub fn branch(pc: u32, target: u32, taken: bool, dep1: u32, cat: FnCategory) -> Self {
        MicroOp {
            kind: OpKind::Branch,
            pc,
            addr: 0,
            size: 0,
            taken,
            target,
            dep1,
            dep2: 0,
            cat,
        }
    }

    /// A PAUSE spin-hint op.
    pub fn pause(pc: u32, cat: FnCategory) -> Self {
        MicroOp {
            kind: OpKind::Pause,
            pc,
            addr: 0,
            size: 0,
            taken: false,
            target: 0,
            dep1: 0,
            dep2: 0,
            cat,
        }
    }

    /// A fully serializing op.
    pub fn serialize(pc: u32, cat: FnCategory) -> Self {
        MicroOp {
            kind: OpKind::Serialize,
            pc,
            addr: 0,
            size: 0,
            taken: false,
            target: 0,
            dep1: 0,
            dep2: 0,
            cat,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_classification() {
        assert!(OpKind::Load.is_mem());
        assert!(OpKind::Store.is_mem());
        assert!(!OpKind::FpAdd.is_mem());
        assert!(OpKind::FpDiv.is_fp());
        assert!(OpKind::IntMul.is_int());
        assert!(!OpKind::Pause.is_fp());
    }

    #[test]
    fn constructors_fill_fields() {
        let l = MicroOp::load(0x10, 0xdead, 8, 2, FnCategory::Sparsity);
        assert_eq!(l.kind, OpKind::Load);
        assert_eq!(l.addr, 0xdead);
        assert_eq!(l.size, 8);
        assert_eq!(l.dep1, 2);

        let b = MicroOp::branch(0x20, 0x10, true, 1, FnCategory::Internal);
        assert!(b.taken);
        assert_eq!(b.target, 0x10);

        let p = MicroOp::pause(0x30, FnCategory::FebioSpecific);
        assert_eq!(p.kind, OpKind::Pause);
    }

    #[test]
    fn category_labels_are_stable() {
        assert_eq!(FnCategory::Internal.label(), "Internal Functions");
        assert_eq!(FnCategory::ALL.len(), 6);
    }

    #[test]
    fn microop_is_small() {
        // The expander streams millions of these; keep them compact.
        assert!(std::mem::size_of::<MicroOp>() <= 40);
    }
}
