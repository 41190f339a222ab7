//! # belenos-trace
//!
//! Micro-op trace layer: the bridge between the Belenos finite-element
//! solver (`belenos-fem`) and the microarchitecture simulator
//! (`belenos-uarch`).
//!
//! The original paper runs the FEBio binary under Intel VTune (real
//! hardware) and inside gem5 full-system mode. We cannot boot a guest OS,
//! so this crate implements the standard substitute: **kernel-synthesized
//! trace-driven simulation**. While the FE solver runs numerically, it
//! records a [`PhaseLog`] of every computational kernel it executes —
//! including live references to the actual sparse structures involved. The
//! [`expand`] module then replays that log as a lazy stream of
//! [`MicroOp`]s whose
//!
//! * **memory addresses** come from the real CSR and LDLᵀ-factor index
//!   arrays (so gather irregularity and reuse distances match the
//!   workload),
//! * **dependency distances** encode the true kernel dataflow (accumulation
//!   chains, independent streams, triangular-solve recurrences),
//! * **branch outcomes** follow actual loop trip counts and data-dependent
//!   predicates, and
//! * **PAUSE ops** reproduce the OpenMP spin-wait serialization the paper
//!   identifies as the root cause of core-bound stalls in material models.
//!
//! ```
//! use belenos_trace::{PhaseLog, KernelCall, expand::Expander};
//!
//! let mut log = PhaseLog::new();
//! log.record(KernelCall::Dot { n: 4 });
//! let ops: Vec<_> = Expander::new(&log).collect();
//! assert!(!ops.is_empty());
//! ```

// Index-based loops over CSR/row-pointer structures are the idiomatic
// form for these numeric kernels; iterator rewrites obscure the math.
#![allow(clippy::needless_range_loop)]

/// The one tag table of a fieldless enum: `Variant = store tag`.
/// Generates `tag`, `from_tag` and — for a `named` table — `name`, the
/// variant's `Debug` spelling as a `&'static str` (what the trace
/// fingerprint hashes). Both directions come from the same rows, and
/// `tag` matches exhaustively, so a variant the table forgets does not
/// compile.
macro_rules! tag_table {
    (named $ty:ident { $($variant:ident = $tag:literal),* $(,)? }) => {
        tag_table!($ty { $($variant = $tag),* });
        impl $ty {
            pub(crate) fn name(self) -> &'static str {
                match self {
                    $($ty::$variant => stringify!($variant),)*
                }
            }
        }
    };
    ($ty:ident { $($variant:ident = $tag:literal),* $(,)? }) => {
        impl $ty {
            pub(crate) fn tag(self) -> u8 {
                match self {
                    $($ty::$variant => $tag,)*
                }
            }

            pub(crate) fn from_tag(tag: u8) -> Option<Self> {
                match tag {
                    $($tag => Some($ty::$variant),)*
                    _ => None,
                }
            }
        }
    };
}

pub mod digest;
pub mod expand;
pub mod flat;
pub mod layout;
pub mod op;
pub mod program;
pub mod store;

pub use digest::Fnv64;
pub use expand::expand_fingerprint;
pub use flat::{FlatIter, FlatTrace, Ops};
pub use layout::AddressSpace;
pub use op::{FnCategory, MicroOp, OpKind};
pub use program::{trace_fingerprint, KernelCall, MaterialClass, PhaseLog, PrecondClass};
pub use store::{SolveMeta, StoreError, StoreHeader, TraceArtifact, HEADER_LEN, STORE_VERSION};
