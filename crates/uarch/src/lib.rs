//! # belenos-uarch
//!
//! CPU, cache-hierarchy and DRAM simulation — the gem5 substitute of the
//! Belenos reproduction — with **pluggable core-model backends** behind
//! the [`model::CoreModel`] trait.
//!
//! The default backend ([`o3::O3Core`]) mirrors gem5's `X86O3CPU`
//! structure at the fidelity the paper's sensitivity studies need:
//! parameterized fetch/decode/rename/dispatch/issue/commit widths, ROB /
//! issue-queue / load-store-queue capacities, physical register pools,
//! functional-unit latencies, set-associative L1I/L1D/L2 caches with
//! MSHRs, a bandwidth/latency DRAM model, iTLB/dTLB, and four branch
//! predictors (LocalBP, TournamentBP, LTAGE,
//! MultiperspectivePerceptron) behind a BTB. Two cheaper backends — a
//! scalar in-order core ([`inorder::InOrderCore`]) and an analytical
//! bound model ([`analytic::AnalyticCore`]) — hold the same
//! [`model::Machine`], so bottleneck diagnoses can be cross-validated across
//! modeling fidelities exactly as the paper cross-validates gem5 against
//! VTune. Select with [`CoreConfig::with_model`] / `--model`.
//!
//! Every backend executes the micro-op streams produced by
//! `belenos-trace` and produces gem5-style pipeline-stage counters plus
//! Top-Down Microarchitecture Analysis slot accounting (the VTune
//! taxonomy), which the `belenos-profiler` crate turns into the paper's
//! figures.
//!
//! ```
//! use belenos_uarch::{config::CoreConfig, o3::O3Core};
//! use belenos_trace::{PhaseLog, KernelCall, expand::Expander};
//!
//! let mut log = PhaseLog::new();
//! log.record(KernelCall::Dot { n: 256 });
//! let mut core = O3Core::new(CoreConfig::gem5_baseline());
//! let stats = core.run(Expander::new(&log));
//! assert!(stats.committed_ops > 0);
//! assert!(stats.ipc() > 0.1);
//! ```

// Index-based loops over CSR/row-pointer structures are the idiomatic
// form for these numeric kernels; iterator rewrites obscure the math.
#![allow(clippy::needless_range_loop)]

pub mod analytic;
pub mod branch;
pub mod cache;
pub mod config;
pub mod dram;
pub mod inorder;
pub mod json;
pub mod model;
pub mod o3;
pub mod stats;
pub mod tlb;

pub use analytic::AnalyticCore;
pub use belenos_trace::Fnv64;
pub use config::{CoreConfig, SamplingConfig, DEFAULT_SAMPLING_INTERVALS};
pub use inorder::InOrderCore;
pub use model::{build_model, CoreModel, ModelKind};
pub use o3::O3Core;
pub use stats::SimStats;
