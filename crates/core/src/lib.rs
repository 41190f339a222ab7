//! # belenos
//!
//! Bottleneck Evaluation to Link Biomechanics to Novel Computing
//! Optimizations — the experiment harness reproducing the IISWC 2025
//! Belenos paper.
//!
//! The paper characterizes FEBio finite-element biomechanics workloads with
//! Intel VTune (real hardware) and gem5 (microarchitectural sensitivity).
//! This crate ties the reproduction's substrates together:
//!
//! * `belenos-fem` solves the workload models numerically and records a
//!   kernel-level phase log;
//! * `belenos-trace` expands the log into a micro-op stream;
//! * `belenos-uarch` executes the stream on a cycle-level out-of-order
//!   core (the gem5 substitute);
//! * `belenos-profiler` produces the VTune-style analyses.
//!
//! [`experiment`] runs one workload through that pipeline; [`sweep`] is
//! the one grid runner — experiments × an [`sweep::Axis`] of machine
//! configurations (the paper's frequency, cache-size, pipeline-width,
//! load/store-queue and branch-predictor studies are its axis
//! constructors) → a [`sweep::Grid`]; [`figures`] regenerates every table
//! and figure of the paper as structured [`Report`]s, rows over a grid
//! (text/JSON/CSV renderers over the same rows); [`campaign`] wraps all
//! of it behind a declarative, JSON-serializable [`CampaignSpec`]
//! executed by [`Campaign::run`], dispatching through one analysis table.
//!
//! [`sweep::run`] submits each (workload × config) grid to the
//! `belenos-runner` batch engine: points execute in parallel on up to
//! `BELENOS_JOBS` threads and land in a content-addressed result
//! cache, so configurations shared between figures (the Table II
//! baseline appears in every sweep) are simulated exactly once per
//! process. Parallel and serial runs are bit-identical.
//!
//! Campaigns run under [`SimOptions`]: op budget, budget placement
//! (prefix vs SMARTS interval sampling) and the core-model backend
//! (`belenos_uarch::ModelKind` — cycle-level out-of-order, scalar
//! in-order, or the fast analytical bound model), so the same figures
//! can be regenerated at any speed/fidelity point and cross-validated
//! across backends, mirroring the paper's gem5-vs-VTune methodology.
//!
//! ```no_run
//! use belenos::experiment::Experiment;
//! use belenos_uarch::CoreConfig;
//!
//! let spec = belenos_workloads::by_id("ar").expect("known workload");
//! let exp = Experiment::prepare(&spec).expect("model solves");
//! let stats = exp.simulate(&CoreConfig::gem5_baseline(), 200_000);
//! println!("ar: IPC {:.2}", stats.ipc());
//! ```

pub mod campaign;
pub mod experiment;
pub mod figures;
pub mod options;
pub mod report;
pub mod sweep;
pub mod trace_store;

pub use campaign::{
    Analysis, Campaign, CampaignError, CampaignReport, CampaignSpec, SpecError, WorkloadSet,
};
pub use experiment::{Experiment, PrepareError};
pub use options::{SimFailure, SimOptions, DEFAULT_MAX_OPS};
pub use report::{Cell, Report, Section};
