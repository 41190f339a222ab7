//! # belenos-workloads
//!
//! The FEBio test-suite and ocular-case-study substitute: a **parametric
//! scenario space** covering all 19 workload categories of the paper's
//! Table I plus the high-resolution `eye` model.
//!
//! The unit of workload description is the serializable [`ScenarioSpec`]:
//! a typed model [`Family`] (one per Table I category) with its physics
//! parameters, the shared mesh / stepping / Newton / spin knobs and the
//! trace-expansion configuration. Scenarios validate on construction,
//! round-trip through JSON, build real finite-element models for
//! `belenos-fem`, and carry a stable content digest for result caching.
//!
//! The historical catalog survives as ~20 named presets ([`catalog()`],
//! [`vtune_set`], [`gem5_set`], [`by_id`]) — each just a `ScenarioSpec`
//! reproducing the original hardcoded builder bit for bit.
//!
//! ```
//! use belenos_workloads::{by_id, gem5_set};
//!
//! let six = gem5_set();
//! assert_eq!(six.len(), 6);
//! let co = by_id("co").expect("contact preset exists");
//! let mut model = co.build_model().expect("valid scenario");
//! let report = model.solve().expect("model solves");
//! assert!(report.log.calls().len() > 5);
//! ```

pub mod catalog;
pub mod models;
pub mod scenario;

pub use catalog::{by_id, catalog, distinct_presets, gem5_set, vtune_set, Category};
pub use scenario::{
    ExpandParams, Family, MeshParams, NewtonParams, ScenarioError, ScenarioListError, ScenarioSpec,
    SteppingParams,
};
