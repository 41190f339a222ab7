//! # belenos-profiler
//!
//! The VTune substitute: turns raw simulator statistics into the analyses
//! the Belenos paper reports — Top-Down Microarchitecture Analysis
//! (retiring / front-end / bad-speculation / back-end with memory- vs
//! core-bound splits), VTune-style bottom-up hotspot attribution per
//! function category, and memory-hierarchy summaries (MPKI, bandwidth).
//!
//! ```
//! use belenos_profiler::tma::TopDown;
//! use belenos_uarch::SimStats;
//!
//! let stats = SimStats {
//!     slots_retiring: 250, slots_frontend: 100,
//!     slots_bad_speculation: 10, slots_backend: 640,
//!     slots_be_memory: 500, slots_be_core: 140,
//!     ..SimStats::default()
//! };
//! let td = TopDown::from_stats("bp07", &stats);
//! assert!(td.backend_bound > 0.6);
//! ```

pub mod hotspots;
pub mod memory;
pub mod tma;

pub use hotspots::{HotspotDot, HotspotProfile};
pub use memory::MemoryProfile;
pub use tma::TopDown;
