//! Campaign-level simulation options and failure reporting.
//!
//! Every figure and sweep function takes a [`SimOptions`]: the micro-op
//! budget, how that budget is placed over the trace
//! ([`SamplingConfig`]), and which core-model backend replays it
//! ([`ModelKind`]). Its fields are one `record!` listing: a campaign
//! spec's `options` section, a served scenario batch's `options` and the
//! JSON of every report are that listing read (over the caller's
//! defaults) or written. The CLI's `--max-ops` / `--sampling` / `--model`
//! set the same three fields, so a whole campaign can be re-pointed at
//! the in-order or analytical backend with one flag.

use belenos_json::{record, Json, ToJson};
use belenos_uarch::{CoreConfig, ModelKind, SamplingConfig};

/// The per-simulation micro-op budget of a one-shot CLI command or a
/// served scenario batch that names none.
pub const DEFAULT_MAX_OPS: usize = 1_000_000;

/// How a simulation campaign runs: budget, budget placement, backend.
#[derive(Debug, Clone, PartialEq)]
pub struct SimOptions {
    /// Micro-op budget per simulation (0 = unlimited).
    pub max_ops: usize,
    /// How the budget is placed over the trace (prefix truncation when
    /// off, SMARTS-style systematic intervals otherwise).
    pub sampling: SamplingConfig,
    /// Which core-model backend replays the trace.
    pub model: ModelKind,
}

impl SimOptions {
    /// Options with the given budget, sampling off, on the default
    /// (`o3`) backend.
    pub fn new(max_ops: usize) -> Self {
        SimOptions {
            max_ops,
            sampling: SamplingConfig::off(),
            model: ModelKind::O3,
        }
    }

    /// Sets the trace-sampling strategy.
    pub fn with_sampling(mut self, sampling: SamplingConfig) -> Self {
        self.sampling = sampling;
        self
    }

    /// Sets the core-model backend.
    pub fn with_model(mut self, model: ModelKind) -> Self {
        self.model = model;
        self
    }

    /// Returns options with the budget multiplied by `factor` (used by
    /// the VTune-style profile figures, which need windows spanning
    /// several Newton iterations of the larger models).
    pub fn scaled_budget(&self, factor: usize) -> Self {
        let mut out = self.clone();
        out.max_ops = out.max_ops.saturating_mul(factor);
        out
    }

    /// Applies the backend selection to a machine configuration; sweep
    /// and figure grids route every [`CoreConfig`] they build through
    /// this, so backend choice follows the campaign options.
    pub fn configure(&self, cfg: CoreConfig) -> CoreConfig {
        cfg.with_model(self.model)
    }
}

/// Unlimited budget, sampling off, the `o3` backend.
impl Default for SimOptions {
    fn default() -> Self {
        SimOptions::new(0)
    }
}

// The `options` section of every document: keys, order, and what a
// document that omits one keeps from the defaults it is read over.
record!(SimOptions {
    max_ops: Any,
    sampling: Any,
    model: Any,
});

/// A simulation point that failed (its backend panicked — e.g. a wedged
/// pipeline hitting the simulator's stall limit).
///
/// The runner catches per-job panics; the sweep and figure layers
/// propagate them as this error instead of panicking, so a wedged
/// baseline surfaces as an error message, not a dead figure binary.
#[derive(Debug, Clone)]
pub struct SimFailure {
    /// Workload id of the failed point.
    pub workload: String,
    /// Swept-value label of the failed point.
    pub label: String,
    /// The backend's panic message.
    pub message: String,
}

impl std::fmt::Display for SimFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "simulation point '{} {}' failed: {}",
            self.workload, self.label, self.message
        )
    }
}

impl std::error::Error for SimFailure {}

impl ToJson for SimFailure {
    fn to_json(&self) -> Json {
        Json::obj(vec![
            ("workload", Json::Str(self.workload.clone())),
            ("label", Json::Str(self.label.clone())),
            ("message", Json::Str(self.message.clone())),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use belenos_json::schema;

    #[test]
    fn builder_composes() {
        let o = SimOptions::new(1000)
            .with_sampling(SamplingConfig::smarts(8))
            .with_model(ModelKind::Analytic);
        assert_eq!(o.max_ops, 1000);
        assert_eq!(o.sampling.intervals, 8);
        assert_eq!(o.model, ModelKind::Analytic);
        assert_eq!(o.scaled_budget(3).max_ops, 3000);
        assert_eq!(o.scaled_budget(3).model, ModelKind::Analytic);
    }

    #[test]
    fn configure_threads_the_backend_into_configs() {
        let o = SimOptions::new(0).with_model(ModelKind::InOrder);
        let cfg = o.configure(CoreConfig::gem5_baseline());
        assert_eq!(cfg.model, ModelKind::InOrder);
        // Backend choice moves the cache identity.
        assert_ne!(
            cfg.stable_digest(),
            CoreConfig::gem5_baseline().stable_digest()
        );
    }

    #[test]
    fn options_json_roundtrip() {
        let read = |over: &SimOptions, doc: &str| {
            schema::read(over, &Json::parse(doc).unwrap(), "options")
        };
        for opts in [
            SimOptions::default(),
            SimOptions::new(40_000)
                .with_sampling(SamplingConfig::smarts(16))
                .with_model(ModelKind::InOrder),
        ] {
            let text = opts.to_json().render();
            assert_eq!(read(&SimOptions::default(), &text).unwrap(), opts);
        }
        // Missing fields keep the defaults read over; unknown budget
        // types are rejected.
        let opts = read(&SimOptions::new(DEFAULT_MAX_OPS), r#"{"model": "inorder"}"#).unwrap();
        assert_eq!(opts.max_ops, DEFAULT_MAX_OPS);
        assert!(opts.sampling.is_off());
        assert_eq!(opts.model, ModelKind::InOrder);
        assert!(read(&SimOptions::default(), r#"{"max_ops": -1}"#).is_err());
        assert!(read(&SimOptions::default(), "[]").is_err());
    }

    /// `SimOptions::to_json()` in its four shapes, as bytes: the wire
    /// form a campaign spec and a served scenario batch carry.
    #[test]
    fn options_json_is_the_golden_bytes() {
        let goldens = [
            (
                SimOptions::default(),
                include_str!("../../../tests/golden/specs/options_default.json"),
            ),
            (
                SimOptions::new(20_000).with_sampling(SamplingConfig::smarts(8)),
                include_str!("../../../tests/golden/specs/options_smarts8.json"),
            ),
            (
                SimOptions::new(20_000).with_sampling(SamplingConfig {
                    intervals: 16,
                    warmup_frac: 0.5,
                }),
                include_str!("../../../tests/golden/specs/options_sampling_object.json"),
            ),
            (
                SimOptions::new(1_000_000).with_model(ModelKind::Analytic),
                include_str!("../../../tests/golden/specs/options_analytic.json"),
            ),
        ];
        for (opts, golden) in goldens {
            assert_eq!(opts.to_json().pretty(), golden, "{opts:?}");
        }
    }

    #[test]
    fn failure_displays_the_point() {
        let f = SimFailure {
            workload: "pd".into(),
            label: "2GHz".into(),
            message: "pipeline wedged".into(),
        };
        assert!(f.to_string().contains("'pd 2GHz'"));
        assert!(f.to_string().contains("pipeline wedged"));
    }
}
