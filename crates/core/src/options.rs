//! Campaign-level simulation options and failure reporting.
//!
//! Every figure and sweep function takes a [`SimOptions`]: the micro-op
//! budget, how that budget is placed over the trace
//! ([`SamplingConfig`]), and which core-model backend replays it
//! ([`ModelKind`]). The bench binaries build one from the environment
//! (`BELENOS_MAX_OPS` / `BELENOS_SAMPLING` / `BELENOS_MODEL`) and pass
//! it through unchanged, so a whole campaign can be re-pointed at the
//! in-order or analytical backend with a single variable.

use belenos_json::{FromJson, Json, JsonError, ToJson};
use belenos_uarch::{CoreConfig, ModelKind, SamplingConfig};

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

impl ToJson for SimOptions {
    fn to_json(&self) -> Json {
        Json::obj(vec![
            ("max_ops", Json::Num(self.max_ops as f64)),
            ("sampling", self.sampling.to_json()),
            ("model", self.model.to_json()),
        ])
    }
}

/// Missing fields take the [`SimOptions::default`] values (unlimited
/// budget, sampling off, `o3`), so terse specs stay valid.
impl FromJson for SimOptions {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        v.reject_unknown_fields("options", &["max_ops", "sampling", "model"])?;
        let mut opts = SimOptions::default();
        if let Some(n) = v.get("max_ops") {
            opts.max_ops = n.as_usize().ok_or_else(|| {
                JsonError::new("options.max_ops: expected a non-negative integer")
            })?;
        }
        if let Some(s) = v.get("sampling") {
            opts.sampling = SamplingConfig::from_json(s)?;
        }
        if let Some(m) = v.get("model") {
            opts.model = ModelKind::from_json(m)?;
        }
        Ok(opts)
    }
}

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
        for opts in [
            SimOptions::default(),
            SimOptions::new(40_000)
                .with_sampling(SamplingConfig::smarts(16))
                .with_model(ModelKind::InOrder),
        ] {
            assert_eq!(SimOptions::from_json(&opts.to_json()).unwrap(), opts);
        }
        // Missing fields default; unknown budget types are rejected.
        let terse = Json::parse(r#"{"max_ops": 500}"#).unwrap();
        let opts = SimOptions::from_json(&terse).unwrap();
        assert_eq!(opts.max_ops, 500);
        assert!(opts.sampling.is_off());
        assert_eq!(opts.model, ModelKind::O3);
        assert!(SimOptions::from_json(&Json::parse(r#"{"max_ops": -1}"#).unwrap()).is_err());
        assert!(SimOptions::from_json(&Json::parse("[]").unwrap()).is_err());
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
