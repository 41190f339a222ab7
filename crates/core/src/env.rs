//! The single `BELENOS_*` environment layer.
//!
//! Historically every bench binary re-parsed `BELENOS_MAX_OPS` /
//! `BELENOS_SAMPLING` / `BELENOS_MODEL` on its own. [`EnvOverrides`] is
//! now the only place those variables are read: it captures each as an
//! *optional* override and applies them onto a base [`SimOptions`]. CLI
//! flags are layered on top by mutating the override set after
//! [`EnvOverrides::from_env`], so precedence is always `defaults <
//! environment < flags`. (`BELENOS_JOBS` / `--jobs` is not a simulation
//! option: it sizes the process's one thread budget,
//! `belenos_runner::Budget::global`, which reads the variable itself.)

use crate::options::SimOptions;
use belenos_uarch::{ModelKind, SamplingConfig};

/// Historical per-simulation micro-op budget of the bench binaries
/// (`BELENOS_MAX_OPS` default).
pub const DEFAULT_MAX_OPS: usize = 1_000_000;

/// Default SMARTS interval count for `BELENOS_SAMPLING=on`. Few large
/// intervals alias with solver phase structure; ~a hundred or more
/// converge tightly (see [`SamplingConfig::smarts`]).
pub const DEFAULT_SAMPLING_INTERVALS: usize = 128;

/// Parses a `BELENOS_SAMPLING`-style value.
///
/// * empty, `off` or `0` — prefix truncation (sampling off);
/// * `on` — SMARTS sampling with [`DEFAULT_SAMPLING_INTERVALS`];
/// * `N` — SMARTS sampling with `N` intervals.
///
/// # Errors
///
/// A description of the unparsable value.
pub fn parse_sampling(value: &str) -> Result<SamplingConfig, String> {
    let v = value.trim();
    if v.is_empty() || v.eq_ignore_ascii_case("off") {
        return Ok(SamplingConfig::off());
    }
    if v.eq_ignore_ascii_case("on") {
        return Ok(SamplingConfig::smarts(DEFAULT_SAMPLING_INTERVALS));
    }
    match v.parse::<usize>() {
        Ok(n) => Ok(SamplingConfig::smarts(n)),
        Err(_) => Err(format!(
            "`{v}` not understood (expected off, on, or an interval count)"
        )),
    }
}

/// Optional overrides for a campaign's options, sourced from the
/// environment and/or CLI flags.
#[derive(Debug, Clone, Default)]
pub struct EnvOverrides {
    /// Micro-op budget override (`BELENOS_MAX_OPS` / `--max-ops`).
    pub max_ops: Option<usize>,
    /// Sampling override (`BELENOS_SAMPLING` / `--sampling`).
    pub sampling: Option<SamplingConfig>,
    /// Backend override (`BELENOS_MODEL` / `--model`).
    pub model: Option<ModelKind>,
    /// Human-readable notes about ignored/unparsable variables; callers
    /// print these to stderr.
    pub warnings: Vec<String>,
}

impl EnvOverrides {
    /// No overrides at all (specs and defaults pass through untouched).
    pub fn none() -> Self {
        EnvOverrides::default()
    }

    /// Captures `BELENOS_MAX_OPS`, `BELENOS_SAMPLING` and
    /// `BELENOS_MODEL`. Unset variables stay `None`; unparsable ones
    /// stay `None` and add a warning.
    pub fn from_env() -> Self {
        let mut o = EnvOverrides::default();
        if let Ok(v) = std::env::var("BELENOS_MAX_OPS") {
            match v.trim().parse::<usize>() {
                Ok(n) => o.max_ops = Some(n),
                Err(_) => o
                    .warnings
                    .push(format!("BELENOS_MAX_OPS={v} not understood; ignored")),
            }
        }
        if let Ok(v) = std::env::var("BELENOS_SAMPLING") {
            match parse_sampling(&v) {
                Ok(s) => o.sampling = Some(s),
                Err(e) => o.warnings.push(format!("BELENOS_SAMPLING: {e}; ignored")),
            }
        }
        if let Ok(v) = std::env::var("BELENOS_MODEL") {
            match ModelKind::parse(&v) {
                Some(m) => o.model = Some(m),
                None => o
                    .warnings
                    .push(format!("BELENOS_MODEL={v} not understood; ignored")),
            }
        }
        o
    }

    /// Layers `over` on top of `self`: any override `over` carries wins,
    /// anything it leaves unset falls through. The CLI merges
    /// `EnvOverrides::from_env()` with the flag-derived overrides this
    /// way, giving the `defaults < environment < flags` precedence.
    pub fn merged(&self, over: &EnvOverrides) -> EnvOverrides {
        EnvOverrides {
            max_ops: over.max_ops.or(self.max_ops),
            sampling: over.sampling.clone().or_else(|| self.sampling.clone()),
            model: over.model.or(self.model),
            warnings: self
                .warnings
                .iter()
                .chain(over.warnings.iter())
                .cloned()
                .collect(),
        }
    }

    /// Applies the simulation overrides onto `base`.
    pub fn apply(&self, mut base: SimOptions) -> SimOptions {
        if let Some(n) = self.max_ops {
            base.max_ops = n;
        }
        if let Some(s) = &self.sampling {
            base.sampling = s.clone();
        }
        if let Some(m) = self.model {
            base.model = m;
        }
        base
    }

    /// The full campaign options the bench commands run under: the
    /// historical defaults ([`DEFAULT_MAX_OPS`] budget, sampling off,
    /// `o3`) with the overrides applied.
    pub fn options(&self) -> SimOptions {
        self.apply(SimOptions::new(DEFAULT_MAX_OPS))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sampling_values_parse() {
        assert!(parse_sampling("off").unwrap().is_off());
        assert!(parse_sampling("").unwrap().is_off());
        assert!(parse_sampling("0").unwrap().is_off());
        assert_eq!(
            parse_sampling("on").unwrap().intervals,
            DEFAULT_SAMPLING_INTERVALS
        );
        assert_eq!(parse_sampling(" 16 ").unwrap().intervals, 16);
        assert!(parse_sampling("sometimes").is_err());
    }

    #[test]
    fn overrides_apply_on_top_of_base() {
        let o = EnvOverrides {
            max_ops: Some(5000),
            model: Some(ModelKind::Analytic),
            ..EnvOverrides::default()
        };
        let opts = o.apply(SimOptions::new(100).with_sampling(SamplingConfig::smarts(4)));
        assert_eq!(opts.max_ops, 5000);
        assert_eq!(opts.model, ModelKind::Analytic);
        // Untouched field passes through.
        assert_eq!(opts.sampling, SamplingConfig::smarts(4));
    }

    #[test]
    fn default_options_match_the_historical_bench_defaults() {
        let opts = EnvOverrides::none().options();
        assert_eq!(opts.max_ops, DEFAULT_MAX_OPS);
        assert!(opts.sampling.is_off());
        assert_eq!(opts.model, ModelKind::O3);
    }
}
