//! JSON representations of the campaign-facing configuration types.
//!
//! The typed campaign API (`belenos::campaign`) serializes its specs
//! through these impls, and the same types feed
//! [`CoreConfig::stable_digest`](crate::CoreConfig::stable_digest) /
//! [`SamplingConfig::stable_digest`](crate::SamplingConfig::stable_digest)
//! cache keys — one source of truth for both worlds.
//!
//! Spellings are chosen for hand-written specs:
//!
//! * [`ModelKind`] — a backend label string (`"o3"`, `"inorder"`,
//!   `"analytic"`; anything [`ModelKind::parse`] accepts).
//! * [`SamplingConfig`] — what [`SamplingConfig::parse`] accepts, as a
//!   string or a number (`"off"`, `"on"`, `128` ≡ SMARTS sampling with
//!   the standard 25% per-window warmup), or the explicit
//!   `{"intervals": N, "warmup_frac": F}` object of its listing, read
//!   over `on`. A literal `0` interval count is rejected as ambiguous:
//!   write `"off"`.
//! * [`BranchPredictorKind`] — the paper's predictor label
//!   (case-insensitive; `"LTAGE"`, `"TournamentBP"`, ...).
//! * [`CacheConfig`](crate::config::CacheConfig) / [`CoreConfig`] —
//!   fully explicit objects, every field of their one listing in
//!   `config.rs` spelled out. These feed the distributed job board
//!   (`belenos-dist`): a worker on another host reconstructs the exact
//!   machine configuration from the job document, and the round-trip
//!   must preserve [`CoreConfig::stable_digest`] bit-for-bit or the
//!   shared result cache would never converge.

use crate::config::{BranchPredictorKind, CoreConfig, SamplingConfig, DEFAULT_SAMPLING_INTERVALS};
use crate::model::ModelKind;
use belenos_json::schema::{self, Leaf};
use belenos_json::{FromJson, Json, JsonError, ToJson};

impl ToJson for ModelKind {
    fn to_json(&self) -> Json {
        Json::Str(self.label().to_string())
    }
}

impl FromJson for ModelKind {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        let s = v
            .as_str()
            .ok_or_else(|| JsonError::new("expected a backend name string"))?;
        ModelKind::parse(s).ok_or_else(|| {
            JsonError::new(format!(
                "unknown backend `{s}` (expected o3, inorder or analytic)"
            ))
        })
    }
}

impl ToJson for SamplingConfig {
    fn to_json(&self) -> Json {
        if self.is_off() {
            Json::Str("off".to_string())
        } else if *self == SamplingConfig::smarts(self.intervals) {
            Json::Num(self.intervals as f64)
        } else {
            schema::write(self)
        }
    }
}

impl FromJson for SamplingConfig {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        let sampling = match v {
            Json::Str(s) => SamplingConfig::parse(s),
            Json::Num(_) => match v.as_usize() {
                Some(n) => SamplingConfig::parse(&n.to_string()),
                None => Err("interval count must be a non-negative integer".to_string()),
            },
            Json::Obj(_) => {
                let on = SamplingConfig::smarts(DEFAULT_SAMPLING_INTERVALS);
                let s = schema::read(&on, v, "sampling")?;
                if s.intervals == 0 {
                    Err(crate::config::ZERO_INTERVALS.to_string())
                } else if !(0.0..1.0).contains(&s.warmup_frac) {
                    Err("sampling.warmup_frac: must be in [0, 1)".to_string())
                } else {
                    Ok(s)
                }
            }
            _ => Err("expected \"off\", \"on\", an interval count or an object".to_string()),
        };
        sampling.map_err(JsonError::new)
    }
}

/// A sampling strategy hashes as its explicit form, whatever its spelling.
impl Leaf for SamplingConfig {
    fn feed(&self, sink: &mut dyn FnMut(&[u8])) {
        schema::feed(self, sink);
    }
}

impl ToJson for BranchPredictorKind {
    fn to_json(&self) -> Json {
        Json::Str(self.label().to_string())
    }
}

impl FromJson for BranchPredictorKind {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        let s = v
            .as_str()
            .ok_or_else(|| JsonError::new("expected a predictor name string"))?;
        BranchPredictorKind::parse(s).ok_or_else(|| {
            JsonError::new(format!(
                "unknown predictor `{s}` (expected LocalBP, TournamentBP, LTAGE or \
                 MultiperspectivePerceptron64KB)"
            ))
        })
    }
}

/// Both enums hash as their label, the way they are spelled in JSON.
impl Leaf for ModelKind {
    fn feed(&self, sink: &mut dyn FnMut(&[u8])) {
        schema::feed_str(self.label(), sink);
    }
}

impl Leaf for BranchPredictorKind {
    fn feed(&self, sink: &mut dyn FnMut(&[u8])) {
        schema::feed_str(self.label(), sink);
    }
}

/// The wire form is fully explicit: every field of the listing in
/// `config.rs` must be present (`ToJson` comes from the same listing).
impl FromJson for CoreConfig {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        schema::read_exact(&CoreConfig::gem5_baseline(), v, "config")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn model_kind_roundtrips() {
        for kind in ModelKind::ALL {
            assert_eq!(ModelKind::from_json(&kind.to_json()).unwrap(), kind);
        }
        assert!(ModelKind::from_json(&Json::Str("vliw".into())).is_err());
        assert!(ModelKind::from_json(&Json::Num(3.0)).is_err());
    }

    #[test]
    fn sampling_roundtrips() {
        for s in [
            SamplingConfig::off(),
            SamplingConfig::smarts(8),
            SamplingConfig::smarts(128),
            SamplingConfig {
                intervals: 16,
                warmup_frac: 0.5,
            },
        ] {
            assert_eq!(SamplingConfig::from_json(&s.to_json()).unwrap(), s);
        }
    }

    #[test]
    fn sampling_rejects_zero_intervals() {
        let e = SamplingConfig::from_json(&Json::Num(0.0)).unwrap_err();
        assert!(e.to_string().contains("ambiguous"), "{e}");
        let obj = Json::obj(vec![("intervals", Json::Num(0.0))]);
        assert!(SamplingConfig::from_json(&obj).is_err());
    }

    #[test]
    fn sampling_accepts_terse_forms() {
        assert!(SamplingConfig::from_json(&Json::Str("OFF".into()))
            .unwrap()
            .is_off());
        assert_eq!(
            SamplingConfig::from_json(&Json::Num(64.0)).unwrap(),
            SamplingConfig::smarts(64)
        );
        let on = SamplingConfig::smarts(DEFAULT_SAMPLING_INTERVALS);
        assert_eq!(
            SamplingConfig::from_json(&Json::Str("on".into())).unwrap(),
            on
        );
        // The object form reads over `on`.
        let half = Json::parse(r#"{"warmup_frac": 0.5}"#).unwrap();
        assert_eq!(
            SamplingConfig::from_json(&half).unwrap(),
            SamplingConfig {
                warmup_frac: 0.5,
                ..on
            }
        );
    }

    #[test]
    fn core_config_roundtrips_digest_exactly() {
        // The dist job board ships configs as JSON; the worker-side
        // round trip must preserve the cache-key digest bit-for-bit.
        let configs = [
            crate::CoreConfig::gem5_baseline(),
            crate::CoreConfig::host_like(),
            crate::CoreConfig::gem5_baseline()
                .with_frequency(3.2)
                .with_model(ModelKind::Analytic),
            crate::CoreConfig::gem5_baseline()
                .with_pipeline_width(2)
                .with_predictor(BranchPredictorKind::Perceptron),
        ];
        for c in configs {
            let wire = c.to_json().pretty();
            let back = crate::CoreConfig::from_json(&Json::parse(&wire).unwrap()).unwrap();
            assert_eq!(back, c);
            assert_eq!(back.stable_digest(), c.stable_digest());
        }
    }

    #[test]
    fn core_config_rejects_malformed_documents() {
        let good = crate::CoreConfig::gem5_baseline().to_json().pretty();
        // Unknown field.
        let with_extra = good.replacen("\"freq_ghz\"", "\"turbo\": 1, \"freq_ghz\"", 1);
        assert!(crate::CoreConfig::from_json(&Json::parse(&with_extra).unwrap()).is_err());
        // Missing field.
        let missing = good.replacen("\"rob_entries\": 224,", "", 1);
        assert!(crate::CoreConfig::from_json(&Json::parse(&missing).unwrap()).is_err());
        // Wrong fu_counts arity.
        let short_fu = Json::obj(vec![("fu_counts", Json::Arr(vec![Json::Num(1.0)]))]);
        assert!(crate::CoreConfig::from_json(&short_fu).is_err());
        // CacheConfig with a stray field, or not an object at all.
        let stray = good.replacen("\"assoc\"", "\"victim\": true, \"assoc\"", 1);
        let e = crate::CoreConfig::from_json(&Json::parse(&stray).unwrap()).unwrap_err();
        assert!(
            e.message.starts_with("config.l1i: unknown field `victim`"),
            "{e}"
        );
        let mut flat = crate::CoreConfig::gem5_baseline().to_json();
        if let Json::Obj(fields) = &mut flat {
            fields[18].1 = Json::Num(32768.0);
        }
        let e = crate::CoreConfig::from_json(&flat).unwrap_err();
        assert_eq!(e.message, "config.l1d: expected an object");
    }

    #[test]
    fn predictor_roundtrips_and_parses_case_insensitively() {
        for p in [
            BranchPredictorKind::Local,
            BranchPredictorKind::Tournament,
            BranchPredictorKind::Ltage,
            BranchPredictorKind::Perceptron,
        ] {
            assert_eq!(BranchPredictorKind::from_json(&p.to_json()).unwrap(), p);
        }
        assert_eq!(
            BranchPredictorKind::from_json(&Json::Str("ltage".into())).unwrap(),
            BranchPredictorKind::Ltage
        );
        assert!(BranchPredictorKind::from_json(&Json::Str("gshare".into())).is_err());
    }
}
