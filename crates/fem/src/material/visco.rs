//! Quasi-linear viscoelasticity with a Prony series — the `ma26–ma31`
//! (reactive viscoelastic) workload family.

use super::{apply_tangent, isotropic_tangent, Material, Tangent, Voigt};
use belenos_trace::MaterialClass;

/// One Maxwell branch of the Prony series.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PronyTerm {
    /// Relative modulus of the branch (dimensionless).
    pub g: f64,
    /// Relaxation time.
    pub tau: f64,
}

/// Prony-series viscoelastic solid over an isotropic elastic backbone.
///
/// History per Gauss point: 6 stress components per branch plus the
/// previous elastic stress (6), i.e. `6 * (terms + 1)` doubles — the state
/// traffic that makes this family the paper's most backend-bound.
#[derive(Debug, Clone)]
pub struct Viscoelastic {
    d: Tangent,
    g_inf: f64,
    terms: Vec<PronyTerm>,
}

impl Viscoelastic {
    /// Elastic backbone (E, ν) with Prony branches `terms`; the long-term
    /// relative modulus is `1 - Σ g_i` and must stay positive.
    ///
    /// # Panics
    ///
    /// Panics if `Σ g_i >= 1`, any `g_i < 0`, or any `tau <= 0`.
    pub fn new(e: f64, nu: f64, terms: Vec<PronyTerm>) -> Self {
        let gsum: f64 = terms.iter().map(|t| t.g).sum();
        assert!(gsum < 1.0, "prony moduli must sum below 1 (got {gsum})");
        for t in &terms {
            assert!(t.g >= 0.0 && t.tau > 0.0, "invalid prony term {t:?}");
        }
        Viscoelastic {
            d: isotropic_tangent(e, nu),
            g_inf: 1.0 - gsum,
            terms,
        }
    }

    fn elastic_stress(&self, eps: &Voigt) -> Voigt {
        apply_tangent(&self.d, eps)
    }
}

impl Material for Viscoelastic {
    fn name(&self) -> &'static str {
        "prony viscoelastic"
    }

    fn class(&self) -> MaterialClass {
        MaterialClass::Viscoelastic
    }

    fn state_size(&self) -> usize {
        6 * (self.terms.len() + 1)
    }

    fn stress(&self, eps: &Voigt, old: &[f64], new: &mut [f64], dt: f64, _t: f64) -> Voigt {
        let se = self.elastic_stress(eps);
        let se_old: &[f64] = &old[0..6];
        let mut sigma = [0.0; 6];
        for i in 0..6 {
            sigma[i] = self.g_inf * se[i];
            new[i] = se[i];
        }
        for (k, term) in self.terms.iter().enumerate() {
            let off = 6 * (k + 1);
            let x = dt / term.tau;
            // Exponential (Herrmann-Peterson) recurrence, stable for any dt.
            let e = (-x).exp();
            let h = if x > 1e-8 {
                (1.0 - e) / x
            } else {
                1.0 - 0.5 * x
            };
            for i in 0..6 {
                let q_old = old[off + i];
                let q = e * q_old + term.g * h * (se[i] - se_old[i]);
                new[off + i] = q;
                sigma[i] += q;
            }
        }
        sigma
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn material() -> Viscoelastic {
        Viscoelastic::new(
            1000.0,
            0.3,
            vec![
                PronyTerm { g: 0.3, tau: 1.0 },
                PronyTerm { g: 0.2, tau: 10.0 },
            ],
        )
    }

    #[test]
    fn instantaneous_response_is_fully_elastic() {
        // Step strain at t=0 with dt→0: stress ≈ full elastic stress.
        let m = material();
        let eps: Voigt = [0.01, 0.0, 0.0, 0.0, 0.0, 0.0];
        let old = vec![0.0; m.state_size()];
        let mut new = vec![0.0; m.state_size()];
        let s = m.stress(&eps, &old, &mut new, 1e-9, 0.0);
        let le = super::super::LinearElastic::new(1000.0, 0.3);
        let se = le.stress(&eps, &[], &mut [], 1.0, 0.0);
        assert!(
            (s[0] - se[0]).abs() < 1e-3 * se[0].abs(),
            "{} vs {}",
            s[0],
            se[0]
        );
    }

    #[test]
    fn stress_relaxes_toward_long_term_modulus() {
        // Hold strain fixed and step time: stress decays to g_inf * elastic.
        let m = material();
        let eps: Voigt = [0.01, 0.0, 0.0, 0.0, 0.0, 0.0];
        let mut old = vec![0.0; m.state_size()];
        let mut new = vec![0.0; m.state_size()];
        // Apply the step with a small dt (captures instantaneous response).
        let s0 = m.stress(&eps, &old, &mut new, 1e-6, 0.0);
        old.copy_from_slice(&new);
        let mut last = s0;
        for step in 1..2000 {
            last = m.stress(&eps, &old, &mut new, 0.1, step as f64 * 0.1);
            old.copy_from_slice(&new);
        }
        let le = super::super::LinearElastic::new(1000.0, 0.3);
        let se = le.stress(&eps, &[], &mut [], 1.0, 0.0);
        let target = 0.5 * se[0]; // g_inf = 1 - 0.3 - 0.2
        assert!(
            (last[0] - target).abs() < 0.02 * se[0].abs(),
            "relaxed to {} expected {}",
            last[0],
            target
        );
        assert!(last[0] < s0[0], "no relaxation happened");
    }

    #[test]
    fn state_size_scales_with_terms() {
        assert_eq!(material().state_size(), 18);
        let one = Viscoelastic::new(10.0, 0.2, vec![PronyTerm { g: 0.5, tau: 2.0 }]);
        assert_eq!(one.state_size(), 12);
    }

    #[test]
    fn class_and_spin() {
        let m = material();
        assert_eq!(m.class(), MaterialClass::Viscoelastic);
        assert!(m.spin_imbalance() > 3.0);
    }

    #[test]
    #[should_panic(expected = "sum below 1")]
    fn overfull_prony_rejected() {
        let _ = Viscoelastic::new(1.0, 0.3, vec![PronyTerm { g: 1.5, tau: 1.0 }]);
    }

    #[test]
    fn numeric_tangent_positive_definite_diagonal() {
        let m = material();
        let eps: Voigt = [0.005, 0.0, 0.0, 0.002, 0.0, 0.0];
        let old = vec![0.0; m.state_size()];
        let d = m.tangent(&eps, &old, 0.1, 0.0);
        for (i, row) in d.iter().enumerate() {
            assert!(row[i] > 0.0, "diagonal ({i},{i}) = {}", row[i]);
        }
    }
}
