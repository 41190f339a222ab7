//! Constitutive models.
//!
//! Small-strain kinematics with *materially nonlinear* laws: this keeps the
//! element kernels honest (repeated Newton assembly, history-dependent
//! state at every Gauss point) while staying numerically robust across the
//! whole workload catalog. Stress and strain use Voigt notation:
//! `ε = [ε11, ε22, ε33, γ12, γ23, γ13]` (engineering shear),
//! `σ = [σ11, σ22, σ33, σ12, σ23, σ13]`.

mod hyper;
mod inelastic;
mod special;
mod visco;

pub use hyper::{FiberExponential, NeoHookeanSmall};
pub use inelastic::{DamageElastic, J2Plasticity};
pub use special::{ActiveMuscle, GrowthElastic, Multigeneration, PrestrainElastic};
pub use visco::{PronyTerm, Viscoelastic};

use belenos_trace::MaterialClass;
use std::fmt;

/// Strain/stress vector in Voigt notation.
pub type Voigt = [f64; 6];
/// 6x6 material tangent in Voigt notation.
pub type Tangent = [[f64; 6]; 6];

/// A constitutive model evaluated at material (Gauss) points.
///
/// `state_old` holds the converged history from the previous time step;
/// `state_new` receives the trial history for the current iterate and is
/// committed by the time stepper only after Newton convergence.
pub trait Material: fmt::Debug + Send + Sync {
    /// Human-readable model name.
    fn name(&self) -> &'static str;

    /// Workload-characterization class (drives trace expansion cost).
    fn class(&self) -> MaterialClass;

    /// Number of `f64` history variables per Gauss point.
    fn state_size(&self) -> usize {
        0
    }

    /// Initializes a fresh history slice (zeroed by default).
    fn init_state(&self, _state: &mut [f64]) {}

    /// Cauchy stress at strain `eps` and time `t` over step `dt`.
    fn stress(
        &self,
        eps: &Voigt,
        state_old: &[f64],
        state_new: &mut [f64],
        dt: f64,
        t: f64,
    ) -> Voigt;

    /// Consistent (or numerically differentiated) material tangent.
    ///
    /// The default central-difference implementation is exact for smooth
    /// laws up to O(h²) and is what several FEBio plugins do in practice.
    fn tangent(&self, eps: &Voigt, state_old: &[f64], dt: f64, t: f64) -> Tangent {
        numeric_tangent(
            |e, s| self.stress(e, state_old, s, dt, t),
            eps,
            self.state_size(),
        )
    }

    /// True when stress is linear in strain and history-free (lets the
    /// solver skip re-assembly).
    fn is_linear(&self) -> bool {
        false
    }

    /// Relative OpenMP spin-wait imbalance of this model's parallel
    /// constitutive loop (dimensionless; scales recorded barrier spins).
    /// Rate/history-heavy models have high per-point cost variance, which
    /// is what produces the PAUSE-dominated profiles the paper reports.
    fn spin_imbalance(&self) -> f64 {
        match self.class() {
            MaterialClass::Viscoelastic => 6.0,
            MaterialClass::Multiphasic => 3.0,
            MaterialClass::Biphasic => 2.0,
            MaterialClass::Damage | MaterialClass::Plasticity => 2.0,
            MaterialClass::FiberExponential => 1.5,
            _ => 1.0,
        }
    }
}

/// Isotropic linear elasticity (Hooke's law).
#[derive(Debug, Clone)]
pub struct LinearElastic {
    d: Tangent,
}

impl LinearElastic {
    /// From Young's modulus `e` and Poisson ratio `nu`.
    ///
    /// # Panics
    ///
    /// Panics if `e <= 0` or `nu` is outside `(-1, 0.5)`.
    pub fn new(e: f64, nu: f64) -> Self {
        assert!(e > 0.0, "young's modulus must be positive");
        assert!(nu > -1.0 && nu < 0.5, "poisson ratio must lie in (-1, 0.5)");
        LinearElastic {
            d: isotropic_tangent(e, nu),
        }
    }

    /// The (constant) stiffness matrix.
    pub fn d(&self) -> &Tangent {
        &self.d
    }
}

impl Material for LinearElastic {
    fn name(&self) -> &'static str {
        "linear elastic"
    }

    fn class(&self) -> MaterialClass {
        MaterialClass::LinearElastic
    }

    fn stress(&self, eps: &Voigt, _old: &[f64], _new: &mut [f64], _dt: f64, _t: f64) -> Voigt {
        apply_tangent(&self.d, eps)
    }

    fn tangent(&self, _eps: &Voigt, _old: &[f64], _dt: f64, _t: f64) -> Tangent {
        self.d
    }

    fn is_linear(&self) -> bool {
        true
    }
}

/// Builds the isotropic Voigt stiffness matrix from (E, ν).
pub fn isotropic_tangent(e: f64, nu: f64) -> Tangent {
    let lam = e * nu / ((1.0 + nu) * (1.0 - 2.0 * nu));
    let mu = e / (2.0 * (1.0 + nu));
    let mut d = [[0.0; 6]; 6];
    for i in 0..3 {
        for j in 0..3 {
            d[i][j] = lam;
        }
        d[i][i] = lam + 2.0 * mu;
        d[i + 3][i + 3] = mu;
    }
    d
}

/// `σ = D ε` for Voigt quantities.
pub fn apply_tangent(d: &Tangent, eps: &Voigt) -> Voigt {
    let mut s = [0.0; 6];
    for i in 0..6 {
        let mut acc = 0.0;
        for j in 0..6 {
            acc += d[i][j] * eps[j];
        }
        s[i] = acc;
    }
    s
}

/// Trace of a Voigt strain.
pub fn trace(eps: &Voigt) -> f64 {
    eps[0] + eps[1] + eps[2]
}

/// Deviatoric part of a Voigt strain (engineering shears preserved).
pub fn deviator(eps: &Voigt) -> Voigt {
    let m = trace(eps) / 3.0;
    [eps[0] - m, eps[1] - m, eps[2] - m, eps[3], eps[4], eps[5]]
}

/// Central-difference numeric tangent of an arbitrary stress law.
pub fn numeric_tangent<F>(stress: F, eps: &Voigt, state_size: usize) -> Tangent
where
    F: Fn(&Voigt, &mut [f64]) -> Voigt,
{
    let mut d = [[0.0; 6]; 6];
    // Throw-away history for the two perturbed evaluations: on the stack
    // for the usual handful of variables (this runs at every Gauss point
    // of every iteration), on the heap beyond that.
    const ON_STACK: usize = 32;
    let mut stack = [0.0; 2 * ON_STACK];
    let mut heap = Vec::new();
    let scratch = if state_size <= ON_STACK {
        &mut stack[..2 * state_size]
    } else {
        heap.resize(2 * state_size, 0.0);
        &mut heap[..]
    };
    let (scratch_p, scratch_m) = scratch.split_at_mut(state_size);
    for j in 0..6 {
        let h = 1e-7 * (1.0 + eps[j].abs());
        let mut ep = *eps;
        ep[j] += h;
        let mut em = *eps;
        em[j] -= h;
        let sp = stress(&ep, scratch_p);
        let sm = stress(&em, scratch_m);
        for i in 0..6 {
            d[i][j] = (sp[i] - sm[i]) / (2.0 * h);
        }
    }
    d
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn isotropic_tangent_uniaxial_response() {
        // Uniaxial stress state: σ11/ε11 with lateral strains free equals E.
        let e = 200e3;
        let nu = 0.3;
        let d = isotropic_tangent(e, nu);
        // Solve for lateral strain that zeroes σ22 = σ33: ε_lat = -ν ε11.
        let eps: Voigt = [1.0, -nu, -nu, 0.0, 0.0, 0.0];
        let s = apply_tangent(&d, &eps);
        assert!((s[0] - e).abs() < 1e-6 * e);
        assert!(s[1].abs() < 1e-6 * e);
        assert!(s[2].abs() < 1e-6 * e);
    }

    #[test]
    fn shear_modulus_recovered() {
        let e = 100.0;
        let nu = 0.25;
        let mu = e / (2.0 * (1.0 + nu));
        let d = isotropic_tangent(e, nu);
        let eps: Voigt = [0.0, 0.0, 0.0, 1.0, 0.0, 0.0]; // γ12 = 1
        let s = apply_tangent(&d, &eps);
        assert!((s[3] - mu).abs() < 1e-12);
    }

    #[test]
    fn linear_elastic_is_linear() {
        let m = LinearElastic::new(1000.0, 0.3);
        assert!(m.is_linear());
        assert_eq!(m.state_size(), 0);
        let eps: Voigt = [0.01, 0.0, 0.0, 0.0, 0.0, 0.0];
        let s1 = m.stress(&eps, &[], &mut [], 1.0, 0.0);
        let eps2: Voigt = [0.02, 0.0, 0.0, 0.0, 0.0, 0.0];
        let s2 = m.stress(&eps2, &[], &mut [], 1.0, 0.0);
        assert!((s2[0] - 2.0 * s1[0]).abs() < 1e-9);
    }

    #[test]
    fn numeric_tangent_matches_analytic_for_hooke() {
        let m = LinearElastic::new(5000.0, 0.2);
        let eps: Voigt = [0.01, -0.002, 0.003, 0.004, 0.0, -0.001];
        let dn = numeric_tangent(|e, s| m.stress(e, &[], s, 1.0, 0.0), &eps, 0);
        let da = m.tangent(&eps, &[], 1.0, 0.0);
        for i in 0..6 {
            for j in 0..6 {
                assert!((dn[i][j] - da[i][j]).abs() < 1e-2, "({i},{j})");
            }
        }
    }

    #[test]
    fn numeric_tangent_lends_zeroed_history_of_any_size() {
        // The scratch history is on the stack for small states and on the
        // heap for large ones; a law sees the same thing either way: two
        // separate, initially zeroed slices of the requested length.
        let m = LinearElastic::new(5000.0, 0.2);
        let eps: Voigt = [0.01, -0.002, 0.003, 0.004, 0.0, -0.001];
        let want = numeric_tangent(|e, s| m.stress(e, &[], s, 1.0, 0.0), &eps, 0);
        for size in [7, 32, 33, 100] {
            let calls = std::cell::Cell::new(0usize);
            let got = numeric_tangent(
                |e, s| {
                    assert_eq!(s.len(), size);
                    // First use of each slice finds zeros; later uses find
                    // what the previous call on that slice left.
                    let expect = if calls.get() < 2 { 0.0 } else { 1.0 };
                    assert!(s.iter().all(|&v| v == expect));
                    s.fill(1.0);
                    calls.set(calls.get() + 1);
                    m.stress(e, &[], &mut [], 1.0, 0.0)
                },
                &eps,
                size,
            );
            assert_eq!(calls.get(), 12);
            assert_eq!(got, want);
        }
    }

    #[test]
    fn deviator_is_traceless() {
        let eps: Voigt = [1.0, 2.0, 3.0, 0.5, 0.5, 0.5];
        let d = deviator(&eps);
        assert!(trace(&d).abs() < 1e-14);
        assert_eq!(d[3], 0.5);
    }

    #[test]
    #[should_panic(expected = "poisson")]
    fn invalid_poisson_rejected() {
        let _ = LinearElastic::new(100.0, 0.5);
    }

    #[test]
    fn spin_imbalance_defaults_by_class() {
        let le = LinearElastic::new(1.0, 0.0);
        assert_eq!(le.spin_imbalance(), 1.0);
    }
}
