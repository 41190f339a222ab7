//! Domain-specific models: active muscle, volumetric growth (tumor),
//! prestrain, and multigeneration materials — one per remaining FEBio
//! test-suite category.

use super::{apply_tangent, isotropic_tangent, FiberExponential, Material, Tangent, Voigt};
use belenos_trace::MaterialClass;

/// Passive fiber-reinforced matrix plus time-ramped active contraction
/// stress along the fiber (the `mu` muscle workload family).
#[derive(Debug)]
pub struct ActiveMuscle {
    passive: FiberExponential,
    a: [f64; 3],
    /// Peak active stress.
    t0: f64,
    /// Activation ramp time (activation = min(t / ramp, 1)).
    ramp: f64,
}

impl ActiveMuscle {
    /// Passive properties as in [`FiberExponential::new`], plus peak active
    /// stress `t0` reached after `ramp` time units.
    ///
    /// # Panics
    ///
    /// Panics if `ramp <= 0` or `t0 < 0` (and on invalid passive inputs).
    pub fn new(e: f64, nu: f64, dir: [f64; 3], k1: f64, k2: f64, t0: f64, ramp: f64) -> Self {
        assert!(ramp > 0.0 && t0 >= 0.0, "invalid activation parameters");
        let norm = (dir[0] * dir[0] + dir[1] * dir[1] + dir[2] * dir[2]).sqrt();
        ActiveMuscle {
            passive: FiberExponential::new(e, nu, dir, k1, k2),
            a: [dir[0] / norm, dir[1] / norm, dir[2] / norm],
            t0,
            ramp,
        }
    }

    /// Activation level at time `t`.
    pub fn activation(&self, t: f64) -> f64 {
        (t / self.ramp).clamp(0.0, 1.0)
    }
}

impl Material for ActiveMuscle {
    fn name(&self) -> &'static str {
        "active muscle"
    }

    fn class(&self) -> MaterialClass {
        MaterialClass::ActiveMuscle
    }

    fn stress(&self, eps: &Voigt, old: &[f64], new: &mut [f64], dt: f64, t: f64) -> Voigt {
        let mut s = self.passive.stress(eps, old, new, dt, t);
        let act = self.activation(t) * self.t0;
        let a = self.a;
        s[0] += act * a[0] * a[0];
        s[1] += act * a[1] * a[1];
        s[2] += act * a[2] * a[2];
        s[3] += act * a[0] * a[1];
        s[4] += act * a[1] * a[2];
        s[5] += act * a[0] * a[2];
        s
    }
}

/// Isotropic elasticity with a time-growing volumetric eigenstrain — the
/// `tu` tumor-growth family.
#[derive(Debug, Clone)]
pub struct GrowthElastic {
    d: Tangent,
    /// Volumetric growth rate (strain per unit time, per axis).
    rate: f64,
}

impl GrowthElastic {
    /// Elastic backbone (E, ν) growing isotropically at `rate`.
    ///
    /// # Panics
    ///
    /// Panics if `rate < 0`.
    pub fn new(e: f64, nu: f64, rate: f64) -> Self {
        assert!(rate >= 0.0, "growth rate must be non-negative");
        GrowthElastic {
            d: isotropic_tangent(e, nu),
            rate,
        }
    }
}

impl Material for GrowthElastic {
    fn name(&self) -> &'static str {
        "volumetric growth"
    }

    fn class(&self) -> MaterialClass {
        MaterialClass::Growth
    }

    fn stress(&self, eps: &Voigt, _old: &[f64], _new: &mut [f64], _dt: f64, t: f64) -> Voigt {
        let g = self.rate * t;
        let eff: Voigt = [eps[0] - g, eps[1] - g, eps[2] - g, eps[3], eps[4], eps[5]];
        apply_tangent(&self.d, &eff)
    }
}

/// Isotropic elasticity referenced to a prestrained configuration — the
/// `ps` prestrain family.
#[derive(Debug, Clone)]
pub struct PrestrainElastic {
    d: Tangent,
    eps0: Voigt,
}

impl PrestrainElastic {
    /// Elastic backbone (E, ν) with built-in strain offset `eps0`.
    pub fn new(e: f64, nu: f64, eps0: Voigt) -> Self {
        PrestrainElastic {
            d: isotropic_tangent(e, nu),
            eps0,
        }
    }
}

impl Material for PrestrainElastic {
    fn name(&self) -> &'static str {
        "prestrain elastic"
    }

    fn class(&self) -> MaterialClass {
        MaterialClass::Hyperelastic
    }

    fn stress(&self, eps: &Voigt, _old: &[f64], _new: &mut [f64], _dt: f64, _t: f64) -> Voigt {
        let mut eff = [0.0; 6];
        for i in 0..6 {
            eff[i] = eps[i] + self.eps0[i];
        }
        apply_tangent(&self.d, &eff)
    }
}

/// Multigenerational elasticity: new stiffness generations activate over
/// time (each bonded stress-free at birth) — the `mg` family.
#[derive(Debug, Clone)]
pub struct Multigeneration {
    /// `(birth time, stiffness matrix)` per generation, ordered by birth.
    generations: Vec<(f64, Tangent)>,
}

impl Multigeneration {
    /// Builds from `(birth_time, e, nu)` triples.
    ///
    /// # Panics
    ///
    /// Panics if empty or the first generation is not born at `t <= 0`.
    pub fn new(gens: &[(f64, f64, f64)]) -> Self {
        assert!(!gens.is_empty(), "at least one generation required");
        assert!(
            gens[0].0 <= 0.0,
            "first generation must exist from the start"
        );
        Multigeneration {
            generations: gens
                .iter()
                .map(|&(t, e, nu)| (t, isotropic_tangent(e, nu)))
                .collect(),
        }
    }
}

impl Material for Multigeneration {
    fn name(&self) -> &'static str {
        "multigeneration elastic"
    }

    fn class(&self) -> MaterialClass {
        MaterialClass::Hyperelastic
    }

    /// State: strain at each generation's birth (6 per generation).
    fn state_size(&self) -> usize {
        6 * self.generations.len()
    }

    fn stress(&self, eps: &Voigt, old: &[f64], new: &mut [f64], _dt: f64, t: f64) -> Voigt {
        let mut sigma = [0.0; 6];
        for (k, (birth, d)) in self.generations.iter().enumerate() {
            let off = 6 * k;
            if *birth > t {
                // Unborn generation: remember nothing, contribute nothing.
                new[off..off + 6].copy_from_slice(&old[off..off + 6]);
                continue;
            }
            // A generation just born records the current strain as its
            // reference; detect via a sentinel of all-zeros on old state at
            // positive birth time (generation 0 references zero strain).
            let mut ref_strain = [0.0; 6];
            let born_before = old[off..off + 6].iter().any(|&v| v != 0.0) || *birth <= 0.0;
            if born_before {
                ref_strain.copy_from_slice(&old[off..off + 6]);
                new[off..off + 6].copy_from_slice(&old[off..off + 6]);
            } else {
                ref_strain.copy_from_slice(eps);
                new[off..off + 6].copy_from_slice(eps);
            }
            let mut rel = [0.0; 6];
            for i in 0..6 {
                rel[i] = eps[i] - ref_strain[i];
            }
            let s = apply_tangent(d, &rel);
            for i in 0..6 {
                sigma[i] += s[i];
            }
        }
        sigma
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn muscle_activation_ramps() {
        let m = ActiveMuscle::new(100.0, 0.3, [1.0, 0.0, 0.0], 10.0, 1.0, 50.0, 2.0);
        assert_eq!(m.activation(0.0), 0.0);
        assert_eq!(m.activation(1.0), 0.5);
        assert_eq!(m.activation(5.0), 1.0);
        let eps: Voigt = [0.0; 6];
        let s0 = m.stress(&eps, &[], &mut [], 0.1, 0.0);
        let s1 = m.stress(&eps, &[], &mut [], 0.1, 2.0);
        assert_eq!(s0[0], 0.0);
        assert!(
            (s1[0] - 50.0).abs() < 1e-12,
            "active stress at full activation"
        );
    }

    #[test]
    fn growth_produces_stress_when_confined() {
        // Fully confined (zero strain) growing material develops pressure.
        let m = GrowthElastic::new(1000.0, 0.3, 0.01);
        let eps: Voigt = [0.0; 6];
        let s0 = m.stress(&eps, &[], &mut [], 1.0, 0.0);
        let s1 = m.stress(&eps, &[], &mut [], 1.0, 1.0);
        assert_eq!(s0[0], 0.0);
        assert!(
            s1[0] < 0.0,
            "confined growth must be compressive, got {}",
            s1[0]
        );
    }

    #[test]
    fn growth_stress_free_when_following() {
        // Strain matching the eigenstrain is stress-free.
        let m = GrowthElastic::new(1000.0, 0.3, 0.01);
        let t = 2.0;
        let g = 0.01 * t;
        let eps: Voigt = [g, g, g, 0.0, 0.0, 0.0];
        let s = m.stress(&eps, &[], &mut [], 1.0, t);
        for v in s {
            assert!(v.abs() < 1e-12);
        }
    }

    #[test]
    fn prestrain_shifts_the_stress_free_state() {
        let pre: Voigt = [0.01, 0.0, 0.0, 0.0, 0.0, 0.0];
        let m = PrestrainElastic::new(1000.0, 0.0, pre);
        let s_at_zero = m.stress(&[0.0; 6], &[], &mut [], 1.0, 0.0);
        assert!(s_at_zero[0] > 0.0, "prestress missing");
        let relax: Voigt = [-0.01, 0.0, 0.0, 0.0, 0.0, 0.0];
        let s_relaxed = m.stress(&relax, &[], &mut [], 1.0, 0.0);
        assert!(s_relaxed[0].abs() < 1e-10);
    }

    #[test]
    fn multigeneration_counts_active() {
        let m = Multigeneration::new(&[(0.0, 100.0, 0.3), (1.0, 50.0, 0.3)]);
        assert_eq!(m.state_size(), 12);
    }

    #[test]
    fn late_generation_is_stress_free_at_birth() {
        let m = Multigeneration::new(&[(0.0, 100.0, 0.0), (1.0, 100.0, 0.0)]);
        let eps: Voigt = [0.02, 0.0, 0.0, 0.0, 0.0, 0.0];
        let old = vec![0.0; 12];
        let mut new = vec![0.0; 12];
        // At t = 2 the second generation was just born at strain eps: only
        // generation 0 should carry stress.
        let s = m.stress(&eps, &old, &mut new, 1.0, 2.0);
        let single = Multigeneration::new(&[(0.0, 100.0, 0.0)]);
        let mut scratch = vec![0.0; 6];
        let s_single = single.stress(&eps, &[0.0; 6], &mut scratch, 1.0, 2.0);
        assert!((s[0] - s_single[0]).abs() < 1e-12);
        // Further straining loads both generations.
        let eps2: Voigt = [0.04, 0.0, 0.0, 0.0, 0.0, 0.0];
        let old2 = new.clone();
        let mut new2 = vec![0.0; 12];
        let s2 = m.stress(&eps2, &old2, &mut new2, 1.0, 3.0);
        assert!(
            s2[0] > 1.4 * s_single[0] * 2.0 * 0.5,
            "second generation inactive"
        );
    }

    #[test]
    #[should_panic(expected = "first generation")]
    fn multigeneration_requires_initial_generation() {
        let _ = Multigeneration::new(&[(1.0, 10.0, 0.3)]);
    }
}
