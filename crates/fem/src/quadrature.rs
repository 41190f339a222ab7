//! Gauss quadrature rules for the supported element topologies.

use crate::mesh::ElementKind;

/// A quadrature point: parametric coordinates and weight.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GaussPoint {
    /// Parametric coordinates (ξ, η, ζ).
    pub xi: [f64; 3],
    /// Integration weight.
    pub w: f64,
}

/// Returns the standard rule for an element kind: 2x2x2 Gauss for Hex8,
/// 4-point rule for Tet4.
pub fn rule_for(kind: ElementKind) -> Vec<GaussPoint> {
    match kind {
        ElementKind::Hex8 => hex8_2x2x2(),
        ElementKind::Tet4 => tet4_4pt(),
    }
}

/// 2x2x2 Gauss-Legendre rule on the [-1, 1]³ hex.
pub fn hex8_2x2x2() -> Vec<GaussPoint> {
    let g = 1.0 / 3.0_f64.sqrt();
    let mut pts = Vec::with_capacity(8);
    for &z in &[-g, g] {
        for &y in &[-g, g] {
            for &x in &[-g, g] {
                pts.push(GaussPoint {
                    xi: [x, y, z],
                    w: 1.0,
                });
            }
        }
    }
    pts
}

/// 4-point rule on the reference tetrahedron (degree-2 exact).
pub fn tet4_4pt() -> Vec<GaussPoint> {
    let a = (5.0 + 3.0 * 5.0_f64.sqrt()) / 20.0;
    let b = (5.0 - 5.0_f64.sqrt()) / 20.0;
    let w = 1.0 / 24.0; // reference tet volume is 1/6; 4 x 1/24 = 1/6
    vec![
        GaussPoint { xi: [a, b, b], w },
        GaussPoint { xi: [b, a, b], w },
        GaussPoint { xi: [b, b, a], w },
        GaussPoint { xi: [b, b, b], w },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hex_rule_integrates_volume() {
        // Reference hex volume = 8.
        let total: f64 = hex8_2x2x2().iter().map(|p| p.w).sum();
        assert!((total - 8.0).abs() < 1e-14);
    }

    #[test]
    fn hex_rule_integrates_quadratics_exactly() {
        // ∫ x² over [-1,1]³ = 8/3.
        let sum: f64 = hex8_2x2x2().iter().map(|p| p.w * p.xi[0] * p.xi[0]).sum();
        assert!((sum - 8.0 / 3.0).abs() < 1e-13);
        // Odd moments vanish.
        let odd: f64 = hex8_2x2x2().iter().map(|p| p.w * p.xi[1]).sum();
        assert!(odd.abs() < 1e-14);
    }

    #[test]
    fn tet_rule_integrates_volume() {
        let total: f64 = tet4_4pt().iter().map(|p| p.w).sum();
        assert!((total - 1.0 / 6.0).abs() < 1e-14);
    }

    #[test]
    fn tet_rule_integrates_linears_exactly() {
        // ∫ x over the reference tet = 1/24.
        let sum: f64 = tet4_4pt().iter().map(|p| p.w * p.xi[0]).sum();
        assert!((sum - 1.0 / 24.0).abs() < 1e-14);
    }

    #[test]
    fn rule_for_dispatch() {
        assert_eq!(rule_for(ElementKind::Hex8).len(), 8);
        assert_eq!(rule_for(ElementKind::Tet4).len(), 4);
    }
}
