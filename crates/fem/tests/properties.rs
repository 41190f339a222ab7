//! Property-based tests over finite-element invariants.

use belenos_fem::element::{geometry, strain_at, SolidKernel};
use belenos_fem::material::{LinearElastic, Material};
use belenos_fem::mesh::{ElementKind, Mesh};
use belenos_fem::shape::eval;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn shape_functions_partition_unity(
        x in -0.99f64..0.99, y in -0.99f64..0.99, z in -0.99f64..0.99
    ) {
        let s = eval(ElementKind::Hex8, [x, y, z]);
        let sum: f64 = s.n.iter().sum();
        prop_assert!((sum - 1.0).abs() < 1e-12);
        for d in 0..3 {
            let g: f64 = s.dn.iter().map(|dn| dn[d]).sum();
            prop_assert!(g.abs() < 1e-12);
        }
    }

    #[test]
    fn linear_displacement_fields_give_exact_strain(
        a in -0.05f64..0.05, b in -0.05f64..0.05, c in -0.05f64..0.05,
        xi in -0.9f64..0.9, eta in -0.9f64..0.9, zeta in -0.9f64..0.9
    ) {
        // u = (a x, b y, c z) -> ε = diag(a, b, c) exactly, anywhere.
        let mesh = Mesh::box_hex(1, 1, 1, 1.0, 1.0, 1.0);
        let coords: Vec<[f64; 3]> =
            mesh.element(0).iter().map(|&n| mesh.coords()[n as usize]).collect();
        let shape = eval(ElementKind::Hex8, [xi, eta, zeta]);
        let geom = geometry(&coords, &shape, 0).unwrap();
        let u: Vec<f64> = coords.iter().flat_map(|p| [a * p[0], b * p[1], c * p[2]]).collect();
        let e = strain_at(&geom, &u);
        prop_assert!((e[0] - a).abs() < 1e-12);
        prop_assert!((e[1] - b).abs() < 1e-12);
        prop_assert!((e[2] - c).abs() < 1e-12);
        prop_assert!(e[3].abs() + e[4].abs() + e[5].abs() < 1e-12);
    }

    #[test]
    fn element_stiffness_annihilates_rigid_motion(
        tx in -1.0f64..1.0, ty in -1.0f64..1.0, tz in -1.0f64..1.0,
        e_mod in 100.0f64..10000.0, nu in 0.0f64..0.45
    ) {
        let mat = LinearElastic::new(e_mod, nu);
        let kern = SolidKernel::new(ElementKind::Hex8);
        let mesh = Mesh::box_hex(1, 1, 1, 1.0, 1.0, 1.0);
        let coords: Vec<[f64; 3]> =
            mesh.element(0).iter().map(|&n| mesh.coords()[n as usize]).collect();
        let mut k = vec![0.0; 24 * 24];
        kern.stiffness_into(0, &coords, &[0.0; 24], &mat, &[], 1.0, 0.0, &mut k)
            .unwrap();
        let t: Vec<f64> = (0..8).flat_map(|_| [tx, ty, tz]).collect();
        let scale = e_mod; // tolerance relative to stiffness magnitude
        for i in 0..24 {
            let f: f64 = (0..24).map(|j| k[i * 24 + j] * t[j]).sum();
            prop_assert!(f.abs() < 1e-9 * scale, "rigid force {} at dof {}", f, i);
        }
    }

    #[test]
    fn stress_is_odd_for_linear_material(
        e1 in -0.02f64..0.02, e2 in -0.02f64..0.02, g in -0.02f64..0.02
    ) {
        let m = LinearElastic::new(1000.0, 0.3);
        let eps = [e1, e2, 0.0, g, 0.0, 0.0];
        let neg = [-e1, -e2, 0.0, -g, 0.0, 0.0];
        let s1 = m.stress(&eps, &[], &mut [], 1.0, 0.0);
        let s2 = m.stress(&neg, &[], &mut [], 1.0, 0.0);
        for i in 0..6 {
            prop_assert!((s1[i] + s2[i]).abs() < 1e-10);
        }
    }

    #[test]
    fn mesh_shuffle_preserves_element_volume(
        nx in 1usize..4, ny in 1usize..4, nz in 1usize..4, seed in 0u64..1000
    ) {
        let mut mesh = Mesh::box_hex(nx, ny, nz, 1.0, 1.0, 1.0);
        let kern = SolidKernel::new(ElementKind::Hex8);
        let volume_of = |mesh: &Mesh| -> f64 {
            let mut vol = 0.0;
            for e in 0..mesh.num_elems() {
                let coords: Vec<[f64; 3]> =
                    mesh.element(e).iter().map(|&n| mesh.coords()[n as usize]).collect();
                let shape = eval(ElementKind::Hex8, [0.0; 3]);
                vol += 8.0 * geometry(&coords, &shape, e).unwrap().detj;
            }
            vol
        };
        let _ = &kern;
        let before = volume_of(&mesh);
        mesh.shuffle_nodes(seed);
        let after = volume_of(&mesh);
        prop_assert!((before - after).abs() < 1e-9);
        prop_assert!((before - 1.0).abs() < 1e-9, "unit box volume");
    }
}
