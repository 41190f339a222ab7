//! Physics regression tests: the FE substrate must stay *numerically*
//! trustworthy, not just architecturally representative.

use belenos_fem::material::{LinearElastic, NeoHookeanSmall};
use belenos_fem::mesh::Mesh;
use belenos_fem::model::FeModel;
use belenos_trace::Fnv64;

#[test]
fn cantilever_deflection_scales_inversely_with_stiffness() {
    let deflect = |e: f64| -> f64 {
        let mesh = Mesh::box_hex(4, 2, 2, 2.0, 0.5, 0.5);
        let mut m = FeModel::solid(mesh, Box::new(LinearElastic::new(e, 0.3)));
        m.fix_face("x0");
        m.add_load("x1", 2, -1.0);
        let r = m.solve().expect("solves");
        let mesh = m.mesh();
        let set = mesh.node_set("x1").unwrap();
        set.iter()
            .map(|&n| r.solution[n as usize * 3 + 2])
            .sum::<f64>()
            / set.len() as f64
    };
    let soft = deflect(500.0);
    let stiff = deflect(2000.0);
    assert!(soft < 0.0 && stiff < 0.0, "load pushes tip down");
    let ratio = soft / stiff;
    assert!(
        (ratio - 4.0).abs() < 0.05,
        "linear elasticity: 4x stiffness = 1/4 deflection, got ratio {ratio}"
    );
}

#[test]
fn poisson_contraction_has_right_sign_and_magnitude() {
    let mesh = Mesh::box_hex(3, 3, 3, 1.0, 1.0, 1.0);
    let nu = 0.3;
    let mut m = FeModel::solid(mesh, Box::new(LinearElastic::new(1e3, nu)));
    // Uniaxial stretch with traction-free lateral faces.
    m.fix_face("z0");
    m.prescribe_face("z1", 2, 0.1);
    let r = m.solve().expect("solves");
    let mesh = m.mesh();
    // Lateral contraction at the free x face mid-height.
    let probe = mesh
        .node_set("x1")
        .unwrap()
        .iter()
        .copied()
        .find(|&n| {
            let c = mesh.coords()[n as usize];
            (c[2] - 0.6666).abs() < 0.05 && (c[1] - 0.6666).abs() < 0.05
        })
        .expect("probe node");
    let ux = r.solution[probe as usize * 3];
    // ε_lateral ≈ -ν ε_axial; displacement at x = 1 ≈ -ν * 0.1 (free-ish).
    assert!(ux < 0.0, "lateral contraction expected, got {ux}");
    assert!(
        (ux + nu * 0.1).abs() < 0.04,
        "lateral displacement {ux} should be near {}",
        -nu * 0.1
    );
}

#[test]
fn nonlinear_material_stiffens_the_structure() {
    let tip = |beta: f64| -> f64 {
        let mesh = Mesh::box_hex(3, 3, 3, 1.0, 1.0, 1.0);
        let mut m = FeModel::solid(mesh, Box::new(NeoHookeanSmall::from_young(1e3, 0.3, beta)));
        m.fix_face("z0");
        m.add_load("z1", 2, 4.0);
        m.set_newton(40, 1e-8);
        let r = m.solve().expect("solves");
        let mesh = m.mesh();
        let set = mesh.node_set("z1").unwrap();
        set.iter()
            .map(|&n| r.solution[n as usize * 3 + 2])
            .sum::<f64>()
            / set.len() as f64
    };
    let linearish = tip(0.0);
    let stiffening = tip(400.0);
    assert!(linearish > 0.0 && stiffening > 0.0);
    assert!(
        stiffening < linearish,
        "stiffening material must displace less: {stiffening} vs {linearish}"
    );
}

#[test]
fn energy_balance_linear_elastic() {
    // For linear elasticity with prescribed displacement only, the
    // residual at convergence must be orders below the internal forces.
    let mesh = Mesh::box_hex(3, 3, 3, 1.0, 1.0, 1.0);
    let mut m = FeModel::solid(mesh, Box::new(LinearElastic::new(1e4, 0.25)));
    m.fix_face("z0");
    m.prescribe_face("z1", 2, 0.05);
    m.set_strict(true);
    let r = m.solve().expect("solves");
    assert!(r.converged);
    assert!(r.final_residual < 1e-4, "residual {}", r.final_residual);
}

#[test]
fn tet_and_hex_agree_on_homogeneous_strain() {
    // A patch-style check: both topologies reproduce uniform extension.
    for mesh in [
        Mesh::box_hex(2, 2, 2, 1.0, 1.0, 1.0),
        Mesh::box_tet(2, 2, 2, 1.0, 1.0, 1.0),
    ] {
        let mut m = FeModel::solid(mesh, Box::new(LinearElastic::new(1e3, 0.0)));
        // ν = 0 keeps lateral faces exactly still: pure 1-D problem.
        m.fix_face("z0");
        m.prescribe_face("z1", 2, 0.1);
        m.set_strict(true);
        let r = m.solve().expect("solves");
        let mesh = m.mesh();
        for (n, c) in mesh.coords().iter().enumerate() {
            let uz = r.solution[n * 3 + 2];
            assert!(
                (uz - 0.1 * c[2]).abs() < 1e-6,
                "node {n}: uz = {uz}, expected {}",
                0.1 * c[2]
            );
        }
    }
}

/// `(preset, Newton iterations, kernel-log length, FNV-1a-64 over the
/// little-endian bits of the solution vector, final residual bits)` for
/// the 20 catalog scenarios, captured at commit f722bf1 — before the FE
/// solve's structural work was hoisted out of the Newton loop (BᵀD per
/// node, scatter plan, cached permutation gather, run-aware LDLᵀ). Those
/// changes reorder no floating-point operation, so every bit must hold,
/// at `opt-level` 1 and in release alike. (No scenario proved
/// libm-dependent between the two profiles on the capture box; should one
/// do so on another host, pin its iterations and log length only.)
const SOLUTION_PINS: [(&str, usize, usize, u64, u64); 20] = [
    ("ar", 12, 111, 0x5b7fc7677c033b0a, 0x3d0084f03c7b90e5),
    ("bp", 8, 68, 0xbfa78eb1678fc1dc, 0x3d306197fcc787cc),
    ("co", 10, 92, 0xdfe4fc489f71fb07, 0x3dad0656c163862a),
    ("fl", 20, 172, 0x95389f0d2d5d83da, 0x3e690ea1e9129f18),
    ("mu", 7, 61, 0x757b2a57fb80491f, 0x3de87a21c7173c4c),
    ("mp", 8, 68, 0x0b17698846649506, 0x3d038e8f030bf7bf),
    ("te", 8, 74, 0xcdab0ce80b34e02b, 0x3e40f9d76a06a4cf),
    ("ri", 6, 54, 0x36a9f0828faad68c, 0x3d205d74aec6a67d),
    ("ps", 3, 24, 0xf2eb474d29db3713, 0x3dcadb9cbddd06d1),
    ("pd", 17, 158, 0x2262a02b278b778a, 0x3e9e56f31adbd29a),
    ("mg", 8, 68, 0x853ebd7c7b7aea80, 0x3df9d8d82deebc92),
    ("fs", 18, 156, 0x186c6b1c95e22a47, 0x3e199b05d2b24108),
    ("mi", 15, 141, 0xecfdf745b61eb3c3, 0x3d158445e604e016),
    ("ma", 8, 68, 0xd7e2b1a9254459d4, 0x3dd86765dfc2fb9b),
    ("dm", 36, 351, 0x3a44e4207a01f0ec, 0x3dcd64d8ac7e4e43),
    ("tu", 6, 51, 0x19d8576da014dc13, 0x3deb1ac15a67f87f),
    ("rj", 8, 72, 0xdfe688da29191d9f, 0x3cfa6ebc34c64ee3),
    ("vc", 4, 34, 0x37bf24d7e23f9387, 0x3d637225acda06e6),
    ("bi", 8, 68, 0xec797cbdb5aed6dd, 0x3d25151d08b724b2),
    ("eye", 8, 74, 0x4e064886441f5a79, 0x3eeac33b73bb9c45),
];

#[test]
fn catalog_solutions_are_bit_identical_to_the_pre_hoisting_solver() {
    for &(id, iterations, log_len, solution, residual) in &SOLUTION_PINS {
        let spec = belenos_workloads::by_id(id).unwrap_or_else(|| panic!("preset {id} missing"));
        let mut model = spec.build_model().unwrap_or_else(|e| panic!("{id}: {e}"));
        let report = model.solve().unwrap_or_else(|e| panic!("{id}: {e}"));
        let mut hash = Fnv64::new();
        for v in &report.solution {
            hash.write_f64(*v);
        }
        assert_eq!(
            (
                report.total_iterations,
                report.log.len(),
                hash.finish(),
                report.final_residual.to_bits()
            ),
            (iterations, log_len, solution, residual),
            "{id}: the solve drifted from the pinned numerics"
        );
    }
}

/// `(preset, Newton iterations, load steps, stiffness assemblies, numeric
/// LDLᵀ factorizations)`. An iteration assembles the stiffness only when
/// it goes on to a linear solve, so each load step's converged iteration
/// builds none; a model whose materials are all linear (`bp`, `co`)
/// assembles it once per solve, and LDLᵀ refactors only a matrix that
/// changed (`bp` factors once for its four solves; `co` solves with CG).
/// Before the residual-first iteration, every iteration assembled and
/// every LDLᵀ solve factored: `bp` 8 assemblies and 4 factorizations,
/// `co` 10 and 0, `pd` 17 and 13, `tu` 6 and 3.
const REUSE_PINS: [(&str, usize, usize, usize, usize); 4] = [
    ("bp", 8, 4, 1, 1),
    ("co", 10, 4, 1, 0),
    ("pd", 17, 4, 13, 13),
    ("tu", 6, 3, 3, 3),
];

#[test]
fn catalog_solves_assemble_and_factor_only_what_changed() {
    for &(id, iterations, steps, assemblies, factorizations) in &REUSE_PINS {
        let spec = belenos_workloads::by_id(id).unwrap_or_else(|| panic!("preset {id} missing"));
        let mut model = spec.build_model().unwrap_or_else(|e| panic!("{id}: {e}"));
        let report = model.solve().unwrap_or_else(|e| panic!("{id}: {e}"));
        assert_eq!(
            (
                report.total_iterations,
                report.steps_completed,
                report.stiffness_assemblies,
                report.factorizations
            ),
            (iterations, steps, assemblies, factorizations),
            "{id}: (iterations, steps, stiffness assemblies, factorizations)"
        );
    }
}
