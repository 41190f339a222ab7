//! Parallel element assembly must be bit-identical to serial assembly:
//! same CSR pattern, same stiffness values bit for bit, same internal
//! forces, across random meshes, formulations, iterates, and thread
//! counts. This is the contract that lets every digest pin downstream
//! (o3 statistics, scenario fingerprints, runner cache keys) survive the
//! assembly parallelization untouched.

use belenos_fem::material::{LinearElastic, NeoHookeanSmall, PronyTerm, Viscoelastic};
use belenos_fem::mesh::Mesh;
use belenos_fem::model::FeModel;
use proptest::prelude::*;

/// Deterministic pseudo-random iterate (splitmix64 stream), small enough
/// that every material stays in its well-posed regime.
fn random_iterate(mut seed: u64, n: usize, scale: f64) -> Vec<f64> {
    let mut u = Vec::with_capacity(n);
    for _ in 0..n {
        seed = seed.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = seed;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^= z >> 31;
        let unit = (z >> 11) as f64 / (1u64 << 53) as f64;
        u.push((unit * 2.0 - 1.0) * scale);
    }
    u
}

/// One model per formulation family, on a mesh large enough to cross the
/// parallel-assembly threshold.
fn build_model(family: usize, nx: usize, ny: usize, nz: usize) -> FeModel {
    let hex = Mesh::box_hex(nx, ny, nz, 1.0, 1.0, 1.0);
    match family {
        0 => FeModel::solid(hex, Box::new(LinearElastic::new(1e3, 0.3))),
        1 => FeModel::solid(hex, Box::new(NeoHookeanSmall::new(400.0, 1000.0, 0.0))),
        2 => FeModel::solid(
            hex,
            Box::new(Viscoelastic::new(
                800.0,
                0.3,
                vec![PronyTerm { g: 0.5, tau: 2.0 }],
            )),
        ),
        3 => FeModel::solid(
            Mesh::box_tet(nx, ny, nz, 1.0, 1.0, 1.0),
            Box::new(LinearElastic::new(1e3, 0.25)),
        ),
        4 => FeModel::poro(hex, Box::new(LinearElastic::new(1e3, 0.3)), [1e-3; 3], 1e-2),
        5 => FeModel::multiphasic(
            hex,
            Box::new(LinearElastic::new(1e3, 0.3)),
            [1e-3; 3],
            1e-2,
            5e-3,
        ),
        _ => FeModel::fluid(hex, 1e-2, 1e4, 1.0, true),
    }
}

fn assert_bit_identical(family: usize, nx: usize, ny: usize, nz: usize, threads: usize, seed: u64) {
    let serial = build_model(family, nx, ny, nz);
    let n_dofs = serial.n_dofs();
    let u = random_iterate(seed, n_dofs, 0.01);

    let mut serial = serial;
    serial.set_assembly_threads(Some(1));
    let (k_ser, f_ser) = serial.assemble_at(&u).expect("serial assembly");

    let mut parallel = build_model(family, nx, ny, nz);
    parallel.set_assembly_threads(Some(threads));
    let (k_par, f_par) = parallel.assemble_at(&u).expect("parallel assembly");

    assert_eq!(k_ser.pattern().row_ptr(), k_par.pattern().row_ptr());
    assert_eq!(k_ser.pattern().col_idx(), k_par.pattern().col_idx());
    assert_eq!(k_ser.values().len(), k_par.values().len());
    for (i, (a, b)) in k_ser.values().iter().zip(k_par.values()).enumerate() {
        assert_eq!(
            a.to_bits(),
            b.to_bits(),
            "family {family}, {threads} threads: K[{i}] differs ({a} vs {b})"
        );
    }
    for (d, (a, b)) in f_ser.iter().zip(&f_par).enumerate() {
        assert_eq!(
            a.to_bits(),
            b.to_bits(),
            "family {family}, {threads} threads: f_int[{d}] differs ({a} vs {b})"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(21))]

    #[test]
    fn parallel_assembly_is_bit_identical_to_serial(
        family in 0usize..7,
        nx in 4usize..6,
        ny in 4usize..6,
        nz in 4usize..6,
        threads in 2usize..9,
        seed in 0u64..(1u64 << 60),
    ) {
        assert_bit_identical(family, nx, ny, nz, threads, seed);
    }
}

/// A chunk boundary must never split an element's Gauss-state slice:
/// thread counts that don't divide the element count exercise the
/// `split_at_mut` bookkeeping on ragged chunks.
#[test]
fn ragged_chunks_stay_bit_identical() {
    for threads in [3, 5, 7, 11] {
        assert_bit_identical(2, 4, 4, 4, threads, 0xfeed_beef);
    }
}

/// More threads than elements in the final block degenerates cleanly.
#[test]
fn more_threads_than_block_elements() {
    assert_bit_identical(0, 4, 4, 4, 4096, 7);
}

/// A failing element surfaces as the *lowest* failing index at any thread
/// count, as in serial order — also when each worker stops at its own
/// first failure.
#[test]
fn lowest_inverted_element_is_reported_at_any_thread_count() {
    use belenos_fem::mesh::ElementKind;
    use belenos_fem::FemError;
    let boxed = Mesh::box_hex(5, 5, 5, 1.0, 1.0, 1.0);
    let mut coords = boxed.coords().to_vec();
    // Drag two interior nodes through their neighbours: elements in
    // different worker chunks turn inside out.
    for (node, shift) in [(43, 0.9), (172, -0.9)] {
        coords[node][2] += shift;
    }
    let mesh = Mesh::new(ElementKind::Hex8, coords, boxed.connectivity().to_vec()).unwrap();
    let failing_element = |threads: usize| {
        let mut model = FeModel::solid(mesh.clone(), Box::new(LinearElastic::new(1e3, 0.3)));
        model.set_assembly_threads(Some(threads));
        match model.assemble_at(&vec![0.0; model.n_dofs()]) {
            Err(FemError::InvertedElement { element, .. }) => element,
            other => panic!("expected an inverted element, got {other:?}"),
        }
    };
    let serial = failing_element(1);
    for threads in [2, 3, 5, 8] {
        assert_eq!(failing_element(threads), serial, "{threads} threads");
    }
}
