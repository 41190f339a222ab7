//! Property-based tests over the sparse linear-algebra invariants.

use belenos_sparse::solver::ldl::{LdlFactor, SymbolicLdl};
use belenos_sparse::{reorder, CooMatrix, CsrMatrix};
use proptest::prelude::*;

/// Random symmetric diagonally-dominant (hence SPD) sparse matrix.
fn spd_matrix(n: usize, entries: Vec<(usize, usize, f64)>) -> CsrMatrix {
    let mut coo = CooMatrix::new(n, n);
    let mut diag = vec![1.0f64; n];
    for (i, j, v) in entries {
        let (i, j) = (i % n, j % n);
        if i != j {
            coo.push(i, j, v);
            coo.push(j, i, v);
            diag[i] += v.abs();
            diag[j] += v.abs();
        }
    }
    for (i, d) in diag.iter().enumerate() {
        coo.push(i, i, *d + 1.0);
    }
    coo.to_csr()
}

/// Row-major dense copy, read entry by entry through `get`.
fn dense(a: &CsrMatrix) -> Vec<f64> {
    (0..a.nrows())
        .flat_map(|r| (0..a.ncols()).map(move |c| a.get(r, c)))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn coo_to_csr_preserves_triplet_sums(
        n in 2usize..12,
        triplets in prop::collection::vec((0usize..12, 0usize..12, -5.0f64..5.0), 1..40)
    ) {
        let mut coo = CooMatrix::new(n, n);
        let mut dense = vec![0.0; n * n];
        for &(i, j, v) in &triplets {
            let (i, j) = (i % n, j % n);
            coo.push(i, j, v);
            dense[i * n + j] += v;
        }
        let csr = coo.to_csr();
        for i in 0..n {
            for j in 0..n {
                prop_assert!((csr.get(i, j) - dense[i * n + j]).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn spmv_matches_dense_reference(
        n in 2usize..10,
        entries in prop::collection::vec((0usize..10, 0usize..10, -3.0f64..3.0), 1..30),
        x in prop::collection::vec(-2.0f64..2.0, 10)
    ) {
        let a = spd_matrix(n, entries);
        let xs = &x[..n];
        let y = a.spmv(xs).unwrap();
        for (u, row) in y.iter().zip(dense(&a).chunks(n)) {
            let v: f64 = row.iter().zip(xs).map(|(a, x)| a * x).sum();
            prop_assert!((u - v).abs() < 1e-10);
        }
    }

    #[test]
    fn transpose_is_involutive(
        n in 2usize..10,
        entries in prop::collection::vec((0usize..10, 0usize..10, -3.0f64..3.0), 1..30)
    ) {
        let a = spd_matrix(n, entries);
        let att = a.transpose().transpose();
        prop_assert_eq!(dense(&a), dense(&att));
    }

    #[test]
    fn rcm_is_a_valid_permutation_preserving_spectra(
        n in 2usize..12,
        entries in prop::collection::vec((0usize..12, 0usize..12, 0.1f64..3.0), 1..30)
    ) {
        let a = spd_matrix(n, entries);
        let p = reorder::rcm(a.pattern());
        prop_assert_eq!(p.len(), n);
        let b = p.apply_matrix(&a).unwrap();
        // Same nnz, same diagonal multiset, same Frobenius norm.
        prop_assert_eq!(a.nnz(), b.nnz());
        let mut da = a.diagonal();
        let mut db = b.diagonal();
        da.sort_by(f64::total_cmp);
        db.sort_by(f64::total_cmp);
        for (u, v) in da.iter().zip(&db) {
            prop_assert!((u - v).abs() < 1e-12);
        }
    }

    #[test]
    fn ldl_solves_spd_systems(
        n in 2usize..10,
        entries in prop::collection::vec((0usize..10, 0usize..10, 0.1f64..2.0), 1..25),
        x in prop::collection::vec(-2.0f64..2.0, 10)
    ) {
        let a = spd_matrix(n, entries);
        let x_true = &x[..n];
        let b = a.spmv(x_true).unwrap();
        let f = LdlFactor::new(&a).unwrap();
        let got = f.solve(&b).unwrap();
        for (u, v) in got.iter().zip(x_true) {
            prop_assert!((u - v).abs() < 1e-7, "{} vs {}", u, v);
        }
    }

    #[test]
    fn symbolic_nnz_bounds_hold(
        n in 2usize..12,
        entries in prop::collection::vec((0usize..12, 0usize..12, 0.1f64..2.0), 1..30)
    ) {
        let a = spd_matrix(n, entries);
        let sym = SymbolicLdl::analyze(&a).unwrap();
        // Fill-in never shrinks below the strict lower triangle of A and
        // never exceeds the dense bound.
        let lower: usize = (0..n)
            .map(|r| a.pattern().row(r).iter().filter(|&&c| (c as usize) < r).count())
            .sum();
        prop_assert!(sym.l_nnz() >= lower);
        prop_assert!(sym.l_nnz() <= n * (n - 1) / 2);
    }
}
