//! Sparse LDLᵀ with symbolic analysis — the PARDISO substitute.
//!
//! PARDISO performs a symbolic phase (elimination tree, fill-in pattern)
//! followed by a numeric phase and triangular solves. We implement the
//! up-looking sparse LDLᵀ of Davis (the algorithm behind the `LDL` package
//! that informed modern direct solvers). The symbolic structures (etree,
//! column counts) are exposed so the trace layer can replay the exact
//! per-column access extents of the numeric factorization.

use crate::csr::CsrMatrix;
use crate::{Result, SparseError};
use std::sync::Arc;

/// Symbolic analysis of a symmetric sparse matrix: elimination tree and
/// the complete nonzero structure of the L factor.
///
/// Everything here depends on the pattern alone, so one analysis serves
/// every numeric (re)factorization of a Newton loop, and the structure
/// vectors are `Arc`-shared with whoever else replays them (the kernel
/// log).
#[derive(Debug, Clone)]
pub struct SymbolicLdl {
    n: usize,
    /// Parent of each column in the elimination tree (`usize::MAX` = root).
    parent: Vec<usize>,
    /// Number of below-diagonal nonzeros per column of L.
    col_counts: Vec<usize>,
    /// Column pointers of L (size `n + 1`).
    lp: Arc<Vec<usize>>,
    /// Row indices of L, ascending within each column.
    li: Arc<Vec<u32>>,
    /// Every column of L cut into maximal runs of consecutive rows:
    /// column `i` owns `runs[run_ptr[i]..run_ptr[i + 1]]`, each
    /// `(first position in li, length)`. Under a bandwidth-reducing
    /// ordering a column is a handful of long runs, and the numeric update
    /// walks them as slices instead of as an indexed scatter.
    run_ptr: Vec<usize>,
    runs: Vec<(u32, u32)>,
}

impl SymbolicLdl {
    /// Runs symbolic analysis on the *upper triangle* of `a`.
    ///
    /// # Errors
    ///
    /// [`SparseError::NotSquare`] for rectangular input.
    pub fn analyze(a: &CsrMatrix) -> Result<Self> {
        if a.nrows() != a.ncols() {
            return Err(SparseError::NotSquare {
                nrows: a.nrows(),
                ncols: a.ncols(),
            });
        }
        let n = a.nrows();
        let rp = a.pattern().row_ptr();
        let ci = a.pattern().col_idx();
        let mut parent = vec![usize::MAX; n];
        let mut flag = vec![usize::MAX; n];
        let mut col_counts = vec![0usize; n];
        // Davis' LDL symbolic: for each row k, walk up the etree from every
        // upper-triangle entry (i, k), i < k.
        for k in 0..n {
            parent[k] = usize::MAX;
            flag[k] = k;
            for p in rp[k]..rp[k + 1] {
                let mut i = ci[p] as usize;
                if i >= k {
                    continue;
                }
                while flag[i] != k {
                    if parent[i] == usize::MAX {
                        parent[i] = k;
                    }
                    col_counts[i] += 1;
                    flag[i] = k;
                    i = parent[i];
                }
            }
        }
        let mut lp = vec![0usize; n + 1];
        for k in 0..n {
            lp[k + 1] = lp[k] + col_counts[k];
        }
        // Second walk, now that the column extents are known: row k lands
        // in every column its etree walk visits, and rows arrive in
        // ascending order — exactly the order the up-looking numeric
        // phase appends them in.
        let mut li = vec![0u32; lp[n]];
        let mut next = lp[..n].to_vec();
        flag.fill(usize::MAX);
        for k in 0..n {
            flag[k] = k;
            for p in rp[k]..rp[k + 1] {
                let mut i = ci[p] as usize;
                if i >= k {
                    continue;
                }
                while flag[i] != k {
                    li[next[i]] = k as u32;
                    next[i] += 1;
                    flag[i] = k;
                    i = parent[i];
                }
            }
        }
        let mut run_ptr = Vec::with_capacity(n + 1);
        let mut runs: Vec<(u32, u32)> = Vec::new();
        run_ptr.push(0);
        for i in 0..n {
            for p in lp[i]..lp[i + 1] {
                match runs.last_mut() {
                    Some((_, len)) if p > lp[i] && li[p] == li[p - 1] + 1 => *len += 1,
                    _ => runs.push((p as u32, 1)),
                }
            }
            run_ptr.push(runs.len());
        }
        Ok(SymbolicLdl {
            n,
            parent,
            col_counts,
            lp: Arc::new(lp),
            li: Arc::new(li),
            run_ptr,
            runs,
        })
    }

    /// Problem dimension.
    pub fn dim(&self) -> usize {
        self.n
    }

    /// Elimination-tree parent array (`usize::MAX` marks roots).
    pub fn etree(&self) -> &[usize] {
        &self.parent
    }

    /// Below-diagonal nonzero count of each column of L.
    pub fn col_counts(&self) -> &[usize] {
        &self.col_counts
    }

    /// Total below-diagonal nonzeros in L (fill-in included).
    pub fn l_nnz(&self) -> usize {
        self.lp[self.n]
    }

    /// Column pointers of L, shareable without a copy.
    pub fn l_col_ptr(&self) -> &Arc<Vec<usize>> {
        &self.lp
    }

    /// Row indices of L, shareable without a copy.
    pub fn l_row_idx(&self) -> &Arc<Vec<u32>> {
        &self.li
    }

    /// Fill-in ratio: `nnz(L)` over below-diagonal `nnz(A)`.
    pub fn fill_ratio(&self, a: &CsrMatrix) -> f64 {
        let mut lower = 0usize;
        let rp = a.pattern().row_ptr();
        let ci = a.pattern().col_idx();
        for r in 0..a.nrows() {
            for k in rp[r]..rp[r + 1] {
                if (ci[k] as usize) < r {
                    lower += 1;
                }
            }
        }
        if lower == 0 {
            1.0
        } else {
            self.l_nnz() as f64 / lower as f64
        }
    }
}

/// Numeric LDLᵀ factors: `A = L D Lᵀ` with unit-diagonal L in CSC.
///
/// The factor keeps its symbolic structure and its work vectors, so
/// [`LdlFactor::refactorize`] on a matrix with the same pattern rewrites
/// only the values of `L` and `D`.
#[derive(Debug, Clone)]
pub struct LdlFactor {
    sym: SymbolicLdl,
    lx: Vec<f64>,
    d: Vec<f64>,
    /// Entries placed so far per column of L.
    lnz: Vec<usize>,
    /// Dense accumulator for the row being eliminated (all zero between rows).
    y: Vec<f64>,
    pattern_stack: Vec<usize>,
    flag: Vec<usize>,
}

impl LdlFactor {
    /// Numeric factorization following a symbolic analysis.
    ///
    /// # Errors
    ///
    /// [`SparseError::SingularPivot`] on a (near-)zero pivot — indefinite
    /// systems are allowed (D may have negative entries), only exact
    /// singularity is rejected.
    pub fn factorize(a: &CsrMatrix, sym: &SymbolicLdl) -> Result<Self> {
        Self::with_symbolic(a, sym.clone())
    }

    fn with_symbolic(a: &CsrMatrix, sym: SymbolicLdl) -> Result<Self> {
        let n = sym.n;
        let mut factor = LdlFactor {
            lx: vec![0.0; sym.l_nnz()],
            d: vec![0.0; n],
            lnz: vec![0; n],
            y: vec![0.0; n],
            pattern_stack: vec![0; n],
            flag: vec![usize::MAX; n],
            sym,
        };
        factor.refactorize(a)?;
        Ok(factor)
    }

    /// Numeric factorization of another matrix with the pattern this
    /// factor was analysed for, in place: no structure is re-derived and
    /// nothing is allocated.
    ///
    /// The arithmetic is that of the textbook up-looking loop, operation
    /// for operation; only the column update walks runs of consecutive
    /// rows as slices (each `y[j]` still receives exactly one
    /// `-= L(j, i) * y_i` per column, so no result bit can differ).
    ///
    /// # Errors
    ///
    /// As in [`LdlFactor::factorize`]; after an error the factor's values
    /// are unspecified until a later call succeeds.
    pub fn refactorize(&mut self, a: &CsrMatrix) -> Result<()> {
        let LdlFactor {
            sym,
            lx,
            d,
            lnz,
            y,
            pattern_stack,
            flag,
        } = self;
        let n = sym.n;
        if a.nrows() != n || a.ncols() != n {
            return Err(SparseError::DimensionMismatch(format!(
                "matrix is {}x{}, symbolic analysis is for {n}",
                a.nrows(),
                a.ncols()
            )));
        }
        let rp = a.pattern().row_ptr();
        let ci = a.pattern().col_idx();
        let av = a.values();
        let (lp, li) = (&sym.lp[..], &sym.li[..]);
        lnz.fill(0);
        y.fill(0.0);
        flag.fill(usize::MAX);

        for k in 0..n {
            // Compute the k-th row of L: solve L(0:k-1, 0:k-1) y = A(0:k-1, k).
            let mut top = n;
            y[k] = 0.0;
            flag[k] = k;
            for p in rp[k]..rp[k + 1] {
                let i = ci[p] as usize;
                if i > k {
                    continue;
                }
                y[i] = av[p];
                // Walk up the etree collecting the nonzero pattern of row k of L.
                let mut len = 0usize;
                let mut ii = i;
                while flag[ii] != k {
                    pattern_stack[len] = ii;
                    len += 1;
                    flag[ii] = k;
                    ii = sym.parent[ii];
                    debug_assert!(ii != usize::MAX || len <= n);
                    if ii == usize::MAX {
                        break;
                    }
                }
                // Reverse onto the top of the stack region.
                for s in 0..len {
                    top -= 1;
                    pattern_stack[top] = pattern_stack[len - 1 - s];
                }
            }
            // Numeric sparse triangular solve over the collected pattern.
            d[k] = y[k];
            y[k] = 0.0;
            for &i in &pattern_stack[top..n] {
                let yi = y[i];
                y[i] = 0.0;
                // y -= L(:, i) * yi  (only entries below row k matter later);
                // and L(k, i) = yi / d[i].
                let end = lp[i] + lnz[i];
                for &(start, len) in &sym.runs[sym.run_ptr[i]..sym.run_ptr[i + 1]] {
                    let start = start as usize;
                    if start >= end {
                        break;
                    }
                    let len = (len as usize).min(end - start);
                    let first = li[start] as usize;
                    for (yj, &l) in y[first..first + len]
                        .iter_mut()
                        .zip(&lx[start..start + len])
                    {
                        *yj -= l * yi;
                    }
                }
                let lki = yi / d[i];
                d[k] -= lki * yi;
                debug_assert_eq!(li[end] as usize, k);
                lx[end] = lki;
                lnz[i] += 1;
            }
            if d[k].abs() < 1e-300 {
                return Err(SparseError::SingularPivot {
                    index: k,
                    value: d[k],
                });
            }
        }
        Ok(())
    }

    /// One-shot convenience: analyze + factorize.
    ///
    /// # Errors
    ///
    /// As in [`SymbolicLdl::analyze`] and [`LdlFactor::factorize`].
    pub fn new(a: &CsrMatrix) -> Result<Self> {
        Self::with_symbolic(a, SymbolicLdl::analyze(a)?)
    }

    /// Solves `A x = b` via `L z = b`, `D w = z`, `Lᵀ x = w`.
    ///
    /// # Errors
    ///
    /// [`SparseError::DimensionMismatch`] if `b.len() != n`.
    pub fn solve(&self, b: &[f64]) -> Result<Vec<f64>> {
        let n = self.sym.n;
        if b.len() != n {
            return Err(SparseError::DimensionMismatch(format!(
                "factor is {n}-dimensional, rhs has {}",
                b.len()
            )));
        }
        let (lp, li) = (&self.sym.lp[..], &self.sym.li[..]);
        let mut x = b.to_vec();
        // Forward: L z = b (unit diagonal, CSC columns scatter downward).
        for j in 0..n {
            let xj = x[j];
            for p in lp[j]..lp[j + 1] {
                x[li[p] as usize] -= self.lx[p] * xj;
            }
        }
        // Diagonal.
        for j in 0..n {
            x[j] /= self.d[j];
        }
        // Backward: Lᵀ x = w (gather).
        for j in (0..n).rev() {
            let mut acc = x[j];
            for p in lp[j]..lp[j + 1] {
                acc -= self.lx[p] * x[li[p] as usize];
            }
            x[j] = acc;
        }
        Ok(x)
    }

    /// Problem dimension.
    pub fn dim(&self) -> usize {
        self.sym.n
    }

    /// The symbolic analysis this factor was built on.
    pub fn symbolic(&self) -> &SymbolicLdl {
        &self.sym
    }

    /// Below-diagonal nonzeros of L.
    pub fn l_nnz(&self) -> usize {
        self.lx.len()
    }

    /// The diagonal D.
    pub fn d(&self) -> &[f64] {
        &self.d
    }

    /// Column pointers of L (for the trace layer).
    pub fn l_col_ptr(&self) -> &[usize] {
        &self.sym.lp
    }

    /// Row indices of L (for the trace layer).
    pub fn l_row_idx(&self) -> &[u32] {
        &self.sym.li
    }

    /// Reconstructs `L D Lᵀ` densely (tests only — O(n²) memory).
    pub fn reconstruct(&self) -> crate::DenseMatrix {
        let n = self.sym.n;
        let (lp, li) = (&self.sym.lp[..], &self.sym.li[..]);
        let mut l = crate::DenseMatrix::identity(n);
        for j in 0..n {
            for p in lp[j]..lp[j + 1] {
                l[(li[p] as usize, j)] = self.lx[p];
            }
        }
        let mut ld = l.clone();
        for j in 0..n {
            for i in 0..n {
                ld[(i, j)] *= self.d[j];
            }
        }
        ld.matmul(&l.transpose()).expect("square")
    }
}

/// The textbook scalar up-looking loop this module started from, kept as
/// the oracle of the differential tests: it discovers `li` while it
/// factorizes and updates every entry through an indexed scatter.
#[cfg(test)]
fn factorize_scalar(a: &CsrMatrix, sym: &SymbolicLdl) -> Result<(Vec<u32>, Vec<f64>, Vec<f64>)> {
    let n = sym.n;
    let rp = a.pattern().row_ptr();
    let ci = a.pattern().col_idx();
    let av = a.values();
    let lp = &sym.lp[..];
    let mut li = vec![0u32; sym.l_nnz()];
    let mut lx = vec![0.0f64; sym.l_nnz()];
    let mut d = vec![0.0f64; n];
    let mut lnz = vec![0usize; n];
    let mut y = vec![0.0f64; n];
    let mut pattern_stack = vec![0usize; n];
    let mut flag = vec![usize::MAX; n];
    for k in 0..n {
        let mut top = n;
        y[k] = 0.0;
        flag[k] = k;
        for p in rp[k]..rp[k + 1] {
            let i = ci[p] as usize;
            if i > k {
                continue;
            }
            y[i] = av[p];
            let mut len = 0usize;
            let mut ii = i;
            while flag[ii] != k {
                pattern_stack[len] = ii;
                len += 1;
                flag[ii] = k;
                ii = sym.parent[ii];
                if ii == usize::MAX {
                    break;
                }
            }
            for s in 0..len {
                top -= 1;
                pattern_stack[top] = pattern_stack[len - 1 - s];
            }
        }
        d[k] = y[k];
        y[k] = 0.0;
        for &i in &pattern_stack[top..n] {
            let yi = y[i];
            y[i] = 0.0;
            for p in lp[i]..lp[i] + lnz[i] {
                y[li[p] as usize] -= lx[p] * yi;
            }
            let lki = yi / d[i];
            d[k] -= lki * yi;
            li[lp[i] + lnz[i]] = k as u32;
            lx[lp[i] + lnz[i]] = lki;
            lnz[i] += 1;
        }
        if d[k].abs() < 1e-300 {
            return Err(SparseError::SingularPivot {
                index: k,
                value: d[k],
            });
        }
    }
    Ok((li, lx, d))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CooMatrix;
    use proptest::prelude::*;

    /// Symmetric matrix from `(i, j, v)` couplings: `band` > 0 folds every
    /// coupling into that half-bandwidth (long consecutive-row runs in L),
    /// 0 leaves them scattered; `spd` makes it diagonally dominant, else
    /// the diagonal alternates in sign (indefinite, the saddle-point shape
    /// of the u-p systems).
    fn symmetric(n: usize, band: usize, spd: bool, entries: &[(usize, usize, f64)]) -> CsrMatrix {
        let mut coo = CooMatrix::new(n, n);
        let mut diag = vec![1.0f64; n];
        for &(i, j, v) in entries {
            let i = i % n;
            let j = if band > 0 {
                (i + 1 + j % band).min(n - 1)
            } else {
                j % n
            };
            if i != j {
                coo.push(i, j, v);
                coo.push(j, i, v);
                diag[i] += v.abs();
                diag[j] += v.abs();
            }
        }
        for (i, d) in diag.iter().enumerate() {
            let sign = if spd || i % 2 == 0 { 1.0 } else { -1.0 };
            coo.push(i, i, sign * (*d + 1.0));
        }
        coo.to_csr()
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// Run-aware factorize and refactorize against the scalar oracle:
    /// structure equal, `lx` and `d` bit-equal, same pivot failure.
    fn assert_matches_scalar(a: &CsrMatrix) {
        let sym = SymbolicLdl::analyze(a).unwrap();
        let want = factorize_scalar(a, &sym);
        let got = LdlFactor::factorize(a, &sym);
        match (&want, &got) {
            (Ok((li, lx, d)), Ok(f)) => {
                assert_eq!(f.l_row_idx(), &li[..], "symbolic row indices");
                assert_eq!(bits(&f.lx), bits(lx), "L values");
                assert_eq!(bits(&f.d), bits(d), "D values");
            }
            (
                Err(SparseError::SingularPivot { index: a, value: u }),
                Err(SparseError::SingularPivot { index: b, value: v }),
            ) => assert_eq!((a, u.to_bits()), (b, v.to_bits())),
            other => panic!("oracle and factorize disagree: {other:?}"),
        }
        // A factor that last held other values (or failed half-way) must
        // refactorize to the same bits.
        if let Ok((_, lx, d)) = &want {
            let mut other = a.clone();
            other.scale(-3.5);
            let mut f = LdlFactor::factorize(&other, &sym).unwrap();
            f.refactorize(a).unwrap();
            assert_eq!(bits(&f.lx), bits(lx), "refactorized L values");
            assert_eq!(bits(&f.d), bits(d), "refactorized D values");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn run_aware_factorize_is_bit_identical_to_the_scalar_loop(
            n in 2usize..40,
            band in 0usize..7,
            spd in any::<bool>(),
            entries in prop::collection::vec((0usize..40, 0usize..40, -2.0f64..2.0), 1..120)
        ) {
            assert_matches_scalar(&symmetric(n, band, spd, &entries));
        }
    }

    #[test]
    fn run_aware_factorize_reports_the_same_singular_pivot() {
        // A chain 0-1-2-3 plus the exactly singular block [[1, 1], [1, 1]]
        // on (4, 5): the zero pivot appears at the last row, after real
        // elimination work.
        let mut coo = CooMatrix::new(6, 6);
        for i in 0..6 {
            coo.push(i, i, if i < 4 { 2.0 } else { 1.0 });
        }
        for (i, j) in [(0, 1), (1, 2), (2, 3), (4, 5)] {
            coo.push(i, j, 1.0);
            coo.push(j, i, 1.0);
        }
        let a = coo.to_csr();
        let sym = SymbolicLdl::analyze(&a).unwrap();
        assert!(matches!(
            factorize_scalar(&a, &sym),
            Err(SparseError::SingularPivot { index: 5, .. })
        ));
        assert_matches_scalar(&a);
    }

    #[test]
    fn banded_columns_are_mostly_runs() {
        // Half-bandwidth 3, fully populated: every column of L is one run.
        let n = 12;
        let entries: Vec<(usize, usize, f64)> = (0..n)
            .flat_map(|i| (0..3).map(move |j| (i, j, 0.5)))
            .collect();
        let a = symmetric(n, 3, true, &entries);
        let sym = SymbolicLdl::analyze(&a).unwrap();
        let nonempty = sym.col_counts().iter().filter(|&&c| c > 0).count();
        assert_eq!(sym.runs.len(), nonempty);
        let in_runs: usize = sym.runs.iter().map(|&(_, len)| len as usize).sum();
        assert_eq!(in_runs, sym.l_nnz());
    }

    fn lap2d(nx: usize) -> CsrMatrix {
        let n = nx * nx;
        let mut coo = CooMatrix::new(n, n);
        for i in 0..nx {
            for j in 0..nx {
                let p = i * nx + j;
                coo.push(p, p, 4.0);
                if i > 0 {
                    coo.push(p, p - nx, -1.0);
                }
                if i + 1 < nx {
                    coo.push(p, p + nx, -1.0);
                }
                if j > 0 {
                    coo.push(p, p - 1, -1.0);
                }
                if j + 1 < nx {
                    coo.push(p, p + 1, -1.0);
                }
            }
        }
        coo.to_csr()
    }

    #[test]
    fn etree_of_tridiagonal_is_a_path() {
        let mut coo = CooMatrix::new(5, 5);
        for i in 0..5 {
            coo.push(i, i, 2.0);
            if i > 0 {
                coo.push(i, i - 1, -1.0);
                coo.push(i - 1, i, -1.0);
            }
        }
        let a = coo.to_csr();
        let sym = SymbolicLdl::analyze(&a).unwrap();
        assert_eq!(sym.etree()[..4], [1, 2, 3, 4]);
        assert_eq!(sym.etree()[4], usize::MAX);
        // Tridiagonal has no fill: one below-diagonal entry per column except last.
        assert_eq!(sym.l_nnz(), 4);
        assert!((sym.fill_ratio(&a) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn laplacian_has_fill() {
        let a = lap2d(6);
        let sym = SymbolicLdl::analyze(&a).unwrap();
        assert!(
            sym.fill_ratio(&a) > 1.5,
            "fill ratio {}",
            sym.fill_ratio(&a)
        );
    }

    #[test]
    fn reconstruction_matches_original() {
        let a = lap2d(4);
        let f = LdlFactor::new(&a).unwrap();
        let rec = f.reconstruct();
        let err = (&rec - &a.to_dense()).norm();
        assert!(err < 1e-10, "reconstruction error {err}");
    }

    #[test]
    fn solve_recovers_known_solution() {
        let a = lap2d(8);
        let x_true: Vec<f64> = (0..64).map(|i| ((i * 13 % 7) as f64) - 3.0).collect();
        let b = a.spmv(&x_true).unwrap();
        let f = LdlFactor::new(&a).unwrap();
        let x = f.solve(&b).unwrap();
        for (u, v) in x.iter().zip(&x_true) {
            assert!((u - v).abs() < 1e-9, "{u} vs {v}");
        }
    }

    #[test]
    fn indefinite_but_nonsingular_ok() {
        // LDLᵀ (unlike Cholesky) handles symmetric indefinite matrices that
        // need no pivoting.
        let mut coo = CooMatrix::new(2, 2);
        coo.push(0, 0, 1.0);
        coo.push(1, 1, -2.0);
        let a = coo.to_csr();
        let f = LdlFactor::new(&a).unwrap();
        assert!(f.d()[1] < 0.0);
        let x = f.solve(&[1.0, 2.0]).unwrap();
        assert!((x[0] - 1.0).abs() < 1e-15);
        assert!((x[1] + 1.0).abs() < 1e-15);
    }

    #[test]
    fn singular_rejected() {
        let mut coo = CooMatrix::new(2, 2);
        coo.push(0, 0, 1.0);
        coo.push(0, 1, 1.0);
        coo.push(1, 0, 1.0);
        coo.push(1, 1, 1.0);
        let a = coo.to_csr();
        assert!(matches!(
            LdlFactor::new(&a),
            Err(SparseError::SingularPivot { .. })
        ));
    }

    #[test]
    fn repeated_solves_with_one_factorization() {
        let a = lap2d(5);
        let f = LdlFactor::new(&a).unwrap();
        for seed in 0..3 {
            let x_true: Vec<f64> = (0..25).map(|i| ((i + seed) as f64).sin()).collect();
            let b = a.spmv(&x_true).unwrap();
            let x = f.solve(&b).unwrap();
            for (u, v) in x.iter().zip(&x_true) {
                assert!((u - v).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn symbolic_reuse_across_numeric_refactorizations() {
        // Newton iterations refactorize with the same pattern; symbolic
        // analysis must be reusable.
        let a = lap2d(5);
        let sym = SymbolicLdl::analyze(&a).unwrap();
        let mut a2 = a.clone();
        a2.scale(2.0);
        let f1 = LdlFactor::factorize(&a, &sym).unwrap();
        let f2 = LdlFactor::factorize(&a2, &sym).unwrap();
        let b = vec![1.0; 25];
        let x1 = f1.solve(&b).unwrap();
        let x2 = f2.solve(&b).unwrap();
        for (u, v) in x1.iter().zip(&x2) {
            assert!((u - 2.0 * v).abs() < 1e-9);
        }
    }

    #[test]
    fn rhs_shape_checked() {
        let a = lap2d(3);
        let f = LdlFactor::new(&a).unwrap();
        assert!(f.solve(&[0.0; 5]).is_err());
    }
}
