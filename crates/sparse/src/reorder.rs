//! Fill-reducing / bandwidth-reducing orderings.
//!
//! PARDISO applies a fill-reducing permutation before factorizing. We
//! implement reverse Cuthill-McKee (RCM), the classic profile-reduction
//! ordering, which is also the lever for the cache-locality ablation
//! benches.

use crate::graph::AdjacencyGraph;
use crate::pattern::CsrPattern;
use crate::{CsrMatrix, Result, SparseError};
use std::sync::Arc;

/// A permutation of `0..n` with its inverse.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Permutation {
    /// `perm[new] = old`
    perm: Vec<u32>,
    /// `inv[old] = new`
    inv: Vec<u32>,
}

impl Permutation {
    /// Builds from the forward map `perm[new] = old`.
    ///
    /// # Errors
    ///
    /// [`SparseError::InvalidInput`] if `perm` is not a permutation of `0..n`.
    pub fn new(perm: Vec<u32>) -> Result<Self> {
        let n = perm.len();
        let mut inv = vec![u32::MAX; n];
        for (new, &old) in perm.iter().enumerate() {
            let old = old as usize;
            if old >= n || inv[old] != u32::MAX {
                return Err(SparseError::InvalidInput(
                    "not a permutation: repeated or out-of-range index".into(),
                ));
            }
            inv[old] = new as u32;
        }
        Ok(Permutation { perm, inv })
    }

    /// The identity permutation on `n` elements.
    pub fn identity(n: usize) -> Self {
        let perm: Vec<u32> = (0..n as u32).collect();
        Permutation {
            inv: perm.clone(),
            perm,
        }
    }

    /// Length of the permutation.
    pub fn len(&self) -> usize {
        self.perm.len()
    }

    /// True for the empty permutation.
    pub fn is_empty(&self) -> bool {
        self.perm.is_empty()
    }

    /// New position of `old`.
    pub fn new_of(&self, old: usize) -> usize {
        self.inv[old] as usize
    }

    /// Applies to a vector: `out[new] = v[old]`.
    ///
    /// # Panics
    ///
    /// Panics if `v.len() != self.len()`.
    pub fn apply_vec(&self, v: &[f64]) -> Vec<f64> {
        assert_eq!(v.len(), self.len());
        self.perm.iter().map(|&old| v[old as usize]).collect()
    }

    /// Inverse application: `out[old] = v[new]`.
    ///
    /// # Panics
    ///
    /// Panics if `v.len() != self.len()`.
    pub fn apply_inv_vec(&self, v: &[f64]) -> Vec<f64> {
        assert_eq!(v.len(), self.len());
        let mut out = vec![0.0; v.len()];
        for (new, &old) in self.perm.iter().enumerate() {
            out[old as usize] = v[new];
        }
        out
    }

    /// Symmetric permutation of a square CSR matrix: `B = P A Pᵀ`, i.e.
    /// `B[new_i, new_j] = A[old_i, old_j]`.
    ///
    /// # Errors
    ///
    /// [`SparseError::NotSquare`] or [`SparseError::DimensionMismatch`].
    pub fn apply_matrix(&self, a: &CsrMatrix) -> Result<CsrMatrix> {
        if a.nrows() != a.ncols() {
            return Err(SparseError::NotSquare {
                nrows: a.nrows(),
                ncols: a.ncols(),
            });
        }
        if a.nrows() != self.len() {
            return Err(SparseError::DimensionMismatch(format!(
                "matrix is {}x{} but permutation has {} entries",
                a.nrows(),
                a.ncols(),
                self.len()
            )));
        }
        let n = self.len();
        let mut coo = crate::CooMatrix::with_capacity(n, n, a.nnz());
        let rp = a.pattern().row_ptr();
        let ci = a.pattern().col_idx();
        for old_r in 0..n {
            let new_r = self.new_of(old_r);
            for k in rp[old_r]..rp[old_r + 1] {
                let new_c = self.new_of(ci[k] as usize);
                coo.push(new_r, new_c, a.values()[k]);
            }
        }
        Ok(coo.to_csr())
    }

    /// Plans [`Permutation::apply_matrix`] for every matrix over `pattern`.
    ///
    /// # Errors
    ///
    /// As in [`Permutation::apply_matrix`], plus
    /// [`SparseError::InvalidInput`] for a pattern with more than
    /// `u32::MAX` entries.
    pub fn gather_for(&self, pattern: &Arc<CsrPattern>) -> Result<MatrixGather> {
        if u32::try_from(pattern.nnz()).is_err() {
            return Err(SparseError::InvalidInput(
                "pattern too large for a 32-bit gather index".into(),
            ));
        }
        // Permute a matrix whose values are their own positions: what
        // comes out is, per permuted entry, the position it was read from
        // (exact in an f64 far beyond any u32).
        let positions = (0..pattern.nnz()).map(|k| k as f64).collect();
        let tagged =
            self.apply_matrix(&CsrMatrix::with_pattern(Arc::clone(pattern), positions)?)?;
        let src = tagged.values().iter().map(|&k| k as u32).collect();
        Ok(MatrixGather {
            source: Arc::clone(pattern),
            src,
            permuted: tagged,
        })
    }
}

/// A symmetric permutation of one fixed sparsity pattern, reduced to what
/// does not depend on the values: the permuted pattern and, for each of
/// its entries, where in the source matrix the value comes from. Applying
/// it is a gather — no triplets, no sort.
#[derive(Debug, Clone)]
pub struct MatrixGather {
    source: Arc<CsrPattern>,
    src: Vec<u32>,
    /// The permuted matrix, refilled by each [`MatrixGather::apply`].
    permuted: CsrMatrix,
}

impl MatrixGather {
    /// True when this plan was built for exactly this pattern allocation.
    pub fn is_for(&self, pattern: &CsrPattern) -> bool {
        std::ptr::eq(&*self.source, pattern)
    }

    /// The permuted matrix for `a`, bit for bit what
    /// [`Permutation::apply_matrix`] returns, and whether any of its
    /// values differs in some bit from the previous `apply`'s (on the
    /// first, from an arbitrary fill).
    ///
    /// # Panics
    ///
    /// Panics if `a` is not over the pattern the plan was built for.
    pub fn apply(&mut self, a: &CsrMatrix) -> (&CsrMatrix, bool) {
        assert!(
            self.is_for(a.pattern()),
            "matrix is not over the planned pattern"
        );
        let av = a.values();
        let mut changed = false;
        for (out, &k) in self.permuted.values_mut().iter_mut().zip(&self.src) {
            // `apply_matrix` sums each entry into a zeroed accumulator,
            // which turns a stored -0.0 into +0.0; so does this.
            let v = 0.0 + av[k as usize];
            changed |= v.to_bits() != out.to_bits();
            *out = v;
        }
        (&self.permuted, changed)
    }
}

/// Computes the reverse Cuthill-McKee ordering of a pattern.
///
/// Handles disconnected graphs by restarting from an unvisited minimum-degree
/// vertex. Returns a [`Permutation`] with `perm[new] = old`.
///
/// # Examples
///
/// ```
/// use belenos_sparse::{CooMatrix, reorder};
/// let mut coo = CooMatrix::new(3, 3);
/// for i in 0..3 { coo.push(i, i, 1.0); }
/// coo.push(0, 2, 1.0); coo.push(2, 0, 1.0);
/// let a = coo.to_csr();
/// let p = reorder::rcm(a.pattern());
/// assert_eq!(p.len(), 3);
/// ```
pub fn rcm(pattern: &CsrPattern) -> Permutation {
    let g = AdjacencyGraph::from_pattern(pattern);
    let n = g.num_vertices();
    let mut visited = vec![false; n];
    let mut order: Vec<u32> = Vec::with_capacity(n);
    while let Some(seed) = (0..n).filter(|&v| !visited[v]).min_by_key(|&v| g.degree(v)) {
        let start = g.pseudo_peripheral(seed);
        let start = if visited[start] { seed } else { start };
        // Cuthill-McKee BFS with neighbors sorted by degree.
        let mut queue = std::collections::VecDeque::new();
        visited[start] = true;
        queue.push_back(start as u32);
        while let Some(v) = queue.pop_front() {
            order.push(v);
            let mut nbrs: Vec<u32> = g
                .neighbors(v as usize)
                .iter()
                .copied()
                .filter(|&w| !visited[w as usize])
                .collect();
            nbrs.sort_unstable_by_key(|&w| g.degree(w as usize));
            for w in nbrs {
                visited[w as usize] = true;
                queue.push_back(w);
            }
        }
    }
    order.reverse();
    Permutation::new(order).expect("CM traversal yields a permutation")
}

#[cfg(test)]
impl Permutation {
    /// Test helper: maps an old-space vector into new space
    /// (`out[new] = v[old]` — same as [`Permutation::apply_vec`], named for
    /// clarity at call sites in tests).
    fn apply_inv_vec_newspace(&self, v: &[f64]) -> Vec<f64> {
        self.apply_vec(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CooMatrix;

    fn arrow_matrix(n: usize) -> CsrMatrix {
        // Dense first row/col + diagonal: worst case for bandwidth, great
        // test for RCM (which cannot fix it) and permutation plumbing.
        let mut coo = CooMatrix::new(n, n);
        for i in 0..n {
            coo.push(i, i, 4.0);
            if i > 0 {
                coo.push(0, i, 1.0);
                coo.push(i, 0, 1.0);
            }
        }
        coo.to_csr()
    }

    fn banded(n: usize, shuffle: &[u32]) -> CsrMatrix {
        // Tridiagonal structure expressed under a scrambled labelling.
        let mut coo = CooMatrix::new(n, n);
        for i in 0..n {
            let a = shuffle[i] as usize;
            coo.push(a, a, 2.0);
            if i + 1 < n {
                let b = shuffle[i + 1] as usize;
                coo.push(a, b, -1.0);
                coo.push(b, a, -1.0);
            }
        }
        coo.to_csr()
    }

    #[test]
    fn permutation_validation() {
        assert!(Permutation::new(vec![0, 1, 2]).is_ok());
        assert!(Permutation::new(vec![0, 0, 2]).is_err());
        assert!(Permutation::new(vec![0, 5]).is_err());
    }

    #[test]
    fn identity_permutation_is_noop() {
        let a = arrow_matrix(5);
        let p = Permutation::identity(5);
        let b = p.apply_matrix(&a).unwrap();
        assert_eq!(a.to_dense(), b.to_dense());
    }

    #[test]
    fn apply_and_inverse_round_trip() {
        let p = Permutation::new(vec![2, 0, 1]).unwrap();
        let v = vec![10.0, 20.0, 30.0];
        let w = p.apply_vec(&v);
        assert_eq!(w, vec![30.0, 10.0, 20.0]);
        assert_eq!(p.apply_inv_vec(&w), v);
    }

    #[test]
    fn rcm_restores_band_structure() {
        // Scramble a path graph; RCM should recover a small bandwidth.
        let n = 32;
        let shuffle: Vec<u32> = (0..n as u32).map(|i| (i * 17 + 5) % n as u32).collect();
        let a = banded(n, &shuffle);
        let before = a.pattern().bandwidth();
        let p = rcm(a.pattern());
        let b = p.apply_matrix(&a).unwrap();
        let after = b.pattern().bandwidth();
        assert!(after <= 2, "rcm bandwidth {after} (was {before})");
        assert!(after < before);
    }

    #[test]
    fn gather_is_bit_identical_to_apply_matrix() {
        // Scrambled band with signed zeros, a NaN and an infinity among
        // the values: the gather must reproduce `apply_matrix` bit for
        // bit, including its -0.0 -> +0.0.
        let n = 24;
        let shuffle: Vec<u32> = (0..n as u32).map(|i| (i * 7 + 3) % n as u32).collect();
        let mut a = banded(n, &shuffle);
        let p = rcm(a.pattern());
        let mut gather = p.gather_for(&a.pattern_arc()).unwrap();
        for round in 0..3u32 {
            for (k, v) in a.values_mut().iter_mut().enumerate() {
                *v = match (k as u32 + round) % 7 {
                    0 => -0.0,
                    1 => 0.0,
                    2 if round == 2 => f64::NAN,
                    3 if round == 2 => f64::NEG_INFINITY,
                    m => (k as f64 - 11.5) * (m as f64 + 0.25),
                };
            }
            let want = p.apply_matrix(&a).unwrap();
            let (got, changed) = gather.apply(&a);
            assert!(changed, "round {round}");
            assert_eq!(got.pattern(), want.pattern());
            let bits = |m: &CsrMatrix| m.values().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(got), bits(&want), "round {round}");
        }
        // The same values again, NaN included: nothing changed.
        let (got, changed) = gather.apply(&a);
        assert!(!changed);
        let neg_zero = (-0.0f64).to_bits();
        assert!(got.values().iter().all(|v| v.to_bits() != neg_zero));
        // A source zero that flips its sign gathers to the same +0.0.
        let zero = a.values().iter().position(|v| *v == 0.0).unwrap();
        a.values_mut()[zero] = -a.values()[zero];
        assert!(!gather.apply(&a).1);
        // One value one ulp away is a change.
        let last = a.values().len() - 1;
        a.values_mut()[last] = f64::from_bits(a.values()[last].to_bits() + 1);
        assert!(gather.apply(&a).1);
    }

    #[test]
    #[should_panic(expected = "not over the planned pattern")]
    fn gather_rejects_a_foreign_pattern() {
        let a = arrow_matrix(5);
        let b = arrow_matrix(5);
        let mut gather = rcm(a.pattern()).gather_for(&a.pattern_arc()).unwrap();
        gather.apply(&b);
    }

    #[test]
    fn rcm_handles_disconnected_components() {
        let mut coo = CooMatrix::new(6, 6);
        for i in 0..6 {
            coo.push(i, i, 1.0);
        }
        coo.push(0, 1, 1.0);
        coo.push(1, 0, 1.0);
        coo.push(4, 5, 1.0);
        coo.push(5, 4, 1.0);
        let a = coo.to_csr();
        let p = rcm(a.pattern());
        assert_eq!(p.len(), 6);
        // Must be a valid permutation (constructor validates).
    }

    #[test]
    fn permuted_matrix_preserves_spectrum_action() {
        // Check P A Pᵀ (P x) = P (A x).
        let a = arrow_matrix(7);
        let p = rcm(a.pattern());
        let b = p.apply_matrix(&a).unwrap();
        let x: Vec<f64> = (0..7).map(|i| 1.0 + i as f64).collect();
        let ax = a.spmv(&x).unwrap();
        let px = p.apply_inv_vec_newspace(&x);
        let bpx = b.spmv(&px).unwrap();
        let pax = p.apply_inv_vec_newspace(&ax);
        for (u, v) in bpx.iter().zip(&pax) {
            assert!((u - v).abs() < 1e-12);
        }
    }
}
