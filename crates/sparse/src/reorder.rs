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

    /// Refuses a matrix shape this permutation cannot act on.
    fn check_square(&self, nrows: usize, ncols: usize) -> Result<()> {
        if nrows != ncols {
            return Err(SparseError::NotSquare { nrows, ncols });
        }
        if nrows != self.len() {
            return Err(SparseError::DimensionMismatch(format!(
                "matrix is {nrows}x{ncols} but permutation has {} entries",
                self.len()
            )));
        }
        Ok(())
    }

    /// Symmetric permutation of a square CSR matrix: `B = P A Pᵀ`, i.e.
    /// `B[new_i, new_j] = A[old_i, old_j]`.
    ///
    /// # Errors
    ///
    /// [`SparseError::NotSquare`] or [`SparseError::DimensionMismatch`].
    pub fn apply_matrix(&self, a: &CsrMatrix) -> Result<CsrMatrix> {
        self.check_square(a.nrows(), a.ncols())?;
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

    /// Plans the lower triangle of [`Permutation::apply_matrix`] — its
    /// entries with `col ≤ row`, the only ones an LDLᵀ factorization
    /// reads — for every matrix over `pattern`.
    ///
    /// Permuted row `new` is source row `perm[new]`: its columns map
    /// through `inv`, those at or below the new diagonal stay, and a sort
    /// of the row's `(new column, source position)` pairs puts them in
    /// order. Apart from one row's scratch, only the plan is allocated.
    ///
    /// # Errors
    ///
    /// As in [`Permutation::apply_matrix`], plus
    /// [`SparseError::InvalidInput`] for a pattern with more than
    /// `u32::MAX` entries.
    pub fn gather_for(&self, pattern: &Arc<CsrPattern>) -> Result<MatrixGather> {
        self.check_square(pattern.nrows(), pattern.ncols())?;
        if u32::try_from(pattern.nnz()).is_err() {
            return Err(SparseError::InvalidInput(
                "pattern too large for a 32-bit gather index".into(),
            ));
        }
        let n = self.len();
        let (rp, ci) = (pattern.row_ptr(), pattern.col_idx());
        // Row `new`'s kept entries as `(new column, source position)`.
        let lower = |new: usize| {
            let old = self.perm[new] as usize;
            (rp[old]..rp[old + 1]).filter_map(move |k| {
                let c = self.inv[ci[k] as usize];
                (c as usize <= new).then_some((c, k as u32))
            })
        };
        // Count first, so every array is allocated at its length.
        let mut row_ptr = Vec::with_capacity(n + 1);
        row_ptr.push(0);
        for new in 0..n {
            row_ptr.push(row_ptr[new] + lower(new).count());
        }
        let nnz = row_ptr[n];
        let mut col_idx = Vec::with_capacity(nnz);
        let mut src = Vec::with_capacity(nnz);
        let mut row: Vec<(u32, u32)> = Vec::new();
        for new in 0..n {
            row.clear();
            row.extend(lower(new));
            row.sort_unstable_by_key(|&(c, _)| c);
            col_idx.extend(row.iter().map(|&(c, _)| c));
            src.extend(row.iter().map(|&(_, k)| k));
        }
        Ok(MatrixGather {
            source: Arc::clone(pattern),
            src,
            permuted: CsrMatrix::from_parts_unchecked(n, n, row_ptr, col_idx, vec![0.0; nnz]),
        })
    }
}

/// The lower triangle of a symmetric permutation of one fixed sparsity
/// pattern, reduced to what does not depend on the values: the permuted
/// pattern's entries with `col ≤ row` and, for each of them, where in the
/// source matrix the value comes from. Applying it is a gather — no
/// triplets, no sort.
#[derive(Debug, Clone)]
pub struct MatrixGather {
    source: Arc<CsrPattern>,
    src: Vec<u32>,
    /// The permuted lower triangle, refilled by each
    /// [`MatrixGather::apply`].
    permuted: CsrMatrix,
}

impl MatrixGather {
    /// True when this plan was built for exactly this pattern allocation.
    pub fn is_for(&self, pattern: &CsrPattern) -> bool {
        std::ptr::eq(&*self.source, pattern)
    }

    /// The lower triangle of the permuted matrix for `a` — bit for bit the
    /// `col ≤ row` entries [`Permutation::apply_matrix`] returns — and
    /// whether any of its values differs in some bit from the previous
    /// `apply`'s (on the first, from a fill of +0.0). Entries above the
    /// diagonal are neither read nor compared.
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
    use proptest::prelude::*;

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
        assert_eq!(a, b);
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

    /// The `col ≤ row` entries of `m`, values copied bit for bit.
    fn lower_triangle(m: &CsrMatrix) -> CsrMatrix {
        let (rp, ci) = (m.pattern().row_ptr(), m.pattern().col_idx());
        let mut row_ptr = vec![0];
        let (mut cols, mut vals) = (Vec::new(), Vec::new());
        for r in 0..m.nrows() {
            for k in rp[r]..rp[r + 1] {
                if ci[k] as usize <= r {
                    cols.push(ci[k]);
                    vals.push(m.values()[k]);
                }
            }
            row_ptr.push(cols.len());
        }
        let pattern = CsrPattern::new(m.nrows(), m.ncols(), row_ptr, cols).unwrap();
        CsrMatrix::with_pattern(Arc::new(pattern), vals).unwrap()
    }

    fn bits(m: &CsrMatrix) -> Vec<u64> {
        m.values().iter().map(|v| v.to_bits()).collect()
    }

    /// A permutation of `0..n`: the identity for `seed` 0, else a
    /// Fisher-Yates shuffle driven by a xorshift generator.
    fn shuffled(n: usize, seed: u64) -> Permutation {
        let mut perm: Vec<u32> = (0..n as u32).collect();
        let mut x = seed;
        for i in (1..n).rev().filter(|_| seed != 0) {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            perm.swap(i, (x % (i as u64 + 1)) as usize);
        }
        Permutation::new(perm).unwrap()
    }

    /// An assembled stiffness's pattern over a node graph: every node is
    /// a dense `dpn`-dof block and every edge couples two nodes' blocks
    /// both ways — structurally symmetric, with a full diagonal.
    fn fe_pattern(nodes: usize, dpn: usize, edges: &[(usize, usize)]) -> CsrMatrix {
        let n = nodes * dpn;
        let mut coo = CooMatrix::new(n, n);
        let mut couple = |a: usize, b: usize| {
            for i in 0..dpn {
                for j in 0..dpn {
                    coo.push(a * dpn + i, b * dpn + j, 1.0);
                }
            }
        };
        for a in 0..nodes {
            couple(a, a);
        }
        for &(a, b) in edges {
            couple(a % nodes, b % nodes);
            couple(b % nodes, a % nodes);
        }
        coo.to_csr()
    }

    /// Round `round`'s values: signed zeros everywhere, a NaN and an
    /// infinity in round 2.
    fn fill(a: &mut CsrMatrix, round: u32) {
        for (k, v) in a.values_mut().iter_mut().enumerate() {
            *v = match (k as u32 + round) % 7 {
                0 => -0.0,
                1 => 0.0,
                2 if round == 2 => f64::NAN,
                3 if round == 2 => f64::NEG_INFINITY,
                m => (k as f64 - 11.5) * (m as f64 + 0.25),
            };
        }
    }

    /// The gather against its oracle, the lower triangle of
    /// `apply_matrix`, over rounds of values: the same pattern, the same
    /// bits (-0.0 -> +0.0 included), and `changed` exactly when a bit of
    /// the lower triangle moved. Then the `changed` cases: the same values
    /// (NaN included), a source zero that flips its sign, one ulp in the
    /// lower triangle and one above it.
    fn assert_gathers_the_lower_triangle(mut a: CsrMatrix, p: &Permutation) -> MatrixGather {
        let mut gather = p.gather_for(&a.pattern_arc()).unwrap();
        let mut before = vec![0u64; gather.src.len()];
        for round in 0..3u32 {
            fill(&mut a, round);
            let want = lower_triangle(&p.apply_matrix(&a).unwrap());
            let (got, changed) = gather.apply(&a);
            assert_eq!(got.pattern(), want.pattern(), "round {round}");
            assert_eq!(bits(got), bits(&want), "round {round}");
            assert_eq!(changed, bits(&want) != before, "round {round}");
            before = bits(&want);
        }
        let (got, changed) = gather.apply(&a);
        assert!(!changed);
        let neg_zero = (-0.0f64).to_bits();
        assert!(got.values().iter().all(|v| v.to_bits() != neg_zero));
        let Some(&lower) = gather.src.first() else {
            return gather;
        };
        let lower = lower as usize;
        a.values_mut()[lower] = 0.0;
        gather.apply(&a);
        a.values_mut()[lower] = -0.0;
        assert!(!gather.apply(&a).1);
        a.values_mut()[lower] = f64::from_bits(a.values()[lower].to_bits() + 1);
        assert!(gather.apply(&a).1);
        if let Some(upper) = (0..a.nnz()).find(|k| !gather.src.contains(&(*k as u32))) {
            a.values_mut()[upper] = f64::from_bits(a.values()[upper].to_bits() ^ 1);
            assert!(
                !gather.apply(&a).1,
                "an entry above the diagonal is not read"
            );
        }
        gather
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn gather_is_bit_identical_to_the_lower_triangle_of_apply_matrix(
            n in 1usize..30,
            seed in any::<u64>(),
            entries in prop::collection::vec((0usize..30, 0usize..30), 0..120)
        ) {
            // Any pattern: unsymmetric, rows empty, diagonals missing.
            let mut coo = CooMatrix::new(n, n);
            for &(i, j) in &entries {
                coo.push(i % n, j % n, 1.0);
            }
            assert_gathers_the_lower_triangle(coo.to_csr(), &shuffled(n, seed));
        }

        #[test]
        fn fe_shaped_gather_keeps_half_the_off_diagonal(
            nodes in 1usize..20,
            dpn in 1usize..5,
            seed in any::<u64>(),
            ordering in 0usize..3,
            edges in prop::collection::vec((0usize..20, 0usize..20), 0..50)
        ) {
            // Natural, shuffled and RCM order, as the solver runs it.
            let a = fe_pattern(nodes, dpn, &edges);
            let n = a.nrows();
            let p = match ordering {
                0 => Permutation::identity(n),
                1 => shuffled(n, seed),
                _ => rcm(a.pattern()),
            };
            let nnz = a.nnz();
            let gather = assert_gathers_the_lower_triangle(a, &p);
            prop_assert_eq!(gather.src.len(), (nnz + n) / 2);
        }
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
