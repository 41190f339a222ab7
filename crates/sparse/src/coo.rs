//! Coordinate (triplet) format — the natural target of FE assembly.
//!
//! Finite-element assembly scatters small dense element matrices into the
//! global system; the usual implementation accumulates `(row, col, value)`
//! triplets and compresses them to CSR once per sparsity pattern. This is
//! exactly FEBio's pipeline and is what the Belenos paper's "internal
//! functions" hotspot category spends its time doing.

use crate::csr::CsrMatrix;

/// A growable coordinate-format sparse matrix.
///
/// Duplicate entries are allowed and are *summed* during conversion to CSR,
/// matching assembly semantics.
///
/// # Examples
///
/// ```
/// use belenos_sparse::CooMatrix;
/// let mut coo = CooMatrix::new(2, 2);
/// coo.push(0, 0, 1.0);
/// coo.push(0, 0, 2.0); // accumulates
/// let csr = coo.to_csr();
/// assert_eq!(csr.get(0, 0), 3.0);
/// ```
#[derive(Debug, Clone, Default)]
pub struct CooMatrix {
    nrows: usize,
    ncols: usize,
    rows: Vec<u32>,
    cols: Vec<u32>,
    vals: Vec<f64>,
}

impl CooMatrix {
    /// Creates an empty `nrows x ncols` triplet accumulator.
    pub fn new(nrows: usize, ncols: usize) -> Self {
        CooMatrix {
            nrows,
            ncols,
            rows: Vec::new(),
            cols: Vec::new(),
            vals: Vec::new(),
        }
    }

    /// Creates an accumulator with reserved capacity for `cap` triplets.
    pub fn with_capacity(nrows: usize, ncols: usize, cap: usize) -> Self {
        CooMatrix {
            nrows,
            ncols,
            rows: Vec::with_capacity(cap),
            cols: Vec::with_capacity(cap),
            vals: Vec::with_capacity(cap),
        }
    }

    /// Number of rows.
    pub fn nrows(&self) -> usize {
        self.nrows
    }

    /// Number of columns.
    pub fn ncols(&self) -> usize {
        self.ncols
    }

    /// Number of stored triplets (duplicates counted separately).
    pub fn len(&self) -> usize {
        self.vals.len()
    }

    /// True when no triplets are stored.
    pub fn is_empty(&self) -> bool {
        self.vals.is_empty()
    }

    /// Appends a triplet.
    ///
    /// # Panics
    ///
    /// Panics if `row`/`col` are out of bounds (assembly bugs should fail
    /// fast, not corrupt the matrix).
    pub fn push(&mut self, row: usize, col: usize, val: f64) {
        assert!(
            row < self.nrows && col < self.ncols,
            "triplet ({row}, {col}) out of bounds for {}x{}",
            self.nrows,
            self.ncols
        );
        self.rows.push(row as u32);
        self.cols.push(col as u32);
        self.vals.push(val);
    }

    /// Clears all triplets, keeping capacity.
    pub fn clear(&mut self) {
        self.rows.clear();
        self.cols.clear();
        self.vals.clear();
    }

    /// Compresses to CSR, summing duplicates and sorting columns per row.
    pub fn to_csr(&self) -> CsrMatrix {
        // Count entries per row (with duplicates).
        let mut counts = vec![0usize; self.nrows + 1];
        for &r in &self.rows {
            counts[r as usize + 1] += 1;
        }
        for i in 0..self.nrows {
            counts[i + 1] += counts[i];
        }
        // Bucket triplets by row.
        let mut col_tmp = vec![0u32; self.vals.len()];
        let mut val_tmp = vec![0.0f64; self.vals.len()];
        let mut cursor = counts.clone();
        for k in 0..self.vals.len() {
            let r = self.rows[k] as usize;
            let dst = cursor[r];
            col_tmp[dst] = self.cols[k];
            val_tmp[dst] = self.vals[k];
            cursor[r] += 1;
        }
        // Per-row: sort by column, merge duplicates.
        let mut row_ptr = Vec::with_capacity(self.nrows + 1);
        let mut col_idx = Vec::with_capacity(self.vals.len());
        let mut vals = Vec::with_capacity(self.vals.len());
        row_ptr.push(0usize);
        let mut scratch: Vec<(u32, f64)> = Vec::new();
        for r in 0..self.nrows {
            scratch.clear();
            for k in counts[r]..counts[r + 1] {
                scratch.push((col_tmp[k], val_tmp[k]));
            }
            scratch.sort_unstable_by_key(|&(c, _)| c);
            let mut i = 0;
            while i < scratch.len() {
                let c = scratch[i].0;
                let mut acc = 0.0;
                while i < scratch.len() && scratch[i].0 == c {
                    acc += scratch[i].1;
                    i += 1;
                }
                col_idx.push(c);
                vals.push(acc);
            }
            row_ptr.push(col_idx.len());
        }
        CsrMatrix::from_parts_unchecked(self.nrows, self.ncols, row_ptr, col_idx, vals)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_coo_gives_empty_csr() {
        let coo = CooMatrix::new(3, 3);
        assert!(coo.is_empty());
        let csr = coo.to_csr();
        assert_eq!(csr.nnz(), 0);
        assert_eq!(csr.nrows(), 3);
    }

    #[test]
    fn duplicates_are_summed() {
        let mut coo = CooMatrix::new(2, 2);
        coo.push(1, 1, 1.5);
        coo.push(1, 1, 2.5);
        coo.push(0, 1, -1.0);
        let csr = coo.to_csr();
        assert_eq!(csr.get(1, 1), 4.0);
        assert_eq!(csr.get(0, 1), -1.0);
        assert_eq!(csr.nnz(), 2);
    }

    #[test]
    fn columns_are_sorted_after_compression() {
        let mut coo = CooMatrix::new(1, 4);
        coo.push(0, 3, 3.0);
        coo.push(0, 0, 0.5);
        coo.push(0, 2, 2.0);
        let csr = coo.to_csr();
        assert_eq!(csr.pattern().row(0), &[0, 2, 3]);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn push_out_of_bounds_panics() {
        let mut coo = CooMatrix::new(2, 2);
        coo.push(2, 0, 1.0);
    }

    #[test]
    fn clear_retains_shape() {
        let mut coo = CooMatrix::new(2, 2);
        coo.push(0, 0, 1.0);
        coo.clear();
        assert!(coo.is_empty());
        assert_eq!(coo.nrows(), 2);
    }
}
