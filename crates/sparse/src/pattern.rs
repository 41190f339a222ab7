//! Sparsity patterns (structure without values).
//!
//! The Belenos trace layer replays memory-access streams derived from the
//! *actual* index arrays of the matrices the FE solver builds, so the
//! pattern is a first-class, shareable object ([`std::sync::Arc`]d by the
//! phase log) separate from the numeric values.

use crate::error::SparseError;
use crate::Result;

/// Compressed sparse row *pattern*: `row_ptr` / `col_idx` without values.
///
/// Invariants (enforced by [`CsrPattern::new`]):
/// * `row_ptr.len() == nrows + 1`, `row_ptr[0] == 0`, non-decreasing;
/// * `col_idx.len() == row_ptr[nrows]`;
/// * every column index is `< ncols`;
/// * column indices are sorted and unique within each row.
///
/// # Examples
///
/// ```
/// use belenos_sparse::CsrPattern;
/// let p = CsrPattern::new(2, 3, vec![0, 2, 3], vec![0, 2, 1]).unwrap();
/// assert_eq!(p.nnz(), 3);
/// assert_eq!(p.row(0), &[0, 2]);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CsrPattern {
    nrows: usize,
    ncols: usize,
    row_ptr: Vec<usize>,
    col_idx: Vec<u32>,
}

impl CsrPattern {
    /// Creates a pattern, validating all structural invariants.
    ///
    /// # Errors
    ///
    /// [`SparseError::InvalidInput`] when any invariant is violated.
    pub fn new(nrows: usize, ncols: usize, row_ptr: Vec<usize>, col_idx: Vec<u32>) -> Result<Self> {
        if row_ptr.len() != nrows + 1 {
            return Err(SparseError::InvalidInput(format!(
                "row_ptr length {} != nrows + 1 = {}",
                row_ptr.len(),
                nrows + 1
            )));
        }
        if row_ptr[0] != 0 {
            return Err(SparseError::InvalidInput("row_ptr[0] must be 0".into()));
        }
        if *row_ptr.last().unwrap() != col_idx.len() {
            return Err(SparseError::InvalidInput(format!(
                "row_ptr[nrows] = {} != col_idx.len() = {}",
                row_ptr[nrows],
                col_idx.len()
            )));
        }
        for w in row_ptr.windows(2) {
            if w[1] < w[0] {
                return Err(SparseError::InvalidInput(
                    "row_ptr must be non-decreasing".into(),
                ));
            }
        }
        for r in 0..nrows {
            let row = &col_idx[row_ptr[r]..row_ptr[r + 1]];
            for w in row.windows(2) {
                if w[1] <= w[0] {
                    return Err(SparseError::InvalidInput(format!(
                        "row {r}: column indices must be strictly increasing"
                    )));
                }
            }
            if let Some(&last) = row.last() {
                if last as usize >= ncols {
                    return Err(SparseError::InvalidInput(format!(
                        "row {r}: column index {last} >= ncols {ncols}"
                    )));
                }
            }
        }
        Ok(CsrPattern {
            nrows,
            ncols,
            row_ptr,
            col_idx,
        })
    }

    /// Number of rows.
    pub fn nrows(&self) -> usize {
        self.nrows
    }

    /// Number of columns.
    pub fn ncols(&self) -> usize {
        self.ncols
    }

    /// Number of stored entries.
    pub fn nnz(&self) -> usize {
        self.col_idx.len()
    }

    /// The row-pointer array (length `nrows + 1`).
    pub fn row_ptr(&self) -> &[usize] {
        &self.row_ptr
    }

    /// The column-index array (length `nnz`).
    pub fn col_idx(&self) -> &[u32] {
        &self.col_idx
    }

    /// Column indices of row `r`.
    ///
    /// # Panics
    ///
    /// Panics if `r >= nrows`.
    pub fn row(&self, r: usize) -> &[u32] {
        &self.col_idx[self.row_ptr[r]..self.row_ptr[r + 1]]
    }

    /// Average number of nonzeros per row.
    pub fn avg_row_nnz(&self) -> f64 {
        if self.nrows == 0 {
            0.0
        } else {
            self.nnz() as f64 / self.nrows as f64
        }
    }

    /// Matrix bandwidth: `max |i - j|` over stored entries.
    pub fn bandwidth(&self) -> usize {
        let mut bw = 0usize;
        for r in 0..self.nrows {
            for &c in self.row(r) {
                bw = bw.max(r.abs_diff(c as usize));
            }
        }
        bw
    }

    /// Returns `true` if `(r, c)` is a stored position.
    pub fn contains(&self, r: usize, c: usize) -> bool {
        r < self.nrows && c < self.ncols && self.row(r).binary_search(&(c as u32)).is_ok()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> CsrPattern {
        // [ x . x ]
        // [ . x . ]
        // [ x . x ]
        CsrPattern::new(3, 3, vec![0, 2, 3, 5], vec![0, 2, 1, 0, 2]).unwrap()
    }

    #[test]
    fn accessors() {
        let p = sample();
        assert_eq!(p.nrows(), 3);
        assert_eq!(p.ncols(), 3);
        assert_eq!(p.nnz(), 5);
        assert_eq!(p.row(2), &[0, 2]);
        assert!((p.avg_row_nnz() - 5.0 / 3.0).abs() < 1e-15);
    }

    #[test]
    fn bandwidth() {
        assert_eq!(sample().bandwidth(), 2);
    }

    #[test]
    fn contains_checks_membership() {
        let p = sample();
        assert!(p.contains(0, 2));
        assert!(!p.contains(0, 1));
        assert!(!p.contains(5, 0));
    }

    #[test]
    fn rejects_bad_row_ptr() {
        assert!(CsrPattern::new(2, 2, vec![0, 1], vec![0]).is_err());
        assert!(CsrPattern::new(2, 2, vec![1, 1, 1], vec![]).is_err());
        assert!(CsrPattern::new(2, 2, vec![0, 2, 1], vec![0, 1]).is_err());
    }

    #[test]
    fn rejects_unsorted_or_duplicate_columns() {
        assert!(CsrPattern::new(1, 3, vec![0, 2], vec![2, 1]).is_err());
        assert!(CsrPattern::new(1, 3, vec![0, 2], vec![1, 1]).is_err());
    }

    #[test]
    fn rejects_out_of_range_column() {
        assert!(CsrPattern::new(1, 2, vec![0, 1], vec![5]).is_err());
    }
}
