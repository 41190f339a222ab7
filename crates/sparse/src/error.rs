//! Error type shared by all linear-algebra routines in this crate.

use std::error::Error;
use std::fmt;

/// Errors produced by sparse/dense linear-algebra operations.
#[derive(Debug, Clone, PartialEq)]
pub enum SparseError {
    /// Matrix/vector dimensions are incompatible with the requested
    /// operation. Holds a human-readable description of the mismatch.
    DimensionMismatch(String),
    /// An index was outside the matrix bounds.
    IndexOutOfBounds {
        row: usize,
        col: usize,
        nrows: usize,
        ncols: usize,
    },
    /// Factorization hit a (numerically) zero or negative pivot.
    SingularPivot { index: usize, value: f64 },
    /// An iterative solver exhausted its iteration budget without meeting
    /// the convergence tolerance.
    NotConverged { iterations: usize, residual: f64 },
    /// The operation requires a square matrix.
    NotSquare { nrows: usize, ncols: usize },
    /// A numeric factorization was given a matrix whose sparsity pattern
    /// is not the one its symbolic analysis describes; `row` is the first
    /// row whose columns differ.
    PatternMismatch { row: usize },
    /// Input data was malformed (e.g. unsorted column indices where sorted
    /// ones are required).
    InvalidInput(String),
}

impl fmt::Display for SparseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SparseError::DimensionMismatch(msg) => {
                write!(f, "dimension mismatch: {msg}")
            }
            SparseError::IndexOutOfBounds {
                row,
                col,
                nrows,
                ncols,
            } => write!(
                f,
                "index ({row}, {col}) out of bounds for {nrows}x{ncols} matrix"
            ),
            SparseError::SingularPivot { index, value } => {
                write!(
                    f,
                    "singular or indefinite pivot {value:.3e} at index {index}"
                )
            }
            SparseError::NotConverged {
                iterations,
                residual,
            } => write!(
                f,
                "iterative solver failed to converge after {iterations} iterations \
                 (residual {residual:.3e})"
            ),
            SparseError::NotSquare { nrows, ncols } => {
                write!(f, "operation requires a square matrix, got {nrows}x{ncols}")
            }
            SparseError::PatternMismatch { row } => write!(
                f,
                "sparsity pattern differs from the analysed one at row {row}"
            ),
            SparseError::InvalidInput(msg) => write!(f, "invalid input: {msg}"),
        }
    }
}

impl Error for SparseError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_lowercase_and_informative() {
        let e = SparseError::DimensionMismatch("3 vs 4".into());
        assert!(e.to_string().contains("dimension mismatch"));
        let e = SparseError::SingularPivot {
            index: 7,
            value: 0.0,
        };
        assert!(e.to_string().contains("index 7"));
        let e = SparseError::NotConverged {
            iterations: 10,
            residual: 1.0,
        };
        assert!(e.to_string().contains("10 iterations"));
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<SparseError>();
    }
}
