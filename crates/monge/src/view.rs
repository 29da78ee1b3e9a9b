//! Borrowing views over (min,+) matrices.
//!
//! The divide-and-conquer merge used to extract its (min,+) product factors
//! with [`MinPlusMatrix::submatrix`], copying `O(|rows| · |cols|)` entries
//! per recursion node even though the Monge check and the product read each
//! entry only a handful of times.  These views make block extraction free:
//!
//! * [`MatrixAccess`] — the read-only matrix interface everything in this
//!   crate is generic over (the Monge predicate, SMAWK-based products, the
//!   divide-and-conquer merge);
//! * [`SubmatrixView`] — a borrowed block `(row_ids × col_ids)` of a base
//!   matrix, resolving `(i, j)` through the index slices on the fly.

use crate::matrix::{Entry, MinPlusMatrix};

/// Read-only access to an `rows x cols` (min,+) matrix.  Implemented by the
/// dense [`MinPlusMatrix`] and by the borrowing views of this module, so
/// algorithms written against it work on owned matrices and views alike.
pub trait MatrixAccess {
    /// Number of rows.
    fn rows(&self) -> usize;
    /// Number of columns.
    fn cols(&self) -> usize;
    /// Entry at `(i, j)`.
    fn at(&self, i: usize, j: usize) -> Entry;
}

impl MatrixAccess for MinPlusMatrix {
    fn rows(&self) -> usize {
        MinPlusMatrix::rows(self)
    }
    fn cols(&self) -> usize {
        MinPlusMatrix::cols(self)
    }
    #[inline]
    fn at(&self, i: usize, j: usize) -> Entry {
        self.get(i, j)
    }
}

impl<M: MatrixAccess + ?Sized> MatrixAccess for &M {
    fn rows(&self) -> usize {
        (**self).rows()
    }
    fn cols(&self) -> usize {
        (**self).cols()
    }
    #[inline]
    fn at(&self, i: usize, j: usize) -> Entry {
        (**self).at(i, j)
    }
}

/// A borrowed submatrix: row `i` of the view is row `row_ids[i]` of the base
/// matrix, and likewise for columns.  Construction validates the index
/// slices once; every access is then two slice lookups plus the base access.
pub struct SubmatrixView<'a> {
    base: &'a MinPlusMatrix,
    row_ids: &'a [usize],
    col_ids: &'a [usize],
}

impl<'a> SubmatrixView<'a> {
    /// View the block of `base` selected by `row_ids` and `col_ids` (both
    /// must be in range; duplicates and arbitrary order are allowed, as in
    /// [`MinPlusMatrix::submatrix`]).
    pub fn new(base: &'a MinPlusMatrix, row_ids: &'a [usize], col_ids: &'a [usize]) -> Self {
        assert!(row_ids.iter().all(|&i| i < base.rows()), "row id out of range");
        assert!(col_ids.iter().all(|&j| j < base.cols()), "col id out of range");
        SubmatrixView { base, row_ids, col_ids }
    }

    /// Materialise the view as an owned matrix (rarely needed; the point of
    /// the view is *not* doing this on hot paths).
    pub fn to_matrix(&self) -> MinPlusMatrix {
        MinPlusMatrix::from_fn(self.rows(), self.cols(), |i, j| self.at(i, j))
    }
}

impl MatrixAccess for SubmatrixView<'_> {
    fn rows(&self) -> usize {
        self.row_ids.len()
    }
    fn cols(&self) -> usize {
        self.col_ids.len()
    }
    #[inline]
    fn at(&self, i: usize, j: usize) -> Entry {
        self.base.get(self.row_ids[i], self.col_ids[j])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn submatrix_view_matches_owned_extraction() {
        let m = MinPlusMatrix::from_fn(5, 6, |i, j| (i * 6 + j) as Entry);
        let rows = [0usize, 2, 4];
        let cols = [1usize, 1, 5];
        let view = SubmatrixView::new(&m, &rows, &cols);
        let owned = m.submatrix(&rows, &cols);
        assert_eq!((view.rows(), view.cols()), (owned.rows(), owned.cols()));
        for i in 0..view.rows() {
            for j in 0..view.cols() {
                assert_eq!(view.at(i, j), owned.get(i, j));
            }
        }
        assert_eq!(view.to_matrix(), owned);
    }

    #[test]
    #[should_panic(expected = "row id out of range")]
    fn submatrix_view_validates_indices() {
        let m = MinPlusMatrix::infinity(2, 2);
        let _ = SubmatrixView::new(&m, &[2], &[0]);
    }
}
