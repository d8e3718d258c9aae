//! A minimal row-major dense matrix.

/// Row-major dense matrix of `f64`.
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// An all-zero matrix.
    pub fn zeros(rows: usize, cols: usize) -> Matrix {
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Build from a generator `f(row, col)`.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f64) -> Matrix {
        let mut m = Matrix::zeros(rows, cols);
        for r in 0..rows {
            for c in 0..cols {
                m[(r, c)] = f(r, c);
            }
        }
        m
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Row `r` as a slice.
    pub fn row(&self, r: usize) -> &[f64] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// The underlying row-major storage.
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// The underlying row-major storage, mutably.
    pub(crate) fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Swap two rows.
    pub fn swap_rows(&mut self, a: usize, b: usize) {
        if a == b {
            return;
        }
        let (lo, hi) = (a.min(b), a.max(b));
        let (top, bot) = self.data.split_at_mut(hi * self.cols);
        top[lo * self.cols..(lo + 1) * self.cols].swap_with_slice(&mut bot[..self.cols]);
    }
}

impl std::ops::Index<(usize, usize)> for Matrix {
    type Output = f64;
    #[inline]
    fn index(&self, (r, c): (usize, usize)) -> &f64 {
        debug_assert!(r < self.rows && c < self.cols);
        &self.data[r * self.cols + c]
    }
}

impl std::ops::IndexMut<(usize, usize)> for Matrix {
    #[inline]
    fn index_mut(&mut self, (r, c): (usize, usize)) -> &mut f64 {
        debug_assert!(r < self.rows && c < self.cols);
        &mut self.data[r * self.cols + c]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_indexing() {
        let m = Matrix::from_fn(3, 2, |r, c| (r * 10 + c) as f64);
        assert_eq!(m.rows(), 3);
        assert_eq!(m.cols(), 2);
        assert_eq!(m[(2, 1)], 21.0);
        assert_eq!(m.row(1), &[10.0, 11.0]);
    }

    #[test]
    fn swap_rows() {
        let mut m = Matrix::from_fn(3, 3, |r, _| r as f64);
        m.swap_rows(0, 2);
        assert_eq!(m.row(0), &[2.0, 2.0, 2.0]);
        assert_eq!(m.row(2), &[0.0, 0.0, 0.0]);
        m.swap_rows(1, 1);
        assert_eq!(m.row(1), &[1.0, 1.0, 1.0]);
    }
}
