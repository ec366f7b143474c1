//! Compressed sparse row matrix.

/// Immutable CSR matrix with `f32` values.
///
/// Invariants: `indptr.len() == rows + 1`, `indptr` is non-decreasing,
/// column indices within each row are strictly increasing, and every column
/// index is `< cols`. [`CsrMatrix::validate`] checks these in tests.
#[derive(Clone, Debug, PartialEq)]
pub struct CsrMatrix {
    rows: usize,
    cols: usize,
    indptr: Vec<usize>,
    indices: Vec<u32>,
    values: Vec<f32>,
}

impl CsrMatrix {
    /// Construct from raw parts (debug-asserts the invariants).
    pub fn from_parts(
        rows: usize,
        cols: usize,
        indptr: Vec<usize>,
        indices: Vec<u32>,
        values: Vec<f32>,
    ) -> Self {
        let m = CsrMatrix { rows, cols, indptr, indices, values };
        debug_assert!(m.validate().is_ok(), "{:?}", m.validate());
        m
    }

    /// An all-zero matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        CsrMatrix { rows, cols, indptr: vec![0; rows + 1], indices: Vec::new(), values: Vec::new() }
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Number of stored (structurally nonzero) entries.
    #[inline]
    pub fn nnz(&self) -> usize {
        self.indices.len()
    }

    /// Column indices of row `i` (strictly increasing).
    #[inline]
    pub fn row_indices(&self, i: usize) -> &[u32] {
        &self.indices[self.indptr[i]..self.indptr[i + 1]]
    }

    /// Values of row `i`, parallel to [`CsrMatrix::row_indices`].
    #[inline]
    pub fn row_values(&self, i: usize) -> &[f32] {
        &self.values[self.indptr[i]..self.indptr[i + 1]]
    }

    /// `(indices, values)` of row `i`.
    #[inline]
    pub fn row(&self, i: usize) -> (&[u32], &[f32]) {
        (self.row_indices(i), self.row_values(i))
    }

    /// Number of stored entries in row `i`.
    #[inline]
    pub fn row_nnz(&self, i: usize) -> usize {
        self.indptr[i + 1] - self.indptr[i]
    }

    /// Value at `(i, j)` (0.0 if structurally zero).
    pub fn get(&self, i: usize, j: usize) -> f32 {
        let (idx, vals) = self.row(i);
        match idx.binary_search(&(j as u32)) {
            Ok(p) => vals[p],
            Err(_) => 0.0,
        }
    }

    /// Mutable access to the values (structure unchanged).
    pub fn values_mut(&mut self) -> &mut [f32] {
        &mut self.values
    }

    /// The row pointer array.
    pub fn indptr(&self) -> &[usize] {
        &self.indptr
    }

    /// Dense copy, for tests and tiny matrices only.
    #[allow(clippy::needless_range_loop)] // index math mirrors the CSR layout
    pub fn to_dense(&self) -> Vec<Vec<f32>> {
        let mut d = vec![vec![0.0; self.cols]; self.rows];
        for i in 0..self.rows {
            let (idx, vals) = self.row(i);
            for (&j, &v) in idx.iter().zip(vals) {
                d[i][j as usize] = v;
            }
        }
        d
    }

    /// Build from a dense matrix, dropping zeros (tests only).
    pub fn from_dense(d: &[Vec<f32>]) -> Self {
        let rows = d.len();
        let cols = d.first().map_or(0, Vec::len);
        let mut indptr = Vec::with_capacity(rows + 1);
        let mut indices = Vec::new();
        let mut values = Vec::new();
        indptr.push(0);
        for row in d {
            for (j, &v) in row.iter().enumerate() {
                if v != 0.0 {
                    indices.push(j as u32);
                    values.push(v);
                }
            }
            indptr.push(indices.len());
        }
        CsrMatrix::from_parts(rows, cols, indptr, indices, values)
    }

    /// Check the CSR invariants.
    pub fn validate(&self) -> Result<(), String> {
        if self.indptr.len() != self.rows + 1 {
            return Err(format!("indptr len {} != rows+1 {}", self.indptr.len(), self.rows + 1));
        }
        if self.indptr[0] != 0 || *self.indptr.last().unwrap() != self.indices.len() {
            return Err("indptr endpoints wrong".into());
        }
        if self.indices.len() != self.values.len() {
            return Err("indices/values length mismatch".into());
        }
        for i in 0..self.rows {
            if self.indptr[i] > self.indptr[i + 1] {
                return Err(format!("indptr decreasing at row {i}"));
            }
            let idx = self.row_indices(i);
            for w in idx.windows(2) {
                if w[0] >= w[1] {
                    return Err(format!("row {i} indices not strictly increasing"));
                }
            }
            if let Some(&last) = idx.last() {
                if last as usize >= self.cols {
                    return Err(format!("row {i} column {last} out of range"));
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn m() -> CsrMatrix {
        // [1 0 2]
        // [0 0 0]
        // [3 4 0]
        CsrMatrix::from_dense(&[vec![1.0, 0.0, 2.0], vec![0.0, 0.0, 0.0], vec![3.0, 4.0, 0.0]])
    }

    #[test]
    fn dense_roundtrip() {
        let a = m();
        assert_eq!(a.rows(), 3);
        assert_eq!(a.cols(), 3);
        assert_eq!(a.nnz(), 4);
        assert_eq!(a.to_dense()[2], vec![3.0, 4.0, 0.0]);
        assert_eq!(CsrMatrix::from_dense(&a.to_dense()), a);
    }

    #[test]
    fn get_and_rows() {
        let a = m();
        assert_eq!(a.get(0, 2), 2.0);
        assert_eq!(a.get(0, 1), 0.0);
        assert_eq!(a.row_indices(2), &[0, 1]);
        assert_eq!(a.row_values(2), &[3.0, 4.0]);
        assert_eq!(a.row_nnz(1), 0);
    }

    #[test]
    fn zeros_is_valid() {
        let z = CsrMatrix::zeros(4, 5);
        assert_eq!(z.nnz(), 0);
        assert!(z.validate().is_ok());
        assert_eq!(z.get(3, 4), 0.0);
    }

    #[test]
    fn validate_catches_corruption() {
        let bad = CsrMatrix {
            rows: 1,
            cols: 2,
            indptr: vec![0, 2],
            indices: vec![1, 0], // not increasing
            values: vec![1.0, 1.0],
        };
        assert!(bad.validate().is_err());
    }
}
