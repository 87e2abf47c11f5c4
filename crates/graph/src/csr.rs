//! Compressed sparse row (CSR) storage.
//!
//! A [`Csr`] stores a jagged array of rows in two flat vectors: `offsets`
//! (row boundaries, length `rows + 1`) and `data`. Every adjacency list,
//! SCC membership table and closure table in the engine is a `Csr`, which
//! keeps row access to a single pair of bounds-checked slice reads and the
//! whole structure in two allocations.

use std::fmt;

/// A jagged array stored in compressed sparse row form.
#[derive(Clone, PartialEq, Eq)]
pub struct Csr<T> {
    offsets: Vec<u32>,
    data: Vec<T>,
}

impl<T> Csr<T> {
    /// Creates an empty CSR with zero rows.
    pub fn new() -> Self {
        Self {
            offsets: vec![0],
            data: Vec::new(),
        }
    }

    /// Builds a CSR from an iterator of `(row, value)` items.
    ///
    /// Items may arrive in any order; they are counting-sorted into rows.
    /// The relative order of items within one row is preserved (the sort is
    /// stable).
    pub fn from_items<I>(rows: usize, items: I) -> Self
    where
        I: IntoIterator<Item = (usize, T)>,
        T: Copy + Default,
    {
        let items: Vec<(usize, T)> = items.into_iter().collect();
        let mut counts = vec![0u32; rows + 1];
        for &(row, _) in &items {
            debug_assert!(row < rows, "row {row} out of bounds ({rows} rows)");
            counts[row + 1] += 1;
        }
        for i in 0..rows {
            counts[i + 1] += counts[i];
        }
        let offsets = counts.clone();
        let mut data = vec![T::default(); items.len()];
        let mut cursor = counts;
        for (row, value) in items {
            let at = cursor[row] as usize;
            data[at] = value;
            cursor[row] += 1;
        }
        Self { offsets, data }
    }

    /// Builds a CSR directly from per-row vectors.
    pub fn from_rows<I, R>(rows: I) -> Self
    where
        I: IntoIterator<Item = R>,
        R: IntoIterator<Item = T>,
    {
        let mut offsets = vec![0u32];
        let mut data = Vec::new();
        for row in rows {
            data.extend(row);
            debug_assert!(data.len() <= u32::MAX as usize, "CSR data overflow");
            offsets.push(data.len() as u32);
        }
        Self { offsets, data }
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Total number of stored items across all rows.
    #[inline]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the CSR stores no items at all.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Returns row `i` as a slice.
    #[inline]
    pub fn row(&self, i: usize) -> &[T] {
        let start = self.offsets[i] as usize;
        let end = self.offsets[i + 1] as usize;
        &self.data[start..end]
    }

    /// Returns the length of row `i` without touching the data array.
    #[inline]
    pub fn row_len(&self, i: usize) -> usize {
        (self.offsets[i + 1] - self.offsets[i]) as usize
    }

    /// Iterates over all rows as slices.
    pub fn iter_rows(&self) -> impl Iterator<Item = &[T]> + '_ {
        (0..self.rows()).map(move |i| self.row(i))
    }

    /// Iterates over `(row_index, item)` pairs in row order.
    pub fn iter_entries(&self) -> impl Iterator<Item = (usize, &T)> + '_ {
        (0..self.rows()).flat_map(move |i| self.row(i).iter().map(move |t| (i, t)))
    }

    /// Appends a row built from an iterator. Only valid when constructing a
    /// CSR row-by-row in order.
    pub fn push_row<I: IntoIterator<Item = T>>(&mut self, row: I) {
        self.data.extend(row);
        debug_assert!(self.data.len() <= u32::MAX as usize, "CSR data overflow");
        self.offsets.push(self.data.len() as u32);
    }

    /// Approximate heap footprint in bytes, for the size experiments.
    pub fn heap_bytes(&self) -> usize {
        self.offsets.capacity() * std::mem::size_of::<u32>()
            + self.data.capacity() * std::mem::size_of::<T>()
    }
}

impl<T> Default for Csr<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T: fmt::Debug> fmt::Debug for Csr<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter_rows()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_csr() {
        let csr: Csr<u32> = Csr::new();
        assert_eq!(csr.rows(), 0);
        assert_eq!(csr.len(), 0);
        assert!(csr.is_empty());
    }

    #[test]
    fn from_items_counting_sort() {
        let csr = Csr::from_items(4, vec![(2, 20u32), (0, 1), (2, 21), (0, 2), (3, 30)]);
        assert_eq!(csr.rows(), 4);
        assert_eq!(csr.row(0), &[1, 2]);
        assert_eq!(csr.row(1), &[] as &[u32]);
        assert_eq!(csr.row(2), &[20, 21]);
        assert_eq!(csr.row(3), &[30]);
        assert_eq!(csr.len(), 5);
    }

    #[test]
    fn from_items_is_stable_within_rows() {
        let csr = Csr::from_items(1, vec![(0, 3u32), (0, 1), (0, 2)]);
        assert_eq!(csr.row(0), &[3, 1, 2]);
    }

    #[test]
    fn from_rows_matches_push_row() {
        let a = Csr::from_rows(vec![vec![1u32, 2], vec![], vec![3]]);
        let mut b = Csr::new();
        b.push_row(vec![1u32, 2]);
        b.push_row(vec![]);
        b.push_row(vec![3]);
        assert_eq!(a, b);
        assert_eq!(a.rows(), 3);
        assert_eq!(a.row_len(0), 2);
        assert_eq!(a.row_len(1), 0);
        assert_eq!(a.row_len(2), 1);
    }

    #[test]
    fn iter_entries_yields_row_order() {
        let csr = Csr::from_rows(vec![vec![10u32], vec![20, 21]]);
        let entries: Vec<(usize, u32)> = csr.iter_entries().map(|(r, &v)| (r, v)).collect();
        assert_eq!(entries, vec![(0, 10), (1, 20), (1, 21)]);
    }

    #[test]
    fn iter_rows_covers_all_rows() {
        let csr = Csr::from_rows(vec![vec![1u32], vec![], vec![2, 3]]);
        let rows: Vec<Vec<u32>> = csr.iter_rows().map(|r| r.to_vec()).collect();
        assert_eq!(rows, vec![vec![1], vec![], vec![2, 3]]);
    }

    #[test]
    fn debug_format_lists_rows() {
        let csr = Csr::from_rows(vec![vec![1u32], vec![2]]);
        assert_eq!(format!("{csr:?}"), "[[1], [2]]");
    }
}
