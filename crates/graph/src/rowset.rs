//! Hybrid sparse/dense vertex-set rows with word-parallel set algebra.
//!
//! A [`RowSet`] is a set of `u32` ids stored either as a **sorted vector**
//! (`Sparse`) or as a **bitset** (`Dense`). Dense rows union, intersect and
//! subtract 64 elements per instruction and count via `popcnt`; sparse rows
//! pay per element but cost only `4·len` bytes. The break-even density is
//! roughly `1/16`–`1/32` of the universe (a dense row costs `universe/8`
//! bytes against the sparse row's `4·len`), which is why a row is a bitset
//! once it holds at least `1/32` of its universe ([`RowSet::wants_dense`])
//! and a sorted vector below that. That one rule picks every row's layout.
//!
//! Closure tables ([`crate::Csr`]'s successor in `rpq_reduction`) hold one
//! `RowSet` per source; [`crate::PairSet`] reuses the same rows for its
//! grouped-by-start backing, so a dense SCC-level closure row is shared
//! untouched from construction through expansion to the final result set.

use std::fmt;

/// A row holding at least `1/DENSE_FRACTION` of its universe is a bitset.
/// At exactly `1/32` the two layouts cost the same memory (`universe/8`
/// bytes against `4·universe/32`); the bitset wins on every set operation
/// from there up.
const DENSE_FRACTION: u64 = 32;

/// Field-less: [`RowSet::wants_dense`] picks every row's layout, with
/// nothing to choose. The type stays only because the benchmark harness's
/// trace probe names it (`EngineConfig::representation`,
/// `Rtc::from_pairs_with`, `closure_of_condensation_rows`); no code reads
/// it, and it goes when the probe names are released (ROADMAP 4g).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RowSetPolicy;

/// A bitset row: `words[i] bit b` ⇔ id `64·i + b` is present. The universe
/// is implicit (`64 · words.len()`); trailing zero words are permitted and
/// ignored by comparisons.
#[derive(Clone, Default)]
pub struct DenseRow {
    words: Vec<u64>,
    len: u32,
}

impl DenseRow {
    #[inline]
    fn word_of(id: u32) -> usize {
        (id / 64) as usize
    }

    #[inline]
    fn mask_of(id: u32) -> u64 {
        1u64 << (id % 64)
    }

    fn grow_to(&mut self, words: usize) {
        if self.words.len() < words {
            self.words.resize(words, 0);
        }
    }

    fn recount(&mut self) {
        self.len = self.words.iter().map(|w| w.count_ones()).sum();
    }

    /// Set bits ascending.
    fn iter(&self) -> impl Iterator<Item = u32> + '_ {
        self.words.iter().enumerate().flat_map(|(wi, &word)| {
            let mut bits = word;
            std::iter::from_fn(move || {
                if bits == 0 {
                    None
                } else {
                    let b = bits.trailing_zeros();
                    bits &= bits - 1;
                    Some(wi as u32 * 64 + b)
                }
            })
        })
    }
}

/// A hybrid set of `u32` ids: sorted vector or bitset, with value
/// semantics independent of the representation (`PartialEq`/`Eq` compare
/// contents, never the backing).
#[derive(Clone)]
pub enum RowSet {
    /// Strictly ascending ids.
    Sparse(Vec<u32>),
    /// Word-parallel bitset.
    Dense(DenseRow),
}

impl Default for RowSet {
    fn default() -> Self {
        RowSet::Sparse(Vec::new())
    }
}

impl RowSet {
    /// The empty set (sparse; promotes on demand).
    pub fn empty() -> Self {
        Self::default()
    }

    /// A one-element set.
    pub fn singleton(id: u32) -> Self {
        RowSet::Sparse(vec![id])
    }

    /// Builds from a strictly ascending vector without copying.
    ///
    /// Debug-asserts sortedness/uniqueness — feeding unsorted data is a
    /// logic error upstream.
    pub fn from_sorted_vec(ids: Vec<u32>) -> Self {
        debug_assert!(ids.windows(2).all(|w| w[0] < w[1]), "row must be sorted");
        RowSet::Sparse(ids)
    }

    /// Builds from arbitrary ids: sorts and dedups.
    pub fn from_unsorted(mut ids: Vec<u32>) -> Self {
        ids.sort_unstable();
        ids.dedup();
        RowSet::Sparse(ids)
    }

    /// Builds a dense row directly from set bits over `universe` ids.
    pub fn dense_from_iter(universe: u32, ids: impl IntoIterator<Item = u32>) -> Self {
        let mut row = DenseRow {
            words: vec![0; (universe as usize).div_ceil(64)],
            len: 0,
        };
        for id in ids {
            row.grow_to(DenseRow::word_of(id) + 1);
            row.words[DenseRow::word_of(id)] |= DenseRow::mask_of(id);
        }
        row.recount();
        RowSet::Dense(row)
    }

    /// Number of elements (`popcnt` on dense rows, cached).
    #[inline]
    pub fn len(&self) -> usize {
        match self {
            RowSet::Sparse(v) => v.len(),
            RowSet::Dense(d) => d.len as usize,
        }
    }

    /// Whether the set is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Whether the backing is the dense bitset.
    #[inline]
    pub fn is_dense(&self) -> bool {
        matches!(self, RowSet::Dense(_))
    }

    /// Membership test: binary search (sparse) or bit probe (dense).
    #[inline]
    pub fn contains(&self, id: u32) -> bool {
        match self {
            RowSet::Sparse(v) => v.binary_search(&id).is_ok(),
            RowSet::Dense(d) => d
                .words
                .get(DenseRow::word_of(id))
                .is_some_and(|w| w & DenseRow::mask_of(id) != 0),
        }
    }

    /// Largest element, if any.
    pub fn max(&self) -> Option<u32> {
        match self {
            RowSet::Sparse(v) => v.last().copied(),
            RowSet::Dense(d) => d
                .words
                .iter()
                .enumerate()
                .rev()
                .find_map(|(wi, &w)| (w != 0).then(|| wi as u32 * 64 + 63 - w.leading_zeros())),
        }
    }

    /// Inserts `id`; returns whether the set changed.
    pub fn insert(&mut self, id: u32) -> bool {
        match self {
            RowSet::Sparse(v) => match v.binary_search(&id) {
                Ok(_) => false,
                Err(pos) => {
                    v.insert(pos, id);
                    true
                }
            },
            RowSet::Dense(d) => {
                d.grow_to(DenseRow::word_of(id) + 1);
                let w = &mut d.words[DenseRow::word_of(id)];
                let mask = DenseRow::mask_of(id);
                if *w & mask != 0 {
                    false
                } else {
                    *w |= mask;
                    d.len += 1;
                    true
                }
            }
        }
    }

    /// Removes `id`; returns whether the set changed.
    pub fn remove(&mut self, id: u32) -> bool {
        match self {
            RowSet::Sparse(v) => match v.binary_search(&id) {
                Ok(pos) => {
                    v.remove(pos);
                    true
                }
                Err(_) => false,
            },
            RowSet::Dense(d) => {
                let Some(w) = d.words.get_mut(DenseRow::word_of(id)) else {
                    return false;
                };
                let mask = DenseRow::mask_of(id);
                if *w & mask == 0 {
                    false
                } else {
                    *w &= !mask;
                    d.len -= 1;
                    true
                }
            }
        }
    }

    /// Elements ascending, regardless of representation.
    pub fn iter(&self) -> RowIter<'_> {
        match self {
            RowSet::Sparse(v) => RowIter::Sparse(v.iter()),
            RowSet::Dense(d) => RowIter::Dense {
                words: &d.words,
                word_idx: 0,
                bits: d.words.first().copied().unwrap_or(0),
            },
        }
    }

    /// Materializes the elements as a sorted vector.
    pub fn to_vec(&self) -> Vec<u32> {
        match self {
            RowSet::Sparse(v) => v.clone(),
            RowSet::Dense(d) => d.iter().collect(),
        }
    }

    /// `self ∪= other`; returns whether `self` changed.
    ///
    /// Dense ∪= dense is a word-parallel OR. Dense is contagious: a sparse
    /// `self` unioned with a dense `other` promotes, so pipelines never
    /// fall back to element-at-a-time merges once a dense row enters.
    pub fn union_in_place(&mut self, other: &RowSet) -> bool {
        if other.is_empty() {
            return false;
        }
        if self.is_empty() && !self.is_dense() {
            *self = other.clone();
            return true;
        }
        match (&mut *self, other) {
            (RowSet::Dense(d), RowSet::Dense(o)) => {
                d.grow_to(o.words.len());
                let mut changed = false;
                for (dw, &ow) in d.words.iter_mut().zip(&o.words) {
                    let merged = *dw | ow;
                    changed |= merged != *dw;
                    *dw = merged;
                }
                if changed {
                    d.recount();
                }
                changed
            }
            (RowSet::Dense(d), RowSet::Sparse(o)) => {
                let mut changed = false;
                for &id in o {
                    d.grow_to(DenseRow::word_of(id) + 1);
                    let w = &mut d.words[DenseRow::word_of(id)];
                    let mask = DenseRow::mask_of(id);
                    if *w & mask == 0 {
                        *w |= mask;
                        d.len += 1;
                        changed = true;
                    }
                }
                changed
            }
            (RowSet::Sparse(_), RowSet::Dense(_)) => {
                let universe = self.max().max(other.max()).map_or(0, |m| m + 1);
                self.promote(universe);
                self.union_in_place(other)
            }
            (RowSet::Sparse(v), RowSet::Sparse(o)) => union_sorted_in_place(v, o),
        }
    }

    /// `self ∪ other` as a new set. Dense if either side is dense.
    pub fn union(&self, other: &RowSet) -> RowSet {
        let mut out = self.clone();
        out.union_in_place(other);
        out
    }

    /// `⋃ rows` as one new row, normalized against `universe`. When the
    /// summed lengths reach the dense side the rows are OR-ed into a bitset
    /// (word-parallel for dense rows); otherwise their elements are
    /// gathered and sorted once — never a chain of pairwise sorted merges.
    pub fn union_all<'a, I>(rows: I, universe: u32) -> RowSet
    where
        I: Iterator<Item = &'a RowSet> + Clone,
    {
        let bound = rows.clone().map(RowSet::len).sum();
        let mut out = if RowSet::wants_dense(bound, universe) {
            let mut acc = RowSet::dense_from_iter(universe, []);
            for row in rows {
                acc.union_in_place(row);
            }
            acc
        } else {
            RowSet::from_unsorted(rows.flat_map(RowSet::iter).collect())
        };
        out.normalize(universe);
        out
    }

    /// `self ∩ other` as a new set (dense if `self` is dense).
    pub fn intersect(&self, other: &RowSet) -> RowSet {
        match (self, other) {
            (RowSet::Dense(a), RowSet::Dense(b)) => {
                let mut d = DenseRow {
                    words: a.words.iter().zip(&b.words).map(|(&x, &y)| x & y).collect(),
                    len: 0,
                };
                d.recount();
                RowSet::Dense(d)
            }
            (RowSet::Sparse(a), _) => {
                RowSet::Sparse(a.iter().copied().filter(|&x| other.contains(x)).collect())
            }
            (RowSet::Dense(_), RowSet::Sparse(b)) => RowSet::dense_from_iter(
                b.last().map_or(0, |&m| m + 1),
                b.iter().copied().filter(|&x| self.contains(x)),
            ),
        }
    }

    /// `self \ other` as a new set (dense if `self` is dense).
    pub fn difference(&self, other: &RowSet) -> RowSet {
        let mut out = self.clone();
        out.difference_in_place(other);
        out
    }

    /// `self \= other` (word-masking `AND NOT` when both are dense);
    /// returns whether `self` changed.
    pub fn difference_in_place(&mut self, other: &RowSet) -> bool {
        if self.is_empty() || other.is_empty() {
            return false;
        }
        match (&mut *self, other) {
            (RowSet::Dense(d), RowSet::Dense(o)) => {
                let mut changed = false;
                for (dw, &ow) in d.words.iter_mut().zip(&o.words) {
                    let masked = *dw & !ow;
                    changed |= masked != *dw;
                    *dw = masked;
                }
                if changed {
                    d.recount();
                }
                changed
            }
            (RowSet::Dense(_), RowSet::Sparse(o)) => {
                let mut changed = false;
                for &id in o {
                    changed |= self.remove(id);
                }
                changed
            }
            (RowSet::Sparse(v), _) => {
                let before = v.len();
                v.retain(|&x| !other.contains(x));
                v.len() != before
            }
        }
    }

    /// Whether a row of `len` elements over `universe` ids is a bitset: it
    /// is non-empty and holds at least `1/32` of the universe. The one rule
    /// every row's layout follows.
    #[inline]
    pub fn wants_dense(len: usize, universe: u32) -> bool {
        len > 0 && universe > 0 && (len as u64).saturating_mul(DENSE_FRACTION) >= universe as u64
    }

    /// Re-represents the row by [`RowSet::wants_dense`] against `universe`
    /// (widened to cover the row's largest id): promote at or above `1/32`,
    /// demote below. An empty row always demotes to sparse.
    pub fn normalize(&mut self, universe: u32) {
        let universe = universe.max(self.max().map_or(0, |m| m + 1));
        if RowSet::wants_dense(self.len(), universe) {
            self.promote(universe);
        } else {
            self.demote();
        }
    }

    /// Forces the dense representation sized for `universe`.
    pub fn promote(&mut self, universe: u32) {
        if let RowSet::Sparse(v) = self {
            *self = RowSet::dense_from_iter(universe, v.iter().copied());
        }
    }

    /// Forces the sparse representation.
    pub fn demote(&mut self) {
        if let RowSet::Dense(d) = self {
            *self = RowSet::Sparse(d.iter().collect());
        }
    }

    /// Heap footprint in bytes (capacity, not just length — this is what
    /// the allocator is actually holding).
    pub fn heap_bytes(&self) -> usize {
        match self {
            RowSet::Sparse(v) => v.capacity() * std::mem::size_of::<u32>(),
            RowSet::Dense(d) => d.words.capacity() * std::mem::size_of::<u64>(),
        }
    }
}

/// Merges sorted `other` into sorted `dst` **in place**: counts the
/// elements of `other` missing from `dst`, extends once, and merges
/// backward so no scratch vector is allocated. Returns whether `dst` grew.
fn union_sorted_in_place(dst: &mut Vec<u32>, other: &[u32]) -> bool {
    debug_assert!(dst.windows(2).all(|w| w[0] < w[1]));
    debug_assert!(other.windows(2).all(|w| w[0] < w[1]));
    // Count how many of `other`'s elements are new.
    let mut fresh = 0usize;
    {
        let mut i = 0;
        for &x in other {
            while i < dst.len() && dst[i] < x {
                i += 1;
            }
            if i >= dst.len() || dst[i] != x {
                fresh += 1;
            }
        }
    }
    if fresh == 0 {
        return false;
    }
    let old_len = dst.len();
    dst.resize(old_len + fresh, 0);
    // Backward merge: read cursors at the old ends, write cursor at the new.
    let (mut i, mut j, mut w) = (old_len, other.len(), dst.len());
    while j > 0 {
        if i > 0 && dst[i - 1] > other[j - 1] {
            dst[w - 1] = dst[i - 1];
            i -= 1;
        } else {
            if i > 0 && dst[i - 1] == other[j - 1] {
                i -= 1;
            }
            dst[w - 1] = other[j - 1];
            j -= 1;
        }
        w -= 1;
    }
    while i > 0 {
        dst[w - 1] = dst[i - 1];
        i -= 1;
        w -= 1;
    }
    debug_assert_eq!(w, i);
    true
}

impl PartialEq for RowSet {
    /// Content equality, independent of representation: a dense row equals
    /// the sparse row with the same elements.
    fn eq(&self, other: &Self) -> bool {
        match (self, other) {
            (RowSet::Sparse(a), RowSet::Sparse(b)) => a == b,
            _ => self.len() == other.len() && self.iter().eq(other.iter()),
        }
    }
}

impl Eq for RowSet {}

impl fmt::Debug for RowSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let tag = if self.is_dense() { "Dense" } else { "Sparse" };
        write!(f, "RowSet::{tag}")?;
        f.debug_set().entries(self.iter()).finish()
    }
}

impl FromIterator<u32> for RowSet {
    fn from_iter<T: IntoIterator<Item = u32>>(iter: T) -> Self {
        RowSet::from_unsorted(iter.into_iter().collect())
    }
}

/// Ascending iterator over a [`RowSet`]'s elements.
#[derive(Clone)]
pub enum RowIter<'a> {
    /// Sparse backing: slice iteration.
    Sparse(std::slice::Iter<'a, u32>),
    /// Dense backing: `trailing_zeros` walk over the words.
    Dense {
        /// The bitset words.
        words: &'a [u64],
        /// Index of the word currently being drained.
        word_idx: usize,
        /// Remaining bits of the current word.
        bits: u64,
    },
}

impl Iterator for RowIter<'_> {
    type Item = u32;

    fn next(&mut self) -> Option<u32> {
        match self {
            RowIter::Sparse(it) => it.next().copied(),
            RowIter::Dense {
                words,
                word_idx,
                bits,
            } => loop {
                if *bits != 0 {
                    let b = bits.trailing_zeros();
                    *bits &= *bits - 1;
                    return Some(*word_idx as u32 * 64 + b);
                }
                if *word_idx + 1 >= words.len() {
                    return None;
                }
                *word_idx += 1;
                *bits = words[*word_idx];
            },
        }
    }
}

/// A table of [`RowSet`] rows over a shared universe — the hybrid
/// replacement for a `Csr<u32>` closure table.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RowTable {
    rows: Vec<RowSet>,
    universe: u32,
}

impl RowTable {
    /// Builds from rows over ids `< universe`.
    pub fn from_rows(rows: Vec<RowSet>, universe: u32) -> Self {
        Self { rows, universe }
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the table has no rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// The id universe rows range over.
    pub fn universe(&self) -> u32 {
        self.universe
    }

    /// Row `i`.
    #[inline]
    pub fn row(&self, i: usize) -> &RowSet {
        &self.rows[i]
    }

    /// All rows in order.
    pub fn iter(&self) -> std::slice::Iter<'_, RowSet> {
        self.rows.iter()
    }

    /// Total elements across rows.
    pub fn total_len(&self) -> usize {
        self.rows.iter().map(RowSet::len).sum()
    }

    /// Number of rows currently dense.
    pub fn dense_rows(&self) -> usize {
        self.rows.iter().filter(|r| r.is_dense()).count()
    }

    /// Heap footprint in bytes across all rows.
    pub fn heap_bytes(&self) -> usize {
        self.rows.capacity() * std::mem::size_of::<RowSet>()
            + self.rows.iter().map(RowSet::heap_bytes).sum::<usize>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sparse(ids: &[u32]) -> RowSet {
        RowSet::from_sorted_vec(ids.to_vec())
    }

    fn dense(ids: &[u32]) -> RowSet {
        let universe = ids.iter().max().map_or(0, |&m| m + 1);
        RowSet::dense_from_iter(universe, ids.iter().copied())
    }

    #[test]
    fn contains_len_iter_agree_across_reprs() {
        let ids = [0u32, 5, 63, 64, 65, 200];
        for r in [sparse(&ids), dense(&ids)] {
            assert_eq!(r.len(), ids.len());
            assert!(!r.is_empty());
            for &x in &ids {
                assert!(r.contains(x));
            }
            assert!(!r.contains(66));
            assert!(!r.contains(100_000)); // beyond any dense word
            assert_eq!(r.iter().collect::<Vec<_>>(), ids);
            assert_eq!(r.to_vec(), ids);
            assert_eq!(r.max(), Some(200));
        }
    }

    #[test]
    fn semantic_equality_across_representations() {
        let ids = [1u32, 64, 120];
        assert_eq!(sparse(&ids), dense(&ids));
        assert_eq!(dense(&ids), sparse(&ids));
        assert_ne!(sparse(&ids), dense(&[1, 64]));
        // A dense row with trailing zero words still equals its sparse twin.
        let mut padded = dense(&ids);
        if let RowSet::Dense(d) = &mut padded {
            d.words.resize(10, 0);
        }
        assert_eq!(padded, sparse(&ids));
    }

    #[test]
    fn insert_and_remove_both_reprs() {
        for mut r in [sparse(&[2, 4]), dense(&[2, 4])] {
            assert!(r.insert(3));
            assert!(!r.insert(3));
            assert!(r.insert(1000)); // dense row must grow its words
            assert_eq!(r.to_vec(), vec![2, 3, 4, 1000]);
            assert!(r.remove(2));
            assert!(!r.remove(2));
            assert!(!r.remove(999));
            assert_eq!(r.to_vec(), vec![3, 4, 1000]);
            assert_eq!(r.len(), 3);
        }
    }

    #[test]
    fn union_in_place_all_repr_pairs() {
        let a = [1u32, 5, 70];
        let b = [0u32, 5, 64, 200];
        let want: Vec<u32> = vec![0, 1, 5, 64, 70, 200];
        for lhs in [sparse(&a), dense(&a)] {
            for rhs in [sparse(&b), dense(&b)] {
                let mut r = lhs.clone();
                assert!(r.union_in_place(&rhs));
                assert_eq!(r.to_vec(), want, "{lhs:?} ∪ {rhs:?}");
                assert_eq!(r.len(), want.len());
                // Unioning again changes nothing.
                assert!(!r.union_in_place(&rhs));
            }
        }
    }

    #[test]
    fn union_all_matches_pairwise_union() {
        let rows = [sparse(&[1, 5, 70]), dense(&[0, 5, 64]), RowSet::empty()];
        let want = vec![0u32, 1, 5, 64, 70];
        // Universe 8 (widened to 71 by the contents) and 128: the result
        // is dense; over 4096 ids it is sparse.
        for (universe, is_dense) in [(8, true), (128, true), (4096, false)] {
            let u = RowSet::union_all(rows.iter(), universe);
            assert_eq!(u.to_vec(), want, "@ {universe}");
            assert_eq!(u.is_dense(), is_dense, "@ {universe}");
        }
        let none = RowSet::union_all([].iter(), 64);
        assert!(none.is_empty() && !none.is_dense());
    }

    #[test]
    fn union_with_empty_and_into_empty() {
        let a = dense(&[3, 9]);
        let mut empty = RowSet::empty();
        assert!(empty.union_in_place(&a));
        assert_eq!(empty, a);
        let mut a2 = a.clone();
        assert!(!a2.union_in_place(&RowSet::empty()));
        assert_eq!(a2, a);
    }

    #[test]
    fn intersect_all_repr_pairs() {
        let a = [1u32, 5, 64, 70];
        let b = [5u32, 64, 200];
        for lhs in [sparse(&a), dense(&a)] {
            for rhs in [sparse(&b), dense(&b)] {
                let r = lhs.intersect(&rhs);
                assert_eq!(r.to_vec(), vec![5, 64], "{lhs:?} ∩ {rhs:?}");
            }
        }
    }

    #[test]
    fn difference_all_repr_pairs() {
        let a = [1u32, 5, 64, 70];
        let b = [5u32, 64, 200];
        for lhs in [sparse(&a), dense(&a)] {
            for rhs in [sparse(&b), dense(&b)] {
                let r = lhs.difference(&rhs);
                assert_eq!(r.to_vec(), vec![1, 70], "{lhs:?} \\ {rhs:?}");
                let mut in_place = lhs.clone();
                assert!(in_place.difference_in_place(&rhs));
                assert_eq!(in_place.to_vec(), vec![1, 70]);
                assert!(!in_place.difference_in_place(&rhs));
            }
        }
    }

    #[test]
    fn union_sorted_in_place_reuses_the_allocation() {
        let mut v = Vec::with_capacity(16);
        v.extend([1u32, 3, 5, 9]);
        let ptr = v.as_ptr();
        assert!(union_sorted_in_place(&mut v, &[0, 3, 6, 9, 12]));
        assert_eq!(v, vec![0, 1, 3, 5, 6, 9, 12]);
        // Capacity was sufficient: no reallocation happened.
        assert_eq!(v.as_ptr(), ptr);
        // Subset union: untouched.
        assert!(!union_sorted_in_place(&mut v, &[1, 9]));
        assert_eq!(v, vec![0, 1, 3, 5, 6, 9, 12]);
    }

    #[test]
    fn promotion_demotion_roundtrip_preserves_contents() {
        let ids = [0u32, 31, 32, 99];
        let mut r = sparse(&ids);
        r.promote(100);
        assert!(r.is_dense());
        assert_eq!(r.to_vec(), ids);
        r.demote();
        assert!(!r.is_dense());
        assert_eq!(r.to_vec(), ids);
    }

    #[test]
    fn normalize_follows_the_density_rule() {
        // 4 of 1024 ids: density 1/256 < 1/32 → stays sparse.
        let mut thin = sparse(&[1, 2, 3, 4]);
        thin.normalize(1024);
        assert!(!thin.is_dense());
        // ...but 4 of 64 is 1/16 → promotes.
        thin.normalize(64);
        assert!(thin.is_dense());
        // 64 of 128 ids: density 1/2 → promotes; over 2^16 ids it demotes.
        let mut fat = RowSet::from_unsorted((0..64).map(|x| x * 2).collect());
        fat.normalize(128);
        assert!(fat.is_dense());
        fat.normalize(1 << 16);
        assert!(!fat.is_dense());
        assert_eq!(fat.len(), 64);
        // Empty rows never promote.
        let mut empty = RowSet::empty();
        empty.normalize(1);
        assert!(!empty.is_dense());
    }

    #[test]
    fn normalize_widens_the_universe_to_cover_max() {
        // Universe hint smaller than the contents: the density is taken
        // over the widened universe, and promote must cover the maximum.
        let mut r = RowSet::from_unsorted((0..8).chain([100]).collect());
        r.normalize(16);
        assert!(r.is_dense());
        assert!(r.contains(100));
        let mut r = sparse(&[10, 500]);
        r.normalize(16);
        assert!(!r.is_dense());
    }

    #[test]
    fn wants_dense_boundaries() {
        // Exactly at the crossover: 32 of 1024 = 1/32 → dense.
        assert!(RowSet::wants_dense(32, 1024));
        assert!(!RowSet::wants_dense(31, 1024));
        assert!(!RowSet::wants_dense(0, 1024));
        assert!(!RowSet::wants_dense(1, 0));
        // The integer rule is the `len ≥ universe / 32` comparison in f64.
        let by_f64 = |len: usize, universe: u32| {
            len > 0 && universe > 0 && (len as f64) >= universe as f64 / 32.0
        };
        for universe in [0, 1, 31, 32, 33, 1023, 1024, 1025, u32::MAX - 1, u32::MAX] {
            let at = (universe / 32) as usize;
            for len in [0, 1, at.saturating_sub(1), at, at + 1, at + 2, usize::MAX] {
                assert_eq!(
                    RowSet::wants_dense(len, universe),
                    by_f64(len, universe),
                    "{len} of {universe}"
                );
            }
        }
    }

    #[test]
    fn heap_bytes_reflects_the_representation() {
        let ids: Vec<u32> = (0..128).collect();
        let s = RowSet::from_sorted_vec(ids.clone());
        let d = RowSet::dense_from_iter(128, ids);
        assert_eq!(s.heap_bytes(), 128 * 4);
        assert_eq!(d.heap_bytes(), 2 * 8); // 128 bits = 2 words
        assert_eq!(RowSet::empty().heap_bytes(), 0);
    }

    #[test]
    fn row_table_accounting() {
        let rows = vec![sparse(&[0, 1]), dense(&[0, 1, 2, 3]), RowSet::empty()];
        let t = RowTable::from_rows(rows, 4);
        assert_eq!(t.len(), 3);
        assert_eq!(t.universe(), 4);
        assert_eq!(t.total_len(), 6);
        assert_eq!(t.dense_rows(), 1);
        assert_eq!(t.row(1).len(), 4);
        assert!(t.heap_bytes() >= 2 * 4 + 8);
    }

    #[test]
    fn debug_formats_show_repr_and_contents() {
        assert_eq!(format!("{:?}", sparse(&[1, 2])), "RowSet::Sparse{1, 2}");
        assert_eq!(format!("{:?}", dense(&[1, 2])), "RowSet::Dense{1, 2}");
    }
}
