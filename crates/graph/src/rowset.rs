//! Hybrid sparse/dense vertex-set rows with word-parallel unions.
//!
//! A [`RowSet`] is a set of `u32` ids stored either as a **sorted vector**
//! (`Sparse`) or as a **bitset** (`Dense`). Dense rows union 64 elements
//! per instruction and count via `popcnt`; sparse rows pay per element but
//! cost only `4·len` bytes. The break-even density is roughly
//! `1/16`–`1/32` of the universe (a dense row costs `universe/8` bytes
//! against the sparse row's `4·len`), which is why a row is a bitset once
//! it holds at least `1/32` of its universe ([`RowSet::wants_dense`]) and a
//! sorted vector below that. That one rule picks every row's layout.
//!
//! The operations are the ones closure building and expansion use:
//! construction (sorted, unsorted, dense), membership, `insert`, ascending
//! iteration, union (pairwise, in place and [`RowSet::union_all`]) and the
//! layout moves (`normalize`, `promote`, `demote`).
//!
//! A [`Cover`] is the engine's one scratch id set: bitset words over a
//! fixed universe that ids or whole rows are OR-ed into (a dense row 64
//! ids at a time), read back as the part of a row it holds or misses or
//! drained in ascending order, and emptied word by word over only the
//! words it set. Every visited check, duplicate check and row merge uses
//! it: Algorithm 2's (7) and (8), the product search, the label join, the
//! closure sweep, the condensation and the Post image.
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

/// The ids of the set bits of `word`, the word at index `wi`, descending.
fn ids_of_rev(wi: usize, mut word: u64) -> impl Iterator<Item = u32> {
    std::iter::from_fn(move || {
        (word != 0).then(|| {
            let b = 63 - word.leading_zeros();
            word ^= 1 << b;
            wi as u32 * 64 + b
        })
    })
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

    /// Builds from a strictly ascending vector without copying.
    ///
    /// Debug-asserts sortedness/uniqueness — feeding unsorted data is a
    /// logic error upstream.
    pub fn from_sorted_vec(ids: Vec<u32>) -> Self {
        debug_assert!(ids.windows(2).all(|w| w[0] < w[1]), "row must be sorted");
        RowSet::Sparse(ids)
    }

    /// Builds from arbitrary ids: sorts, dedups and releases the capacity
    /// the duplicates held, so [`RowSet::heap_bytes`] charges what is kept.
    pub fn from_unsorted(mut ids: Vec<u32>) -> Self {
        ids.sort_unstable();
        ids.dedup();
        ids.shrink_to_fit();
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
            let mut ids = Vec::with_capacity(d.len as usize);
            ids.extend(d.iter());
            *self = RowSet::Sparse(ids);
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

/// The one scratch id set: ids below a fixed universe kept as bitset
/// words, emptied between uses. Ids join one at a time or a whole row at
/// once (a dense row 64 ids a word), and the set is read back as the part
/// of a row it holds or misses, or drained in ascending order.
///
/// It records each word it makes non-zero, so [`Cover::clear`] and
/// [`Cover::drain_ascending`] touch those words alone: a sparse set over a
/// large universe empties in its own size. The record has a slot per word
/// and a spare one, and every insert writes it, so an insert never
/// reallocates and never branches on a repeat.
#[derive(Clone, Debug)]
pub struct Cover {
    words: Vec<u64>,
    /// `touched[..len]` are the indices of the non-zero words, each once.
    touched: Vec<u32>,
    len: usize,
}

impl Cover {
    /// The empty set of ids `0..universe`.
    pub fn new(universe: usize) -> Self {
        let words = universe.div_ceil(64);
        Cover {
            words: vec![0; words],
            touched: vec![0; words + 1],
            len: 0,
        }
    }

    /// Whether `id` is in the set.
    #[inline]
    pub fn contains(&self, id: u32) -> bool {
        self.words[DenseRow::word_of(id)] & DenseRow::mask_of(id) != 0
    }

    /// Adds `id`; returns whether it was new.
    #[inline]
    pub fn insert(&mut self, id: u32) -> bool {
        let mask = DenseRow::mask_of(id);
        self.or_word(DenseRow::word_of(id), mask) & mask == 0
    }

    /// Adds every id of `row`; returns how many were new.
    pub fn add(&mut self, row: &RowSet) -> usize {
        match row {
            RowSet::Sparse(ids) => ids.iter().filter(|&&id| self.insert(id)).count(),
            RowSet::Dense(d) => {
                debug_assert!(d.words.iter().skip(self.words.len()).all(|&w| w == 0));
                let words = d.words.iter().take(self.words.len()).enumerate();
                words
                    .map(|(wi, &bits)| (bits & !self.or_word(wi, bits)).count_ones() as usize)
                    .sum()
            }
        }
    }

    /// ORs `bits` into word `wi`, recording the word if it becomes
    /// non-zero; returns the word as it was.
    #[inline]
    fn or_word(&mut self, wi: usize, bits: u64) -> u64 {
        let word = self.words[wi];
        // The slot past the record is always free: writing it is a no-op
        // unless the word is new.
        self.touched[self.len] = wi as u32;
        self.len += usize::from(word == 0 && bits != 0);
        self.words[wi] = word | bits;
        word
    }

    /// Empties the set, zeroing only the words set since it was last empty.
    pub fn clear(&mut self) {
        for &wi in &self.touched[..self.len] {
            self.words[wi as usize] = 0;
        }
        self.len = 0;
    }

    /// Emits every id in ascending order and empties the set. It reads the
    /// `w` touched words sorted, or every word when sorting them (`w·log w`)
    /// would cost more than that: the ids plus the cheaper of the two.
    pub fn drain_ascending(&mut self, mut emit: impl FnMut(u32)) {
        let w = std::mem::take(&mut self.len);
        let mut drain = |wi: usize, word: &mut u64| {
            let mut bits = std::mem::take(word);
            while bits != 0 {
                emit(wi as u32 * 64 + bits.trailing_zeros());
                bits &= bits - 1;
            }
        };
        if w * (usize::BITS - w.leading_zeros()) as usize >= self.words.len() {
            for (wi, word) in self.words.iter_mut().enumerate() {
                drain(wi, word);
            }
        } else {
            let touched = &mut self.touched[..w];
            touched.sort_unstable();
            for &wi in touched.iter() {
                drain(wi as usize, &mut self.words[wi as usize]);
            }
        }
    }

    /// The ids of `row` that are covered, descending.
    pub fn common_rev<'a>(&'a self, row: &'a RowSet) -> impl Iterator<Item = u32> + 'a {
        self.part_rev(row, true)
    }

    /// The ids of `row` that are not covered, descending.
    pub fn uncovered_rev<'a>(&'a self, row: &'a RowSet) -> impl Iterator<Item = u32> + 'a {
        self.part_rev(row, false)
    }

    /// The ids of `row` whose cover bit is `covered`, descending.
    fn part_rev<'a>(&'a self, row: &'a RowSet, covered: bool) -> impl Iterator<Item = u32> + 'a {
        // XOR-ing a cover word with `flip` leaves the bits to keep set.
        let flip = if covered { 0 } else { u64::MAX };
        let (sparse, dense) = match row {
            RowSet::Sparse(ids) => {
                let ids = ids.iter().rev().copied();
                (
                    Some(ids.filter(move |&id| self.contains(id) == covered)),
                    None,
                )
            }
            RowSet::Dense(d) => {
                let words = d.words.iter().zip(&self.words).enumerate().rev();
                let ids = words
                    .flat_map(move |(wi, (&bits, &word))| ids_of_rev(wi, bits & (word ^ flip)));
                (None, Some(ids))
            }
        };
        sparse
            .into_iter()
            .flatten()
            .chain(dense.into_iter().flatten())
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
    use std::collections::BTreeSet;

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
    fn insert_both_reprs() {
        for mut r in [sparse(&[2, 4]), dense(&[2, 4])] {
            assert!(r.insert(3));
            assert!(!r.insert(3));
            assert!(r.insert(1000)); // dense row must grow its words
            assert_eq!(r.to_vec(), vec![2, 3, 4, 1000]);
            assert_eq!(r.len(), 4);
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
    fn heap_bytes_charge_no_removed_duplicates() {
        assert_eq!(RowSet::from_unsorted(vec![3, 1, 3, 1]).heap_bytes(), 8);
        let collected: RowSet = [5, 5, 5, 2, 2, 2].into_iter().collect();
        assert_eq!(collected.heap_bytes(), 8);
        let unioned = RowSet::union_all([sparse(&[1, 2]), sparse(&[2, 9])].iter(), 1024);
        assert_eq!(unioned.heap_bytes(), 3 * 4);
        // A bitset demoted below the density rule keeps only its elements.
        let mut thinned = RowSet::dense_from_iter(1024, 0..3);
        thinned.normalize(1024);
        assert!(!thinned.is_dense());
        assert_eq!(thinned.heap_bytes(), 3 * 4);
    }

    /// The touched record holds exactly the non-zero words, each once, and
    /// the set holds exactly `model`.
    fn assert_cover_is(cover: &Cover, model: &BTreeSet<u32>, universe: u32) {
        let mut touched = cover.touched[..cover.len].to_vec();
        touched.sort_unstable();
        let nonzero: Vec<u32> = (0..cover.words.len() as u32)
            .filter(|&wi| cover.words[wi as usize] != 0)
            .collect();
        assert_eq!(touched, nonzero, "touched words of {universe}");
        let held: Vec<u32> = (0..universe).filter(|&id| cover.contains(id)).collect();
        assert_eq!(
            held,
            model.iter().copied().collect::<Vec<_>>(),
            "ids of {universe}"
        );
    }

    #[test]
    fn cover_adds_rows_word_by_word_and_clears_what_it_set() {
        let mut cover = Cover::new(200);
        let sparse_row = sparse(&[63, 64, 150]);
        let dense_row = RowSet::dense_from_iter(200, [0, 63, 64, 130]);
        assert_eq!(cover.add(&dense_row), 4);
        assert_eq!(cover.add(&sparse_row), 1);
        assert_eq!(cover.add(&dense_row), 0);
        assert!(!cover.insert(150) && cover.insert(199));
        let covered: Vec<u32> = (0..200).filter(|&id| cover.contains(id)).collect();
        assert_eq!(covered, vec![0, 63, 64, 130, 150, 199]);
        let probe = [1, 63, 64, 65, 199];
        for row in [sparse(&probe), RowSet::dense_from_iter(200, probe)] {
            let common: Vec<u32> = cover.common_rev(&row).collect();
            let uncovered: Vec<u32> = cover.uncovered_rev(&row).collect();
            assert_eq!((common, uncovered), (vec![199, 64, 63], vec![65, 1]));
        }
        // Words 0, 1, 2 and 3 were set; each is zeroed once.
        assert_eq!(cover.len, 4);
        cover.clear();
        assert!(cover.words.iter().all(|&w| w == 0) && cover.len == 0);
        assert_eq!(cover.add(&sparse_row), 3);

        // A dense run of ids and two ids far apart drain ascending from
        // their sorted words, a repeat included; ids in every word drain
        // from a read of all the words. Each leaves the set empty; so
        // does an empty one.
        let mut cover = Cover::new(4096);
        let mut drained = Vec::new();
        let everywhere: Vec<u32> = (0..4096).step_by(61).collect();
        let backwards: Vec<u32> = everywhere.iter().rev().copied().collect();
        for (ids, expect) in [
            (&[70, 3, 64, 5, 3, 127][..], &[3, 5, 64, 70, 127][..]),
            (&[4095, 0], &[0, 4095]),
            (&backwards, &everywhere),
            (&[], &[]),
        ] {
            for &id in ids {
                cover.insert(id);
            }
            cover.drain_ascending(|id| drained.push(id));
            assert_eq!(drained, expect);
            assert_cover_is(&cover, &BTreeSet::new(), 4096);
            drained.clear();
        }

        // Random operations against a `BTreeSet` model, over universes at
        // and around word edges. Ids favour the word edges and repeat.
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = move |bound: u64| {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1);
            (state >> 33) % bound.max(1)
        };
        for universe in [0u32, 1, 63, 64, 65, 130, 4096] {
            let mut cover = Cover::new(universe as usize);
            let mut model = BTreeSet::new();
            let edges: Vec<u32> = [0, 1, 62, 63, 64, 65, 127, 128, 129]
                .into_iter()
                .chain(universe.checked_sub(1))
                .filter(|&id| id < universe)
                .collect();
            let pick = |next: &mut dyn FnMut(u64) -> u64| {
                if !edges.is_empty() && next(2) == 0 {
                    edges[next(edges.len() as u64) as usize]
                } else {
                    next(universe as u64) as u32
                }
            };
            for step in 0..3000 {
                match next(16) {
                    _ if universe == 0 => {
                        // No id to add: only the empty set's reads.
                        cover.clear();
                        assert_eq!(cover.add(&RowSet::empty()), 0);
                        cover.drain_ascending(|id| panic!("drained {id} of nothing"));
                    }
                    0..=6 => {
                        let id = pick(&mut next);
                        assert_eq!(cover.insert(id), model.insert(id), "insert {id}");
                    }
                    7..=8 => {
                        let id = pick(&mut next);
                        assert_eq!(cover.contains(id), model.contains(&id), "contains {id}");
                    }
                    9..=11 => {
                        let ids: Vec<u32> = (0..next(40)).map(|_| pick(&mut next)).collect();
                        let row = if next(2) == 0 {
                            RowSet::from_unsorted(ids.clone())
                        } else {
                            RowSet::dense_from_iter(universe, ids.iter().copied())
                        };
                        let fresh = ids.iter().filter(|&&id| model.insert(id)).count();
                        assert_eq!(cover.add(&row), fresh, "add {ids:?}");
                    }
                    12..=13 => {
                        cover.clear();
                        model.clear();
                    }
                    _ => {
                        if next(2) == 0 {
                            // A drain right after a clear emits nothing.
                            cover.clear();
                            model.clear();
                        }
                        drained.clear();
                        cover.drain_ascending(|id| drained.push(id));
                        assert_eq!(
                            drained,
                            std::mem::take(&mut model).into_iter().collect::<Vec<_>>()
                        );
                    }
                }
                if step % 7 == 0 || universe <= 130 {
                    assert_cover_is(&cover, &model, universe);
                }
            }
        }
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
