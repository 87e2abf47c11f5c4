//! [`PairSet`] — the relation type for RPQ results.
//!
//! Definition 2 of the paper makes an RPQ result a *set* of ordered vertex
//! pairs `R_G = {(v_i, v_j) | a path p(v_i, v_j) satisfying R exists}`.
//! `PairSet` stores that relation behind one of two backings:
//!
//! * **Flat** — a sorted, duplicate-free vector of `(start, end)` pairs:
//!   `O(log n)` membership by binary search, linear-time merge union (the
//!   `∪` of Algorithm 1 line 13), grouping by start for free.
//! * **Grouped** — a sorted vector of start vertices, each owning an
//!   [`Arc<RowSet>`] of its end vertices. This is the shape closure
//!   expansion produces naturally (Theorem 1: every member of an SCC shares
//!   one target row), so the same hybrid sparse/dense row is shared —
//!   not copied per member — from the `Rtc` all the way into the result,
//!   and unions of grouped results are per-row `Arc` clones plus
//!   word-parallel merges instead of whole-relation pair merges.
//!
//! The backing is an implementation detail: equality, iteration order and
//! every set operation are representation-independent. The operations are
//! the ones evaluation uses: membership, ascending iteration (whole, by
//! start with [`PairSet::groups`], one start's ends with
//! [`PairSet::ends_of`]), union (pairwise and in place), difference (the
//! algebraic oracle's fixpoint), and composition (Lemma 4's join).

use crate::ids::VertexId;
use crate::rowset::{RowIter, RowSet};
use rustc_hash::FxHashSet;
use std::fmt;
use std::sync::Arc;

/// A sorted, duplicate-free set of ordered vertex pairs (flat or
/// grouped-by-start backing — see the module docs).
#[derive(Clone)]
pub struct PairSet {
    repr: Repr,
}

#[derive(Clone)]
enum Repr {
    /// Sorted unique `(start, end)` pairs.
    Flat(Vec<(VertexId, VertexId)>),
    /// Sorted starts, each with a shared row of end ids.
    Grouped(Grouped),
}

#[derive(Clone)]
struct Grouped {
    /// Ascending, unique start vertices with non-empty rows.
    starts: Vec<VertexId>,
    /// `rows[i]` = end ids of `starts[i]`, shared via `Arc`.
    rows: Vec<Arc<RowSet>>,
    /// Cached `Σ rows[i].len()`.
    len: usize,
}

impl Default for PairSet {
    fn default() -> Self {
        Self::new()
    }
}

impl PairSet {
    /// The empty relation.
    pub fn new() -> Self {
        Self {
            repr: Repr::Flat(Vec::new()),
        }
    }

    /// Builds a `PairSet` from possibly unsorted, possibly duplicated pairs.
    pub fn from_pairs(mut pairs: Vec<(VertexId, VertexId)>) -> Self {
        pairs.sort_unstable();
        pairs.dedup();
        // Sets are long-lived (cached base relations and results): the
        // slack the duplicates left is released, not carried.
        pairs.shrink_to_fit();
        Self {
            repr: Repr::Flat(pairs),
        }
    }

    /// Builds a `PairSet` from pairs already known to be sorted and unique.
    ///
    /// Checked in debug builds.
    pub fn from_sorted_unique(pairs: Vec<(VertexId, VertexId)>) -> Self {
        debug_assert!(
            pairs.windows(2).all(|w| w[0] < w[1]),
            "pairs not sorted+unique"
        );
        Self {
            repr: Repr::Flat(pairs),
        }
    }

    /// Builds a grouped relation from `(start, ends)` rows. Starts may
    /// arrive in any order but must be unique; empty rows are dropped.
    /// Rows are shared, not copied — this is the zero-copy path from
    /// closure expansion into results.
    pub fn from_grouped_rows(mut groups: Vec<(VertexId, Arc<RowSet>)>) -> Self {
        groups.retain(|(_, row)| !row.is_empty());
        groups.sort_unstable_by_key(|&(s, _)| s);
        debug_assert!(
            groups.windows(2).all(|w| w[0].0 < w[1].0),
            "grouped starts must be unique"
        );
        let len = groups.iter().map(|(_, r)| r.len()).sum();
        let (starts, rows) = groups.into_iter().unzip();
        Self {
            repr: Repr::Grouped(Grouped { starts, rows, len }),
        }
    }

    /// Builds the identity relation `{(v, v) | v ∈ 0..n}`.
    ///
    /// This is `ε_G`: the result of the empty-path query over a graph with
    /// `n` vertices.
    pub fn identity(n: usize) -> Self {
        Self {
            repr: Repr::Flat((0..n as u32).map(|v| (VertexId(v), VertexId(v))).collect()),
        }
    }

    /// Number of pairs in the relation.
    #[inline]
    pub fn len(&self) -> usize {
        match &self.repr {
            Repr::Flat(pairs) => pairs.len(),
            Repr::Grouped(g) => g.len,
        }
    }

    /// Whether the relation is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Whether the grouped-by-start backing is active (observability for
    /// tests and metrics; semantics never depend on it).
    pub fn is_grouped(&self) -> bool {
        matches!(self.repr, Repr::Grouped(_))
    }

    /// Membership test: binary search (flat) or start probe + row probe
    /// (grouped).
    pub fn contains(&self, start: VertexId, end: VertexId) -> bool {
        match &self.repr {
            Repr::Flat(pairs) => pairs.binary_search(&(start, end)).is_ok(),
            Repr::Grouped(g) => match g.starts.binary_search(&start) {
                Ok(i) => g.rows[i].contains(end.raw()),
                Err(_) => false,
            },
        }
    }

    /// Iterates over the pairs in ascending `(start, end)` order.
    pub fn iter(&self) -> PairIter<'_> {
        PairIter(match &self.repr {
            Repr::Flat(pairs) => PairIterInner::Flat(pairs.iter()),
            Repr::Grouped(g) => PairIterInner::Grouped {
                set: g,
                group: 0,
                row: g.rows.first().map(|r| r.iter()),
            },
        })
    }

    /// The end vertices reachable from `start`, as a borrowed view.
    pub fn ends_of(&self, start: VertexId) -> Ends<'_> {
        match &self.repr {
            Repr::Flat(pairs) => {
                let lo = pairs.partition_point(|&(s, _)| s < start);
                let hi = pairs.partition_point(|&(s, _)| s <= start);
                Ends::Pairs(&pairs[lo..hi])
            }
            Repr::Grouped(g) => match g.starts.binary_search(&start) {
                Ok(i) => Ends::Row(&g.rows[i]),
                Err(_) => Ends::Pairs(&[]),
            },
        }
    }

    /// Iterates over `(start, ends)` groups in ascending start order.
    pub fn groups(&self) -> PairGroups<'_> {
        PairGroups(match &self.repr {
            Repr::Flat(pairs) => PairGroupsInner::Flat { pairs, at: 0 },
            Repr::Grouped(g) => PairGroupsInner::Grouped { set: g, at: 0 },
        })
    }

    /// Set union. Flat∪flat is the classic linear merge; grouped∪grouped
    /// merges per start — rows present on one side are `Arc`-shared, and
    /// collisions union word-parallel when dense. Mixed backings fall back
    /// to a pair merge over both iterators.
    pub fn union(&self, other: &PairSet) -> PairSet {
        if self.is_empty() {
            return other.clone();
        }
        if other.is_empty() {
            return self.clone();
        }
        match (&self.repr, &other.repr) {
            (Repr::Grouped(a), Repr::Grouped(b)) => PairSet::from_grouped_rows(union_grouped(a, b)),
            _ => {
                let mut out = Vec::with_capacity(self.len() + other.len());
                let (mut a, mut b) = (self.iter().peekable(), other.iter().peekable());
                loop {
                    match (a.peek(), b.peek()) {
                        (Some(&x), Some(&y)) => {
                            use std::cmp::Ordering::*;
                            match x.cmp(&y) {
                                Less => {
                                    out.push(x);
                                    a.next();
                                }
                                Greater => {
                                    out.push(y);
                                    b.next();
                                }
                                Equal => {
                                    out.push(x);
                                    a.next();
                                    b.next();
                                }
                            }
                        }
                        (Some(_), None) => {
                            out.extend(a.by_ref());
                            break;
                        }
                        (None, _) => {
                            out.extend(b.by_ref());
                            break;
                        }
                    }
                }
                PairSet {
                    repr: Repr::Flat(out),
                }
            }
        }
    }

    /// In-place union; keeps `self` sorted and unique.
    ///
    /// Flat∪=flat genuinely merges in place: the missing elements are
    /// counted, the vector extended once, and the merge runs backward — no
    /// scratch vector, no reallocation when capacity suffices.
    /// Grouped∪=grouped rebuilds only the (cheap, `Arc`-cloned) group
    /// spine. Mixed backings flatten.
    pub fn union_in_place(&mut self, other: &PairSet) {
        if other.is_empty() {
            return;
        }
        if self.is_empty() {
            *self = other.clone();
            return;
        }
        match (&mut self.repr, &other.repr) {
            (Repr::Flat(dst), Repr::Flat(src)) => union_pairs_in_place(dst, src),
            (Repr::Grouped(a), Repr::Grouped(b)) => {
                *self = PairSet::from_grouped_rows(union_grouped(a, b));
            }
            _ => *self = self.union(other),
        }
    }

    /// Set difference `self \ other` by linear merge over both iterators.
    pub fn difference(&self, other: &PairSet) -> PairSet {
        let mut out = Vec::new();
        let (mut a, mut b) = (self.iter().peekable(), other.iter().peekable());
        while let Some(&x) = a.peek() {
            match b.peek() {
                None => {
                    out.extend(a.by_ref());
                    break;
                }
                Some(&y) if x < y => {
                    out.push(x);
                    a.next();
                }
                Some(&y) if x > y => {
                    b.next();
                }
                Some(_) => {
                    a.next();
                    b.next();
                }
            }
        }
        PairSet {
            repr: Repr::Flat(out),
        }
    }

    /// Relational composition `self ⋈ other` (the join of Lemma 4):
    /// `{(a, c) | (a, b) ∈ self ∧ (b, c) ∈ other}`. Consumes grouped rows
    /// of `other` directly — no per-probe slice materialization.
    pub fn compose(&self, other: &PairSet) -> PairSet {
        let mut out = FxHashSet::default();
        for (a, b) in self.iter() {
            for c in other.ends_of(b).iter() {
                out.insert((a, c));
            }
        }
        PairSet::from_pairs(out.into_iter().collect())
    }

    /// Consumes the set, returning the sorted pair vector (materializing a
    /// grouped backing).
    pub fn into_vec(self) -> Vec<(VertexId, VertexId)> {
        match self.repr {
            Repr::Flat(pairs) => pairs,
            Repr::Grouped(_) => self.iter().collect(),
        }
    }

    /// Heap footprint in bytes. A grouped row shared by several starts is
    /// counted once (by `Arc` identity); a row this set shares with another
    /// holder is still charged in full to each (once per referencing set).
    pub fn heap_bytes(&self) -> usize {
        match &self.repr {
            Repr::Flat(pairs) => pairs.capacity() * std::mem::size_of::<(VertexId, VertexId)>(),
            Repr::Grouped(g) => {
                let mut counted = FxHashSet::default();
                g.starts.capacity() * std::mem::size_of::<VertexId>()
                    + g.rows.capacity() * std::mem::size_of::<Arc<RowSet>>()
                    + g.rows
                        .iter()
                        .filter(|r| counted.insert(Arc::as_ptr(r)))
                        .map(|r| r.heap_bytes())
                        .sum::<usize>()
            }
        }
    }
}

/// Merges sorted unique `src` into sorted unique `dst` in place: counts
/// the missing pairs, extends once, merges backward.
fn union_pairs_in_place(dst: &mut Vec<(VertexId, VertexId)>, src: &[(VertexId, VertexId)]) {
    let mut fresh = 0usize;
    {
        let mut i = 0;
        for &x in src {
            while i < dst.len() && dst[i] < x {
                i += 1;
            }
            if i >= dst.len() || dst[i] != x {
                fresh += 1;
            }
        }
    }
    if fresh == 0 {
        return;
    }
    let old_len = dst.len();
    dst.resize(old_len + fresh, (VertexId(0), VertexId(0)));
    let (mut i, mut j, mut w) = (old_len, src.len(), dst.len());
    while j > 0 {
        if i > 0 && dst[i - 1] > src[j - 1] {
            dst[w - 1] = dst[i - 1];
            i -= 1;
        } else {
            if i > 0 && dst[i - 1] == src[j - 1] {
                i -= 1;
            }
            dst[w - 1] = src[j - 1];
            j -= 1;
        }
        w -= 1;
    }
    while i > 0 {
        dst[w - 1] = dst[i - 1];
        i -= 1;
        w -= 1;
    }
}

/// Start-wise union of two grouped backings: one-sided rows are shared,
/// colliding rows are unioned (word-parallel when dense).
fn union_grouped(a: &Grouped, b: &Grouped) -> Vec<(VertexId, Arc<RowSet>)> {
    let mut out = Vec::with_capacity(a.starts.len().max(b.starts.len()));
    let (mut i, mut j) = (0, 0);
    while i < a.starts.len() && j < b.starts.len() {
        use std::cmp::Ordering::*;
        match a.starts[i].cmp(&b.starts[j]) {
            Less => {
                out.push((a.starts[i], Arc::clone(&a.rows[i])));
                i += 1;
            }
            Greater => {
                out.push((b.starts[j], Arc::clone(&b.rows[j])));
                j += 1;
            }
            Equal => {
                let row = if a.rows[i] == b.rows[j] {
                    Arc::clone(&a.rows[i])
                } else {
                    Arc::new(a.rows[i].union(&b.rows[j]))
                };
                out.push((a.starts[i], row));
                i += 1;
                j += 1;
            }
        }
    }
    out.extend(
        a.starts[i..]
            .iter()
            .zip(&a.rows[i..])
            .map(|(&s, r)| (s, Arc::clone(r))),
    );
    out.extend(
        b.starts[j..]
            .iter()
            .zip(&b.rows[j..])
            .map(|(&s, r)| (s, Arc::clone(r))),
    );
    out
}

impl PartialEq for PairSet {
    /// Content equality, independent of the backing.
    fn eq(&self, other: &Self) -> bool {
        match (&self.repr, &other.repr) {
            (Repr::Flat(a), Repr::Flat(b)) => a == b,
            _ => self.len() == other.len() && self.iter().eq(other.iter()),
        }
    }
}

impl Eq for PairSet {}

impl FromIterator<(VertexId, VertexId)> for PairSet {
    fn from_iter<I: IntoIterator<Item = (VertexId, VertexId)>>(iter: I) -> Self {
        Self::from_pairs(iter.into_iter().collect())
    }
}

impl FromIterator<(u32, u32)> for PairSet {
    fn from_iter<I: IntoIterator<Item = (u32, u32)>>(iter: I) -> Self {
        Self::from_pairs(
            iter.into_iter()
                .map(|(a, b)| (VertexId(a), VertexId(b)))
                .collect(),
        )
    }
}

impl fmt::Debug for PairSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_set()
            .entries(self.iter().map(|(a, b)| format!("({a},{b})")))
            .finish()
    }
}

/// Ascending `(start, end)` iterator over a [`PairSet`].
pub struct PairIter<'a>(PairIterInner<'a>);

enum PairIterInner<'a> {
    Flat(std::slice::Iter<'a, (VertexId, VertexId)>),
    Grouped {
        set: &'a Grouped,
        group: usize,
        row: Option<RowIter<'a>>,
    },
}

impl Iterator for PairIter<'_> {
    type Item = (VertexId, VertexId);

    fn next(&mut self) -> Option<Self::Item> {
        match &mut self.0 {
            PairIterInner::Flat(it) => it.next().copied(),
            PairIterInner::Grouped { set, group, row } => loop {
                let it = row.as_mut()?;
                if let Some(end) = it.next() {
                    return Some((set.starts[*group], VertexId(end)));
                }
                *group += 1;
                *row = set.rows.get(*group).map(|r| r.iter());
            },
        }
    }
}

/// Borrowed view of the end vertices of one start — the group payload
/// [`PairSet::ends_of`] and [`PairSet::groups`] hand out. Join pipelines
/// consume grouped [`RowSet`] rows through this without materializing
/// pair slices.
pub enum Ends<'a> {
    /// Ends embedded in a flat pair slice (all pairs share one start).
    Pairs(&'a [(VertexId, VertexId)]),
    /// Ends as a shared hybrid row.
    Row(&'a RowSet),
    /// A single synthesized end (identity relations).
    Single(VertexId),
}

impl<'a> Ends<'a> {
    /// Number of end vertices.
    pub fn len(&self) -> usize {
        match self {
            Ends::Pairs(p) => p.len(),
            Ends::Row(r) => r.len(),
            Ends::Single(_) => 1,
        }
    }

    /// Whether there are no ends.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Membership test for an end vertex.
    pub fn contains(&self, end: VertexId) -> bool {
        match self {
            Ends::Pairs(p) => p.binary_search_by(|&(_, e)| e.cmp(&end)).is_ok(),
            Ends::Row(r) => r.contains(end.raw()),
            Ends::Single(v) => *v == end,
        }
    }

    /// The largest end vertex.
    pub fn max(&self) -> Option<VertexId> {
        match self {
            Ends::Pairs(p) => p.last().map(|&(_, e)| e),
            Ends::Row(r) => r.max().map(VertexId),
            Ends::Single(v) => Some(*v),
        }
    }

    /// End vertices ascending.
    pub fn iter(&self) -> EndsIter<'a> {
        match self {
            Ends::Pairs(p) => EndsIter::Pairs(p.iter()),
            Ends::Row(r) => EndsIter::Row(r.iter()),
            Ends::Single(v) => EndsIter::Single(Some(*v)),
        }
    }
}

/// Ascending iterator over an [`Ends`] view.
pub enum EndsIter<'a> {
    /// Flat pair slice.
    Pairs(std::slice::Iter<'a, (VertexId, VertexId)>),
    /// Hybrid row.
    Row(RowIter<'a>),
    /// At most one synthesized end.
    Single(Option<VertexId>),
}

impl Iterator for EndsIter<'_> {
    type Item = VertexId;

    fn next(&mut self) -> Option<VertexId> {
        match self {
            EndsIter::Pairs(it) => it.next().map(|&(_, e)| e),
            EndsIter::Row(it) => it.next().map(VertexId),
            EndsIter::Single(v) => v.take(),
        }
    }
}

/// Iterator over `(start, ends)` runs of a [`PairSet`].
pub struct PairGroups<'a>(PairGroupsInner<'a>);

enum PairGroupsInner<'a> {
    Flat {
        pairs: &'a [(VertexId, VertexId)],
        at: usize,
    },
    Grouped {
        set: &'a Grouped,
        at: usize,
    },
}

impl<'a> Iterator for PairGroups<'a> {
    type Item = (VertexId, Ends<'a>);

    fn next(&mut self) -> Option<Self::Item> {
        match &mut self.0 {
            PairGroupsInner::Flat { pairs, at } => {
                if *at >= pairs.len() {
                    return None;
                }
                let start = pairs[*at].0;
                let begin = *at;
                while *at < pairs.len() && pairs[*at].0 == start {
                    *at += 1;
                }
                Some((start, Ends::Pairs(&pairs[begin..*at])))
            }
            PairGroupsInner::Grouped { set, at } => {
                if *at >= set.starts.len() {
                    return None;
                }
                let i = *at;
                *at += 1;
                Some((set.starts[i], Ends::Row(&set.rows[i])))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ps(pairs: &[(u32, u32)]) -> PairSet {
        pairs.iter().copied().collect()
    }

    /// The same relation with the grouped backing.
    fn grouped(pairs: &[(u32, u32)]) -> PairSet {
        let flat = ps(pairs);
        let mut groups: Vec<(VertexId, Arc<RowSet>)> = Vec::new();
        for (s, ends) in flat.groups() {
            let row: Vec<u32> = ends.iter().map(VertexId::raw).collect();
            groups.push((s, Arc::new(RowSet::from_sorted_vec(row))));
        }
        let g = PairSet::from_grouped_rows(groups);
        assert!(g.is_grouped() || g.is_empty());
        g
    }

    fn vecs(s: &PairSet) -> Vec<(u32, u32)> {
        s.iter().map(|(a, b)| (a.raw(), b.raw())).collect()
    }

    #[test]
    fn from_pairs_sorts_and_dedups() {
        let s = ps(&[(2, 1), (0, 0), (2, 1), (1, 5)]);
        assert_eq!(s.len(), 3);
        assert_eq!(vecs(&s), vec![(0, 0), (1, 5), (2, 1)]);
    }

    #[test]
    fn contains_via_binary_search() {
        let pairs = [(1, 2), (3, 4)];
        for s in [ps(&pairs), grouped(&pairs)] {
            assert!(s.contains(VertexId(1), VertexId(2)));
            assert!(!s.contains(VertexId(1), VertexId(3)));
            assert!(!s.contains(VertexId(0), VertexId(0)));
        }
    }

    #[test]
    fn identity_relation() {
        let s = PairSet::identity(3);
        assert_eq!(s.len(), 3);
        for v in 0..3 {
            assert!(s.contains(VertexId(v), VertexId(v)));
        }
        assert!(PairSet::identity(0).is_empty());
    }

    #[test]
    fn grouped_equals_flat_and_iterates_identically() {
        let pairs = [(0, 1), (0, 7), (2, 3), (9, 0)];
        let (f, g) = (ps(&pairs), grouped(&pairs));
        assert_eq!(f, g);
        assert_eq!(g, f);
        assert_eq!(vecs(&f), vecs(&g));
        assert_eq!(f.len(), g.len());
        for (s, e) in f.iter() {
            assert!(g.contains(s, e));
        }
        assert_eq!(f.clone().into_vec(), g.clone().into_vec());
    }

    #[test]
    fn union_merges_without_duplicates() {
        let a = ps(&[(0, 1), (2, 3)]);
        let b = ps(&[(0, 1), (1, 1)]);
        let u = a.union(&b);
        assert_eq!(u, ps(&[(0, 1), (1, 1), (2, 3)]));
        // Union with empty is identity.
        assert_eq!(a.union(&PairSet::new()), a);
        assert_eq!(PairSet::new().union(&b), b);
    }

    #[test]
    fn union_across_backings() {
        let a = [(0u32, 1u32), (2, 3), (2, 9)];
        let b = [(0u32, 1u32), (1, 1), (2, 4)];
        let expect = ps(&[(0, 1), (1, 1), (2, 3), (2, 4), (2, 9)]);
        for lhs in [ps(&a), grouped(&a)] {
            for rhs in [ps(&b), grouped(&b)] {
                assert_eq!(lhs.union(&rhs), expect);
                let mut in_place = lhs.clone();
                in_place.union_in_place(&rhs);
                assert_eq!(in_place, expect);
            }
        }
        // Grouped ∪ grouped keeps the grouped backing.
        assert!(grouped(&a).union(&grouped(&b)).is_grouped());
    }

    #[test]
    fn union_of_grouped_shares_unchanged_rows() {
        let a = grouped(&[(0, 1), (0, 2)]);
        let b = grouped(&[(5, 7)]);
        let u = a.union(&b);
        assert!(u.is_grouped());
        assert_eq!(u, ps(&[(0, 1), (0, 2), (5, 7)]));
        // Disjoint starts: both rows are Arc-shared, not copied.
        match (&a.repr, &u.repr) {
            (Repr::Grouped(ga), Repr::Grouped(gu)) => {
                assert!(Arc::ptr_eq(&ga.rows[0], &gu.rows[0]));
            }
            _ => unreachable!(),
        }
    }

    #[test]
    fn union_in_place_matches_union() {
        let mut a = ps(&[(0, 1), (5, 5)]);
        let b = ps(&[(0, 2), (5, 5)]);
        let expect = a.union(&b);
        a.union_in_place(&b);
        assert_eq!(a, expect);
    }

    /// ISSUE 7 satellite: flat ∪= must merge in place — same result as
    /// `union`, and no reallocation when capacity suffices.
    #[test]
    fn union_in_place_is_actually_in_place() {
        let mut seed = Vec::with_capacity(32);
        seed.extend([
            (VertexId(1), VertexId(1)),
            (VertexId(3), VertexId(3)),
            (VertexId(9), VertexId(9)),
        ]);
        let mut a = PairSet::from_sorted_unique(seed);
        let expect = a.union(&ps(&[(0, 5), (3, 3), (4, 4)]));
        let Repr::Flat(v) = &a.repr else {
            unreachable!()
        };
        let ptr = v.as_ptr();
        assert!(v.capacity() >= 32, "fixture must have spare capacity");
        a.union_in_place(&ps(&[(0, 5), (3, 3), (4, 4)]));
        assert_eq!(a, expect);
        assert_eq!(vecs(&a), vec![(0, 5), (1, 1), (3, 3), (4, 4), (9, 9)]);
        let Repr::Flat(v) = &a.repr else {
            unreachable!()
        };
        assert_eq!(v.as_ptr(), ptr, "capacity sufficed: must not reallocate");
        // Subset union: no growth, no movement.
        a.union_in_place(&ps(&[(1, 1), (9, 9)]));
        assert_eq!(a.len(), 5);
    }

    #[test]
    fn difference_on_both_backings() {
        let a = ps(&[(0, 1), (1, 2), (2, 3)]);
        let b = ps(&[(1, 2), (2, 3), (3, 4)]);
        assert_eq!(a.difference(&b), ps(&[(0, 1)]));
        assert_eq!(b.difference(&a), ps(&[(3, 4)]));
        // Same answers through the grouped backing.
        assert_eq!(
            grouped(&[(0, 1), (1, 2), (2, 3)]).difference(&b),
            ps(&[(0, 1)])
        );
        assert_eq!(
            a.difference(&grouped(&[(1, 2), (2, 3), (3, 4)])),
            ps(&[(0, 1)])
        );
    }

    #[test]
    fn compose_implements_lemma4_join() {
        // (A·B)_G = π(A_G ⋈ B_G); Lemma 4.
        let ab = ps(&[(0, 1), (0, 2), (3, 1)]);
        let bc = ps(&[(1, 7), (2, 7), (2, 8)]);
        let c = ab.compose(&bc);
        assert_eq!(c, ps(&[(0, 7), (0, 8), (3, 7)]));
        // Grouped right side feeds the join through its rows directly.
        assert_eq!(ab.compose(&grouped(&[(1, 7), (2, 7), (2, 8)])), c);
    }

    #[test]
    fn compose_with_identity_is_noop() {
        let a = ps(&[(0, 1), (2, 3)]);
        let id = PairSet::identity(5);
        assert_eq!(a.compose(&id), a);
        assert_eq!(id.compose(&a), a);
    }

    #[test]
    fn ends_of_returns_group() {
        for s in [
            ps(&[(1, 2), (1, 5), (2, 0)]),
            grouped(&[(1, 2), (1, 5), (2, 0)]),
        ] {
            let ends = s.ends_of(VertexId(1));
            assert_eq!(ends.len(), 2);
            assert!(ends.contains(VertexId(5)));
            assert!(!ends.contains(VertexId(0)));
            let group: Vec<u32> = ends.iter().map(VertexId::raw).collect();
            assert_eq!(group, vec![2, 5]);
            assert!(s.ends_of(VertexId(9)).is_empty());
        }
    }

    #[test]
    fn groups_iterates_runs() {
        for s in [
            ps(&[(1, 2), (1, 5), (3, 0)]),
            grouped(&[(1, 2), (1, 5), (3, 0)]),
        ] {
            let runs: Vec<(u32, usize)> = s.groups().map(|(v, g)| (v.raw(), g.len())).collect();
            assert_eq!(runs, vec![(1, 2), (3, 1)]);
        }
    }

    #[test]
    fn from_sorted_unique_accepts_valid_input() {
        let s = PairSet::from_sorted_unique(vec![
            (VertexId(0), VertexId(1)),
            (VertexId(1), VertexId(0)),
        ]);
        assert_eq!(s.len(), 2);
    }

    #[test]
    #[should_panic(expected = "not sorted")]
    #[cfg(debug_assertions)]
    fn from_sorted_unique_rejects_unsorted_in_debug() {
        let _ = PairSet::from_sorted_unique(vec![
            (VertexId(1), VertexId(0)),
            (VertexId(0), VertexId(1)),
        ]);
    }

    #[test]
    fn membership_probes_agree() {
        let s = ps(&[(0, 1), (2, 3)]);
        assert_eq!(s.len(), 2);
        assert!(s.contains(VertexId(0), VertexId(1)));
        assert!(!s.contains(VertexId(0), VertexId(3)));
    }

    #[test]
    fn from_grouped_rows_drops_empty_and_sorts() {
        let g = PairSet::from_grouped_rows(vec![
            (VertexId(7), Arc::new(RowSet::from_sorted_vec(vec![0, 3]))),
            (VertexId(1), Arc::new(RowSet::empty())),
            (VertexId(2), Arc::new(RowSet::from_sorted_vec(vec![9]))),
        ]);
        assert_eq!(vecs(&g), vec![(2, 9), (7, 0), (7, 3)]);
        assert_eq!(g.len(), 3);
    }

    #[test]
    fn heap_bytes_counts_both_backings() {
        let flat = ps(&[(0, 1), (2, 3)]);
        assert!(flat.heap_bytes() >= 2 * std::mem::size_of::<(VertexId, VertexId)>());
        let g = grouped(&[(0, 1), (0, 2), (5, 7)]);
        // starts + Arc spine + row payloads, all non-zero here.
        assert!(g.heap_bytes() >= 3 * 4);
        assert_eq!(PairSet::new().heap_bytes(), 0);
    }

    #[test]
    fn heap_bytes_charges_a_shared_row_once() {
        let row = Arc::new(RowSet::dense_from_iter(2048, (0..2048).step_by(3)));
        let spine =
            |n: usize| n * (std::mem::size_of::<VertexId>() + std::mem::size_of::<Arc<RowSet>>());
        let shared = PairSet::from_grouped_rows(
            (0..1000).map(|s| (VertexId(s), Arc::clone(&row))).collect(),
        );
        let bytes = shared.heap_bytes();
        assert!(bytes >= spine(1000) + row.heap_bytes(), "{bytes}");
        assert!(bytes < 2 * spine(1000) + row.heap_bytes(), "{bytes}");
        // Equal but distinct rows are distinct allocations: each is charged.
        let copies = PairSet::from_grouped_rows(
            (0..1000)
                .map(|s| (VertexId(s), Arc::new((*row).clone())))
                .collect(),
        );
        assert_eq!(copies.heap_bytes() - bytes, 999 * row.heap_bytes());
    }
}
