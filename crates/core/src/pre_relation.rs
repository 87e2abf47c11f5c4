//! The `Pre_G` relation, with a symbolic identity representation.
//!
//! When a batch unit has `Pre = ε` (the clause starts with its closure),
//! `Pre_G` is the identity relation over *all* graph vertices. Materializing
//! `|V|` self-pairs just to immediately join them away would be wasteful, so
//! [`PreRelation::Identity`] keeps it symbolic; the batch-unit evaluators
//! iterate it lazily.

use rpq_graph::{Ends, PairSet, VertexId};

/// `Pre_G`: either the symbolic identity over `0..n` or a concrete pair set.
#[derive(Clone, Debug)]
pub enum PreRelation {
    /// `{(v, v) | v ∈ 0..n}` — the result of `ε` over an `n`-vertex graph.
    Identity(usize),
    /// A materialized relation.
    Pairs(PairSet),
}

impl PreRelation {
    /// Number of tuples.
    pub fn len(&self) -> usize {
        match self {
            PreRelation::Identity(n) => *n,
            PreRelation::Pairs(p) => p.len(),
        }
    }

    /// Whether the relation is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Whether `(start, end)` is in the relation.
    pub fn contains(&self, start: VertexId, end: VertexId) -> bool {
        match self {
            PreRelation::Identity(n) => start == end && start.index() < *n,
            PreRelation::Pairs(p) => p.contains(start, end),
        }
    }

    /// Iterates over `(start, ends)` runs in ascending start order — the
    /// shape the batch-unit evaluator consumes (per-start scratch resets).
    /// The identity relation yields each vertex as an [`Ends::Single`]
    /// without materializing self-pairs.
    pub fn for_each_group<F: FnMut(VertexId, Ends<'_>)>(&self, mut f: F) {
        match self {
            PreRelation::Identity(n) => {
                for v in 0..*n as u32 {
                    let v = VertexId(v);
                    f(v, Ends::Single(v));
                }
            }
            PreRelation::Pairs(p) => {
                for (start, ends) in p.groups() {
                    f(start, ends);
                }
            }
        }
    }
}

impl From<PairSet> for PreRelation {
    fn from(p: PairSet) -> Self {
        PreRelation::Pairs(p)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every tuple, collected through [`PreRelation::for_each_group`].
    fn pairs(r: &PreRelation) -> PairSet {
        let mut out = Vec::new();
        r.for_each_group(|v, ends| out.extend(ends.iter().map(|e| (v, e))));
        PairSet::from_pairs(out)
    }

    #[test]
    fn identity_semantics() {
        let r = PreRelation::Identity(3);
        assert_eq!(r.len(), 3);
        assert!(!r.is_empty());
        assert!(r.contains(VertexId(2), VertexId(2)));
        assert!(!r.contains(VertexId(2), VertexId(1)));
        assert!(!r.contains(VertexId(3), VertexId(3))); // out of range
        assert_eq!(pairs(&r), PairSet::identity(3));
    }

    #[test]
    fn identity_groups() {
        let r = PreRelation::Identity(2);
        let mut seen = Vec::new();
        r.for_each_group(|v, g| {
            assert_eq!(g.len(), 1);
            seen.push(v.raw());
        });
        assert_eq!(seen, vec![0, 1]);
    }

    #[test]
    fn pairs_groups() {
        let p: PairSet = [(1u32, 2u32), (1, 3), (4, 0)].into_iter().collect();
        let r = PreRelation::from(p.clone());
        assert_eq!(r.len(), 3);
        let mut groups = Vec::new();
        r.for_each_group(|v, g| groups.push((v.raw(), g.len())));
        assert_eq!(groups, vec![(1, 2), (4, 1)]);
        assert_eq!(pairs(&r), p);
    }

    #[test]
    fn empty_identity() {
        let r = PreRelation::Identity(0);
        assert!(r.is_empty());
        let mut count = 0;
        r.for_each_group(|_, _| count += 1);
        assert_eq!(count, 0);
    }
}
