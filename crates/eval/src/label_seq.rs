//! Closure-free clause evaluation by label-edge joins (`EvalRPQwithoutKC`).
//!
//! A DNF clause without Kleene closures is a plain label sequence
//! `l₁·l₂·…·lₖ`; its result is the relational composition of the base edge
//! relations (Lemma 4 applied k−1 times):
//! `(l₁·…·lₖ)_G = l₁_G ⋈ l₂_G ⋈ … ⋈ lₖ_G`.
//!
//! The engine evaluates closure-free clauses, the closure bodies `R_G`
//! (Algorithm 1 line 10) and the prefixes `Pre_G` this way. The join runs
//! left to right, one start at a time, but a start's path only branches
//! after its first hop: every start that reaches a first-hop vertex `m`
//! continues with the same *suffix row*, the ends `l₂·…·lₖ` reaches from
//! `m`. So each first-hop vertex's suffix row is computed once — for
//! `k = 2` it is `m`'s `l₂` adjacency slice itself — and a start's row is
//! that row copied when it has one first hop, or the union of its first
//! hops' rows gathered in a [`Cover`] and drained in ascending order.
//! Starts ascend too, so the pairs come out sorted and unique and the
//! whole relation is never sorted.

use rpq_graph::{Cover, LabelId, LabeledMultigraph, PairSet, VertexId};

/// Evaluates a label sequence over the whole graph.
///
/// An empty sequence is `ε` and yields the identity relation.
pub fn eval_label_sequence(graph: &LabeledMultigraph, labels: &[LabelId]) -> PairSet {
    let Some((&first, rest)) = labels.split_first() else {
        return PairSet::identity(graph.vertex_count());
    };
    let base = graph.edges_with_label(first);
    let Some((&last, middle)) = rest.split_last() else {
        // A label's edge list is already sorted and unique.
        return PairSet::from_sorted_unique(base.to_vec());
    };
    let n = graph.vertex_count();
    let mut ends = Cover::new(n);
    if middle.is_empty() {
        let suffix = |m: VertexId| graph.out_with_label(m, last).iter().map(|&(_, w)| w.raw());
        return join_first_hops(base, &mut ends, suffix);
    }
    // The suffix rows of every first-hop vertex, ascending by vertex:
    // `suffixes[at[m]..at[m + 1]]` is `m`'s.
    let mut first_hop = Cover::new(n);
    for &(_, m) in base {
        first_hop.insert(m.raw());
    }
    let mut seen = Cover::new(n);
    let mut frontier: Vec<VertexId> = Vec::new();
    let mut next: Vec<VertexId> = Vec::new();
    let mut at: Vec<u32> = Vec::with_capacity(n + 1);
    let mut suffixes: Vec<u32> = Vec::new();
    for m in 0..n as u32 {
        at.push(suffixes.len() as u32);
        if !first_hop.contains(m) {
            continue;
        }
        frontier.clear();
        frontier.push(VertexId(m));
        for &label in middle {
            seen.clear();
            next.clear();
            for &v in &frontier {
                for &(_, w) in graph.out_with_label(v, label) {
                    if seen.insert(w.raw()) {
                        next.push(w);
                    }
                }
            }
            std::mem::swap(&mut frontier, &mut next);
        }
        for &v in &frontier {
            for &(_, w) in graph.out_with_label(v, last) {
                ends.insert(w.raw());
            }
        }
        ends.drain_ascending(|end| suffixes.push(end));
    }
    at.push(suffixes.len() as u32);
    let suffix = |m: VertexId| {
        suffixes[at[m.index()] as usize..at[m.index() + 1] as usize]
            .iter()
            .copied()
    };
    join_first_hops(base, &mut ends, suffix)
}

/// `base ⋈ suffix`: each start's row is its one first hop's suffix row,
/// copied, or its first hops' rows unioned in `ends`.
fn join_first_hops<I: Iterator<Item = u32>>(
    base: &[(VertexId, VertexId)],
    ends: &mut Cover,
    suffix: impl Fn(VertexId) -> I,
) -> PairSet {
    let mut pairs: Vec<(VertexId, VertexId)> = Vec::with_capacity(base.len());
    for group in base.chunk_by(|a, b| a.0 == b.0) {
        let start = group[0].0;
        if let [(_, m)] = group {
            pairs.extend(suffix(*m).map(|end| (start, VertexId(end))));
            continue;
        }
        for &(_, m) in group {
            for end in suffix(m) {
                ends.insert(end);
            }
        }
        ends.drain_ascending(|end| pairs.push((start, VertexId(end))));
    }
    // Results are long-lived (cached bodies and answers): no slack is kept.
    pairs.shrink_to_fit();
    PairSet::from_sorted_unique(pairs)
}

/// Resolves label names against the graph alphabet and evaluates the
/// sequence. A name missing from the alphabet makes the result empty
/// (unless the sequence is empty, which is `ε`).
pub fn eval_label_names(graph: &LabeledMultigraph, names: &[String]) -> PairSet {
    let mut ids = Vec::with_capacity(names.len());
    for name in names {
        match graph.labels().get(name) {
            Some(id) => ids.push(id),
            None => return PairSet::new(),
        }
    }
    eval_label_sequence(graph, &ids)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rpq_graph::fixtures::{diamond, paper_graph};

    fn ids(g: &LabeledMultigraph, names: &[&str]) -> Vec<LabelId> {
        names.iter().map(|n| g.labels().get(n).unwrap()).collect()
    }

    fn pairs(ps: &PairSet) -> Vec<(u32, u32)> {
        ps.iter().map(|(a, b)| (a.raw(), b.raw())).collect()
    }

    #[test]
    fn single_label_is_base_relation() {
        let g = paper_graph();
        let r = eval_label_sequence(&g, &ids(&g, &["b"]));
        let b = g.labels().get("b").unwrap();
        assert_eq!(r.len(), g.edges_with_label(b).len());
    }

    #[test]
    fn example3_bc_join() {
        let g = paper_graph();
        let r = eval_label_sequence(&g, &ids(&g, &["b", "c"]));
        assert_eq!(pairs(&r), vec![(2, 4), (2, 6), (3, 5), (4, 2), (5, 3)]);
    }

    #[test]
    fn empty_sequence_is_identity() {
        let g = diamond();
        assert_eq!(eval_label_sequence(&g, &[]), PairSet::identity(5));
    }

    #[test]
    fn three_hop_join() {
        let g = diamond();
        let r = eval_label_sequence(&g, &ids(&g, &["a", "b", "c"]));
        assert_eq!(pairs(&r), vec![(0, 4)]);
    }

    #[test]
    fn dead_join_short_circuits() {
        let g = diamond();
        let r = eval_label_sequence(&g, &ids(&g, &["c", "a"]));
        assert!(r.is_empty());
    }

    #[test]
    fn names_resolution() {
        let g = paper_graph();
        let r = eval_label_names(&g, &["b".into(), "c".into()]);
        assert_eq!(r.len(), 5);
        // Unknown label name → empty relation.
        assert!(eval_label_names(&g, &["nope".into()]).is_empty());
        assert!(eval_label_names(&g, &["b".into(), "nope".into()]).is_empty());
        // Empty name list is ε.
        assert_eq!(eval_label_names(&g, &[]), PairSet::identity(10));
    }

    #[test]
    fn agrees_with_product_evaluator() {
        use crate::product::evaluate;
        use rpq_regex::Regex;
        let g = paper_graph();
        for q in ["b", "b.c", "c.b", "b.c.c", "d.b", "a.c"] {
            let names: Vec<String> = q.split('.').map(String::from).collect();
            let by_join = eval_label_names(&g, &names);
            let by_bfs = evaluate(&g, &Regex::parse(q).unwrap());
            assert_eq!(by_join, by_bfs, "query {q}");
        }
    }

    #[test]
    fn duplicate_intermediate_paths_collapse() {
        // diamond: 0 -a-> {1,2} -b-> 3; two paths produce one pair.
        let g = diamond();
        let r = eval_label_sequence(&g, &ids(&g, &["a", "b"]));
        assert_eq!(pairs(&r), vec![(0, 3)]);
    }
}
