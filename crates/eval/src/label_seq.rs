//! Closure-free clause evaluation by label-edge joins.
//!
//! A DNF clause without Kleene closures is a plain label sequence
//! `l₁·l₂·…·lₖ`; its result is the relational composition of the base edge
//! relations (Lemma 4 applied k−1 times):
//! `(l₁·…·lₖ)_G = l₁_G ⋈ l₂_G ⋈ … ⋈ lₖ_G`.
//!
//! Two entry points:
//!
//! * [`eval_label_sequence`] — the full relation, evaluated left-to-right
//!   with hash-group joins (used by `EvalRPQwithoutKC`, Algorithm 1 line 6);
//! * [`eval_label_sequence_from`] — `EvalRestrictedRPQ(Post, v)` of
//!   Algorithm 2 line 14: frontier expansion from a single start vertex.

use rpq_graph::{LabelId, LabeledMultigraph, PairSet, VertexId};

/// Evaluates a label sequence over the whole graph.
///
/// An empty sequence is `ε` and yields the identity relation.
pub fn eval_label_sequence(graph: &LabeledMultigraph, labels: &[LabelId]) -> PairSet {
    let Some((&first, rest)) = labels.split_first() else {
        return PairSet::identity(graph.vertex_count());
    };
    // Start from the base relation of the first label...
    let mut pairs: Vec<(VertexId, VertexId)> = graph.edges_with_label(first).to_vec();
    // ...and extend the frontier one label at a time.
    for &label in rest {
        let mut next: Vec<(VertexId, VertexId)> = Vec::with_capacity(pairs.len());
        for (start, mid) in pairs {
            for &(_, end) in graph.out_with_label(mid, label) {
                next.push((start, end));
            }
        }
        next.sort_unstable();
        next.dedup();
        pairs = next;
        if pairs.is_empty() {
            break;
        }
    }
    PairSet::from_pairs(pairs)
}

/// Evaluates a label sequence from one start vertex, returning the sorted
/// distinct end vertices (`EvalRestrictedRPQ`).
///
/// An empty sequence yields `[source]`.
pub fn eval_label_sequence_from(
    graph: &LabeledMultigraph,
    labels: &[LabelId],
    source: VertexId,
) -> Vec<VertexId> {
    let mut frontier = vec![source];
    for &label in labels {
        let mut next: Vec<VertexId> = Vec::new();
        for v in frontier {
            next.extend(graph.out_with_label(v, label).iter().map(|&(_, d)| d));
        }
        next.sort_unstable();
        next.dedup();
        frontier = next;
        if frontier.is_empty() {
            break;
        }
    }
    frontier
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
        assert_eq!(r.len(), g.label_edge_count(b));
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
    fn from_source_expansion() {
        let g = paper_graph();
        let seq = ids(&g, &["b", "c"]);
        let ends: Vec<u32> = eval_label_sequence_from(&g, &seq, VertexId(2))
            .iter()
            .map(|v| v.raw())
            .collect();
        assert_eq!(ends, vec![4, 6]);
        let ends = eval_label_sequence_from(&g, &seq, VertexId(0));
        assert!(ends.is_empty());
    }

    #[test]
    fn from_source_empty_sequence() {
        let g = paper_graph();
        assert_eq!(
            eval_label_sequence_from(&g, &[], VertexId(3)),
            vec![VertexId(3)]
        );
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
