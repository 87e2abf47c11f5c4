//! `eval_label_sequence` against two independent evaluations: the
//! whole-relation join (grow every pair, sort and dedup after each label)
//! and the automaton-product evaluator.
//!
//! The exhaustive check over the benchmark's `cold_sets` graph is
//! `#[ignore]`d; run it with `cargo test --release -p rpq_eval -- --ignored`.

use proptest::prelude::*;
use rpq_eval::{eval_label_sequence, ProductEvaluator};
use rpq_graph::{GraphBuilder, LabelId, LabeledMultigraph, PairSet};
use rpq_regex::Regex;

const LABELS: [&str; 3] = ["a", "b", "c"];

/// The label join as a whole relation: after every label, all pairs are
/// extended, then sorted and deduplicated.
fn whole_relation_join(graph: &LabeledMultigraph, labels: &[LabelId]) -> PairSet {
    let Some((&first, rest)) = labels.split_first() else {
        return PairSet::identity(graph.vertex_count());
    };
    let mut pairs = graph.edges_with_label(first).to_vec();
    for &label in rest {
        let mut next = Vec::with_capacity(pairs.len());
        for (start, mid) in pairs {
            for &(_, end) in graph.out_with_label(mid, label) {
                next.push((start, end));
            }
        }
        next.sort_unstable();
        next.dedup();
        pairs = next;
    }
    PairSet::from_pairs(pairs)
}

/// Checks one sequence against both references: pairs and `heap_bytes`
/// against the whole-relation join, pairs against the product evaluator.
fn assert_join_matches(graph: &LabeledMultigraph, labels: &[LabelId]) {
    let got = eval_label_sequence(graph, labels);
    let reference = whole_relation_join(graph, labels);
    assert_eq!(got, reference, "labels {labels:?}");
    assert_eq!(
        got.heap_bytes(),
        reference.heap_bytes(),
        "labels {labels:?}"
    );
    if !labels.is_empty() {
        let names: Vec<&str> = labels.iter().map(|&l| graph.labels().name(l)).collect();
        let query = Regex::parse(&names.join(".")).unwrap();
        let product = ProductEvaluator::new(graph, &query).evaluate();
        assert_eq!(got, product, "query {}", names.join("."));
    }
}

/// A random graph over `n` vertices with planted shapes: a self-loop on
/// vertex 0, a hub that several `a`-paths meet in and that fans out by
/// `b`, an edge into the highest id, and every label present.
fn graph(n: u32, edges: &[(u32, usize, u32)]) -> LabeledMultigraph {
    let mut b = GraphBuilder::new();
    b.ensure_vertices(n as usize);
    let (hub, top) = (n / 2, n - 1);
    b.add_edge(0, "a", 0);
    for v in 0..n.min(5) {
        b.add_edge(v, "a", hub);
    }
    for v in [0, top, n / 3] {
        b.add_edge(hub, "b", v);
    }
    b.add_edge(top, "c", top / 4);
    b.add_edge(n / 3, "c", top);
    for &(s, l, d) in edges {
        b.add_edge(s % n, LABELS[l], d % n);
    }
    b.build()
}

fn ids(graph: &LabeledMultigraph, seq: &[usize]) -> Vec<LabelId> {
    seq.iter()
        .map(|&l| graph.labels().get(LABELS[l]).unwrap())
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Small dense graphs: many paths per start, repeated labels, cycles.
    #[test]
    fn small_dense_graphs(
        n in 1u32..16,
        edges in prop::collection::vec((0u32..16, 0usize..3, 0u32..16), 0..60),
        seq in prop::collection::vec(0usize..3, 0..5),
    ) {
        let g = graph(n, &edges);
        assert_join_matches(&g, &ids(&g, &seq));
    }

    /// Sparse graphs over a wide id range: rows whose few ends lie far
    /// apart, read back by sorting rather than from the bitset's words.
    #[test]
    fn sparse_wide_graphs(
        n in 64u32..600,
        edges in prop::collection::vec((0u32..600, 0usize..3, 0u32..600), 0..300),
        seq in prop::collection::vec(0usize..3, 0..5),
    ) {
        let g = graph(n, &edges);
        assert_join_matches(&g, &ids(&g, &seq));
    }
}

/// The planted shapes on their own, each sequence named for the shape it
/// exercises.
#[test]
fn planted_shapes() {
    let g = graph(12, &[(3, 1, 7), (7, 2, 9)]);
    for seq in [
        &[][..],       // ε
        &[0, 0, 0],    // a repeated label around the self-loop on vertex 0
        &[0, 1],       // paths from five starts meet in the hub, then fan out
        &[0, 1, 2],    // the hub's end `top` continues, its other ends do not
        &[1, 2],       // `n/3 -c-> top`: the highest id as an end
        &[2, 2, 2, 2], // starts whose paths die out before the last label
    ] {
        assert_join_matches(&g, &ids(&g, seq));
    }
}

/// Every sequence of length 1–3 over the four labels of the `cold_sets`
/// graph: 84 joins, pairs and `heap_bytes` equal to the whole-relation
/// join.
#[test]
#[ignore = "exhaustive; run in release with --ignored"]
fn cold_sets_graph_all_short_sequences() {
    let g = rpq_datasets::rmat::rmat_n_scaled(2, 11, 1);
    let k = g.labels().len() as u32;
    assert_eq!(k, 4);
    let mut seqs: Vec<Vec<LabelId>> = vec![Vec::new()];
    let mut checked = 0;
    for _ in 0..3 {
        seqs = seqs
            .iter()
            .flat_map(|s| {
                (0..k).map(move |l| {
                    let mut s = s.clone();
                    s.push(LabelId(l));
                    s
                })
            })
            .collect();
        for seq in &seqs {
            let got = eval_label_sequence(&g, seq);
            let reference = whole_relation_join(&g, seq);
            assert_eq!(got, reference, "labels {seq:?}");
            assert_eq!(got.heap_bytes(), reference.heap_bytes(), "labels {seq:?}");
            checked += 1;
        }
    }
    assert_eq!(checked, 84);
}
