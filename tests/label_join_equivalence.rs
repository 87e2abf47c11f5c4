//! `eval_label_sequence` against two independent evaluations: the
//! whole-relation join (grow every pair, sort and dedup after each label)
//! and the automaton-product evaluator; and `LabelPath`'s walk and row
//! from drawn start sets against the whole-relation join's ends.
//!
//! The exhaustive check over the benchmark's `cold_sets` graph is
//! `#[ignore]`d; run it with
//! `cargo test --release --test label_join_equivalence -- --ignored`.

use rand::rngs::StdRng;
use rand::Rng;
use rpq_testkit::{check, random_edges, random_word, Edge};
use rtc_rpq::eval::{eval_label_sequence, LabelPath, ProductEvaluator};
use rtc_rpq::graph::{GraphBuilder, LabelId, LabeledMultigraph, PairSet, RowSet};
use rtc_rpq::regex::Regex;
use std::ops::Range;

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

/// Checks `LabelPath` over `labels` from four start sets against the
/// whole-relation join's ends: none, one vertex, `starts` twice over (so
/// ids repeat), and every vertex. `walk` gives those ends, each once, and
/// `row` gives them in the layout and bytes `RowSet::normalize` leaves.
fn assert_walk_matches(graph: &LabeledMultigraph, labels: &[LabelId], starts: &[u32]) {
    let names: Vec<String> = labels
        .iter()
        .map(|&l| graph.labels().name(l).to_string())
        .collect();
    let mut path = LabelPath::new(graph, &names).expect("every label is in the alphabet");
    let reference = whole_relation_join(graph, labels);
    let n = graph.vertex_count() as u32;
    let twice: Vec<u32> = starts.iter().chain(starts).copied().collect();
    let every: Vec<u32> = (0..n).collect();
    for from in [&[][..], &starts[..starts.len().min(1)], &twice, &every] {
        let mut expected: Vec<u32> = reference
            .iter()
            .filter(|(s, _)| from.contains(&s.raw()))
            .map(|(_, e)| e.raw())
            .collect();
        expected.sort_unstable();
        expected.dedup();
        let mut walked = path.walk(from.iter().copied()).to_vec();
        walked.sort_unstable();
        assert_eq!(walked, expected, "labels {labels:?}, starts {from:?}");
        let row = path.row(from.iter().copied());
        let mut normalized = RowSet::from_unsorted(expected);
        normalized.normalize(n);
        assert_eq!(row, normalized, "labels {labels:?}, starts {from:?}");
        assert_eq!(row.is_dense(), normalized.is_dense(), "starts {from:?}");
        assert_eq!(row.heap_bytes(), normalized.heap_bytes(), "starts {from:?}");
    }
}

/// A random graph over `n` vertices with planted shapes: a self-loop on
/// vertex 0, a hub that several `a`-paths meet in and that fans out by
/// `b`, an edge into the highest id, and every label present.
fn graph(n: u32, edges: &[Edge]) -> LabeledMultigraph {
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
    b.add_edge(top, "d", hub);
    for &(s, l, d) in edges {
        b.add_edge(s % n, l, d % n);
    }
    b.build()
}

fn ids(graph: &LabeledMultigraph, seq: &[&str]) -> Vec<LabelId> {
    seq.iter()
        .map(|&l| graph.labels().get(l).unwrap())
        .collect()
}

/// A drawn case: a vertex count, the edges planted among, a word of labels
/// and the starts of a walk along it.
type Case = (u32, Vec<Edge>, Vec<&'static str>, Vec<u32>);

/// Draws a vertex count from `n`, up to `m` random edges to plant shapes
/// among, a word of up to four labels to join, and up to four walk starts
/// below the vertex count.
fn planted(n: Range<u32>, m: usize) -> impl Fn(&mut StdRng) -> Case {
    move |r| {
        let (n, edges) = random_edges(r, n.clone(), 0..m);
        let word = random_word(r, 4);
        let starts = (0..r.gen_range(0..=4)).map(|_| r.gen_range(0..n)).collect();
        (n, edges, word, starts)
    }
}

/// The join and the walk of one drawn case.
fn assert_case(&(n, ref edges, ref seq, ref starts): &Case) {
    let g = graph(n, edges);
    let labels = ids(&g, seq);
    assert_join_matches(&g, &labels);
    assert_walk_matches(&g, &labels, starts);
}

/// Small dense graphs: many paths per start, repeated labels, cycles.
#[test]
fn small_dense_graphs() {
    check(0x5D, 96, planted(1..16, 60), assert_case);
}

/// Sparse graphs over a wide id range: rows whose few ends lie far
/// apart, read back by sorting rather than from the bitset's words.
#[test]
fn sparse_wide_graphs() {
    check(0x5E, 96, planted(64..600, 300), assert_case);
}

/// The planted shapes on their own, each sequence named for the shape it
/// exercises. On top of them the hub (vertex 6) is a first hop of starts on
/// both sides of its id (0..5 below, 8 and 10 above); start 8's other first
/// hop, 3, shares the end 4 with the hub; and first hops 0 and 7 have no
/// `b`-edge, so their `a·b` suffix rows are empty.
#[test]
fn planted_shapes() {
    let extra = [
        (3, "b", 7),
        (7, "c", 9),
        (3, "b", 4),
        (8, "a", 3),
        (8, "a", 6),
        (10, "a", 6),
        (9, "a", 7),
    ];
    let g = graph(12, &extra);
    for seq in [
        &[][..],               // ε
        &["a", "a", "a"],      // a repeated label around the self-loop on vertex 0
        &["a", "b"],           // paths from seven starts meet in the hub, then fan out
        &["a", "b", "c"],      // the hub's end `top` continues; start 8's hops both reach 11
        &["a", "c"],           // start 9's one first hop has a suffix, start 0's do not
        &["b", "c"],           // `n/3 -c-> top`: the highest id as an end
        &["c", "c", "c", "c"], // starts whose paths die out before the last label
    ] {
        assert_join_matches(&g, &ids(&g, seq));
        assert_walk_matches(&g, &ids(&g, seq), &[8, 3, 8]);
    }
}

/// A path with a label the graph lacks binds to nothing, and the empty
/// path walks to its starts, each once.
#[test]
fn label_path_absent_label_and_empty_path() {
    let g = graph(12, &[]);
    let names = |seq: &[&str]| seq.iter().map(|l| l.to_string()).collect::<Vec<_>>();
    assert!(LabelPath::new(&g, &names(&["nope"])).is_none());
    assert!(LabelPath::new(&g, &names(&["a", "nope", "b"])).is_none());
    let mut empty = LabelPath::new(&g, &[]).unwrap();
    let mut walked = empty.walk([5, 2, 5, 11, 2]).to_vec();
    walked.sort_unstable();
    assert_eq!(walked, vec![2, 5, 11]);
}

/// Every sequence of length 1–3 over the four labels of the `cold_sets`
/// graph: 84 joins, pairs and `heap_bytes` equal to the whole-relation
/// join.
#[test]
#[ignore = "exhaustive; run in release with --ignored"]
fn cold_sets_graph_all_short_sequences() {
    let g = rtc_rpq::datasets::rmat::rmat_n_scaled(2, 11, 1);
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
