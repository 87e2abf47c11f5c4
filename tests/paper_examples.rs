//! End-to-end checks of every worked example in the paper (Examples 1–9),
//! run through the full public API.

use rtc_rpq::core::{Engine, SharingKind, Strategy};
use rtc_rpq::eval::product::evaluate;
use rtc_rpq::graph::fixtures::paper_graph;
use rtc_rpq::graph::{PairSet, VertexId};
use rtc_rpq::reduction::{reduce_edge_level, FullTc, Rtc};
use rtc_rpq::regex::Regex;

fn pairs(ps: &PairSet) -> Vec<(u32, u32)> {
    ps.iter().map(|(a, b)| (a.raw(), b.raw())).collect()
}

/// Example 1 / Fig. 2: (d·(b·c)+·c)_G = {(v7,v5), (v7,v3)}.
#[test]
fn example1_query_result() {
    let g = paper_graph();
    for strategy in Strategy::ALL {
        let e = Engine::with_strategy(&g, strategy);
        let r = e.evaluate_str("d.(b.c)+.c").unwrap();
        assert_eq!(pairs(&r), vec![(7, 3), (7, 5)], "{strategy}");
    }
}

/// Example 2 / Fig. 3: the NFA for d·(b·c)+·c has 5 states (q0..q4) and
/// the traversal from v7 terminates despite the b·c cycles.
#[test]
fn example2_automaton_and_traversal() {
    let q = Regex::parse("d.(b.c)+.c").unwrap();
    let nfa = rtc_rpq::automata::build_glushkov(&q);
    assert_eq!(nfa.state_count(), 5);
    // Path labels from the example: dbcc and dbcbcc accepted, dbc rejected.
    assert!(nfa.matches(&["d", "b", "c", "c"]));
    assert!(nfa.matches(&["d", "b", "c", "b", "c", "c"]));
    assert!(!nfa.matches(&["d", "b", "c"]));
}

/// Example 3 / Fig. 5: edge-level reduction for b·c.
#[test]
fn example3_edge_level_reduction() {
    let g = paper_graph();
    let gr = reduce_edge_level(&evaluate(&g, &Regex::parse("b.c").unwrap()));
    let edges: Vec<(u32, u32)> = gr
        .original_edges()
        .map(|(s, d)| (s.raw(), d.raw()))
        .collect();
    assert_eq!(edges, vec![(2, 4), (2, 6), (3, 5), (4, 2), (5, 3)]);
    assert_eq!(gr.vertex_count(), 5);
}

/// Example 4 / Lemma 1: (b·c)+_G = TC(G_{b·c}), the 10 listed pairs.
#[test]
fn example4_lemma1() {
    let g = paper_graph();
    let e = Engine::new(&g);
    let plus = e.evaluate_str("(b.c)+").unwrap();
    let expect = vec![
        (2, 2),
        (2, 4),
        (2, 6),
        (3, 3),
        (3, 5),
        (4, 2),
        (4, 4),
        (4, 6),
        (5, 3),
        (5, 5),
    ];
    assert_eq!(pairs(&plus), expect);
    // And TC(G_{b·c}) computed independently from R_G agrees.
    let r_g = e.evaluate_str("b.c").unwrap();
    let full = FullTc::from_pairs(&r_g);
    assert_eq!(pairs(&full.expand()), expect);
}

/// Example 5 / Fig. 6: the vertex-level reduction of G_{b·c} has three
/// SCCs — s{v2,v4}, s{v6}, s{v3,v5} — and Ē has 3 edges (2 loops + 1).
#[test]
fn example5_vertex_level_reduction() {
    let g = paper_graph();
    let e = Engine::new(&g);
    let r_g = e.evaluate_str("b.c").unwrap();
    let rtc = Rtc::from_pairs(&r_g);
    assert_eq!(rtc.scc_count(), 3);
    assert_eq!(rtc.stats().ebar_edges, 3);
    let s24 = rtc.scc_of_original(VertexId(2)).unwrap();
    assert_eq!(rtc.scc_of_original(VertexId(4)), Some(s24));
    let members: Vec<u32> = rtc.members_original(s24).map(|v| v.raw()).collect();
    assert_eq!(members, vec![2, 4]);
}

/// Example 6 / Lemma 3 + Theorem 1: TC(Ḡ_{b·c}) has exactly 3 pairs and
/// its Cartesian-product expansion equals TC(G_{b·c}).
#[test]
fn example6_theorem1() {
    let g = paper_graph();
    let e = Engine::new(&g);
    let r_g = e.evaluate_str("b.c").unwrap();
    let rtc = Rtc::from_pairs(&r_g);
    assert_eq!(rtc.closure_pair_count(), 3);
    let plus = e.evaluate_str("(b.c)+").unwrap();
    assert_eq!(rtc.expand(), plus);
}

/// Example 7: the recursion trees of the three queries, checked through
/// the engine's cache behaviour — `(a·b)*` reuses the RTC computed for
/// `a·(a·b)+·b`, and `b` (from `(a·b)*·b+`) is reused inside `(a·b+·c)+`.
#[test]
fn example7_recursion_and_reuse() {
    let g = paper_graph();
    let e = Engine::new(&g);
    e.evaluate_str("a").unwrap();
    assert_eq!(e.cache().totals(SharingKind::Rtc).entries, 0); // no closures yet

    e.evaluate_str("a.(a.b)+.b").unwrap();
    assert_eq!(e.cache().totals(SharingKind::Rtc).entries, 1); // RTC for a·b
    let hits_before = e.cache().hits();

    e.evaluate_str("(a.b)*.b+.(a.b+.c)+").unwrap();
    // New RTCs for b and a·b+·c; the a·b RTC was a cache hit.
    assert_eq!(e.cache().totals(SharingKind::Rtc).entries, 3);
    assert!(e.cache().hits() > hits_before);
}

/// Examples 8–9: the useless/redundant operations exist in the
/// FullSharing plan and are eliminated (counted) by Algorithm 2.
#[test]
fn example8_9_elimination_counters() {
    let g = paper_graph();

    // RTCSharing counts eliminations.
    let rtc = Engine::with_strategy(&g, Strategy::RtcSharing);
    rtc.evaluate_str("a.(b.c)+").unwrap();
    let s = rtc.elimination_stats();
    // a_G = {(0,1),(7,8)}: both end vertices are off b·c paths → useless-1.
    assert_eq!(s.useless1_skipped, 2);

    // From d_G = {(7,4)}: v4 is on a b·c cycle; expansion runs unchecked.
    let rtc2 = Engine::with_strategy(&g, Strategy::RtcSharing);
    rtc2.evaluate_str("d.(b.c)+").unwrap();
    let s2 = rtc2.elimination_stats();
    assert_eq!(s2.useless1_skipped, 0);
    assert!(s2.useless2_unchecked_inserts > 0);

    // FullSharing on a graph with converging closure branches incurs
    // duplicate hits (the redundant operations of Fig. 8).
    let full = Engine::with_strategy(&g, Strategy::FullSharing);
    full.evaluate_str("c.(b.c)+").unwrap();
    let rtc_equiv = Engine::with_strategy(&g, Strategy::RtcSharing)
        .evaluate_str("c.(b.c)+")
        .unwrap();
    let full_res = full.evaluate_str("c.(b.c)+").unwrap();
    assert_eq!(full_res, rtc_equiv);
}

/// The full Example 7 query set returns identical results under all
/// strategies (the DNF/batch-unit machinery vs plain automaton runs).
#[test]
fn example7_queries_all_strategies_agree() {
    let g = paper_graph();
    let queries = ["a", "a.(a.b)+.b", "(a.b)*.b+.(a.b+.c)+"];
    for q in queries {
        let mut results = Vec::new();
        for strategy in Strategy::ALL {
            let e = Engine::with_strategy(&g, strategy);
            results.push(e.evaluate_str(q).unwrap());
        }
        assert_eq!(results[0], results[1], "No vs Full on {q}");
        assert_eq!(results[1], results[2], "Full vs RTC on {q}");
    }
}

/// TABLE III's size claim on the running example: the RTC is strictly
/// smaller than the full closure it replaces.
#[test]
fn table3_size_comparison() {
    let g = paper_graph();
    let e = Engine::new(&g);
    let r_g = e.evaluate_str("b.c").unwrap();
    let rtc = Rtc::from_pairs(&r_g);
    let full = FullTc::from_pairs(&r_g);
    assert!(rtc.closure_pair_count() < full.pair_count());
    assert!(rtc.scc_count() < full.vertex_count());
    assert_eq!(rtc.closure_pair_count(), 3);
    assert_eq!(full.pair_count(), 10);
}
