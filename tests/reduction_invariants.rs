//! The paper's formal claims (Lemmas 1–4, Theorems 1–2) checked on
//! randomized inputs through independent computation paths.

use rpq_testkit::{random_graph, random_pairs, random_regex, rng};
use rtc_rpq::eval::algebraic::plus_closure;
use rtc_rpq::eval::{evaluate_algebraic, ProductEvaluator};
use rtc_rpq::graph::{tarjan_scc, Condensation, MappedDigraph, PairSet, RowSetPolicy, SccId};
use rtc_rpq::reduction::{closure_of_condensation_rows, tc_naive, FullTc, Rtc};
use rtc_rpq::regex::Regex;

/// Lemma 1: R⁺_G = TC(G_R). The left side comes from the automaton
/// evaluator on G; the right side from BFS closure over the reduced graph.
#[test]
fn lemma1_plus_equals_tc_of_reduced_graph() {
    let mut r = rng(11);
    for case in 0..60 {
        let g = random_graph(&mut r, 4..20, 5..60);
        let body = random_regex(&mut r, 2);
        let plus_query = Regex::plus(body.clone());
        if plus_query.nullable() {
            // Nullable bodies fold identity into R_G; Lemma 1 still holds
            // but the direct statement is about the closure — skip to keep
            // the check sharp (nullable cases are covered elsewhere).
            continue;
        }
        let lhs = ProductEvaluator::new(&g, &plus_query).evaluate();
        let r_g = ProductEvaluator::new(&g, &body).evaluate();
        let rhs = FullTc::from_pairs(&r_g).expand();
        assert_eq!(lhs, rhs, "case {case}: R = {body}");
    }
}

/// Lemma 3 / Theorem 1: expanding TC(Ḡ_R) by SCC membership reproduces
/// TC(G_R) exactly.
#[test]
fn theorem1_rtc_expansion_equals_full_tc() {
    let mut r = rng(13);
    for case in 0..80 {
        let pairs: PairSet = random_pairs(&mut r, 2..40, 1..120).1.into_iter().collect();
        let rtc = Rtc::from_pairs(&pairs);
        let full = FullTc::from_pairs(&pairs);
        assert_eq!(rtc.expand(), full.expand(), "case {case}");
        assert_eq!(rtc.expanded_pair_count(), full.pair_count(), "case {case}");
        // The RTC is never larger than the full closure.
        assert!(rtc.closure_pair_count() <= full.pair_count());
    }
}

/// All-singleton-SCC graphs (DAGs): on a chain every SCC is a singleton,
/// the expansion has no self pair and equals the full closure, and the
/// mapped digraph keeps every vertex of the DAG.
#[test]
fn all_singleton_scc_expansion_equals_full_tc() {
    let edges: Vec<(u32, u32)> = (0..63).map(|v| (v, v + 1)).collect();
    let r_g: PairSet = edges.iter().copied().collect();
    let rtc = Rtc::from_pairs(&r_g);
    assert_eq!(rtc.average_scc_size(), 1.0);
    let expanded = rtc.expand();
    for (a, b) in expanded.iter() {
        assert_ne!(a, b, "DAG expansion must not contain self pairs");
    }
    assert_eq!(expanded, FullTc::from_pairs(&r_g).expand());
    let gr = MappedDigraph::from_pairset(&r_g);
    assert_eq!(gr.vertex_count(), 64);
}

/// Lemma 2 (Purdom): SCC members are reachability-equivalent — every
/// member of an SCC reaches exactly the same vertex set through TC.
#[test]
fn lemma2_scc_members_share_reachability() {
    let mut r = rng(17);
    for _ in 0..30 {
        let (n, edges) = random_pairs(&mut r, 3..25, 5..80);
        let g = rtc_rpq::graph::Digraph::from_edges(n as usize, edges);
        let tc = tc_naive(&g);
        let scc = tarjan_scc(&g);
        for s in 0..scc.count() {
            let members = scc.members(rtc_rpq::graph::SccId(s as u32));
            let first = tc.row(members[0] as usize);
            for &m in &members[1..] {
                assert_eq!(tc.row(m as usize), first, "SCC {s} members disagree");
            }
        }
    }
}

/// Lemma 4: (A·B)_G = π(A_G ⋈ B_G), cross-checked between the automaton
/// evaluator (concatenated query) and explicit pair-set composition.
#[test]
fn lemma4_concat_is_join() {
    let mut r = rng(19);
    for case in 0..50 {
        let g = random_graph(&mut r, 4..16, 5..50);
        let a = random_regex(&mut r, 2);
        let b = random_regex(&mut r, 2);
        let concat = Regex::concat(vec![a.clone(), b.clone()]);
        let joined = evaluate_algebraic(&g, &a).compose(&evaluate_algebraic(&g, &b));
        let direct = ProductEvaluator::new(&g, &concat).evaluate();
        assert_eq!(direct, joined, "case {case}: A={a} B={b}");
    }
}

/// The condensation closure, expanded by SCC membership, agrees with the
/// naive per-vertex BFS on random digraphs, whose up to 49 vertices put
/// sparse rows next to dense ones.
#[test]
fn tc_algorithms_agree() {
    let mut r = rng(23);
    for case in 0..50 {
        let (n, edges) = random_pairs(&mut r, 1..50, 0..150);
        let g = rtc_rpq::graph::Digraph::from_edges(n as usize, edges);
        let naive = tc_naive(&g);
        let scc = tarjan_scc(&g);
        let cond = Condensation::new(&g, &scc);
        let closure = closure_of_condensation_rows(&cond, &RowSetPolicy);
        for v in 0..n {
            let mut reach: Vec<u32> = closure
                .row(scc.component_of(v).index())
                .iter()
                .flat_map(|t| scc.members(SccId(t)).iter().copied())
                .collect();
            reach.sort_unstable();
            assert_eq!(reach, naive.row(v as usize), "case {case}: vertex {v}");
        }
    }
}

/// The semi-naive `plus_closure` (oracle) agrees with the graph-based TC.
#[test]
fn seminaive_closure_agrees_with_graph_tc() {
    let mut r = rng(29);
    for case in 0..50 {
        let pairs: PairSet = random_pairs(&mut r, 1..30, 0..80).1.into_iter().collect();
        let by_fixpoint = plus_closure(&pairs);
        let by_graph = FullTc::from_pairs(&pairs).expand();
        assert_eq!(by_fixpoint, by_graph, "case {case}");
    }
}

/// Vertex-level reduction bookkeeping: |V̄_R| ≤ |V_R|, member sets
/// partition V_R, and the self-loop rule matches cycle membership — over a
/// flat relation and over a grouped one (an RTC expansion), whose `G_R`
/// must equal the one built from its flat copy.
#[test]
fn vertex_level_reduction_invariants() {
    let mut r = rng(31);
    for _ in 0..40 {
        let flat: PairSet = random_pairs(&mut r, 2..30, 1..90).1.into_iter().collect();
        let grouped = Rtc::from_pairs(&flat).expand();
        assert!(grouped.is_grouped());
        assert_eq!(
            MappedDigraph::from_pairset(&grouped),
            MappedDigraph::from_pairset(&PairSet::from_pairs(grouped.iter().collect()))
        );
        for pairs in [flat, grouped] {
            check_vertex_level_reduction(&pairs);
        }
    }
}

fn check_vertex_level_reduction(pairs: &PairSet) {
    let gr = MappedDigraph::from_pairset(pairs);
    assert_eq!(gr.edge_count(), pairs.len());
    assert!(gr.original_edges().eq(pairs.iter()), "G_R's edges are R_G");
    let rtc = Rtc::from_pairs(pairs);
    assert!(rtc.scc_count() <= gr.vertex_count());
    // Member sets partition V_R.
    let mut seen = vec![false; gr.vertex_count()];
    for s in 0..rtc.scc_count() {
        for v in rtc.members_original(SccId(s as u32)) {
            let c = gr.mapping.compact(v).expect("member is in V_R") as usize;
            assert!(!seen[c], "vertex in two SCCs");
            seen[c] = true;
        }
    }
    assert!(seen.iter().all(|&b| b), "member sets must cover V_R");
    // (s̄, s̄) ∈ TC(Ḡ) iff some member reaches itself in TC(G_R).
    let full = FullTc::from_pairs(pairs);
    for s in 0..rtc.scc_count() as u32 {
        let sid = SccId(s);
        let self_reach = rtc.successors(sid).contains(s);
        let member_self = rtc
            .members_original(sid)
            .any(|v| full.successors_original(v).any(|w| w == v));
        assert_eq!(
            self_reach, member_self,
            "self-loop rule mismatch at SCC {s}"
        );
    }
}
