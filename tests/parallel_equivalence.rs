//! Parallelism correctness: every parallel path must be *bitwise
//! identical* to its sequential counterpart — same `PairSet`s, same CSR
//! rows — across random graphs, random query sets, and thread counts
//! {1, 2, 8}, including the empty-graph and all-singleton-SCC edge cases.

mod common;

use common::{random_graph, random_regex, rng};
use proptest::prelude::*;
use rand::Rng;
use rtc_rpq::core::{Engine, EngineConfig, Strategy};
use rtc_rpq::graph::{Digraph, MappedDigraph, PairSet};
use rtc_rpq::reduction::{tc_naive, tc_naive_parallel, FullTc, Rtc};
use rtc_rpq::regex::Regex;

const THREAD_COUNTS: [usize; 3] = [1, 2, 8];

// `rtc_rpq::core::Strategy` (the engine enum) shadows proptest's trait of
// the same name, so spell the trait path out.
fn arb_edges(
    n: u32,
    max_edges: usize,
) -> impl proptest::strategy::Strategy<Value = Vec<(u32, u32)>> {
    prop::collection::vec((0..n, 0..n), 0..max_edges)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// `tc_naive_parallel` equals `tc_naive` on random digraphs at every
    /// thread count.
    #[test]
    fn parallel_tc_matches_sequential(edges in arb_edges(48, 160)) {
        let g = Digraph::from_edges(48, edges);
        let seq = tc_naive(&g);
        for threads in THREAD_COUNTS {
            prop_assert_eq!(&tc_naive_parallel(&g, threads), &seq, "threads {}", threads);
        }
    }

    /// `Rtc::expand_parallel` and `FullTc::from_pairs_parallel` agree with
    /// their sequential counterparts on random relations.
    #[test]
    fn parallel_expansion_matches_sequential(edges in arb_edges(40, 120)) {
        let r_g: PairSet = edges.into_iter().collect();
        let rtc = Rtc::from_pairs(&r_g);
        let seq = rtc.expand();
        let full_seq = FullTc::from_pairs(&r_g).expand();
        for threads in THREAD_COUNTS {
            prop_assert_eq!(&rtc.expand_parallel(threads), &seq, "rtc, threads {}", threads);
            let full_par = FullTc::from_pairs_parallel(&r_g, threads).expand();
            prop_assert_eq!(&full_par, &full_seq, "full, threads {}", threads);
        }
        // Theorem 1 must keep holding through every path.
        prop_assert_eq!(&seq, &full_seq);
    }
}

/// Engine batch evaluation: parallel and sequential produce identical
/// `PairSet`s for every strategy on random (graph, query-set) inputs.
#[test]
fn parallel_batch_evaluation_matches_sequential() {
    let mut r = rng(4242);
    for case in 0..20 {
        let n = r.gen_range(4..20);
        let m = r.gen_range(4..60);
        let g = random_graph(&mut r, n, m);
        let set_size = r.gen_range(2..6);
        let queries: Vec<Regex> = (0..set_size).map(|_| random_regex(&mut r, 2)).collect();
        for strategy in Strategy::ALL {
            let seq_engine = Engine::with_strategy(&g, strategy);
            let seq = match seq_engine.evaluate_set(&queries) {
                Ok(res) => res,
                Err(_) => continue, // DNF budget blown — same error on all paths
            };
            // What the fan-out's warm-up pass computes. Each such body costs
            // one lookup more than the sequential run: the warm-up takes the
            // miss, so the first query to need the body hits.
            let warmed = Engine::with_strategy(&g, strategy)
                .prepare(&queries)
                .unwrap()
                .bodies_computed as u64;
            for threads in THREAD_COUNTS {
                let e = Engine::with_config(
                    &g,
                    EngineConfig {
                        strategy,
                        threads,
                        ..EngineConfig::default()
                    },
                );
                let par = e.evaluate_set(&queries).unwrap();
                assert_eq!(
                    par, seq,
                    "case {case}: {strategy} diverged at {threads} threads"
                );
                // The workers' counters are folded in, none dropped or
                // counted twice (comparable unless a budget evicted).
                let (s, p) = (seq_engine.cache(), e.cache());
                if s.eviction_counters().total() + p.eviction_counters().total() == 0 {
                    let at = format!("case {case}: {strategy} at {threads} threads");
                    assert_eq!(
                        e.elimination_stats(),
                        seq_engine.elimination_stats(),
                        "{at}"
                    );
                    assert_eq!(p.misses(), s.misses(), "{at}");
                    let extra = if threads > 1 { warmed } else { 0 };
                    assert_eq!(p.hits(), s.hits() + extra, "{at}");
                }
            }
        }
    }
}

/// The empty graph flows through every parallel path.
#[test]
fn empty_graph_parallel_paths() {
    let g = Digraph::from_edges(0, vec![]);
    for threads in THREAD_COUNTS {
        assert_eq!(tc_naive_parallel(&g, threads).rows(), 0);
    }
    let rtc = Rtc::from_pairs(&PairSet::new());
    for threads in THREAD_COUNTS {
        assert!(rtc.expand_parallel(threads).is_empty());
    }
    let lg = rtc_rpq::graph::GraphBuilder::new().build();
    let queries = [Regex::parse("a+").unwrap(), Regex::parse("a.b").unwrap()];
    for threads in THREAD_COUNTS {
        let e = Engine::with_config(
            &lg,
            EngineConfig {
                threads,
                ..EngineConfig::default()
            },
        );
        let results = e.evaluate_set(&queries).unwrap();
        assert!(results.iter().all(PairSet::is_empty), "threads {threads}");
    }
}

/// All-singleton-SCC graphs (DAGs) exercise the expansion's "no self
/// pair" edge case identically on both paths.
#[test]
fn all_singleton_scc_parallel_paths() {
    // A chain DAG: every SCC is a singleton, no closure self-pairs.
    let edges: Vec<(u32, u32)> = (0..63).map(|v| (v, v + 1)).collect();
    let g = Digraph::from_edges(64, edges.clone());
    let seq = tc_naive(&g);
    for threads in THREAD_COUNTS {
        assert_eq!(tc_naive_parallel(&g, threads), seq);
    }
    let r_g: PairSet = edges.into_iter().collect();
    let rtc = Rtc::from_pairs(&r_g);
    assert_eq!(rtc.average_scc_size(), 1.0);
    let expanded_seq = rtc.expand();
    for threads in THREAD_COUNTS {
        let par = rtc.expand_parallel(threads);
        assert_eq!(par, expanded_seq);
        for (a, b) in par.iter() {
            assert_ne!(a, b, "DAG expansion must not contain self pairs");
        }
    }
    // Sanity: the mapped digraph round-trips the DAG.
    let gr = MappedDigraph::from_pairset(&r_g);
    assert_eq!(gr.vertex_count(), 64);
}
