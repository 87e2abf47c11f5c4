//! Parallelism correctness: every parallel path must be *bitwise
//! identical* to its sequential counterpart — same `PairSet`s, same CSR
//! rows — across random graphs, random query sets, and thread counts
//! {1, 2, 8}, including the empty-graph and all-singleton-SCC edge cases.

use rpq_testkit::{
    assert_equivalent, check, q, relation, run, scenario, Axes, Probe, Scenario, Shape, Step,
};
use rtc_rpq::core::{Engine, Strategy};
use rtc_rpq::graph::{Digraph, MappedDigraph, PairSet};
use rtc_rpq::reduction::{tc_naive, tc_naive_parallel, FullTc, Rtc};

const THREAD_COUNTS: [usize; 3] = [1, 2, 8];

/// `tc_naive_parallel` equals `tc_naive` on random digraphs at every
/// thread count.
#[test]
fn parallel_tc_matches_sequential() {
    check(0x7C, 32, relation(48, 160), |edges| {
        let g = Digraph::from_edges(48, edges.clone());
        let seq = tc_naive(&g);
        for threads in THREAD_COUNTS {
            assert_eq!(&tc_naive_parallel(&g, threads), &seq, "threads {threads}");
        }
    });
}

/// `Rtc::expand_parallel` and `FullTc::from_pairs_parallel` agree with
/// their sequential counterparts on random relations.
#[test]
fn parallel_expansion_matches_sequential() {
    check(0xE4, 32, relation(40, 120), |edges| {
        let r_g: PairSet = edges.iter().copied().collect();
        let rtc = Rtc::from_pairs(&r_g);
        let seq = rtc.expand();
        let full_seq = FullTc::from_pairs(&r_g).expand();
        for threads in THREAD_COUNTS {
            assert_eq!(
                &rtc.expand_parallel(threads),
                &seq,
                "rtc, threads {threads}"
            );
            let full_par = FullTc::from_pairs_parallel(&r_g, threads).expand();
            assert_eq!(&full_par, &full_seq, "full, threads {threads}");
        }
        // Theorem 1 must keep holding through every path.
        assert_eq!(&seq, &full_seq);
    });
}

/// On a first step that is a set, the workers' counters are folded in,
/// none dropped or counted twice: they equal a sequential engine's on the
/// same set (unless a budget evicted or the clause budget refused it),
/// plus one hit per body the fan-out's warm-up pass computes — the warm-up
/// takes the miss, so the first query to need the body hits.
fn counters_fold(p: &Probe) {
    let (Step::Set(qs), 0) = (p.step, p.index) else {
        return;
    };
    let (config, mut sequential) = (*p.engine.config(), *p.engine.config());
    sequential.threads = 1;
    let seq = Engine::with_config(p.graph, sequential);
    let ok = seq.evaluate_set(qs).is_ok();
    let (s, c) = (seq.cache(), p.engine.cache());
    if !ok || s.eviction_counters().total() + c.eviction_counters().total() > 0 {
        return;
    }
    let warm = Engine::with_config(p.graph, config).prepare(qs).unwrap();
    let fans_out = config.threads > 1 && qs.len() > 1;
    let warmed = u64::from(fans_out) * warm.bodies_computed as u64;
    assert_eq!(p.engine.elimination_stats(), seq.elimination_stats());
    assert_eq!((c.misses(), c.hits()), (s.misses(), s.hits() + warmed));
}

/// Engine batch evaluation: every strategy equals the reference at every
/// thread count on generated scenarios, and the workers' counters fold.
#[test]
fn parallel_batch_evaluation_matches_sequential() {
    let axes = Axes::default().strategy(&Strategy::ALL);
    let axes = axes.threads(&THREAD_COUNTS);
    for seed in 0..12 {
        run(&scenario(4242 + seed, Shape::Uniform), &axes, counters_fold);
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
    let mut empty = Scenario::fixed(&[], &[]);
    empty.steps.push(Step::Set(vec![q("a+"), q("a.b")]));
    assert_equivalent(&empty, &Axes::default().threads(&THREAD_COUNTS));
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
