//! Batch parallelism: `Engine::evaluate_set` fanned out over workers must
//! be *bitwise identical* to the sequential loop — same `PairSet`s, same
//! counters — across random query sets and thread counts {1, 2, 8},
//! including the empty-graph and all-singleton-SCC edge cases. Every
//! closure is built sequentially, so nothing else has a parallel path.

use rpq_testkit::{assert_equivalent, q, run, scenario, Axes, Probe, Scenario, Shape, Step};
use rtc_rpq::core::{Engine, Strategy};
use rtc_rpq::graph::{MappedDigraph, PairSet};
use rtc_rpq::reduction::{FullTc, Rtc};

const THREAD_COUNTS: [usize; 3] = [1, 2, 8];

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

/// The empty graph flows through the batch fan-out.
#[test]
fn empty_graph_parallel_paths() {
    let mut empty = Scenario::fixed(&[], &[]);
    empty.steps.push(Step::Set(vec![q("a+"), q("a.b")]));
    assert_equivalent(&empty, &Axes::default().threads(&THREAD_COUNTS));
}

/// All-singleton-SCC graphs (DAGs): the expansion has no self pair, equals
/// the full closure, and the mapped digraph round-trips the DAG; a set over
/// a chain answers alike at every thread count.
#[test]
fn all_singleton_scc_parallel_paths() {
    // A chain DAG: every SCC is a singleton, no closure self-pairs.
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
    let chain: Vec<(u32, &str, u32)> = (0..15).map(|v| (v, "a", v + 1)).collect();
    let mut dag = Scenario::fixed(&chain, &[]);
    dag.steps.push(Step::Set(vec![q("a+"), q("a.a+"), q("a*")]));
    let axes = Axes::default().strategy(&Strategy::ALL);
    assert_equivalent(&dag, &axes.threads(&THREAD_COUNTS));
}
