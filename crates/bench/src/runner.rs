//! Executes one multiple-RPQ set under one strategy and captures metrics.

use rpq_core::{Breakdown, EliminationStats, Engine, Strategy};
use rpq_graph::LabeledMultigraph;
use rpq_regex::Regex;
use std::time::{Duration, Instant};

/// Metrics of one multiple-RPQ set evaluation.
#[derive(Clone, Debug)]
pub struct RunMetrics {
    /// Strategy that produced these metrics.
    pub strategy: Strategy,
    /// Wall-clock query response time for the whole set (includes building
    /// reduced graphs, shared data, and all query evaluations — the
    /// paper's "query response time").
    pub total: Duration,
    /// Stage breakdown (`Shared_Data` / `Pre⋈R⁺` / remainder).
    pub breakdown: Breakdown,
    /// Operation-elimination counters.
    pub eliminations: EliminationStats,
    /// Shared-data size in pairs (`|R̄⁺_G|` or `|R⁺_G|`; 0 for NoSharing).
    pub shared_pairs: usize,
    /// Shared-structure vertex count (`|V̄_R|` for RTC, `|V_R|` for Full).
    pub shared_vertices: usize,
    /// Result pairs per query, in query order (sanity/consistency checks).
    pub result_sizes: Vec<usize>,
}

/// Runs `queries` as one set under `strategy` on a fresh engine, one query
/// after another.
///
/// Returns `None` if any query fails (DNF limit); workload queries never do.
pub fn run_query_set(
    graph: &LabeledMultigraph,
    queries: &[Regex],
    strategy: Strategy,
) -> Option<RunMetrics> {
    let engine = Engine::with_strategy(graph, strategy);
    let t = Instant::now();
    let results = engine.evaluate_set(queries).ok()?;
    // The engine sums per-query response times, all on this thread; the
    // set's response time is the wall clock around the whole set, so it
    // also holds the loop between queries. The stage times are parts of
    // both.
    let total = t.elapsed();
    let result_sizes = results.iter().map(|r| r.len()).collect();
    let shared = strategy.kind().map(|kind| engine.cache().totals(kind));
    Some(RunMetrics {
        strategy,
        total,
        breakdown: Breakdown {
            total,
            ..engine.breakdown()
        },
        eliminations: engine.elimination_stats(),
        shared_pairs: shared.map_or(0, |s| s.shared_pairs),
        shared_vertices: shared.map_or(0, |s| s.vertices),
        result_sizes,
    })
}

/// Runs the set under all three strategies, asserting result agreement.
///
/// The agreement check makes every harness run double as a correctness
/// test: if any strategy disagrees on any query, the harness panics with
/// the offending query.
pub fn run_all_strategies(graph: &LabeledMultigraph, queries: &[Regex]) -> Vec<RunMetrics> {
    let mut out: Vec<RunMetrics> = Vec::with_capacity(3);
    for strategy in Strategy::ALL {
        let metrics = run_query_set(graph, queries, strategy)
            .expect("workload queries stay under the DNF limit");
        if let Some(first) = out.first() {
            for (i, (a, b)) in first
                .result_sizes
                .iter()
                .zip(&metrics.result_sizes)
                .enumerate()
            {
                assert_eq!(
                    a, b,
                    "strategy {strategy} disagrees on query {i}: {}",
                    queries[i]
                );
            }
        }
        out.push(metrics);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use rpq_graph::fixtures::paper_graph;

    #[test]
    fn run_metrics_for_paper_query() {
        let g = paper_graph();
        let queries = vec![Regex::parse("d.(b.c)+.c").unwrap()];
        let metrics = run_query_set(&g, &queries, Strategy::RtcSharing).unwrap();
        assert_eq!(metrics.result_sizes, [2]);
        assert_eq!(metrics.shared_pairs, 3);
        assert_eq!(metrics.shared_vertices, 3); // 3 SCCs
        assert!(metrics.total > Duration::ZERO);
    }

    /// Fig. 11's partition: the two instrumented stages are parts of the
    /// set's wall clock, and so is the engine's own sum of per-query times,
    /// because every query of a set runs on the calling thread.
    #[test]
    fn set_stages_partition_the_wall_clock() {
        let g = paper_graph();
        let queries: Vec<Regex> = ["d.(b.c)+.c", "a.(b.c)*", "(a.b)+|(b.c)+", "c.(a.b)+.b"]
            .iter()
            .map(|q| Regex::parse(q).unwrap())
            .collect();
        for strategy in Strategy::ALL {
            let m = run_query_set(&g, &queries, strategy).unwrap();
            assert_eq!(m.breakdown.total, m.total, "{strategy}");
            assert!(
                m.breakdown.shared_data + m.breakdown.pre_join <= m.total,
                "{strategy}: {}",
                m.breakdown
            );
            let engine = Engine::with_strategy(&g, strategy);
            let t = Instant::now();
            engine.evaluate_set(&queries).unwrap();
            let wall = t.elapsed();
            assert!(engine.breakdown().total <= wall, "{strategy}");
        }
    }

    #[test]
    fn all_strategies_agree_and_report() {
        let g = paper_graph();
        let queries = vec![
            Regex::parse("d.(b.c)+.c").unwrap(),
            Regex::parse("a.(b.c)*.c").unwrap(),
        ];
        let all = run_all_strategies(&g, &queries);
        assert_eq!(all.len(), 3);
        assert!(all.iter().all(|m| m.result_sizes == all[0].result_sizes));
        // NoSharing shares nothing.
        assert_eq!(all[0].shared_pairs, 0);
        // RTC shares fewer pairs than Full.
        assert!(all[2].shared_pairs <= all[1].shared_pairs);
    }
}
