//! Executes one multiple-RPQ set under one strategy and captures metrics.

use rpq_core::{Breakdown, EliminationStats, Engine, EngineConfig, Strategy};
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

/// Runs `queries` as one set under `strategy` on a fresh engine with
/// `threads` workers (1 = sequential, 0 = all cores; the engine fans the
/// set out when that resolves to more than one).
///
/// Returns `None` if any query fails (DNF limit); workload queries never do.
pub fn run_query_set(
    graph: &LabeledMultigraph,
    queries: &[Regex],
    strategy: Strategy,
    threads: usize,
) -> Option<RunMetrics> {
    let engine = Engine::with_config(
        graph,
        EngineConfig {
            strategy,
            threads,
            ..EngineConfig::default()
        },
    );
    let t = Instant::now();
    let results = engine.evaluate_set(queries).ok()?;
    // The engine sums per-query response times; the set's response time is
    // the wall clock around the (possibly fanned-out) batch.
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

/// Runs the set under all three strategies (each engine with `threads`
/// workers — the `--threads` flag of the experiments driver), asserting
/// result agreement.
///
/// The agreement check makes every harness run double as a correctness
/// test: if any strategy disagrees on any query, the harness panics with
/// the offending query.
pub fn run_all_strategies(
    graph: &LabeledMultigraph,
    queries: &[Regex],
    threads: usize,
) -> Vec<RunMetrics> {
    let mut out: Vec<RunMetrics> = Vec::with_capacity(3);
    for strategy in Strategy::ALL {
        let metrics = run_query_set(graph, queries, strategy, threads)
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
        let metrics = run_query_set(&g, &queries, Strategy::RtcSharing, 1).unwrap();
        assert_eq!(metrics.result_sizes, [2]);
        assert_eq!(metrics.shared_pairs, 3);
        assert_eq!(metrics.shared_vertices, 3); // 3 SCCs
        assert!(metrics.total > Duration::ZERO);
    }

    #[test]
    fn threaded_runner_matches_sequential() {
        let g = paper_graph();
        let queries = vec![
            Regex::parse("d.(b.c)+.c").unwrap(),
            Regex::parse("a.(b.c)*.c").unwrap(),
        ];
        let seq = run_query_set(&g, &queries, Strategy::RtcSharing, 1).unwrap();
        for threads in [2usize, 8] {
            let par = run_query_set(&g, &queries, Strategy::RtcSharing, threads).unwrap();
            assert_eq!(par.result_sizes, seq.result_sizes, "threads {threads}");
            assert_eq!(par.shared_pairs, seq.shared_pairs, "threads {threads}");
        }
        let all = run_all_strategies(&g, &queries, 2);
        assert_eq!(all.len(), 3);
        assert!(all.iter().all(|m| m.result_sizes == seq.result_sizes));
    }

    #[test]
    fn all_strategies_agree_and_report() {
        let g = paper_graph();
        let queries = vec![
            Regex::parse("d.(b.c)+.c").unwrap(),
            Regex::parse("a.(b.c)*.c").unwrap(),
        ];
        let all = run_all_strategies(&g, &queries, 1);
        assert_eq!(all.len(), 3);
        assert!(all.iter().all(|m| m.result_sizes == all[0].result_sizes));
        // NoSharing shares nothing.
        assert_eq!(all[0].shared_pairs, 0);
        // RTC shares fewer pairs than Full.
        assert!(all[2].shared_pairs <= all[1].shared_pairs);
    }
}
