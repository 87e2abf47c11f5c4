//! Dynamic graphs end to end: an interleaved update/query stream driven
//! through `Engine::apply_delta`, comparing one cached engine — whose
//! stale RTCs are re-stamped or rebuilt on next use — against a fresh
//! engine with a cold cache per query round.
//!
//! ```text
//! cargo run --release --example dynamic_workload
//! ```

use rtc_rpq::core::{Engine, EngineConfig, Strategy};
use rtc_rpq::datasets::dynamic::{generate_dynamic_workload, DynamicStep, DynamicWorkloadConfig};
use rtc_rpq::datasets::rmat::rmat_n_scaled;
use rtc_rpq::datasets::workload::{alphabet_of, generate_workload, WorkloadConfig};
use rtc_rpq::graph::VersionedGraph;
use std::time::Instant;

fn main() {
    // RMAT_3-shaped graph at 2^10 vertices, same scale as the static
    // multi_query_workload example.
    let graph = rmat_n_scaled(3, 10, 45);
    println!(
        "graph: |V|={} |E|={} |Σ|={}",
        graph.vertex_count(),
        graph.edge_count(),
        graph.label_count()
    );

    // One multiple-RPQ set sharing a closure body.
    let set = generate_workload(
        &alphabet_of(&graph),
        &WorkloadConfig {
            rs_per_length: 1,
            r_lengths: vec![2],
            queries_per_set: 4,
            ..WorkloadConfig::default()
        },
    )
    .remove(0);
    println!(
        "shared sub-query R = {}, {} queries",
        set.r,
        set.queries.len()
    );

    // Small-delta stream: each batch touches ~0.5% of the edges.
    let updates_per_round = (graph.edge_count() / 200).max(4);
    let stream_config = DynamicWorkloadConfig {
        rounds: 8,
        updates_per_round,
        insert_fraction: 0.5,
        reinsert_fraction: 0.25,
        new_label_every: 0,
        seed: 7,
    };
    let stream = generate_dynamic_workload(&graph, &stream_config);
    println!(
        "stream: {} rounds × {} updates (≈{:.2}% of |E| per delta)\n",
        stream_config.rounds,
        updates_per_round,
        100.0 * updates_per_round as f64 / graph.edge_count() as f64
    );

    // Engine A — cached: apply each delta; stale RTCs refresh on next
    // use (re-stamped if no label row of their body moved, rebuilt
    // otherwise).
    let mut cached =
        Engine::with_config_versioned(VersionedGraph::new(graph.clone()), EngineConfig::default());
    cached.evaluate_set(&set.queries).unwrap(); // warm at epoch 0

    // Engine B — fresh: a new engine (cold cache) over the mutated graph
    // for every query round.
    let mut fresh_graph = VersionedGraph::new(graph);

    println!(
        "{:<7} {:>14} {:>14} {:>10}  (results verified equal)",
        "round", "cached", "fresh", "speedup"
    );
    let mut cached_total = std::time::Duration::default();
    let mut fresh_total = std::time::Duration::default();
    for step in &stream.steps {
        match step {
            DynamicStep::Update(delta) => {
                cached.apply_delta(delta);
                fresh_graph.apply(delta);
            }
            DynamicStep::QueryRound(round) => {
                let t = Instant::now();
                let cached_results = cached.evaluate_set(&set.queries).unwrap();
                let warm = t.elapsed();

                let t = Instant::now();
                let cold = Engine::with_strategy(fresh_graph.graph(), Strategy::RtcSharing);
                let fresh_results = cold.evaluate_set(&set.queries).unwrap();
                let cold_time = t.elapsed();

                assert_eq!(cached_results, fresh_results, "round {round}");
                cached_total += warm;
                fresh_total += cold_time;
                println!(
                    "{:<7} {:>14.3?} {:>14.3?} {:>9.2}x",
                    round,
                    warm,
                    cold_time,
                    cold_time.as_secs_f64() / warm.as_secs_f64().max(1e-9)
                );
            }
        }
    }

    let m = cached.maintenance_metrics();
    println!(
        "\ntotals: cached {:.3?} vs fresh {:.3?} ({:.2}x)",
        cached_total,
        fresh_total,
        fresh_total.as_secs_f64() / cached_total.as_secs_f64().max(1e-9)
    );
    println!(
        "maintenance: {} deltas, {} unchanged / {} rebuild refreshes in {:.3?}",
        m.deltas_applied, m.unchanged_refreshes, m.rebuild_refreshes, m.rebuild_time
    );
}
