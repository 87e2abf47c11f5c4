//! Dynamic-workload generation: interleaved update/query streams.
//!
//! The paper's evaluation is static — build once, query many. The
//! serving-engine north star needs the other axis too: a stream of
//! [`GraphDelta`] update batches interleaved with query rounds, driven
//! through `Engine::apply_delta`, so benches and examples can measure
//! a cached engine's refreshes against a fresh engine under
//! controlled churn (update batch size as a fraction of `|E|`, mix of
//! insertions/deletions, deliberate delete-then-reinsert patterns, and
//! occasional brand-new labels).
//!
//! The generator only *plans* the stream — it never mutates the input
//! graph. It mirrors [`rpq_graph::VersionedGraph::apply`]'s semantics
//! (deletions before insertions within one delta) while tracking the
//! evolving edge set, so every planned deletion targets an edge that
//! really exists at its point in the stream, and reinsertions draw from
//! edges the stream itself deleted earlier.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rpq_graph::{GraphDelta, LabeledMultigraph};
use rustc_hash::FxHashSet;

/// Parameters of a generated update/query stream.
#[derive(Clone, Debug)]
pub struct DynamicWorkloadConfig {
    /// Number of update→query rounds.
    pub rounds: usize,
    /// Edge operations per update batch (the "delta size"; benches use
    /// ≤ 1% of `|E|` for the small-delta regime).
    pub updates_per_round: usize,
    /// Fraction of operations that are insertions (the rest delete).
    pub insert_fraction: f64,
    /// Fraction of insertions drawn from previously deleted edges — the
    /// delete-then-reinsert pattern that exercises SCC split-then-merge.
    pub reinsert_fraction: f64,
    /// Every `n`-th round introduces one edge with a brand-new label
    /// (`dyn<round>`); `0` never does.
    pub new_label_every: usize,
    /// RNG seed (streams are deterministic per seed).
    pub seed: u64,
}

impl Default for DynamicWorkloadConfig {
    fn default() -> Self {
        Self {
            rounds: 10,
            updates_per_round: 16,
            insert_fraction: 0.5,
            reinsert_fraction: 0.25,
            new_label_every: 0,
            seed: 0xD1A_5EED,
        }
    }
}

/// One step of the interleaved stream.
#[derive(Clone, Debug)]
pub enum DynamicStep {
    /// Apply this delta (`Engine::apply_delta`).
    Update(GraphDelta),
    /// Run the query set; the payload is the 0-based round index.
    QueryRound(usize),
}

/// A planned update/query stream over some base graph.
#[derive(Clone, Debug)]
pub struct DynamicWorkload {
    /// Alternating `Update` / `QueryRound` steps, one pair per round.
    pub steps: Vec<DynamicStep>,
    /// Edge count after all updates (for sanity checks and sizing).
    pub final_edge_count: usize,
}

impl DynamicWorkload {
    /// The update deltas only, in stream order.
    pub fn deltas(&self) -> impl Iterator<Item = &GraphDelta> {
        self.steps.iter().filter_map(|s| match s {
            DynamicStep::Update(d) => Some(d),
            DynamicStep::QueryRound(_) => None,
        })
    }
}

/// Plans an interleaved update/query stream over `graph`.
///
/// Deterministic per [`DynamicWorkloadConfig::seed`]. Panics if the graph
/// has no labels (nothing to insert).
pub fn generate_dynamic_workload(
    graph: &LabeledMultigraph,
    config: &DynamicWorkloadConfig,
) -> DynamicWorkload {
    assert!(
        graph.label_count() > 0,
        "dynamic workload needs a labeled base graph"
    );
    let mut rng = StdRng::seed_from_u64(config.seed);
    let labels: Vec<String> = graph.labels().iter().map(|(_, n)| n.to_owned()).collect();
    // Evolving edge state, by label *name* so stream-introduced labels mix
    // in uniformly. `edges` is the sampling list; `present` the membership
    // oracle (indices into a name table keep tuples hashable and small).
    let mut names: Vec<String> = labels.clone();
    let name_id = |names: &mut Vec<String>, name: &str| -> u32 {
        match names.iter().position(|n| n == name) {
            Some(i) => i as u32,
            None => {
                names.push(name.to_owned());
                (names.len() - 1) as u32
            }
        }
    };
    let mut edges: Vec<(u32, u32, u32)> = graph
        .all_edges()
        .map(|(s, l, d)| (s.raw(), l.raw(), d.raw()))
        .collect();
    let mut present: FxHashSet<(u32, u32, u32)> = edges.iter().copied().collect();
    let mut deleted_pool: Vec<(u32, u32, u32)> = Vec::new();
    let n = graph.vertex_count().max(2) as u32;

    let mut steps = Vec::with_capacity(config.rounds * 2);
    for round in 0..config.rounds {
        let mut delta = GraphDelta::new();
        let ops = config.updates_per_round;
        let insert_ops = ((ops as f64) * config.insert_fraction).round() as usize;
        let delete_ops = ops - insert_ops;
        // Deletions first — matching `VersionedGraph::apply` order, so the
        // tracked state stays exact.
        for _ in 0..delete_ops {
            if edges.is_empty() {
                break;
            }
            let at = rng.gen_range(0..edges.len());
            let edge = edges.swap_remove(at);
            present.remove(&edge);
            delta.delete(edge.0, &names[edge.1 as usize], edge.2);
            deleted_pool.push(edge);
            if deleted_pool.len() > 4096 {
                deleted_pool.swap_remove(0);
            }
        }
        for i in 0..insert_ops {
            let fresh_label =
                config.new_label_every > 0 && round % config.new_label_every == 0 && i == 0;
            let edge = if fresh_label {
                let l = name_id(&mut names, &format!("dyn{round}"));
                (rng.gen_range(0..n), l, rng.gen_range(0..n))
            } else if !deleted_pool.is_empty() && rng.gen_bool(config.reinsert_fraction) {
                deleted_pool.swap_remove(rng.gen_range(0..deleted_pool.len()))
            } else {
                let l = rng.gen_range(0..labels.len()) as u32;
                (rng.gen_range(0..n), l, rng.gen_range(0..n))
            };
            delta.insert(edge.0, &names[edge.1 as usize], edge.2);
            if present.insert(edge) {
                edges.push(edge);
            }
        }
        steps.push(DynamicStep::Update(delta));
        steps.push(DynamicStep::QueryRound(round));
    }
    DynamicWorkload {
        steps,
        final_edge_count: edges.len(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rpq_graph::{GraphBuilder, VersionedGraph};

    fn base() -> LabeledMultigraph {
        let mut b = GraphBuilder::new();
        for v in 0..20u32 {
            b.add_edge(v, "a", (v + 1) % 20);
            b.add_edge(v, "b", (v + 7) % 20);
        }
        b.build()
    }

    #[test]
    fn stream_shape_and_determinism() {
        let cfg = DynamicWorkloadConfig {
            rounds: 5,
            updates_per_round: 8,
            ..DynamicWorkloadConfig::default()
        };
        let g = base();
        let w1 = generate_dynamic_workload(&g, &cfg);
        let w2 = generate_dynamic_workload(&g, &cfg);
        assert_eq!(w1.steps.len(), 10); // update + query per round
        assert_eq!(w1.deltas().count(), 5);
        // Determinism: identical plans for identical seeds.
        for (a, b) in w1.deltas().zip(w2.deltas()) {
            assert_eq!(
                a.inserts().collect::<Vec<_>>(),
                b.inserts().collect::<Vec<_>>()
            );
            assert_eq!(
                a.deletes().collect::<Vec<_>>(),
                b.deletes().collect::<Vec<_>>()
            );
        }
        let w3 = generate_dynamic_workload(
            &g,
            &DynamicWorkloadConfig {
                seed: 99,
                ..cfg.clone()
            },
        );
        let same = w1
            .deltas()
            .zip(w3.deltas())
            .all(|(a, b)| a.inserts().collect::<Vec<_>>() == b.inserts().collect::<Vec<_>>());
        assert!(!same, "different seeds should plan different streams");
    }

    #[test]
    fn tracked_edge_count_matches_application() {
        let g = base();
        let cfg = DynamicWorkloadConfig {
            rounds: 12,
            updates_per_round: 10,
            insert_fraction: 0.4,
            reinsert_fraction: 0.5,
            new_label_every: 3,
            seed: 7,
        };
        let w = generate_dynamic_workload(&g, &cfg);
        let mut vg = VersionedGraph::new(g);
        for delta in w.deltas() {
            vg.apply(delta);
        }
        // The generator's bookkeeping agrees with real application: every
        // planned delete hit an existing edge, every insert tracked.
        assert_eq!(vg.graph().edge_count(), w.final_edge_count);
        assert_eq!(vg.epoch(), 12);
    }

    #[test]
    fn new_labels_appear_on_schedule() {
        let g = base();
        let cfg = DynamicWorkloadConfig {
            rounds: 4,
            updates_per_round: 6,
            insert_fraction: 1.0,
            new_label_every: 2,
            ..DynamicWorkloadConfig::default()
        };
        let w = generate_dynamic_workload(&g, &cfg);
        let all_labels: FxHashSet<String> = w
            .deltas()
            .flat_map(|d| d.labels().map(str::to_owned))
            .collect();
        assert!(all_labels.contains("dyn0"));
        assert!(all_labels.contains("dyn2"));
        assert!(!all_labels.contains("dyn1"));
    }

    #[test]
    fn delete_heavy_stream_drains_gracefully() {
        // More deletes than edges: the generator stops deleting when the
        // graph runs dry instead of planning bogus deletes.
        let mut b = GraphBuilder::new();
        b.add_edge(0, "a", 1).add_edge(1, "a", 2);
        let g = b.build();
        let cfg = DynamicWorkloadConfig {
            rounds: 3,
            updates_per_round: 5,
            insert_fraction: 0.0,
            ..DynamicWorkloadConfig::default()
        };
        let w = generate_dynamic_workload(&g, &cfg);
        assert_eq!(w.final_edge_count, 0);
        let mut vg = VersionedGraph::new(g);
        for delta in w.deltas() {
            vg.apply(delta);
        }
        assert_eq!(vg.graph().edge_count(), 0);
    }
}
