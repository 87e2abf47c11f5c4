//! Text-mode ablation experiments: what the paper's figures do not plot
//! but the design decisions rest on.
//!
//! Five tables:
//!
//! 1. **TC algorithms** (TABLE III) — the naive per-vertex BFS over `G_R`
//!    (what FullSharing pays) vs SCCs + condensation + closure of `Ḡ_R`
//!    (what RTCSharing pays), both starting from the same `G_R`.
//! 2. **Batch-unit evaluation** — Algorithm 2 vs the FullSharing join,
//!    with the elimination counters that explain the gap.
//! 3. **SCC sensitivity** — shared sizes and times as the average SCC size
//!    grows with everything else held fixed.
//! 4. **Cache pressure** — a Zipf stream against an unbounded cache and a
//!    byte budget at half its steady state.
//! 5. **Parallel paths** — the per-vertex BFS closure, Theorem 1's
//!    expansion and the batch fan-out at 1/2/4 workers.

use crate::profiles::Profile;
use crate::table::{fmt_ratio, fmt_secs, Table};
use rpq_core::{
    eval_batch_unit_full, eval_batch_unit_rtc, EliminationStats, Engine, EngineConfig, PreRelation,
    Strategy,
};
use rpq_datasets::rmat::rmat_n_scaled;
use rpq_datasets::structured::{cycle_clusters, CycleClusterConfig};
use rpq_datasets::workload::{alphabet_of, generate_workload, WorkloadConfig};
use rpq_eval::ProductEvaluator;
use rpq_graph::{tarjan_scc, Condensation, MappedDigraph, RowSetPolicy};
use rpq_reduction::{closure_of_condensation_rows, tc_naive, FullTc, Rtc};
use rpq_regex::{ClosureKind, Regex};
use std::time::{Duration, Instant};

/// Times `f` as the minimum of `reps` runs (noise-robust on busy hosts).
fn time_min<T>(reps: usize, mut f: impl FnMut() -> T) -> Duration {
    let mut best = Duration::MAX;
    for _ in 0..reps {
        let t = Instant::now();
        std::hint::black_box(f());
        best = best.min(t.elapsed());
    }
    best
}

/// Table 1: the two closure costs of TABLE III on RMAT-derived `G_R`s —
/// `tc_naive` on `G_R` against Tarjan + condensation + the closure sweep
/// (the work of `Rtc::from_pairs`), both from a built `G_R`.
pub fn tc_algorithms_table(profile: Profile) -> Table {
    let mut t = Table::new(
        "Ablation: TC algorithms on G_R",
        &["graph", "|V_R|", "|E_R|", "|V̄_R|", "naive(s)", "rtc(s)"],
    );
    for n in [2u32, 4] {
        let graph = rmat_n_scaled(n, profile.rmat_scale().min(11), 7);
        let r_g = ProductEvaluator::new(&graph, &Regex::parse("l0.l1").unwrap()).evaluate();
        let gr = MappedDigraph::from_pairset(&r_g);
        let naive = time_min(3, || tc_naive(&gr.graph));
        let rtc = time_min(3, || {
            let scc = tarjan_scc(&gr.graph);
            let cond = Condensation::new(&gr.graph, &scc);
            closure_of_condensation_rows(&cond, &RowSetPolicy)
        });
        t.row(vec![
            format!("RMAT_{n}"),
            gr.vertex_count().to_string(),
            gr.edge_count().to_string(),
            tarjan_scc(&gr.graph).count().to_string(),
            fmt_secs(naive),
            fmt_secs(rtc),
        ]);
    }
    t
}

/// Table 2: Algorithm 2 vs the FullSharing join, with elimination counters.
pub fn batch_unit_table(profile: Profile) -> Table {
    let mut t = Table::new(
        "Ablation: batch-unit evaluation (Pre⋈R+⋈Post)",
        &[
            "graph",
            "alg2(s)",
            "full_join(s)",
            "speedup",
            "redundant1",
            "redundant2",
            "useless1",
            "full_dup_hits",
        ],
    );
    for n in [2u32, 4] {
        let graph = rmat_n_scaled(n, profile.rmat_scale().min(11), 11);
        let pre_g = ProductEvaluator::new(&graph, &Regex::parse("l2").unwrap()).evaluate();
        let r_g = ProductEvaluator::new(&graph, &Regex::parse("l0.l1").unwrap()).evaluate();
        let rtc = Rtc::from_pairs(&r_g);
        let full = FullTc::from_pairs(&r_g);
        let pre = PreRelation::from(pre_g);
        let post = vec!["l3".to_string()];

        let mut stats = EliminationStats::default();
        let alg2 = time_min(3, || {
            stats = EliminationStats::default();
            eval_batch_unit_rtc(&graph, &pre, &rtc, ClosureKind::Plus, &post, &mut stats)
        });
        let mut full_stats = EliminationStats::default();
        let full_join = time_min(3, || {
            full_stats = EliminationStats::default();
            eval_batch_unit_full(
                &graph,
                &pre,
                &full,
                ClosureKind::Plus,
                &post,
                &mut full_stats,
            )
        });
        t.row(vec![
            format!("RMAT_{n}"),
            fmt_secs(alg2),
            fmt_secs(full_join),
            fmt_ratio(full_join.as_secs_f64(), alg2.as_secs_f64()),
            stats.redundant1_skipped.to_string(),
            stats.redundant2_skipped.to_string(),
            stats.useless1_skipped.to_string(),
            full_stats.full_duplicate_hits.to_string(),
        ]);
    }
    t
}

/// Table 3: SCC-size sensitivity with |V| and the workload held fixed.
pub fn scc_sensitivity_table() -> Table {
    let mut t = Table::new(
        "Ablation: SCC-size sensitivity (|V|=1024, |E| fixed)",
        &[
            "scc_size",
            "avg_scc",
            "Full pairs",
            "RTC pairs",
            "size ratio",
            "Full(s)",
            "RTC(s)",
            "time ratio",
        ],
    );
    for cluster_size in [1u32, 4, 16, 64] {
        let graph = cycle_clusters(&CycleClusterConfig {
            clusters: 1024 / cluster_size,
            cluster_size,
            inter_edges: 2048,
            labels: 3,
            seed: 21,
        });
        let queries: Vec<Regex> = ["l1.(l0)+.l2", "l2.(l0)+.l1", "l0.(l0)+.l1", "l1.(l0)+.l1"]
            .iter()
            .map(|q| Regex::parse(q).unwrap())
            .collect();
        let r_g = ProductEvaluator::new(&graph, &Regex::parse("l0").unwrap()).evaluate();
        let rtc = Rtc::from_pairs(&r_g);
        let full = FullTc::from_pairs(&r_g);

        let full_time = time_min(2, || {
            let e = rpq_core::Engine::with_strategy(&graph, rpq_core::Strategy::FullSharing);
            e.evaluate_set(&queries).unwrap()
        });
        let rtc_time = time_min(2, || {
            let e = rpq_core::Engine::with_strategy(&graph, rpq_core::Strategy::RtcSharing);
            e.evaluate_set(&queries).unwrap()
        });
        t.row(vec![
            cluster_size.to_string(),
            format!("{:.2}", rtc.average_scc_size()),
            full.pair_count().to_string(),
            rtc.closure_pair_count().to_string(),
            fmt_ratio(
                full.pair_count() as f64,
                rtc.closure_pair_count().max(1) as f64,
            ),
            fmt_secs(full_time),
            fmt_secs(rtc_time),
            fmt_ratio(full_time.as_secs_f64(), rtc_time.as_secs_f64()),
        ]);
    }
    t
}

/// A Zipf-ranked pool of closure-heavy queries over the RMAT labels
/// `l0..l3`: 16 two-label closures plus 4 single-label ones, so the
/// structural cache sees 20 distinct shared bodies with a long tail.
fn zipf_query_pool() -> Vec<String> {
    let mut pool = Vec::with_capacity(20);
    for i in 0..4 {
        for j in 0..4 {
            pool.push(format!("(l{i}.l{j})+"));
        }
    }
    for i in 0..4 {
        pool.push(format!("(l{i})+"));
    }
    pool
}

/// One step of the LCG behind the ablations' deterministic draws (no RNG
/// dep).
fn lcg(state: &mut u64) -> u64 {
    *state = state
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407);
    *state
}

/// A deterministic Zipf stream of `len` indices into a `pool`-sized
/// rank list (rank r drawn with weight `(r+1)^-1.75`; LCG-driven, no RNG
/// dep). The exponent keeps the head heavy enough that half the
/// unbounded footprint covers most of the traffic while the tail still
/// churns the eviction path.
fn zipf_stream(pool: usize, len: usize, mut state: u64) -> Vec<usize> {
    let weights: Vec<f64> = (0..pool).map(|r| (r as f64 + 1.0).powf(-1.75)).collect();
    let total: f64 = weights.iter().sum();
    (0..len)
        .map(|_| {
            let mut u = (lcg(&mut state) >> 11) as f64 / (1u64 << 53) as f64 * total;
            for (r, w) in weights.iter().enumerate() {
                if u < *w {
                    return r;
                }
                u -= w;
            }
            pool - 1
        })
        .collect()
}

struct PressureRun {
    elapsed: Duration,
    hit_rate: f64,
    occupancy: usize,
}

/// Table 4: cache pressure — the same Zipf query stream against an
/// unbounded cache and against a byte budget at **half** the unbounded
/// steady state. The bounded run asserts occupancy ≤ budget after every
/// query (the budget is a hard bound, not advisory), and its hit rate
/// should stay within ~20% of unbounded: Zipf's head fits in half the
/// footprint, so eviction mostly recycles the tail. `budget(B)` is the
/// deterministic structural footprint each mode may retain;
/// `scripts/bench_drift.py` gates it alongside the stream time.
pub fn cache_pressure_table(profile: Profile) -> Table {
    let mut t = Table::new(
        "Ablation: cache pressure (Zipf stream, bounded vs unbounded)",
        &[
            "cache",
            "budget(B)",
            "eval(s)",
            "hit ratio",
            "occ vs budget",
        ],
    );
    let scale = profile.rmat_scale().min(11);
    let graph = rmat_n_scaled(2, scale, 19);
    let pool = zipf_query_pool();
    let len = match profile {
        Profile::Fast => 120,
        _ => 400,
    };
    let stream = zipf_stream(pool.len(), len, 0x2f1e_5eed);

    let run = |budget: Option<usize>| -> PressureRun {
        let config = rpq_core::EngineConfig {
            cache_budget: rpq_core::CacheBudget {
                max_bytes: budget,
                ..rpq_core::CacheBudget::default()
            },
            ..rpq_core::EngineConfig::default()
        };
        let engine = rpq_core::Engine::with_config(&graph, config);
        let t = Instant::now();
        for &r in &stream {
            engine.evaluate_str(&pool[r]).unwrap();
            if let Some(max) = budget {
                // The acceptance probe: never over budget, at any point.
                assert!(
                    engine.cache().occupancy_bytes() <= max,
                    "occupancy {} B over the {} B budget",
                    engine.cache().occupancy_bytes(),
                    max
                );
            }
        }
        let elapsed = t.elapsed();
        let c = engine.cache();
        PressureRun {
            elapsed,
            hit_rate: c.hits() as f64 / (c.hits() + c.misses()).max(1) as f64,
            occupancy: c.occupancy_bytes(),
        }
    };

    let unbounded = run(None);
    let budget = (unbounded.occupancy / 2).max(1);
    let bounded = run(Some(budget));

    for (label, cap, r) in [
        ("unbounded", unbounded.occupancy, &unbounded),
        ("bounded 1/2", budget, &bounded),
    ] {
        t.row(vec![
            label.to_string(),
            cap.to_string(),
            fmt_secs(r.elapsed),
            format!("{:.3}", r.hit_rate),
            fmt_ratio(r.occupancy as f64, budget as f64),
        ]);
    }
    t
}

/// Appends one `par` row: `run` at 1, 2 and 4 workers.
fn par_row<T>(t: &mut Table, path: &str, input: String, run: impl Fn(usize) -> T) {
    let [t1, t2, t4] = [1, 2, 4].map(|threads| time_min(10, || run(threads)));
    t.row(vec![
        path.to_string(),
        input,
        fmt_secs(t1),
        fmt_secs(t2),
        fmt_secs(t4),
        fmt_ratio(t1.as_secs_f64(), t2.as_secs_f64()),
    ]);
}

/// Table 5: the engine's batch mode swept over worker counts
/// (`evaluate_set` under `EngineConfig::threads`; one 4-RPQ set sharing a
/// closure body, fresh engine per run). Every closure is built
/// sequentially, so this is the one parallel path. Every cell depends on
/// the host's core count, which the title states — so this table has no
/// drift baseline.
pub fn par_table() -> Table {
    let nproc = rpq_graph::par::available_threads();
    let mut t = Table::new(
        format!("Ablation: parallel paths by worker count (nproc={nproc})"),
        &["path", "input", "1(s)", "2(s)", "4(s)", "1 vs 2"],
    );
    let graph = rmat_n_scaled(3, 10, 45);
    let sets = generate_workload(
        &alphabet_of(&graph),
        &WorkloadConfig {
            rs_per_length: 1,
            r_lengths: vec![2],
            queries_per_set: 4,
            ..WorkloadConfig::default()
        },
    );
    for strategy in [Strategy::RtcSharing, Strategy::FullSharing] {
        let path = format!("evaluate_set {}", strategy.short_name());
        par_row(&mut t, &path, "RMAT_3@2^10 x 4 RPQs".into(), |threads| {
            let config = EngineConfig {
                strategy,
                threads,
                ..EngineConfig::default()
            };
            Engine::with_config(&graph, config)
                .evaluate_set(&sets[0].queries)
                .unwrap()
        });
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cache_pressure_fast_profile() {
        let t = cache_pressure_table(Profile::Fast);
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn zipf_stream_is_deterministic_and_head_heavy() {
        let a = zipf_stream(20, 200, 42);
        assert_eq!(a, zipf_stream(20, 200, 42));
        let head = a.iter().filter(|&&r| r < 5).count();
        assert!(head > a.len() / 3, "head ranks drew only {head}/200");
    }

    #[test]
    fn ablation_tables_fast_profile() {
        let t1 = tc_algorithms_table(Profile::Fast);
        assert_eq!(t1.len(), 2);
        let t2 = batch_unit_table(Profile::Fast);
        assert_eq!(t2.len(), 2);
    }
}
