//! Text-mode ablation experiments: what the paper's figures do not plot
//! but the design decisions rest on.
//!
//! Four tables:
//!
//! 1. **TC algorithms** (TABLE III) — the naive per-vertex BFS over a
//!    built `G_R` (what FullSharing pays once `R_G` is evaluated) vs the
//!    whole RTC build from the graph, SCCs + condensation + closure of
//!    `Ḡ_R` with no `R_G` at all (what RTCSharing pays).
//! 2. **Batch-unit evaluation** — Algorithm 2 vs the FullSharing join,
//!    with the elimination counters that explain the gap, plus one
//!    large-cone row (Algorithm 2 alone) where the Post stage dominates.
//! 3. **SCC sensitivity** — shared sizes and times as the average SCC size
//!    grows with everything else held fixed.
//! 4. **Cache pressure** — a Zipf stream against an unbounded cache and a
//!    byte budget at half its steady state.

use crate::profiles::Profile;
use crate::table::{fmt_ratio, fmt_secs, Table};
use rpq_core::{eval_batch_unit_full, eval_batch_unit_rtc, EliminationStats, PreRelation};
use rpq_datasets::rmat::rmat_n_scaled;
use rpq_datasets::structured::{cycle_clusters, CycleClusterConfig};
use rpq_eval::ProductEvaluator;
use rpq_graph::MappedDigraph;
use rpq_reduction::{tc_naive, FullTc, Rtc};
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

/// Table 1: the two closure costs of TABLE III for the body `l0·l1` on
/// RMAT graphs — `tc_naive` on a `G_R` built from an evaluated `R_G`
/// (neither the evaluation nor the build timed) against `Rtc::from_body`
/// on the graph (one Tarjan pass over the product of the graph and the
/// body, the condensation rows, then the closure sweep): the whole of what
/// the engine runs for the body's RTC, `R_G`'s share included.
pub fn tc_algorithms_table(profile: Profile) -> Table {
    let mut t = Table::new(
        "Ablation: TC algorithms on G_R",
        &["graph", "|V_R|", "|E_R|", "|V̄_R|", "naive(s)", "rtc(s)"],
    );
    for n in [2u32, 4] {
        let graph = rmat_n_scaled(n, profile.rmat_scale().min(11), 7);
        let body = Regex::parse("l0.l1").unwrap();
        let r_g = ProductEvaluator::new(&graph, &body).evaluate();
        let gr = MappedDigraph::from_pairset(&r_g);
        let naive = time_min(3, || tc_naive(&gr.graph));
        let build = || Rtc::from_body(&graph, &body).expect("a closure-free body");
        let rtc = time_min(3, build);
        t.row(vec![
            format!("RMAT_{n}"),
            gr.vertex_count().to_string(),
            gr.edge_count().to_string(),
            build().scc_count().to_string(),
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
    // One large cone at every profile: `l0+` itself (Pre = Post = ε) on
    // RMAT_2 at 2^15, where the Post stage builds the entry rows of ~56M
    // pairs. FullSharing at this size is what Fig. 14 already shows, so
    // only Algorithm 2 runs.
    let graph = rmat_n_scaled(2, 15, 11);
    let r_g = ProductEvaluator::new(&graph, &Regex::parse("l0").unwrap()).evaluate();
    let rtc = Rtc::from_pairs(&r_g);
    let pre = PreRelation::Identity(graph.vertex_count());
    let mut stats = EliminationStats::default();
    let alg2 = time_min(3, || {
        stats = EliminationStats::default();
        eval_batch_unit_rtc(&graph, &pre, &rtc, ClosureKind::Plus, &[], &mut stats)
    });
    t.row(vec![
        "RMAT_2@2^15 l0+".to_string(),
        fmt_secs(alg2),
        "–".to_string(),
        "–".to_string(),
        stats.redundant1_skipped.to_string(),
        stats.redundant2_skipped.to_string(),
        stats.useless1_skipped.to_string(),
        "–".to_string(),
    ]);
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

    /// The `column` cell of every row of a table's JSON form, in row order.
    fn json_column<'a>(json: &'a str, column: &str) -> Vec<&'a str> {
        let key = format!("\"{column}\":\"");
        let cells = json
            .match_indices(&key)
            .map(|(at, _)| &json[at + key.len()..]);
        cells
            .map(|cell| &cell[..cell.find('"').expect("a closed cell")])
            .collect()
    }

    /// The batch-unit table's counters are exact: each count column equals
    /// its checked-in baseline cell for cell.
    #[test]
    fn ablation_tables_fast_profile() {
        let t1 = tc_algorithms_table(Profile::Fast);
        assert_eq!(t1.len(), 2);
        let t2 = batch_unit_table(Profile::Fast);
        assert_eq!(t2.len(), 3);
        let baseline = include_str!(
            "../../../scripts/bench_baseline/ablation__batch_unit_evaluation__pre_r__post_.json"
        );
        let got = t2.to_json();
        for column in [
            "graph",
            "redundant1",
            "redundant2",
            "useless1",
            "full_dup_hits",
        ] {
            let want = json_column(baseline, column);
            assert_eq!(want.len(), 3, "{column}");
            assert_eq!(json_column(&got, column), want, "{column}");
        }
    }
}
