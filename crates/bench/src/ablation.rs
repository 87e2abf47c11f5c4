//! Text-mode ablation experiments: what the paper's figures do not plot
//! but the design decisions rest on.
//!
//! Seven tables:
//!
//! 1. **TC algorithms** (TABLE III) — the naive per-vertex BFS over `G_R`
//!    (what FullSharing pays) vs SCCs + condensation + closure of `Ḡ_R`
//!    (what RTCSharing pays), both starting from the same `G_R`.
//! 2. **Batch-unit evaluation** — Algorithm 2 vs the FullSharing join,
//!    with the elimination counters that explain the gap.
//! 3. **SCC sensitivity** — shared sizes and times as the average SCC size
//!    grows with everything else held fixed.
//! 4. **Row representation** — forced-sparse vs forced-dense vs adaptive
//!    closure rows at several crossover thresholds, on one
//!    reachability-dense and one reachability-sparse workload.
//! 5. **Cache pressure** — a Zipf stream against an unbounded cache and a
//!    byte budget at half its steady state.
//! 6. **Parallel paths** — the per-vertex BFS closure, Theorem 1's
//!    expansion and the batch fan-out at 1/2/4 workers.
//! 7. **Incremental maintenance** — one stale-entry refresh through
//!    [`DynamicRtc`] vs a rebuild, under three small-delta profiles.

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
use rpq_graph::{
    tarjan_scc, Condensation, MappedDigraph, PairSet, ReprMode, RowSetPolicy, VertexId,
};
use rpq_reduction::{
    closure_of_condensation_rows, tc_naive, tc_naive_parallel, DynamicRtc, FullTc,
    MaintenanceConfig, Rtc,
};
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
/// `tc_naive` on `G_R` against Tarjan + condensation + the adaptive closure
/// sweep (the work of `Rtc::from_pairs_with`), both from a built `G_R`.
pub fn tc_algorithms_table(profile: Profile) -> Table {
    let mut t = Table::new(
        "Ablation: TC algorithms on G_R",
        &["graph", "|V_R|", "|E_R|", "|V̄_R|", "naive(s)", "rtc(s)"],
    );
    let policy = RowSetPolicy::adaptive();
    for n in [2u32, 4] {
        let graph = rmat_n_scaled(n, profile.rmat_scale().min(11), 7);
        let r_g = ProductEvaluator::new(&graph, &Regex::parse("l0.l1").unwrap()).evaluate();
        let gr = MappedDigraph::from_pairset(&r_g);
        let naive = time_min(3, || tc_naive(&gr.graph));
        let rtc = time_min(3, || {
            let scc = tarjan_scc(&gr.graph);
            let cond = Condensation::new(&gr.graph, &scc);
            closure_of_condensation_rows(&cond, &policy)
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

/// The representation policies the ablation sweeps: both pure modes plus
/// the adaptive hybrid at three crossover densities around the default
/// (`1/32`).
fn repr_policies() -> [(&'static str, RowSetPolicy); 5] {
    [
        ("sparse", RowSetPolicy::sparse()),
        ("dense", RowSetPolicy::dense()),
        (
            "adapt 1/64",
            RowSetPolicy {
                mode: ReprMode::Adaptive,
                crossover: 1.0 / 64.0,
            },
        ),
        ("adapt 1/32", RowSetPolicy::adaptive()),
        (
            "adapt 1/8",
            RowSetPolicy {
                mode: ReprMode::Adaptive,
                crossover: 1.0 / 8.0,
            },
        ),
    ]
}

/// Table 4: hybrid row-representation ablation (density × crossover).
///
/// The `cycles` workload is a deep random DAG of small cycle clusters —
/// most SCCs reach a large fraction of the condensation, so closure rows
/// are dense and the bitset backing should win on both time and memory.
/// The `rmat` workload has shallow reachability, so rows stay far below
/// any sensible crossover and forcing them dense wastes memory.
/// `vs sparse` is the closure-construction speedup over the forced-sparse
/// row (construction is the representation-sensitive phase; `eval(s)` is
/// reported to show end-to-end times are join-dominated and unharmed).
/// The `(B)` columns are heap bytes; `scripts/bench_drift.py` watches
/// them for memory regressions.
pub fn repr_ablation_table(profile: Profile) -> Table {
    let mut t = Table::new(
        "Ablation: row representation (density × crossover)",
        &[
            "workload",
            "policy",
            "dense rows",
            "rtc mem(B)",
            "full mem(B)",
            "build(s)",
            "vs sparse",
            "eval(s)",
        ],
    );
    let scale = profile.rmat_scale().min(11);
    let cycles = cycle_clusters(&CycleClusterConfig {
        clusters: (1u32 << scale) / 4,
        cluster_size: 4,
        inter_edges: 1usize << (scale + 2),
        labels: 3,
        seed: 33,
    });
    let rmat = rmat_n_scaled(2, scale, 7);
    let queries: Vec<Regex> = ["l1.(l0)+.l2", "l2.(l0)+.l1", "l0.(l0)+.l1"]
        .iter()
        .map(|q| Regex::parse(q).unwrap())
        .collect();
    for (workload, graph) in [("cycles", &cycles), ("rmat", &rmat)] {
        let r_g = ProductEvaluator::new(graph, &Regex::parse("l0").unwrap()).evaluate();
        let mut sparse_build = f64::NAN;
        for (label, policy) in repr_policies() {
            let build = time_min(2, || Rtc::from_pairs_with(&r_g, &policy));
            let rtc = Rtc::from_pairs_with(&r_g, &policy);
            let full = FullTc::from_pairs_parallel_with(&r_g, 1, &policy);
            let eval = time_min(2, || {
                let config = rpq_core::EngineConfig {
                    representation: policy,
                    ..rpq_core::EngineConfig::default()
                };
                rpq_core::Engine::with_config(graph, config)
                    .evaluate_set(&queries)
                    .unwrap()
            });
            if label == "sparse" {
                sparse_build = build.as_secs_f64();
            }
            t.row(vec![
                workload.to_string(),
                label.to_string(),
                rtc.dense_closure_rows().to_string(),
                rtc.closure_heap_bytes().to_string(),
                full.closure_heap_bytes().to_string(),
                fmt_secs(build),
                fmt_ratio(sparse_build, build.as_secs_f64()),
                fmt_secs(eval),
            ]);
        }
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

/// Table 5: cache pressure — the same Zipf query stream against an
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

/// Table 6: the three parallelized hot paths swept over worker counts —
/// the per-vertex BFS closure (`tc_naive_parallel`), Theorem 1's expansion
/// (`Rtc::expand_parallel`) and the engine's batch mode (`evaluate_set`
/// under `EngineConfig::threads`; one 4-RPQ set sharing a closure body,
/// fresh engine per run). The small inputs show where spawn/stitch
/// overhead eats the win. Every cell depends on the host's core count,
/// which the title states — so this table has no drift baseline.
pub fn par_table() -> Table {
    let nproc = rpq_graph::par::available_threads();
    let mut t = Table::new(
        format!("Ablation: parallel paths by worker count (nproc={nproc})"),
        &["path", "input", "1(s)", "2(s)", "4(s)", "1 vs 2"],
    );
    let body = Regex::parse("l0.l1").unwrap();
    let relations: Vec<(String, PairSet)> = [(2u32, 8u32), (2, 10), (4, 10)]
        .into_iter()
        .map(|(n, scale)| {
            let graph = rmat_n_scaled(n, scale, 7);
            let r_g = ProductEvaluator::new(&graph, &body).evaluate();
            (format!("RMAT_{n}@2^{scale}"), r_g)
        })
        .collect();
    for (name, r_g) in &relations {
        let gr = MappedDigraph::from_pairset(r_g);
        let input = format!("{name} |V_R|={}", gr.vertex_count());
        par_row(&mut t, "tc_naive_parallel", input, |threads| {
            tc_naive_parallel(&gr.graph, threads)
        });
    }
    for (name, r_g) in &relations[1..] {
        let rtc = Rtc::from_pairs(r_g);
        let input = format!("{name} pairs={}", rtc.expanded_pair_count());
        par_row(&mut t, "Rtc::expand_parallel", input, |threads| {
            rtc.expand_parallel(threads)
        });
    }
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

/// Table 7: one stale-entry refresh, incremental vs rebuild. Each cell
/// times **two** refreshes — absorb a pair-delta of ~0.1% of `|R_G|` into a
/// [`DynamicRtc`] and snapshot it back to an `Rtc`, then absorb the
/// inverse — against `Rtc::from_pairs` on the two matching relations.
/// Profiles: `churn` deletes real pairs and reinserts them (damage dies
/// out at once in a well-connected relation); `growth` inserts uniform
/// random pairs; `mixed` deletes real pairs while inserting random ones
/// (adversarial: every other refresh splits or merges a large SCC, where
/// incremental maintenance is expected near, or behind, a rebuild).
pub fn dynamic_table() -> Table {
    // Millisecond cells under a 25% drift gate: on the shared 2-core host
    // the minimum of 5 runs moved ±50% between runs of one binary, the
    // minimum of 200 (~0.5 s per cell) ±10%.
    const REPS: usize = 200;
    let mut t = Table::new(
        "Ablation: incremental RTC maintenance vs rebuild (two refreshes)",
        &[
            "relation",
            "delta",
            "pairs/delta",
            "incremental(s)",
            "rebuild(s)",
            "speedup",
        ],
    );
    // A dense join relation (one giant SCC plus fringe) and a
    // cluster-structured one (many mid-size SCCs).
    let rmat = rmat_n_scaled(3, 10, 7);
    let clusters = cycle_clusters(&CycleClusterConfig {
        clusters: 150,
        cluster_size: 8,
        inter_edges: 120,
        labels: 2,
        seed: 11,
    });
    let config = MaintenanceConfig::default();
    for (name, graph, body) in [
        ("rmat_join", &rmat, "l0.l1"),
        ("clusters", &clusters, "l0|l1"),
    ] {
        let r_g = ProductEvaluator::new(graph, &Regex::parse(body).unwrap()).evaluate();
        let pairs: Vec<(VertexId, VertexId)> = r_g.iter().collect();
        let k = (pairs.len() / 1000).max(2);
        let real: Vec<_> = pairs
            .iter()
            .step_by((pairs.len() / k).max(1))
            .take(k)
            .copied()
            .collect();
        let vertices = 1 + pairs
            .iter()
            .map(|&(a, b)| a.raw().max(b.raw()))
            .max()
            .unwrap_or(0);
        let random = |mut state: u64| -> Vec<(VertexId, VertexId)> {
            let mut next = || VertexId((lcg(&mut state) >> 33) as u32 % vertices);
            (0..k).map(|_| (next(), next())).collect()
        };
        let (fresh, crossing) = (random(0x9E37_79B9_7F4A_7C15), random(42));
        for (delta, inserted, deleted) in [
            ("churn", &[][..], &real[..]),
            ("growth", &fresh[..], &[][..]),
            ("mixed", &crossing[..], &real[..]),
        ] {
            let mut dynamic = DynamicRtc::from_pairs(&r_g);
            let incremental = time_min(REPS, || {
                dynamic.apply(inserted, deleted, &config);
                let forward = dynamic.snapshot();
                dynamic.apply(deleted, inserted, &config);
                (forward, dynamic.snapshot())
            });
            let moved = {
                let mut d = DynamicRtc::from_pairs(&r_g);
                d.apply(inserted, deleted, &config);
                d.pairs()
            };
            let rebuild = time_min(REPS, || (Rtc::from_pairs(&moved), Rtc::from_pairs(&r_g)));
            t.row(vec![
                format!("{name} |R_G|={}", pairs.len()),
                delta.to_string(),
                k.to_string(),
                fmt_secs(incremental),
                fmt_secs(rebuild),
                fmt_ratio(rebuild.as_secs_f64(), incremental.as_secs_f64()),
            ]);
        }
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

    #[test]
    fn repr_ablation_fast_profile() {
        let t = repr_ablation_table(Profile::Fast);
        // 2 workloads × 5 policies.
        assert_eq!(t.len(), 10);
    }
}
