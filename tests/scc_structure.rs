//! The paper's central structural claim, verified as tests: the RTC's
//! advantage over the full closure is governed by the average SCC size of
//! `G_R` — large SCCs mean big savings, trivial SCCs (the Yago2s regime)
//! mean parity.

use rtc_rpq::core::{Engine, Strategy};
use rtc_rpq::datasets::structured::{cycle_clusters, path_graph, CycleClusterConfig};
use rtc_rpq::eval::ProductEvaluator;
use rtc_rpq::reduction::{FullTc, Rtc};
use rtc_rpq::regex::Regex;

fn shared_sizes(cluster_size: u32) -> (usize, usize, f64) {
    let g = cycle_clusters(&CycleClusterConfig {
        clusters: 256 / cluster_size,
        cluster_size,
        inter_edges: 300,
        labels: 2,
        seed: 77,
    });
    let r_g = ProductEvaluator::new(&g, &Regex::parse("l0").unwrap()).evaluate();
    let rtc = Rtc::from_pairs(&r_g);
    let full = FullTc::from_pairs(&r_g);
    (
        full.pair_count(),
        rtc.closure_pair_count(),
        rtc.average_scc_size(),
    )
}

/// The Fig. 12 mechanism: with |V| fixed, growing the SCC size grows the
/// Full/RTC shared-size ratio monotonically.
#[test]
fn shared_size_ratio_grows_with_scc_size() {
    let mut prev_ratio = 0.0;
    for cluster_size in [1u32, 4, 16, 64] {
        let (full_pairs, rtc_pairs, avg_scc) = shared_sizes(cluster_size);
        assert!(rtc_pairs <= full_pairs);
        let ratio = full_pairs as f64 / rtc_pairs.max(1) as f64;
        assert!(
            ratio >= prev_ratio,
            "ratio must grow with SCC size: {ratio} < {prev_ratio} at {cluster_size}"
        );
        if cluster_size > 1 {
            assert!(avg_scc > 1.0, "clusters must form nontrivial SCCs");
        }
        prev_ratio = ratio;
    }
    // At cluster size 64 the ratio is dramatic (quadratic in SCC size).
    assert!(prev_ratio > 100.0, "final ratio only {prev_ratio}");
}

/// The Yago2s regime: on an acyclic graph every SCC is trivial, the
/// average SCC size is exactly 1.00, and RTC ≈ Full in size.
#[test]
fn acyclic_reduction_gives_parity() {
    let g = path_graph(400, "a");
    let r_g = ProductEvaluator::new(&g, &Regex::parse("a").unwrap()).evaluate();
    let rtc = Rtc::from_pairs(&r_g);
    let full = FullTc::from_pairs(&r_g);
    assert_eq!(rtc.average_scc_size(), 1.0);
    assert_eq!(rtc.closure_pair_count(), full.pair_count());
    assert_eq!(rtc.scc_count(), full.vertex_count());
}

/// Query results are identical across strategies regardless of the SCC
/// regime (the correctness side of the sensitivity sweep).
#[test]
fn strategies_agree_across_scc_regimes() {
    for cluster_size in [1u32, 8, 32] {
        let g = cycle_clusters(&CycleClusterConfig {
            clusters: 128 / cluster_size,
            cluster_size,
            inter_edges: 200,
            labels: 3,
            seed: 99,
        });
        for q in ["l1.(l0)+.l2", "(l0)+", "(l0.l1)+", "l2.(l0)*.l1"] {
            let query = Regex::parse(q).unwrap();
            let mut results = Vec::new();
            for strategy in Strategy::ALL {
                results.push(
                    Engine::with_strategy(&g, strategy)
                        .evaluate(&query)
                        .unwrap(),
                );
            }
            assert_eq!(results[0], results[1], "cluster {cluster_size}, query {q}");
            assert_eq!(results[1], results[2], "cluster {cluster_size}, query {q}");
        }
    }
}

/// In the giant-SCC extreme, the RTC collapses to O(1) pairs while the
/// full closure is quadratic.
#[test]
fn giant_scc_extreme() {
    let g = rtc_rpq::datasets::structured::cycle_graph(200, "a");
    let r_g = ProductEvaluator::new(&g, &Regex::parse("a").unwrap()).evaluate();
    let rtc = Rtc::from_pairs(&r_g);
    let full = FullTc::from_pairs(&r_g);
    assert_eq!(rtc.scc_count(), 1);
    assert_eq!(rtc.closure_pair_count(), 1); // the single self-reaching SCC
    assert_eq!(full.pair_count(), 200 * 200);
    assert_eq!(rtc.expand(), full.expand());
}

/// Elimination counters respond to the SCC structure: redundant-1
/// eliminations appear exactly when Pre tuples land in shared SCCs.
#[test]
fn eliminations_track_scc_structure() {
    // Dense clusters: many Pre endpoints share SCCs → redundant-1 > 0.
    let clustered = cycle_clusters(&CycleClusterConfig {
        clusters: 8,
        cluster_size: 16,
        inter_edges: 400,
        labels: 2,
        seed: 13,
    });
    let e = Engine::new(&clustered);
    e.evaluate_str("l1.(l0)+").unwrap();
    let with_sccs = e.elimination_stats().redundant1_skipped;

    // Acyclic graph: every SCC is a singleton; a Pre relation with distinct
    // end vertices can never collide in an SCC.
    let path = path_graph(256, "l0");
    let e = Engine::new(&path);
    e.evaluate_str("l0.(l0)+").unwrap();
    let without_sccs = e.elimination_stats().redundant1_skipped;

    assert!(
        with_sccs > 0,
        "clustered graph must trigger redundant-1 eliminations"
    );
    assert_eq!(without_sccs, 0, "path graph cannot trigger redundant-1");
}
