//! TABLE IV as a test: the generated datasets must carry the statistics
//! the paper's table records (within the documented power-of-two padding
//! of the R-MAT vertex grid).

use rtc_rpq::datasets::rmat::{rmat_n_scaled, RmatConfig};
use rtc_rpq::datasets::surrogate::{self, SPECS};
use rtc_rpq::datasets::{rmat_graph, workload};
use rtc_rpq::graph::metrics::{out_degree_distribution, reciprocity, scc_size_distribution};
use rtc_rpq::graph::GraphStats;

/// The RMAT_N family at reduced scale: |E| = degree · |Σ| · |V| exactly.
#[test]
fn rmat_family_degree_formula() {
    for n in [0u32, 2, 4] {
        let g = rmat_n_scaled(n, 10, 42);
        let s = GraphStats::of(&g);
        assert_eq!(s.vertices, 1 << 10);
        assert_eq!(s.labels, 4);
        let expected_degree = 2f64.powi(n as i32 - 2);
        assert!(
            (s.degree_per_label - expected_degree).abs() < 1e-9,
            "RMAT_{n}: degree {} != {expected_degree}",
            s.degree_per_label
        );
    }
}

/// Surrogates hit TABLE IV's |E| and |Σ| exactly; degree within the
/// padding tolerance.
#[test]
fn surrogate_stats_match_table4() {
    let cases = [
        (surrogate::robots_like(), &SPECS[1]),
        (surrogate::advogato_like(), &SPECS[2]),
        (surrogate::youtube_like(), &SPECS[3]),
    ];
    for (g, spec) in cases {
        let s = GraphStats::of(&g);
        assert_eq!(s.edges, spec.edges, "{}", spec.name);
        assert_eq!(s.labels, spec.labels, "{}", spec.name);
        let rel = (s.degree_per_label - spec.paper_degree).abs() / spec.paper_degree;
        assert!(
            rel < 0.5,
            "{}: degree {} vs paper {}",
            spec.name,
            s.degree_per_label,
            spec.paper_degree
        );
    }
}

/// The scaled Yago2s surrogate preserves the degree-0.02 regime and the
/// trivial-SCC structure that drives the paper's Yago2s exception.
#[test]
fn yago_surrogate_is_in_the_trivial_scc_regime() {
    let g = surrogate::yago2s_like(4000);
    assert_eq!(g.label_count(), 104);
    assert!(g.degree_per_label() < 0.05);
    let sccs = scc_size_distribution(&g);
    // Label-ignoring SCCs are still essentially all trivial at this density.
    assert!(sccs.mean < 1.6, "mean SCC size {}", sccs.mean);
}

/// R-MAT skew is visible in the degree distribution (hub at low ids),
/// while the uniform quadrant configuration is not.
#[test]
fn rmat_skew_shows_in_degree_distribution() {
    let skewed = rmat_graph(&RmatConfig::new(10, 8192, 2, 9));
    let d = out_degree_distribution(&skewed);
    assert!(
        d.max as f64 > d.mean * 8.0,
        "skewed R-MAT should have hubs: max {} mean {}",
        d.max,
        d.mean
    );
    let mut uniform_cfg = RmatConfig::new(10, 8192, 2, 9);
    uniform_cfg.a = 0.25;
    uniform_cfg.b = 0.25;
    uniform_cfg.c = 0.25;
    uniform_cfg.d = 0.25;
    let uniform = rmat_graph(&uniform_cfg);
    let du = out_degree_distribution(&uniform);
    assert!(
        du.max < d.max,
        "uniform should be flatter: {} vs {}",
        du.max,
        d.max
    );
}

/// Reciprocity metric behaves across generators (cycles vs DAG-ish RMAT).
#[test]
fn reciprocity_across_generators() {
    let cyc = rtc_rpq::datasets::structured::cycle_graph(64, "a");
    // A directed cycle of length > 2 has no reciprocal edges.
    assert_eq!(reciprocity(&cyc), 0.0);
    let two = rtc_rpq::datasets::structured::cycle_graph(2, "a");
    assert_eq!(reciprocity(&two), 1.0);
}

/// Section V-A workload statistics: 10 Rs per length at paper settings,
/// nested prefixes, all parseable and single-clause.
#[test]
fn workload_matches_section5a() {
    let alphabet: Vec<String> = (0..4).map(|i| format!("l{i}")).collect();
    let sets = workload::generate_workload(&alphabet, &workload::WorkloadConfig::default());
    assert_eq!(sets.len(), 30); // 10 per length × lengths {1,2,3}
    for set in &sets {
        assert_eq!(set.queries.len(), 10);
        for k in [1usize, 2, 4, 6, 8, 10] {
            assert_eq!(set.prefix(k).len(), k);
            assert_eq!(set.prefix(k), &set.queries[..k]);
        }
    }
}
