//! TABLE IV as a test: the generated datasets must carry the statistics
//! the paper's table records (within the documented power-of-two padding
//! of the R-MAT vertex grid).

use rtc_rpq::datasets::rmat::{rmat_n_scaled, RmatConfig};
use rtc_rpq::datasets::surrogate::{self, SPECS};
use rtc_rpq::datasets::{rmat_graph, workload};
use rtc_rpq::graph::fixtures::{paper_graph, triangle};
use rtc_rpq::graph::{tarjan_scc, Digraph, GraphBuilder, GraphStats, LabeledMultigraph, SccId};

/// Summary of a nonnegative integer distribution.
#[derive(Debug)]
struct Distribution {
    count: usize,
    min: usize,
    max: usize,
    mean: f64,
    /// Lower median for even counts.
    median: usize,
}

impl Distribution {
    /// Summarizes `values` (need not be sorted). Empty input gives zeros.
    fn of(mut values: Vec<usize>) -> Distribution {
        if values.is_empty() {
            return Distribution {
                count: 0,
                min: 0,
                max: 0,
                mean: 0.0,
                median: 0,
            };
        }
        values.sort_unstable();
        let count = values.len();
        let sum: usize = values.iter().sum();
        Distribution {
            count,
            min: values[0],
            max: values[count - 1],
            mean: sum as f64 / count as f64,
            median: values[(count - 1) / 2],
        }
    }
}

/// Out-degree distribution over all vertices (R-MAT skew checks).
fn out_degree_distribution(g: &LabeledMultigraph) -> Distribution {
    Distribution::of(g.vertices().map(|v| g.out_edges(v).len()).collect())
}

/// Fraction of (label-ignoring) directed edges whose reverse also exists.
/// High reciprocity produces 2-cycles, the seeds of nontrivial SCCs.
fn reciprocity(g: &LabeledMultigraph) -> f64 {
    let mut pairs: Vec<(u32, u32)> = g.all_edges().map(|(s, _, d)| (s.raw(), d.raw())).collect();
    pairs.sort_unstable();
    pairs.dedup();
    if pairs.is_empty() {
        return 0.0;
    }
    let reciprocal = pairs
        .iter()
        .filter(|&&(s, d)| s != d && pairs.binary_search(&(d, s)).is_ok())
        .count();
    reciprocal as f64 / pairs.len() as f64
}

/// SCC size distribution of the label-ignoring graph.
fn scc_size_distribution(g: &LabeledMultigraph) -> Distribution {
    let edges: Vec<(u32, u32)> = g.all_edges().map(|(s, _, d)| (s.raw(), d.raw())).collect();
    let scc = tarjan_scc(&Digraph::from_edges(g.vertex_count(), edges));
    Distribution::of(
        (0..scc.count())
            .map(|s| scc.members(SccId(s as u32)).len())
            .collect(),
    )
}

/// The helpers above on inputs small enough to count by hand.
#[test]
fn metric_helpers_on_fixtures() {
    let d = Distribution::of(vec![3, 1, 2, 2, 10]);
    assert_eq!((d.count, d.min, d.max, d.median), (5, 1, 10, 2));
    assert!((d.mean - 3.6).abs() < 1e-12);
    let empty = Distribution::of(vec![]);
    assert_eq!((empty.count, empty.mean), (0, 0.0));
    let g = paper_graph();
    let out = out_degree_distribution(&g);
    assert_eq!((out.count, out.max), (10, 3)); // v2 and v5 have 3 out-edges
    assert_eq!((out.mean * out.count as f64) as usize, g.edge_count());
    // Label-ignoring SCCs: {v1..v6} is the largest.
    let sccs = scc_size_distribution(&g);
    assert_eq!(sccs.max, 6);
    assert_eq!((sccs.mean * sccs.count as f64) as usize, g.vertex_count());
    let tri = scc_size_distribution(&triangle());
    assert_eq!((tri.count, tri.max), (1, 3));
    // No 2-cycles in a triangle; self-loops are not reciprocal; a 2-cycle
    // is; parallel edges with different labels count once.
    assert_eq!(reciprocity(&triangle()), 0.0);
    assert_eq!(reciprocity(&GraphBuilder::new().build()), 0.0);
    let mut b = GraphBuilder::new();
    b.add_edge(0, "a", 0);
    assert_eq!(reciprocity(&b.build()), 0.0);
    let mut b = GraphBuilder::new();
    b.add_edge(0, "a", 1).add_edge(1, "a", 0);
    assert_eq!(reciprocity(&b.build()), 1.0);
    let mut b = GraphBuilder::new();
    b.add_edge(0, "a", 1)
        .add_edge(0, "b", 1)
        .add_edge(1, "c", 0);
    assert_eq!(reciprocity(&b.build()), 1.0);
}

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
