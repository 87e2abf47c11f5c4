//! Structural graph metrics beyond the TABLE IV basics.
//!
//! The dataset validation tests (`tests/datasets_stats.rs`) use these to
//! characterize generated graphs: the out-degree distribution (R-MAT skew
//! checks), reciprocity (cycle pressure — the raw material of nontrivial
//! SCCs), and the SCC size distribution of the whole graph.

use crate::digraph::Digraph;
use crate::multigraph::LabeledMultigraph;
use crate::scc::tarjan_scc;

/// Summary of a nonnegative integer distribution.
#[derive(Clone, Debug, PartialEq)]
pub struct Distribution {
    /// Number of observations.
    pub count: usize,
    /// Smallest observation.
    pub min: usize,
    /// Largest observation.
    pub max: usize,
    /// Arithmetic mean.
    pub mean: f64,
    /// Median (lower median for even counts).
    pub median: usize,
}

impl Distribution {
    /// Summarizes `values` (need not be sorted). Empty input gives zeros.
    pub fn of(mut values: Vec<usize>) -> Distribution {
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

/// Out-degree distribution over all vertices.
pub fn out_degree_distribution(g: &LabeledMultigraph) -> Distribution {
    Distribution::of(g.vertices().map(|v| g.out_edges(v).len()).collect())
}

/// Fraction of (label-ignoring) directed edges whose reverse also exists.
///
/// High reciprocity produces 2-cycles, the seeds of nontrivial SCCs —
/// the regime where vertex-level reduction pays off.
pub fn reciprocity(g: &LabeledMultigraph) -> f64 {
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
pub fn scc_size_distribution(g: &LabeledMultigraph) -> Distribution {
    let edges: Vec<(u32, u32)> = g.all_edges().map(|(s, _, d)| (s.raw(), d.raw())).collect();
    let dg = Digraph::from_edges(g.vertex_count(), edges);
    let scc = tarjan_scc(&dg);
    Distribution::of(
        (0..scc.count())
            .map(|s| scc.members(crate::ids::SccId(s as u32)).len())
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures::{paper_graph, triangle};
    use crate::multigraph::GraphBuilder;

    #[test]
    fn distribution_summary() {
        let d = Distribution::of(vec![3, 1, 2, 2, 10]);
        assert_eq!(d.count, 5);
        assert_eq!(d.min, 1);
        assert_eq!(d.max, 10);
        assert_eq!(d.median, 2);
        assert!((d.mean - 3.6).abs() < 1e-12);
        let empty = Distribution::of(vec![]);
        assert_eq!(empty.count, 0);
        assert_eq!(empty.mean, 0.0);
    }

    #[test]
    fn degree_distributions_paper_graph() {
        let g = paper_graph();
        let out = out_degree_distribution(&g);
        assert_eq!(out.count, 10);
        assert_eq!(out.max, 3); // v2 and v5 have 3 out-edges
        let total_out: f64 = out.mean * out.count as f64;
        assert_eq!(total_out as usize, g.edge_count());
    }

    #[test]
    fn reciprocity_extremes() {
        // Triangle cycle: no 2-cycles.
        assert_eq!(reciprocity(&triangle()), 0.0);
        // Perfect 2-cycle.
        let mut b = GraphBuilder::new();
        b.add_edge(0, "a", 1).add_edge(1, "a", 0);
        assert_eq!(reciprocity(&b.build()), 1.0);
        // Self-loops don't count as reciprocal.
        let mut b = GraphBuilder::new();
        b.add_edge(0, "a", 0);
        assert_eq!(reciprocity(&b.build()), 0.0);
        // Empty graph.
        assert_eq!(reciprocity(&GraphBuilder::new().build()), 0.0);
    }

    #[test]
    fn reciprocity_ignores_labels() {
        // Parallel edges with different labels count once.
        let mut b = GraphBuilder::new();
        b.add_edge(0, "a", 1)
            .add_edge(0, "b", 1)
            .add_edge(1, "c", 0);
        let r = reciprocity(&b.build());
        assert!((r - 1.0).abs() < 1e-12, "r={r}");
    }

    #[test]
    fn scc_sizes_paper_graph() {
        // Label-ignoring paper graph: {v2..v6} form one SCC (b/c cycles),
        // {v8, v9} a 2-cycle; v0, v1, v7 trivial... v1 is in the big SCC
        // via v4 -b-> v1 -c-> v2.
        let g = paper_graph();
        let d = scc_size_distribution(&g);
        assert_eq!(d.max, 6); // {v1..v6}
        let total: f64 = d.mean * d.count as f64;
        assert_eq!(total as usize, g.vertex_count());
    }

    #[test]
    fn scc_sizes_triangle() {
        let d = scc_size_distribution(&triangle());
        assert_eq!(d.count, 1);
        assert_eq!(d.max, 3);
    }
}
