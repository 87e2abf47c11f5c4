//! Edge-level graph reduction `G → G_R` (Section III-A).
//!
//! `G_R` maps all paths satisfying `R` between a vertex pair to **one**
//! unlabeled edge: its edge set *is* `R_G`. Three things fall out of the
//! definition, all load-bearing for the rest of the pipeline:
//!
//! * vertices and edges of `G` not on any `R`-path disappear
//!   (`V_R ⊆ V`, usually much smaller);
//! * labels disappear (every edge "is" `R` now);
//! * the multigraph becomes a simple graph (parallel `R`-paths collapse).

use rpq_graph::{MappedDigraph, PairSet};

/// Builds `G_R` from an already-evaluated `R_G`.
///
/// This is the entry point Algorithm 1 uses: line 10 computes
/// `R_G = RTCSharing(R)` recursively, then the reduction is a pure
/// restructuring of those pairs.
pub fn reduce_edge_level(r_g: &PairSet) -> MappedDigraph {
    MappedDigraph::from_pairset(r_g)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rpq_eval::product::evaluate;
    use rpq_graph::fixtures::paper_graph;
    use rpq_graph::VertexId;
    use rpq_regex::Regex;

    /// `G_R` of query `r` on the paper's Fig. 1 graph.
    fn reduce(r: &str) -> MappedDigraph {
        reduce_edge_level(&evaluate(&paper_graph(), &Regex::parse(r).unwrap()))
    }

    #[test]
    fn example3_edge_level_reduction() {
        // Fig. 5: G reduced at the edge level for b·c.
        let gr = reduce("b.c");
        // V_{b·c} = {v2, v3, v4, v5, v6}.
        assert_eq!(gr.vertex_count(), 5);
        assert_eq!(
            gr.mapping.originals(),
            &[
                VertexId(2),
                VertexId(3),
                VertexId(4),
                VertexId(5),
                VertexId(6)
            ]
        );
        // E_{b·c} = {(2,4), (2,6), (3,5), (4,2), (5,3)}.
        let edges: Vec<(u32, u32)> = gr
            .original_edges()
            .map(|(s, d)| (s.raw(), d.raw()))
            .collect();
        assert_eq!(edges, vec![(2, 4), (2, 6), (3, 5), (4, 2), (5, 3)]);
    }

    #[test]
    fn vertices_off_r_paths_are_excluded() {
        let gr = reduce("b.c");
        // v0, v1, v7, v8, v9 are not on any b·c path.
        for v in [0u32, 1, 7, 8, 9] {
            assert_eq!(
                gr.mapping.compact(VertexId(v)),
                None,
                "v{v} must be excluded"
            );
        }
    }

    #[test]
    fn parallel_paths_collapse_to_one_edge() {
        // Both b- and c-labeled edges run v5→v6; for query `b|c` the pair
        // (5,6) must appear exactly once in G_{b|c}.
        let gr = reduce("b|c");
        let count = gr
            .original_edges()
            .filter(|&(s, d)| s == VertexId(5) && d == VertexId(6))
            .count();
        assert_eq!(count, 1);
    }

    #[test]
    fn reduction_of_empty_result() {
        let gr = reduce("zz");
        assert_eq!(gr.vertex_count(), 0);
        assert_eq!(gr.edge_count(), 0);
    }
}
