//! Witness paths.
//!
//! RPQ results are vertex *pairs* (Definition 2), but the applications the
//! paper motivates — signal-path detection in protein networks, friend
//! recommendation — usually want to see an actual path. The product search
//! finds a **shortest** path whose label sequence matches the query
//! ([`crate::ProductEvaluator::witness`], [`crate::find_witness`]); this
//! module holds its steps and renders them in the paper's notation.

use rpq_graph::{LabelId, LabeledMultigraph, VertexId};

/// One edge of a witness path.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WitnessStep {
    /// Source endpoint.
    pub from: VertexId,
    /// The edge label.
    pub label: LabelId,
    /// Target endpoint.
    pub to: VertexId,
}

/// Renders a witness as the paper's path notation
/// `p(v_s, l_1, v_1, …, l_n, v_d)`.
pub fn format_witness(graph: &LabeledMultigraph, steps: &[WitnessStep]) -> String {
    match steps.first() {
        None => "p()".to_string(),
        Some(first) => {
            let mut out = format!("p({}", first.from);
            for s in steps {
                out.push_str(&format!(", {}, {}", graph.labels().name(s.label), s.to));
            }
            out.push(')');
            out
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::product::{evaluate, find_witness};
    use rpq_graph::fixtures::paper_graph;
    use rpq_regex::Regex;

    fn labels_of(g: &LabeledMultigraph, steps: &[WitnessStep]) -> Vec<String> {
        steps
            .iter()
            .map(|s| g.labels().name(s.label).to_owned())
            .collect()
    }

    #[test]
    fn witness_for_example1_pair() {
        // Fig. 2's shortest witness for (v7, v5): p(v7,d,v4,b,v1,c,v2,c,v5).
        let g = paper_graph();
        let q = Regex::parse("d.(b.c)+.c").unwrap();
        let w = find_witness(&g, &q, VertexId(7), VertexId(5)).unwrap();
        assert_eq!(labels_of(&g, &w), vec!["d", "b", "c", "c"]);
        assert_eq!(w[0].from, VertexId(7));
        assert_eq!(w.last().unwrap().to, VertexId(5));
        // Steps chain correctly.
        for pair in w.windows(2) {
            assert_eq!(pair[0].to, pair[1].from);
        }
        assert_eq!(format_witness(&g, &w), "p(v7, d, v4, b, v1, c, v2, c, v5)");
    }

    #[test]
    fn witness_longer_path() {
        // (v7, v3) needs the 6-edge path p(v7,d,v4,b,v1,c,v2,b,v5,c,v6,c,v3).
        let g = paper_graph();
        let q = Regex::parse("d.(b.c)+.c").unwrap();
        let w = find_witness(&g, &q, VertexId(7), VertexId(3)).unwrap();
        assert_eq!(labels_of(&g, &w), vec!["d", "b", "c", "b", "c", "c"]);
    }

    #[test]
    fn no_witness_for_non_result_pair() {
        let g = paper_graph();
        let q = Regex::parse("d.(b.c)+.c").unwrap();
        assert!(find_witness(&g, &q, VertexId(7), VertexId(4)).is_none());
        assert!(find_witness(&g, &q, VertexId(0), VertexId(5)).is_none());
    }

    #[test]
    fn zero_length_witness_for_nullable_query() {
        let g = paper_graph();
        let q = Regex::parse("(b.c)*").unwrap();
        let w = find_witness(&g, &q, VertexId(9), VertexId(9)).unwrap();
        assert!(w.is_empty());
        assert_eq!(format_witness(&g, &w), "p()");
        // Non-nullable query has no zero-length witness.
        let q = Regex::parse("(b.c)+").unwrap();
        assert!(find_witness(&g, &q, VertexId(9), VertexId(9)).is_none());
    }

    #[test]
    fn witness_exists_iff_pair_in_result() {
        let g = paper_graph();
        for src in ["(b.c)+", "b.c", "d.(b.c)*.c", "a|e.f"] {
            let q = Regex::parse(src).unwrap();
            let result = evaluate(&g, &q);
            for s in 0..g.vertex_count() as u32 {
                for d in 0..g.vertex_count() as u32 {
                    let pair_in = result.contains(VertexId(s), VertexId(d));
                    let witness = find_witness(&g, &q, VertexId(s), VertexId(d));
                    assert_eq!(
                        pair_in,
                        witness.is_some(),
                        "query {src}: ({s},{d}) result={pair_in} witness={witness:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn witness_labels_match_query() {
        use rpq_automata::DerivativeMatcher;
        let g = paper_graph();
        for src in ["(b.c)+", "d.(b.c)+.c", "b.c.c", "(b|c)+"] {
            let q = Regex::parse(src).unwrap();
            let result = evaluate(&g, &q);
            for (s, d) in result.iter() {
                let w = find_witness(&g, &q, s, d).unwrap();
                let labels = labels_of(&g, &w);
                let word: Vec<&str> = labels.iter().map(String::as_str).collect();
                assert!(
                    DerivativeMatcher::new(&q).matches(&word),
                    "witness {word:?} does not match {src}"
                );
            }
        }
    }

    #[test]
    fn out_of_range_vertices() {
        let g = paper_graph();
        let q = Regex::parse("a").unwrap();
        assert!(find_witness(&g, &q, VertexId(99), VertexId(0)).is_none());
        assert!(find_witness(&g, &q, VertexId(0), VertexId(99)).is_none());
    }

    #[test]
    fn witness_is_shortest() {
        // From v2, (b·c)+ reaches v2 itself; shortest loop is 4 edges
        // (v2 b v5 c v4 b v1 c v2).
        let g = paper_graph();
        let q = Regex::parse("(b.c)+").unwrap();
        let w = find_witness(&g, &q, VertexId(2), VertexId(2)).unwrap();
        assert_eq!(w.len(), 4);
    }
}
