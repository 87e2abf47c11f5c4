//! Automaton-based RPQ evaluation over the product graph.
//!
//! The method of Yakovets et al. \[5\] as described in Section II-B and
//! Example 2: for each candidate start vertex, BFS over `(vertex, state)`
//! pairs of the product of the graph with the query NFA. A pair
//! `(start, v)` is emitted whenever an accepting state is reached at `v`.
//! A branch terminates when its `(vertex, state)` pair has already been
//! visited from the same start — the duplicate-avoidance rule the paper
//! illustrates with `p(v7, d, v4, b, v1, c, v2, b, v5, c, v4, b, v1)`.
//!
//! Start vertices are pruned to those with at least one out-edge whose
//! label can begin a match (`first(R)`); for nullable queries the identity
//! relation over *all* vertices is unioned in, per Definition 2 (the
//! zero-length path satisfies a nullable query at every vertex).
//!
//! The full relation (NoSharing), the ends from one source and a shortest
//! witness for one pair (`check`) all run the same BFS loop.

use crate::witness::WitnessStep;
use rpq_automata::{build_glushkov, Nfa};
use rpq_graph::{Cover, LabelId, LabeledMultigraph, PairSet, VertexId};
use rpq_regex::Regex;

/// A reusable evaluator binding a query automaton to a graph's alphabet.
///
/// Construction resolves the regex alphabet against the graph's label
/// dictionary once; evaluation then runs one product BFS per start vertex
/// with one visited [`Cover`] shared across sources, emptied over only the
/// words the last search set.
pub struct ProductEvaluator<'g> {
    graph: &'g LabeledMultigraph,
    nfa: Nfa,
    /// graph label id → local NFA symbol (u32::MAX = not in query alphabet).
    sym_of_label: Vec<u32>,
    /// local NFA symbol → graph label (`None` = not in the graph).
    label_of_sym: Vec<Option<LabelId>>,
}

const NO_SYM: u32 = u32::MAX;

impl<'g> ProductEvaluator<'g> {
    /// Compiles `query` against `graph`.
    pub fn new(graph: &'g LabeledMultigraph, query: &Regex) -> Self {
        let nfa = build_glushkov(query);
        let label_of_sym: Vec<Option<LabelId>> = nfa
            .alphabet()
            .iter()
            .map(|name| graph.labels().get(name))
            .collect();
        let mut sym_of_label = vec![NO_SYM; graph.label_count()];
        for (sym, label) in label_of_sym.iter().enumerate() {
            if let Some(label) = label {
                sym_of_label[label.index()] = sym as u32;
            }
        }
        Self {
            graph,
            nfa,
            sym_of_label,
            label_of_sym,
        }
    }

    /// The compiled automaton.
    pub fn nfa(&self) -> &Nfa {
        &self.nfa
    }

    /// The graph label of each of the automaton's local symbols (`None`
    /// where the graph has no label of that name).
    pub fn symbol_labels(&self) -> &[Option<LabelId>] {
        &self.label_of_sym
    }

    /// Candidate start vertices: vertices with an out-edge whose label can
    /// begin a match. Sorted ascending.
    fn candidate_sources(&self) -> Vec<VertexId> {
        // The initial state's transitions, one run per symbol.
        let runs = self.nfa.transitions_from(0).chunk_by(|a, b| a.0 == b.0);
        let labels = runs.filter_map(|run| self.label_of_sym[run[0].0 as usize]);
        self.graph.sources_with_labels(labels)
    }

    /// Evaluates the full query result `R_G` (Definition 2).
    pub fn evaluate(&self) -> PairSet {
        let mut visited = self.visited();
        let mut queue = Vec::new();
        let mut pairs: Vec<(VertexId, VertexId)> = Vec::new();
        for src in self.candidate_sources() {
            let ends = self.ends(src, &mut visited, &mut queue);
            pairs.extend(ends.into_iter().map(|end| (src, end)));
        }
        // Sources ascend and each search returns its ends sorted and
        // unique, so the pairs are already in order. Sets are long-lived:
        // the growth slack is released, not carried.
        pairs.shrink_to_fit();
        let mut result = PairSet::from_sorted_unique(pairs);
        if self.nfa.accepts_empty() {
            result.union_in_place(&PairSet::identity(self.graph.vertex_count()));
        }
        result
    }

    /// End vertices of matching paths from a single start vertex, ascending.
    /// (Zero-length matches for nullable queries are included.) A vertex
    /// the graph lacks starts no path.
    pub fn ends_from(&self, source: VertexId) -> Vec<VertexId> {
        if source.index() >= self.graph.vertex_count() {
            return Vec::new();
        }
        let mut ends = self.ends(source, &mut self.visited(), &mut Vec::new());
        if self.nfa.accepts_empty() && !ends.contains(&source) {
            ends.push(source);
            ends.sort_unstable();
        }
        ends
    }

    /// A shortest path from `src` to `dst` whose label sequence matches the
    /// query, or `None` if `(src, dst)` is not in the result: the path to
    /// the first `(dst, accepting)` node the search reaches. It has no
    /// steps when `src == dst` and the query is nullable.
    pub fn witness(&self, src: VertexId, dst: VertexId) -> Option<Vec<WitnessStep>> {
        if src.index().max(dst.index()) >= self.graph.vertex_count() {
            return None;
        }
        if src == dst && self.nfa.accepts_empty() {
            return Some(Vec::new());
        }
        // Beside the queue: the queue index and label each node was
        // reached from (a placeholder for the source).
        let (mut queue, mut parent) = (Vec::new(), vec![(0, LabelId(0))]);
        let reached = |from, label, v, state| {
            parent.push((from, label));
            v == dst && self.nfa.is_accepting(state)
        };
        if !self.search(src, &mut self.visited(), &mut queue, reached) {
            return None;
        }
        let mut steps = Vec::new();
        let mut at = queue.len() - 1;
        while at > 0 {
            let (from, label) = parent[at];
            steps.push(WitnessStep {
                from: queue[from].0,
                label,
                to: queue[at].0,
            });
            at = from;
        }
        steps.reverse();
        Some(steps)
    }

    /// A visited buffer over the product's `(vertex, state)` nodes.
    fn visited(&self) -> Cover {
        Cover::new(self.graph.vertex_count() * self.nfa.state_count())
    }

    /// Sorted end vertices reached from `source` in an accepting state via
    /// a path of length ≥ 1.
    fn ends(
        &self,
        source: VertexId,
        visited: &mut Cover,
        queue: &mut Vec<(VertexId, u32)>,
    ) -> Vec<VertexId> {
        // An end vertex is recorded at most once per accepting state; the
        // final sort+dedup collapses the rest.
        let mut ends: Vec<VertexId> = Vec::new();
        self.search(source, visited, queue, |_, _, v, state| {
            if self.nfa.is_accepting(state) {
                ends.push(v);
            }
            false
        });
        ends.sort_unstable();
        ends.dedup();
        ends
    }

    /// The product BFS from `(source, initial)`. Each node first reached by
    /// a path of length ≥ 1 is pushed on `queue` and handed to `reached`
    /// with the queue index of the node it was reached from and the label
    /// of that step. The search stops, returning `true`, as soon as
    /// `reached` does.
    fn search(
        &self,
        source: VertexId,
        visited: &mut Cover,
        queue: &mut Vec<(VertexId, u32)>,
        mut reached: impl FnMut(usize, LabelId, VertexId, u32) -> bool,
    ) -> bool {
        let q = self.nfa.state_count() as u32;
        visited.clear();
        queue.clear();
        visited.insert(source.raw() * q); // (source, initial)
        queue.push((source, 0));
        let mut head = 0;
        while head < queue.len() {
            let (v, state) = queue[head];
            for &(label, dst) in self.graph.out_edges(v) {
                let sym = self.sym_of_label[label.index()];
                if sym == NO_SYM {
                    continue;
                }
                for target in self.nfa.targets(state, sym) {
                    if visited.insert(dst.raw() * q + target) {
                        queue.push((dst, target));
                        if reached(head, label, dst, target) {
                            return true;
                        }
                    }
                }
            }
            head += 1;
        }
        false
    }
}

/// Convenience one-shot evaluation of `query` on `graph`.
pub fn evaluate(graph: &LabeledMultigraph, query: &Regex) -> PairSet {
    ProductEvaluator::new(graph, query).evaluate()
}

/// One-shot [`ProductEvaluator::witness`] of `query` on `graph`.
pub fn find_witness(
    graph: &LabeledMultigraph,
    query: &Regex,
    src: VertexId,
    dst: VertexId,
) -> Option<Vec<WitnessStep>> {
    ProductEvaluator::new(graph, query).witness(src, dst)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rpq_graph::fixtures::{diamond, paper_graph, triangle};

    fn eval(g: &LabeledMultigraph, q: &str) -> PairSet {
        evaluate(g, &Regex::parse(q).unwrap())
    }

    fn pairs(ps: &PairSet) -> Vec<(u32, u32)> {
        ps.iter().map(|(a, b)| (a.raw(), b.raw())).collect()
    }

    #[test]
    fn example1_paper_query() {
        // (d·(b·c)+·c)_G = {(v7,v5), (v7,v3)}.
        let g = paper_graph();
        let r = eval(&g, "d.(b.c)+.c");
        assert_eq!(pairs(&r), vec![(7, 3), (7, 5)]);
    }

    #[test]
    fn example3_bc_pairs() {
        let g = paper_graph();
        let r = eval(&g, "b.c");
        assert_eq!(pairs(&r), vec![(2, 4), (2, 6), (3, 5), (4, 2), (5, 3)]);
    }

    #[test]
    fn example4_bc_plus_equals_tc() {
        // (b·c)+_G from Example 4.
        let g = paper_graph();
        let r = eval(&g, "(b.c)+");
        assert_eq!(
            pairs(&r),
            vec![
                (2, 2),
                (2, 4),
                (2, 6),
                (3, 3),
                (3, 5),
                (4, 2),
                (4, 4),
                (4, 6),
                (5, 3),
                (5, 5)
            ]
        );
    }

    #[test]
    fn single_label_is_edge_relation() {
        let g = paper_graph();
        let d = g.labels().get("d").unwrap();
        let r = eval(&g, "d");
        let expect: Vec<(u32, u32)> = g
            .edges_with_label(d)
            .iter()
            .map(|&(s, t)| (s.raw(), t.raw()))
            .collect();
        assert_eq!(pairs(&r), expect);
    }

    #[test]
    fn star_adds_identity_over_all_vertices() {
        let g = paper_graph();
        let plus = eval(&g, "(b.c)+");
        let star = eval(&g, "(b.c)*");
        let id = PairSet::identity(g.vertex_count());
        assert_eq!(star, plus.union(&id));
        // Isolated-from-bc vertices like v0, v8, v9 still have (v,v).
        assert!(star.contains(VertexId(0), VertexId(0)));
        assert!(star.contains(VertexId(9), VertexId(9)));
    }

    #[test]
    fn triangle_a_plus_is_complete() {
        let g = triangle();
        let r = eval(&g, "a+");
        assert_eq!(r.len(), 9);
        for i in 0..3u32 {
            for j in 0..3u32 {
                assert!(r.contains(VertexId(i), VertexId(j)));
            }
        }
    }

    #[test]
    fn diamond_concat() {
        let g = diamond();
        let r = eval(&g, "a.b.c");
        assert_eq!(pairs(&r), vec![(0, 4)]);
    }

    #[test]
    fn alternation_unions_branches() {
        let g = diamond();
        let r = eval(&g, "a|b");
        assert_eq!(pairs(&r), vec![(0, 1), (0, 2), (1, 3), (2, 3)]);
    }

    #[test]
    fn unknown_label_yields_empty() {
        let g = triangle();
        assert!(eval(&g, "zz").is_empty());
        assert!(eval(&g, "a.zz").is_empty());
        // Nullable query over unknown labels still yields identity.
        let r = eval(&g, "zz*");
        assert_eq!(r, PairSet::identity(3));
    }

    #[test]
    fn epsilon_query_is_identity() {
        let g = diamond();
        assert_eq!(eval(&g, "()"), PairSet::identity(5));
    }

    #[test]
    fn optional_query() {
        let g = diamond();
        let r = eval(&g, "a?");
        let expect = eval(&g, "a").union(&PairSet::identity(5));
        assert_eq!(r, expect);
    }

    #[test]
    fn candidate_sources_prune_by_first_label() {
        let g = paper_graph();
        let ev = ProductEvaluator::new(&g, &Regex::parse("d.(b.c)+.c").unwrap());
        // Only v7 has a d-labeled out-edge.
        assert_eq!(ev.candidate_sources(), vec![VertexId(7)]);
    }

    #[test]
    fn ends_from_single_source() {
        let g = paper_graph();
        let ev = ProductEvaluator::new(&g, &Regex::parse("(b.c)+").unwrap());
        let ends: Vec<u32> = ev.ends_from(VertexId(2)).iter().map(|v| v.raw()).collect();
        assert_eq!(ends, vec![2, 4, 6]);
        let ev = ProductEvaluator::new(&g, &Regex::parse("(b.c)*").unwrap());
        let ends: Vec<u32> = ev.ends_from(VertexId(9)).iter().map(|v| v.raw()).collect();
        assert_eq!(ends, vec![9]);
    }

    #[test]
    fn cycle_traversal_terminates() {
        // A pure cycle with a query whose NFA loops: termination relies on
        // the (vertex, state) visited rule.
        let g = triangle();
        let r = eval(&g, "(a.a)+");
        // Paths of even length: from each vertex, a^2k reaches all vertices
        // (cycle of length 3, gcd(2,3)=1 ⇒ every vertex reachable).
        assert_eq!(r.len(), 9);
    }

    #[test]
    fn empty_language_query() {
        let g = triangle();
        let r = evaluate(&g, &Regex::Empty);
        assert!(r.is_empty());
    }

    #[test]
    fn multigraph_parallel_labels() {
        // v5 -b-> v6 and v5 -c-> v6 in the paper graph: both must be usable.
        let g = paper_graph();
        assert!(eval(&g, "b").contains(VertexId(5), VertexId(6)));
        assert!(eval(&g, "c").contains(VertexId(5), VertexId(6)));
    }
}
