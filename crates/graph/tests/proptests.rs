//! Property-based tests on the graph substrate.

use proptest::prelude::*;
use rpq_graph::bfs::reachable_ge1;
use rpq_graph::{tarjan_scc, Condensation, Csr, Digraph, EpochVisited, GraphBuilder, SccId};

fn arb_edges(n: u32, max_edges: usize) -> impl Strategy<Value = Vec<(u32, u32)>> {
    prop::collection::vec((0..n, 0..n), 0..max_edges)
}

/// Checks `Condensation::new` against the whole-relation build: map every
/// edge to its SCC pair, flag the internal ones as self-loops, and sort and
/// deduplicate the rest.
fn assert_condensation_matches_reference(g: &Digraph) {
    let scc = tarjan_scc(g);
    let cond = Condensation::new(g, &scc);
    let k = scc.count();
    let mut loops = vec![false; k];
    let mut cross = Vec::new();
    for (s, d) in g.edges() {
        let (cs, cd) = (scc.component_of(s), scc.component_of(d));
        if cs == cd {
            loops[cs.index()] = true;
        } else {
            cross.push((cs.raw(), cd.raw()));
        }
    }
    cross.sort_unstable();
    cross.dedup();
    assert_eq!(cond.vertex_count(), k);
    for (s, &has_loop) in loops.iter().enumerate() {
        let s = SccId::from_usize(s);
        let row: Vec<u32> = cross
            .iter()
            .filter(|&&(a, _)| a == s.raw())
            .map(|&(_, b)| b)
            .collect();
        assert_eq!(cond.out(s), &row[..], "row of scc {s:?}");
        assert_eq!(cond.has_self_loop(s), has_loop, "loop of scc {s:?}");
    }
    let loop_count = loops.iter().filter(|&&b| b).count();
    assert_eq!(cond.edge_count(), cross.len() + loop_count);
}

/// The condensation fixtures of the unit tests, against the reference.
#[test]
fn condensation_fixtures_match_sort_and_dedup() {
    let fixtures: [(usize, &[(u32, u32)]); 6] = [
        // Example 5/6's G_{b·c} over compact ids.
        (5, &[(0, 2), (0, 4), (1, 3), (2, 0), (3, 1)]),
        // Parallel cross edges between two SCCs.
        (4, &[(0, 1), (1, 0), (2, 3), (3, 2), (0, 2), (1, 3), (0, 3)]),
        // A singleton self-loop.
        (2, &[(0, 0), (0, 1)]),
        // A DAG.
        (4, &[(0, 1), (1, 2), (2, 3), (0, 3)]),
        // A chain of SCCs.
        (6, &[(0, 1), (1, 0), (1, 2), (2, 3), (3, 2), (3, 4), (4, 5)]),
        // Empty.
        (0, &[]),
    ];
    for (n, edges) in fixtures {
        assert_condensation_matches_reference(&Digraph::from_edges(n, edges.to_vec()));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Tarjan produces a partition of the vertex set.
    #[test]
    fn tarjan_partitions_vertices(edges in arb_edges(24, 80)) {
        let g = Digraph::from_edges(24, edges);
        let scc = tarjan_scc(&g);
        let mut seen = [false; 24];
        for (_, members) in scc.iter() {
            for &m in members {
                prop_assert!(!seen[m as usize], "vertex {m} in two SCCs");
                seen[m as usize] = true;
            }
        }
        prop_assert!(seen.iter().all(|&b| b));
    }

    /// SCC ids are reverse-topological: cross edges always descend.
    #[test]
    fn tarjan_reverse_topological(edges in arb_edges(20, 70)) {
        let g = Digraph::from_edges(20, edges);
        let scc = tarjan_scc(&g);
        for (s, d) in g.edges() {
            let (cs, cd) = (scc.component_of(s), scc.component_of(d));
            if cs != cd {
                prop_assert!(cd < cs, "edge {s}->{d}: {cd} !< {cs}");
            }
        }
    }

    /// Two vertices share an SCC iff they reach each other (via ≥1 edges or
    /// by being the same vertex).
    #[test]
    fn scc_membership_matches_mutual_reachability(edges in arb_edges(12, 50)) {
        let g = Digraph::from_edges(12, edges);
        let scc = tarjan_scc(&g);
        let (mut visited, mut queue) = (EpochVisited::new(12), Vec::new());
        let reach: Vec<Vec<u32>> = (0..12)
            .map(|v| reachable_ge1(&g, v, &mut visited, &mut queue))
            .collect();
        for a in 0..12u32 {
            for b in 0..12u32 {
                let same = scc.component_of(a) == scc.component_of(b);
                let mutual = a == b
                    || (reach[a as usize].binary_search(&b).is_ok()
                        && reach[b as usize].binary_search(&a).is_ok());
                prop_assert_eq!(same, mutual, "a={}, b={}", a, b);
            }
        }
    }

    /// Csr::from_items agrees with building rows directly.
    #[test]
    fn csr_from_items_equivalence(items in prop::collection::vec((0usize..8, 0u32..100), 0..60)) {
        let csr = Csr::from_items(8, items.clone());
        let mut rows: Vec<Vec<u32>> = vec![Vec::new(); 8];
        for (r, v) in items {
            rows[r].push(v);
        }
        for (r, expected) in rows.iter().enumerate() {
            prop_assert_eq!(csr.row(r), &expected[..], "row {}", r);
        }
        prop_assert_eq!(csr.len(), rows.iter().map(Vec::len).sum::<usize>());
    }

    /// The per-SCC condensation build equals the whole-relation one:
    /// self-loops exactly mark SCCs with internal edges, and the rows are
    /// the sorted, deduplicated cross edges.
    #[test]
    fn condensation_matches_sort_and_dedup(edges in arb_edges(24, 90)) {
        let g = Digraph::from_edges(24, edges);
        assert_condensation_matches_reference(&g);
    }

    /// The multigraph builder is insensitive to edge insertion order.
    #[test]
    fn builder_order_insensitive(mut triples in prop::collection::vec((0u32..10, 0usize..3, 0u32..10), 0..40)) {
        let labels = ["a", "b", "c"];
        let build = |ts: &[(u32, usize, u32)]| {
            let mut b = GraphBuilder::new();
            b.ensure_vertices(10);
            for &(s, l, d) in ts {
                b.add_edge(s, labels[l], d);
            }
            b.build()
        };
        let g1 = build(&triples);
        triples.reverse();
        let g2 = build(&triples);
        prop_assert_eq!(g1.edge_count(), g2.edge_count());
        // Label *ids* depend on first-seen interning order; compare edges
        // by label name instead.
        let by_name = |g: &rpq_graph::LabeledMultigraph| {
            let mut edges: Vec<(u32, String, u32)> = g
                .all_edges()
                .map(|(s, l, d)| (s.raw(), g.labels().name(l).to_owned(), d.raw()))
                .collect();
            edges.sort();
            edges
        };
        prop_assert_eq!(by_name(&g1), by_name(&g2));
    }
}
