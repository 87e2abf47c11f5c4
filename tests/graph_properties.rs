//! Properties of the graph substrate: SCCs, condensations, CSR rows, the
//! multigraph builder, and the binary graph section of engine snapshots —
//! random graph + random delta history → bytes → graph preserves every
//! observable (edges, labels, vertex count, epoch), and random corruption
//! never round-trips silently.

use rand::rngs::StdRng;
use rand::Rng;
use rpq_testkit::{build, check, random_edges, relation, scenario, Edge, Shape, Step};
use rtc_rpq::graph::bfs::reachable_ge1;
use rtc_rpq::graph::{snapshot, GraphDelta, LabelId, LabeledMultigraph, VersionedGraph};
use rtc_rpq::graph::{tarjan_scc, Condensation, Cover, Csr, Digraph, SccId};

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

/// Tarjan produces a partition of the vertex set.
#[test]
fn tarjan_partitions_vertices() {
    check(0x61, 64, relation(24, 80), |edges| {
        let scc = tarjan_scc(&Digraph::from_edges(24, edges.clone()));
        let mut seen = [false; 24];
        for (_, members) in scc.iter() {
            for &m in members {
                assert!(!seen[m as usize], "vertex {m} in two SCCs");
                seen[m as usize] = true;
            }
        }
        assert!(seen.iter().all(|&b| b));
    });
}

/// SCC ids are reverse-topological: cross edges always descend.
#[test]
fn tarjan_reverse_topological() {
    check(0x62, 64, relation(20, 70), |edges| {
        let g = Digraph::from_edges(20, edges.clone());
        let scc = tarjan_scc(&g);
        for (s, d) in g.edges() {
            let (cs, cd) = (scc.component_of(s), scc.component_of(d));
            assert!(cs == cd || cd < cs, "edge {s}->{d}: {cd} !< {cs}");
        }
    });
}

/// Two vertices share an SCC iff they reach each other (via ≥1 edges or
/// by being the same vertex).
#[test]
fn scc_membership_matches_mutual_reachability() {
    check(0x63, 64, relation(12, 50), |edges| {
        let g = Digraph::from_edges(12, edges.clone());
        let scc = tarjan_scc(&g);
        let (mut visited, mut queue) = (Cover::new(12), Vec::new());
        let reach: Vec<Vec<u32>> = (0..12)
            .map(|v| reachable_ge1(&g, v, &mut visited, &mut queue))
            .collect();
        let reaches = |a: u32, b: u32| reach[a as usize].binary_search(&b).is_ok();
        for a in 0..12u32 {
            for b in 0..12u32 {
                let same = scc.component_of(a) == scc.component_of(b);
                let mutual = a == b || (reaches(a, b) && reaches(b, a));
                assert_eq!(same, mutual, "a={a}, b={b}");
            }
        }
    });
}

/// Csr::from_items agrees with building rows directly.
#[test]
fn csr_from_items_equivalence() {
    check(0x64, 64, relation(100, 60), |items| {
        let items: Vec<(usize, u32)> = items.iter().map(|&(r, v)| (r as usize % 8, v)).collect();
        let csr = Csr::from_items(8, items.clone());
        let mut rows: Vec<Vec<u32>> = vec![Vec::new(); 8];
        for (r, v) in items {
            rows[r].push(v);
        }
        for (r, expected) in rows.iter().enumerate() {
            assert_eq!(csr.row(r), &expected[..], "row {r}");
        }
        assert_eq!(csr.len(), rows.iter().map(Vec::len).sum::<usize>());
    });
}

/// The per-SCC condensation build equals the whole-relation one:
/// self-loops exactly mark SCCs with internal edges, and the rows are
/// the sorted, deduplicated cross edges.
#[test]
fn condensation_matches_sort_and_dedup() {
    check(0x65, 64, relation(24, 90), |edges| {
        assert_condensation_matches_reference(&Digraph::from_edges(24, edges.clone()));
    });
}

/// The graph's edges by label name: label *ids* depend on first-seen
/// interning order.
fn by_name(g: &LabeledMultigraph) -> Vec<(u32, String, u32)> {
    let name = |l| g.labels().name(l).to_owned();
    let mut edges: Vec<_> = g
        .all_edges()
        .map(|(s, l, d)| (s.raw(), name(l), d.raw()))
        .collect();
    edges.sort();
    edges
}

/// The multigraph builder is insensitive to edge insertion order.
#[test]
fn builder_order_insensitive() {
    let draw = |r: &mut StdRng| random_edges(r, 10..11, 0..40).1;
    check(0x66, 64, draw, |edges| {
        let g1 = build(10, edges);
        let g2 = build(10, edges.iter().rev());
        assert_eq!(g1.edge_count(), g2.edge_count());
        assert_eq!(by_name(&g1), by_name(&g2));
    });
}

// ---------- the graph section of engine snapshots ----------

/// Kit labels renamed onto a wider alphabet, multi-byte UTF-8 included.
fn relabel(e: &Edge) -> Edge {
    let label = match e.1 {
        "c" => "knows",
        "d" => "öäü-label",
        l => l,
    };
    (e.0, label, e.2)
}

fn section(vg: &VersionedGraph) -> Vec<u8> {
    let mut bytes = Vec::new();
    snapshot::write_graph_snapshot(vg.graph(), vg.epoch(), &mut bytes).unwrap();
    bytes
}

fn assert_same_graph(a: &LabeledMultigraph, b: &LabeledMultigraph) {
    assert_eq!(a.vertex_count(), b.vertex_count());
    assert_eq!(a.edge_count(), b.edge_count());
    assert_eq!(a.label_count(), b.label_count());
    for (l, name) in a.labels().iter() {
        assert_eq!(b.labels().name(l), name);
        assert_eq!(a.edges_with_label(l), b.edges_with_label(l));
    }
}

/// Snapshot round-trip preserves edges, labels, vertex count, epoch —
/// after a scenario's delta history (which exercises emptied label rows,
/// isolated and grown vertices and nonzero epochs).
#[test]
fn roundtrip_preserves_everything() {
    let draw = |r: &mut StdRng| scenario(r.gen(), Shape::Uniform);
    check(0x67, 48, draw, |s| {
        let mut vg =
            VersionedGraph::new(build(s.n, &s.edges.iter().map(relabel).collect::<Vec<_>>()));
        let mut expected_epoch = 0u64;
        for step in &s.steps {
            let Step::Delta(del, ins) = step else {
                continue;
            };
            let mut delta = GraphDelta::new();
            for (src, label, dst) in del.iter().map(relabel) {
                delta.delete(src, label, dst);
            }
            for (src, label, dst) in ins.iter().map(relabel) {
                delta.insert(src, label, dst);
            }
            vg.apply(&delta);
            expected_epoch += 1;
        }
        assert_eq!(vg.epoch(), expected_epoch);

        let bytes = section(&vg);
        let back = snapshot::read_snapshot(&bytes[..]).unwrap();
        assert_eq!(back.epoch(), vg.epoch());
        assert_same_graph(back.graph(), vg.graph());
        // And the round-trip is a fixpoint: re-serializing the restored
        // graph yields identical bytes.
        assert_eq!(bytes, section(&back));
    });
}

/// Every strict prefix of a valid snapshot is rejected as truncated —
/// no prefix parses as a (smaller) graph.
#[test]
fn truncation_never_roundtrips() {
    let draw = |r: &mut StdRng| (random_edges(r, 12..13, 0..25).1, r.gen::<f64>());
    check(0x68, 48, draw, |(edges, cut_frac)| {
        let bytes = section(&VersionedGraph::new(build(0, edges)));
        let cut = (bytes.len() as f64 * cut_frac) as usize; // < len: strict prefix
        assert!(snapshot::read_snapshot(&bytes[..cut]).is_err());
    });
}

/// Flipping any single byte is either detected as an error or yields
/// a *structurally valid* graph — reading never panics, and the happy
/// path is only reachable for flips that keep the format coherent.
#[test]
fn corruption_is_handled_not_panicked() {
    let draw = |r: &mut StdRng| {
        let edges = random_edges(r, 12..13, 0..25).1;
        (edges, r.gen::<f64>(), r.gen_range(1..256u32) as u8)
    };
    check(0x69, 48, draw, |(edges, at_frac, flip)| {
        let mut bytes = section(&VersionedGraph::new(build(0, edges)));
        let at = ((bytes.len() - 1) as f64 * at_frac) as usize;
        bytes[at] ^= flip;
        // A surviving flip (e.g. inside an unused high byte that still
        // decodes consistently) must still be a coherent graph: counts
        // agree with the rows.
        if let Ok(g) = snapshot::read_snapshot(&bytes[..]) {
            let g = g.graph();
            let rows = (0..g.label_count()).map(|l| g.edges_with_label(LabelId::from_usize(l)));
            assert_eq!(rows.map(<[_]>::len).sum::<usize>(), g.edge_count());
        }
    });
}
