//! Property-based tests of the binary graph section of engine snapshots:
//! random graph + random mutation history → bytes → graph preserves every
//! observable (edges, labels, vertex count, epoch), and random corruption
//! never round-trips silently.

use proptest::prelude::*;
use rpq_graph::{snapshot, GraphBuilder, GraphDelta, LabeledMultigraph, VersionedGraph};

const LABELS: [&str; 5] = ["a", "b", "c", "knows", "öäü-label"];

fn arb_triples(n: u32, max_edges: usize) -> impl Strategy<Value = Vec<(u32, usize, u32)>> {
    prop::collection::vec((0..n, 0..LABELS.len(), 0..n), 0..max_edges)
}

/// (is_insert, src, label index, dst) mutation script entries. The
/// vendored proptest shim has no `any::<bool>()`, so insert/delete is
/// drawn as `0..2`.
fn arb_mutations(n: u32, max_ops: usize) -> impl Strategy<Value = Vec<(u8, u32, usize, u32)>> {
    prop::collection::vec((0u8..2, 0..n, 0..LABELS.len(), 0..n), 0..max_ops)
}

fn build(base: &[(u32, usize, u32)], min_vertices: usize) -> LabeledMultigraph {
    let mut b = GraphBuilder::new();
    b.ensure_vertices(min_vertices);
    for &(s, l, d) in base {
        b.add_edge(s, LABELS[l], d);
    }
    b.build()
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Snapshot round-trip preserves edges, labels, vertex count, epoch —
    /// after an arbitrary mutation history (which exercises emptied label
    /// rows, isolated vertices and nonzero epochs).
    #[test]
    fn roundtrip_preserves_everything(
        base in arb_triples(24, 60),
        mutations in arb_mutations(24, 40),
        min_vertices in 0usize..30,
        batch in 1usize..5,
    ) {
        let mut vg = VersionedGraph::new(build(&base, min_vertices));
        let mut expected_epoch = 0u64;
        for chunk in mutations.chunks(batch) {
            let mut delta = GraphDelta::new();
            for &(ins, s, l, d) in chunk {
                if ins == 1 {
                    delta.insert(s, LABELS[l], d);
                } else {
                    delta.delete(s, LABELS[l], d);
                }
            }
            vg.apply(&delta);
            expected_epoch += 1;
        }
        prop_assert_eq!(vg.epoch(), expected_epoch);

        let bytes = section(&vg);
        let back = snapshot::read_snapshot(&bytes[..]).unwrap();
        prop_assert_eq!(back.epoch(), vg.epoch());
        assert_same_graph(back.graph(), vg.graph());

        // And the round-trip is a fixpoint: re-serializing the restored
        // graph yields identical bytes.
        prop_assert_eq!(bytes, section(&back));
    }

    /// Every strict prefix of a valid snapshot is rejected as truncated —
    /// no prefix parses as a (smaller) graph.
    #[test]
    fn truncation_never_roundtrips(
        base in arb_triples(12, 25),
        cut_frac in 0.0f64..1.0,
    ) {
        let vg = VersionedGraph::new(build(&base, 0));
        let bytes = section(&vg);
        let cut = ((bytes.len() as f64) * cut_frac) as usize; // < len: strict prefix
        prop_assert!(snapshot::read_snapshot(&bytes[..cut]).is_err());
    }

    /// Flipping any single byte is either detected as an error or yields
    /// a *structurally valid* graph — reading never panics, and the happy
    /// path is only reachable for flips that keep the format coherent.
    #[test]
    fn corruption_is_handled_not_panicked(
        base in arb_triples(12, 25),
        at_frac in 0.0f64..1.0,
        flip in 1u16..256,
    ) {
        let flip = flip as u8;
        let vg = VersionedGraph::new(build(&base, 0));
        let mut bytes = section(&vg);
        let at = ((bytes.len() - 1) as f64 * at_frac) as usize;
        bytes[at] ^= flip;
        match snapshot::read_snapshot(&bytes[..]) {
            Err(_) => {} // detected
            Ok(g) => {
                // A surviving flip (e.g. inside an unused high byte that
                // still decodes consistently) must still be a coherent
                // graph: counts agree with the rows.
                let total: usize = (0..g.graph().label_count())
                    .map(|l| g.graph().edges_with_label(rpq_graph::LabelId::from_usize(l)).len())
                    .sum();
                prop_assert_eq!(total, g.graph().edge_count());
            }
        }
    }
}
