//! Signal-path detection in a protein interaction network — the paper's
//! other motivating application (Section I).
//!
//! ```text
//! cargo run --release --example protein_signal_paths
//! ```
//!
//! Proteins interact through `activates`, `inhibits` and `binds` edges.
//! Signal-path questions become RPQs:
//!
//! * activation cascades:         `activates+`
//! * ultimately-inhibiting paths: `activates*.inhibits`
//! * complex-mediated signaling:  `binds.activates+.inhibits`
//!
//! All three share the `activates` Kleene closure; RTCSharing computes its
//! reduced transitive closure once. The example also demonstrates that the
//! result sets agree with the NoSharing baseline pair-for-pair.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rtc_rpq::core::{Engine, SharingKind, Strategy};
use rtc_rpq::graph::{GraphBuilder, VertexId};
use rtc_rpq::regex::Regex;

const PROTEINS: u32 = 1_200;

/// A synthetic pathway network: a backbone of activation cascades with
/// feedback loops, plus sparse inhibition and binding edges.
fn build_pathway_graph() -> rtc_rpq::graph::LabeledMultigraph {
    let mut rng = StdRng::seed_from_u64(7);
    let mut b = GraphBuilder::new();
    b.ensure_vertices(PROTEINS as usize);
    for p in 0..PROTEINS {
        // Downstream activations (signal flows "forward").
        for _ in 0..rng.gen_range(1..4) {
            let downstream = (p + rng.gen_range(1..20)).min(PROTEINS - 1);
            if downstream != p {
                b.add_edge(p, "activates", downstream);
            }
        }
        // Occasional feedback loop closes an activation cycle.
        if p > 30 && rng.gen_bool(0.15) {
            b.add_edge(p, "activates", p - rng.gen_range(1..30));
        }
        if rng.gen_bool(0.2) {
            b.add_edge(p, "inhibits", rng.gen_range(0..PROTEINS));
        }
        if rng.gen_bool(0.25) {
            let partner = rng.gen_range(0..PROTEINS);
            if partner != p {
                // Binding is symmetric: add both directions.
                b.add_edge(p, "binds", partner);
                b.add_edge(partner, "binds", p);
            }
        }
    }
    b.build()
}

fn main() {
    let graph = build_pathway_graph();
    println!(
        "pathway network: |V|={} |E|={} |Σ|={}",
        graph.vertex_count(),
        graph.edge_count(),
        graph.label_count()
    );

    let queries = [
        ("activation cascade", "activates+"),
        ("eventual inhibition", "activates*.inhibits"),
        ("complex-mediated", "binds.activates+.inhibits"),
    ];

    let rtc_engine = Engine::with_strategy(&graph, Strategy::RtcSharing);
    let baseline = Engine::with_strategy(&graph, Strategy::NoSharing);

    for (name, src) in &queries {
        let q = Regex::parse(src).unwrap();
        let fast = rtc_engine.evaluate(&q).unwrap();
        let reference = baseline.evaluate(&q).unwrap();
        assert_eq!(fast, reference, "strategies must agree on {src}");
        println!("  {name:<20} {src:<28} -> {} pairs", fast.len());
    }

    println!(
        "\nRTC sharing: {} closure bodies cached, {} cache hits, {} shared pairs",
        rtc_engine.cache().totals(SharingKind::Rtc).entries,
        rtc_engine.cache().hits(),
        rtc_engine.cache().totals(SharingKind::Rtc).shared_pairs
    );

    // Pick a receptor and report which proteins its signal can silence.
    let receptor = VertexId(3);
    let silenced = rtc_engine
        .evaluate(&Regex::parse("activates+.inhibits").unwrap())
        .unwrap();
    let targets: Vec<u32> = silenced
        .ends_of(receptor)
        .iter()
        .take(8)
        .map(|t| t.raw())
        .collect();
    println!(
        "receptor v3 can (transitively) silence {} proteins; first few: {targets:?}",
        silenced.ends_of(receptor).len()
    );

    // Elimination stats make the Algorithm-2 optimizations visible.
    let s = rtc_engine.elimination_stats();
    println!(
        "eliminations: useless-1 {} | redundant-1 {} | redundant-2 {} | unchecked inserts {}",
        s.useless1_skipped,
        s.redundant1_skipped,
        s.redundant2_skipped,
        s.useless2_unchecked_inserts
    );
}
