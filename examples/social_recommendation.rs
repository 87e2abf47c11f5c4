//! Friend recommendation over a social network — one of the motivating
//! applications in the paper's introduction.
//!
//! ```text
//! cargo run --release --example social_recommendation
//! ```
//!
//! The graph models users with `follows` edges, group membership
//! (`member_of`) and content interaction (`likes`). Recommendations are
//! phrased as RPQs:
//!
//! * reachable influencers:   `follows+`
//! * friends-of-friends:      `follows.follows`
//! * shared-interest reach:   `follows*.likes`
//! * community endorsement:   `member_of.(invites)+.member_of_rev`-style
//!   chains (modeled here with forward labels only).
//!
//! Several of these share the Kleene closure `follows+`/`follows*`, so the
//! engine computes one RTC for `follows` and reuses it across all queries.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rtc_rpq::core::{Engine, SharingKind, Strategy};
use rtc_rpq::graph::{GraphBuilder, VertexId};
use rtc_rpq::regex::Regex;
use std::time::Instant;

const USERS: u32 = 2_000;
const ITEMS: u32 = 300;
const GROUPS: u32 = 50;

fn build_social_graph() -> rtc_rpq::graph::LabeledMultigraph {
    let mut rng = StdRng::seed_from_u64(2024);
    let mut b = GraphBuilder::new();
    let items_base = USERS;
    let groups_base = USERS + ITEMS;
    b.ensure_vertices((USERS + ITEMS + GROUPS) as usize);

    // Preferential-attachment-flavored follow edges: earlier users are
    // more popular, creating realistic hubs and follow cycles.
    for u in 0..USERS {
        let degree = rng.gen_range(1..8);
        for _ in 0..degree {
            let popular = rng.gen_range(0..u.max(1)).min(rng.gen_range(0..USERS));
            if popular != u {
                b.add_edge(u, "follows", popular);
            }
        }
        // Mutual follow-backs close cycles (SCCs for the RTC to collapse).
        if u > 0 && rng.gen_bool(0.35) {
            let friend = rng.gen_range(0..u);
            b.add_edge(u, "follows", friend);
            b.add_edge(friend, "follows", u);
        }
    }
    for u in 0..USERS {
        for _ in 0..rng.gen_range(0..4) {
            b.add_edge(u, "likes", items_base + rng.gen_range(0..ITEMS));
        }
        if rng.gen_bool(0.4) {
            b.add_edge(u, "member_of", groups_base + rng.gen_range(0..GROUPS));
        }
    }
    b.build()
}

fn main() {
    let graph = build_social_graph();
    println!(
        "social graph: |V|={} |E|={} |Σ|={}",
        graph.vertex_count(),
        graph.edge_count(),
        graph.label_count()
    );

    // A recommendation workload: four RPQs sharing the `follows` closure.
    let queries = [
        ("influencer reach", "follows+"),
        ("friend-of-friend", "follows.follows"),
        ("interest propagation", "follows*.likes"),
        ("community reach", "follows+.member_of"),
    ];

    for strategy in [Strategy::NoSharing, Strategy::RtcSharing] {
        let engine = Engine::with_strategy(&graph, strategy);
        let t = Instant::now();
        let mut sizes = Vec::new();
        for (_, q) in &queries {
            let r = engine.evaluate(&Regex::parse(q).unwrap()).unwrap();
            sizes.push(r.len());
        }
        println!(
            "\n[{strategy}] total {:?} (results: {:?})",
            t.elapsed(),
            sizes
        );
        if strategy == Strategy::RtcSharing {
            println!(
                "  RTCs cached: {} ({} closure pairs; cache hits {})",
                engine.cache().totals(SharingKind::Rtc).entries,
                engine.cache().totals(SharingKind::Rtc).shared_pairs,
                engine.cache().hits()
            );
        }
    }

    // Use the last query to print actual recommendations for one user:
    // groups reachable through the user's (transitive) follow network.
    let engine = Engine::new(&graph);
    let reach = engine
        .evaluate(&Regex::parse("follows+.member_of").unwrap())
        .unwrap();
    let user = VertexId(42);
    let own_groups: Vec<u32> = graph
        .out_with_label(user, graph.labels().get("member_of").unwrap())
        .iter()
        .map(|&(_, g)| g.raw())
        .collect();
    let recs: Vec<u32> = reach
        .ends_of(user)
        .iter()
        .map(|g| g.raw())
        .filter(|g| !own_groups.contains(g))
        .take(5)
        .collect();
    println!(
        "\nuser v42: member of {own_groups:?}; recommended groups via follow network: {recs:?}"
    );
}
