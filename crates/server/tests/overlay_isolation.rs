//! Property test: per-connection overlays never leak (ISSUE 5).
//!
//! Arbitrary interleavings of `strategy`/`threads`/`limit` changes across
//! 2–4 sessions attached to one shared engine must keep two invariants:
//!
//! * **Isolation** — every session's `info` reflects exactly *its own*
//!   overlay resolved against the engine base config, never another
//!   session's; the engine's base configuration itself never moves.
//! * **Result determinism** — a `query`'s pair set depends only on the
//!   graph epoch and the query text, never on any session's (or any
//!   *other* session's) overlay. The oracle is
//!   `rpq_eval::evaluate_algebraic` (pair-set algebra, no engine code)
//!   over a model graph that replays the same deltas.
//!
//! Sessions run with `binary on`, so every query response carries the
//! complete result set (no `limit` truncation) and can be compared to the
//! oracle exactly — which simultaneously exercises the `RESULT-BIN`
//! encoder under overlay churn.

use proptest::prelude::*;
use rpq_server::wire::decode_pairs;
use rpq_server::{Session, Status};

const SESSIONS: usize = 4;
const QUERIES: &[&str] = &["d.(b.c)+.c", "(b.c)+", "(a.b)*", "a.(b.c)+", "b.c|d"];
const STRATEGIES: &[(&str, &str)] = &[
    ("rtc", "RTCSharing"),
    ("full", "FullSharing"),
    ("none", "NoSharing"),
];
const LIMITS: &[usize] = &[0, 1, 7, 50];
const THREADS: &[usize] = &[1, 2];
/// Edge toggles applied via `delta` — real query labels, so results move
/// with the epoch and the oracle check is not vacuous.
const DELTAS: &[(u32, &str, u32)] = &[(6, "b", 8), (8, "c", 6), (1, "a", 9), (9, "d", 7)];

/// One step of the interleaving: which session acts, what it does, and an
/// argument index into the relevant pool.
#[derive(Debug, Clone, Copy)]
enum Op {
    SetStrategy(usize, usize),
    SetThreads(usize, usize),
    SetLimit(usize, usize),
    Query(usize, usize),
    Delta(usize, usize),
}

fn arb_op() -> impl Strategy<Value = Op> {
    (0..SESSIONS, 0..5usize, 0..8usize).prop_map(|(s, kind, arg)| match kind {
        0 => Op::SetStrategy(s, arg % STRATEGIES.len()),
        1 => Op::SetThreads(s, arg % THREADS.len()),
        2 => Op::SetLimit(s, arg % LIMITS.len()),
        3 => Op::Delta(s, arg % DELTAS.len()),
        _ => Op::Query(s, arg % QUERIES.len()),
    })
}

/// The model of one session's overlay (what `info` must show).
#[derive(Clone, Copy)]
struct OverlayModel {
    strategy: &'static str, // display name
    threads: usize,
    limit: usize,
}

fn ok(r: Option<rpq_server::Response>) -> rpq_server::Response {
    let r = r.expect("command responds");
    assert!(matches!(r.status, Status::Ok(_)), "{:?}", r.status);
    r
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn overlays_stay_per_session_and_results_depend_only_on_epoch(
        ops in prop::collection::vec(arb_op(), 1..50)
    ) {
        // Shared serving state over the paper graph…
        let mut root = Session::new();
        ok(root.execute("gen paper"));
        let mut sessions: Vec<Session> = (0..SESSIONS)
            .map(|_| Session::attach(root.shared()))
            .collect();
        for s in &mut sessions {
            ok(s.execute("binary on"));
        }
        // …and the oracle's model of the same graph.
        let mut model = rpq_graph::VersionedGraph::new(rpq_graph::fixtures::paper_graph());
        // Track which of the toggle edges are currently present (all the
        // DELTAS edges start absent: none of them is in the paper graph).
        let mut present = [false; DELTAS.len()];
        let mut overlays = [OverlayModel { strategy: "RTCSharing", threads: 1, limit: 10 }; SESSIONS];

        for op in ops {
            match op {
                Op::SetStrategy(s, a) => {
                    let (flag, display) = STRATEGIES[a];
                    ok(sessions[s].execute(&format!("strategy {flag}")));
                    overlays[s].strategy = display;
                }
                Op::SetThreads(s, a) => {
                    ok(sessions[s].execute(&format!("threads {}", THREADS[a])));
                    overlays[s].threads = THREADS[a];
                }
                Op::SetLimit(s, a) => {
                    ok(sessions[s].execute(&format!("limit {}", LIMITS[a])));
                    overlays[s].limit = LIMITS[a];
                }
                Op::Delta(s, a) => {
                    let (src, label, dst) = DELTAS[a];
                    let verb = if present[a] { "del" } else { "ins" };
                    ok(sessions[s].execute(&format!("delta {verb} {src} {label} {dst}")));
                    let mut delta = rpq_graph::GraphDelta::new();
                    if present[a] {
                        delta.delete(src, label, dst);
                    } else {
                        delta.insert(src, label, dst);
                    }
                    model.apply(&delta);
                    present[a] = !present[a];
                }
                Op::Query(s, a) => {
                    let r = ok(sessions[s].execute(&format!("query {}", QUERIES[a])));
                    let (pairs, bytes) = {
                        let b = r.binary.as_ref().expect("binary mode response");
                        (b.pairs, &b.bytes)
                    };
                    let got = decode_pairs(bytes, pairs).unwrap();
                    let query = rpq_regex::Regex::parse(QUERIES[a]).unwrap();
                    let oracle = rpq_eval::evaluate_algebraic(model.graph(), &query);
                    let want: Vec<(u32, u32)> =
                        oracle.iter().map(|(x, y)| (x.raw(), y.raw())).collect();
                    prop_assert_eq!(
                        got, want,
                        "session {} (overlay {}/{} threads): result diverged from the \
                         epoch-{} oracle on '{}'",
                        s, overlays[s].strategy, overlays[s].threads, model.epoch(), QUERIES[a]
                    );
                }
            }

            // After *every* op, every session's info must reflect its own
            // overlay — and nobody else's.
            for (i, session) in sessions.iter_mut().enumerate() {
                let info = match ok(session.execute("info")).status {
                    Status::Ok(m) => m,
                    Status::Err(e) => panic!("info failed: {e}"),
                };
                let want = format!(
                    "strategy {}, threads {}, limit {}, binary on",
                    overlays[i].strategy, overlays[i].threads, overlays[i].limit
                );
                prop_assert!(
                    info.contains(&want),
                    "session {}'s info '{}' does not show its own overlay '{}'",
                    i, info, want
                );
            }
            // The engine's base configuration never moves, no matter how
            // many overlay changes any session makes.
            let base = *root.engine().config();
            prop_assert!(matches!(base.strategy, rpq_core::Strategy::RtcSharing));
            prop_assert_eq!(base.threads, 1);
        }
    }
}
