//! Eviction correctness under cache budgets.
//!
//! Budgeted engines are driven with deliberately tiny budgets so eviction
//! churns on nearly every operation, and three invariants are checked:
//!
//! 1. **Answers never change.** Every query result is identical to a
//!    fresh *unbounded* engine brought to the same epoch by the same
//!    deltas — eviction may cost rebuild time, never correctness.
//! 2. **The budget holds, over both tiers.** After any public call made
//!    while no pin is held, structures plus memoized results stay within
//!    `max_bytes`/`max_entries` (pinned epochs may park the structural
//!    instance over budget and are tested separately); and always, pins or
//!    not, the result instance alone stays within the budget minus what
//!    the structures hold — results make room, structures never do.
//! 3. **Pins win.** Structures referenced by a live [`EpochView`] survive
//!    eviction pressure at newer epochs, and time-travel evaluation at
//!    the pinned epoch still answers from them (`Fresh`, not a rebuild).
//! 4. **Dead epochs hold nothing.** After every delta the result instance
//!    holds at most the results a still-held view asked for; a result such
//!    a view can reach is never dropped for unreachability.

mod common;

use common::{random_graph, rng, ALPHABET};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::Rng;
use rtc_rpq::core::{CacheBudget, Engine, EngineConfig, EpochView, Lookup, SharingKind, Strategy};
use rtc_rpq::graph::{GraphDelta, LabeledMultigraph, VersionedGraph};
use rtc_rpq::regex::Regex;
use std::collections::HashSet;

fn bounded_config(max_bytes: Option<usize>, max_entries: Option<usize>) -> EngineConfig {
    EngineConfig {
        cache_budget: CacheBudget {
            max_bytes,
            max_entries,
        },
        ..EngineConfig::default()
    }
}

fn dynamic_engine(graph: LabeledMultigraph, config: EngineConfig) -> Engine<'static> {
    Engine::with_config_versioned(VersionedGraph::new(graph), config)
}

/// A few random edge insertions/deletions over `n` vertices.
fn random_delta(r: &mut StdRng, n: u32) -> GraphDelta {
    let mut d = GraphDelta::new();
    for _ in 0..r.gen_range(1..4) {
        let src = r.gen_range(0..n);
        let dst = r.gen_range(0..n);
        let label = ALPHABET[r.gen_range(0..ALPHABET.len())];
        if r.gen_range(0..10) < 7 {
            d.insert(src, label, dst);
        } else {
            d.delete(src, label, dst);
        }
    }
    d
}

/// Closure-heavy random queries, so the structural cache sees traffic.
fn random_closure_query(r: &mut StdRng, depth: u32) -> Regex {
    common::random_regex(r, depth)
}

const N: u32 = 10;

/// A view held across deltas, with the one query it answered.
struct Held {
    view: EpochView,
    /// How many deltas preceded the pin (the oracle's replay prefix).
    deltas: usize,
    query: Regex,
    /// The result instance's budget-eviction count just before the call
    /// that last memoized `query`: unchanged since means the entry cannot
    /// have been evicted — not even by its own insert.
    memoized_at: u64,
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Invariants 1 + 2 + 4: a budgeted engine answers exactly like a fresh
    /// unbounded engine at the same epoch — live, and through views held
    /// across deltas — its occupancy respects the budget after every
    /// operation, whichever structure kind the budget is evicting, and the
    /// result instance holds what a held view can still ask for and
    /// nothing else.
    #[test]
    fn bounded_engines_answer_like_unbounded_ones(
        seed in 0u64..1_000_000,
        strategy in prop::sample::select(vec![Strategy::RtcSharing, Strategy::FullSharing]),
        // One entry: any second closure body evicts the first, so the
        // drawn histories really do evict and rebuild both kinds — and a
        // structure leaves results no room. Four: both tiers share the
        // account and both churn.
        max_entries in prop::sample::select(vec![1usize, 4]),
        ops in prop::collection::vec((0u32..7, 0u64..u64::MAX), 1..16),
    ) {
        let mut r = rng(seed);
        let base = random_graph(&mut r, N, 30);
        let max_bytes = 4096usize;
        let mut bounded = dynamic_engine(
            base.clone(),
            EngineConfig {
                strategy,
                ..bounded_config(Some(max_bytes), Some(max_entries))
            },
        );
        // The oracle replays a prefix of the history on an unbounded
        // engine: same epoch, same graph, no evictions ever.
        let oracle_at = |deltas: &[GraphDelta], q: &Regex| {
            let mut oracle = dynamic_engine(base.clone(), EngineConfig::default());
            for d in deltas {
                oracle.apply_delta(d);
            }
            oracle.evaluate(q).unwrap()
        };
        // Entries the result instance lost to its byte/entry budget — the
        // only way, besides unreachability, a memoized result leaves it.
        let budget_evictions = |e: &Engine| {
            let ev = e.results().eviction_counters();
            ev.by_bytes + ev.by_entries
        };
        let mut deltas: Vec<GraphDelta> = Vec::new();
        let mut held: Vec<Held> = Vec::new();
        // Every (epoch, canonical query) memoized so far.
        let mut asked: HashSet<(u64, String)> = HashSet::new();
        for (flag, op_seed) in ops {
            let mut or = rng(op_seed);
            match flag {
                0 | 1 => {
                    let q = random_closure_query(&mut or, 2);
                    let got = bounded.evaluate(&q).unwrap();
                    prop_assert_eq!(&got, &oracle_at(&deltas, &q));
                    // The same answer through a pinned view, which memoizes
                    // it in the result instance.
                    let view = bounded.pin();
                    let memoized = view.evaluate(&q).unwrap();
                    prop_assert_eq!(memoized.as_ref(), &got);
                    asked.insert((view.epoch(), q.canonical_key()));
                }
                2 | 3 => {
                    let d = random_delta(&mut or, N);
                    bounded.apply_delta(&d);
                    deltas.push(d);
                    // Reachability: only results of held epochs survive a
                    // delta (the new live epoch has none yet).
                    let reachable = asked
                        .iter()
                        .filter(|(e, _)| held.iter().any(|h| h.view.epoch() == *e))
                        .count();
                    prop_assert!(
                        bounded.results().occupancy_entries() <= reachable,
                        "{} results held, {} reachable",
                        bounded.results().occupancy_entries(),
                        reachable
                    );
                }
                4 => {
                    // Pin a view, keep it, and answer one query through it.
                    let view = bounded.pin();
                    let q = random_closure_query(&mut or, 2);
                    let memoized_at = budget_evictions(&bounded);
                    let got = view.evaluate(&q).unwrap();
                    prop_assert_eq!(got.as_ref(), &oracle_at(&deltas, &q));
                    asked.insert((view.epoch(), q.canonical_key()));
                    held.push(Held {
                        view,
                        deltas: deltas.len(),
                        query: q,
                        memoized_at,
                    });
                }
                5 if !held.is_empty() => {
                    // Re-ask through a still-held view: reachability never
                    // drops a reachable result, so unless the budget took
                    // it — since, or by its own insert — this is a view
                    // hit, and exact either way.
                    let i = or.gen_range(0..held.len());
                    let h = &mut held[i];
                    let r = bounded.results();
                    let before = (r.hits(), r.misses());
                    let memoized_at = budget_evictions(&bounded);
                    let got = h.view.evaluate(&h.query).unwrap();
                    if memoized_at == h.memoized_at {
                        prop_assert_eq!((r.hits(), r.misses()), (before.0 + 1, before.1));
                    }
                    h.memoized_at = memoized_at;
                    prop_assert_eq!(got.as_ref(), &oracle_at(&deltas[..h.deltas], &h.query));
                }
                6 if !held.is_empty() => {
                    let i = or.gen_range(0..held.len());
                    held.swap_remove(i);
                }
                _ => {}
            }
            // Results only ever get what the structures leave…
            let (c, r) = (bounded.cache(), bounded.results());
            prop_assert!(
                r.occupancy_bytes() <= max_bytes.saturating_sub(c.occupancy_bytes()),
                "{} B of results beside {} B of structures, budget {} B",
                r.occupancy_bytes(),
                c.occupancy_bytes(),
                max_bytes
            );
            prop_assert!(
                r.occupancy_entries() <= max_entries.saturating_sub(c.occupancy_entries()),
                "{} results beside {} structures, budget {} entries",
                r.occupancy_entries(),
                c.occupancy_entries(),
                max_entries
            );
            // …and a pin may park the structures over budget; the sum must
            // hold again once every view is gone and it is re-settled.
            if held.is_empty() {
                c.enforce_budget();
                let bytes = c.occupancy_bytes() + r.occupancy_bytes();
                let entries = c.occupancy_entries() + r.occupancy_entries();
                prop_assert!(
                    bytes <= max_bytes,
                    "occupancy {} B over the {} B budget",
                    bytes,
                    max_bytes
                );
                prop_assert!(
                    entries <= max_entries,
                    "{} entries over the {}-entry budget",
                    entries,
                    max_entries
                );
            }
        }
    }

    /// Invariant 3: a pinned epoch's structures survive churn at newer
    /// epochs, and evaluating on the view still answers from the cache.
    #[test]
    fn pinned_views_survive_eviction_pressure(
        seed in 0u64..1_000_000,
        churn in prop::collection::vec((0u32..2, 0u64..u64::MAX), 1..8),
    ) {
        let mut r = rng(seed);
        let base = random_graph(&mut r, N, 40);
        // One entry of headroom: every later insert forces an eviction
        // decision, and only the pin protects the view's structure.
        let mut engine = dynamic_engine(base.clone(), bounded_config(None, Some(1)));

        // Two queries sharing one outermost closure: warming the first
        // caches the closure's RTC; the second can only answer `Fresh`
        // from that same entry.
        let body = Regex::concat(vec![Regex::label("a"), Regex::label("b")]);
        let warm = Regex::concat(vec![Regex::label("c"), Regex::plus(body.clone())]);
        let probe = Regex::concat(vec![Regex::plus(body.clone()), Regex::label("d")]);
        let key = body.canonical_key();

        engine.evaluate(&warm).unwrap();
        let view = engine.pin();
        let pinned_epoch = view.epoch();
        prop_assert!(matches!(
            engine.cache().lookup(SharingKind::Rtc, &key, pinned_epoch),
            Lookup::Fresh(_)
        ));

        for (flag, op_seed) in churn {
            let is_delta = flag == 1;
            let mut or = rng(op_seed);
            if is_delta {
                engine.apply_delta(&random_delta(&mut or, N));
            } else {
                engine.evaluate(&random_closure_query(&mut or, 2)).unwrap();
            }
        }

        // The pinned structure is still resident at its epoch…
        prop_assert!(
            matches!(
                engine.cache().lookup(SharingKind::Rtc, &key, pinned_epoch),
                Lookup::Fresh(_)
            ),
            "pinned RTC '{}' was evicted",
            key
        );
        // …and time-travel evaluation answers from it, identical to an
        // unbounded engine frozen at the pinned epoch.
        let got = view.evaluate(&probe).unwrap();
        let oracle = dynamic_engine(base, EngineConfig::default());
        prop_assert_eq!(got.as_ref(), &oracle.evaluate(&probe).unwrap());

        // Once the view drops, the pin releases and pressure reclaims
        // the old epoch's entries again.
        drop(view);
        engine.cache().enforce_budget();
        prop_assert!(engine.cache().occupancy_entries() <= 1);
    }
}

/// Deterministic spelling of invariant 3's counter story: after churn,
/// re-answering on the view is a structural *hit*, not a rebuild.
#[test]
fn pinned_view_answers_without_rebuilding() {
    use rtc_rpq::graph::fixtures::paper_graph;
    let mut engine = dynamic_engine(paper_graph(), bounded_config(None, Some(1)));
    engine.evaluate_str("d.(b.c)+.c").unwrap();
    let view = engine.pin();

    // Churn: a delta, then a different closure at the live epoch, which
    // (with one entry of budget) could only survive by evicting the
    // pinned structure — it must lose and evict itself instead.
    let mut delta = GraphDelta::new();
    delta.insert(6, "b", 8).insert(8, "c", 6);
    engine.apply_delta(&delta);
    engine.evaluate_str("(a.b)+").unwrap();

    let misses_before = engine.cache().misses();
    let hits_before = engine.cache().hits();
    // Different query string (no result-cache memo), same shared closure.
    let got = view.evaluate_str("(b.c)+.c").unwrap();
    assert_eq!(
        engine.cache().misses(),
        misses_before,
        "rebuild after evict"
    );
    assert!(engine.cache().hits() > hits_before);

    let oracle = Engine::new_dynamic(paper_graph());
    assert_eq!(got.as_ref(), &oracle.evaluate_str("(b.c)+.c").unwrap());
}
