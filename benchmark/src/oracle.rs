//! Expected answers, from code the RTC path never runs:
//! `Strategy::NoSharing` (product-automaton BFS) on the harness's own
//! copy of the graph, computed outside every timed region.

use crate::client::{checksum, Reply};
use crate::workloads::{Expect, Plan};
use rpq_core::{Engine, Strategy};
use rpq_graph::{LabeledMultigraph, PairSet, VersionedGraph, VertexId};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// `churn` verifies every 8th round…
const CHURN_CHECK_EVERY: usize = 8;
/// …but at most this many, evenly spaced, so verification time does not
/// grow with a faster server.
const CHURN_MAX_CHECKPOINTS: usize = 12;

/// The oracle's view of one query.
pub struct Answer {
    pub pairs: u64,
    pub checksum: u64,
    /// The full result, kept only when point lookups need it.
    set: Option<PairSet>,
}

pub struct Oracle {
    answers: Vec<Answer>,
}

/// Evaluates `text` with the baseline that shares nothing.
pub fn evaluate(graph: &LabeledMultigraph, text: &str) -> PairSet {
    Engine::with_strategy(graph, Strategy::NoSharing)
        .evaluate_str(text)
        .unwrap_or_else(|e| panic!("oracle cannot evaluate generated query '{text}': {e}"))
}

/// Runs `f(0..n)` over every available core, results in index order.
fn par_map<T: Send>(n: usize, f: impl Fn(usize) -> T + Sync) -> Vec<T> {
    let threads = std::thread::available_parallelism()
        .map_or(1, usize::from)
        .min(n.max(1));
    let next = AtomicUsize::new(0);
    let slots: Mutex<Vec<Option<T>>> = Mutex::new((0..n).map(|_| None).collect());
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| loop {
                // Relaxed: the counter only hands out indices; the results
                // are published through the mutex.
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                let value = f(i);
                slots.lock().expect("a worker panicked while storing")[i] = Some(value);
            });
        }
    });
    slots
        .into_inner()
        .expect("a worker panicked while storing")
        .into_iter()
        .map(|slot| slot.expect("every index was computed"))
        .collect()
}

impl Oracle {
    /// One oracle value per distinct query of the plan. `churn` gets none
    /// here: its answers depend on the epoch (see [`verify_churn`]).
    pub fn compute(plan: &Plan) -> Oracle {
        if plan.churn.is_some() {
            return Oracle {
                answers: Vec::new(),
            };
        }
        let answers = par_map(plan.queries.len(), |i| {
            let set = evaluate(&plan.graph, &plan.queries[i]);
            Answer {
                pairs: set.len() as u64,
                checksum: checksum(set.iter().map(|(s, d)| (s.raw(), d.raw()))),
                set: plan.needs_sets.then_some(set),
            }
        });
        Oracle { answers }
    }

    /// Deliberately wrong: the checker's own self-test (`--corrupt-oracle`).
    pub fn corrupt(&mut self) {
        for answer in &mut self.answers {
            answer.pairs += 1;
        }
    }

    #[cfg(test)]
    pub fn answer(&self, query: usize) -> &Answer {
        &self.answers[query]
    }

    /// Whether `reply` is the correct answer to an op expecting `expect`.
    /// `AtRound` expectations pass here on status alone; their counts are
    /// checked by [`verify_churn`].
    pub fn accepts(&self, expect: &Expect, reply: &Reply) -> bool {
        if !reply.ok {
            return false;
        }
        match *expect {
            Expect::Ok | Expect::AtRound { .. } => true,
            Expect::Pairs { query } => reply.leading_count() == Some(self.answers[query].pairs),
            Expect::Bulk { query } => {
                let a = &self.answers[query];
                reply.leading_count() == Some(a.pairs)
                    && reply.payload_pairs == a.pairs
                    && reply.checksum == a.checksum
            }
            Expect::Ends { query, src } => {
                let set = self.answers[query]
                    .set
                    .as_ref()
                    .expect("plan asked for sets");
                reply.leading_count() == Some(set.ends_of(VertexId(src)).len() as u64)
            }
            Expect::Found { query, src, dst } => {
                let set = self.answers[query]
                    .set
                    .as_ref()
                    .expect("plan asked for sets");
                let found = set.contains(VertexId(src), VertexId(dst));
                reply
                    .status
                    .starts_with(if found { "found path" } else { "no path" })
            }
        }
    }
}

/// One recorded `churn` answer: the pair count the server gave for query
/// `slot` after the delta of `round`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RoundAnswer {
    pub round: usize,
    pub slot: usize,
    pub pairs: u64,
}

/// The rounds to verify among `completed` (the number of rounds whose
/// answers were all recorded): every 8th, thinned to at most twelve.
pub fn churn_checkpoints(completed: usize) -> Vec<usize> {
    let every: Vec<usize> = (1..=completed / CHURN_CHECK_EVERY)
        .map(|k| k * CHURN_CHECK_EVERY - 1)
        .collect();
    if every.len() <= CHURN_MAX_CHECKPOINTS {
        return every;
    }
    (1..=CHURN_MAX_CHECKPOINTS)
        .map(|k| every[k * every.len() / CHURN_MAX_CHECKPOINTS - 1])
        .collect()
}

/// Replays the plan's deltas on a `VersionedGraph` and compares the
/// recorded answers at the checkpoint rounds. Returns the number of
/// recorded answers that were checked and how many were wrong.
pub fn verify_churn(plan: &Plan, recorded: &[RoundAnswer], corrupt: bool) -> (u64, u64) {
    let churn = plan.churn.as_ref().expect("churn plan");
    let slots = plan.queries.len();
    // A round counts once all of its answers are in.
    let mut answers_in = vec![0usize; churn.deltas.len()];
    for a in recorded {
        answers_in[a.round] += 1;
    }
    let completed = answers_in.iter().take_while(|&&n| n == slots).count();
    let checkpoints = churn_checkpoints(completed);
    let mut graph = VersionedGraph::new(plan.graph.clone());
    let mut applied = 0;
    let (mut checked, mut wrong) = (0u64, 0u64);
    for &round in &checkpoints {
        for delta in &churn.deltas[applied..=round] {
            graph.apply(delta);
        }
        applied = round + 1;
        let frozen = graph.freeze();
        let expected = par_map(slots, |slot| {
            evaluate(frozen.graph(), &plan.queries[slot]).len() as u64
        });
        for answer in recorded.iter().filter(|a| a.round == round) {
            checked += 1;
            if answer.pairs != expected[answer.slot] + u64::from(corrupt) {
                wrong += 1;
            }
        }
    }
    (checked, wrong)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::{ChurnPlan, Workload};
    use rpq_graph::fixtures::paper_graph;
    use rpq_graph::GraphDelta;

    fn paper_plan(queries: &[&str], needs_sets: bool) -> Plan {
        Plan {
            workload: Workload::WarmReads,
            graph: paper_graph(),
            server_flags: vec![],
            conns: vec![],
            queries: queries.iter().map(|q| q.to_string()).collect(),
            needs_sets,
            churn: None,
        }
    }

    fn ok(status: &str) -> Reply {
        Reply {
            ok: true,
            status: status.to_string(),
            ..Reply::default()
        }
    }

    #[test]
    fn par_map_keeps_index_order() {
        assert_eq!(
            par_map(37, |i| i * i),
            (0..37).map(|i| i * i).collect::<Vec<_>>()
        );
        assert!(par_map(0, |i| i).is_empty());
    }

    #[test]
    fn oracle_matches_the_paper_example_and_rejects_wrong_answers() {
        // Example 1: d·(b·c)+·c = {(v7,v3), (v7,v5)}.
        let plan = paper_plan(&["d.(b.c)+.c"], true);
        let mut oracle = Oracle::compute(&plan);
        assert_eq!(oracle.answer(0).pairs, 2);
        assert_eq!(
            oracle.answer(0).checksum,
            checksum([(7, 3), (7, 5)].into_iter())
        );

        let pairs = Expect::Pairs { query: 0 };
        assert!(oracle.accepts(&pairs, &ok("2 pairs in 1ms")));
        assert!(!oracle.accepts(&pairs, &ok("3 pairs in 1ms")));
        assert!(!oracle.accepts(
            &pairs,
            &Reply {
                ok: false,
                ..ok("2 pairs")
            }
        ));

        let bulk = Expect::Bulk { query: 0 };
        let full = Reply {
            payload_pairs: 2,
            checksum: checksum([(7, 5), (7, 3)].into_iter()),
            ..ok("2 pairs in 1ms")
        };
        assert!(oracle.accepts(&bulk, &full));
        assert!(!oracle.accepts(
            &bulk,
            &Reply {
                checksum: 1,
                ..full.clone()
            }
        ));
        assert!(!oracle.accepts(
            &bulk,
            &Reply {
                payload_pairs: 1,
                ..full.clone()
            }
        ));

        assert!(oracle.accepts(
            &Expect::Ends { query: 0, src: 7 },
            &ok("2 end vertices from v7")
        ));
        assert!(!oracle.accepts(
            &Expect::Ends { query: 0, src: 6 },
            &ok("2 end vertices from v6")
        ));
        let found = Expect::Found {
            query: 0,
            src: 7,
            dst: 3,
        };
        assert!(oracle.accepts(&found, &ok("found path v7 -> v3 for d.(b.c)+.c")));
        assert!(!oracle.accepts(&found, &ok("no path v7 -> v3 for d.(b.c)+.c")));
        let absent = Expect::Found {
            query: 0,
            src: 7,
            dst: 4,
        };
        assert!(oracle.accepts(&absent, &ok("no path v7 -> v4 for d.(b.c)+.c")));

        oracle.corrupt();
        assert!(!oracle.accepts(&pairs, &ok("2 pairs in 1ms")));
    }

    #[test]
    fn checkpoints_are_every_eighth_round_thinned_to_twelve() {
        assert!(churn_checkpoints(7).is_empty());
        assert_eq!(churn_checkpoints(8), [7]);
        assert_eq!(churn_checkpoints(30), [7, 15, 23]);
        let many = churn_checkpoints(1000);
        assert_eq!(many.len(), 12);
        assert_eq!(*many.last().unwrap(), 999);
        assert!(many.windows(2).all(|w| w[0] < w[1]));
        assert!(many.iter().all(|r| (r + 1) % 8 == 0));
    }

    #[test]
    fn churn_replay_checks_recorded_counts_at_checkpoints() {
        // Eight rounds, each adding one edge of a growing b/c chain.
        let deltas: Vec<GraphDelta> = (0..8u32)
            .map(|i| {
                let mut d = GraphDelta::new();
                d.insert(6 + i, if i % 2 == 0 { "b" } else { "c" }, 7 + i);
                d
            })
            .collect();
        let mut plan = paper_plan(&["(b.c)+", "d.(b.c)+.c"], false);
        // Expected counts at round 7, by independent replay.
        let mut vg = VersionedGraph::new(plan.graph.clone());
        for d in &deltas {
            vg.apply(d);
        }
        let expected: Vec<u64> = plan
            .queries
            .iter()
            .map(|q| evaluate(vg.graph(), q).len() as u64)
            .collect();
        plan.churn = Some(ChurnPlan { deltas });

        let mut recorded: Vec<RoundAnswer> = (0..8)
            .flat_map(|round| {
                (0..2).map(move |slot| RoundAnswer {
                    round,
                    slot,
                    pairs: 0,
                })
            })
            .collect();
        for a in recorded.iter_mut().filter(|a| a.round == 7) {
            a.pairs = expected[a.slot];
        }
        // Only round 7 is a checkpoint: the zeros elsewhere are never read.
        assert_eq!(verify_churn(&plan, &recorded, false), (2, 0));
        assert_eq!(verify_churn(&plan, &recorded, true), (2, 2));
        recorded.last_mut().unwrap().pairs += 1;
        assert_eq!(verify_churn(&plan, &recorded, false), (2, 1));
        // An incomplete round 7 is not a checkpoint.
        recorded.pop();
        assert_eq!(verify_churn(&plan, &recorded, false), (0, 0));
    }
}
