//! The four workloads: which graph, which server flags, which
//! connections, and the seeded operation stream each connection sends.
//!
//! Building a [`Plan`] is cheap (graph generation plus stream sampling);
//! the expected answers are computed separately by [`crate::oracle`], so
//! the streams can be unit-tested without evaluating a single query.

use crate::stats::{sub_seed, Zipf};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rpq_datasets::dynamic::{generate_dynamic_workload, DynamicWorkloadConfig};
use rpq_datasets::rmat::rmat_n_scaled;
use rpq_datasets::workload::{alphabet_of, generate_workload, WorkloadConfig};
use rpq_graph::{GraphDelta, LabeledMultigraph};

/// log2 of every workload's vertex count. 2^11 keeps one cold closure
/// query in the tens of milliseconds, so a short timed region still
/// holds hundreds of samples.
const SCALE: u32 = 11;

/// Generator seed of the graphs. The dataset is part of a workload's
/// definition, as the paper's fixed datasets are: `--seed` draws the query
/// pools and the operation streams, not the graph. (Per-seed RMAT
/// instances differ in giant-SCC size by enough to move every latency
/// several percent, which would drown the run-to-run spread the bounds
/// are set against.)
const GRAPH_SEED: u64 = 1;

/// The `RMAT_N`-shaped graph (per-label degree `2^(N-2)`) every workload
/// on that degree shares.
fn rmat(n: u32) -> LabeledMultigraph {
    rmat_n_scaled(n, SCALE, GRAPH_SEED)
}

/// `limit` that makes a text reply carry the whole result.
const FULL_RESULT_LIMIT: u64 = u32::MAX as u64;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    ColdSets,
    WarmReads,
    Churn,
    Pressure,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::ColdSets,
        Workload::WarmReads,
        Workload::Churn,
        Workload::Pressure,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::ColdSets => "cold_sets",
            Workload::WarmReads => "warm_reads",
            Workload::Churn => "churn",
            Workload::Pressure => "pressure",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Operation classes: latencies are summarised per class.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Class {
    /// `query` with a bounded (or empty) payload.
    Query,
    /// `query` fetching the whole result (text or `RESULT-BIN`).
    Bulk,
    Ends,
    Check,
    Delta,
    /// `limit`, `binary`, `reset cache`: status-only replies.
    Control,
}

/// What a correct reply looks like. Query-shaped expectations name the
/// query by its index in [`Plan::queries`]; the oracle supplies the value.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Expect {
    /// Any `OK` status.
    Ok,
    /// `OK <n> pairs …` with the oracle's pair count.
    Pairs { query: usize },
    /// The whole result: pair count and order-independent checksum.
    Bulk { query: usize },
    /// `OK <n> end vertices …`.
    Ends { query: usize, src: u32 },
    /// `OK found path …` / `OK no path …`.
    Found { query: usize, src: u32, dst: u32 },
    /// `churn`: the answer depends on the epoch, so the count is recorded
    /// and verified after the run at the checkpoint rounds.
    AtRound { round: usize, slot: usize },
}

#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Op {
    pub line: String,
    pub class: Class,
    pub expect: Expect,
    /// Last query of a cold set: closes one `set_response` sample.
    pub closes_set: bool,
}

impl Op {
    fn new(line: String, class: Class, expect: Expect) -> Op {
        Op {
            line,
            class,
            expect,
            closes_set: false,
        }
    }

    fn control(line: impl Into<String>) -> Op {
        Op::new(line.into(), Class::Control, Expect::Ok)
    }

    fn query(plan_queries: &[String], query: usize) -> Op {
        Op::new(
            format!("query {}", plan_queries[query]),
            Class::Query,
            Expect::Pairs { query },
        )
    }
}

/// One connection's script.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ConnPlan {
    /// Sent once, untimed, as part of set-up.
    pub warmup: Vec<Op>,
    /// How many leading `stream` operations are sent untimed, once, before
    /// the timed region starts: the road to the steady state, too long to
    /// repeat in every timed set-up. It is a fixed amount of work, so peak
    /// memory is read when it ends — on any commit, after the same
    /// operations. Not part of `setup_s`.
    pub ramp: usize,
    /// Sent during the timed region, in order.
    pub stream: Vec<Op>,
    /// A background connection loads the server and is measured by its
    /// own class metrics, but is left out of `ops_per_s` and of the choice
    /// of quiet windows. `warm_reads`' bulk connection is one: on the seed
    /// its fetches are bistable — in some runs 4 % of them wait 40 ms for a
    /// delayed ACK, in others 25 %, for the whole run — and counted in,
    /// `ops_per_s` would flip between ~130 and ~240 from run to run.
    pub background: bool,
    /// Whether `stream` restarts when exhausted. `churn` cannot cycle: its
    /// deltas only make sense applied once, in order.
    pub cyclic: bool,
}

/// `churn`'s write side, kept for the after-the-run replay.
pub struct ChurnPlan {
    /// `deltas[r]` is applied in round `r`, before that round's queries
    /// (all of [`Plan::queries`], in order).
    pub deltas: Vec<GraphDelta>,
}

pub struct Plan {
    pub workload: Workload,
    pub graph: LabeledMultigraph,
    /// Extra `rpq serve` flags.
    pub server_flags: Vec<&'static str>,
    pub conns: Vec<ConnPlan>,
    /// Every distinct query text any op refers to.
    pub queries: Vec<String>,
    /// Queries whose full oracle result (not just its size) is needed to
    /// check `ends`/`check` replies.
    pub needs_sets: bool,
    pub churn: Option<ChurnPlan>,
}

impl Plan {
    pub fn build(workload: Workload, seed: u64) -> Plan {
        match workload {
            Workload::ColdSets => cold_sets(seed),
            Workload::WarmReads => warm_reads(seed),
            Workload::Churn => churn(seed),
            Workload::Pressure => pressure(seed),
        }
    }
}

/// Distinct `Pre·R⁺·Post` queries from the paper's generator (§V-A),
/// `per_set` from each set, in generation order.
fn batch_unit_sets(
    alphabet: &[String],
    config: &WorkloadConfig,
    per_set: usize,
) -> Vec<Vec<String>> {
    generate_workload(alphabet, config)
        .iter()
        .map(|set| {
            let mut texts: Vec<String> = Vec::with_capacity(per_set);
            for q in &set.queries {
                let text = q.to_string();
                if !texts.contains(&text) {
                    texts.push(text);
                }
                if texts.len() == per_set {
                    break;
                }
            }
            texts
        })
        .collect()
}

/// All label concatenations of the given lengths, shuffled by `rng`.
fn shuffled_label_paths(alphabet: &[String], lengths: &[usize], rng: &mut StdRng) -> Vec<String> {
    let k = alphabet.len();
    let mut paths: Vec<String> = Vec::new();
    for &len in lengths {
        // Count in base |Σ|: each number's digits name one path.
        for mut code in 0..k.pow(len as u32) {
            let mut labels = Vec::with_capacity(len);
            for _ in 0..len {
                labels.push(alphabet[code % k].as_str());
                code /= k;
            }
            paths.push(labels.join("."));
        }
    }
    shuffle(&mut paths, rng);
    paths
}

fn shuffle<T>(items: &mut [T], rng: &mut StdRng) {
    for i in (1..items.len()).rev() {
        items.swap(i, rng.gen_range(0..=i));
    }
}

/// `cold_sets`: the paper's own measure. Every set starts from an empty
/// cache, so all time is spent in the engine layers; `limit 0` keeps reply
/// encoding out of it.
fn cold_sets(seed: u64) -> Plan {
    const SETS_PER_LENGTH: usize = 8;
    const QUERIES_PER_SET: usize = 4;
    const WARMUP_SETS: usize = 2;

    let graph = rmat(2);
    let config = WorkloadConfig {
        rs_per_length: SETS_PER_LENGTH,
        r_lengths: vec![1, 2, 3],
        // Draw spares: the generator picks Pre/Post independently, and a
        // repeated query inside a set would be a result-cache hit.
        queries_per_set: 4 * QUERIES_PER_SET,
        use_star: false,
        seed: sub_seed(seed, 2),
    };
    let mut sets = batch_unit_sets(&alphabet_of(&graph), &config, QUERIES_PER_SET);
    // Interleave |R| = 1, 2, 3 so any prefix of the cycle sees every length.
    shuffle(&mut sets, &mut StdRng::seed_from_u64(sub_seed(seed, 3)));

    let mut queries: Vec<String> = Vec::new();
    let mut stream: Vec<Op> = Vec::new();
    let mut set_starts = Vec::new();
    for set in &sets {
        set_starts.push(stream.len());
        stream.push(Op::control("reset cache"));
        for text in set {
            let query = intern(&mut queries, text);
            stream.push(Op::query(&queries, query));
        }
        stream.last_mut().expect("set has queries").closes_set = true;
    }
    let mut warmup = vec![Op::control("limit 0")];
    warmup.extend(stream[..set_starts[WARMUP_SETS]].iter().cloned());
    Plan {
        workload: Workload::ColdSets,
        graph,
        server_flags: vec![],
        conns: vec![ConnPlan {
            warmup,
            // One full cycle: every set's footprint has been seen.
            ramp: stream.len(),
            stream,
            cyclic: true,
            background: false,
        }],
        queries,
        needs_sets: false,
        churn: None,
    }
}

fn intern(queries: &mut Vec<String>, text: &str) -> usize {
    match queries.iter().position(|q| q == text) {
        Some(i) => i,
        None => {
            queries.push(text.to_string());
            queries.len() - 1
        }
    }
}

/// `warm_reads`: every result is memoized during warm-up, so the engine
/// layers are bypassed and what remains is the server and regex layers —
/// command parse, RPQ parse, result-cache get, rendering, socket writes.
fn warm_reads(seed: u64) -> Plan {
    const BATCH_UNITS: usize = 32;
    const BARE_CLOSURES: usize = 8;
    const LABEL_PATHS: usize = 8;
    const BULK_QUERIES: usize = 16;
    const INTERACTIVE_OPS: usize = 4096;
    const INTERACTIVE_LIMIT: usize = 100;
    const INTERACTIVE_RAMP: usize = 32;

    let graph = rmat(1);
    let alphabet = alphabet_of(&graph);
    let config = WorkloadConfig {
        rs_per_length: 4,
        r_lengths: vec![1, 2, 3],
        queries_per_set: 8,
        use_star: false,
        seed: sub_seed(seed, 2),
    };
    let mut queries: Vec<String> = Vec::new();
    // Three per set over twelve sets: every body length is in the pool.
    for text in batch_unit_sets(&alphabet, &config, 3).into_iter().flatten() {
        if queries.len() < BATCH_UNITS {
            intern(&mut queries, &text);
        }
    }
    let mut rng = StdRng::seed_from_u64(sub_seed(seed, 3));
    for body in shuffled_label_paths(&alphabet, &[1, 2], &mut rng)
        .iter()
        .take(BARE_CLOSURES)
    {
        intern(&mut queries, &format!("({body})+"));
    }
    for path in shuffled_label_paths(&alphabet, &[2, 3], &mut rng)
        .iter()
        .take(LABEL_PATHS)
    {
        intern(&mut queries, path);
    }
    // Zipf rank order: a seeded shuffle, so popularity is independent of
    // query shape.
    let mut ranked: Vec<usize> = (0..queries.len()).collect();
    shuffle(&mut ranked, &mut rng);

    // Connection A — interactive: small replies, skewed popularity, point
    // lookups mixed in (they bypass both caches).
    let n = graph.vertex_count() as u32;
    let zipf = Zipf::new(ranked.len(), 1.0);
    let mut a_rng = StdRng::seed_from_u64(sub_seed(seed, 4));
    let stream_a: Vec<Op> = (0..INTERACTIVE_OPS)
        .map(|_| {
            let query = ranked[zipf.sample(&mut a_rng)];
            let text = &queries[query];
            let roll: f64 = a_rng.gen();
            if roll < 0.70 {
                Op::query(&queries, query)
            } else if roll < 0.85 {
                let src = a_rng.gen_range(0..n);
                Op::new(
                    format!("ends {src} {text}"),
                    Class::Ends,
                    Expect::Ends { query, src },
                )
            } else {
                let (src, dst) = (a_rng.gen_range(0..n), a_rng.gen_range(0..n));
                Op::new(
                    format!("check {src} {dst} {text}"),
                    Class::Check,
                    Expect::Found { query, src, dst },
                )
            }
        })
        .collect();
    // Warm-up memoizes the whole pool with count-only replies, then
    // switches to the interactive limit.
    let mut warmup_a = vec![Op::control("limit 0")];
    warmup_a.extend((0..queries.len()).map(|q| Op::query(&queries, q)));
    warmup_a.push(Op::control(format!("limit {INTERACTIVE_LIMIT}")));

    // Connection B — bulk: whole results, alternating text and RESULT-BIN.
    // The closure queries come first in the pool and have the large
    // results; which sixteen is seeded, not measured, so the plan needs no
    // oracle.
    let mut bulk: Vec<usize> = (0..BATCH_UNITS + BARE_CLOSURES).collect();
    shuffle(&mut bulk, &mut rng);
    bulk.truncate(BULK_QUERIES);
    let mut stream_b = Vec::new();
    for (i, &query) in bulk
        .iter()
        .chain(bulk.iter().skip(1))
        .chain(bulk.first())
        .enumerate()
    {
        stream_b.push(Op::control(if i % 2 == 0 {
            "binary off"
        } else {
            "binary on"
        }));
        stream_b.push(Op::new(
            format!("query {}", queries[query]),
            Class::Bulk,
            Expect::Bulk { query },
        ));
    }
    Plan {
        workload: Workload::WarmReads,
        graph,
        server_flags: vec![],
        conns: vec![
            ConnPlan {
                warmup: warmup_a,
                ramp: INTERACTIVE_RAMP,
                stream: stream_a,
                cyclic: true,
                background: false,
            },
            ConnPlan {
                warmup: vec![Op::control(format!("limit {FULL_RESULT_LIMIT}"))],
                // One full cycle: every bulk result rendered both ways.
                ramp: stream_b.len(),
                stream: stream_b,
                cyclic: true,
                background: true,
            },
        ],
        queries,
        needs_sets: true,
        churn: None,
    }
}

/// `churn`: writes beside reads. Every delta invalidates the result cache
/// and turns the structural entries stale, so incremental maintenance,
/// versioned-graph apply/freeze and view publication run here only.
fn churn(seed: u64) -> Plan {
    /// More rounds than any plausible server finishes in a timed region;
    /// if it ever does, the region ends early and says so.
    const ROUNDS: usize = 1024;
    const WARMUP_ROUNDS: usize = 2;
    /// Rounds sent before the timed region starts. The server memoizes up
    /// to 256 results (4 per round) and retains 8 epochs; until that fills
    /// its memory grows by ~10 MB a round and round time swings by 40 %
    /// with it. From round 72 on the region measures a steady state.
    /// (Memory still creeps up for another ~30 s as the allocator
    /// fragments, which is why peak memory is read at this fixed round and
    /// not after however many rounds a build fits into the region.)
    const PLATEAU_ROUNDS: usize = 72;
    /// The delta stream is one of this many, chosen by `seed`. On the seed
    /// commit, `DynamicRtc` panics (`incremental.rs`, an `unwrap` on a
    /// missing condensation entry) after enough rounds on some streams —
    /// about one stream in six within 150 rounds for two-label bodies. A
    /// panic kills the connection, and a benchmark whose operations fail
    /// measures nothing, so `churn` stays on ground verified clean: with
    /// this graph and single-label bodies, streams `0..16` run all 1024
    /// rounds for every label (`churn_streams_survive_every_round`, an
    /// ignored test, re-checks it). The finding itself is in the README.
    const CHURN_STREAMS: u64 = 16;

    let graph = rmat(2);
    let alphabet = alphabet_of(&graph);
    // Two distinct single-label closure bodies, two queries over each.
    let mut rng = StdRng::seed_from_u64(sub_seed(seed, 2));
    let mut bodies = alphabet.clone();
    shuffle(&mut bodies, &mut rng);
    let mut queries: Vec<String> = Vec::new();
    for body in &bodies[..2] {
        for pre_post in shuffled_label_paths(&alphabet, &[2], &mut rng)
            .iter()
            .take(2)
        {
            let (pre, post) = pre_post.split_once('.').expect("two labels");
            queries.push(format!("{pre}.{body}+.{post}"));
        }
    }

    let stream_config = DynamicWorkloadConfig {
        rounds: ROUNDS,
        updates_per_round: 8,
        insert_fraction: 0.5,
        reinsert_fraction: 0.25,
        new_label_every: 0,
        seed: seed % CHURN_STREAMS,
    };
    let deltas: Vec<GraphDelta> = generate_dynamic_workload(&graph, &stream_config)
        .deltas()
        .cloned()
        .collect();
    let mut ops: Vec<Op> = Vec::with_capacity(ROUNDS * 5);
    for (round, delta) in deltas.iter().enumerate() {
        ops.push(Op::new(delta_line(delta), Class::Delta, Expect::Ok));
        for (slot, text) in queries.iter().enumerate() {
            ops.push(Op::new(
                format!("query {text}"),
                Class::Query,
                Expect::AtRound { round, slot },
            ));
        }
    }
    let stream = ops.split_off(WARMUP_ROUNDS * 5);
    let mut warmup = vec![Op::control("limit 0")];
    warmup.append(&mut ops);
    Plan {
        workload: Workload::Churn,
        graph,
        server_flags: vec![],
        conns: vec![ConnPlan {
            warmup,
            ramp: (PLATEAU_ROUNDS - WARMUP_ROUNDS) * 5,
            stream,
            cyclic: false,
            background: false,
        }],
        queries,
        needs_sets: false,
        churn: Some(ChurnPlan { deltas }),
    }
}

/// The `delta` command for one batch — deletions first, the order
/// `VersionedGraph::apply` uses.
pub fn delta_line(delta: &GraphDelta) -> String {
    let mut line = String::from("delta");
    for (s, l, d) in delta.deletes() {
        line.push_str(&format!(" del {s} {l} {d}"));
    }
    for (s, l, d) in delta.inserts() {
        line.push_str(&format!(" ins {s} {l} {d}"));
    }
    line
}

/// `pressure`: the same caches as `warm_reads` in the eviction regime —
/// the pool's results are several times the byte budget.
fn pressure(seed: u64) -> Plan {
    const POOL: usize = 400;
    const OPS_PER_CONN: usize = 8192;
    const WARMUP_OPS: usize = 150;
    const RAMP_OPS: usize = 300;

    let graph = rmat(1);
    let config = WorkloadConfig {
        // 34 bodies per length × 16 draws is ~4× the pool before
        // de-duplication, enough to always reach it.
        rs_per_length: 34,
        r_lengths: vec![1, 2, 3],
        queries_per_set: 16,
        use_star: false,
        seed: sub_seed(seed, 2),
    };
    let mut per_set = batch_unit_sets(&alphabet_of(&graph), &config, 16);
    let mut rng = StdRng::seed_from_u64(sub_seed(seed, 3));
    shuffle(&mut per_set, &mut rng);
    let mut queries: Vec<String> = Vec::new();
    // Round-robin over the sets so the pool mixes body lengths evenly.
    'fill: for i in 0..16 {
        for set in &per_set {
            if let Some(text) = set.get(i) {
                intern(&mut queries, text);
                if queries.len() == POOL {
                    break 'fill;
                }
            }
        }
    }
    assert_eq!(
        queries.len(),
        POOL,
        "generator produced too few distinct queries"
    );

    let zipf = Zipf::new(POOL, 1.0);
    let conn = |tag: u64, warmup_ops: usize| {
        let mut rng = StdRng::seed_from_u64(sub_seed(seed, tag));
        let mut draw = |n: usize| -> Vec<Op> {
            (0..n)
                .map(|_| Op::query(&queries, zipf.sample(&mut rng)))
                .collect()
        };
        let mut warmup = vec![Op::control("limit 0")];
        warmup.extend(draw(warmup_ops));
        ConnPlan {
            warmup,
            // Enough distinct misses to fill the budget several times.
            ramp: RAMP_OPS,
            stream: draw(OPS_PER_CONN),
            cyclic: true,
            background: false,
        }
    };
    let conns = vec![conn(4, WARMUP_OPS), conn(5, 0)];
    Plan {
        workload: Workload::Pressure,
        graph,
        server_flags: vec!["--cache-budget", "bytes=64m"],
        conns,
        queries,
        needs_sets: false,
        churn: None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lines(plan: &Plan) -> Vec<Vec<&str>> {
        plan.conns
            .iter()
            .map(|c| {
                c.warmup
                    .iter()
                    .chain(&c.stream)
                    .map(|op| op.line.as_str())
                    .collect()
            })
            .collect()
    }

    #[test]
    fn equal_seeds_give_equal_streams_and_different_seeds_differ() {
        for w in Workload::ALL {
            let (a, b, c) = (Plan::build(w, 7), Plan::build(w, 7), Plan::build(w, 8));
            assert_eq!(lines(&a), lines(&b), "{}", w.name());
            assert_eq!(a.queries, b.queries);
            assert_ne!(lines(&a), lines(&c), "{}", w.name());
        }
    }

    #[test]
    fn every_query_op_parses_and_names_a_pool_query() {
        for w in Workload::ALL {
            let plan = Plan::build(w, 3);
            for op in plan
                .conns
                .iter()
                .flat_map(|c| c.warmup.iter().chain(&c.stream))
            {
                assert!(
                    rpq_server::command::parse_command(&op.line)
                        .unwrap()
                        .is_some(),
                    "{}",
                    op.line
                );
                match op.expect {
                    Expect::Pairs { query }
                    | Expect::Bulk { query }
                    | Expect::Ends { query, .. }
                    | Expect::Found { query, .. } => {
                        assert!(op.line.ends_with(&plan.queries[query]))
                    }
                    Expect::AtRound { slot, .. } => assert!(op.line.ends_with(&plan.queries[slot])),
                    Expect::Ok => {}
                }
            }
        }
    }

    #[test]
    fn cold_sets_reset_before_every_set_of_four_distinct_queries() {
        let plan = Plan::build(Workload::ColdSets, 11);
        let stream = &plan.conns[0].stream;
        assert_eq!(stream.len(), 24 * 5);
        assert_eq!(plan.conns[0].ramp, stream.len());
        for set in stream.chunks(5) {
            assert_eq!(set[0].line, "reset cache");
            let mut texts: Vec<&str> = set[1..].iter().map(|op| op.line.as_str()).collect();
            assert!(set[1..].iter().all(|op| op.class == Class::Query));
            assert!(set[4].closes_set && !set[3].closes_set);
            texts.sort_unstable();
            texts.dedup();
            assert_eq!(
                texts.len(),
                4,
                "a repeat inside a set would hit the result cache"
            );
        }
        assert_eq!(plan.conns[0].warmup.len(), 1 + 2 * 5);
    }

    #[test]
    fn warm_reads_pool_and_mix() {
        let plan = Plan::build(Workload::WarmReads, 5);
        assert_eq!(plan.queries.len(), 48);
        assert_eq!(plan.queries.iter().filter(|q| !q.contains('+')).count(), 8);
        let a = &plan.conns[0];
        // Warm-up touches every pool query exactly once.
        assert_eq!(a.warmup.len(), 48 + 2);
        let share = |class| {
            a.stream.iter().filter(|op| op.class == class).count() as f64 / a.stream.len() as f64
        };
        assert!((0.66..0.74).contains(&share(Class::Query)));
        assert!((0.12..0.18).contains(&share(Class::Ends)));
        assert!((0.12..0.18).contains(&share(Class::Check)));
        let b = &plan.conns[1];
        assert_eq!(b.stream.len(), 64);
        assert_eq!(
            b.stream.iter().filter(|op| op.class == Class::Bulk).count(),
            32
        );
        assert_eq!(b.stream[0].line, "binary off");
        assert_eq!(b.stream[2].line, "binary on");
    }

    #[test]
    fn churn_rounds_are_one_delta_then_four_queries() {
        let plan = Plan::build(Workload::Churn, 2);
        let churn = plan.churn.as_ref().unwrap();
        assert_eq!(churn.deltas.len(), 1024);
        let conn = &plan.conns[0];
        assert!(!conn.cyclic);
        assert_eq!(conn.warmup.len(), 1 + 2 * 5);
        assert_eq!(conn.stream.len(), 1022 * 5);
        assert_eq!(conn.ramp, 70 * 5);
        for (i, round) in conn.stream.chunks(5).enumerate().take(50) {
            assert_eq!(round[0].class, Class::Delta);
            assert_eq!(
                round[0]
                    .line
                    .split_whitespace()
                    .filter(|t| *t == "ins" || *t == "del")
                    .count(),
                8
            );
            assert_eq!(
                round[4].expect,
                Expect::AtRound {
                    round: i + 2,
                    slot: 3
                }
            );
        }
        // Two closure bodies, two distinct queries over each.
        let body = |q: &String| q.split('.').nth(1).unwrap().to_string();
        assert!(plan.queries.iter().all(|q| body(q).ends_with('+')));
        assert_eq!(body(&plan.queries[0]), body(&plan.queries[1]));
        assert_eq!(body(&plan.queries[2]), body(&plan.queries[3]));
        assert_ne!(body(&plan.queries[0]), body(&plan.queries[2]));
        assert_ne!(plan.queries[0], plan.queries[1]);
        assert_ne!(plan.queries[2], plan.queries[3]);
    }

    /// The ground `churn` stands on (see `CHURN_STREAMS`): every delta
    /// stream a seed can select, against every single-label body, through
    /// the engine's own stale-refresh path. Three minutes in release:
    /// `cargo test --release -- --ignored churn_streams`.
    #[test]
    #[ignore = "minutes long; run when the graph, the stream shape or incremental maintenance changes"]
    fn churn_streams_survive_every_round() {
        for stream in 0..16 {
            let plan = Plan::build(Workload::Churn, stream);
            for label in alphabet_of(&plan.graph) {
                let body = [rpq_regex::Regex::parse(&format!("{label}+")).unwrap()];
                let mut engine = rpq_core::Engine::new_dynamic(plan.graph.clone());
                engine.prepare(&body).unwrap();
                for delta in &plan.churn.as_ref().unwrap().deltas {
                    engine.apply_delta(delta);
                    // `prepare` refreshes the stale structure exactly as a
                    // query would, without materializing a result.
                    engine.prepare(&body).unwrap();
                }
            }
        }
    }

    #[test]
    fn pressure_pool_is_distinct_and_budgeted() {
        let plan = Plan::build(Workload::Pressure, 9);
        let mut pool = plan.queries.clone();
        pool.sort_unstable();
        pool.dedup();
        assert_eq!(pool.len(), 400);
        assert_eq!(plan.server_flags, ["--cache-budget", "bytes=64m"]);
        assert_eq!(plan.conns.len(), 2);
        assert_ne!(plan.conns[0].stream, plan.conns[1].stream);
    }

    #[test]
    fn label_paths_enumerate_every_combination() {
        let alphabet: Vec<String> = ["a", "b"].iter().map(|s| s.to_string()).collect();
        let mut paths = shuffled_label_paths(&alphabet, &[1, 2], &mut StdRng::seed_from_u64(1));
        paths.sort_unstable();
        assert_eq!(paths, ["a", "a.a", "a.b", "b", "b.a", "b.b"]);
    }
}
