//! The per-layer numbers, taken from outside: a fixed prefix of the
//! workload is replayed in-process and every call into a crate's public
//! surface is wrapped in a span. Nothing inside the program is
//! instrumented (that is a later issue), so the replay runs each
//! operation three ways:
//!
//! 1. `Session::execute` + `Response::write_to` — the whole server path
//!    without a socket;
//! 2. `EpochView::evaluate_with` on an engine of the harness's own — the
//!    `core` path, and the witness for which cache tier answered;
//! 3. Algorithm 1 unrolled stage by stage through the layers' public
//!    functions, checked equal to (2).
//!
//! The probe surface is deliberately only the functions named in the
//! span list of `benchmark/README.md`.

use crate::json::Json;
use crate::stats::{median, percentile};
use crate::workloads::{Class, Op, Plan, Workload};
use rpq_core::snapshot::{read_snapshot, write_snapshot};
use rpq_core::{
    eval_batch_unit_rtc, CacheBudget, EliminationStats, Engine, EngineConfig, EpochView,
    PreRelation,
};
use rpq_eval::{eval_label_names, find_witness, ProductEvaluator};
use rpq_graph::{
    tarjan_scc, Condensation, GraphDelta, GraphView, PairSet, RowSetPolicy, VersionedGraph,
    VertexId,
};
use rpq_reduction::tc::closure_of_condensation_rows;
use rpq_reduction::{reduce_edge_level, DynamicRtc, Rtc};
use rpq_regex::{decompose, to_dnf_with_limit, BatchUnit, ClosureKind, Regex};
use rpq_server::command::{parse_command, Command, DeltaOp};
use rpq_server::session::{Session, Status};
use std::collections::HashMap;
use std::io::Write;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One timed interval. `parent` is 0 for a request's root span.
pub struct Span {
    pub id: u32,
    pub parent: u32,
    pub request: u32,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    fn ms(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e6
    }
}

/// Spans are kept in memory and written out once, after the replay.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
    request: u32,
    /// Spans before this index belong to the warm-up prefix.
    measured_from: usize,
}

impl Tracer {
    fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            request: 0,
            measured_from: 0,
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    fn enter(&mut self, name: &'static str) -> u32 {
        let id = self.spans.len() as u32 + 1;
        let start_ns = self.now_ns();
        self.spans.push(Span {
            id,
            parent: self.open.last().copied().unwrap_or(0),
            request: self.request,
            name,
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(id);
        id
    }

    fn exit(&mut self, id: u32) {
        let end_ns = self.now_ns();
        assert_eq!(self.open.pop(), Some(id), "spans close innermost first");
        self.spans[id as usize - 1].end_ns = end_ns;
    }

    fn time<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let id = self.enter(name);
        let r = f();
        self.exit(id);
        r
    }

    /// A child span for a duration the callee measured itself (the stage
    /// timings `eval_batch_unit_rtc` returns), placed to end `before_now`
    /// ago.
    fn record(&mut self, name: &'static str, took: Duration, before_now: Duration) {
        let id = self.enter(name);
        self.exit(id);
        let span = &mut self.spans[id as usize - 1];
        span.end_ns = span.end_ns.saturating_sub(before_now.as_nanos() as u64);
        span.start_ns = span.end_ns.saturating_sub(took.as_nanos() as u64);
    }

    fn measured(&self) -> &[Span] {
        &self.spans[self.measured_from..]
    }

    /// Durations (ms) of every measured span called `name`.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.measured()
            .iter()
            .filter(|s| s.name == name)
            .map(Span::ms)
            .collect()
    }

    fn total_ms(&self, names: &[&str]) -> f64 {
        self.measured()
            .iter()
            .filter(|s| names.contains(&s.name))
            .map(Span::ms)
            .sum()
    }

    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let line = Json::obj(vec![
                ("request", Json::Num(f64::from(s.request))),
                ("id", Json::Num(f64::from(s.id))),
                ("parent", Json::Num(f64::from(s.parent))),
                ("name", Json::str(s.name)),
                ("start_ns", Json::Num(s.start_ns as f64)),
                ("end_ns", Json::Num(s.end_ns as f64)),
                ("warmup", Json::Bool(i < self.measured_from)),
            ]);
            writeln!(w, "{}", line.compact())?;
        }
        w.flush()
    }
}

/// Stage spans that together should account for `core.evaluate` on the
/// miss path (`trace.coverage_ratio`). The sub-stage probes under
/// `reduction.rtc_substages` repeat work `reduction.rtc_build` already
/// covers and are left out.
const COVERING_STAGES: &[&str] = &[
    "regex.dnf_decompose",
    "eval.label_join",
    "graph.pairset_union",
    "graph.pairset_union.sub",
    "graph.pairset_diff",
    "reduction.rtc_build",
    "reduction.dynamic_from_rtc",
    "reduction.incremental_apply",
    "reduction.rtc_snapshot",
    "reduction.rtc_expand",
    "core.batch_unit",
];

/// The covering stages that belong to the engine layers
/// (`eval`, `graph`, `reduction`, `core`), plus the point-lookup calls.
const ENGINE_STAGES: &[&str] = &[
    "eval.label_join",
    "graph.pairset_union",
    "graph.pairset_union.sub",
    "graph.pairset_diff",
    "reduction.rtc_build",
    "reduction.dynamic_from_rtc",
    "reduction.incremental_apply",
    "reduction.rtc_snapshot",
    "reduction.rtc_expand",
    "core.batch_unit",
    "core.result_hit",
    "automata.glushkov",
    "eval.product_ends",
    "eval.witness_check",
    "graph.delta_apply",
    "graph.freeze",
];

/// How many stream operations of each connection the replay covers, after
/// the whole warm-up. Fixed, so every count the trace reports repeats
/// exactly for a given seed.
fn traced_ops(workload: Workload) -> &'static [usize] {
    match workload {
        // 12 sets: half a cycle.
        Workload::ColdSets => &[60],
        // Interactive : bulk as about 6 : 1, one full bulk cycle.
        Workload::WarmReads => &[400, 64],
        // 16 rounds.
        Workload::Churn => &[80],
        Workload::Pressure => &[200, 200],
    }
}

/// Which tier of the structural cache served a closure body, as witnessed
/// by the harness engine's own counters.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Tier {
    Fresh,
    Stale,
    Miss,
}

/// The unrolled path's stand-in for one structural-cache entry.
struct Body {
    rtc: Arc<Rtc>,
    r_g: PairSet,
    dynamic: Option<DynamicRtc>,
}

/// Per-operation readings that are not span durations.
#[derive(Default)]
struct Readings {
    label_join_pairs: Vec<f64>,
    avg_scc_size: Vec<f64>,
    rtc_pairs: Vec<f64>,
    rtc_heap_bytes: Vec<f64>,
    useless2_inserts: u64,
    batch_units: u64,
    /// In-process `execute + write_to` milliseconds of every `query`.
    in_process_query_ms: Vec<f64>,
    /// `(bytes, seconds)` of whole-result replies, text and binary.
    text_out: (u64, f64),
    binary_out: (u64, f64),
    /// Σ over query ops of the in-process time that is neither parse nor
    /// evaluation: reply rendering and encoding.
    render_ms: f64,
    snapshot_bytes: f64,
}

struct Replay {
    tracer: Tracer,
    /// (1) the server path: one session per plan connection, one state.
    sessions: Vec<Session>,
    /// (2) the core path.
    engine: Engine<'static>,
    view: EpochView,
    config: EngineConfig,
    /// (3) the unrolled path's graph and cache stand-in.
    graph: VersionedGraph,
    frozen: Arc<GraphView>,
    bodies: HashMap<String, Body>,
    readings: Readings,
    wire: Vec<u8>,
}

/// The engine configuration `rpq serve <flags>` would start with, free of
/// the harness's own environment.
fn config_for(plan: &Plan) -> EngineConfig {
    let budget = plan
        .server_flags
        .iter()
        .position(|f| *f == "--cache-budget")
        .map(|i| CacheBudget::parse(plan.server_flags[i + 1]).expect("plan's budget spec parses"));
    EngineConfig {
        cache_budget: budget.unwrap_or_default(),
        representation: RowSetPolicy::default(),
        ..EngineConfig::default()
    }
}

impl Replay {
    fn new(plan: &Plan) -> Replay {
        let config = config_for(plan);
        let versioned = || VersionedGraph::new(plan.graph.clone());
        let first = Session::from_engine(
            Engine::with_config_versioned(versioned(), config),
            "bench".to_string(),
        );
        let mut sessions: Vec<Session> = (1..plan.conns.len())
            .map(|_| Session::attach(first.shared()))
            .collect();
        sessions.insert(0, first);
        let engine = Engine::with_config_versioned(versioned(), config);
        let view = engine.pin();
        let graph = versioned();
        let frozen = graph.freeze();
        Replay {
            tracer: Tracer::new(),
            sessions,
            engine,
            view,
            config,
            graph,
            frozen,
            bodies: HashMap::new(),
            readings: Readings::default(),
            wire: Vec::new(),
        }
    }

    fn op(&mut self, conn: usize, op: &Op) {
        self.tracer.request += 1;
        let root = self.tracer.enter("request");

        let exec = self.tracer.enter("server.execute");
        let response = self.sessions[conn].execute(&op.line);
        self.tracer.exit(exec);
        let response = response.unwrap_or_else(|| panic!("'{}' produced no response", op.line));
        self.wire.clear();
        let write = self.tracer.enter("server.write_to");
        response
            .write_to(&mut self.wire)
            .expect("Vec sink cannot fail");
        self.tracer.exit(write);
        let Status::Ok(status) = &response.status else {
            panic!("in-process '{}' failed: {:?}", op.line, response.status);
        };
        let served_ms =
            self.tracer.spans[exec as usize - 1].ms() + self.tracer.spans[write as usize - 1].ms();
        if op.class == Class::Query {
            self.readings.in_process_query_ms.push(served_ms);
        }
        if op.class == Class::Bulk {
            let out = if response.binary.is_some() {
                &mut self.readings.binary_out
            } else {
                &mut self.readings.text_out
            };
            out.0 += self.wire.len() as u64;
            out.1 += served_ms / 1e3;
        }

        let command = self
            .tracer
            .time("server.parse_command", || parse_command(&op.line))
            .expect("generated command parses")
            .expect("generated command is not blank");
        let leading: Option<u64> = status
            .split_whitespace()
            .next()
            .and_then(|t| t.parse().ok());
        match command {
            Command::Query { query, at: None } => {
                let spent = self.query(&query, leading.expect("query status leads with a count"));
                self.readings.render_ms += (served_ms - spent).max(0.0);
            }
            Command::Ends {
                src,
                query,
                at: None,
            } => {
                let q = self
                    .tracer
                    .time("regex.parse", || Regex::parse(&query))
                    .expect("query parses");
                let graph = self.frozen.graph();
                let evaluator = self
                    .tracer
                    .time("automata.glushkov", || ProductEvaluator::new(graph, &q));
                let ends = self
                    .tracer
                    .time("eval.product_ends", || evaluator.ends_from(VertexId(src)));
                assert_eq!(
                    Some(ends.len() as u64),
                    leading,
                    "ends: unrolled vs '{}'",
                    op.line
                );
            }
            Command::Check {
                src,
                dst,
                query,
                at: None,
            } => {
                let q = self
                    .tracer
                    .time("regex.parse", || Regex::parse(&query))
                    .expect("query parses");
                let graph = self.frozen.graph();
                let found = self
                    .tracer
                    .time("eval.witness_check", || {
                        find_witness(graph, &q, VertexId(src), VertexId(dst))
                    })
                    .is_some();
                assert_eq!(
                    found,
                    status.starts_with("found"),
                    "check: unrolled vs '{}'",
                    op.line
                );
            }
            Command::Delta(ops) => self.delta(&ops),
            Command::Reset { cache_too: true } => {
                self.engine.clear_cache();
                self.bodies.clear();
            }
            Command::SetLimit(_) | Command::SetBinary(_) => {}
            other => panic!("the replay does not model {other:?}"),
        }
        self.tracer.exit(root);
    }

    /// Paths (2) and (3) for one `query`. Returns the milliseconds path
    /// (2) spent parsing and evaluating, for the rendering share.
    fn query(&mut self, text: &str, served_pairs: u64) -> f64 {
        let parse = self.tracer.enter("regex.parse");
        let q = Regex::parse(text).expect("generated query parses");
        self.tracer.exit(parse);
        // The regex layer's other public calls, probed on every query:
        // the engine takes the key on a hit and all three on a miss.
        let limit = self.config.dnf_clause_limit;
        let unit = self.tracer.time("regex.dnf_decompose", || {
            let clauses = to_dnf_with_limit(&q, limit).expect("within the clause budget");
            assert_eq!(clauses.len(), 1, "workload queries are single clauses");
            std::hint::black_box(q.canonical_key());
            decompose(&clauses[0])
        });

        let cache = self.view.cache();
        let (misses, stale) = (cache.misses(), cache.stale_hits());
        let result_misses = self.view.results().misses();
        let eval = self.tracer.enter("core.evaluate");
        let result = self
            .view
            .evaluate_with(&q, self.config)
            .expect("generated query evaluates");
        self.tracer.exit(eval);
        assert_eq!(
            result.len() as u64,
            served_pairs,
            "server vs core on '{text}'"
        );
        let spent =
            self.tracer.spans[parse as usize - 1].ms() + self.tracer.spans[eval as usize - 1].ms();
        if self.view.results().misses() == result_misses {
            // Memoized: the engine layers were bypassed entirely.
            self.tracer.spans[eval as usize - 1].name = "core.result_hit";
            return spent;
        }
        let cache = self.view.cache();
        let tier = if cache.misses() > misses {
            Tier::Miss
        } else if cache.stale_hits() > stale {
            Tier::Stale
        } else {
            Tier::Fresh
        };
        let unrolled_span = self.tracer.enter("trace.unrolled");
        let unrolled = self.unroll(unit, tier);
        self.tracer.exit(unrolled_span);
        assert!(
            unrolled == *result,
            "unrolled Algorithm 1 disagrees with the engine on '{text}'"
        );
        spent
    }

    /// `RTCSharing(q)` for the shapes the workloads generate: one clause,
    /// `Pre` and `R` label concatenations.
    fn unroll(&mut self, unit: BatchUnit, tier: Tier) -> PairSet {
        let frozen = Arc::clone(&self.frozen);
        let graph = frozen.graph();
        let clause_g = match unit.closure {
            None => {
                let g = self
                    .tracer
                    .time("eval.label_join", || eval_label_names(graph, &unit.post));
                self.readings.label_join_pairs.push(g.len() as f64);
                g
            }
            Some((r, kind)) => {
                let pre = if unit.pre == Regex::Epsilon {
                    PreRelation::Identity(graph.vertex_count())
                } else {
                    PreRelation::Pairs(self.label_relation(&unit.pre))
                };
                let rtc = self.obtain_rtc(&r, tier);
                if matches!(pre, PreRelation::Identity(_)) && unit.post.is_empty() {
                    // Theorem 2: a bare closure is the RTC expansion.
                    let expanded = self
                        .tracer
                        .time("reduction.rtc_expand", || rtc.expand_parallel(1));
                    match kind {
                        ClosureKind::Plus => expanded,
                        ClosureKind::Star => {
                            expanded.union(&PairSet::identity(graph.vertex_count()))
                        }
                    }
                } else {
                    let mut stats = EliminationStats::default();
                    let unit_span = self.tracer.enter("core.batch_unit");
                    let out = eval_batch_unit_rtc(graph, &pre, &rtc, kind, &unit.post, &mut stats);
                    // The two stages run back to back, Post last.
                    self.tracer.record("core.pre_join", out.pre_join, out.post);
                    self.tracer.record("core.post", out.post, Duration::ZERO);
                    self.tracer.exit(unit_span);
                    self.readings.useless2_inserts += stats.useless2_unchecked_inserts;
                    self.readings.batch_units += 1;
                    out.result
                }
            }
        };
        let mut q_g = PairSet::new();
        self.tracer
            .time("graph.pairset_union", || q_g.union_in_place(&clause_g));
        q_g
    }

    /// The recursion's closure-free case: `r` is a label concatenation.
    fn label_relation(&mut self, r: &Regex) -> PairSet {
        let limit = self.config.dnf_clause_limit;
        let unit = self.tracer.time("regex.dnf_decompose", || {
            decompose(&to_dnf_with_limit(r, limit).expect("within the clause budget")[0])
        });
        assert!(
            unit.closure.is_none(),
            "Pre and R are closure-free in every workload"
        );
        let frozen = Arc::clone(&self.frozen);
        let g = self.tracer.time("eval.label_join", || {
            eval_label_names(frozen.graph(), &unit.post)
        });
        self.readings.label_join_pairs.push(g.len() as f64);
        let mut acc = PairSet::new();
        self.tracer
            .time("graph.pairset_union.sub", || acc.union_in_place(&g));
        acc
    }

    /// Lines 9–11 of Algorithm 1 for closure body `r`, following the tier
    /// the engine reported.
    fn obtain_rtc(&mut self, r: &Regex, tier: Tier) -> Arc<Rtc> {
        let key = r.canonical_key();
        let policy = self.config.representation;
        if tier == Tier::Fresh {
            if let Some(body) = self.bodies.get(&key) {
                return Arc::clone(&body.rtc);
            }
        }
        let r_g = self.label_relation(r);
        let stale = if tier == Tier::Stale {
            self.bodies.remove(&key)
        } else {
            None
        };
        let body = match stale {
            Some(body) if body.r_g == r_g => body,
            Some(body) => {
                let (inserted, deleted) = self.tracer.time("graph.pairset_diff", || {
                    (
                        r_g.difference(&body.r_g).into_vec(),
                        body.r_g.difference(&r_g).into_vec(),
                    )
                });
                let mut dynamic = match body.dynamic {
                    Some(dynamic) => dynamic,
                    None => self.tracer.time("reduction.dynamic_from_rtc", || {
                        DynamicRtc::from_rtc(&body.rtc, &body.r_g)
                    }),
                };
                let maintenance = self.config.maintenance;
                self.tracer.time("reduction.incremental_apply", || {
                    dynamic.apply(&inserted, &deleted, &maintenance)
                });
                let rtc = self
                    .tracer
                    .time("reduction.rtc_snapshot", || dynamic.snapshot());
                Body {
                    rtc: Arc::new(rtc),
                    r_g,
                    dynamic: Some(dynamic),
                }
            }
            None => {
                // The build's sub-stages, called one by one; the real
                // build below repeats them as a single call.
                let probes = self.tracer.enter("reduction.rtc_substages");
                let reduced = self
                    .tracer
                    .time("reduction.edge_reduce", || reduce_edge_level(&r_g));
                let scc = self.tracer.time("graph.scc", || tarjan_scc(&reduced.graph));
                let cond = self.tracer.time("graph.condensation", || {
                    Condensation::new(&reduced.graph, &scc)
                });
                std::hint::black_box(self.tracer.time("reduction.closure", || {
                    closure_of_condensation_rows(&cond, &policy)
                }));
                self.tracer.exit(probes);
                self.readings.avg_scc_size.push(scc.average_size());
                let rtc = self.tracer.time("reduction.rtc_build", || {
                    Rtc::from_pairs_with(&r_g, &policy)
                });
                self.readings
                    .rtc_pairs
                    .push(rtc.closure_pair_count() as f64);
                self.readings
                    .rtc_heap_bytes
                    .push(rtc.closure_heap_bytes() as f64);
                Body {
                    rtc: Arc::new(rtc),
                    r_g,
                    dynamic: None,
                }
            }
        };
        let rtc = Arc::clone(&body.rtc);
        self.bodies.insert(key, body);
        rtc
    }

    fn delta(&mut self, ops: &[DeltaOp]) {
        let mut delta = GraphDelta::new();
        for op in ops {
            match op {
                DeltaOp::Insert(s, l, d) => delta.insert(*s, l, *d),
                DeltaOp::Delete(s, l, d) => delta.delete(*s, l, *d),
                DeltaOp::Grow(n) => delta.ensure_vertices(*n),
            };
        }
        let Replay {
            tracer,
            graph,
            engine,
            ..
        } = self;
        tracer.time("graph.delta_apply", || graph.apply(&delta));
        self.frozen = tracer.time("graph.freeze", || graph.freeze());
        tracer.time("core.apply_delta", || engine.apply_delta(&delta));
        self.view = tracer.time("core.pin", || engine.pin());
    }

    /// Snapshot round-trip of the harness engine's final cache state.
    fn snapshot_probe(&mut self) {
        self.tracer.request += 1;
        let root = self.tracer.enter("request");
        let mut bytes = Vec::new();
        let engine = &self.engine;
        self.tracer
            .time("core.snapshot.write", || write_snapshot(engine, &mut bytes))
            .expect("snapshot writes to memory");
        let config = self.config;
        let restored = self
            .tracer
            .time("core.snapshot.read", || read_snapshot(&bytes[..], config))
            .expect("snapshot reads back");
        assert_eq!(restored.epoch(), self.engine.epoch());
        self.readings.snapshot_bytes = bytes.len() as f64;
        self.tracer.exit(root);
    }
}

/// What the traced replay produced.
pub struct TraceResult {
    /// Trace-sourced per-layer metrics, by name.
    pub metrics: Vec<(&'static str, f64)>,
    /// In-process `execute + write_to` 75th percentile of the queries
    /// (ms), for `server.transport_ms` and the tracing-overhead note. The
    /// same percentile as the bounded `query_p75_ms`: on `pressure` the
    /// median sits on the hit/miss boundary.
    pub in_process_query_p75_ms: f64,
    pub spans: usize,
    pub requests: u32,
}

/// Replays the fixed prefix of `plan` in-process, writes the spans to
/// `trace_path`, and reduces them to the per-layer metrics.
pub fn run(plan: &Plan, trace_path: &Path) -> Result<TraceResult, String> {
    let mut replay = Replay::new(plan);
    for (conn, conn_plan) in plan.conns.iter().enumerate() {
        for op in &conn_plan.warmup {
            replay.op(conn, op);
        }
    }
    replay.tracer.measured_from = replay.tracer.spans.len();
    replay.readings = Readings::default();

    // Interleave the connections in proportion to their quotas, always
    // advancing the one that is furthest behind.
    let quotas = traced_ops(plan.workload);
    let mut done = vec![0usize; quotas.len()];
    while let Some(conn) = (0..quotas.len())
        .filter(|&c| done[c] < quotas[c])
        .min_by(|&a, &b| (done[a] * quotas[b]).cmp(&(done[b] * quotas[a])))
    {
        let stream = &plan.conns[conn].stream;
        replay.op(conn, &stream[done[conn] % stream.len()]);
        done[conn] += 1;
    }
    replay.snapshot_probe();
    replay
        .tracer
        .write_jsonl(trace_path)
        .map_err(|e| format!("cannot write {}: {e}", trace_path.display()))?;

    let metrics = layer_metrics(&replay.tracer, &replay.readings);
    let served = &mut replay.readings.in_process_query_ms;
    served.sort_by(f64::total_cmp);
    Ok(TraceResult {
        metrics,
        in_process_query_p75_ms: percentile(served, 0.75),
        spans: replay.tracer.spans.len(),
        requests: replay.tracer.request,
    })
}

/// The trace-sourced metric names, from a replay that recorded nothing.
#[cfg(test)]
pub fn metric_names() -> Vec<&'static str> {
    layer_metrics(&Tracer::new(), &Readings::default())
        .into_iter()
        .map(|(name, _)| name)
        .collect()
}

/// Reduces the measured spans and readings to the trace-sourced
/// per-layer metrics: medians over the traced operations unless the
/// metric is a count, a rate or a share.
fn layer_metrics(tracer: &Tracer, readings: &Readings) -> Vec<(&'static str, f64)> {
    let p50_ms = |name: &str| median(&tracer.durations_ms(name));
    let p50_us = |name: &str| p50_ms(name) * 1e3;
    let mb_per_s = |(bytes, secs): (u64, f64)| {
        if secs > 0.0 {
            bytes as f64 / 1e6 / secs
        } else {
            0.0
        }
    };
    let share = |part: f64, whole: f64| if whole > 0.0 { part / whole } else { 0.0 };
    let served_ms = tracer.total_ms(&["server.execute", "server.write_to"]);
    vec![
        ("regex.parse_us", p50_us("regex.parse")),
        ("regex.dnf_decompose_us", p50_us("regex.dnf_decompose")),
        ("automata.glushkov_us", p50_us("automata.glushkov")),
        ("eval.label_join_ms", p50_ms("eval.label_join")),
        ("eval.label_join_pairs", median(&readings.label_join_pairs)),
        ("eval.product_ends_us", p50_us("eval.product_ends")),
        ("eval.witness_check_us", p50_us("eval.witness_check")),
        ("graph.scc_ms", p50_ms("graph.scc")),
        ("graph.condensation_ms", p50_ms("graph.condensation")),
        ("graph.avg_scc_size", median(&readings.avg_scc_size)),
        ("graph.pairset_union_ms", p50_ms("graph.pairset_union")),
        ("graph.delta_apply_us", p50_us("graph.delta_apply")),
        ("graph.freeze_us", p50_us("graph.freeze")),
        ("reduction.edge_reduce_ms", p50_ms("reduction.edge_reduce")),
        ("reduction.closure_ms", p50_ms("reduction.closure")),
        ("reduction.rtc_build_ms", p50_ms("reduction.rtc_build")),
        ("reduction.rtc_pairs", median(&readings.rtc_pairs)),
        ("reduction.rtc_heap_bytes", median(&readings.rtc_heap_bytes)),
        (
            "reduction.incremental_apply_ms",
            p50_ms("reduction.incremental_apply"),
        ),
        ("core.pre_join_ms", p50_ms("core.pre_join")),
        ("core.post_ms", p50_ms("core.post")),
        ("core.evaluate_ms", p50_ms("core.evaluate")),
        ("core.result_hit_us", p50_us("core.result_hit")),
        (
            "core.elim.useless2_inserts_per_query",
            share(
                readings.useless2_inserts as f64,
                readings.batch_units as f64,
            ),
        ),
        ("core.apply_delta_us", p50_us("core.apply_delta")),
        ("core.pin_us", p50_us("core.pin")),
        ("core.snapshot.write_ms", p50_ms("core.snapshot.write")),
        ("core.snapshot.read_ms", p50_ms("core.snapshot.read")),
        ("core.snapshot.bytes", readings.snapshot_bytes),
        ("server.parse_command_us", p50_us("server.parse_command")),
        ("server.execute_ms", p50_ms("server.execute")),
        ("server.render_text_mb_per_s", mb_per_s(readings.text_out)),
        ("server.encode_bin_mb_per_s", mb_per_s(readings.binary_out)),
        (
            "trace.coverage_ratio",
            share(
                tracer.total_ms(COVERING_STAGES),
                tracer.total_ms(&["core.evaluate"]),
            ),
        ),
        (
            "trace.engine_share",
            share(tracer.total_ms(ENGINE_STAGES), served_ms),
        ),
        ("trace.render_share", share(readings.render_ms, served_ms)),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use rpq_graph::fixtures::paper_graph;

    #[test]
    fn spans_nest_under_the_open_span() {
        let mut t = Tracer::new();
        t.request = 1;
        let root = t.enter("request");
        t.time("child", || std::thread::sleep(Duration::from_millis(2)));
        t.record("reported", Duration::from_millis(1), Duration::ZERO);
        t.exit(root);
        assert_eq!(t.spans.len(), 3);
        assert_eq!((t.spans[1].parent, t.spans[2].parent), (root, root));
        assert!(t
            .spans
            .iter()
            .all(|s| s.request == 1 && s.end_ns >= s.start_ns));
        let reported = &t.spans[2];
        assert_eq!(reported.end_ns - reported.start_ns, 1_000_000);
        assert!(
            t.spans[0].ms() >= t.spans[1].ms(),
            "the root covers its children"
        );
        assert_eq!(t.durations_ms("child").len(), 1);
    }

    #[test]
    fn replay_unrolls_the_paper_example_and_agrees_with_the_engine() {
        let queries: Vec<String> = ["d.(b.c)+.c", "a.(b.c)+.c", "(b.c)+", "b.c"]
            .iter()
            .map(|q| q.to_string())
            .collect();
        let plan = Plan {
            workload: Workload::ColdSets,
            graph: paper_graph(),
            server_flags: vec![],
            conns: vec![],
            queries: queries.clone(),
            needs_sets: false,
            churn: None,
        };
        let mut replay = Replay::new(&plan);
        let op = |line: String, class| Op {
            line,
            class,
            expect: crate::workloads::Expect::Ok,
            closes_set: false,
        };
        replay.op(0, &op("limit 0".into(), Class::Control));
        for q in &queries {
            replay.op(0, &op(format!("query {q}"), Class::Query));
        }
        // Repeat: now a result-cache hit, no engine stage runs.
        replay.op(0, &op(format!("query {}", queries[0]), Class::Query));
        replay.op(0, &op("ends 7 d.(b.c)+.c".into(), Class::Ends));
        replay.op(0, &op("check 7 3 d.(b.c)+.c".into(), Class::Check));
        replay.op(0, &op("delta ins 6 b 8 ins 8 c 6".into(), Class::Delta));
        // Stale tier: refreshed incrementally, still equal to the engine.
        replay.op(0, &op(format!("query {}", queries[0]), Class::Query));
        replay.op(0, &op("reset cache".into(), Class::Control));
        replay.op(0, &op(format!("query {}", queries[2]), Class::Query));

        let t = &replay.tracer;
        assert_eq!(t.durations_ms("core.result_hit").len(), 1);
        assert_eq!(t.durations_ms("core.evaluate").len(), 6);
        // One build for b·c, reused by the second query; one more after
        // the reset. The delta's refresh goes through DynamicRtc instead.
        assert_eq!(t.durations_ms("reduction.rtc_build").len(), 2);
        assert_eq!(t.durations_ms("reduction.incremental_apply").len(), 1);
        assert_eq!(t.durations_ms("reduction.rtc_expand").len(), 2);
        assert_eq!(t.durations_ms("core.batch_unit").len(), 3);
        assert_eq!(t.durations_ms("automata.glushkov").len(), 1);
        assert_eq!(t.durations_ms("eval.witness_check").len(), 1);
        assert_eq!(t.durations_ms("graph.delta_apply").len(), 1);
        assert!(t.open.is_empty());
        // Example 1's RTC: 3 closure pairs.
        assert_eq!(replay.readings.rtc_pairs[0], 3.0);
    }

    #[test]
    fn interleaving_honours_quotas() {
        assert_eq!(traced_ops(Workload::WarmReads).iter().sum::<usize>(), 464);
        for w in Workload::ALL {
            assert_eq!(
                traced_ops(w).len(),
                Plan::build(w, 1).conns.len(),
                "{}",
                w.name()
            );
        }
    }
}
