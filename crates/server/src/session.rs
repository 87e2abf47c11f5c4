//! Serving sessions: one connection's handle onto the shared state, its
//! per-connection overlay, and command dispatch.
//!
//! [`Session::execute`] is the single entry point for a request line, and
//! one crate-private loop over it serves both front-ends — the REPL feeds
//! it stdin, the TCP server a socket — so behaviour (and therefore
//! scripts) are identical across transports. Read commands serve from the
//! published view and write commands take the writer-half lock (see
//! [`crate::state`]); what a reply looks like is [`crate::reply`]'s.
//!
//! [`ConnectionOverlay`] holds the per-connection knobs: `strategy`
//! resolves against the base configuration at dispatch
//! ([`ConnectionOverlay::resolve`]) and is applied through
//! [`EpochView::evaluate_with`], and `limit` and `binary` shape the reply,
//! so one client switching to `FullSharing` or `binary on` never changes
//! what any other client sees.
//!
//! [`EpochView::evaluate_with`]: rpq_core::EpochView::evaluate_with

use crate::command::{parse_command, Command, DeltaOp, HELP};
use crate::reply;
pub use crate::reply::{Response, Status};
use crate::state::{EngineState, PublishedView, ServerState, SharedEngine};
use crate::wire::encode_pair_set;
use rpq_core::{Engine, EngineConfig, Strategy};
use rpq_graph::{GraphBuilder, GraphDelta, VersionedGraph, VertexId};
use rpq_regex::Regex;
use std::io::{BufRead, BufWriter, Read, Write};
use std::path::Path;
use std::sync::{Arc, RwLockReadGuard};
use std::time::Instant;

/// Per-connection overlay: evaluation knobs that belong to one client,
/// resolved against the engine's base configuration at dispatch time and
/// never written into shared state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConnectionOverlay {
    /// Strategy override (`strategy rtc|full|none`), if set.
    pub strategy: Option<Strategy>,
    /// Result pairs printed per query in text mode (0 = count only).
    pub limit: usize,
    /// Whether `query` results are sent as `RESULT-BIN` frames.
    pub binary: bool,
}

impl Default for ConnectionOverlay {
    fn default() -> Self {
        ConnectionOverlay {
            strategy: None,
            limit: 10,
            binary: false,
        }
    }
}

impl ConnectionOverlay {
    /// The effective configuration for this connection: the engine's base
    /// configuration with this connection's overrides applied.
    pub fn resolve(&self, base: &EngineConfig) -> EngineConfig {
        let mut config = *base;
        if let Some(s) = self.strategy {
            config.strategy = s;
        }
        config
    }
}

/// A serving session: one connection's handle onto the shared state.
///
/// Cloning the [`SharedEngine`] handle ([`Session::shared`]) and
/// [`Session::attach`]ing gives each TCP connection its own session — own
/// overlay, same engine — which is how the server keeps `strategy`,
/// `limit` and `binary` per-connection while every `query`
/// still lands in one shared epoch-aware cache.
pub struct Session {
    shared: SharedEngine,
    overlay: ConnectionOverlay,
}

impl Default for Session {
    fn default() -> Self {
        Self::new()
    }
}

/// A read guard over the writer-half state, dereferencing to the engine —
/// what [`Session::engine`] hands to inspection code and tests. Not used
/// on the query hot path, which serves from the published view instead.
pub struct EngineGuard<'a>(RwLockReadGuard<'a, EngineState>);

impl std::ops::Deref for EngineGuard<'_> {
    type Target = Engine<'static>;
    fn deref(&self) -> &Engine<'static> {
        &self.0.engine
    }
}

impl Session {
    /// A session over an empty graph with the default configuration.
    pub fn new() -> Session {
        Session::with_config(EngineConfig::default())
    }

    /// A session over an empty graph with an explicit base configuration
    /// (the `--strategy` startup flag lands here, so every
    /// later connection inherits them as the base the overlay resolves
    /// against).
    pub fn with_config(config: EngineConfig) -> Session {
        Session::from_engine(
            Engine::with_config_versioned(VersionedGraph::new(GraphBuilder::new().build()), config),
            "empty".to_string(),
        )
    }

    /// A session over an existing engine (used by `--load` startup and by
    /// tests). Publishes the engine's current state as epoch view zero.
    pub fn from_engine(engine: Engine<'static>, source: String) -> Session {
        Session::attach(Arc::new(ServerState::new(engine, source)))
    }

    /// A new session — fresh overlay — onto existing shared state: one of
    /// these per TCP connection.
    pub fn attach(shared: SharedEngine) -> Session {
        Session {
            shared,
            overlay: ConnectionOverlay::default(),
        }
    }

    /// The shared-state handle, for attaching further sessions.
    pub fn shared(&self) -> SharedEngine {
        Arc::clone(&self.shared)
    }

    /// This connection's overlay, for inspection.
    pub fn overlay(&self) -> &ConnectionOverlay {
        &self.overlay
    }

    /// Read access to the engine (a read-lock guard on the writer half —
    /// inspection only; the serving read path uses the published view).
    pub fn engine(&self) -> EngineGuard<'_> {
        EngineGuard(self.shared.read())
    }

    /// The serve loop both front-ends run: reads request lines until EOF
    /// or `quit` and answers each into one `BufWriter` over `output`,
    /// flushed once per reply — a reply that fits the buffer leaves in one
    /// `write`. A line that is not UTF-8 is answered with `ERR` and serving
    /// goes on. `prompt`, if any, goes to stderr before each read. Returns
    /// the number of replies sent; an I/O error on either side ends the
    /// loop (the peer is gone), while command errors are `ERR` replies.
    pub(crate) fn serve<R: BufRead, W: Write>(
        &mut self,
        mut input: R,
        output: W,
        prompt: Option<&str>,
    ) -> std::io::Result<u64> {
        let mut output = BufWriter::new(output);
        let mut line = Vec::new();
        let mut replies = 0u64;
        loop {
            if let Some(prompt) = prompt {
                eprint!("{prompt}");
                let _ = std::io::stderr().flush();
            }
            line.clear();
            if input.read_until(b'\n', &mut line)? == 0 {
                return Ok(replies);
            }
            let response = match std::str::from_utf8(&line) {
                Ok(text) => match self.execute(text) {
                    Some(response) => response,
                    None => continue,
                },
                Err(_) => Response::err("request is not valid UTF-8"),
            };
            replies += 1;
            response.write_to(&mut output)?;
            output.flush()?;
            if response.quit {
                return Ok(replies);
            }
        }
    }

    /// Parses and executes one request line.
    pub fn execute(&mut self, line: &str) -> Option<Response> {
        let response = parse_command(line)
            .transpose()?
            .and_then(|cmd| self.run(cmd));
        Some(response.unwrap_or_else(Response::err))
    }

    fn run(&mut self, cmd: Command) -> Result<Response, String> {
        match cmd {
            // ── lock-free: help, connection end, overlay updates ──────
            Command::Help => Ok(Response::ok(format!("{} commands", HELP.len()))
                .with_lines(HELP.iter().map(|s| s.to_string()).collect())),
            Command::Quit => Ok(Response {
                quit: true,
                ..Response::ok("bye")
            }),
            Command::SetStrategy(s) => {
                self.overlay.strategy = Some(s);
                Ok(Response::ok(format!("strategy {s} (this connection)")))
            }
            Command::SetLimit(n) => {
                self.overlay.limit = n;
                Ok(Response::ok(format!("limit {n}")))
            }
            Command::SetBinary(on) => {
                self.overlay.binary = on;
                let on = if on { "on" } else { "off" };
                Ok(Response::ok(format!("binary {on}")))
            }

            // ── read path: served from the published view, no state
            //    lock ever taken ────────────────────────────────────────
            Command::Info => Ok(reply::info(
                &self.shared.current(),
                &self.overlay,
                &self.shared,
            )),
            Command::Epoch => Ok(Response::ok(format!(
                "epoch {}",
                self.shared.current().epoch()
            ))),
            Command::Query { query, at } => self.query(&query, at),
            Command::Check {
                src,
                dst,
                query,
                at,
            } => {
                let (q, published) = self.parse_at(&query, at, "bad RPQ")?;
                let found = published.view().check(&q, VertexId(src), VertexId(dst));
                Ok(Response::ok(format!(
                    "{} path v{src} -> v{dst} for {q}{}",
                    if found { "found" } else { "no" },
                    reply::at_suffix(at)
                )))
            }
            Command::Ends { src, query, at } => {
                let (q, published) = self.parse_at(&query, at, "bad RPQ")?;
                let ends = published.view().ends_from(&q, VertexId(src));
                let status = format!(
                    "{} end vertices from v{src}{}",
                    ends.len(),
                    reply::at_suffix(at)
                );
                Ok(Response::ok(status).with_lines(reply::ends_lines(&ends, self.overlay.limit)))
            }
            Command::Metrics => Ok(reply::metrics(self.shared.current().view(), &self.shared)),
            Command::Cache => {
                let published = self.shared.current();
                let view = published.view();
                let strategy = self.overlay.resolve(view.config()).strategy;
                Ok(reply::cache(view, strategy))
            }
            Command::Export(path) => {
                let published = self.shared.current();
                let g = published.view().graph();
                rpq_datasets::io::save_graph(g, Path::new(&path))
                    .map_err(|e| format!("cannot export '{path}': {e}"))?;
                Ok(Response::ok(format!(
                    "edge list '{path}': {} edges",
                    g.edge_count()
                )))
            }

            // ── write path: exclusive under the write lock, each
            //    mutation publishing a fresh epoch view ─────────────────
            Command::Load(path) => self.load(&path),
            Command::Save(path) => self.save(&path),
            Command::GenPaper => Ok(self.install_graph(
                VersionedGraph::new(rpq_graph::fixtures::paper_graph()),
                "paper".to_string(),
                "loaded paper graph",
            )),
            Command::GenRmat { n, scale, seed } => Ok(self.install_graph(
                VersionedGraph::new(rpq_datasets::rmat::rmat_n_scaled(n, scale, seed)),
                format!("rmat_{n}@2^{scale}#{seed}"),
                "generated RMAT graph",
            )),
            Command::Prepare(text) => {
                let q = Regex::parse(&text).map_err(|e| format!("bad RPQ: {e}"))?;
                // Deliberately on the write path: the cache interior would
                // tolerate a concurrent warm-up, but `prepare` exists to
                // front-load shared work at a predictable moment, and
                // letting it race ongoing queries makes its
                // computed/reused report nondeterministic. No republish:
                // the published view shares the structural cache `Arc`, so
                // warmed structures are visible to it the moment the lock
                // drops.
                let state = self.shared.write();
                let config = self.overlay.resolve(state.engine.config());
                let report = state
                    .engine
                    .prepare_with(std::slice::from_ref(&q), config)
                    .map_err(|e| format!("prepare failed: {e}"))?;
                Ok(Response::ok(format!(
                    "prepared: {} bodies computed, {} reused, {} shared pairs",
                    report.bodies_computed, report.bodies_reused, report.shared_pairs
                )))
            }
            Command::Delta(ops) => Ok(self.delta(&ops)),
            Command::Reset { cache_too } => {
                let state = self.shared.write();
                if cache_too {
                    state.engine.clear_cache();
                    Ok(Response::ok(
                        "cache cleared (structures and results dropped, counters reset)",
                    ))
                } else {
                    state.engine.reset_metrics();
                    self.shared.reset_publish_stats();
                    Ok(Response::ok("metrics reset (cached structures kept)"))
                }
            }
        }
    }

    /// The preamble of every read command that takes an RPQ: parse it
    /// (a parse error is prefixed with `parse_err`), then resolve which
    /// published view it addresses — the current one, or for
    /// `… at <epoch>` a retained older one.
    fn parse_at(
        &self,
        text: &str,
        at: Option<u64>,
        parse_err: &str,
    ) -> Result<(Regex, Arc<PublishedView>), String> {
        let q = Regex::parse(text).map_err(|e| format!("{parse_err}: {e}"))?;
        let published = match at {
            None => self.shared.current(),
            Some(epoch) => self.shared.view_at(epoch)?,
        };
        Ok((q, published))
    }

    fn query(&self, text: &str, at: Option<u64>) -> Result<Response, String> {
        let (q, published) = self.parse_at(text, at, "query failed")?;
        let view = published.view();
        let config = self.overlay.resolve(view.config());
        let t = Instant::now();
        let result = view
            .evaluate_with(&q, config)
            .map_err(|e| format!("query failed: {e}"))?;
        let status = format!(
            "{} pairs in {:.2?}{}",
            result.len(),
            t.elapsed(),
            reply::at_suffix(at)
        );
        // Binary mode ships the *complete* result set — the frame exists
        // for exactly the responses too large to print — so `limit` only
        // governs text mode.
        Ok(if self.overlay.binary {
            Response::ok(status).with_binary(encode_pair_set(&result))
        } else {
            Response::ok(status).with_lines(reply::pair_lines(&result, self.overlay.limit))
        })
    }

    fn load(&self, path: &str) -> Result<Response, String> {
        let p = Path::new(path);
        // An engine snapshot (graph + warm cache) is sniffed by its magic;
        // anything else is read as an edge list.
        let mut head = [0u8; 8];
        let n = std::fs::File::open(p)
            .map_err(|e| format!("cannot open '{path}': {e}"))?
            .read(&mut head)
            .unwrap_or(0);
        if !rpq_core::snapshot::matches_magic(&head[..n]) {
            let graph = rpq_datasets::io::load_versioned(p)
                .map_err(|e| format!("cannot load '{path}': {e}"))?;
            return Ok(self.install_graph(graph, path.to_string(), &format!("loaded '{path}'")));
        }
        let config = *self.shared.current().view().config();
        let engine = rpq_core::snapshot::load_snapshot(p, config)
            .map_err(|e| format!("cannot load engine snapshot '{path}': {e}"))?;
        let g = engine.graph();
        let summary = format!(
            "warm restart: {} vertices, {} edges, epoch {}, {} cached structures",
            g.vertex_count(),
            g.edge_count(),
            engine.epoch(),
            engine.cache().occupancy_entries(),
        );
        self.install(engine, path.to_string());
        Ok(Response::ok(summary))
    }

    /// The step every graph-installing command (`gen paper`, `gen rmat`,
    /// an edge-list `load`) shares: a fresh engine over `graph` under the
    /// base configuration, installed, summarised as `what`.
    fn install_graph(&self, graph: VersionedGraph, source: String, what: &str) -> Response {
        let config = *self.shared.current().view().config();
        let engine = Engine::with_config_versioned(graph, config);
        let summary = reply::graph_summary(what, engine.graph());
        self.install(engine, source);
        summary
    }

    /// Makes `engine` the serving engine and publishes it with a ring
    /// reset: epochs of different graphs are not comparable, and the old
    /// engine's cached structures describe the old graph.
    fn install(&self, engine: Engine<'static>, source: String) {
        let mut state = self.shared.write();
        *state = EngineState { engine, source };
        self.shared.publish_locked(&state, true);
    }

    fn save(&self, path: &str) -> Result<Response, String> {
        let state = self.shared.write();
        let written = rpq_core::snapshot::save_snapshot(&state.engine, Path::new(path))
            .map_err(|e| format!("cannot save '{path}': {e}"))?;
        // The file holds every fresh entry; the rest of the cache was
        // stale. Readers never take the state lock, so count it without
        // underflow.
        let stale = state
            .engine
            .cache()
            .occupancy_entries()
            .saturating_sub(written);
        let dropped = if stale > 0 {
            format!(" ({stale} stale dropped)")
        } else {
            String::new()
        };
        Ok(Response::ok(format!(
            "snapshot '{path}': epoch {}, {written} cached structures{dropped}",
            state.engine.epoch(),
        )))
    }

    fn delta(&self, ops: &[DeltaOp]) -> Response {
        let mut delta = GraphDelta::new();
        for op in ops {
            match op {
                DeltaOp::Insert(s, l, d) => {
                    delta.insert(*s, l, *d);
                }
                DeltaOp::Delete(s, l, d) => {
                    delta.delete(*s, l, *d);
                }
                DeltaOp::Grow(n) => {
                    delta.ensure_vertices(*n);
                }
            }
        }
        let mut state = self.shared.write();
        let summary = state.engine.apply_delta(&delta);
        // Publish epoch N+1 while still holding the write lock: readers
        // keep serving epoch N from the old view until the swap, then
        // pick up N+1 — there is no moment where queries block.
        self.shared.publish_locked(&state, false);
        Response::ok(format!(
            "epoch {}: +{} -{} edges, {} new labels, {} new vertices",
            summary.epoch,
            summary.edges_inserted,
            summary.edges_deleted,
            summary.new_labels,
            summary.new_vertices,
        ))
    }
}

/// Builds the startup engine config from the binary's flags: the
/// `--strategy` override resolves like a connection's, and a
/// `--cache-budget` flag overrides the `RPQ_CACHE_BUDGET` environment
/// default already folded into [`EngineConfig::default`].
pub fn startup_config(
    strategy: Option<Strategy>,
    cache_budget: Option<rpq_core::CacheBudget>,
) -> EngineConfig {
    let flags = ConnectionOverlay {
        strategy,
        ..ConnectionOverlay::default()
    };
    let mut config = flags.resolve(&EngineConfig::default());
    if let Some(b) = cache_budget {
        config.cache_budget = b;
    }
    config
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::state::RETAINED_VIEWS;

    fn ok_summary(r: Option<Response>) -> String {
        match r.expect("command produced a response").status {
            Status::Ok(s) => s,
            Status::Err(e) => panic!("expected OK, got ERR {e}"),
        }
    }

    fn err_message(r: Option<Response>) -> String {
        match r.expect("command produced a response").status {
            Status::Err(e) => e,
            Status::Ok(s) => panic!("expected ERR, got OK {s}"),
        }
    }

    #[test]
    fn paper_graph_query_flow() {
        let mut s = Session::new();
        ok_summary(s.execute("gen paper"));
        let r = s.execute("query d.(b.c)+.c").unwrap();
        assert_eq!(r.lines, vec!["  v7 -> v3", "  v7 -> v5"]);
        assert!(matches!(r.status, Status::Ok(ref m) if m.starts_with("2 pairs")));
        // Second evaluation is a result-cache view hit.
        ok_summary(s.execute("query d.(b.c)+.c"));
        assert!(s.engine().results().hits() >= 1);
    }

    /// ISSUE 7 satellite: `info`, `metrics` and `cache` surface the heap
    /// bytes held by the hybrid structural tables.
    #[test]
    fn memory_metrics_expose_structural_heap_bytes() {
        let mut s = Session::new();
        ok_summary(s.execute("gen paper"));
        ok_summary(s.execute("query d.(b.c)+.c"));
        assert!(s.engine().structural_heap_bytes() > 0);
        let info = ok_summary(s.execute("info"));
        assert!(info.contains("structural"), "{info}");
        let m = s.execute("metrics").unwrap();
        assert!(
            m.lines
                .iter()
                .any(|l| l.contains("memory: structural=") && !l.contains("structural=0 B")),
            "{:?}",
            m.lines
        );
        let c = s.execute("cache").unwrap();
        assert!(
            c.lines.iter().any(|l| l.contains("B structural heap")),
            "{:?}",
            c.lines
        );
    }

    #[test]
    fn limit_caps_printed_pairs() {
        let mut s = Session::new();
        s.execute("gen paper");
        ok_summary(s.execute("limit 1"));
        let r = s.execute("query d.(b.c)+.c").unwrap();
        assert_eq!(r.lines.len(), 2); // one pair + the "... more" line
        assert!(r.lines[1].contains("1 more"));
    }

    #[test]
    fn limit_zero_is_count_only_for_query_and_ends() {
        let mut s = Session::new();
        s.execute("gen paper");
        ok_summary(s.execute("limit 0"));
        let r = s.execute("query d.(b.c)+.c").unwrap();
        assert!(r.lines.is_empty(), "{:?}", r.lines);
        assert!(matches!(r.status, Status::Ok(ref m) if m.starts_with("2 pairs")));
        let r = s.execute("ends 7 d.(b.c)+.c").unwrap();
        assert!(r.lines.is_empty(), "{:?}", r.lines);
        assert!(matches!(r.status, Status::Ok(ref m) if m.starts_with("2 end vertices")));
    }

    /// A source the graph lacks starts no path, and the session keeps
    /// serving.
    #[test]
    fn ends_from_a_vertex_the_graph_lacks() {
        let mut s = Session::new();
        s.execute("gen paper");
        let ends = ok_summary(s.execute("ends 999 a*"));
        assert_eq!(ends, "0 end vertices from v999");
        assert!(ok_summary(s.execute("query d.(b.c)+.c")).starts_with("2 pairs"));
    }

    #[test]
    fn delta_then_query_sees_the_mutation() {
        let mut s = Session::new();
        s.execute("gen paper");
        ok_summary(s.execute("query (b.c)+"));
        let summary = ok_summary(s.execute("delta ins 6 b 8 ins 8 c 6"));
        assert!(summary.starts_with("epoch 1: +2 -0"), "{summary}");
        let r = s.execute("query (b.c)+").unwrap();
        assert!(matches!(r.status, Status::Ok(ref m) if !m.starts_with("10 pairs")));
        assert!(s.engine().cache().stale_hits() >= 1);
    }

    #[test]
    fn query_at_pins_an_older_epoch() {
        let mut s = Session::new();
        s.execute("gen paper");
        let before = s.execute("query (b.c)+").unwrap();
        s.execute("delta ins 6 b 8 ins 8 c 6");
        let after = s.execute("query (b.c)+").unwrap();
        assert_ne!(before.lines, after.lines, "delta must move the result");
        // Time travel back to epoch 0 reproduces the old result exactly.
        let pinned = s.execute("query (b.c)+ at 0").unwrap();
        assert_eq!(pinned.lines, before.lines);
        assert!(
            matches!(pinned.status, Status::Ok(ref m) if m.ends_with("(at epoch 0)")),
            "{:?}",
            pinned.status
        );
        // The current epoch is addressable too, and agrees with the live
        // answer.
        let at_live = s.execute("query (b.c)+ at 1").unwrap();
        assert_eq!(at_live.lines, after.lines);
        // check/ends accept the suffix as well.
        assert!(ok_summary(s.execute("check 6 6 (b.c)+ at 1")).starts_with("found path"));
        assert!(ok_summary(s.execute("check 6 6 (b.c)+ at 0")).starts_with("no path"));
        let r = s.execute("ends 5 (b.c)+ at 0").unwrap();
        assert!(matches!(r.status, Status::Ok(ref m) if m.contains("(at epoch 0)")));
    }

    #[test]
    fn evicted_and_unknown_epochs_are_clean_errors() {
        let mut s = Session::new();
        s.execute("gen paper");
        let e = err_message(s.execute("query (b.c)+ at 99"));
        assert!(e.contains("epoch 99 not retained"), "{e}");
        assert!(e.contains("epochs 0..0"), "{e}");
        // Push epoch 0 out of the ring with RETAINED_VIEWS fresh epochs.
        for i in 0..RETAINED_VIEWS {
            ok_summary(s.execute(&format!("delta ins 0 zz {}", i + 1)));
        }
        assert_eq!(s.shared().retained_views(), RETAINED_VIEWS);
        let e = err_message(s.execute("query (b.c)+ at 0"));
        assert!(e.contains("epoch 0 not retained"), "{e}");
        assert!(e.contains(&format!("epochs 1..{}", RETAINED_VIEWS)), "{e}");
    }

    /// The result instance follows the ring, one epoch behind: results of
    /// epochs no retained view can reach are gone, retained ones still hit.
    #[test]
    fn results_of_unretained_epochs_are_dropped() {
        let mut s = Session::new();
        s.execute("gen paper");
        for i in 0..RETAINED_VIEWS + 3 {
            ok_summary(s.execute(&format!("delta ins 0 zz {}", i + 1)));
            ok_summary(s.execute("query (b.c)+"));
        }
        let (oldest, newest, views) = s.shared().retained_span();
        assert_eq!((newest, views), (RETAINED_VIEWS as u64 + 3, RETAINED_VIEWS));
        let results = |s: &Session| {
            let r = s.shared().current();
            let r = r.view().results();
            (r.occupancy_entries(), r.hits(), r.misses())
        };
        // One memoized result per epoch, and the last delta ran while the
        // slot its publish evicted was still pinned.
        let (entries, ..) = results(&s);
        assert!(entries <= RETAINED_VIEWS + 1, "{entries} results held");

        let at_oldest = format!("query c.(b.c)+ at {oldest}");
        ok_summary(s.execute(&at_oldest));
        let (_, hits, misses) = results(&s);
        ok_summary(s.execute(&at_oldest));
        assert_eq!(results(&s), (entries + 1, hits + 1, misses));

        let e = err_message(s.execute(&format!("query (b.c)+ at {}", oldest - 1)));
        assert!(e.contains("not retained"), "{e}");
    }

    #[test]
    fn graph_replacement_clears_the_retention_ring() {
        let mut s = Session::new();
        s.execute("gen paper");
        s.execute("delta ins 0 zz 1");
        assert_eq!(s.shared().retained_views(), 2);
        // `gen` replaces the graph: old epochs are meaningless now.
        s.execute("gen paper");
        assert_eq!(s.shared().retained_views(), 1);
        let e = err_message(s.execute("query (b.c)+ at 1"));
        assert!(e.contains("not retained"), "{e}");
    }

    #[test]
    fn reads_never_touch_the_state_lock() {
        let mut s = Session::new();
        s.execute("gen paper");
        // Hold the writer-half lock exclusively; every read command must
        // still answer (from the published view).
        let shared = s.shared();
        let _write_guard = shared.write();
        ok_summary(s.execute("query d.(b.c)+.c"));
        ok_summary(s.execute("epoch"));
        ok_summary(s.execute("info"));
        ok_summary(s.execute("metrics"));
        ok_summary(s.execute("cache"));
        ok_summary(s.execute("check 7 5 d.(b.c)+.c"));
        ok_summary(s.execute("ends 7 d.(b.c)+.c"));
    }

    #[test]
    fn publish_metrics_and_reset() {
        let mut s = Session::new();
        s.execute("gen paper");
        s.execute("delta ins 0 zz 1");
        let shared = s.shared();
        assert!(shared.publishes() >= 2); // gen + delta
        let r = s.execute("metrics").unwrap();
        assert!(
            r.lines.iter().any(|l| l.contains("publishes")),
            "{:?}",
            r.lines
        );
        assert!(
            r.lines.iter().any(|l| l.contains("view hits")),
            "{:?}",
            r.lines
        );
        // `reset metrics` clears publish stats and result-cache counters
        // together with the engine counters.
        s.execute("query (b.c)+");
        s.execute("query (b.c)+");
        assert!(shared.current().view().results().hits() >= 1);
        ok_summary(s.execute("reset metrics"));
        assert_eq!(shared.publishes(), 0);
        assert_eq!(shared.current().view().results().hits(), 0);
        // The memoized results themselves survive a metrics reset…
        assert!(shared.current().view().results().occupancy_entries() > 0);
        // …and are dropped by `reset cache`.
        ok_summary(s.execute("reset cache"));
        assert_eq!(shared.current().view().results().occupancy_entries(), 0);
    }

    #[test]
    fn strategy_switch_keeps_serving() {
        let mut s = Session::new();
        s.execute("gen paper");
        let rtc = s.execute("query d.(b.c)+.c").unwrap();
        ok_summary(s.execute("strategy full"));
        let full = s.execute("query d.(b.c)+.c").unwrap();
        ok_summary(s.execute("strategy none"));
        let none = s.execute("query d.(b.c)+.c").unwrap();
        assert_eq!(rtc.lines, full.lines);
        assert_eq!(rtc.lines, none.lines);
    }

    #[test]
    fn strategy_is_overlay_not_engine_state() {
        let mut a = Session::new();
        a.execute("gen paper");
        let mut b = Session::attach(a.shared());
        // a switches strategy; the engine base config — and therefore b's
        // resolved view — must not move.
        ok_summary(a.execute("strategy full"));
        assert_eq!(a.engine().config().strategy, Strategy::RtcSharing);
        let a_info = ok_summary(a.execute("info"));
        assert!(
            a_info.contains("strategy FullSharing, limit 10"),
            "{a_info}"
        );
        let b_info = ok_summary(b.execute("info"));
        assert!(b_info.contains("strategy RTCSharing, limit 10"), "{b_info}");
        // Both still agree on results, of course.
        let ra = a.execute("query d.(b.c)+.c").unwrap();
        let rb = b.execute("query d.(b.c)+.c").unwrap();
        assert_eq!(ra.lines, rb.lines);
    }

    #[test]
    fn threads_is_an_unknown_command_and_the_session_keeps_serving() {
        let mut s = Session::new();
        s.execute("gen paper");
        let e = err_message(s.execute("threads 2"));
        assert_eq!(e, "unknown command 'threads' (try 'help')");
        let info = ok_summary(s.execute("info"));
        assert!(!info.contains("threads"), "{info}");
        let r = s.execute("query d.(b.c)+.c").unwrap();
        assert_eq!(r.lines, vec!["  v7 -> v3", "  v7 -> v5"]);
    }

    #[test]
    fn binary_mode_frames_the_result() {
        let mut s = Session::new();
        s.execute("gen paper");
        ok_summary(s.execute("binary on"));
        let r = s.execute("query d.(b.c)+.c").unwrap();
        assert!(r.lines.is_empty(), "binary responses carry no text payload");
        let bin = r.binary.expect("binary frame present");
        assert_eq!(bin.pairs, 2);
        let pairs = crate::wire::decode_pairs(&bin.bytes, bin.pairs).unwrap();
        assert_eq!(pairs, vec![(7, 3), (7, 5)]);
        // Off again: text payload returns.
        ok_summary(s.execute("binary off"));
        let r = s.execute("query d.(b.c)+.c").unwrap();
        assert!(r.binary.is_none());
        assert_eq!(r.lines.len(), 2);
    }

    #[test]
    fn check_and_ends() {
        let mut s = Session::new();
        s.execute("gen paper");
        assert!(ok_summary(s.execute("check 7 5 d.(b.c)+.c")).starts_with("found path"));
        assert!(ok_summary(s.execute("check 7 4 d.(b.c)+.c")).starts_with("no path"));
        let r = s.execute("ends 7 d.(b.c)+.c").unwrap();
        assert_eq!(r.lines, vec!["  v3 v5"]);
    }

    #[test]
    fn save_load_roundtrip_is_warm() {
        let dir = std::env::temp_dir().join("rpq_session_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("session.snap");
        let path_str = path.to_str().unwrap();

        let mut s = Session::new();
        s.execute("gen paper");
        s.execute("query d.(b.c)+.c");
        let summary = ok_summary(s.execute(&format!("save {path_str}")));
        assert!(summary.contains("1 cached structures"), "{summary}");

        let mut fresh = Session::new();
        let summary = ok_summary(fresh.execute(&format!("load {path_str}")));
        assert!(summary.starts_with("warm restart"), "{summary}");
        fresh.execute("query d.(b.c)+.c");
        assert_eq!(fresh.engine().cache().misses(), 0);
        assert!(fresh.engine().cache().hits() >= 1);
        std::fs::remove_file(&path).ok();
    }

    /// A request past the `u32` vertex id space — from `gen`, `delta` or an
    /// edge list given to `load` — is an `ERR`, and the session keeps
    /// serving the graph and epoch it had.
    #[test]
    fn vertex_counts_past_the_id_space_are_errors_and_the_graph_kept() {
        let dir = std::env::temp_dir().join("rpq_session_test");
        std::fs::create_dir_all(&dir).unwrap();
        let (header, edge) = (dir.join("huge_header.el"), dir.join("huge_edge.el"));
        std::fs::write(&header, "# vertices 99999999999\n0 a 1\n").unwrap();
        std::fs::write(&edge, "0 a 4294967295\n").unwrap();

        let mut s = Session::new();
        s.execute("gen paper");
        ok_summary(s.execute("delta ins 0 zz 1"));
        let before = ok_summary(s.execute("info"));
        assert!(before.contains("10 vertices, 16 edges"), "{before}");
        for line in [
            "gen rmat 60 10 1".to_string(),
            "gen rmat 2 64 1".to_string(),
            "gen rmat 2 40 1".to_string(),
            "delta ins 1 a 4294967295".to_string(),
            format!("load {}", header.display()),
            format!("load {}", edge.display()),
        ] {
            let e = err_message(s.execute(&line));
            assert!(e.contains("4294967295"), "{line}: {e}");
            assert_eq!(ok_summary(s.execute("info")), before, "after {line}");
        }
        std::fs::remove_file(&header).ok();
        std::fs::remove_file(&edge).ok();
    }

    /// An engine snapshot of an older format version is refused with its
    /// version named, and the session keeps serving the graph it had.
    #[test]
    fn an_older_snapshot_version_is_refused_and_the_graph_kept() {
        let dir = std::env::temp_dir().join("rpq_session_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("version2.snap");
        let path_str = path.to_str().unwrap();

        let mut s = Session::new();
        s.execute("gen paper");
        ok_summary(s.execute(&format!("save {path_str}")));
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[7] = b'2';
        std::fs::write(&path, bytes).unwrap();

        s.execute("gen rmat 1 6 3");
        let edges = s.engine().graph().edge_count();
        let e = err_message(s.execute(&format!("load {path_str}")));
        assert!(e.contains("version '2'"), "{e}");
        assert_eq!(s.engine().graph().edge_count(), edges);
        assert!(ok_summary(s.execute("info")).contains(&format!("{edges} edges")));
        std::fs::remove_file(&path).ok();
    }

    /// A file holding only a graph section (`RPQGSNP1`, with no engine
    /// snapshot around it) is not a format `load` reads: it replies `ERR`
    /// and the session keeps serving the graph it had.
    #[test]
    fn a_bare_graph_section_is_refused_and_the_graph_kept() {
        let dir = std::env::temp_dir().join("rpq_session_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("graph-only.snap");
        let path_str = path.to_str().unwrap();
        let mut bytes = Vec::new();
        rpq_graph::snapshot::write_graph_snapshot(
            &rpq_graph::fixtures::paper_graph(),
            3,
            &mut bytes,
        )
        .unwrap();
        std::fs::write(&path, bytes).unwrap();

        let mut s = Session::new();
        s.execute("gen rmat 1 6 3");
        let edges = s.engine().graph().edge_count();
        let e = err_message(s.execute(&format!("load {path_str}")));
        assert!(e.starts_with(&format!("cannot load '{path_str}'")), "{e}");
        assert_eq!(s.engine().graph().edge_count(), edges);
        assert!(ok_summary(s.execute("info")).contains(&format!("{edges} edges")));
        assert!(ok_summary(s.execute("query l0+")).contains(" pairs in "));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn errors_do_not_kill_the_session() {
        let mut s = Session::new();
        s.execute("gen paper");
        assert!(matches!(
            s.execute("query (((").unwrap().status,
            Status::Err(_)
        ));
        assert!(matches!(
            s.execute("load /no/such/file").unwrap().status,
            Status::Err(_)
        ));
        assert!(matches!(
            s.execute("bogus command").unwrap().status,
            Status::Err(_)
        ));
        // Still serving.
        ok_summary(s.execute("query d.(b.c)+.c"));
    }

    #[test]
    fn quit_sets_the_flag() {
        let mut s = Session::new();
        let r = s.execute("quit").unwrap();
        assert!(r.quit);
        assert!(matches!(r.status, Status::Ok(ref m) if m == "bye"));
    }

    /// A sink that counts the `write` calls reaching it.
    #[derive(Default)]
    struct CountingSink {
        writes: usize,
        bytes: Vec<u8>,
    }

    impl Write for CountingSink {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.writes += 1;
            self.bytes.extend_from_slice(buf);
            Ok(buf.len())
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    /// Every reply smaller than the buffer — status-only, text payload,
    /// binary frame, multi-line, error, `quit` — costs exactly one write.
    #[test]
    fn each_reply_leaves_in_one_write() {
        let script = "gen paper\nquery d.(b.c)+.c\nbinary on\nquery d.(b.c)+.c\n\
                      metrics\nbogus\nquit\nquery never.reached\n";
        let mut sink = CountingSink::default();
        let replies = Session::new()
            .serve(script.as_bytes(), &mut sink, None)
            .unwrap();
        assert_eq!(replies, 7);
        assert_eq!(sink.writes, 7, "one write per reply");
        let text = String::from_utf8_lossy(&sink.bytes);
        assert!(
            text.contains("  v7 -> v3\n  v7 -> v5\nOK 2 pairs"),
            "{text}"
        );
        assert!(text.contains("RESULT-BIN 16 2\n"), "{text}");
        assert!(text.ends_with("OK bye\n"), "{text}");
    }

    /// `save` reports what the file holds: every fresh entry, even past a
    /// bounded budget the pinned cache exceeds. A `load` under that budget
    /// ends within it.
    #[test]
    fn save_reports_the_entries_it_wrote() {
        let config = EngineConfig {
            cache_budget: rpq_core::CacheBudget {
                max_entries: Some(1),
                ..rpq_core::CacheBudget::default()
            },
            ..EngineConfig::default()
        };
        let dir = std::env::temp_dir().join("rpq_session_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("over-budget.snap");
        let path_str = path.to_str().unwrap();

        let mut s = Session::with_config(config);
        s.execute("gen paper");
        ok_summary(s.execute("query (b.c)+"));
        ok_summary(s.execute("query (a.b)+"));
        assert_eq!(
            s.engine().cache().occupancy_entries(),
            2,
            "pinned over budget"
        );
        let saved = ok_summary(s.execute(&format!("save {path_str}")));
        let loaded = ok_summary(Session::with_config(config).execute(&format!("load {path_str}")));
        let count = |summary: &str| summary.rsplit(", ").next().unwrap().to_string();
        assert_eq!(count(&saved), "2 cached structures", "{saved}");
        assert_eq!(count(&loaded), "1 cached structures", "{loaded}");
        std::fs::remove_file(&path).ok();
    }

    /// `save` writes `<path>.tmp` and renames it over `<path>`: a save
    /// that fails leaves the previous snapshot whole.
    #[test]
    fn failed_save_keeps_the_previous_snapshot() {
        let dir = std::env::temp_dir().join("rpq_session_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("atomic.snap");
        let tmp = dir.join("atomic.snap.tmp");
        std::fs::remove_dir_all(&tmp).ok();
        let path_str = path.to_str().unwrap();

        let mut s = Session::new();
        s.execute("gen paper");
        s.execute("query d.(b.c)+.c");
        ok_summary(s.execute(&format!("save {path_str}")));
        assert!(!tmp.exists(), "the temporary file was renamed away");

        std::fs::create_dir(&tmp).unwrap();
        s.execute("query (a.b)+");
        let e = err_message(s.execute(&format!("save {path_str}")));
        assert!(e.starts_with(&format!("cannot save '{path_str}'")), "{e}");
        let loaded = ok_summary(Session::new().execute(&format!("load {path_str}")));
        assert!(loaded.ends_with(", 1 cached structures"), "{loaded}");
        std::fs::remove_dir(&tmp).ok();
        std::fs::remove_file(&path).ok();
    }
}
