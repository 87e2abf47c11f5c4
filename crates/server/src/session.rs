//! Serving sessions: MVCC epoch views published by swap, plus
//! per-connection overlay state.
//!
//! The serving state is split in three, and the split is the whole point:
//!
//! * [`EngineState`] — the **writer** half: one long-lived [`Engine`]
//!   (owning its graph, epoch-aware cache attached) plus the loaded-graph
//!   name, behind a `RwLock` that only **mutating** commands (`load`,
//!   `save`, `gen`, `delta`, `prepare`, `reset`) ever take. Writers
//!   serialize against each other; they never block a reader.
//! * [`PublishedView`] — the **reader** half: an immutable
//!   [`EpochView`] (frozen copy-on-write graph snapshot + shared cache
//!   handles) published after every mutation. Read-only commands
//!   (`query`, `check`, `ends`, `info`, `metrics`, `cache`, `epoch`,
//!   `export`) grab the current view with one `Arc` clone from the back
//!   of the retention ring — the state lock is **never** acquired on the
//!   read path — and
//!   evaluate against that pinned epoch no matter how many writers
//!   publish meanwhile. A short ring of recent views
//!   ([`ServerState::retained_views`], default [`RETAINED_VIEWS`]) backs
//!   `query … at <epoch>` time travel; asking for an evicted epoch is a
//!   clean `ERR`.
//! * [`ConnectionOverlay`] — the **per-connection** half: `strategy`,
//!   `threads`, `limit` and `binary` are connection-local. They resolve
//!   against the base configuration at dispatch
//!   ([`ConnectionOverlay::resolve`]) and are applied through
//!   [`EpochView::evaluate_with`], so one client switching to
//!   `FullSharing` or `binary on` never changes what any other client
//!   sees.
//!
//! The publish protocol: a writer mutates the engine under the write
//! lock, pins a fresh [`EpochView`] (`Engine::pin` — O(dirty rows), the
//! untouched adjacency rows are `Arc`-shared with every older view), and
//! pushes it onto the ring. Readers holding older views keep them alive
//! through their `Arc`s and observe bitwise-identical results before,
//! during and after the publication. Graph *replacement* (`load`, `gen`)
//! clears the ring first — epochs of different graphs are not comparable.
//!
//! [`Session::execute`] is the single entry point both front-ends call —
//! the REPL feeds it stdin lines, the TCP server feeds it socket lines —
//! so behaviour (and therefore scripts) are identical across transports.

use crate::command::{parse_command, Command, DeltaOp, HELP};
use crate::wire::{encode_pair_set, BinaryResult};
use rpq_core::{
    Engine, EngineConfig, EpochView, SharingKind, Strategy, DEFAULT_RESULT_CACHE_ENTRIES,
};
use rpq_graph::{GraphBuilder, GraphDelta, VersionedGraph};
use std::collections::VecDeque;
use std::io::Write as IoWrite;
use std::path::Path;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard};
use std::time::{Duration, Instant};

/// How many recent epoch views the server retains for `… at <epoch>`
/// time travel (including the current one).
pub const RETAINED_VIEWS: usize = 8;

/// Default cap on simultaneous TCP connections (`rpq serve --max-conns`).
pub const DEFAULT_MAX_CONNS: usize = 256;

/// Result of executing one command line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Response {
    /// Payload lines (never starting with `OK`/`ERR` — the framing
    /// invariant of the line protocol).
    pub lines: Vec<String>,
    /// A binary result frame (`RESULT-BIN`), present instead of pair
    /// payload lines when the connection opted in with `binary on`.
    pub binary: Option<BinaryResult>,
    /// Final status line, without its `OK `/`ERR ` prefix.
    pub status: Status,
    /// Whether the session asked to end (`quit`).
    pub quit: bool,
}

/// Success or failure of one command.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Status {
    /// The command succeeded; the string is a one-line summary.
    Ok(String),
    /// The command failed; nothing changed beyond what the message says.
    Err(String),
}

impl Response {
    fn ok(summary: impl Into<String>) -> Response {
        Response {
            lines: Vec::new(),
            binary: None,
            status: Status::Ok(summary.into()),
            quit: false,
        }
    }

    fn err(message: impl Into<String>) -> Response {
        Response {
            lines: Vec::new(),
            binary: None,
            status: Status::Err(message.into()),
            quit: false,
        }
    }

    fn with_lines(mut self, lines: Vec<String>) -> Response {
        self.lines = lines;
        self
    }

    fn with_binary(mut self, binary: BinaryResult) -> Response {
        self.binary = Some(binary);
        self
    }

    /// Writes the response in wire format: payload lines, then the binary
    /// frame (header line + raw blob) if present, then one `OK ...` /
    /// `ERR ...` status line. One response is at most three `write_all`
    /// calls on the caller's sink — and each connection's sink is written
    /// by exactly one thread, so responses can never interleave. The
    /// multi-megabyte blob is written directly from the `BinaryResult`,
    /// never staged through a second buffer.
    pub fn write_to<W: IoWrite>(&self, w: &mut W) -> std::io::Result<()> {
        let mut head: Vec<u8> = Vec::new();
        for line in &self.lines {
            debug_assert!(
                !line.starts_with("OK") && !line.starts_with("ERR"),
                "payload line breaks the framing invariant: {line}"
            );
            head.extend_from_slice(line.as_bytes());
            head.push(b'\n');
        }
        if let Some(binary) = &self.binary {
            head.extend_from_slice(binary.header_line().as_bytes());
            head.push(b'\n');
        }
        if !head.is_empty() {
            w.write_all(&head)?;
        }
        if let Some(binary) = &self.binary {
            // No newline after the blob: the reader consumes exactly
            // `byte_len` bytes and the status line follows directly.
            w.write_all(&binary.bytes)?;
        }
        let mut tail: Vec<u8> = Vec::new();
        match &self.status {
            Status::Ok(s) => {
                tail.extend_from_slice(b"OK ");
                tail.extend_from_slice(s.as_bytes());
            }
            Status::Err(s) => {
                tail.extend_from_slice(b"ERR ");
                tail.extend_from_slice(s.as_bytes());
            }
        }
        tail.push(b'\n');
        w.write_all(&tail)
    }

    /// Renders the wire format as a `String` (lossily for binary frames —
    /// transports use [`Response::write_to`]; this is for tests, logs and
    /// the text-only startup path).
    pub fn render(&self) -> String {
        let mut out = Vec::new();
        self.write_to(&mut out).expect("Vec sink cannot fail");
        String::from_utf8_lossy(&out).into_owned()
    }
}

/// The writer half of the serving state: the engine plus the name of the
/// loaded graph, behind the write-path lock inside [`ServerState`].
pub struct EngineState {
    engine: Engine<'static>,
    /// Name of the loaded graph (path, generator tag, or "empty").
    source: String,
}

impl EngineState {
    /// The engine, for inspection.
    pub fn engine(&self) -> &Engine<'static> {
        &self.engine
    }

    /// The loaded graph's name (path, generator tag, or "empty").
    pub fn source(&self) -> &str {
        &self.source
    }
}

/// One published epoch: an immutable [`EpochView`] plus the graph name it
/// was published under. Readers clone the `Arc` off the ring's back and
/// never look at the engine again.
pub struct PublishedView {
    view: EpochView,
    source: String,
}

impl PublishedView {
    /// The pinned epoch view.
    pub fn view(&self) -> &EpochView {
        &self.view
    }

    /// The graph name at publish time.
    pub fn source(&self) -> &str {
        &self.source
    }

    /// The epoch this view is pinned to.
    pub fn epoch(&self) -> u64 {
        self.view.epoch()
    }
}

/// The shared serving state: the write-locked [`EngineState`], the
/// published-view retention ring, connection accounting and
/// publish-latency counters. One of these per server, shared as
/// [`SharedEngine`].
pub struct ServerState {
    state: RwLock<EngineState>,
    /// Most recent views, oldest first; the back **is** the current view,
    /// so the ring is never empty. Bounded to [`RETAINED_VIEWS`]; older
    /// views are dropped on graph replacement. Readers hold this lock only
    /// for the nanoseconds of one `Arc` clone — never across an
    /// evaluation — so a writer's publish is never blocked behind a slow
    /// query and vice versa.
    ring: RwLock<VecDeque<Arc<PublishedView>>>,
    live_conns: AtomicUsize,
    max_conns: AtomicUsize,
    publishes: AtomicU64,
    publish_nanos_total: AtomicU64,
    publish_nanos_last: AtomicU64,
}

/// Shared serving state: one [`ServerState`] for any number of
/// sessions/connections.
pub type SharedEngine = Arc<ServerState>;

impl ServerState {
    fn new(state: EngineState) -> ServerState {
        let initial = Arc::new(PublishedView {
            view: state.engine.pin(),
            source: state.source.clone(),
        });
        ServerState {
            state: RwLock::new(state),
            ring: RwLock::new(VecDeque::from([initial])),
            live_conns: AtomicUsize::new(0),
            max_conns: AtomicUsize::new(DEFAULT_MAX_CONNS),
            publishes: AtomicU64::new(0),
            publish_nanos_total: AtomicU64::new(0),
            publish_nanos_last: AtomicU64::new(0),
        }
    }

    /// The currently published view — one `Arc` clone, no state lock.
    pub fn current(&self) -> Arc<PublishedView> {
        let ring = self.ring();
        Arc::clone(ring.back().expect("the ring always holds the current view"))
    }

    /// The retained view pinned to `epoch`, or an error naming the
    /// retained range if that epoch has been evicted (or never existed).
    pub fn view_at(&self, epoch: u64) -> Result<Arc<PublishedView>, String> {
        let ring = self.ring();
        if let Some(v) = ring.iter().rev().find(|v| v.epoch() == epoch) {
            return Ok(Arc::clone(v));
        }
        let (lo, hi, n) = span(&ring);
        Err(format!(
            "epoch {epoch} not retained (retaining {n} views, epochs {lo}..{hi})"
        ))
    }

    /// `(oldest, newest, count)` of the retained epochs.
    pub fn retained_span(&self) -> (u64, u64, usize) {
        span(&self.ring())
    }

    /// Number of views currently retained for time travel.
    pub fn retained_views(&self) -> usize {
        self.ring().len()
    }

    /// Pins the engine's current state and publishes it: appends to the
    /// retention ring (evicting past [`RETAINED_VIEWS`]) and records the
    /// publish latency. The ring's only writer. `reset_ring` drops all older
    /// views first — used when the graph itself was replaced, so time
    /// travel can never cross a graph swap. The caller holds the state
    /// write lock, which is what serializes publishes.
    fn publish_locked(&self, state: &EngineState, reset_ring: bool) {
        let t = Instant::now();
        let view = Arc::new(PublishedView {
            view: state.engine.pin(),
            source: state.source.clone(),
        });
        let mut ring = self.ring.write().unwrap_or_else(PoisonError::into_inner);
        if reset_ring {
            ring.clear();
        }
        ring.push_back(view);
        while ring.len() > RETAINED_VIEWS {
            ring.pop_front();
        }
        drop(ring);
        let nanos = t.elapsed().as_nanos() as u64;
        self.publishes.fetch_add(1, Ordering::Relaxed);
        self.publish_nanos_total.fetch_add(nanos, Ordering::Relaxed);
        self.publish_nanos_last.store(nanos, Ordering::Relaxed);
    }

    fn ring(&self) -> RwLockReadGuard<'_, VecDeque<Arc<PublishedView>>> {
        self.ring.read().unwrap_or_else(PoisonError::into_inner)
    }

    /// Sets the simultaneous-connection cap (the `--max-conns` flag).
    pub fn set_max_conns(&self, n: usize) {
        self.max_conns.store(n, Ordering::Relaxed);
    }

    /// The simultaneous-connection cap.
    pub fn max_conns(&self) -> usize {
        self.max_conns.load(Ordering::Relaxed)
    }

    /// Connections currently being served.
    pub fn live_conns(&self) -> usize {
        self.live_conns.load(Ordering::Relaxed)
    }

    /// Claims a connection slot; `false` when the cap is reached. Pair
    /// with [`ServerState::conn_closed`] (the TCP layer wraps the pair in
    /// an RAII guard).
    pub fn try_open_conn(&self) -> bool {
        let max = self.max_conns();
        self.live_conns
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |n| {
                (n < max).then_some(n + 1)
            })
            .is_ok()
    }

    /// Releases a connection slot claimed by [`ServerState::try_open_conn`].
    pub fn conn_closed(&self) {
        self.live_conns.fetch_sub(1, Ordering::Relaxed);
    }

    /// Publishes since startup (or the last `reset metrics`).
    pub fn publishes(&self) -> u64 {
        self.publishes.load(Ordering::Relaxed)
    }

    /// Latency of the most recent publish (pin + ring update).
    pub fn publish_last(&self) -> Duration {
        Duration::from_nanos(self.publish_nanos_last.load(Ordering::Relaxed))
    }

    /// Mean publish latency since the last counter reset.
    pub fn publish_mean(&self) -> Duration {
        let n = self.publishes();
        if n == 0 {
            return Duration::ZERO;
        }
        Duration::from_nanos(self.publish_nanos_total.load(Ordering::Relaxed) / n)
    }

    /// Clears the publish-latency counters (part of `reset metrics`).
    pub fn reset_publish_stats(&self) {
        self.publishes.store(0, Ordering::Relaxed);
        self.publish_nanos_total.store(0, Ordering::Relaxed);
        self.publish_nanos_last.store(0, Ordering::Relaxed);
    }
}

fn span(ring: &VecDeque<Arc<PublishedView>>) -> (u64, u64, usize) {
    let lo = ring.front().map_or(0, |v| v.epoch());
    let hi = ring.back().map_or(0, |v| v.epoch());
    (lo, hi, ring.len())
}

/// Per-connection overlay: evaluation knobs that belong to one client,
/// resolved against the engine's base configuration at dispatch time and
/// never written into shared state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConnectionOverlay {
    /// Strategy override (`strategy rtc|full|none`), if set.
    pub strategy: Option<Strategy>,
    /// Worker-thread override (`threads N`), if set.
    pub threads: Option<usize>,
    /// Result pairs printed per query in text mode (0 = count only).
    pub limit: usize,
    /// Whether `query` results are sent as `RESULT-BIN` frames.
    pub binary: bool,
}

impl Default for ConnectionOverlay {
    fn default() -> Self {
        ConnectionOverlay {
            strategy: None,
            threads: None,
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
        if let Some(t) = self.threads {
            config.threads = t;
        }
        config
    }
}

/// A serving session: one connection's handle onto the shared state.
///
/// Cloning the [`SharedEngine`] handle ([`Session::shared`]) and
/// [`Session::attach`]ing gives each TCP connection its own session — own
/// overlay, same engine — which is how the server keeps `strategy`,
/// `threads`, `limit` and `binary` per-connection while every `query`
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
    /// (the `--strategy`/`--threads` startup flags land here, so every
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
        Session {
            shared: Arc::new(ServerState::new(EngineState { engine, source })),
            overlay: ConnectionOverlay::default(),
        }
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
        EngineGuard(self.read())
    }

    /// Takes the writer-half read lock, clearing poisoning: a panic
    /// inside another command leaves the engine consistent at command
    /// granularity (the panicked command's response was simply never
    /// sent), so serving continues.
    fn read(&self) -> RwLockReadGuard<'_, EngineState> {
        self.shared
            .state
            .read()
            .unwrap_or_else(PoisonError::into_inner)
    }

    /// Takes the writer-half write lock, clearing poisoning (see
    /// [`Session::read`]).
    fn write(&self) -> RwLockWriteGuard<'_, EngineState> {
        self.shared
            .state
            .write()
            .unwrap_or_else(PoisonError::into_inner)
    }

    /// Resolves which published view a read command addresses: the
    /// current one, or — for `… at <epoch>` — a retained older one.
    fn view_for(&self, at: Option<u64>) -> Result<Arc<PublishedView>, String> {
        match at {
            None => Ok(self.shared.current()),
            Some(epoch) => self.shared.view_at(epoch),
        }
    }

    /// Parses and executes one request line.
    pub fn execute(&mut self, line: &str) -> Option<Response> {
        match parse_command(line) {
            Ok(None) => None,
            Ok(Some(cmd)) => Some(self.run(cmd)),
            Err(e) => Some(Response::err(e)),
        }
    }

    fn run(&mut self, cmd: Command) -> Response {
        match cmd {
            // ── lock-free: help, connection end, overlay updates ──────
            Command::Help => Response::ok(format!("{} commands", HELP.len()))
                .with_lines(HELP.iter().map(|s| s.to_string()).collect()),
            Command::Quit => {
                let mut r = Response::ok("bye");
                r.quit = true;
                r
            }
            Command::SetStrategy(s) => {
                self.overlay.strategy = Some(s);
                Response::ok(format!("strategy {s} (this connection)"))
            }
            Command::SetThreads(n) => {
                self.overlay.threads = Some(n);
                Response::ok(format!("threads {n} (this connection)"))
            }
            Command::SetLimit(n) => {
                self.overlay.limit = n;
                Response::ok(format!("limit {n}"))
            }
            Command::SetBinary(on) => {
                self.overlay.binary = on;
                Response::ok(format!("binary {}", if on { "on" } else { "off" }))
            }

            // ── read path: served from the published view, no state
            //    lock ever taken ────────────────────────────────────────
            Command::Info => self.info(),
            Command::Epoch => Response::ok(format!("epoch {}", self.shared.current().epoch())),
            Command::Query { query, at } => self.query(&query, at),
            Command::Check {
                src,
                dst,
                query,
                at,
            } => self.check(src, dst, &query, at),
            Command::Ends { src, query, at } => self.ends(src, &query, at),
            Command::Metrics => self.metrics(),
            Command::Cache => self.cache(),
            Command::Export(path) => self.export(&path),

            // ── write path: exclusive under the write lock, each
            //    mutation publishing a fresh epoch view ─────────────────
            Command::Load(path) => self.load(&path),
            Command::Save(path) => self.save(&path),
            Command::GenPaper => {
                let mut state = self.write();
                replace_graph(
                    &mut state,
                    VersionedGraph::new(rpq_graph::fixtures::paper_graph()),
                    "paper".to_string(),
                );
                self.shared.publish_locked(&state, true);
                info_summary(&state, "loaded paper graph")
            }
            Command::GenRmat { n, scale, seed } => {
                // Generate outside the lock (no shared state involved), so
                // writers queue behind the build no longer than they must —
                // readers are never blocked either way.
                let g = rpq_datasets::rmat::rmat_n_scaled(n, scale, seed);
                let mut state = self.write();
                replace_graph(
                    &mut state,
                    VersionedGraph::new(g),
                    format!("rmat_{n}@2^{scale}#{seed}"),
                );
                self.shared.publish_locked(&state, true);
                info_summary(&state, "generated RMAT graph")
            }
            Command::Prepare(text) => self.prepare(&text),
            Command::Delta(ops) => self.delta(&ops),
            Command::Reset { cache_too } => {
                let state = self.write();
                if cache_too {
                    state.engine.clear_cache();
                    Response::ok("cache cleared (structures and results dropped, counters reset)")
                } else {
                    state.engine.reset_metrics();
                    self.shared.reset_publish_stats();
                    Response::ok("metrics reset (cached structures kept)")
                }
            }
        }
    }

    fn info(&self) -> Response {
        let published = self.shared.current();
        let view = published.view();
        let g = view.graph();
        let config = self.overlay.resolve(view.config());
        let (lo, hi, views) = self.shared.retained_span();
        let c = view.cache();
        Response::ok(format!(
            "graph '{}': {} vertices, {} edges, {} labels, epoch {}, strategy {}, threads {}, limit {}, binary {}, views {views} (epochs {lo}..{hi}), conns {}/{}, structural {} B, budget {}, occupancy {} B",
            published.source(),
            g.vertex_count(),
            g.edge_count(),
            g.label_count(),
            view.epoch(),
            config.strategy,
            config.threads,
            self.overlay.limit,
            if self.overlay.binary { "on" } else { "off" },
            self.shared.live_conns(),
            self.shared.max_conns(),
            c.totals(SharingKind::Rtc).heap_bytes + c.totals(SharingKind::Full).heap_bytes,
            c.budget(),
            c.occupancy_bytes(),
        ))
    }

    fn load(&self, path: &str) -> Response {
        let p = Path::new(path);
        // Sniff for an *engine* snapshot first (graph + warm cache); fall
        // back to the graph-level auto-detection (snapshot or edge list).
        // The magic rules themselves live with their formats
        // (`matches_magic`), not here.
        let head = match std::fs::File::open(p) {
            Ok(mut f) => {
                use std::io::Read;
                let mut head = [0u8; 8];
                let n = f.read(&mut head).unwrap_or(0);
                head[..n].to_vec()
            }
            Err(e) => return Response::err(format!("cannot open '{path}': {e}")),
        };
        if rpq_core::snapshot::matches_magic(&head) {
            let mut state = self.write();
            let config = *state.engine.config();
            match rpq_core::snapshot::load_snapshot(p, config) {
                Ok(engine) => {
                    let warm = engine.cache().occupancy_entries();
                    let epoch = engine.epoch();
                    state.engine = engine;
                    state.source = path.to_string();
                    self.shared.publish_locked(&state, true);
                    let g = state.engine.graph();
                    Response::ok(format!(
                        "warm restart: {} vertices, {} edges, epoch {epoch}, {warm} cached structures",
                        g.vertex_count(),
                        g.edge_count(),
                    ))
                }
                Err(e) => Response::err(format!("cannot load engine snapshot '{path}': {e}")),
            }
        } else {
            match rpq_datasets::io::load_versioned(p) {
                Ok(vg) => {
                    let mut state = self.write();
                    replace_graph(&mut state, vg, path.to_string());
                    self.shared.publish_locked(&state, true);
                    info_summary(&state, &format!("loaded '{path}'"))
                }
                Err(e) => Response::err(format!("cannot load '{path}': {e}")),
            }
        }
    }

    fn save(&self, path: &str) -> Response {
        let state = self.write();
        match rpq_core::snapshot::save_snapshot(&state.engine, Path::new(path)) {
            Ok(()) => {
                // Report what was actually persisted: only *fresh*
                // entries survive a save (stale ones are dropped).
                let cache = state.engine.cache();
                let fresh = cache.fresh_entries().len();
                let stale = cache.occupancy_entries() - fresh;
                let dropped = if stale > 0 {
                    format!(" ({stale} stale dropped)")
                } else {
                    String::new()
                };
                Response::ok(format!(
                    "snapshot '{path}': epoch {}, {fresh} cached structures{dropped}",
                    state.engine.epoch(),
                ))
            }
            Err(e) => Response::err(format!("cannot save '{path}': {e}")),
        }
    }

    fn export(&self, path: &str) -> Response {
        let published = self.shared.current();
        let g = published.view().graph();
        match rpq_datasets::io::save_graph(g, Path::new(path)) {
            Ok(()) => Response::ok(format!("edge list '{path}': {} edges", g.edge_count())),
            Err(e) => Response::err(format!("cannot export '{path}': {e}")),
        }
    }

    /// Appends the time-travel marker to a status summary, after any
    /// `... in <time>` suffix so the equivalence tests' timing masking
    /// stays oblivious to it.
    fn at_suffix(at: Option<u64>) -> String {
        at.map(|e| format!(" (at epoch {e})")).unwrap_or_default()
    }

    fn query(&self, text: &str, at: Option<u64>) -> Response {
        let q = match rpq_regex::Regex::parse(text) {
            Ok(q) => q,
            Err(e) => return Response::err(format!("query failed: {e}")),
        };
        let published = match self.view_for(at) {
            Ok(v) => v,
            Err(e) => return Response::err(e),
        };
        let view = published.view();
        let config = self.overlay.resolve(view.config());
        let t = Instant::now();
        match view.evaluate_with(&q, config) {
            Ok(result) => {
                let elapsed = t.elapsed();
                let status = format!(
                    "{} pairs in {elapsed:.2?}{}",
                    result.len(),
                    Self::at_suffix(at)
                );
                if self.overlay.binary {
                    // Binary mode ships the *complete* result set — the
                    // frame exists for exactly the responses too large to
                    // print — so `limit` only governs text mode.
                    return Response::ok(status).with_binary(encode_pair_set(&result));
                }
                let shown = result.len().min(self.overlay.limit);
                let mut lines: Vec<String> = result
                    .iter()
                    .take(shown)
                    .map(|(s, d)| format!("  v{} -> v{}", s.raw(), d.raw()))
                    .collect();
                if self.overlay.limit > 0 && result.len() > shown {
                    lines.push(format!(
                        "  ... {} more (raise with 'limit N')",
                        result.len() - shown
                    ));
                }
                Response::ok(status).with_lines(lines)
            }
            Err(e) => Response::err(format!("query failed: {e}")),
        }
    }

    fn check(&self, src: u32, dst: u32, text: &str, at: Option<u64>) -> Response {
        match rpq_regex::Regex::parse(text) {
            Ok(q) => {
                let published = match self.view_for(at) {
                    Ok(v) => v,
                    Err(e) => return Response::err(e),
                };
                let found =
                    published
                        .view()
                        .check(&q, rpq_graph::VertexId(src), rpq_graph::VertexId(dst));
                Response::ok(format!(
                    "{} path v{src} -> v{dst} for {q}{}",
                    if found { "found" } else { "no" },
                    Self::at_suffix(at)
                ))
            }
            Err(e) => Response::err(format!("bad RPQ: {e}")),
        }
    }

    fn ends(&self, src: u32, text: &str, at: Option<u64>) -> Response {
        match rpq_regex::Regex::parse(text) {
            Ok(q) => {
                let published = match self.view_for(at) {
                    Ok(v) => v,
                    Err(e) => return Response::err(e),
                };
                let ends = published.view().ends_from(&q, rpq_graph::VertexId(src));
                // `limit 0` means count-only, same as `query`.
                let shown = ends.len().min(self.overlay.limit);
                let line = ends
                    .iter()
                    .take(shown)
                    .map(|v| format!("v{}", v.raw()))
                    .collect::<Vec<_>>()
                    .join(" ");
                let mut lines = Vec::new();
                if shown > 0 {
                    let more = if ends.len() > shown {
                        format!(" ... {} more (raise with 'limit N')", ends.len() - shown)
                    } else {
                        String::new()
                    };
                    lines.push(format!("  {line}{more}"));
                }
                Response::ok(format!(
                    "{} end vertices from v{src}{}",
                    ends.len(),
                    Self::at_suffix(at)
                ))
                .with_lines(lines)
            }
            Err(e) => Response::err(format!("bad RPQ: {e}")),
        }
    }

    fn prepare(&self, text: &str) -> Response {
        match rpq_regex::Regex::parse(text) {
            Ok(q) => {
                // Deliberately on the write path: the cache interior would
                // tolerate a concurrent warm-up, but `prepare` exists to
                // front-load shared work at a predictable moment, and
                // letting it race ongoing queries makes its
                // computed/reused report nondeterministic. No republish:
                // the published view shares the structural cache `Arc`, so
                // warmed structures are visible to it the moment the lock
                // drops.
                let state = self.write();
                let config = self.overlay.resolve(state.engine.config());
                match state.engine.prepare_with(std::slice::from_ref(&q), config) {
                    Ok(report) => Response::ok(format!(
                        "prepared: {} bodies computed, {} reused, {} shared pairs",
                        report.bodies_computed, report.bodies_reused, report.shared_pairs
                    )),
                    Err(e) => Response::err(format!("prepare failed: {e}")),
                }
            }
            Err(e) => Response::err(format!("bad RPQ: {e}")),
        }
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
        let mut state = self.write();
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

    fn metrics(&self) -> Response {
        let published = self.shared.current();
        let view = published.view();
        let b = view.breakdown();
        let s = view.elimination_stats();
        let m = view.maintenance_metrics();
        let r = view.results();
        let (lo, hi, views) = self.shared.retained_span();
        let lines = vec![
            format!(
                "  breakdown: shared_data={:.2?} pre_join={:.2?} remainder={:.2?} total={:.2?}",
                b.shared_data,
                b.pre_join,
                b.remainder(),
                b.total
            ),
            format!(
                "  elimination: useless1={} redundant1={} redundant2={} useless2_inserts={} full_dup_hits={}",
                s.useless1_skipped,
                s.redundant1_skipped,
                s.redundant2_skipped,
                s.useless2_unchecked_inserts,
                s.full_duplicate_hits
            ),
            format!(
                "  maintenance: deltas={} unchanged={} incremental={} rebuild={} inc_time={:.2?} rebuild_time={:.2?}",
                m.deltas_applied,
                m.unchanged_refreshes,
                m.incremental_refreshes,
                m.rebuild_refreshes,
                m.incremental_time,
                m.rebuild_time
            ),
            format!(
                "  results: {} view hits, {} result misses, {} memoized (cap {})",
                r.hits(),
                r.misses(),
                r.occupancy_entries(),
                DEFAULT_RESULT_CACHE_ENTRIES
            ),
            format!(
                "  serving: {} publishes (last {:.2?}, mean {:.2?}), {views} views retained (epochs {lo}..{hi}), conns {}/{}",
                self.shared.publishes(),
                self.shared.publish_last(),
                self.shared.publish_mean(),
                self.shared.live_conns(),
                self.shared.max_conns(),
            ),
            {
                let c = view.cache();
                let (rtc, full) = (c.totals(SharingKind::Rtc), c.totals(SharingKind::Full));
                format!(
                    "  memory: structural={} B (rtc={} B, {} dense rows; full={} B, {} dense rows)",
                    rtc.heap_bytes + full.heap_bytes,
                    rtc.heap_bytes,
                    rtc.dense_rows,
                    full.heap_bytes,
                    full.dense_rows,
                )
            },
            {
                let c = view.cache();
                let ev = c.eviction_counters();
                format!(
                    "  budget: {} occupancy={} B/{} entries evictions={} (bytes={} entries={} ttl={} stale={}) rebuilds_after_evict={}",
                    c.budget(),
                    c.occupancy_bytes(),
                    c.occupancy_entries(),
                    ev.total(),
                    ev.by_bytes,
                    ev.by_entries,
                    ev.by_unreachable,
                    ev.by_stale,
                    ev.rebuilds_after_evict,
                )
            },
        ];
        Response::ok("metrics".to_string()).with_lines(lines)
    }

    fn cache(&self) -> Response {
        let published = self.shared.current();
        let view = published.view();
        let c = view.cache();
        let r = view.results();
        let (rtc, full) = (c.totals(SharingKind::Rtc), c.totals(SharingKind::Full));
        let lines = vec![
            format!(
                "  entries: {} rtc ({} pairs, {} sccs), {} full ({} pairs)",
                rtc.entries, rtc.shared_pairs, rtc.vertices, full.entries, full.shared_pairs
            ),
            format!(
                "  memory: {} B structural heap ({} dense rows)",
                rtc.heap_bytes + full.heap_bytes,
                rtc.dense_rows + full.dense_rows,
            ),
            format!(
                "  lookups: {} hits, {} misses, {} stale hits (epoch {})",
                c.hits(),
                c.misses(),
                c.stale_hits(),
                c.epoch()
            ),
            format!(
                "  budget: {} (occupancy {} B, {} entries, {} B pinned)",
                c.budget(),
                c.occupancy_bytes(),
                c.occupancy_entries(),
                c.pinned_occupancy_bytes(),
            ),
            {
                let ev = c.eviction_counters();
                format!(
                    "  evictions: {} total (bytes={} entries={} ttl={} stale={}), {} rebuilds after evict",
                    ev.total(),
                    ev.by_bytes,
                    ev.by_entries,
                    ev.by_unreachable,
                    ev.by_stale,
                    ev.rebuilds_after_evict,
                )
            },
            format!(
                "  results: {} memoized, {} view hits, {} result misses (cap {}), {} evicted",
                r.occupancy_entries(),
                r.hits(),
                r.misses(),
                DEFAULT_RESULT_CACHE_ENTRIES,
                r.eviction_counters().total(),
            ),
        ];
        let strategy = self.overlay.resolve(view.config()).strategy;
        Response::ok(format!(
            "{} shared pairs held",
            view.shared_data_pairs_with(strategy)
        ))
        .with_lines(lines)
    }
}

/// Replaces the engine's graph, keeping the base configuration (strategy,
/// threads, clause limit) but dropping cached structures — they describe
/// the old graph. Caller holds the write lock and publishes afterwards
/// (with a ring reset — epochs of different graphs are not comparable).
fn replace_graph(state: &mut EngineState, graph: VersionedGraph, source: String) {
    let config = *state.engine.config();
    state.engine = Engine::with_config_versioned(graph, config);
    state.source = source;
}

fn info_summary(state: &EngineState, what: &str) -> Response {
    let g = state.engine.graph();
    Response::ok(format!(
        "{what}: {} vertices, {} edges, {} labels",
        g.vertex_count(),
        g.edge_count(),
        g.label_count(),
    ))
}

/// Builds the startup engine config from the binary's flags. A
/// `--cache-budget` flag overrides the `RPQ_CACHE_BUDGET` environment
/// default already folded into [`EngineConfig::default`].
pub fn startup_config(
    strategy: Option<Strategy>,
    threads: Option<usize>,
    cache_budget: Option<rpq_core::CacheBudget>,
) -> EngineConfig {
    let mut config = EngineConfig::default();
    if let Some(s) = strategy {
        config.strategy = s;
    }
    if let Some(t) = threads {
        config.threads = t;
    }
    if let Some(b) = cache_budget {
        config.cache_budget = b;
    }
    config
}

#[cfg(test)]
mod tests {
    use super::*;

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
        let _write_guard = shared.state.write().unwrap_or_else(PoisonError::into_inner);
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
    fn strategy_and_threads_are_overlay_not_engine_state() {
        let mut a = Session::new();
        a.execute("gen paper");
        let mut b = Session::attach(a.shared());
        // a switches strategy and threads; the engine base config — and
        // therefore b's resolved view — must not move.
        ok_summary(a.execute("strategy full"));
        ok_summary(a.execute("threads 4"));
        assert_eq!(a.engine().config().strategy, Strategy::RtcSharing);
        assert_eq!(a.engine().config().threads, 1);
        let a_info = ok_summary(a.execute("info"));
        assert!(
            a_info.contains("strategy FullSharing, threads 4"),
            "{a_info}"
        );
        let b_info = ok_summary(b.execute("info"));
        assert!(
            b_info.contains("strategy RTCSharing, threads 1"),
            "{b_info}"
        );
        // Both still agree on results, of course.
        let ra = a.execute("query d.(b.c)+.c").unwrap();
        let rb = b.execute("query d.(b.c)+.c").unwrap();
        assert_eq!(ra.lines, rb.lines);
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

    #[test]
    fn render_framing() {
        let mut s = Session::new();
        s.execute("gen paper");
        let rendered = s.execute("query d.(b.c)+.c").unwrap().render();
        let lines: Vec<&str> = rendered.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[2].starts_with("OK "));
        let rendered = s.execute("nope").unwrap().render();
        assert!(rendered.starts_with("ERR "));
    }

    #[test]
    fn connection_accounting() {
        let s = Session::new();
        let shared = s.shared();
        assert_eq!(shared.max_conns(), DEFAULT_MAX_CONNS);
        shared.set_max_conns(2);
        assert!(shared.try_open_conn());
        assert!(shared.try_open_conn());
        assert!(!shared.try_open_conn(), "cap reached");
        assert_eq!(shared.live_conns(), 2);
        shared.conn_closed();
        assert!(shared.try_open_conn(), "slot freed");
        shared.conn_closed();
        shared.conn_closed();
        assert_eq!(shared.live_conns(), 0);
    }
}
