//! The shared serving state: MVCC epoch views published by swap.
//!
//! The serving state is split in three, and the split is the whole point:
//!
//! * `EngineState` — the **writer** half: one long-lived [`Engine`]
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
//! * [`crate::session::ConnectionOverlay`] — the **per-connection** half:
//!   `strategy`, `limit` and `binary` are connection-local and never
//!   written into this state.
//!
//! The publish protocol: a writer mutates the engine under the write
//! lock, pins a fresh [`EpochView`] (`Engine::pin` — O(dirty rows), the
//! untouched adjacency rows are `Arc`-shared with every older view), and
//! pushes it onto the ring. Readers holding older views keep them alive
//! through their `Arc`s and observe bitwise-identical results before,
//! during and after the publication. Graph *replacement* (`load`, `gen`)
//! clears the ring first — epochs of different graphs are not comparable.

use rpq_core::{Engine, EpochView};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard};
use std::time::{Duration, Instant};

/// How many recent epoch views the server retains for `… at <epoch>`
/// time travel (including the current one).
pub const RETAINED_VIEWS: usize = 8;

/// Default cap on simultaneous TCP connections (`rpq serve --max-conns`).
pub const DEFAULT_MAX_CONNS: usize = 256;

/// The writer half of the serving state: the engine plus the name of the
/// loaded graph, behind the write-path lock inside [`ServerState`].
pub(crate) struct EngineState {
    pub(crate) engine: Engine<'static>,
    /// Name of the loaded graph (path, generator tag, or "empty").
    pub(crate) source: String,
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

/// The shared serving state: the write-locked `EngineState`, the
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
    pub(crate) fn new(engine: Engine<'static>, source: String) -> ServerState {
        let initial = Arc::new(PublishedView {
            view: engine.pin(),
            source: source.clone(),
        });
        ServerState {
            state: RwLock::new(EngineState { engine, source }),
            ring: RwLock::new(VecDeque::from([initial])),
            live_conns: AtomicUsize::new(0),
            max_conns: AtomicUsize::new(DEFAULT_MAX_CONNS),
            publishes: AtomicU64::new(0),
            publish_nanos_total: AtomicU64::new(0),
            publish_nanos_last: AtomicU64::new(0),
        }
    }

    /// Takes the writer-half read lock, clearing poisoning: a panic
    /// inside another command leaves the engine consistent at command
    /// granularity (the panicked command's response was simply never
    /// sent), so serving continues.
    pub(crate) fn read(&self) -> RwLockReadGuard<'_, EngineState> {
        self.state.read().unwrap_or_else(PoisonError::into_inner)
    }

    /// Takes the writer-half write lock, clearing poisoning (see
    /// [`ServerState::read`]).
    pub(crate) fn write(&self) -> RwLockWriteGuard<'_, EngineState> {
        self.state.write().unwrap_or_else(PoisonError::into_inner)
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
    pub(crate) fn publish_locked(&self, state: &EngineState, reset_ring: bool) {
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

#[cfg(test)]
mod tests {
    use crate::session::Session;

    #[test]
    fn connection_accounting() {
        let s = Session::new();
        let shared = s.shared();
        assert_eq!(shared.max_conns(), super::DEFAULT_MAX_CONNS);
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
