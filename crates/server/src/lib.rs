#![warn(missing_docs)]
//! Serving front-end for the RTC-RPQ engine.
//!
//! The paper's headline win — sharing one reduced transitive closure
//! across many RPQs — only pays off operationally when a *long-lived*
//! engine amortizes the RTC over a stream of queries. This crate turns
//! the workspace's library stack into that servable system:
//!
//! * [`command`] — the request language shared by every front-end: load
//!   and generate graphs, evaluate RPQ text through the
//!   `rpq_regex` parser → `rpq_automata`/`rpq_core` pipeline, apply
//!   `GraphDelta` mutations online, switch strategies, inspect metrics
//!   and cache state, and save/load snapshots.
//! * [`state`] — the serving state: a write-locked engine (owning its
//!   graph, epoch-aware cache attached) that only mutating commands
//!   touch, and a short retention ring of MVCC published views
//!   ([`state::PublishedView`]) whose newest entry read commands serve
//!   from without any engine lock and whose older ones back
//!   `query … at <epoch>` time travel.
//! * [`session`] — one connection's [`session::Session`]: its
//!   [`session::ConnectionOverlay`] (`strategy`/`limit`/`binary`),
//!   command dispatch, and the one serve loop behind both transports.
//! * [`reply`] — what a command answers and the bytes it leaves as: the
//!   [`reply::Response`] written straight into a buffered sink, flushed
//!   once per reply, and the text of `info`/`metrics`/`cache`/result lines.
//! * [`repl`] — the interactive/pipeable CLI loop (`rpq repl`).
//! * [`tcp`] — the same commands as a line-delimited TCP protocol
//!   (`rpq serve`), every connection sharing one engine so client A's
//!   RTC is client B's cache hit; writers publish new epochs by swap, so
//!   reads never block, and a `--max-conns` cap turns away over-limit
//!   connections with one `ERR busy` line.
//! * [`wire`] — the opt-in `RESULT-BIN` binary result frame for large
//!   `query` responses.
//!
//! Warm restarts ride on the engine snapshot (`rpq_core::snapshot`): the
//! graph with its epoch (an `rpq_graph::snapshot` section) plus the keys
//! of the fresh shared-structure cache entries, rebuilt at `load`, so `save` + restart + `load` answers the
//! next query with a `Fresh` cache hit: Tarjan and the closure sweep ran
//! at load, not at the first query.
//!
//! ```
//! use rpq_server::session::{Session, Status};
//!
//! let mut session = Session::new();
//! session.execute("gen paper");
//! let response = session.execute("query d.(b.c)+.c").unwrap();
//! assert!(matches!(response.status, Status::Ok(ref m) if m.starts_with("2 pairs")));
//! ```
//!
//! The command reference with worked examples is `docs/QUERY_LANGUAGE.md`;
//! the serving quickstart is the README's "Serving" section.

pub mod command;
pub mod repl;
pub mod reply;
pub mod session;
pub mod state;
pub mod tcp;
pub mod wire;

pub use command::{parse_command, Command, DeltaOp};
pub use repl::run_repl;
pub use reply::{Response, Status};
pub use session::{ConnectionOverlay, Session};
pub use state::{PublishedView, ServerState, SharedEngine, DEFAULT_MAX_CONNS, RETAINED_VIEWS};
pub use tcp::{handle_connection, serve};
pub use wire::BinaryResult;
