//! The line-delimited TCP protocol: the REPL command language over a
//! socket, for scripted and multi-client use.
//!
//! ## Protocol
//!
//! * On connect the server sends one greeting line: `OK rtc-rpq ready`.
//! * Each request is **one line** in the [`crate::command`] language; a
//!   line that is not UTF-8 is answered `ERR request is not valid UTF-8`.
//! * Each response is zero or more payload lines followed by exactly one
//!   status line starting with `OK ` or `ERR ` — read lines until one of
//!   those prefixes and the response is complete (payload lines are
//!   guaranteed not to start with either prefix). A connection that sent
//!   `binary on` additionally receives `query` results as one
//!   `RESULT-BIN <bytes> <pairs>` header line followed by exactly
//!   `<bytes>` raw bytes (see [`crate::wire`]), then the status line.
//! * `quit` answers `OK bye` and closes **the connection**; the server
//!   keeps listening.
//! * When the simultaneous-connection cap (`--max-conns`, default
//!   [`crate::state::DEFAULT_MAX_CONNS`]) is reached, a new connection
//!   receives exactly one `ERR busy …` line and is closed — no greeting,
//!   no session.
//!
//! ## Sharing and concurrency
//!
//! All connections serve one [`crate::state::ServerState`] — one
//! long-lived engine, one epoch-aware `SharedCache` — each connection
//! holding its own [`Session`] (per-connection overlay: `strategy`,
//! `threads`, `limit`, `binary`). Read-only commands never lock the
//! engine: they grab the currently published
//! [`crate::state::PublishedView`] (an immutable MVCC epoch view) with
//! one `Arc` clone and evaluate against that snapshot, so a slow `query`
//! on one connection never blocks anything on another — not even a
//! concurrent `delta`. Mutating commands (`delta`, `load`, `gen`, `save`,
//! `reset`, `prepare`) serialize among themselves on the writer-half
//! lock and publish a fresh view by swap; readers pick up the new epoch
//! on their next command. An RTC computed for one client's query is
//! immediately a `Fresh` cache hit for every other (the cross-query
//! sharing of the paper, stretched across connections), and a repeated
//! `query` at an unchanged epoch is answered from the per-epoch result
//! cache without evaluating at all. Because the engine is shared,
//! graph-level commands affect every client; this is the intended
//! semantics — the server fronts *one* graph. `query … at <epoch>`
//! addresses a retained older view (time travel).

use crate::session::Session;
use crate::state::SharedEngine;
use std::io::{BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::Arc;

/// The greeting sent to every new connection.
pub const GREETING: &str = "OK rtc-rpq ready";

/// Decrements the live-connection count when a connection thread ends,
/// however it ends (EOF, `quit`, I/O error, panic unwind).
struct ConnGuard {
    shared: SharedEngine,
}

impl ConnGuard {
    fn try_acquire(shared: &SharedEngine) -> Option<ConnGuard> {
        shared.try_open_conn().then(|| ConnGuard {
            shared: Arc::clone(shared),
        })
    }
}

impl Drop for ConnGuard {
    fn drop(&mut self) {
        self.shared.conn_closed();
    }
}

/// Serves connections from `listener` forever, one thread per client, up
/// to the shared state's connection cap
/// ([`crate::state::ServerState::set_max_conns`]; over-limit
/// connections get one `ERR busy …` line and are closed).
/// Never returns under normal operation; returns the accept-loop error if
/// the listener dies.
pub fn serve(listener: TcpListener, shared: SharedEngine) -> std::io::Result<()> {
    loop {
        let (mut stream, _addr) = listener.accept()?;
        let Some(guard) = ConnGuard::try_acquire(&shared) else {
            // One line, no greeting: the client knows immediately that it
            // was the cap, not a protocol error. Best-effort — a client
            // that already hung up is its own problem.
            let _ = writeln!(
                stream,
                "ERR busy ({} connections, max {})",
                shared.live_conns(),
                shared.max_conns()
            );
            continue;
        };
        let shared = Arc::clone(&shared);
        std::thread::spawn(move || {
            let _guard = guard;
            // A dropped client mid-response is that client's problem only.
            let _ = handle_connection(stream, &shared);
        });
    }
}

/// Drives one client connection to completion (EOF or `quit`). Returns
/// the number of replies sent to this client.
///
/// The socket gets `TCP_NODELAY` and the one serve loop both front-ends
/// run, which flushes each reply once through a `BufWriter`: a reply's
/// last segment never waits for the client's delayed ACK.
pub fn handle_connection(stream: TcpStream, shared: &SharedEngine) -> std::io::Result<u64> {
    stream.set_nodelay(true)?;
    (&stream).write_all(format!("{GREETING}\n").as_bytes())?;
    // This connection's session: shared engine, private overlay. Locking
    // happens *inside* command dispatch, so no lock is ever held between
    // commands.
    let mut session = Session::attach(Arc::clone(shared));
    session.serve(BufReader::new(stream.try_clone()?), stream, None)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufRead;

    /// Binds an ephemeral-port server over a fresh session, returning the
    /// address to connect to.
    fn spawn_server() -> std::net::SocketAddr {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let shared = Session::new().shared();
        std::thread::spawn(move || serve(listener, shared));
        addr
    }

    /// Sends one command line, reading payload lines until the status line.
    fn roundtrip(
        reader: &mut impl BufRead,
        writer: &mut impl Write,
        command: &str,
    ) -> (Vec<String>, String) {
        writeln!(writer, "{command}").unwrap();
        writer.flush().unwrap();
        read_response(reader)
    }

    fn read_response(reader: &mut impl BufRead) -> (Vec<String>, String) {
        let mut payload = Vec::new();
        loop {
            let mut line = String::new();
            assert!(reader.read_line(&mut line).unwrap() > 0, "server hung up");
            let line = line.trim_end().to_string();
            if line.starts_with("OK ") || line.starts_with("ERR ") {
                return (payload, line);
            }
            payload.push(line);
        }
    }

    fn connect(addr: std::net::SocketAddr) -> (BufReader<TcpStream>, TcpStream) {
        let stream = TcpStream::connect(addr).unwrap();
        let writer = stream.try_clone().unwrap();
        let mut reader = BufReader::new(stream);
        // Greeting.
        let (_, status) = read_response(&mut reader);
        assert_eq!(status, GREETING);
        (reader, writer)
    }

    #[test]
    fn single_client_query_flow() {
        let addr = spawn_server();
        let (mut r, mut w) = connect(addr);
        let (_, status) = roundtrip(&mut r, &mut w, "gen paper");
        assert!(status.starts_with("OK loaded paper graph"), "{status}");
        let (payload, status) = roundtrip(&mut r, &mut w, "query d.(b.c)+.c");
        assert_eq!(payload, vec!["  v7 -> v3", "  v7 -> v5"]);
        assert!(status.starts_with("OK 2 pairs"), "{status}");
        let (_, status) = roundtrip(&mut r, &mut w, "bogus");
        assert!(status.starts_with("ERR unknown command"), "{status}");
        let (_, status) = roundtrip(&mut r, &mut w, "quit");
        assert_eq!(status, "OK bye");
    }

    #[test]
    fn two_clients_share_one_cache() {
        let addr = spawn_server();
        let (mut r1, mut w1) = connect(addr);
        roundtrip(&mut r1, &mut w1, "gen paper");
        roundtrip(&mut r1, &mut w1, "query d.(b.c)+.c"); // computes the (b.c) RTC

        // A second client sees the same graph and hits the shared cache.
        let (mut r2, mut w2) = connect(addr);
        let (_, status) = roundtrip(&mut r2, &mut w2, "query a.(b.c)+"); // same closure body
        assert!(status.starts_with("OK "), "{status}");
        let (payload, _) = roundtrip(&mut r2, &mut w2, "cache");
        let entries_line = &payload[0];
        assert!(entries_line.contains("1 rtc"), "{entries_line}");
        let lookups_line = &payload[1];
        // At least one hit came from client 2 reusing client 1's RTC.
        assert!(!lookups_line.contains("0 hits"), "{lookups_line}");

        // A delta from client 2 is visible to client 1 (shared epoch).
        roundtrip(&mut r2, &mut w2, "delta ins 6 b 8 ins 8 c 6");
        let (_, status) = roundtrip(&mut r1, &mut w1, "epoch");
        assert_eq!(status, "OK epoch 1");
    }

    #[test]
    fn overlays_are_per_connection() {
        let addr = spawn_server();
        let (mut r1, mut w1) = connect(addr);
        roundtrip(&mut r1, &mut w1, "gen paper");
        roundtrip(&mut r1, &mut w1, "strategy full");
        roundtrip(&mut r1, &mut w1, "limit 1");

        let (mut r2, mut w2) = connect(addr);
        let (_, info2) = roundtrip(&mut r2, &mut w2, "info");
        // Client 1's overlay never leaks into client 2's view.
        assert!(info2.contains("strategy RTCSharing"), "{info2}");
        assert!(info2.contains("limit 10"), "{info2}");
        let (_, info1) = roundtrip(&mut r1, &mut w1, "info");
        assert!(info1.contains("strategy FullSharing"), "{info1}");
        assert!(info1.contains("limit 1"), "{info1}");
        // And client 1's limit caps only client 1's payload.
        let (p1, _) = roundtrip(&mut r1, &mut w1, "query d.(b.c)+.c");
        let (p2, _) = roundtrip(&mut r2, &mut w2, "query d.(b.c)+.c");
        assert_eq!(p1.len(), 2); // one pair + the "... more" line
        assert_eq!(p2.len(), 2); // both pairs, no elision
        assert!(p1[1].contains("1 more"), "{p1:?}");
    }

    #[test]
    fn over_limit_connections_get_err_busy() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let shared = Session::new().shared();
        shared.set_max_conns(1);
        let serve_shared = Arc::clone(&shared);
        std::thread::spawn(move || serve(listener, serve_shared));

        let (mut r1, mut w1) = connect(addr);
        let (_, status) = roundtrip(&mut r1, &mut w1, "info");
        assert!(status.starts_with("OK "), "{status}");
        assert!(status.contains("conns 1/1"), "{status}");

        // Second connection: one ERR busy line, then EOF — no greeting.
        let stream = TcpStream::connect(addr).unwrap();
        let mut reader = BufReader::new(stream);
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        assert!(line.starts_with("ERR busy"), "{line}");
        let mut rest = String::new();
        assert_eq!(reader.read_line(&mut rest).unwrap(), 0, "closed after ERR");

        // Quitting the first frees the slot.
        roundtrip(&mut r1, &mut w1, "quit");
        for _ in 0..50 {
            if shared.live_conns() == 0 {
                break;
            }
            std::thread::sleep(std::time::Duration::from_millis(10));
        }
        let (mut r3, mut w3) = connect(addr);
        let (_, status) = roundtrip(&mut r3, &mut w3, "info");
        assert!(status.starts_with("OK "), "{status}");
    }

    #[test]
    fn time_travel_over_the_wire() {
        let addr = spawn_server();
        let (mut r, mut w) = connect(addr);
        roundtrip(&mut r, &mut w, "gen paper");
        let (before, _) = roundtrip(&mut r, &mut w, "query (b.c)+");
        roundtrip(&mut r, &mut w, "delta ins 6 b 8 ins 8 c 6");
        let (after, _) = roundtrip(&mut r, &mut w, "query (b.c)+");
        assert_ne!(before, after);
        let (pinned, status) = roundtrip(&mut r, &mut w, "query (b.c)+ at 0");
        assert_eq!(pinned, before);
        assert!(status.ends_with("(at epoch 0)"), "{status}");
        let (_, status) = roundtrip(&mut r, &mut w, "query (b.c)+ at 42");
        assert!(status.starts_with("ERR epoch 42 not retained"), "{status}");
    }

    #[test]
    fn quit_closes_only_that_connection() {
        let addr = spawn_server();
        let (mut r1, mut w1) = connect(addr);
        roundtrip(&mut r1, &mut w1, "gen paper");
        roundtrip(&mut r1, &mut w1, "quit");
        // The server still accepts and serves.
        let (mut r2, mut w2) = connect(addr);
        let (_, status) = roundtrip(&mut r2, &mut w2, "info");
        assert!(status.starts_with("OK graph 'paper'"), "{status}");
    }
}
