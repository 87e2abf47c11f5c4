//! Elapsed-time concurrency tests over real TCP connections: a
//! multi-second `query` on one connection does not serialize another
//! connection's fast commands, and an MVCC read stays pinned to its epoch
//! while writers publish. Both make the query slow by graph size and
//! assert on elapsed time. The seeded interleavings and the wire
//! equivalence suites live in the root package's `tests/`.

use rpq_core::{CacheBudget, EngineConfig};
use rpq_server::tcp::GREETING;
use rpq_server::Session;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::time::{Duration, Instant};

/// Serves a session under `config`, primed by `gen`, on an ephemeral port.
fn spawn_server(config: EngineConfig, gen: &str) -> SocketAddr {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let mut session = Session::with_config(config);
    assert!(session.execute(gen).unwrap().render().starts_with("OK "));
    std::thread::spawn(move || rpq_server::serve(listener, session.shared()));
    addr
}

struct Client(BufReader<TcpStream>);

impl Client {
    fn connect(addr: SocketAddr) -> Client {
        let mut c = Client(BufReader::new(TcpStream::connect(addr).unwrap()));
        assert_eq!(c.reply().1, GREETING);
        c
    }

    fn send(&mut self, command: &str) {
        let stream = self.0.get_mut();
        stream.write_all(format!("{command}\n").as_bytes()).unwrap();
    }

    /// The payload lines and the status line of the next reply.
    fn reply(&mut self) -> (Vec<String>, String) {
        let mut lines = Vec::new();
        loop {
            let mut line = String::new();
            assert!(self.0.read_line(&mut line).unwrap() > 0, "server hung up");
            let line = line.trim_end().to_string();
            if line.starts_with("OK ") || line.starts_with("ERR ") {
                return (lines, line);
            }
            lines.push(line);
        }
    }

    fn roundtrip(&mut self, command: &str) -> String {
        self.send(command);
        self.reply().1
    }
}

/// Parses the leading pair count out of an `OK N pairs …` status line.
fn pair_count(status: &str) -> usize {
    let count = status
        .strip_prefix("OK ")
        .and_then(|s| s.split_whitespace().next());
    count
        .and_then(|n| n.parse().ok())
        .unwrap_or_else(|| panic!("no pair count in '{status}'"))
}

/// MVCC stress: a multi-second `query l0+` pins epoch 0 and completes
/// against it while three `delta` batches publish epochs 1..=3 underneath
/// it. Afterwards `query l0+ at 0` re-addresses the pinned epoch — served
/// from the per-epoch result cache — with the identical count.
#[test]
fn mvcc_slow_query_stays_pinned_while_writers_publish() {
    // RMAT_3 at 2^14 vertices: `l0+` holds ~32M closure pairs — over a
    // second of work in a debug build even with one shared row per SCC.
    // The budget is pinned unbounded: the test asserts the pinned re-read
    // is a *view hit*, and a result this size outgrows any stress budget
    // an RPQ_CACHE_BUDGET CI leg might set (eviction would downgrade the
    // re-read to a correct-but-slower replay).
    let config = EngineConfig {
        cache_budget: CacheBudget::default(),
        ..EngineConfig::default()
    };
    let addr = spawn_server(config, "gen rmat 3 14 42");
    let mut a = Client::connect(addr);
    let mut b = Client::connect(addr);
    a.roundtrip("limit 0");
    b.roundtrip("limit 0");

    let start = Instant::now();
    a.send("query l0+");
    let slow = std::thread::spawn(move || {
        let status = a.reply().1;
        (a, Instant::now(), status)
    });
    // Give A time to parse and pin its epoch view.
    std::thread::sleep(Duration::from_millis(100));

    // Three publishes while A evaluates. The `zz` edges leave every `l0`
    // result untouched, so the pinned/live distinction is isolated to the
    // epoch mechanics, not the data.
    for i in 1..=3u32 {
        let r = b.roundtrip(&format!("delta ins 0 zz {i}"));
        assert!(r.starts_with("OK epoch"), "{r}");
    }
    assert_eq!(b.roundtrip("epoch"), "OK epoch 3");
    let writes_done = Instant::now();

    let (mut a, a_done, slow_status) = slow.join().unwrap();
    assert!(slow_status.starts_with("OK "), "{slow_status}");
    let a_total = a_done.duration_since(start);
    assert!(
        a_total > Duration::from_millis(400),
        "slow query finished in {a_total:?} — too fast to prove anything; grow the graph"
    );
    assert!(
        writes_done < a_done,
        "the three publishes did not overlap A's evaluation \
         (writes at {:?}, A at {a_total:?})",
        writes_done.duration_since(start)
    );

    // Time travel back to A's pinned epoch: identical count, and it came
    // from the per-epoch result cache (a view hit), not a re-evaluation.
    let pinned = a.roundtrip("query l0+ at 0");
    assert_eq!(pair_count(&pinned), pair_count(&slow_status));
    a.send("metrics");
    let metrics = a.reply().0;
    let results_line = metrics.iter().find(|l| l.contains("view hits"));
    let results_line = results_line.expect("metrics report result-cache tiers");
    assert!(
        !results_line
            .trim_start()
            .starts_with("results: 0 view hits"),
        "pinned re-read was not a view hit: {results_line}"
    );
}

/// The acceptance criterion: a slow query holding the shared read lock
/// must not serialize another connection's fast commands. With the old
/// session-wide mutex, B's `epoch`/`query` would finish only after A's
/// multi-second closure computation; with the read-write lock they finish
/// orders of magnitude earlier.
#[test]
fn slow_query_does_not_block_fast_reader() {
    // RMAT_3 at 2^14 vertices: `l0+` holds ~32M closure pairs — over a
    // second of work in a debug build, comfortably slow everywhere.
    let addr = spawn_server(EngineConfig::default(), "gen rmat 3 14 42");
    let mut a = Client::connect(addr);
    let mut b = Client::connect(addr);
    a.roundtrip("limit 0");
    b.roundtrip("limit 0");

    let start = Instant::now();
    a.send("query l0+");
    let slow = std::thread::spawn(move || {
        let status = a.reply().1;
        (Instant::now(), status)
    });
    // Give A time to parse and enter evaluation under the read lock.
    std::thread::sleep(Duration::from_millis(100));

    assert_eq!(b.roundtrip("epoch"), "OK epoch 0");
    let fast_query = b.roundtrip("query l1");
    assert!(fast_query.starts_with("OK "), "{fast_query}");
    let b_done = Instant::now();

    let (a_done, slow_status) = slow.join().unwrap();
    assert!(slow_status.starts_with("OK "), "{slow_status}");
    let a_total = a_done.duration_since(start);
    assert!(
        a_total > Duration::from_millis(400),
        "slow query finished in {a_total:?} — too fast to prove anything; grow the graph"
    );
    assert!(
        b_done < a_done,
        "fast commands on connection B serialized behind A's slow query \
         (B at {:?}, A at {a_total:?})",
        b_done.duration_since(start)
    );
}
