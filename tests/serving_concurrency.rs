//! Concurrency over real TCP connections.
//!
//! Eight concurrent clients, each driving a seeded, interleaved stream of
//! `query`/`delta`/`strategy`/`limit`/`binary` commands, receive
//! byte for byte the replies a single-threaded replay of their own command
//! log produces (after masking epoch numbers and timings, which depend on
//! the global interleaving), and no reply is torn across the frame
//! boundary: the strict framing parser (`rpq_testkit::wire::read_reply`)
//! would reject any interleaved bytes. The schedule makes every reply a
//! function of the client's own log: mutations toggle per-client edges
//! under a label (`zz`) no query mentions, on vertices created up front, so
//! results and delta summaries do not depend on the interleaving while the
//! graph churns under concurrent readers. CI runs this file serialized as
//! a stress step.

use rand::rngs::StdRng;
use rand::Rng;
use rpq_testkit::rng;
use rpq_testkit::wire::{spawn_server, Client, Reply};
use rtc_rpq::core::{CacheBudget, EngineConfig};
use rtc_rpq::server::{Session, Status, RETAINED_VIEWS};
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

const CLIENTS: usize = 8;
const QUERIES: &[&str] = &["d.(b.c)+.c", "a.(b.c)*", "(a.b)+|(b.c)+", "(b.c)+"];
const STRATEGIES: &[&str] = &["rtc", "full", "none"];
const LIMITS: &[&str] = &["0", "1", "5", "100"];

/// Masks the interleaving-dependent parts of a status line: the timing
/// suffix of `N pairs in 1.23ms` and the number after `epoch ` (the global
/// epoch counter depends on how clients' deltas interleave).
fn normalize(status: &str) -> String {
    let s = match status.split_once(" in ") {
        Some((head, _)) if head.ends_with("pairs") => head.to_string(),
        _ => status.to_string(),
    };
    match s.find("epoch ") {
        None => s,
        Some(at) => {
            let digits = at + "epoch ".len();
            let end = s[digits..].find(|c: char| !c.is_ascii_digit());
            let end = end.map_or(s.len(), |o| digits + o);
            format!("{}E{}", &s[..digits], &s[end..])
        }
    }
}

fn pick<'a>(r: &mut StdRng, pool: &[&'a str]) -> &'a str {
    pool[r.gen_range(0..pool.len())]
}

/// The seeded command log of client `i`: interleaved queries, overlay
/// changes, and toggles of the client's own `zz` edge.
fn client_schedule(i: usize) -> Vec<String> {
    let mut r = rng(0x5eed_0000 + i as u64);
    let (mut edge_present, mut binary_on) = (true, false); // setup inserted the edge
    let mut next = || match r.gen_range(0..10) {
        4 => format!("strategy {}", pick(&mut r, STRATEGIES)),
        5 => format!("limit {}", pick(&mut r, LIMITS)),
        // The graph mutates for real (the epoch advances, cache entries go
        // stale) but no query result anywhere depends on a `zz` edge.
        7 | 8 => {
            edge_present = !edge_present;
            let op = if edge_present { "ins" } else { "del" };
            format!("delta {op} {} zz {}", 20 + i, 30 + i)
        }
        // Two clients exercise binary frames under concurrency.
        9 if i < 2 => {
            binary_on = !binary_on;
            format!("binary {}", if binary_on { "on" } else { "off" })
        }
        _ => format!("query {}", pick(&mut r, QUERIES)),
    };
    (0..30).map(|_| next()).collect()
}

/// The server/replay setup: the paper graph, grown to 40 vertices, with
/// one `zz` edge per client pre-inserted (so later toggles never create
/// labels or vertices — their summaries stay interleaving-independent).
fn setup_commands(clients: usize) -> Vec<String> {
    let mut ins = String::from("delta");
    for i in 0..clients {
        ins.push_str(&format!(" ins {} zz {}", 20 + i, 30 + i));
    }
    vec!["gen paper".into(), "delta grow 40".into(), ins]
}

/// A session under `config` after `setup`.
fn primed(config: EngineConfig, setup: &[String]) -> Session {
    let mut session = Session::with_config(config);
    for cmd in setup {
        let r = session.execute(cmd).expect("setup command responds");
        assert!(
            matches!(r.status, Status::Ok(_)),
            "setup '{cmd}': {:?}",
            r.status
        );
    }
    session
}

/// Every client's schedule and the replies it got, all clients connected
/// to `addr` and running at once.
fn run_clients(addr: SocketAddr) -> Vec<(Vec<String>, Vec<Reply>)> {
    std::thread::scope(|s| {
        let run = |i| {
            s.spawn(move || {
                let (schedule, mut client) = (client_schedule(i), Client::connect(addr));
                let replies = schedule.iter().map(|cmd| client.roundtrip(cmd)).collect();
                client.quit_clean();
                (schedule, replies)
            })
        };
        let handles: Vec<_> = (0..CLIENTS).map(run).collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    })
}

/// Each client's replies equal a replay of its log on a fresh session
/// under `config`, through the same wire encoding and parser.
fn assert_matches_replay(
    config: EngineConfig,
    setup: &[String],
    live: &[(Vec<String>, Vec<Reply>)],
) {
    for (i, (schedule, replies)) in live.iter().enumerate() {
        let mut replay = Client::Session(primed(config, setup));
        for (cmd, got) in schedule.iter().zip(replies) {
            let want = replay.roundtrip(cmd);
            assert!(
                got.status.starts_with("OK "),
                "client {i}, '{cmd}': {}",
                got.status
            );
            let masked = |r: &Reply| (normalize(&r.status), r.lines.clone(), r.binary.clone());
            assert_eq!(masked(got), masked(&want), "client {i}, '{cmd}'");
        }
    }
}

#[test]
fn concurrent_clients_match_single_threaded_replay() {
    let setup = setup_commands(CLIENTS);
    let config = EngineConfig::default();
    let addr = spawn_server(primed(config, &setup).shared());
    assert_matches_replay(config, &setup, &run_clients(addr));
}

/// The running total from the `metrics` budget line (`… evictions=N (…`).
fn eviction_total(metrics: &Reply) -> u64 {
    let line = metrics.lines.iter().find(|l| l.contains("evictions="));
    let line = line.expect("metrics report the cache budget line");
    let total = line
        .split("evictions=")
        .nth(1)
        .unwrap()
        .split([' ', '('])
        .next();
    total
        .unwrap()
        .parse()
        .unwrap_or_else(|_| panic!("bad eviction total in '{line}'"))
}

/// The equivalence holds under continuous eviction churn: the structural
/// cache holds a single entry, so every closure alternation evicts and
/// rebuilds while deltas advance epochs out of the view ring. Replies still
/// equal the replay under the same budget — no `ERR`, no torn frames —
/// while a monitor connection watches the eviction counter climb
/// monotonically.
#[test]
fn concurrent_clients_under_tiny_budget_match_replay() {
    let setup = setup_commands(CLIENTS);
    let tiny = CacheBudget {
        max_entries: Some(1),
        ..CacheBudget::default()
    };
    let config = EngineConfig {
        cache_budget: tiny,
        ..EngineConfig::default()
    };
    let addr = spawn_server(primed(config, &setup).shared());
    let done = AtomicBool::new(false);
    let live = std::thread::scope(|s| {
        let monitor = s.spawn(|| {
            let (mut m, mut last) = (Client::connect(addr), 0);
            while !done.load(Ordering::Relaxed) {
                let total = eviction_total(&m.roundtrip("metrics"));
                assert!(
                    total >= last,
                    "eviction counter went backwards: {last} -> {total}"
                );
                last = total;
                std::thread::sleep(Duration::from_millis(5));
            }
            let total = eviction_total(&m.roundtrip("metrics"));
            assert!(total >= last, "final eviction total regressed");
            m.quit_clean();
            total
        });
        let live = run_clients(addr);
        done.store(true, Ordering::Relaxed);
        let evictions = monitor.join().unwrap();
        assert!(
            evictions > 0,
            "a one-entry budget under 8 churning clients must evict"
        );
        live
    });
    assert_matches_replay(config, &setup, &live);
}

/// The framing invariant the parser relies on: no payload line of any
/// command shape starts with a status prefix.
#[test]
fn responses_never_start_payload_with_status_prefix() {
    let addr = spawn_server(primed(EngineConfig::default(), &setup_commands(1)).shared());
    let mut c = Client::connect(addr);
    for cmd in [
        "help",
        "info",
        "query d.(b.c)+.c",
        "cache",
        "metrics",
        "ends 7 d.(b.c)+.c",
        "check 7 5 d.(b.c)+.c",
    ] {
        for line in &c.roundtrip(cmd).lines {
            let framing = line.starts_with("OK") || line.starts_with("ERR");
            assert!(!framing, "'{cmd}' payload line '{line}' breaks framing");
        }
    }
    c.quit_clean();
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

/// MVCC retention bounds over the wire: epochs fall out of the ring in
/// FIFO order, evicted epochs are clean `ERR`s naming the retained range,
/// and every retained epoch answers with the result its replay produces.
#[test]
fn mvcc_evicted_epochs_error_and_ring_stays_bounded() {
    let addr = spawn_server(primed(EngineConfig::default(), &setup_commands(1)).shared());
    let mut c = Client::connect(addr);
    // The setup already advanced to epoch 2 (grow + zz insert). Push well
    // past the retention window.
    let total = RETAINED_VIEWS as u32 + 4;
    for i in 0..total {
        let r = c.roundtrip(&format!("delta ins {} zz {}", 2 * i % 7, 30 + i));
        assert!(r.status.starts_with("OK epoch"), "{}", r.status);
    }
    let info = c.roundtrip("info").status;
    assert!(info.contains(&format!("views {RETAINED_VIEWS}")), "{info}");
    // Oldest epochs are gone…
    let r = c.roundtrip("query (b.c)+ at 0").status;
    assert!(r.starts_with("ERR epoch 0 not retained"), "{r}");
    assert!(r.contains("epochs"), "{r}");
    // …while every retained epoch still answers, all with the same result
    // (`zz` deltas never touch query labels).
    let newest = 2 + total as u64;
    let oldest = newest - (RETAINED_VIEWS as u64 - 1);
    let want = pair_count(&c.roundtrip("query (b.c)+").status);
    for e in oldest..=newest {
        let r = c.roundtrip(&format!("query (b.c)+ at {e}")).status;
        assert_eq!(pair_count(&r), want, "epoch {e}");
    }
    let r = c
        .roundtrip(&format!("query (b.c)+ at {}", oldest - 1))
        .status;
    assert!(r.starts_with("ERR "), "{r}");
    c.quit_clean();
}
