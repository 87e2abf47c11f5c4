//! Concurrency e2e tests over real TCP connections (ISSUE 5).
//!
//! Two properties are pinned here:
//!
//! 1. **Equivalence**: ≥8 concurrent clients each driving a seeded,
//!    interleaved stream of `query`/`delta`/`strategy`/`limit`/`threads`/
//!    `binary` commands receive byte-for-byte the responses a
//!    single-threaded replay of their own command log produces (after
//!    masking epoch numbers and timings, which legitimately depend on
//!    global interleaving), and no response is ever torn across the frame
//!    boundary — the strict framing parser would reject any interleaved
//!    bytes.
//! 2. **Non-blocking reads**: a multi-second `query` on one connection
//!    does not serialize a fast `query`/`epoch` on another — the
//!    acceptance criterion for replacing the session-wide mutex with a
//!    read-write lock.
//!
//! The schedule is crafted so every response is a function of the
//! client's *own* log: mutations toggle per-client edges under a label
//! (`zz`) no query mentions, on vertices created up front, so query
//! results and delta summaries are interleaving-independent while the
//! graph genuinely churns under concurrent readers.
//!
//! A third property rides on the MVCC refactor (ISSUE 6): reads are
//! **pinned** — a query holds its epoch view for its entire evaluation,
//! observing none of the writes published meanwhile, and `… at <epoch>`
//! re-addresses any retained view with bitwise-identical results (the
//! `mvcc_`-prefixed tests below, which CI also runs single-threaded as a
//! stress step).
//!
//! CI additionally runs this file with `--test-threads=1` and
//! `RPQ_E2E_THREADS=2` (two engine worker threads) as a stress
//! configuration.

use proptest::prelude::*;
use rpq_server::wire;
use rpq_server::{Session, Status};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::time::{Duration, Instant};

/// Engine worker threads for the base config (CI stress sets 2).
fn engine_threads() -> usize {
    std::env::var("RPQ_E2E_THREADS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(1)
}

fn base_config() -> rpq_core::EngineConfig {
    rpq_core::EngineConfig {
        threads: engine_threads(),
        ..rpq_core::EngineConfig::default()
    }
}

/// `base_config` with a deliberately tiny structural-cache budget: one
/// entry, so every distinct closure body forces an eviction decision and
/// epoch churn continuously evicts entries falling out of the view ring.
fn tiny_budget_config() -> rpq_core::EngineConfig {
    rpq_core::EngineConfig {
        cache_budget: rpq_core::CacheBudget {
            max_entries: Some(1),
            ..rpq_core::CacheBudget::default()
        },
        ..base_config()
    }
}

/// Spawns a server whose engine was primed with `setup` commands.
fn spawn_server(setup: &[String]) -> SocketAddr {
    spawn_server_with(base_config(), setup)
}

/// [`spawn_server`] under an explicit engine configuration.
fn spawn_server_with(config: rpq_core::EngineConfig, setup: &[String]) -> SocketAddr {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let mut session = Session::with_config(config);
    for cmd in setup {
        let r = session.execute(cmd).expect("setup command responds");
        assert!(
            matches!(r.status, Status::Ok(_)),
            "setup '{cmd}' failed: {:?}",
            r.status
        );
    }
    let shared = session.shared();
    std::thread::spawn(move || rpq_server::serve(listener, shared));
    addr
}

/// One parsed wire response: payload lines, optional binary frame, status.
#[derive(Debug, Clone, PartialEq, Eq)]
struct WireResponse {
    lines: Vec<String>,
    binary: Option<(usize, Vec<u8>)>,
    status: String,
}

/// Reads one framed response from `reader` — payload lines until the
/// `OK `/`ERR ` status line, consuming a `RESULT-BIN` blob by exact byte
/// count when announced. Any violation of the framing rules panics the
/// test, which is precisely the "no torn responses" assertion.
fn read_response<R: BufRead>(reader: &mut R) -> WireResponse {
    let mut lines = Vec::new();
    let mut binary = None;
    loop {
        let mut line = String::new();
        assert!(reader.read_line(&mut line).unwrap() > 0, "server hung up");
        let line = line.trim_end().to_string();
        if line.starts_with("OK ") || line.starts_with("ERR ") {
            return WireResponse {
                lines,
                binary,
                status: line,
            };
        }
        if line.starts_with(wire::BIN_HEADER) {
            let (byte_len, pairs) =
                wire::parse_header(&line).unwrap_or_else(|e| panic!("bad frame header: {e}"));
            let mut blob = vec![0u8; byte_len];
            reader.read_exact(&mut blob).expect("full frame body");
            assert!(binary.is_none(), "two binary frames in one response");
            binary = Some((pairs, blob));
            continue;
        }
        lines.push(line);
    }
}

struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Client {
    fn connect(addr: SocketAddr) -> Client {
        let stream = TcpStream::connect(addr).unwrap();
        let writer = stream.try_clone().unwrap();
        let mut reader = BufReader::new(stream);
        let greeting = read_response(&mut reader);
        assert_eq!(greeting.status, "OK rtc-rpq ready");
        Client { reader, writer }
    }

    fn send(&mut self, command: &str) {
        writeln!(self.writer, "{command}").unwrap();
        self.writer.flush().unwrap();
    }

    fn roundtrip(&mut self, command: &str) -> WireResponse {
        self.send(command);
        read_response(&mut self.reader)
    }

    /// Sends `quit`, checks the goodbye, and asserts the stream ends with
    /// EOF — no stray bytes after the last frame.
    fn quit_clean(mut self) {
        let bye = self.roundtrip("quit");
        assert_eq!(bye.status, "OK bye");
        let mut rest = Vec::new();
        self.reader.read_to_end(&mut rest).unwrap();
        assert!(rest.is_empty(), "stray bytes after quit: {rest:?}");
    }
}

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
            let digits_start = at + "epoch ".len();
            let digits_end = s[digits_start..]
                .find(|c: char| !c.is_ascii_digit())
                .map_or(s.len(), |o| digits_start + o);
            format!("{}E{}", &s[..digits_start], &s[digits_end..])
        }
    }
}

/// Deterministic per-client schedule generator (LCG — no external RNG in
/// tests, reproducible across runs).
struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.0 >> 33
    }

    fn pick<'a, T>(&mut self, pool: &'a [T]) -> &'a T {
        &pool[(self.next() as usize) % pool.len()]
    }
}

const QUERIES: &[&str] = &["d.(b.c)+.c", "a.(b.c)*", "(a.b)+|(b.c)+", "(b.c)+"];
const STRATEGIES: &[&str] = &["rtc", "full", "none"];
const LIMITS: &[&str] = &["0", "1", "5", "100"];

/// The seeded command log for client `i`: interleaved queries, overlay
/// changes, and toggles of the client's own `zz` edge.
fn client_schedule(i: usize, commands: usize) -> Vec<String> {
    let mut rng = Lcg(0x5eed_0000 + i as u64);
    let mut edge_present = true; // setup inserted it
    let mut binary_on = false;
    let mut out = Vec::with_capacity(commands);
    for _ in 0..commands {
        match rng.next() % 10 {
            0..=3 => out.push(format!("query {}", rng.pick(QUERIES))),
            4 => out.push(format!("strategy {}", rng.pick(STRATEGIES))),
            5 => out.push(format!("limit {}", rng.pick(LIMITS))),
            6 => out.push(format!("threads {}", 1 + rng.next() % 2)),
            7 | 8 => {
                // Toggle this client's private edge: the graph mutates for
                // real (epoch advances, cache entries go stale) but no
                // query result anywhere depends on a `zz` edge.
                let op = if edge_present { "del" } else { "ins" };
                edge_present = !edge_present;
                out.push(format!("delta {op} {} zz {}", 20 + i, 30 + i));
            }
            _ if i < 2 => {
                // Two clients exercise binary frames under concurrency.
                binary_on = !binary_on;
                out.push(format!("binary {}", if binary_on { "on" } else { "off" }));
            }
            _ => out.push(format!("query {}", rng.pick(QUERIES))),
        }
    }
    out
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

/// Replays one client's log on a fresh single-threaded session over the
/// same initial state, through the same wire encoding and parser.
fn replay(setup: &[String], log: &[String]) -> Vec<WireResponse> {
    replay_with(base_config(), setup, log)
}

/// [`replay`] under an explicit engine configuration.
fn replay_with(
    config: rpq_core::EngineConfig,
    setup: &[String],
    log: &[String],
) -> Vec<WireResponse> {
    let mut session = Session::with_config(config);
    for cmd in setup {
        session.execute(cmd).expect("setup responds");
    }
    log.iter()
        .map(|cmd| {
            let response = session.execute(cmd).expect("command responds");
            let mut bytes = Vec::new();
            response.write_to(&mut bytes).unwrap();
            let mut reader = BufReader::new(&bytes[..]);
            let parsed = read_response(&mut reader);
            let mut rest = Vec::new();
            reader.read_to_end(&mut rest).unwrap();
            assert!(rest.is_empty(), "replay response had trailing bytes");
            parsed
        })
        .collect()
}

#[test]
fn concurrent_clients_match_single_threaded_replay() {
    const CLIENTS: usize = 8;
    const COMMANDS: usize = 30;
    let setup = setup_commands(CLIENTS);
    let addr = spawn_server(&setup);

    // All clients connect first, then run their schedules concurrently.
    let live: Vec<(Vec<String>, Vec<WireResponse>)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|i| {
                let schedule = client_schedule(i, COMMANDS);
                s.spawn(move || {
                    let mut client = Client::connect(addr);
                    let responses: Vec<WireResponse> =
                        schedule.iter().map(|cmd| client.roundtrip(cmd)).collect();
                    client.quit_clean();
                    (schedule, responses)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    for (i, (schedule, responses)) in live.iter().enumerate() {
        let expected = replay(&setup, schedule);
        assert_eq!(responses.len(), expected.len());
        for (cmd, (got, want)) in schedule.iter().zip(responses.iter().zip(&expected)) {
            assert_eq!(
                normalize(&got.status),
                normalize(&want.status),
                "client {i}, command '{cmd}'"
            );
            assert_eq!(got.lines, want.lines, "client {i}, command '{cmd}'");
            assert_eq!(
                got.binary, want.binary,
                "client {i}, command '{cmd}': binary frames diverged"
            );
        }
    }
}

/// The running total from the `metrics` budget line (`… evictions=N (…`).
fn eviction_total(metrics: &WireResponse) -> u64 {
    let line = metrics
        .lines
        .iter()
        .find(|l| l.contains("evictions="))
        .expect("metrics report the cache budget line");
    line.split("evictions=")
        .nth(1)
        .unwrap()
        .split([' ', '('])
        .next()
        .unwrap()
        .parse()
        .unwrap_or_else(|_| panic!("bad eviction total in '{line}'"))
}

/// ISSUE 9: the equivalence property holds under continuous eviction
/// churn. The same seeded 8-client schedules run against a server whose
/// structural cache holds a single entry, so every closure alternation
/// evicts and rebuilds while deltas advance epochs out of the view ring;
/// responses must still be byte-identical to a single-threaded replay
/// under the same budget — no ERR, no torn frames — while a monitor
/// connection watches the eviction counters climb monotonically.
#[test]
fn concurrent_clients_under_tiny_budget_match_replay() {
    const CLIENTS: usize = 8;
    const COMMANDS: usize = 30;
    let setup = setup_commands(CLIENTS);
    let addr = spawn_server_with(tiny_budget_config(), &setup);

    let done = std::sync::atomic::AtomicBool::new(false);
    let live: Vec<(Vec<String>, Vec<WireResponse>)> = std::thread::scope(|s| {
        let monitor = s.spawn(|| {
            let mut m = Client::connect(addr);
            let mut last = 0u64;
            while !done.load(std::sync::atomic::Ordering::Relaxed) {
                let r = m.roundtrip("metrics");
                assert!(r.status.starts_with("OK "), "{}", r.status);
                let total = eviction_total(&r);
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
        let handles: Vec<_> = (0..CLIENTS)
            .map(|i| {
                let schedule = client_schedule(i, COMMANDS);
                s.spawn(move || {
                    let mut client = Client::connect(addr);
                    let responses: Vec<WireResponse> =
                        schedule.iter().map(|cmd| client.roundtrip(cmd)).collect();
                    client.quit_clean();
                    (schedule, responses)
                })
            })
            .collect();
        let live = handles.into_iter().map(|h| h.join().unwrap()).collect();
        done.store(true, std::sync::atomic::Ordering::Relaxed);
        let evictions = monitor.join().unwrap();
        assert!(
            evictions > 0,
            "a one-entry budget under 8 churning clients must evict"
        );
        live
    });

    for (i, (schedule, responses)) in live.iter().enumerate() {
        let expected = replay_with(tiny_budget_config(), &setup, schedule);
        assert_eq!(responses.len(), expected.len());
        for (cmd, (got, want)) in schedule.iter().zip(responses.iter().zip(&expected)) {
            assert!(
                got.status.starts_with("OK "),
                "client {i}, command '{cmd}': {}",
                got.status
            );
            assert_eq!(
                normalize(&got.status),
                normalize(&want.status),
                "client {i}, command '{cmd}'"
            );
            assert_eq!(got.lines, want.lines, "client {i}, command '{cmd}'");
            assert_eq!(
                got.binary, want.binary,
                "client {i}, command '{cmd}': binary frames diverged"
            );
        }
    }
}

#[test]
fn responses_never_start_payload_with_status_prefix() {
    // A focused check of the framing invariant the parser relies on: run
    // one client through every command shape and inspect raw payloads.
    let addr = spawn_server(&setup_commands(1));
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
        let r = c.roundtrip(cmd);
        for line in &r.lines {
            assert!(
                !line.starts_with("OK") && !line.starts_with("ERR"),
                "'{cmd}' payload line '{line}' breaks framing"
            );
        }
    }
    c.quit_clean();
}

/// Parses the leading pair count out of an `OK N pairs …` status line.
fn pair_count(status: &str) -> usize {
    status
        .strip_prefix("OK ")
        .and_then(|s| s.split_whitespace().next())
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
    let addr = spawn_server_with(
        rpq_core::EngineConfig {
            cache_budget: rpq_core::CacheBudget::default(),
            ..base_config()
        },
        &["gen rmat 3 14 42".to_string()],
    );
    let mut a = Client::connect(addr);
    let mut b = Client::connect(addr);
    a.roundtrip("limit 0");
    b.roundtrip("limit 0");

    let start = Instant::now();
    a.send("query l0+");
    let slow = std::thread::spawn(move || {
        let response = read_response(&mut a.reader);
        (a, Instant::now(), response)
    });
    // Give A time to parse and pin its epoch view.
    std::thread::sleep(Duration::from_millis(100));

    // Three publishes while A evaluates. The `zz` edges leave every `l0`
    // result untouched, so the pinned/live distinction is isolated to the
    // epoch mechanics, not the data.
    for i in 1..=3u32 {
        let r = b.roundtrip(&format!("delta ins 0 zz {i}"));
        assert!(r.status.starts_with("OK epoch"), "{}", r.status);
    }
    let live = b.roundtrip("epoch");
    assert_eq!(live.status, "OK epoch 3");
    let writes_done = Instant::now();

    let (mut a, a_done, slow_response) = slow.join().unwrap();
    assert!(
        slow_response.status.starts_with("OK "),
        "{}",
        slow_response.status
    );
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
    assert!(pinned.status.starts_with("OK "), "{}", pinned.status);
    assert_eq!(
        pair_count(&pinned.status),
        pair_count(&slow_response.status)
    );
    let metrics = a.roundtrip("metrics");
    let results_line = metrics
        .lines
        .iter()
        .find(|l| l.contains("view hits"))
        .expect("metrics report result-cache tiers");
    assert!(
        !results_line
            .trim_start()
            .starts_with("results: 0 view hits"),
        "pinned re-read was not a view hit: {results_line}"
    );
    a.quit_clean();
    b.quit_clean();
}

/// MVCC retention bounds over the wire: epochs fall out of the ring in
/// FIFO order, evicted epochs are clean `ERR`s naming the retained range,
/// and every retained epoch answers with the result its replay produces.
#[test]
fn mvcc_evicted_epochs_error_and_ring_stays_bounded() {
    let addr = spawn_server(&setup_commands(1));
    let mut c = Client::connect(addr);
    // setup_commands already advanced to epoch 2 (grow + zz insert).
    // Push well past the retention window.
    let total = rpq_server::RETAINED_VIEWS as u32 + 4;
    for i in 0..total {
        let r = c.roundtrip(&format!("delta ins {} zz {}", 2 * i % 7, 30 + i));
        assert!(r.status.starts_with("OK epoch"), "{}", r.status);
    }
    let info = c.roundtrip("info");
    assert!(
        info.status
            .contains(&format!("views {}", rpq_server::RETAINED_VIEWS)),
        "{}",
        info.status
    );
    // Oldest epochs are gone…
    let r = c.roundtrip("query (b.c)+ at 0");
    assert!(
        r.status.starts_with("ERR epoch 0 not retained"),
        "{}",
        r.status
    );
    assert!(r.status.contains("epochs"), "{}", r.status);
    // …while every retained epoch still answers, all with the same result
    // (`zz` deltas never touch query labels).
    let newest = 2 + total as u64;
    let oldest = newest - (rpq_server::RETAINED_VIEWS as u64 - 1);
    let want = pair_count(&c.roundtrip("query (b.c)+").status);
    for e in oldest..=newest {
        let r = c.roundtrip(&format!("query (b.c)+ at {e}"));
        assert!(r.status.starts_with("OK "), "epoch {e}: {}", r.status);
        assert_eq!(pair_count(&r.status), want, "epoch {e}");
    }
    let r = c.roundtrip(&format!("query (b.c)+ at {}", oldest - 1));
    assert!(r.status.starts_with("ERR "), "{}", r.status);
    c.quit_clean();
}

/// Edges the MVCC proptest toggles — real query labels, so pinned results
/// genuinely differ across epochs.
const MVCC_DELTAS: &[(u32, &str, u32)] = &[(6, "b", 8), (8, "c", 6), (1, "a", 9), (9, "d", 7)];
const MVCC_QUERIES: &[&str] = &["d.(b.c)+.c", "(b.c)+", "a.(b.c)+", "(a.b)+|(b.c)+"];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// MVCC equivalence: arbitrary interleavings of writes and pinned
    /// reads. Every `query … at <epoch>` must return exactly the pairs the
    /// pair-set algebra reference (`rpq_eval::evaluate_algebraic`, no
    /// engine code) produces after replaying the delta log up to that
    /// epoch — the time-travel acceptance criterion.
    #[test]
    fn mvcc_pinned_reads_match_replay_at_their_epoch(
        ops in prop::collection::vec((0..3usize, 0..16usize), 1..40)
    ) {
        let mut s = Session::with_config(base_config());
        s.execute("gen paper").unwrap();
        s.execute("binary on").unwrap();
        // The applied-delta log: entry i produced epoch i+1.
        let mut log: Vec<(bool, (u32, &str, u32))> = Vec::new();
        let mut present = [false; MVCC_DELTAS.len()];
        for (kind, arg) in ops {
            if kind == 0 {
                // Write: toggle one pool edge, publishing a new epoch.
                let i = arg % MVCC_DELTAS.len();
                let (src, label, dst) = MVCC_DELTAS[i];
                let verb = if present[i] { "del" } else { "ins" };
                let r = s.execute(&format!("delta {verb} {src} {label} {dst}")).unwrap();
                prop_assert!(matches!(r.status, Status::Ok(_)), "{:?}", r.status);
                log.push((present[i], MVCC_DELTAS[i]));
                present[i] = !present[i];
            } else {
                // Pinned read at a random retained epoch.
                let (lo, hi, _) = s.shared().retained_span();
                let epoch = lo + (arg as u64) % (hi - lo + 1);
                let query = MVCC_QUERIES[arg % MVCC_QUERIES.len()];
                let r = s.execute(&format!("query {query} at {epoch}")).unwrap();
                let bin = r.binary.as_ref().expect("binary mode response");
                let got = wire::decode_pairs(&bin.bytes, bin.pairs).unwrap();
                // Single-threaded replay of the log up to the pinned epoch.
                let mut model = rpq_graph::VersionedGraph::new(rpq_graph::fixtures::paper_graph());
                for (was_present, (src, label, dst)) in &log[..epoch as usize] {
                    let mut d = rpq_graph::GraphDelta::new();
                    if *was_present {
                        d.delete(*src, label, *dst);
                    } else {
                        d.insert(*src, label, *dst);
                    }
                    model.apply(&d);
                }
                let oracle = rpq_eval::evaluate_algebraic(
                    model.graph(),
                    &rpq_regex::Regex::parse(query).unwrap(),
                );
                let want: Vec<(u32, u32)> =
                    oracle.iter().map(|(x, y)| (x.raw(), y.raw())).collect();
                prop_assert_eq!(got, want, "epoch {} of {:?}", epoch, s.shared().retained_span());
                // An epoch just past the ring is a clean error, never a
                // wrong answer.
                if lo > 0 {
                    let r = s.execute(&format!("query {query} at {}", lo - 1)).unwrap();
                    prop_assert!(
                        matches!(r.status, Status::Err(ref e) if e.contains("not retained")),
                        "{:?}", r.status
                    );
                }
            }
        }
    }
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
    let addr = spawn_server(&["gen rmat 3 14 42".to_string()]);
    let mut a = Client::connect(addr);
    let mut b = Client::connect(addr);
    a.roundtrip("limit 0");
    b.roundtrip("limit 0");

    let start = Instant::now();
    a.send("query l0+");
    let slow = std::thread::spawn(move || {
        let response = read_response(&mut a.reader);
        (Instant::now(), response)
    });
    // Give A time to parse and enter evaluation under the read lock.
    std::thread::sleep(Duration::from_millis(100));

    let fast_epoch = b.roundtrip("epoch");
    assert_eq!(fast_epoch.status, "OK epoch 0");
    let fast_query = b.roundtrip("query l1");
    assert!(
        fast_query.status.starts_with("OK "),
        "{}",
        fast_query.status
    );
    let b_done = Instant::now();

    let (a_done, slow_response) = slow.join().unwrap();
    assert!(
        slow_response.status.starts_with("OK "),
        "{}",
        slow_response.status
    );
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
