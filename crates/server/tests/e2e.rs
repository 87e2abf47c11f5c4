//! End-to-end tests of the `rpq` binary: the REPL command loop driven
//! over a real pipe, `rpq serve` over a real socket, and a warm restart
//! across two separate processes.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::process::{Child, ChildStderr, Command, Stdio};
use std::time::{Duration, Instant};

/// Runs `rpq repl` with `script` piped to stdin, returning stdout.
fn run_repl_process(args: &[&str], script: impl AsRef<[u8]>) -> (String, bool) {
    let mut child = Command::new(env!("CARGO_BIN_EXE_rpq"))
        .arg("repl")
        .args(args)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn rpq repl");
    child
        .stdin
        .take()
        .expect("stdin piped")
        .write_all(script.as_ref())
        .expect("write script");
    let out = child.wait_with_output().expect("wait for rpq");
    (
        String::from_utf8(out.stdout).expect("utf-8 stdout"),
        out.status.success(),
    )
}

#[test]
fn repl_full_command_loop_over_a_pipe() {
    let script = "\
gen paper
info
query d.(b.c)+.c
query a.(b.c)+
cache
delta ins 6 b 8 ins 8 c 6
epoch
query d.(b.c)+.c
metrics
strategy full
query d.(b.c)+.c
quit
";
    let (stdout, ok) = run_repl_process(&[], script);
    assert!(ok, "rpq repl exited nonzero; stdout:\n{stdout}");

    // Load/graph status.
    assert!(
        stdout.contains("OK loaded paper graph: 10 vertices, 15 edges, 6 labels"),
        "missing gen response:\n{stdout}"
    );
    assert!(
        stdout.contains("OK graph 'paper'"),
        "missing info:\n{stdout}"
    );
    // Example 1's result, twice (RTC then FullSharing agree).
    assert!(stdout.matches("  v7 -> v5").count() >= 2, "{stdout}");
    // Second query shares the (b.c) RTC: the cache report shows 1 entry.
    assert!(
        stdout.contains("1 rtc"),
        "cache breakdown missing:\n{stdout}"
    );
    // The delta advanced the epoch.
    assert!(stdout.contains("OK epoch 1"), "{stdout}");
    // Metrics render.
    assert!(stdout.contains("maintenance: deltas=1"), "{stdout}");
    // Clean shutdown.
    assert!(stdout.trim_end().ends_with("OK bye"), "{stdout}");
}

#[test]
fn repl_errors_are_in_band_and_nonfatal() {
    let script = "\
gen paper
query (((
nonsense
query d.(b.c)+.c
quit
";
    let (stdout, ok) = run_repl_process(&[], script);
    assert!(ok);
    assert!(stdout.contains("ERR query failed"), "{stdout}");
    assert!(stdout.contains("ERR unknown command"), "{stdout}");
    // The loop survived both errors and answered the good query.
    assert!(stdout.contains("OK 2 pairs"), "{stdout}");
}

#[test]
fn snapshot_warm_restart_across_processes() {
    let dir = std::env::temp_dir().join("rpq_e2e_snapshot");
    std::fs::create_dir_all(&dir).unwrap();
    let snap = dir.join("warm.snap");
    let snap_str = snap.to_str().unwrap();

    // Process 1: build state, evaluate (computing the RTC), snapshot.
    let script = format!("gen paper\nquery d.(b.c)+.c\nsave {snap_str}\nquit\n");
    let (stdout, ok) = run_repl_process(&[], &script);
    assert!(ok, "{stdout}");
    assert!(stdout.contains("1 cached structures"), "{stdout}");

    // Process 2: warm restart via --load; the first query must be served
    // from the restored cache (0 misses reported by `cache`).
    let script = "query d.(b.c)+.c\ncache\nquit\n";
    let (stdout, ok) = run_repl_process(&["--load", snap_str], script);
    assert!(ok, "{stdout}");
    assert!(stdout.contains("OK 2 pairs"), "{stdout}");
    assert!(stdout.contains("0 misses"), "warm cache missed:\n{stdout}");
    assert!(!stdout.contains(" 0 hits"), "no hit recorded:\n{stdout}");
    std::fs::remove_file(&snap).ok();
}

/// The `results:` payload line of every `cache` reply in `stdout`.
fn results_lines(stdout: &str) -> Vec<&str> {
    let lines = stdout.lines().map(str::trim_start);
    lines.filter(|l| l.starts_with("results:")).collect()
}

/// The result tier is bounded by the byte budget, not by a count: all 340
/// label paths of length 1–4 over `a b c d` stay memoized under 8 MiB,
/// so asking them all again is 340 view hits and nothing is evicted.
#[test]
fn more_than_256_results_stay_memoized_under_a_byte_budget() {
    let labels = ["a", "b", "c", "d"];
    let mut longest: Vec<String> = labels.map(String::from).to_vec();
    let mut paths = longest.clone();
    for _ in 1..4 {
        longest = longest
            .iter()
            .flat_map(|p| labels.map(|l| format!("{p}.{l}")))
            .collect();
        paths.extend(longest.iter().cloned());
    }
    assert_eq!(paths.len(), 340);
    let pass: String = paths.iter().map(|p| format!("query {p}\n")).collect();
    let script = format!("gen paper\nlimit 0\n{pass}cache\n{pass}cache\nquit\n");
    let (stdout, ok) = run_repl_process(&["--cache-budget", "bytes=8m"], script);
    assert!(ok, "rpq repl exited nonzero");
    let results = results_lines(&stdout);
    assert_eq!(results.len(), 2, "{stdout}");
    assert!(
        results[0].starts_with("results: 340 memoized ("),
        "{}",
        results[0]
    );
    assert!(
        results[1].contains(" 340 view hits, 340 result misses (cap bytes=8388608), 0 evicted"),
        "{}",
        results[1]
    );
}

/// The REPL smoke script — gen, prepare, query, delta, query, save, load,
/// query — under `--cache-budget 64k` answers exactly as unbounded, and
/// the budget reaches the engine.
#[test]
fn repl_smoke_under_a_64k_budget_answers_like_unbounded() {
    let dir = std::env::temp_dir().join(format!("rpq_e2e_budget_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let snap = dir.join("smoke.snap");
    let snap = snap.to_str().unwrap();
    let script = format!(
        "gen paper\ninfo\nprepare d.(b.c)+.c\nquery d.(b.c)+.c\ncache\n\
         delta ins 6 b 8 ins 8 c 6\nquery d.(b.c)+.c\nsave {snap}\nload {snap}\n\
         query d.(b.c)+.c\ncache\nquit\n"
    );
    // Pair lines and status lines without their timings; `info` names
    // the budget, so it is left out.
    let answers = |stdout: &str| -> Vec<String> {
        let lines = stdout
            .lines()
            .filter(|l| l.starts_with("  v") || l.starts_with("OK "));
        let lines = lines.filter(|l| !l.starts_with("OK graph"));
        lines
            .map(|l| l.split(" in ").next().unwrap().to_owned())
            .collect()
    };
    let (bounded, ok) = run_repl_process(&["--cache-budget", "64k"], &script);
    assert!(ok, "{bounded}");
    assert!(
        bounded.contains("budget bytes=65536, occupancy"),
        "{bounded}"
    );
    assert!(
        bounded.contains("prepared: 1 bodies computed, 0 reused"),
        "{bounded}"
    );
    assert!(bounded.contains("1 hits, 1 misses"), "{bounded}");
    assert!(bounded.contains("1 hits, 0 misses"), "{bounded}");
    assert_eq!(
        bounded
            .matches("  v7 -> v3\n  v7 -> v5\nOK 2 pairs")
            .count(),
        3
    );
    let (unbounded, ok) = run_repl_process(&[], &script);
    assert!(ok, "{unbounded}");
    assert_eq!(answers(&bounded), answers(&unbounded));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn startup_flags_shape_the_session() {
    let script = "gen paper\ninfo\nquit\n";
    let (stdout, ok) = run_repl_process(&["--strategy", "full"], script);
    assert!(ok);
    assert!(
        stdout.contains("strategy FullSharing, limit 10"),
        "{stdout}"
    );
}

#[test]
fn bad_usage_exits_nonzero() {
    let out = Command::new(env!("CARGO_BIN_EXE_rpq"))
        .arg("frobnicate")
        .output()
        .unwrap();
    assert!(!out.status.success());
    let out = Command::new(env!("CARGO_BIN_EXE_rpq"))
        .args(["serve"]) // missing --addr
        .output()
        .unwrap();
    assert!(!out.status.success());
    // The server reads no thread count, so it takes no such flag.
    let out = Command::new(env!("CARGO_BIN_EXE_rpq"))
        .args(["repl", "--threads", "2"])
        .stdin(Stdio::null())
        .output()
        .unwrap();
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unknown flag '--threads'"), "{stderr}");
    assert!(stderr.contains("usage: rpq repl"), "{stderr}");
    let out = Command::new(env!("CARGO_BIN_EXE_rpq"))
        .args(["repl", "--load", "/no/such/file.el"])
        .stdin(Stdio::null())
        .output()
        .unwrap();
    assert!(!out.status.success());
    // The budget comes from `--cache-budget` alone: the environment does
    // not set it, even with a malformed spec.
    let mut child = Command::new(env!("CARGO_BIN_EXE_rpq"))
        .arg("repl")
        .env("RPQ_CACHE_BUDGET", "64 kilobytes")
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .spawn()
        .unwrap();
    let mut stdin = child.stdin.take().unwrap();
    stdin.write_all(b"gen paper\ninfo\nquit\n").unwrap();
    drop(stdin);
    let out = child.wait_with_output().unwrap();
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("budget unbounded"), "{stdout}");
    // The budget has no TTL axis: a spec naming one is malformed.
    let out = Command::new(env!("CARGO_BIN_EXE_rpq"))
        .args(["repl", "--cache-budget", "bytes=1m,ttl=4"])
        .stdin(Stdio::null())
        .output()
        .unwrap();
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("bad --cache-budget"), "{stderr}");
}

/// A running `rpq serve --addr 127.0.0.1:0`, killed on drop.
struct Server {
    child: Child,
    stderr: BufReader<ChildStderr>,
}

impl Drop for Server {
    fn drop(&mut self) {
        self.child.kill().ok();
        self.child.wait().ok();
    }
}

/// One client of a fresh `rpq serve` on the port its `listening on` line
/// names, past the greeting.
fn serve_and_connect() -> (Server, BufReader<TcpStream>, TcpStream) {
    let mut child = Command::new(env!("CARGO_BIN_EXE_rpq"))
        .args(["serve", "--addr", "127.0.0.1:0"])
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn rpq serve");
    let stderr = BufReader::new(child.stderr.take().expect("stderr piped"));
    let mut server = Server { child, stderr };
    let mut line = String::new();
    server.stderr.read_line(&mut line).expect("listening line");
    let addr = line
        .strip_prefix("listening on ")
        .and_then(|rest| rest.split_whitespace().next())
        .unwrap_or_else(|| panic!("no address in '{line}'"));
    let stream = TcpStream::connect(addr).expect("connect");
    stream.set_nodelay(true).unwrap();
    let writer = stream.try_clone().unwrap();
    let mut reader = BufReader::new(stream);
    assert_eq!(read_reply(&mut reader), ["OK rtc-rpq ready"]);
    (server, reader, writer)
}

/// Sends `request` in one write and reads the reply through its status
/// line.
fn roundtrip(reader: &mut impl BufRead, writer: &mut impl Write, request: &[u8]) -> Vec<String> {
    writer.write_all(request).unwrap();
    read_reply(reader)
}

fn read_reply(reader: &mut impl BufRead) -> Vec<String> {
    let mut lines = Vec::new();
    loop {
        let mut line = String::new();
        assert!(reader.read_line(&mut line).unwrap() > 0, "server hung up");
        let line = line.trim_end().to_string();
        let done = line.starts_with("OK ") || line.starts_with("ERR ");
        lines.push(line);
        if done {
            return lines;
        }
    }
}

/// Each reply leaves in one flush on a `TCP_NODELAY` socket, so a reply
/// with payload lines never waits ~40 ms for the client's delayed ACK.
#[test]
fn serve_replies_with_payload_do_not_stall() {
    let (_server, mut r, mut w) = serve_and_connect();
    roundtrip(&mut r, &mut w, b"gen paper\n");
    let t = Instant::now();
    for _ in 0..20 {
        let reply = roundtrip(&mut r, &mut w, b"query d.(b.c)+.c\n");
        assert_eq!(reply[..2], ["  v7 -> v3", "  v7 -> v5"]);
        assert!(reply[2].starts_with("OK 2 pairs"), "{reply:?}");
    }
    let elapsed = t.elapsed();
    assert!(
        elapsed < Duration::from_millis(400),
        "20 round trips took {elapsed:?}"
    );
}

/// Any byte sequence yields `ERR`: a request that is not UTF-8 is answered
/// in-band on both transports, and serving goes on.
#[test]
fn non_utf8_requests_are_errors_on_both_transports() {
    let (_server, mut r, mut w) = serve_and_connect();
    let reply = roundtrip(&mut r, &mut w, b"\xff\xfe\n");
    assert_eq!(reply, ["ERR request is not valid UTF-8"]);
    let reply = roundtrip(&mut r, &mut w, b"info\n");
    assert!(reply[0].starts_with("OK graph 'empty'"), "{reply:?}");

    let (stdout, ok) = run_repl_process(&[], b"\xff\xfe\ninfo\n");
    assert!(ok, "rpq repl exited nonzero; stdout:\n{stdout}");
    let lines: Vec<&str> = stdout.lines().collect();
    assert_eq!(lines[0], "ERR request is not valid UTF-8");
    assert!(lines[1].starts_with("OK graph 'empty'"), "{stdout}");
    assert_eq!(lines.len(), 2, "{stdout}");
}

/// `threads` is not a command: over TCP it is answered in-band with `ERR`,
/// and the connection goes on serving.
#[test]
fn threads_is_an_unknown_command_over_tcp() {
    let (_server, mut r, mut w) = serve_and_connect();
    roundtrip(&mut r, &mut w, b"gen paper\n");
    let reply = roundtrip(&mut r, &mut w, b"threads 2\n");
    assert_eq!(reply, ["ERR unknown command 'threads' (try 'help')"]);
    let reply = roundtrip(&mut r, &mut w, b"query d.(b.c)+.c\n");
    assert_eq!(reply[..2], ["  v7 -> v3", "  v7 -> v5"]);
    assert!(reply[2].starts_with("OK 2 pairs"), "{reply:?}");
}
