//! End-to-end tests of the `rpq` binary: the REPL command loop driven
//! over a real pipe, and a warm restart across two separate processes.

use std::io::Write;
use std::process::{Command, Stdio};

/// Runs `rpq repl` with `script` piped to stdin, returning stdout.
fn run_repl_process(args: &[&str], script: &str) -> (String, bool) {
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
        .write_all(script.as_bytes())
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

#[test]
fn startup_flags_shape_the_session() {
    let script = "gen paper\ninfo\nquit\n";
    let (stdout, ok) = run_repl_process(&["--strategy", "full", "--threads", "2"], script);
    assert!(ok);
    assert!(
        stdout.contains("strategy FullSharing, threads 2"),
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
    let out = Command::new(env!("CARGO_BIN_EXE_rpq"))
        .args(["repl", "--load", "/no/such/file.el"])
        .stdin(Stdio::null())
        .output()
        .unwrap();
    assert!(!out.status.success());
    // A malformed budget in the environment fails like one on the command
    // line — it must not silently mean "unbounded".
    let out = Command::new(env!("CARGO_BIN_EXE_rpq"))
        .arg("repl")
        .env("RPQ_CACHE_BUDGET", "64 kilobytes")
        .stdin(Stdio::null())
        .output()
        .unwrap();
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("bad RPQ_CACHE_BUDGET"), "{stderr}");
    // The budget has no TTL axis: a spec naming one is malformed.
    let out = Command::new(env!("CARGO_BIN_EXE_rpq"))
        .args(["repl", "--cache-budget", "bytes=1m,ttl=4"])
        .stdin(Stdio::null())
        .output()
        .unwrap();
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("bad --cache-budget"), "{stderr}");
    // Same for the row representation: a typo must not mean "adaptive".
    let out = Command::new(env!("CARGO_BIN_EXE_rpq"))
        .arg("repl")
        .env("RPQ_REPR", "bitset")
        .stdin(Stdio::null())
        .output()
        .unwrap();
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("bad RPQ_REPR"), "{stderr}");
}
