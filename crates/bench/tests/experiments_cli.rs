//! The `experiments` driver's exit status, run as a real process.

use std::process::{Command, Output};

fn experiments(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_experiments"))
        .args(args)
        .output()
        .expect("the experiments binary runs")
}

/// A table that cannot be written under `--json` fails the run, after
/// every requested table has still printed: a drift gate reading the
/// JSON must not mistake a missing table for a passing one.
#[test]
fn a_failed_json_write_exits_1_after_every_table_prints() {
    // A regular file where the output directory should be.
    let not_a_dir = std::env::temp_dir().join(format!("rpq_json_target_{}", std::process::id()));
    std::fs::write(&not_a_dir, b"").unwrap();
    let out = experiments(&[
        "table4",
        "cache",
        "--profile",
        "fast",
        "--json",
        not_a_dir.to_str().unwrap(),
    ]);
    std::fs::remove_file(&not_a_dir).ok();
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert_eq!(stderr.matches("[json] write failed").count(), 2, "{stderr}");
    assert!(stdout.contains("== TABLE IV"), "{stdout}");
    assert!(stdout.contains("== Ablation: cache pressure"), "{stdout}");
}

/// `--threads` and `--csv` are unknown flags: each is rejected with the
/// usage text before any table runs.
#[test]
fn removed_flags_exit_1_with_usage() {
    let dir = std::env::temp_dir().join(format!("rpq_csv_target_{}", std::process::id()));
    let dir = dir.to_str().unwrap();
    for flag in [["--threads", "2"], ["--csv", dir]] {
        let out = experiments(&[flag[0], flag[1], "table4", "--profile", "fast"]);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{flag:?}: {stderr}");
        assert!(stderr.contains("usage: experiments"), "{flag:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{flag:?}");
    }
}
