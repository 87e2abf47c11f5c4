//! The server under test as a child process: built from this checkout,
//! started on an ephemeral port, and stopped on every exit path.

use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::os::unix::process::CommandExt;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::thread::JoinHandle;

/// Where everything the benchmark writes goes (relative to the checkout
/// root, which is the working directory).
pub const OUT_DIR: &str = "benchmark/out";

/// Builds `rpq` in release mode from the checkout in the working
/// directory and returns the binary's path. The path is fixed by
/// construction (`<target>/release/rpq`), so a debug server can never be
/// measured by accident.
pub fn build_rpq() -> Result<PathBuf, String> {
    let status = Command::new("cargo")
        .args([
            "build",
            "--release",
            "--offline",
            "--quiet",
            "-p",
            "rpq_server",
        ])
        .stdin(Stdio::null())
        // cargo reports on stderr; keep stdout for the result line.
        .stdout(Stdio::null())
        .status()
        .map_err(|e| format!("cannot run cargo: {e}"))?;
    if !status.success() {
        return Err(format!("cargo build -p rpq_server failed ({status})"));
    }
    let target =
        std::env::var_os("CARGO_TARGET_DIR").map_or_else(|| PathBuf::from("target"), PathBuf::from);
    let bin = target.join("release").join("rpq");
    if !bin.is_file() {
        return Err(format!("built binary not found at {}", bin.display()));
    }
    Ok(bin)
}

extern "C" {
    fn prctl(option: i32, arg2: u64, arg3: u64, arg4: u64, arg5: u64) -> i32;
}
const PR_SET_PDEATHSIG: i32 = 1;
const SIGKILL: u64 = 9;

/// A file removed when the guard drops (the generated edge lists).
pub struct TempFile(pub PathBuf);

impl Drop for TempFile {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.0);
    }
}

/// A running `rpq serve`. Dropping it kills the child, waits for it and
/// joins the stderr drain — which covers normal exit, `?` returns and
/// panics. A harness that is itself killed (Ctrl-C, SIGKILL) is covered by
/// the parent-death signal set at spawn.
pub struct Server {
    child: Child,
    addr: SocketAddr,
    stderr_drain: Option<JoinHandle<()>>,
}

impl Server {
    /// Starts `rpq serve --addr 127.0.0.1:0 --load <edge_list> <flags…>`
    /// and waits for its `listening on <addr>` line.
    pub fn spawn(rpq: &Path, edge_list: &Path, flags: &[&str]) -> Result<Server, String> {
        let mut cmd = Command::new(rpq);
        cmd.args(["serve", "--addr", "127.0.0.1:0", "--load"])
            .arg(edge_list)
            .args(flags)
            // The budget comes from the workload's flags, never from the
            // caller's environment.
            .env_remove("RPQ_CACHE_BUDGET")
            .env_remove("RPQ_REPR")
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped());
        // SAFETY: the closure runs in the forked child before exec and
        // makes one async-signal-safe system call with constant
        // arguments; it touches no memory shared with the parent.
        // PR_SET_PDEATHSIG asks the kernel to SIGKILL the child when the
        // thread that forked it (the harness's main thread, which lives
        // as long as the process) exits for any reason.
        unsafe {
            cmd.pre_exec(|| {
                if prctl(PR_SET_PDEATHSIG, SIGKILL, 0, 0, 0) != 0 {
                    return Err(std::io::Error::last_os_error());
                }
                Ok(())
            });
        }
        let mut child = cmd
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", rpq.display()))?;
        let stderr = child.stderr.take().expect("stderr was piped");
        let mut server = Server {
            child,
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
            stderr_drain: None,
        };
        let mut lines = BufReader::new(stderr).lines();
        let mut seen = Vec::new();
        let addr = loop {
            match lines.next() {
                Some(Ok(line)) => {
                    if let Some(addr) = parse_listening(&line) {
                        break addr;
                    }
                    seen.push(line);
                }
                // EOF or a read error before the line: the server died.
                _ => {
                    return Err(format!(
                        "server exited before listening: {}",
                        seen.join(" | ")
                    ))
                }
            }
        };
        server.addr = addr;
        // Keep the pipe drained so a chatty server can never block on it,
        // and pass on what it says (a panic message, most usefully).
        server.stderr_drain = Some(std::thread::spawn(move || {
            for line in lines.map_while(Result::ok) {
                eprintln!("rpq: {line}");
            }
        }));
        Ok(server)
    }

    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Peak resident set size of the server so far, in MB (`VmHWM`).
    pub fn peak_rss_mb(&self) -> Option<f64> {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.child.id())).ok()?;
        parse_vm_hwm_kb(&status).map(|kb| kb / 1000.0)
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        // Errors here mean the child is already gone, which is the goal.
        let _ = self.child.kill();
        let _ = self.child.wait();
        if let Some(drain) = self.stderr_drain.take() {
            let _ = drain.join();
        }
    }
}

/// Extracts the bound address from the server's
/// `listening on 127.0.0.1:41237 (line protocol, …)` line.
pub fn parse_listening(line: &str) -> Option<SocketAddr> {
    line.strip_prefix("listening on ")?
        .split_whitespace()
        .next()?
        .parse()
        .ok()
}

fn parse_vm_hwm_kb(status: &str) -> Option<f64> {
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .split_whitespace()
        .next()?
        .parse()
        .ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn listening_line_gives_the_ephemeral_port() {
        let line = "listening on 127.0.0.1:41237 (line protocol, max 256 connections; try: echo 'info' | nc 127.0.0.1:0)";
        assert_eq!(
            parse_listening(line),
            Some("127.0.0.1:41237".parse().unwrap())
        );
        assert_eq!(parse_listening("OK loaded 'x': 3 vertices"), None);
        assert_eq!(parse_listening("listening on nowhere"), None);
    }

    #[test]
    fn vm_hwm_is_read_in_kb() {
        let status = "Name:\trpq\nVmPeak:\t  999 kB\nVmHWM:\t  123456 kB\nVmRSS:\t 100 kB\n";
        assert_eq!(parse_vm_hwm_kb(status), Some(123456.0));
        assert_eq!(parse_vm_hwm_kb("Name:\trpq\n"), None);
    }

    #[test]
    fn missing_binary_is_an_error() {
        let err = Server::spawn(Path::new("/nonexistent/rpq"), Path::new("x.edges"), &[]).err();
        assert!(err.is_some_and(|e| e.contains("cannot start")));
    }

    #[test]
    fn temp_files_are_removed_on_drop() {
        // Tests run in `benchmark/`; the file never outlives the test.
        let path = PathBuf::from(format!("tempfile-test-{}.tmp", std::process::id()));
        std::fs::write(&path, "x").unwrap();
        drop(TempFile(path.clone()));
        assert!(!path.exists());
    }
}
