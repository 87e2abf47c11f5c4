//! The end-to-end run of one workload: start `rpq serve`, warm it up,
//! drive it over TCP in a closed loop for a fixed time, scrape its
//! counters, and verify every answer.

use crate::client::{Conn, Reply};
use crate::oracle::{verify_churn, Oracle, RoundAnswer};
use crate::scrape::layer_metrics;
use crate::server::{Server, TempFile, OUT_DIR};
use crate::stats::{median, Sample};
use crate::workloads::{Class, ConnPlan, Expect, Op, Plan, Workload};
use std::path::Path;
use std::sync::Barrier;
use std::time::{Duration, Instant};

/// What one connection measured.
#[derive(Default)]
struct ConnOutcome {
    /// Correct round-trips, indexed by `Class as usize`.
    samples: [Vec<Sample>; 6],
    /// Each completed cold set: the sum of its query round-trips.
    sets: Vec<Sample>,
    open_set_ms: f64,
    attempted: u64,
    failed: u64,
    rounds: Vec<RoundAnswer>,
    /// The stream ran out before the deadline (`churn` only).
    exhausted: bool,
    /// Why the connection stopped early, if it did.
    broken: Option<String>,
    /// Copied from the connection's plan onto its samples.
    background: bool,
}

impl ConnOutcome {
    /// Files one reply that took `elapsed` and completed `at_s` seconds
    /// into the region.
    fn record(&mut self, op: &Op, reply: &Reply, elapsed: Duration, at_s: f64, oracle: &Oracle) {
        let ms = elapsed.as_secs_f64() * 1e3;
        self.attempted += 1;
        if !oracle.accepts(&op.expect, reply) {
            self.failed += 1;
            return;
        }
        let sample = Sample {
            at_s,
            value: ms,
            bytes: reply.bytes,
            background: self.background,
        };
        self.samples[op.class as usize].push(sample);
        match op.class {
            Class::Query => {
                self.open_set_ms += ms;
                if op.closes_set {
                    let value = std::mem::take(&mut self.open_set_ms);
                    self.sets.push(Sample { value, ..sample });
                }
            }
            Class::Control if op.line == "reset cache" => self.open_set_ms = 0.0,
            _ => {}
        }
        if let Expect::AtRound { round, slot } = op.expect {
            if let Some(pairs) = reply.leading_count() {
                self.rounds.push(RoundAnswer { round, slot, pairs });
            }
        }
    }
}

/// Sends `ops` in order, each after the previous reply (closed loop),
/// until they run out or `deadline` passes. A transport failure — which
/// includes the 60 s read time-out — counts as one failed operation and
/// ends the connection's run: the stream cannot be resynchronised.
fn drive<'a>(
    conn: &mut Conn,
    ops: impl Iterator<Item = &'a Op>,
    deadline: Option<Instant>,
    oracle: &Oracle,
    out: &mut ConnOutcome,
) {
    let origin = Instant::now();
    for op in ops {
        if deadline.is_some_and(|d| Instant::now() >= d) {
            return;
        }
        let sent = Instant::now();
        match conn.roundtrip(&op.line) {
            Ok(reply) => {
                let done = Instant::now();
                out.record(
                    op,
                    &reply,
                    done - sent,
                    (done - origin).as_secs_f64(),
                    oracle,
                );
            }
            Err(e) => {
                out.attempted += 1;
                out.failed += 1;
                out.broken = Some(format!("'{}': {e}", op.line));
                return;
            }
        }
    }
    out.exhausted = deadline.is_some();
}

/// The operations of the timed region: the stream after its ramp.
fn stream_of(plan: &ConnPlan) -> Box<dyn Iterator<Item = &Op> + '_> {
    if plan.cyclic {
        Box::new(plan.stream.iter().cycle().skip(plan.ramp))
    } else {
        Box::new(plan.stream.iter().skip(plan.ramp))
    }
}

/// A started, warmed-up server with one open connection per plan entry.
struct Ready {
    server: Server,
    conns: Vec<Conn>,
    warmup: Vec<ConnOutcome>,
    setup_s: f64,
}

/// Child spawn → `listening on` → greeting → warm-up prefix, timed.
fn set_up(rpq: &Path, edge_list: &Path, plan: &Plan, oracle: &Oracle) -> Result<Ready, String> {
    let t = Instant::now();
    let server = Server::spawn(rpq, edge_list, &plan.server_flags)?;
    let mut conns = Vec::new();
    let mut warmup = Vec::new();
    for conn_plan in &plan.conns {
        let mut conn = Conn::open(server.addr())?;
        let mut out = ConnOutcome::default();
        drive(&mut conn, conn_plan.warmup.iter(), None, oracle, &mut out);
        if let Some(why) = &out.broken {
            return Err(format!("warm-up failed at {why}"));
        }
        conns.push(conn);
        warmup.push(out);
    }
    Ok(Ready {
        server,
        conns,
        warmup,
        setup_s: t.elapsed().as_secs_f64(),
    })
}

/// Everything one end-to-end run measured.
pub struct E2eResult {
    pub workload: Workload,
    pub connections: usize,
    /// One reading per set-up performed.
    pub setup_s: Vec<f64>,
    /// Length of the timed region.
    pub seconds: f64,
    samples: [Vec<Sample>; 6],
    pub sets: Vec<Sample>,
    pub attempted: u64,
    pub failed: u64,
    pub peak_rss_mb: Option<f64>,
    pub scraped: Vec<(&'static str, Option<f64>)>,
    pub notes: Vec<String>,
}

impl E2eResult {
    /// The correct round-trips of one class, all connections.
    pub fn samples(&self, class: Class) -> &[Sample] {
        &self.samples[class as usize]
    }

    /// Every correct, completed command of the timed region that a
    /// foreground connection sent.
    pub fn foreground_samples(&self) -> impl Iterator<Item = &Sample> {
        self.samples.iter().flatten().filter(|s| !s.background)
    }

    pub fn setup_median_s(&self) -> f64 {
        median(&self.setup_s)
    }

    /// A run that measured nothing: every metric name, no samples.
    #[cfg(test)]
    pub fn empty(workload: Workload) -> E2eResult {
        E2eResult {
            workload,
            connections: 0,
            setup_s: Vec::new(),
            seconds: 1.0,
            samples: Default::default(),
            sets: Vec::new(),
            attempted: 0,
            failed: 0,
            peak_rss_mb: None,
            scraped: layer_metrics(&[], &[]),
            notes: Vec::new(),
        }
    }
}

/// Runs `plan` end to end for `seconds`. `setups` full set-ups are
/// performed and timed; the last one serves the timed region.
pub fn run(
    rpq: &Path,
    plan: &Plan,
    oracle: &Oracle,
    seconds: f64,
    setups: usize,
    corrupt: bool,
) -> Result<E2eResult, String> {
    std::fs::create_dir_all(OUT_DIR).map_err(|e| format!("cannot create {OUT_DIR}: {e}"))?;
    let edge_list = TempFile(Path::new(OUT_DIR).join(format!(
        "tmp-{}-{}.edges",
        plan.workload.name(),
        std::process::id()
    )));
    rpq_datasets::io::save_graph(&plan.graph, &edge_list.0)
        .map_err(|e| format!("cannot write edge list: {e}"))?;

    let mut setup_s = Vec::with_capacity(setups);
    let mut ready = None;
    for _ in 0..setups.max(1) {
        // Stop the previous server before starting the next: two must
        // never share the cores.
        drop(ready.take());
        let r = set_up(rpq, &edge_list.0, plan, oracle)?;
        setup_s.push(r.setup_s);
        ready = Some(r);
    }
    let Ready {
        server,
        mut conns,
        mut warmup,
        ..
    } = ready.expect("at least one set-up ran");
    // The ramp to the steady state, on the server that will be measured;
    // peak memory is read at its end, after a fixed amount of work.
    for ((conn, conn_plan), out) in conns.iter_mut().zip(&plan.conns).zip(&mut warmup) {
        drive(
            conn,
            conn_plan.stream.iter().take(conn_plan.ramp),
            None,
            oracle,
            out,
        );
    }
    let peak_rss_mb = server.peak_rss_mb();

    // ── timed region: one thread per connection, closed loop ────────────
    let region = Duration::from_secs_f64(seconds);
    let barrier = Barrier::new(conns.len());
    let mut outcomes: Vec<ConnOutcome> = std::thread::scope(|scope| {
        let workers: Vec<_> = conns
            .iter_mut()
            .zip(&plan.conns)
            .map(|(conn, conn_plan)| {
                let barrier = &barrier;
                scope.spawn(move || {
                    let mut out = ConnOutcome {
                        background: conn_plan.background,
                        ..ConnOutcome::default()
                    };
                    barrier.wait();
                    let deadline = Instant::now() + region;
                    drive(conn, stream_of(conn_plan), Some(deadline), oracle, &mut out);
                    out
                })
            })
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().expect("connection thread panicked"))
            .collect()
    });
    let mut notes = Vec::new();
    let mut rounds: Vec<RoundAnswer> = Vec::new();
    let (mut attempted, mut failed) = (0, 0);
    for out in warmup.iter().chain(&outcomes) {
        attempted += out.attempted;
        failed += out.failed;
        rounds.extend(&out.rounds);
        if let Some(why) = &out.broken {
            notes.push(format!("connection stopped at {why}"));
        }
        if out.exhausted {
            notes.push("operation stream ran out before the deadline".into());
        }
    }

    // ── after the region: the server's own counters ─────────────────────
    let scraped = match (
        conns[0].roundtrip_lines("metrics"),
        conns[0].roundtrip_lines("cache"),
    ) {
        (Ok((_, metrics)), Ok((_, cache))) => layer_metrics(&metrics, &cache),
        _ => layer_metrics(&[], &[]),
    };
    drop(conns);
    drop(server);

    if plan.churn.is_some() {
        let (checked, wrong) = verify_churn(plan, &rounds, corrupt);
        failed += wrong;
        notes.push(format!(
            "{checked} answers checked against the delta replay at every 8th round"
        ));
    }

    let mut result = E2eResult {
        workload: plan.workload,
        connections: plan.conns.len(),
        setup_s,
        seconds,
        samples: Default::default(),
        sets: Vec::new(),
        attempted,
        failed,
        peak_rss_mb,
        scraped,
        notes,
    };
    for out in &mut outcomes {
        for (all, own) in result.samples.iter_mut().zip(&mut out.samples) {
            all.append(own);
        }
        result.sets.append(&mut out.sets);
    }
    Ok(result)
}
