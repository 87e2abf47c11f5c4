//! Replies: what a command answers, and the bytes it leaves as.
//!
//! A [`Response`] is zero or more payload lines, an optional
//! `RESULT-BIN` frame and one `OK …`/`ERR …` status line.
//! [`Response::write_to`] writes those pieces straight into the caller's
//! sink; the serve loop wraps each connection's sink in one `BufWriter`
//! and flushes once per reply, so a reply that fits the buffer leaves in
//! one `write` and a larger one streams in buffer-sized writes.
//!
//! The text of `info`, `metrics`, `cache`, result pairs and `ends` is
//! written here too, as functions of the values it prints; dispatch
//! (`crate::session`) decides what to print, this module how.

use crate::session::ConnectionOverlay;
use crate::state::{PublishedView, ServerState};
use crate::wire::BinaryResult;
use rpq_core::{EpochView, SharingKind, Strategy};
use rpq_graph::{LabeledMultigraph, PairSet, VertexId};
use std::io::Write;

/// Result of executing one command line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Response {
    /// Payload lines (never starting with `OK`/`ERR` — the framing
    /// invariant of the line protocol).
    pub lines: Vec<String>,
    /// A binary result frame (`RESULT-BIN`), present instead of pair
    /// payload lines when the connection opted in with `binary on`.
    pub binary: Option<BinaryResult>,
    /// Final status line, without its `OK `/`ERR ` prefix.
    pub status: Status,
    /// Whether the session asked to end (`quit`).
    pub quit: bool,
}

/// Success or failure of one command.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Status {
    /// The command succeeded; the string is a one-line summary.
    Ok(String),
    /// The command failed; nothing changed beyond what the message says.
    Err(String),
}

impl Response {
    pub(crate) fn ok(summary: impl Into<String>) -> Response {
        Response {
            lines: Vec::new(),
            binary: None,
            status: Status::Ok(summary.into()),
            quit: false,
        }
    }

    pub(crate) fn err(message: impl Into<String>) -> Response {
        Response {
            status: Status::Err(message.into()),
            ..Response::ok("")
        }
    }

    pub(crate) fn with_lines(mut self, lines: Vec<String>) -> Response {
        self.lines = lines;
        self
    }

    pub(crate) fn with_binary(mut self, binary: BinaryResult) -> Response {
        self.binary = Some(binary);
        self
    }

    /// Writes the response in wire format: payload lines, then the binary
    /// frame (header line + raw blob) if present, then one `OK ...` /
    /// `ERR ...` status line. Nothing is staged: the pieces go straight
    /// into `w`, so a buffered sink decides how many writes the reply
    /// costs.
    pub fn write_to<W: Write>(&self, w: &mut W) -> std::io::Result<()> {
        for line in &self.lines {
            debug_assert!(
                !line.starts_with("OK") && !line.starts_with("ERR"),
                "payload line breaks the framing invariant: {line}"
            );
            writeln!(w, "{line}")?;
        }
        if let Some(binary) = &self.binary {
            writeln!(w, "{}", binary.header_line())?;
            // No newline after the blob: the reader consumes exactly
            // `byte_len` bytes and the status line follows directly.
            w.write_all(&binary.bytes)?;
        }
        match &self.status {
            Status::Ok(s) => writeln!(w, "OK {s}"),
            Status::Err(s) => writeln!(w, "ERR {s}"),
        }
    }

    /// Renders the wire format as a `String` (lossily for binary frames —
    /// transports use [`Response::write_to`]; this is for tests, logs and
    /// the text-only startup path).
    pub fn render(&self) -> String {
        let mut out = Vec::new();
        self.write_to(&mut out).expect("Vec sink cannot fail");
        String::from_utf8_lossy(&out).into_owned()
    }
}

/// The time-travel marker of a status summary, appended after any
/// `... in <time>` suffix so the equivalence tests' timing masking stays
/// oblivious to it.
pub(crate) fn at_suffix(at: Option<u64>) -> String {
    at.map(|e| format!(" (at epoch {e})")).unwrap_or_default()
}

/// `what: N vertices, M edges, L labels` — the answer of every command
/// that installs a graph.
pub(crate) fn graph_summary(what: &str, g: &LabeledMultigraph) -> Response {
    Response::ok(format!(
        "{what}: {} vertices, {} edges, {} labels",
        g.vertex_count(),
        g.edge_count(),
        g.label_count(),
    ))
}

/// A text-mode query result: the first `limit` pairs, one per line, and
/// an elision line for the rest (`limit 0` is count-only).
pub(crate) fn pair_lines(result: &PairSet, limit: usize) -> Vec<String> {
    let shown = result.len().min(limit);
    let mut lines: Vec<String> = result
        .iter()
        .take(shown)
        .map(|(s, d)| format!("  v{} -> v{}", s.raw(), d.raw()))
        .collect();
    if limit > 0 && result.len() > shown {
        lines.push(format!(
            "  ... {} more (raise with 'limit N')",
            result.len() - shown
        ));
    }
    lines
}

/// `ends`' payload: the first `limit` end vertices on one line, with the
/// elision marker when there are more (`limit 0` is count-only).
pub(crate) fn ends_lines(ends: &[VertexId], limit: usize) -> Vec<String> {
    let shown = ends.len().min(limit);
    if shown == 0 {
        return Vec::new();
    }
    let line = ends
        .iter()
        .take(shown)
        .map(|v| format!("v{}", v.raw()))
        .collect::<Vec<_>>()
        .join(" ");
    let more = if ends.len() > shown {
        format!(" ... {} more (raise with 'limit N')", ends.len() - shown)
    } else {
        String::new()
    };
    vec![format!("  {line}{more}")]
}

/// `info`: graph, epoch, this connection's effective settings, retention,
/// connections and cache footprint, on one status line.
pub(crate) fn info(
    published: &PublishedView,
    overlay: &ConnectionOverlay,
    serving: &ServerState,
) -> Response {
    let view = published.view();
    let g = view.graph();
    let config = overlay.resolve(view.config());
    let (lo, hi, views) = serving.retained_span();
    let c = view.cache();
    Response::ok(format!(
        "graph '{}': {} vertices, {} edges, {} labels, epoch {}, strategy {}, limit {}, binary {}, views {views} (epochs {lo}..{hi}), conns {}/{}, structural {} B, budget {}, occupancy {} B",
        published.source(),
        g.vertex_count(),
        g.edge_count(),
        g.label_count(),
        view.epoch(),
        config.strategy,
        overlay.limit,
        if overlay.binary { "on" } else { "off" },
        serving.live_conns(),
        serving.max_conns(),
        view.structural_heap_bytes(),
        c.budget(),
        c.occupancy_bytes(),
    ))
}

/// `metrics`: the breakdown, elimination, maintenance, result-tier,
/// serving, memory and budget lines.
pub(crate) fn metrics(view: &EpochView, serving: &ServerState) -> Response {
    let b = view.breakdown();
    let s = view.elimination_stats();
    let m = view.maintenance_metrics();
    let r = view.results();
    let (lo, hi, views) = serving.retained_span();
    let lines = vec![
        format!(
            "  breakdown: shared_data={:.2?} pre_join={:.2?} remainder={:.2?} total={:.2?}",
            b.shared_data,
            b.pre_join,
            b.remainder(),
            b.total
        ),
        format!(
            "  elimination: useless1={} redundant1={} redundant2={} useless2_inserts={} full_dup_hits={}",
            s.useless1_skipped,
            s.redundant1_skipped,
            s.redundant2_skipped,
            s.useless2_unchecked_inserts,
            s.full_duplicate_hits
        ),
        // `incremental=0` and `inc_time=0.00ns` are constants: every refresh
        // is a rebuild now, and scrapers still read both keys until the
        // benchmark's probe names are released (ROADMAP 4g).
        format!(
            "  maintenance: deltas={} unchanged={} incremental=0 rebuild={} inc_time=0.00ns rebuild_time={:.2?}",
            m.deltas_applied, m.unchanged_refreshes, m.rebuild_refreshes, m.rebuild_time
        ),
        format!(
            "  results: {} view hits, {} result misses, {} memoized ({} B, cap {})",
            r.hits(),
            r.misses(),
            r.occupancy_entries(),
            r.occupancy_bytes(),
            r.budget(),
        ),
        format!(
            "  serving: {} publishes (last {:.2?}, mean {:.2?}), {views} views retained (epochs {lo}..{hi}), conns {}/{}",
            serving.publishes(),
            serving.publish_last(),
            serving.publish_mean(),
            serving.live_conns(),
            serving.max_conns(),
        ),
        {
            let c = view.cache();
            let (rtc, full) = (c.totals(SharingKind::Rtc), c.totals(SharingKind::Full));
            format!(
                "  memory: structural={} B (rtc={} B, {} dense rows; full={} B, {} dense rows)",
                rtc.heap_bytes + full.heap_bytes,
                rtc.heap_bytes,
                rtc.dense_rows,
                full.heap_bytes,
                full.dense_rows,
            )
        },
        {
            let c = view.cache();
            let ev = c.eviction_counters();
            format!(
                "  budget: {} occupancy={} B/{} entries evictions={} (bytes={} entries={} ttl={} stale={}) rebuilds_after_evict={}",
                c.budget(),
                c.occupancy_bytes(),
                c.occupancy_entries(),
                ev.total(),
                ev.by_bytes,
                ev.by_entries,
                ev.by_unreachable,
                ev.by_stale,
                ev.rebuilds_after_evict,
            )
        },
    ];
    Response::ok("metrics".to_string()).with_lines(lines)
}

/// `cache`: entries, memory, lookups, budget, evictions and the result
/// tier, with the shared pairs `strategy` holds as the status.
pub(crate) fn cache(view: &EpochView, strategy: Strategy) -> Response {
    let c = view.cache();
    let r = view.results();
    let (rtc, full) = (c.totals(SharingKind::Rtc), c.totals(SharingKind::Full));
    let lines = vec![
        format!(
            "  entries: {} rtc ({} pairs, {} sccs), {} full ({} pairs)",
            rtc.entries, rtc.shared_pairs, rtc.vertices, full.entries, full.shared_pairs
        ),
        format!(
            "  memory: {} B structural heap ({} dense rows)",
            rtc.heap_bytes + full.heap_bytes,
            rtc.dense_rows + full.dense_rows,
        ),
        format!(
            "  lookups: {} hits, {} misses, {} stale hits (epoch {})",
            c.hits(),
            c.misses(),
            c.stale_hits(),
            c.epoch()
        ),
        format!(
            "  budget: {} (occupancy {} B, {} entries, {} B pinned)",
            c.budget(),
            c.occupancy_bytes(),
            c.occupancy_entries(),
            c.pinned_occupancy_bytes(),
        ),
        {
            let ev = c.eviction_counters();
            format!(
                "  evictions: {} total (bytes={} entries={} ttl={} stale={}), {} rebuilds after evict",
                ev.total(),
                ev.by_bytes,
                ev.by_entries,
                ev.by_unreachable,
                ev.by_stale,
                ev.rebuilds_after_evict,
            )
        },
        format!(
            "  results: {} memoized ({} B), {} view hits, {} result misses (cap {}), {} evicted",
            r.occupancy_entries(),
            r.occupancy_bytes(),
            r.hits(),
            r.misses(),
            r.budget(),
            r.eviction_counters().total(),
        ),
    ];
    Response::ok(format!(
        "{} shared pairs held",
        view.shared_data_pairs_with(strategy)
    ))
    .with_lines(lines)
}

#[cfg(test)]
mod tests {
    use crate::session::Session;

    #[test]
    fn render_framing() {
        let mut s = Session::new();
        s.execute("gen paper");
        let rendered = s.execute("query d.(b.c)+.c").unwrap().render();
        let lines: Vec<&str> = rendered.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[2].starts_with("OK "));
        let rendered = s.execute("nope").unwrap().render();
        assert!(rendered.starts_with("ERR "));
    }
}
