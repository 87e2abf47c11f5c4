//! Scenarios over the wire, and the client both transports are read with.
//!
//! A wire replay serves the scenario's base graph from one `Session` and
//! drives it over two connections — in-process sessions whose replies are
//! written out and parsed back ([`Reader::Session`]), or TCP clients of
//! `rpq_server::serve` on `127.0.0.1:0` ([`Reader::Tcp`]) — alternating
//! the request lines between them. Each connection sets its own
//! `strategy`, `limit` and `binary`, the two trade overlays
//! before every `Delta`, and after every step both must show their own in
//! `info` while the engine's base configuration stays put. `Query` and
//! `Set` steps become `query` lines, an `Ends` step an `ends` line and a
//! `check` line to each vertex, a `Delta` one `delta` line, a `Pin` reads
//! the epoch, `Ask(k, q)` becomes `query q at <epoch of pin k>` — an
//! `ERR … not retained` once the ring or a graph replacement dropped that
//! epoch — and a `Restart` is a `save` and a `load` of a temporary file.
//! Every answer is decoded in the form its connection asked for and
//! compared with the reference at its epoch, and every `query` and `ends`
//! reply must be byte for byte what the format oracle below writes for
//! the reference answer.

use crate::{Axis, Known, Reader, Reference, Scenario, Step};
use rpq_core::{Engine, Strategy};
use rpq_graph::{PairSet, VersionedGraph, VertexId};
use rpq_regex::{to_dnf_with_limit, Regex};
use rpq_server::{wire, Session, SharedEngine, RETAINED_VIEWS};
use std::collections::VecDeque;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

/// One reply as it arrived: payload lines, the `RESULT-BIN` frame if one
/// was announced (pairs, body), the status line, and every byte of it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Reply {
    pub lines: Vec<String>,
    pub binary: Option<(usize, Vec<u8>)>,
    pub status: String,
    pub raw: Vec<u8>,
}

/// Reads one reply: payload lines up to the `OK `/`ERR ` status line, a
/// `RESULT-BIN` body by its exact byte count. `None` when the stream ends
/// first; a framing violation panics.
pub fn read_reply(reader: &mut impl BufRead) -> Option<Reply> {
    let (mut lines, mut binary, mut raw) = (Vec::new(), None, Vec::new());
    loop {
        let mut line = String::new();
        if reader.read_line(&mut line).unwrap() == 0 {
            assert!(
                lines.is_empty() && binary.is_none(),
                "reply torn off: {lines:?}"
            );
            return None;
        }
        raw.extend_from_slice(line.as_bytes());
        let line = line.trim_end().to_string();
        if line.starts_with("OK ") || line.starts_with("ERR ") {
            return Some(Reply {
                lines,
                binary,
                status: line,
                raw,
            });
        }
        if line.starts_with(wire::BIN_HEADER) {
            let (len, pairs) = wire::parse_header(&line).unwrap();
            let mut body = vec![0; len];
            reader.read_exact(&mut body).expect("the whole frame body");
            raw.extend_from_slice(&body);
            assert!(
                binary.replace((pairs, body)).is_none(),
                "two frames in one reply"
            );
        } else {
            lines.push(line);
        }
    }
}

/// One connection: a TCP client, or an in-process session whose replies
/// are written out and read back through [`read_reply`].
pub enum Client {
    Tcp(BufReader<TcpStream>),
    Session(Session),
}

impl Client {
    /// Connects to `addr` and reads the greeting.
    pub fn connect(addr: SocketAddr) -> Client {
        let mut reader = BufReader::new(TcpStream::connect(addr).unwrap());
        let greeting = read_reply(&mut reader).map(|r| r.status);
        assert_eq!(greeting.as_deref(), Some("OK rtc-rpq ready"));
        Client::Tcp(reader)
    }

    /// Sends one request line, in one write, and reads its reply.
    pub fn roundtrip(&mut self, line: &str) -> Reply {
        let reply = match self {
            Client::Tcp(reader) => {
                reader
                    .get_mut()
                    .write_all(format!("{line}\n").as_bytes())
                    .unwrap();
                read_reply(reader)
            }
            Client::Session(session) => {
                let mut bytes = Vec::new();
                let response = session.execute(line).expect("a request line has a reply");
                response.write_to(&mut bytes).unwrap();
                let mut rest = &bytes[..];
                let reply = read_reply(&mut rest);
                assert!(rest.is_empty(), "bytes after the reply to '{line}'");
                reply
            }
        };
        reply.unwrap_or_else(|| panic!("'{line}' got no reply: the connection closed"))
    }

    /// Sends `quit` and checks that nothing follows the goodbye.
    pub fn quit_clean(mut self) {
        assert_eq!(self.roundtrip("quit").status, "OK bye");
        if let Client::Tcp(mut reader) = self {
            let mut rest = Vec::new();
            reader.read_to_end(&mut rest).unwrap();
            assert!(rest.is_empty(), "stray bytes after quit: {rest:?}");
        }
    }
}

/// Serves `shared` on an ephemeral local port from a background thread.
pub fn spawn_server(shared: SharedEngine) -> SocketAddr {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    std::thread::spawn(move || rpq_server::serve(listener, shared));
    addr
}

/// What one connection of a wire replay set.
struct Overlay {
    strategy: Strategy,
    limit: usize,
    binary: bool,
}

impl Overlay {
    /// Sends the lines that set this overlay on `c`.
    fn set(&self, c: &mut Client) {
        for line in [
            format!("strategy {}", flag(self.strategy)),
            format!("limit {}", self.limit),
            format!("binary {}", on(self.binary)),
        ] {
            ok(&c.roundtrip(&line), &line);
        }
    }

    /// Checks that `c`'s `info` shows this overlay.
    fn shown_by(&self, c: &mut Client, ctx: &str) {
        let info = c.roundtrip("info").status;
        let own = format!(
            "strategy {}, limit {}, binary {}",
            self.strategy,
            self.limit,
            on(self.binary)
        );
        assert!(
            info.contains(&own),
            "{ctx}: info '{info}' does not show its own '{own}'"
        );
    }
}

/// A temporary file, removed when dropped: also when a failing replay
/// unwinds.
struct TempFile(PathBuf);

impl TempFile {
    fn new() -> TempFile {
        static FILES: AtomicU64 = AtomicU64::new(0);
        let name = format!(
            "rpq-testkit-{}-{}.snap",
            std::process::id(),
            FILES.fetch_add(1, Ordering::Relaxed)
        );
        TempFile(std::env::temp_dir().join(name))
    }
}

impl Drop for TempFile {
    fn drop(&mut self) {
        std::fs::remove_file(&self.0).ok();
    }
}

/// The name `strategy` takes.
fn flag(s: Strategy) -> &'static str {
    match s {
        Strategy::RtcSharing => "rtc",
        Strategy::FullSharing => "full",
        Strategy::NoSharing => "none",
    }
}

fn on(binary: bool) -> &'static str {
    if binary {
        "on"
    } else {
        "off"
    }
}

/// Replays `s` over two connections: the first takes the axis strategy,
/// `limit 2` and the axis binary mode, the second the next strategy,
/// `limit 1000` and the other mode. They trade overlays before every
/// `Delta`.
pub(crate) fn replay(s: &Scenario, (config, reader, binary): Axis, known: &mut Known) {
    let engine = Engine::with_config_versioned(VersionedGraph::new(s.graph()), config);
    let root = Session::from_engine(engine, "scenario".into());
    let addr = (reader == Reader::Tcp).then(|| spawn_server(root.shared()));
    let first = Strategy::ALL
        .iter()
        .position(|&x| x == config.strategy)
        .unwrap();
    let mut overlays: Vec<_> = (0..2)
        .map(|k| Overlay {
            strategy: Strategy::ALL[(first + k) % 3],
            limit: [2, 1000][k],
            binary: binary != (k == 1),
        })
        .collect();
    let mut clients: Vec<_> = (0..2)
        .map(|_| match addr {
            Some(addr) => Client::connect(addr),
            None => Client::Session(Session::attach(root.shared())),
        })
        .collect();
    // Each connection shows its own overlay, and the base never moves.
    let isolated = |clients: &mut [Client], overlays: &[Overlay], ctx: &str| {
        for (c, o) in clients.iter_mut().zip(overlays) {
            o.shown_by(c, ctx);
        }
        let base = root.engine().config().strategy;
        assert_eq!(base, config.strategy, "{ctx}: the base configuration moved");
    };
    for (c, o) in clients.iter_mut().zip(&overlays) {
        o.set(c);
    }
    isolated(&mut clients, &overlays, "before step 0");
    let mut reference = Reference::new(s, known);
    let (mut ring, mut pins, mut sent) = (VecDeque::from([0]), Vec::new(), 0);
    let file = TempFile::new();
    for (index, step) in s.steps.iter().enumerate() {
        if let Step::Delta(..) = step {
            overlays.swap(0, 1);
            for (c, o) in clients.iter_mut().zip(&overlays) {
                o.set(c);
            }
        }
        let mut send = |line: &str| {
            let k = sent % 2;
            sent += 1;
            (clients[k].roundtrip(line), &overlays[k])
        };
        let epoch = reference.epoch();
        let at = |e: u64| format!("step {index} `{step}`, epoch {e}");
        match step {
            Step::Query(_) | Step::Set(_) => {
                for query in step.queries() {
                    let (reply, o) = send(&format!("query {query}"));
                    let want = reference.answer(epoch, step, query);
                    expect_pairs(&reply, o, &want, query, config.dnf_clause_limit, &at(epoch));
                }
            }
            Step::Ends(src, query) => {
                let (reply, o) = send(&format!("ends {src} {query}"));
                let want = reference.answer(epoch, step, query);
                let ctx = at(epoch);
                let status = format!("OK {} end vertices from v{src}", want.len());
                assert_eq!(reply.status, status, "{ctx}: {query}");
                let words = reply.lines.iter().flat_map(|l| l.split_whitespace());
                let got = words.take_while(|w| *w != "...").map(|w| vertex(w, &ctx));
                let ends: Vec<_> = want.iter().map(|p| p.1).collect();
                let shown = ends.iter().map(|v| v.raw()).take(o.limit);
                assert!(got.eq(shown), "{ctx}: {query}: {:?}", reply.lines);
                let oracle = text_bytes(&ends_lines(&ends, o.limit));
                assert_bytes(&reply, &oracle, &format!("{ctx}: {query}"));
                for d in 0..reference.at[epoch as usize].vertex_count() as u32 {
                    let (reply, _) = send(&format!("check {src} {d} {query}"));
                    let found = want.contains(VertexId(*src), VertexId(d));
                    let found = if found { "found" } else { "no" };
                    let status = format!("OK {found} path v{src} -> v{d} for ");
                    assert!(reply.status.starts_with(&status), "{ctx}: {}", reply.status);
                }
            }
            Step::Delta(del, ins) => {
                let ops = del
                    .iter()
                    .map(|e| ("del", e))
                    .chain(ins.iter().map(|e| ("ins", e)));
                let mut line = String::from("delta");
                for (op, (src, label, dst)) in ops {
                    line += &format!(" {op} {src} {label} {dst}");
                }
                if del.is_empty() && ins.is_empty() {
                    line += " grow 0";
                }
                let (reply, _) = send(&line);
                let published = format!("OK epoch {}:", epoch + 1);
                assert!(
                    reply.status.starts_with(&published),
                    "{}: {}",
                    at(epoch),
                    reply.status
                );
                reference.apply(del, ins);
                ring.push_back(epoch + 1);
                if ring.len() > RETAINED_VIEWS {
                    ring.pop_front();
                }
            }
            Step::Pin => {
                let (reply, _) = send("epoch");
                assert_eq!(reply.status, format!("OK epoch {epoch}"), "{}", at(epoch));
                pins.push(epoch);
            }
            Step::Ask(k, query) => {
                let Some(&then) = pins.get(*k) else { continue };
                let (reply, o) = send(&format!("query {query} at {then}"));
                if ring.contains(&then) {
                    let want = reference.answer(then, step, query);
                    expect_pairs(&reply, o, &want, query, config.dnf_clause_limit, &at(then));
                } else {
                    let gone = format!("ERR epoch {then} not retained");
                    assert!(
                        reply.status.starts_with(&gone),
                        "{}: {}",
                        at(then),
                        reply.status
                    );
                }
            }
            Step::Unpin(_) => {}
            Step::Restart => {
                for line in [
                    format!("save {}", file.0.display()),
                    format!("load {}", file.0.display()),
                ] {
                    ok(&send(&line).0, &line);
                }
                ring = VecDeque::from([epoch]);
            }
        }
        isolated(
            &mut clients,
            &overlays,
            &format!("after step {index} `{step}`"),
        );
    }
    clients.into_iter().for_each(Client::quit_clean);
}

fn ok(reply: &Reply, line: &str) {
    assert!(
        reply.status.starts_with("OK "),
        "'{line}': {}",
        reply.status
    );
}

fn vertex(word: &str, ctx: &str) -> u32 {
    let id = word.strip_prefix('v').and_then(|v| v.parse().ok());
    id.unwrap_or_else(|| panic!("{ctx}: '{word}' is not a vertex"))
}

/// Checks a `query` reply against `want`: the count, then every pair of a
/// binary frame, or the first `limit` text lines. An `ERR` passes only for
/// a query over the DNF clause budget.
fn expect_pairs(reply: &Reply, o: &Overlay, want: &PairSet, q: &Regex, dnf: usize, ctx: &str) {
    if reply.status.starts_with("ERR ") && to_dnf_with_limit(q, dnf).is_err() {
        return;
    }
    let count = format!("OK {} pairs", want.len());
    assert!(
        reply.status.starts_with(&count),
        "{ctx}: {q}: {}",
        reply.status
    );
    let oracle = match o.binary {
        true => frame_bytes(&encode_pair_set(want)),
        false => text_bytes(&pair_lines(want, o.limit)),
    };
    assert_bytes(reply, &oracle, &format!("{ctx}: {q}"));
    let mut want: Vec<_> = want.iter().map(|(s, d)| (s.raw(), d.raw())).collect();
    let got = match (&reply.binary, o.binary) {
        (Some((pairs, body)), true) => wire::decode_pairs(body, *pairs).unwrap(),
        (None, false) => {
            want.truncate(o.limit);
            wire::decode_text_pairs(&reply.lines).unwrap()
        }
        (frame, _) => panic!(
            "{ctx}: {q}: a `binary {}` connection got {} frame",
            on(o.binary),
            if frame.is_some() { "a" } else { "no" }
        ),
    };
    assert_eq!(got, want, "{ctx}: {q}");
}

/// Checks that `reply` is `payload` and then its status line, byte for
/// byte.
fn assert_bytes(reply: &Reply, payload: &[u8], ctx: &str) {
    let status = format!("{}\n", reply.status);
    let want = [payload, status.as_bytes()].concat();
    if reply.raw != want {
        panic!(
            "{ctx}: the reply's bytes differ from the format oracle's\n got: {:?}\nwant: {:?}",
            String::from_utf8_lossy(&reply.raw),
            String::from_utf8_lossy(&want)
        );
    }
}

// The format oracle: the reply payloads written the plain way, one
// `format!` per item and the frame body built whole. The server streams
// them from the result instead; every streamed byte must match these.

/// A text-mode query result: the first `limit` pairs, one per line, and
/// an elision line for the rest (`limit 0` is count-only).
pub fn pair_lines(result: &PairSet, limit: usize) -> Vec<String> {
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
pub fn ends_lines(ends: &[VertexId], limit: usize) -> Vec<String> {
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

/// A result [`PairSet`] as a whole frame body, in its canonical order.
pub fn encode_pair_set(result: &PairSet) -> wire::BinaryResult {
    let mut bytes = Vec::with_capacity(result.len() * wire::BYTES_PER_PAIR);
    for (s, d) in result.iter() {
        bytes.extend_from_slice(&s.raw().to_le_bytes());
        bytes.extend_from_slice(&d.raw().to_le_bytes());
    }
    wire::BinaryResult {
        pairs: result.len(),
        bytes,
    }
}

/// Payload lines as the wire carries them: each ended by a newline.
pub fn text_bytes(lines: &[String]) -> Vec<u8> {
    lines
        .iter()
        .flat_map(|l| [l.as_bytes(), b"\n"])
        .flatten()
        .copied()
        .collect()
}

/// A frame as the wire carries it: its header line, then its body.
pub fn frame_bytes(frame: &wire::BinaryResult) -> Vec<u8> {
    let header = format!("RESULT-BIN {} {}\n", frame.bytes.len(), frame.pairs);
    [header.as_bytes(), &frame.bytes].concat()
}
