//! An ordinary blocking client of the line protocol: one command out,
//! one complete reply in. The reader is generic over `BufRead` so the
//! framing rules are unit-tested without a socket.

use rpq_server::wire::{parse_header, BIN_HEADER};
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// A reply that takes longer than this counts as a failure, not a hang.
pub const READ_TIMEOUT: Duration = Duration::from_secs(60);

/// Client read buffer: large enough that a multi-megabyte text result
/// arrives in a handful of `read`s, so the client is never the bottleneck.
const READ_BUFFER: usize = 1 << 20;

/// One complete response, reduced to what the harness checks and counts.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Reply {
    /// `OK …` (true) or `ERR …` (false).
    pub ok: bool,
    /// The status line without its `OK `/`ERR ` prefix.
    pub status: String,
    /// Text payload lines before the status line.
    pub payload_lines: u64,
    /// Pairs carried by the payload: text pair lines, or the frame's count.
    pub payload_pairs: u64,
    /// Order-independent checksum of the carried pairs (0 if none parsed).
    pub checksum: u64,
    /// Every byte of the response, framing included.
    pub bytes: u64,
}

impl Reply {
    /// The leading integer of the status line (`325433 pairs in …`,
    /// `12 end vertices from v5`).
    pub fn leading_count(&self) -> Option<u64> {
        self.status.split_whitespace().next()?.parse().ok()
    }
}

/// Mixes one pair into a 64-bit word (SplitMix64 finalizer). Summing the
/// words with wrapping addition gives a checksum that ignores order, so a
/// text reply and a binary frame of the same set agree.
pub fn pair_hash(src: u32, dst: u32) -> u64 {
    let mut z = ((u64::from(src) << 32) | u64::from(dst)).wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

pub fn checksum(pairs: impl Iterator<Item = (u32, u32)>) -> u64 {
    pairs.fold(0u64, |acc, (s, d)| acc.wrapping_add(pair_hash(s, d)))
}

/// Parses a `  v7 -> v5` payload line without allocating.
fn parse_pair_line(line: &[u8]) -> Option<(u32, u32)> {
    fn number(bytes: &[u8]) -> Option<(u32, &[u8])> {
        let digits = bytes.iter().take_while(|b| b.is_ascii_digit()).count();
        if digits == 0 {
            return None;
        }
        let mut n: u32 = 0;
        for &b in &bytes[..digits] {
            n = n.checked_mul(10)?.checked_add(u32::from(b - b'0'))?;
        }
        Some((n, &bytes[digits..]))
    }
    let rest = line.strip_prefix(b"  v")?;
    let (src, rest) = number(rest)?;
    let rest = rest.strip_prefix(b" -> v")?;
    let (dst, rest) = number(rest)?;
    rest.iter()
        .all(u8::is_ascii_whitespace)
        .then_some((src, dst))
}

/// Reusable buffers of one connection's reader.
#[derive(Default)]
pub struct ReplyBuffers {
    line: Vec<u8>,
    frame: Vec<u8>,
}

/// Reads one response: payload lines (or a `RESULT-BIN` frame) up to and
/// including the status line. `keep` receives every text payload line —
/// only the scrape of `metrics`/`cache` passes one. An `Err` means the
/// stream can no longer be trusted (time-out, EOF, torn frame).
pub fn read_reply<R: BufRead>(
    reader: &mut R,
    bufs: &mut ReplyBuffers,
    mut keep: Option<&mut Vec<String>>,
) -> Result<Reply, String> {
    let mut reply = Reply::default();
    loop {
        bufs.line.clear();
        let n = reader
            .read_until(b'\n', &mut bufs.line)
            .map_err(|e| format!("read failed: {e}"))?;
        if n == 0 {
            return Err("connection closed mid-response".into());
        }
        if bufs.line.last() != Some(&b'\n') {
            return Err("connection closed mid-line".into());
        }
        reply.bytes += n as u64;
        let line = &bufs.line[..n - 1];
        let status = line
            .strip_prefix(b"OK ")
            .map(|s| (true, s))
            .or_else(|| line.strip_prefix(b"ERR ").map(|s| (false, s)));
        if let Some((ok, status)) = status {
            reply.ok = ok;
            reply.status = String::from_utf8_lossy(status).into_owned();
            return Ok(reply);
        }
        if line.starts_with(BIN_HEADER.as_bytes()) {
            let header = std::str::from_utf8(line).map_err(|e| format!("bad frame header: {e}"))?;
            let (byte_len, pairs) = parse_header(header)?;
            // The reused buffer only ever grows to the largest frame seen.
            bufs.frame.resize(byte_len, 0);
            reader
                .read_exact(&mut bufs.frame)
                .map_err(|e| format!("truncated frame ({byte_len} bytes announced): {e}"))?;
            reply.bytes += byte_len as u64;
            reply.payload_pairs = pairs as u64;
            reply.checksum = checksum(bufs.frame.chunks_exact(8).map(|rec| {
                (
                    u32::from_le_bytes(rec[..4].try_into().expect("4-byte half")),
                    u32::from_le_bytes(rec[4..].try_into().expect("4-byte half")),
                )
            }));
            continue;
        }
        reply.payload_lines += 1;
        if let Some((s, d)) = parse_pair_line(line) {
            reply.payload_pairs += 1;
            reply.checksum = reply.checksum.wrapping_add(pair_hash(s, d));
        }
        if let Some(keep) = keep.as_deref_mut() {
            keep.push(String::from_utf8_lossy(line).into_owned());
        }
    }
}

/// One TCP connection to the server under test.
pub struct Conn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    bufs: ReplyBuffers,
}

impl Conn {
    /// Connects and consumes the greeting. `TCP_NODELAY` is on at the
    /// client (commands leave at once); `TCP_QUICKACK` is deliberately
    /// left alone — an ordinary client does not mask server-side stalls.
    pub fn open(addr: SocketAddr) -> Result<Conn, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        stream
            .set_nodelay(true)
            .and_then(|()| stream.set_read_timeout(Some(READ_TIMEOUT)))
            .map_err(|e| format!("socket options: {e}"))?;
        let writer = stream
            .try_clone()
            .map_err(|e| format!("clone socket: {e}"))?;
        let mut conn = Conn {
            reader: BufReader::with_capacity(READ_BUFFER, stream),
            writer,
            bufs: ReplyBuffers::default(),
        };
        let greeting = read_reply(&mut conn.reader, &mut conn.bufs, None)?;
        if !greeting.ok {
            return Err(format!("refused: {}", greeting.status));
        }
        Ok(conn)
    }

    /// Sends one command line and blocks for its whole reply.
    pub fn roundtrip(&mut self, line: &str) -> Result<Reply, String> {
        self.send(line)?;
        read_reply(&mut self.reader, &mut self.bufs, None)
    }

    /// [`Conn::roundtrip`], also returning the payload lines as text.
    pub fn roundtrip_lines(&mut self, line: &str) -> Result<(Reply, Vec<String>), String> {
        self.send(line)?;
        let mut lines = Vec::new();
        let reply = read_reply(&mut self.reader, &mut self.bufs, Some(&mut lines))?;
        Ok((reply, lines))
    }

    fn send(&mut self, line: &str) -> Result<(), String> {
        // One write per command: with NODELAY on, two writes would leave
        // as two segments.
        let mut buf = Vec::with_capacity(line.len() + 1);
        buf.extend_from_slice(line.as_bytes());
        buf.push(b'\n');
        self.writer
            .write_all(&buf)
            .map_err(|e| format!("send failed: {e}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rpq_server::wire::encode_pairs;
    use std::io::Cursor;

    fn read(bytes: &[u8]) -> Result<Reply, String> {
        read_reply(&mut Cursor::new(bytes), &mut ReplyBuffers::default(), None)
    }

    #[test]
    fn text_payload_is_counted_and_checksummed() {
        let wire =
            b"  v7 -> v3\n  v7 -> v5\n  ... 4 more (raise with 'limit N')\nOK 6 pairs in 1.2ms\n";
        let r = read(wire).unwrap();
        assert!(r.ok);
        assert_eq!(r.status, "6 pairs in 1.2ms");
        assert_eq!(r.leading_count(), Some(6));
        assert_eq!(r.payload_lines, 3);
        assert_eq!(r.payload_pairs, 2);
        assert_eq!(r.checksum, checksum([(7, 5), (7, 3)].into_iter()));
        assert_eq!(r.bytes, wire.len() as u64);
    }

    #[test]
    fn binary_frame_matches_text_checksum() {
        let frame = encode_pairs(&[(7, 3), (7, 5)]);
        let mut wire = format!("{}\n", frame.header_line()).into_bytes();
        wire.extend_from_slice(&frame.bytes);
        wire.extend_from_slice(b"OK 2 pairs in 3us\n");
        let r = read(&wire).unwrap();
        assert!(r.ok);
        assert_eq!(r.payload_pairs, 2);
        assert_eq!(r.payload_lines, 0);
        assert_eq!(r.checksum, checksum([(7, 3), (7, 5)].into_iter()));
        assert_eq!(r.bytes, wire.len() as u64);
    }

    #[test]
    fn err_status_is_a_reply_not_an_error() {
        let r = read(b"ERR unknown command 'bogus' (try 'help')\n").unwrap();
        assert!(!r.ok);
        assert!(r.status.starts_with("unknown command"));
        assert_eq!(r.leading_count(), None);
    }

    #[test]
    fn truncated_streams_are_errors() {
        let frame = encode_pairs(&[(1, 2), (3, 4)]);
        let mut wire = format!("{}\n", frame.header_line()).into_bytes();
        wire.extend_from_slice(&frame.bytes[..9]);
        assert!(read(&wire).unwrap_err().contains("truncated frame"));
        assert!(read(b"  v1 -> v2\n").unwrap_err().contains("closed"));
        assert!(read(b"OK 2 pai").unwrap_err().contains("mid-line"));
        assert!(read(b"RESULT-BIN 9 1\n").is_err(), "inconsistent header");
    }

    #[test]
    fn consecutive_replies_share_one_reader() {
        let mut cur = Cursor::new(&b"OK limit 0\n  v1 -> v2\nOK 1 pairs in 1us\n"[..]);
        let mut bufs = ReplyBuffers::default();
        let mut kept = Vec::new();
        assert_eq!(
            read_reply(&mut cur, &mut bufs, None).unwrap().status,
            "limit 0"
        );
        let second = read_reply(&mut cur, &mut bufs, Some(&mut kept)).unwrap();
        assert_eq!(second.payload_pairs, 1);
        assert_eq!(kept, vec!["  v1 -> v2"]);
    }

    #[test]
    fn pair_lines_parse_strictly() {
        assert_eq!(parse_pair_line(b"  v12 -> v345"), Some((12, 345)));
        assert_eq!(parse_pair_line(b"  v12 -> v345\r"), Some((12, 345)));
        assert_eq!(parse_pair_line(b"  ... 4 more"), None);
        assert_eq!(parse_pair_line(b"  v1 v2 v3"), None);
        assert_eq!(parse_pair_line(b"  v99999999999 -> v1"), None);
    }

    #[test]
    fn checksum_ignores_order_but_not_content() {
        let a = checksum([(1, 2), (3, 4), (5, 6)].into_iter());
        assert_eq!(a, checksum([(5, 6), (1, 2), (3, 4)].into_iter()));
        assert_ne!(a, checksum([(1, 2), (3, 4), (6, 5)].into_iter()));
        assert_ne!(a, checksum([(1, 2), (3, 4)].into_iter()));
    }
}
