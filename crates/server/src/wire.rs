//! The `RESULT-BIN` binary result frame.
//!
//! Large `query` responses — hundreds of thousands of pairs — are wasteful
//! as line-encoded decimal text (`  v123456 -> v789012\n` is ~22 bytes per
//! pair, plus parsing). A connection that issues `binary on` receives each
//! query result as one **length-prefixed binary frame** instead:
//!
//! ```text
//! RESULT-BIN <byte_len> <pair_count>\n      ← one ASCII header line
//! <byte_len bytes of raw pair data>         ← no trailing newline
//! OK <pair_count> pairs in <time>\n         ← the usual status line
//! ```
//!
//! The pair data is `pair_count` records of 8 bytes each: source vertex id
//! then destination vertex id, both little-endian `u32`, in the result
//! set's canonical (sorted) order. `byte_len` is always `8 × pair_count` —
//! the redundancy lets a decoder reject a corrupted header before trusting
//! either number. A client reads the header line, then exactly `byte_len`
//! bytes, then resumes line-oriented reading for the status line; the blob
//! is never scanned for newlines, so the line protocol's framing invariant
//! (payload lines never start with `OK `/`ERR `) is untouched.
//!
//! Decoding is strict and total: a header that does not parse, a length
//! that is not a multiple of 8, a mismatched `byte_len`/`pair_count`, or a
//! truncated blob all yield `Err` — never a panic, never a silently short
//! result (property-tested in `tests/serving_equivalence.rs`).

use rpq_graph::PairSet;
use std::io::{self, Write};

/// The first token of a binary-frame header line.
pub const BIN_HEADER: &str = "RESULT-BIN";

/// Bytes per encoded pair: two little-endian `u32`s.
pub const BYTES_PER_PAIR: usize = 8;

/// An encoded binary result: a frame body held in memory, for clients and
/// tests. The server streams its frames instead
/// ([`crate::reply::Response::write_to`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BinaryResult {
    /// Number of pairs encoded in [`BinaryResult::bytes`].
    pub pairs: usize,
    /// The raw frame body: `pairs × 8` bytes.
    pub bytes: Vec<u8>,
}

impl BinaryResult {
    /// The header line announcing this frame (without trailing newline).
    pub fn header_line(&self) -> String {
        header_line(self.pairs)
    }
}

/// The header line announcing a frame of `pairs` pairs.
fn header_line(pairs: usize) -> String {
    format!("{BIN_HEADER} {} {pairs}", pairs * BYTES_PER_PAIR)
}

/// One pair's 8-byte record: source then destination, each a
/// little-endian `u32`.
fn record(src: u32, dst: u32) -> [u8; BYTES_PER_PAIR] {
    let mut out = [0; BYTES_PER_PAIR];
    out[..4].copy_from_slice(&src.to_le_bytes());
    out[4..].copy_from_slice(&dst.to_le_bytes());
    out
}

/// Encodes raw `(src, dst)` pairs in order.
pub fn encode_pairs(pairs: &[(u32, u32)]) -> BinaryResult {
    BinaryResult {
        pairs: pairs.len(),
        bytes: pairs.iter().flat_map(|&(s, d)| record(s, d)).collect(),
    }
}

/// Writes `result` as a whole frame, header line then body, in its
/// canonical order. The records go out group by group (`PairSet::groups`)
/// into `w`: the body is never built in memory.
pub(crate) fn write_frame<W: Write>(w: &mut W, result: &PairSet) -> io::Result<()> {
    writeln!(w, "{}", header_line(result.len()))?;
    for (src, ends) in result.groups() {
        for dst in ends.iter() {
            w.write_all(&record(src.raw(), dst.raw()))?;
        }
    }
    Ok(())
}

/// Parses a `RESULT-BIN <byte_len> <pair_count>` header line, returning
/// `(byte_len, pair_count)`. Rejects anything whose two lengths disagree,
/// so a decoder can size its read before touching the blob.
pub fn parse_header(line: &str) -> Result<(usize, usize), String> {
    let mut tokens = line.split_whitespace();
    if tokens.next() != Some(BIN_HEADER) {
        return Err(format!("not a {BIN_HEADER} header: '{line}'"));
    }
    let byte_len: usize = tokens
        .next()
        .and_then(|t| t.parse().ok())
        .ok_or_else(|| format!("bad byte length in '{line}'"))?;
    let pairs: usize = tokens
        .next()
        .and_then(|t| t.parse().ok())
        .ok_or_else(|| format!("bad pair count in '{line}'"))?;
    if tokens.next().is_some() {
        return Err(format!("trailing tokens in '{line}'"));
    }
    if byte_len
        != pairs
            .checked_mul(BYTES_PER_PAIR)
            .ok_or("pair count overflow")?
    {
        return Err(format!(
            "inconsistent header: {byte_len} bytes for {pairs} pairs (expected {})",
            pairs.saturating_mul(BYTES_PER_PAIR)
        ));
    }
    Ok((byte_len, pairs))
}

/// Decodes a frame body previously announced as `pairs` pairs. The blob
/// must be exactly `pairs × 8` bytes — a truncated (or padded) frame is an
/// error, never a short result.
pub fn decode_pairs(bytes: &[u8], pairs: usize) -> Result<Vec<(u32, u32)>, String> {
    let expected = pairs
        .checked_mul(BYTES_PER_PAIR)
        .ok_or("pair count overflow")?;
    if bytes.len() != expected {
        return Err(format!(
            "truncated frame: got {} bytes, expected {expected} for {pairs} pairs",
            bytes.len()
        ));
    }
    let mut out = Vec::with_capacity(pairs);
    for record in bytes.chunks_exact(BYTES_PER_PAIR) {
        let u32_at = |at: usize| {
            u32::from_le_bytes([record[at], record[at + 1], record[at + 2], record[at + 3]])
        };
        out.push((u32_at(0), u32_at(4)));
    }
    Ok(out)
}

/// Parses the text encoding of a query result — payload lines shaped
/// `  v7 -> v5` — back into pairs, skipping the `... N more` elision line.
/// The inverse of what `query` prints in text mode, used by tests to pin
/// text/binary agreement.
pub fn decode_text_pairs(lines: &[String]) -> Result<Vec<(u32, u32)>, String> {
    let mut out = Vec::new();
    for line in lines {
        let line = line.trim();
        if line.starts_with("...") {
            continue;
        }
        let (src, dst) = line
            .split_once("->")
            .ok_or_else(|| format!("not a pair line: '{line}'"))?;
        let parse = |tok: &str| -> Result<u32, String> {
            tok.trim()
                .strip_prefix('v')
                .and_then(|t| t.parse().ok())
                .ok_or_else(|| format!("bad vertex in '{line}'"))
        };
        out.push((parse(src)?, parse(dst)?));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_small() {
        let pairs = [(0u32, 1u32), (7, 5), (u32::MAX, 0)];
        let frame = encode_pairs(&pairs);
        assert_eq!(frame.pairs, 3);
        assert_eq!(frame.bytes.len(), 24);
        let (len, n) = parse_header(&frame.header_line()).unwrap();
        assert_eq!((len, n), (24, 3));
        assert_eq!(decode_pairs(&frame.bytes, n).unwrap(), pairs);
    }

    #[test]
    fn empty_frame() {
        let frame = encode_pairs(&[]);
        assert_eq!(frame.header_line(), "RESULT-BIN 0 0");
        assert_eq!(decode_pairs(&frame.bytes, 0).unwrap(), vec![]);
    }

    #[test]
    fn header_rejects_garbage() {
        for bad in [
            "RESULT-BIN",
            "RESULT-BIN 8",
            "RESULT-BIN eight 1",
            "RESULT-BIN 8 one",
            "RESULT-BIN 9 1", // not 8 × pairs
            "RESULT-BIN 8 2", // disagreement
            "RESULT-BIN 8 1 x",
            "OK 2 pairs",
        ] {
            assert!(parse_header(bad).is_err(), "accepted '{bad}'");
        }
        assert!(parse_header("RESULT-BIN 16 2").is_ok());
    }

    #[test]
    fn truncated_bodies_are_rejected() {
        let frame = encode_pairs(&[(1, 2), (3, 4)]);
        for cut in 0..frame.bytes.len() {
            assert!(decode_pairs(&frame.bytes[..cut], frame.pairs).is_err());
        }
        let mut padded = frame.bytes.clone();
        padded.push(0);
        assert!(decode_pairs(&padded, frame.pairs).is_err());
    }

    #[test]
    fn text_decoding_matches() {
        let lines = vec![
            "  v7 -> v5".to_string(),
            "  v7 -> v3".to_string(),
            "  ... 4 more (raise with 'limit N')".to_string(),
        ];
        assert_eq!(decode_text_pairs(&lines).unwrap(), vec![(7, 5), (7, 3)]);
        assert!(decode_text_pairs(&["nonsense".to_string()]).is_err());
    }
}
