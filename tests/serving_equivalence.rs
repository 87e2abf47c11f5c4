//! The serving layer against the reference, over the wire: harness
//! scenarios replayed through `Session::execute` and over TCP, in text and
//! binary mode, on two connections with overlays of their own
//! (`rpq_testkit::wire`); the `RESULT-BIN` frame on its own; and the
//! streamed reply writers against the kit's format oracle.

use rand::rngs::StdRng;
use rand::Rng;
use rpq_testkit::wire::{encode_pair_set, ends_lines, frame_bytes, pair_lines};
use rpq_testkit::wire::{read_reply, text_bytes};
use rpq_testkit::{assert_equivalent, check, random_ids, relation, scenario};
use rpq_testkit::{Axes, Reader, Scenario, Shape, Step};
use rtc_rpq::core::Strategy;
use rtc_rpq::graph::{PairSet, RowSet, VertexId};
use rtc_rpq::server::wire::{decode_pairs, decode_text_pairs, encode_pairs, parse_header};
use rtc_rpq::server::{Listing, Response, Session, Status, RETAINED_VIEWS};
use std::sync::Arc;

/// Per-connection overlays never leak: two connections over one engine,
/// each with its own `strategy`, `limit` and `binary`, traded
/// before every delta, read exactly their own form of the reference answer
/// and see their own overlay in `info` after every step, at every strategy,
/// over both transports, with either connection in binary mode, while
/// deltas, pins and restarts churn the graph. The engine's base
/// configuration never moves.
#[test]
fn overlays_stay_per_session_and_results_depend_only_on_epoch() {
    let axes = Axes::default().reader(&[Reader::Session, Reader::Tcp]);
    let axes = axes.binary(&[false, true]).strategy(&Strategy::ALL);
    for seed in 0..6 {
        assert_equivalent(&scenario(0x0E7 + seed, Shape::Uniform), &axes);
    }
}

/// How many of `s`'s `Ask` steps address an epoch the ring or a restart
/// has dropped by then.
fn dropped_asks(s: &Scenario) -> usize {
    let (mut epoch, mut restarted_at, mut pins, mut dropped) = (0, 0, Vec::new(), 0);
    for step in &s.steps {
        match step {
            Step::Delta(..) => epoch += 1,
            Step::Restart => restarted_at = epoch,
            Step::Pin => pins.push(epoch),
            Step::Ask(k, _) => {
                let then = pins.get(*k).copied().unwrap_or(epoch);
                dropped += usize::from(then + RETAINED_VIEWS <= epoch || then < restarted_at);
            }
            _ => {}
        }
    }
    dropped
}

/// MVCC over the wire: on long delta streams, every `query … at <epoch>`
/// answers like the reference at that epoch while the epoch is retained,
/// and with a clean `ERR … not retained` once the 8-view ring or a restart
/// dropped it.
#[test]
fn mvcc_pinned_reads_match_replay_at_their_epoch() {
    let axes = Axes::default().reader(&[Reader::Session, Reader::Tcp]);
    let scenarios: Vec<_> = (0..6)
        .map(|seed| {
            let mut s = scenario(0x3CC + seed, Shape::GiantScc);
            for more in 1..4 {
                s.steps
                    .extend(scenario(0x3CC0 + 4 * seed + more, Shape::Uniform).steps);
            }
            s
        })
        .collect();
    assert!(scenarios.iter().map(dropped_asks).sum::<usize>() >= 2);
    for s in &scenarios {
        assert_equivalent(s, &axes);
    }
}

#[test]
fn encode_decode_is_a_fixpoint() {
    check(0xB1, 128, relation(2000, 300), |pairs| {
        let frame = encode_pairs(pairs);
        assert_eq!(frame.bytes.len(), pairs.len() * 8);
        let (byte_len, count) = parse_header(&frame.header_line()).unwrap();
        assert_eq!(byte_len, frame.bytes.len());
        assert_eq!(count, pairs.len());
        assert_eq!(&decode_pairs(&frame.bytes, count).unwrap(), pairs);
    });
}

/// Truncated or padded frames are rejected with an error — never a panic,
/// never a silently short result.
#[test]
fn truncated_frames_error_never_panic() {
    let draw = |r: &mut StdRng| (relation(500, 80)(r), r.gen_range(0..1000usize));
    check(0xB2, 128, draw, |(pairs, cut)| {
        let frame = encode_pairs(pairs);
        let Some(cut) = cut.checked_rem(frame.bytes.len()) else {
            return;
        };
        assert!(decode_pairs(&frame.bytes[..cut], frame.pairs).is_err());
        // Padding is rejected too: a frame is exact, not "at least".
        let mut padded = frame.bytes.clone();
        padded.extend_from_slice(&[0; 3]);
        assert!(decode_pairs(&padded, frame.pairs).is_err());
    });
}

/// Whatever bytes arrive where a header line was expected, the parser
/// answers Ok/Err — it must not panic.
#[test]
fn fuzzed_headers_never_panic() {
    let draw = |r: &mut StdRng| random_ids(r, 256, 0..40);
    check(0xB3, 128, draw, |junk| {
        let junk: Vec<u8> = junk.iter().map(|&b| b as u8).collect();
        let line = String::from_utf8_lossy(&junk).into_owned();
        let _ = parse_header(&line);
        let _ = parse_header(&format!("RESULT-BIN {line}"));
    });
}

/// A large result set round-trips exactly: ~2.5M pairs through the binary
/// frame (the workload the frame exists for), read off the bytes the
/// reply writes, byte count checked.
#[test]
fn large_result_binary_roundtrip() {
    let mut s = Session::new();
    s.execute("gen rmat 3 10 42").unwrap();
    s.execute("binary on").unwrap();
    let r = s.execute("query l0+").unwrap();
    let Status::Ok(ref status) = r.status else {
        panic!("query failed: {:?}", r.status)
    };
    assert!(r.binary.is_some(), "binary frame");
    let mut bytes = Vec::new();
    r.write_to(&mut bytes).unwrap();
    let reply = read_reply(&mut &bytes[..]).unwrap();
    let (pairs, body) = reply.binary.expect("a RESULT-BIN frame on the wire");
    assert!(pairs > 100_000, "expected a large result, got {pairs}");
    assert_eq!(body.len(), pairs * 8);
    let decoded = decode_pairs(&body, pairs).unwrap();
    assert_eq!(decoded.len(), pairs);
    assert!(status.starts_with(&format!("{pairs} pairs")), "{status}");
    // Spot-check strict ordering (the PairSet canonical order survived).
    assert!(decoded.windows(2).all(|w| w[0] <= w[1]));
}

/// One id of every decimal digit count a `u32` has: 0, 9, 10, 99, 100,
/// …, 10^9 and `u32::MAX − 1`, ascending.
fn every_digit_count() -> Vec<u32> {
    let mut ids = vec![0];
    for k in 1..=9 {
        ids.extend([10u32.pow(k) - 1, 10u32.pow(k)]);
    }
    ids.push(u32::MAX - 1);
    ids
}

/// The fixed results the writers are checked on: empty, flat, and
/// grouped with `Arc` rows shared between starts (a sparse row over every
/// digit count and a dense one).
fn fixed_results() -> Vec<PairSet> {
    let ids = every_digit_count();
    let flat: PairSet = ids[..6]
        .iter()
        .flat_map(|&s| ids.iter().map(move |&d| (s, d)))
        .collect();
    let sparse = Arc::new(RowSet::from_sorted_vec(ids.clone()));
    let dense = Arc::new(RowSet::dense_from_iter(2048, (0..2048).step_by(7)));
    assert!(dense.is_dense());
    let grouped = PairSet::from_grouped_rows(
        [0, 9, 10, 99, 100, u32::MAX - 1]
            .into_iter()
            .enumerate()
            .map(|(k, s)| {
                let row = if k % 3 == 1 { &dense } else { &sparse };
                (VertexId(s), Arc::clone(row))
            })
            .collect(),
    );
    assert!(grouped.is_grouped());
    vec![PairSet::new(), flat, grouped]
}

/// The limits each fixed result is listed at: 0, 1, `len − 1`, `len`,
/// `len + 1`, and one past the first group, which ends inside the second.
fn fixed_limits(result: &PairSet) -> Vec<usize> {
    let first = result.groups().next().map_or(0, |(_, ends)| ends.len());
    let len = result.len();
    vec![0, 1, len.saturating_sub(1), len, len + 1, first + 1]
}

fn written(r: &Response) -> Vec<u8> {
    let mut bytes = Vec::new();
    r.write_to(&mut bytes).unwrap();
    bytes
}

fn status_only(status: &str) -> Response {
    Response {
        lines: Vec::new(),
        listing: None,
        binary: None,
        status: Status::Ok(status.to_string()),
        quit: false,
    }
}

/// A `query` reply's text lines and `RESULT-BIN` frame are byte for byte
/// what the format oracle (one `format!` per pair, the frame body built
/// whole) writes, on empty, flat and grouped results with shared rows,
/// ids of every digit count, and every limit edge; and both decode back
/// to the result.
#[test]
fn query_replies_match_the_format_oracle_byte_for_byte() {
    for result in fixed_results() {
        let result = Arc::new(result);
        let pairs: Vec<(u32, u32)> = result.iter().map(|(s, d)| (s.raw(), d.raw())).collect();
        let status = format!("{} pairs", result.len());
        for limit in fixed_limits(&result) {
            let r = Response {
                listing: Some(Listing::Pairs {
                    result: Arc::clone(&result),
                    limit,
                }),
                ..status_only(&status)
            };
            let bytes = written(&r);
            let want = [
                text_bytes(&pair_lines(&result, limit)),
                format!("OK {status}\n").into(),
            ];
            assert_eq!(bytes, want.concat(), "limit {limit}");
            let reply = read_reply(&mut &bytes[..]).unwrap();
            let shown = &pairs[..limit.min(pairs.len())];
            assert_eq!(decode_text_pairs(&reply.lines).unwrap(), shown);
        }
        let r = Response {
            binary: Some(Arc::clone(&result)),
            ..status_only(&status)
        };
        let bytes = written(&r);
        let want = [
            frame_bytes(&encode_pair_set(&result)),
            format!("OK {status}\n").into(),
        ];
        assert_eq!(bytes, want.concat());
        let (count, body) = read_reply(&mut &bytes[..]).unwrap().binary.unwrap();
        assert_eq!(decode_pairs(&body, count).unwrap(), pairs);
    }
}

/// An `ends` reply is byte for byte the oracle's one line, at every limit
/// edge and over ids of every digit count.
#[test]
fn ends_replies_match_the_format_oracle_byte_for_byte() {
    let all: Vec<VertexId> = every_digit_count().into_iter().map(VertexId).collect();
    for ends in [Vec::new(), all[..1].to_vec(), all] {
        let len = ends.len();
        for limit in [0, 1, len.saturating_sub(1), len, len + 1] {
            let status = format!("{len} end vertices from v0");
            let r = Response {
                listing: Some(Listing::Ends {
                    ends: ends.clone(),
                    limit,
                }),
                ..status_only(&status)
            };
            let want = [
                text_bytes(&ends_lines(&ends, limit)),
                format!("OK {status}\n").into(),
            ];
            assert_eq!(written(&r), want.concat(), "limit {limit}");
        }
    }
}
