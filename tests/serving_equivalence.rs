//! The serving layer against the reference, over the wire: harness
//! scenarios replayed through `Session::execute` and over TCP, in text and
//! binary mode, on two connections with overlays of their own
//! (`rpq_testkit::wire`); and the `RESULT-BIN` frame on its own.

use rand::rngs::StdRng;
use rand::Rng;
use rpq_testkit::{assert_equivalent, check, random_ids, relation, scenario};
use rpq_testkit::{Axes, Reader, Scenario, Shape, Step};
use rtc_rpq::core::Strategy;
use rtc_rpq::server::wire::{decode_pairs, encode_pairs, parse_header};
use rtc_rpq::server::{Session, Status, RETAINED_VIEWS};

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
/// frame (the workload the frame exists for), byte count checked.
#[test]
fn large_result_binary_roundtrip() {
    let mut s = Session::new();
    s.execute("gen rmat 3 10 42").unwrap();
    s.execute("binary on").unwrap();
    let r = s.execute("query l0+").unwrap();
    let Status::Ok(ref status) = r.status else {
        panic!("query failed: {:?}", r.status)
    };
    let frame = r.binary.expect("binary frame");
    assert!(
        frame.pairs > 100_000,
        "expected a large result, got {}",
        frame.pairs
    );
    assert_eq!(frame.bytes.len(), frame.pairs * 8);
    let decoded = decode_pairs(&frame.bytes, frame.pairs).unwrap();
    assert_eq!(decoded.len(), frame.pairs);
    assert!(
        status.starts_with(&format!("{} pairs", frame.pairs)),
        "{status}"
    );
    // Spot-check strict ordering (the PairSet canonical order survived).
    assert!(decoded.windows(2).all(|w| w[0] <= w[1]));
}
