//! Engine snapshots: the graph and the keys of its warm cache, on disk.
//!
//! A long-lived [`Engine`] earns its keep by amortizing shared RTCs across
//! a query stream, and a restart should come back with the same structures
//! cached. The paper makes the RTC a lightweight structure that Algorithm 1
//! (lines 9–11) computes from `R_G` whenever it is missing, so a snapshot
//! stores only what the cache **keys on** and rebuilds the rest:
//!
//! 1. the graph at its current epoch (the [`rpq_graph::snapshot`] section,
//!    embedded verbatim), and
//! 2. for every **fresh** cache entry, its kind (RTC or full closure) and
//!    its canonical closure-body key.
//!
//! A load parses each key, refuses it unless it is canonical, and builds
//! its structure the way a cache miss does — a closure-free body's RTC from
//! the product of the graph and the body ([`rpq_reduction::Rtc::from_body`]),
//! anything else from `R_G` by Algorithm 1's recursion — under the loading
//! [`EngineConfig`] (its clause and cache
//! budgets). It then resets the counters, so the restored engine reads
//! like a fresh one whose first query hits. The load pays the builds a cold
//! engine's first queries would have paid; in exchange the file is the
//! graph section plus a few bytes per entry, and no byte of it can describe
//! a structure that the graph does not produce.
//!
//! Stale entries (built at an older epoch than the graph) are *dropped* on
//! save: they would need a refresh before being served anyway.
//!
//! Layout, after the 8-byte magic `b"RPQESNP3"`: the graph section, a
//! `u32` entry count, then per entry one kind byte ([`crate::SharingKind`]'s
//! discriminant: `0` RTC, `1` full closure) and the key as a `u32` length
//! plus UTF-8 bytes, then the end marker `b"RPQEEND."`. Integers are
//! little-endian; entries are sorted by key, then kind, so snapshots of
//! equal state are byte-equal. Versions `1` and `2`, which held the
//! closure tables themselves, are refused with their version named.
//!
//! A save writes every fresh entry. A load builds through the
//! budget-enforcing insert, so the loading [`crate::CacheBudget`] is the
//! one retention policy: a file saved past a budget (pinned epochs can
//! hold the live cache over it) or restored into a tighter one ends
//! within it. Every byte is validated — magic, embedded graph, kind bytes,
//! keys and the end marker — before anything is built, so a truncated or
//! corrupted file fails with [`EngineError::Snapshot`].
//!
//! ```
//! use rpq_core::{snapshot, Engine, EngineConfig};
//! use rpq_graph::fixtures::paper_graph;
//!
//! let mut engine = Engine::new_dynamic(paper_graph());
//! engine.evaluate_str("d.(b.c)+.c").unwrap(); // caches the (b.c) RTC
//!
//! let mut bytes = Vec::new();
//! snapshot::write_snapshot(&engine, &mut bytes).unwrap();
//!
//! let mut warm = snapshot::read_snapshot(&bytes[..], EngineConfig::default()).unwrap();
//! warm.evaluate_str("d.(b.c)+.c").unwrap();
//! assert_eq!(warm.cache().misses(), 0); // rebuilt at load, a hit now
//! assert!(warm.cache().hits() >= 1);
//! ```

use crate::engine::{Engine, EngineConfig, Strategy};
use crate::error::EngineError;
use rpq_regex::Regex;
use std::io::{Read, Write};
use std::path::Path;

/// Leading magic of an engine snapshot; the trailing byte is the format
/// version, the only one this build reads or writes.
pub const MAGIC: [u8; 8] = *b"RPQESNP3";

/// Trailing end marker: present iff the file was written to completion.
pub const END_MARKER: [u8; 8] = *b"RPQEEND.";

/// Whether `head` starts with the engine-snapshot magic (any version) —
/// the sniffing rule for front-ends whose `load` accepts engine
/// snapshots alongside edge lists.
pub fn matches_magic(head: &[u8]) -> bool {
    head.len() >= 7 && head[..7] == MAGIC[..7]
}

/// Writes the engine's serving state (graph + fresh cache keys), returning
/// the number of cache entries the snapshot holds.
pub fn write_snapshot<W: Write>(engine: &Engine<'_>, mut w: W) -> Result<usize, EngineError> {
    w.write_all(&MAGIC).map_err(io_err)?;
    rpq_graph::snapshot::write_graph_snapshot(engine.graph(), engine.epoch(), &mut w)?;

    // Sort so snapshots of equal state are byte-equal (hash-map iteration
    // order is not deterministic).
    let mut entries = engine.cache().fresh_entries();
    entries.sort_by(|a, b| (&a.key, a.kind).cmp(&(&b.key, b.kind)));
    write_u32(&mut w, entries.len() as u32)?;
    for entry in &entries {
        w.write_all(&[entry.kind as u8]).map_err(io_err)?;
        write_str(&mut w, &entry.key)?;
    }
    w.write_all(&END_MARKER).map_err(io_err)?;
    w.flush().map_err(io_err)?;
    Ok(entries.len())
}

/// Reads an engine snapshot, returning an engine over the saved graph at
/// its saved epoch with every persisted closure body rebuilt into its
/// cache, under `config`, and its counters at zero. A body the build
/// refuses (a DNF past `config`'s clause budget) fails the load with that
/// error.
pub fn read_snapshot<R: Read>(
    mut r: R,
    config: EngineConfig,
) -> Result<Engine<'static>, EngineError> {
    let mut magic = [0u8; 8];
    read_exact(&mut r, &mut magic, "magic")?;
    if !matches_magic(&magic) {
        return Err(EngineError::Snapshot(
            "bad magic: not an engine snapshot file".into(),
        ));
    }
    if magic[7] != MAGIC[7] {
        return Err(EngineError::Snapshot(format!(
            "unsupported engine snapshot version {:?} (this build reads version '{}' only)",
            magic[7] as char, MAGIC[7] as char,
        )));
    }
    let graph = rpq_graph::snapshot::read_snapshot(&mut r)?;

    // Every byte is checked before anything is built.
    let count = read_u32(&mut r, "entry count")? as usize;
    let mut bodies = Vec::with_capacity(count.min(CAP));
    for _ in 0..count {
        let mut kind = [0u8; 1];
        read_exact(&mut r, &mut kind, "entry kind")?;
        let strategy = match kind[0] {
            0 => Strategy::RtcSharing,
            1 => Strategy::FullSharing,
            k => return Err(EngineError::Snapshot(format!("unknown structure kind {k}"))),
        };
        let key = read_str(&mut r, "entry key")?;
        let body = Regex::parse(&key).map_err(|e| {
            let e = e.to_string();
            EngineError::Snapshot(format!("entry key {key:?} does not parse: {e:?}"))
        })?;
        if body.canonical_key() != key {
            return Err(EngineError::Snapshot(format!(
                "entry key {key:?} is not canonical ({:?})",
                body.canonical_key()
            )));
        }
        bodies.push((strategy, body));
    }
    let mut end = [0u8; 8];
    read_exact(&mut r, &mut end, "end marker")?;
    if end != END_MARKER {
        return Err(EngineError::Snapshot(
            "missing end marker: snapshot was not written to completion".into(),
        ));
    }

    let engine = Engine::with_config_versioned(graph, config);
    for (strategy, body) in &bodies {
        engine.restore_body(*strategy, body)?;
    }
    engine.reset_metrics();
    Ok(engine)
}

/// Writes the engine's serving state to a snapshot file, returning
/// [`write_snapshot`]'s entry count. The file is written whole to `<path>.tmp`,
/// synced, and renamed over `path`, so a failed or interrupted save leaves
/// any previous snapshot at `path` intact.
pub fn save_snapshot(engine: &Engine<'_>, path: &Path) -> Result<usize, EngineError> {
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    let tmp = std::path::PathBuf::from(tmp);
    let file = std::fs::File::create(&tmp).map_err(io_err)?;
    let written = write_synced(engine, file).and_then(|count| {
        std::fs::rename(&tmp, path).map_err(io_err)?;
        // The rename survives a crash once the directory entry is synced.
        if cfg!(unix) {
            let dir = path.parent().filter(|d| !d.as_os_str().is_empty());
            let dir = std::fs::File::open(dir.unwrap_or(Path::new("."))).map_err(io_err)?;
            dir.sync_all().map_err(io_err)?;
        }
        Ok(count)
    });
    if written.is_err() {
        std::fs::remove_file(&tmp).ok();
    }
    written
}

/// Writes the snapshot into `file` through a buffer and syncs it to disk.
fn write_synced(engine: &Engine<'_>, file: std::fs::File) -> Result<usize, EngineError> {
    let mut w = std::io::BufWriter::new(file);
    let count = write_snapshot(engine, &mut w)?;
    let file = w.into_inner().map_err(|e| io_err(e.into_error()))?;
    file.sync_all().map_err(io_err)?;
    Ok(count)
}

/// Loads an engine from a snapshot file ([`read_snapshot`]).
pub fn load_snapshot(path: &Path, config: EngineConfig) -> Result<Engine<'static>, EngineError> {
    let file = std::fs::File::open(path).map_err(io_err)?;
    read_snapshot(std::io::BufReader::new(file), config)
}

/// Cap on key lengths, and on pre-allocation from a count a corrupt file
/// controls.
const CAP: usize = 1 << 16;

fn io_err(e: std::io::Error) -> EngineError {
    EngineError::Snapshot(format!("i/o error: {e}"))
}

fn write_u32<W: Write>(w: &mut W, v: u32) -> Result<(), EngineError> {
    w.write_all(&v.to_le_bytes()).map_err(io_err)
}

fn write_str<W: Write>(w: &mut W, s: &str) -> Result<(), EngineError> {
    // Same cap as read_str: a save must never produce a file its own
    // reader rejects (an over-long cache key fails loudly here instead).
    if s.len() > CAP {
        return Err(EngineError::Snapshot(format!(
            "cache key of {} bytes exceeds the {CAP}-byte snapshot cap",
            s.len()
        )));
    }
    write_u32(w, s.len() as u32)?;
    w.write_all(s.as_bytes()).map_err(io_err)
}

fn read_exact<R: Read>(r: &mut R, buf: &mut [u8], what: &str) -> Result<(), EngineError> {
    r.read_exact(buf).map_err(|e| {
        if e.kind() == std::io::ErrorKind::UnexpectedEof {
            EngineError::Snapshot(format!("truncated snapshot: unexpected EOF reading {what}"))
        } else {
            io_err(e)
        }
    })
}

fn read_u32<R: Read>(r: &mut R, what: &str) -> Result<u32, EngineError> {
    let mut buf = [0u8; 4];
    read_exact(r, &mut buf, what)?;
    Ok(u32::from_le_bytes(buf))
}

fn read_str<R: Read>(r: &mut R, what: &str) -> Result<String, EngineError> {
    let len = read_u32(r, what)? as usize;
    if len > CAP {
        return Err(EngineError::Snapshot(format!(
            "{what} length {len} exceeds the {CAP}-byte cap"
        )));
    }
    let mut buf = vec![0u8; len];
    read_exact(r, &mut buf, what)?;
    String::from_utf8(buf).map_err(|_| EngineError::Snapshot(format!("{what} is not valid UTF-8")))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::{Shared, SharingKind};
    use rpq_graph::fixtures::paper_graph;
    use rpq_graph::{GraphDelta, PairSet, VersionedGraph, VertexId};
    use std::sync::Arc;

    fn snapshot_bytes(engine: &Engine<'_>) -> Vec<u8> {
        let mut bytes = Vec::new();
        write_snapshot(engine, &mut bytes).unwrap();
        bytes
    }

    /// `unwrap_err` without requiring `Engine: Debug`.
    fn expect_err(r: Result<Engine<'static>, EngineError>) -> EngineError {
        match r {
            Err(e) => e,
            Ok(_) => panic!("expected a snapshot error, got a working engine"),
        }
    }

    /// An owned paper-graph engine under `strategy` that has evaluated
    /// `queries`.
    fn warmed(strategy: Strategy, queries: &[&str]) -> Engine<'static> {
        let config = EngineConfig {
            strategy,
            ..EngineConfig::default()
        };
        let engine = Engine::with_config_versioned(VersionedGraph::new(paper_graph()), config);
        for q in queries {
            engine.evaluate_str(q).unwrap();
        }
        engine
    }

    /// Bytes of an engine's magic plus graph section: where the entry
    /// section starts.
    fn graph_section_end(engine: &Engine<'_>) -> usize {
        let mut graph = Vec::new();
        rpq_graph::snapshot::write_graph_snapshot(engine.graph(), engine.epoch(), &mut graph)
            .unwrap();
        MAGIC.len() + graph.len()
    }

    #[test]
    fn warm_restart_serves_fresh_hits_without_recompute() {
        let engine = Engine::new_dynamic(paper_graph());
        let expected = engine.evaluate_str("d.(b.c)+.c").unwrap();
        assert_eq!(engine.cache().totals(SharingKind::Rtc).entries, 1);

        let bytes = snapshot_bytes(&engine);
        let warm = read_snapshot(&bytes[..], EngineConfig::default()).unwrap();
        assert_eq!(warm.epoch(), engine.epoch());
        assert_eq!(warm.cache().totals(SharingKind::Rtc).entries, 1);
        // The entry was rebuilt at load and the counters reset: the very
        // first evaluation is a Fresh hit.
        let result = warm.evaluate_str("d.(b.c)+.c").unwrap();
        assert_eq!(result, expected);
        assert_eq!(warm.cache().misses(), 0, "warm cache must not miss");
        assert_eq!(
            warm.cache().stale_hits(),
            0,
            "entry must be Fresh, not stale"
        );
        assert!(warm.cache().hits() >= 1);
    }

    #[test]
    fn snapshot_preserves_epoch_and_supports_further_deltas() {
        let mut engine = Engine::new_dynamic(paper_graph());
        engine.evaluate_str("(b.c)+").unwrap();
        let mut delta = GraphDelta::new();
        delta.insert(6, "b", 8).insert(8, "c", 6);
        engine.apply_delta(&delta);
        let after_delta = engine.evaluate_str("(b.c)+").unwrap(); // refresh at epoch 1

        let bytes = snapshot_bytes(&engine);
        let mut warm = read_snapshot(&bytes[..], EngineConfig::default()).unwrap();
        assert_eq!(warm.epoch(), 1);
        assert_eq!(warm.evaluate_str("(b.c)+").unwrap(), after_delta);
        assert_eq!(warm.cache().misses(), 0);

        // The warm engine keeps mutating: the restored entry goes stale
        // and refreshes against the footprint it was rebuilt with.
        let mut delta = GraphDelta::new();
        delta.delete(6, "b", 8);
        warm.apply_delta(&delta);
        let reverted = warm.evaluate_str("(b.c)+").unwrap();
        let oracle = Engine::new(&paper_graph()).evaluate_str("(b.c)+").unwrap();
        assert_eq!(reverted, oracle);
        assert!(warm.cache().stale_hits() >= 1);
    }

    #[test]
    fn stale_entries_are_dropped_on_save() {
        let mut engine = Engine::new_dynamic(paper_graph());
        engine.evaluate_str("(b.c)+").unwrap();
        // Advance the epoch without refreshing: the entry is now stale.
        engine.apply_delta(&GraphDelta::new());
        let bytes = snapshot_bytes(&engine);
        let warm = read_snapshot(&bytes[..], EngineConfig::default()).unwrap();
        assert_eq!(warm.cache().totals(SharingKind::Rtc).entries, 0);
        assert_eq!(warm.epoch(), 1);
    }

    #[test]
    fn full_sharing_entries_roundtrip() {
        let engine = warmed(Strategy::FullSharing, &[]);
        let expected = engine.evaluate_str("d.(b.c)+.c").unwrap();
        assert_eq!(engine.cache().totals(SharingKind::Full).entries, 1);

        // The kind comes from the file, not from the loading strategy.
        let bytes = snapshot_bytes(&engine);
        let warm = read_snapshot(&bytes[..], EngineConfig::default()).unwrap();
        assert_eq!(warm.cache().totals(SharingKind::Full).entries, 1);
        assert_eq!(warm.cache().totals(SharingKind::Rtc).entries, 0);
        let full = EngineConfig {
            strategy: Strategy::FullSharing,
            ..EngineConfig::default()
        };
        assert_eq!(
            warm.evaluate_with(&Regex::parse("d.(b.c)+.c").unwrap(), full),
            Ok(expected)
        );
        assert_eq!(warm.cache().misses(), 0);
        assert!(warm.cache().hits() >= 1);
    }

    #[test]
    fn snapshots_are_deterministic() {
        let engine = Engine::new_dynamic(paper_graph());
        engine.evaluate_str("d.(b.c)+.c").unwrap();
        engine.evaluate_str("(a.b)+").unwrap();
        engine.evaluate_str("c.(a.b)*").unwrap();
        assert!(engine.cache().totals(SharingKind::Rtc).entries >= 2);
        assert_eq!(snapshot_bytes(&engine), snapshot_bytes(&engine));
    }

    #[test]
    fn borrowed_engine_snapshots_at_epoch_zero() {
        let g = paper_graph();
        let engine = Engine::new(&g);
        engine.evaluate_str("(b.c)+").unwrap();
        let bytes = snapshot_bytes(&engine);
        let warm = read_snapshot(&bytes[..], EngineConfig::default()).unwrap();
        assert_eq!(warm.epoch(), 0);
        assert_eq!(warm.cache().totals(SharingKind::Rtc).entries, 1);
        assert_eq!(warm.graph().edge_count(), g.edge_count());
    }

    #[test]
    fn bad_magic_and_truncation_are_rejected() {
        let err = expect_err(read_snapshot(&b"GARBAGE_"[..], EngineConfig::default()));
        assert!(
            matches!(err, EngineError::Snapshot(ref m) if m.contains("magic")),
            "{err}"
        );

        let engine = Engine::new_dynamic(paper_graph());
        engine.evaluate_str("d.(b.c)+.c").unwrap();
        let bytes = snapshot_bytes(&engine);
        for cut in [0, 4, 20, bytes.len() / 2, bytes.len() - 1] {
            let err = expect_err(read_snapshot(&bytes[..cut], EngineConfig::default()));
            // Truncation inside the embedded graph section surfaces as a
            // graph-layer snapshot error; everywhere else as the engine's.
            assert!(
                matches!(
                    err,
                    EngineError::Snapshot(_)
                        | EngineError::Graph(rpq_graph::GraphError::Snapshot(_))
                ),
                "prefix {cut}: {err:?}"
            );
        }
    }

    /// A paper-graph snapshot whose entry section is `entries`, each a
    /// kind byte and a key, written by hand.
    fn file_with(entries: &[(u8, &str)]) -> Vec<u8> {
        let engine = Engine::new_dynamic(paper_graph());
        let mut bytes = snapshot_bytes(&engine);
        bytes.truncate(graph_section_end(&engine));
        bytes.extend_from_slice(&(entries.len() as u32).to_le_bytes());
        for (kind, key) in entries {
            bytes.push(*kind);
            bytes.extend_from_slice(&(key.len() as u32).to_le_bytes());
            bytes.extend_from_slice(key.as_bytes());
        }
        bytes.extend_from_slice(&END_MARKER);
        bytes
    }

    #[test]
    fn unparsable_non_canonical_and_unknown_kind_entries_are_refused() {
        let warm = read_snapshot(
            &file_with(&[(0, "b.c"), (1, "b.c")])[..],
            EngineConfig::default(),
        )
        .unwrap();
        assert!(warm.cache().contains_fresh(SharingKind::Rtc, "b.c"));
        assert!(warm.cache().contains_fresh(SharingKind::Full, "b.c"));

        // Nesting past the parser's cap is refused, not a stack overflow.
        let deep = "(".repeat(CAP);
        for (entries, says) in [
            (&[(0, "b.c"), (0, "b.(c")][..], "does not parse"),
            (&[(0, deep.as_str())][..], "nested deeper than"),
            (&[(0, "(b).c")][..], "not canonical"),
            (&[(0, "b . c")][..], "not canonical"),
            (&[(2, "b.c")][..], "unknown structure kind 2"),
            (&[(b'R', "b.c")][..], "unknown structure kind 82"),
        ] {
            let err = expect_err(read_snapshot(
                &file_with(entries)[..],
                EngineConfig::default(),
            ));
            assert!(
                matches!(err, EngineError::Snapshot(ref m) if m.contains(says)),
                "{says}: {err}"
            );
        }
    }

    /// Every single-bit flip (masks `0x01` and `0x80`) of every byte after
    /// the graph section, over RTC and full-closure caches of the paper
    /// graph, either fails to load or loads an engine that answers the
    /// cached queries exactly as NoSharing does over the restored graph.
    /// Nothing panics, at load or at query time.
    #[test]
    fn byte_flips_after_the_graph_section_fail_or_answer_exactly() {
        use std::panic::{catch_unwind, AssertUnwindSafe};
        let queries = ["d.(b.c)+.c", "(a.b)*.b+", "c.(a.b)+.b", "a.(b.c)*"];
        let (mut loads, mut failures) = (0, Vec::new());
        for strategy in [Strategy::RtcSharing, Strategy::FullSharing] {
            let engine = warmed(strategy, &queries);
            let config = *engine.config();
            let bytes = snapshot_bytes(&engine);
            for at in graph_section_end(&engine)..bytes.len() {
                for mask in [0x01u8, 0x80] {
                    let mut corrupt = bytes.clone();
                    corrupt[at] ^= mask;
                    loads += 1;
                    let exact = catch_unwind(AssertUnwindSafe(|| {
                        let Ok(warm) = read_snapshot(&corrupt[..], config) else {
                            return true;
                        };
                        let oracle = Engine::with_strategy(warm.graph(), Strategy::NoSharing);
                        queries
                            .iter()
                            .all(|q| warm.evaluate_str(q) == oracle.evaluate_str(q))
                    }));
                    match exact {
                        Ok(true) => {}
                        Ok(false) => failures.push(format!("{strategy} {at}^{mask:#x}: wrong")),
                        Err(_) => failures.push(format!("{strategy} {at}^{mask:#x}: panic")),
                    }
                }
            }
        }
        assert!(
            failures.is_empty(),
            "{} of {loads} loads: {failures:?}",
            failures.len()
        );
    }

    #[test]
    fn oversized_cache_key_fails_at_save_not_load() {
        // Write/read symmetry: a key past the reader's cap must make the
        // *write* fail loudly, never produce an unloadable file.
        let engine = Engine::new_dynamic(paper_graph());
        let huge_key = "k".repeat(CAP + 1);
        engine.cache().insert(
            huge_key,
            Shared::Rtc(Arc::new(rpq_reduction::Rtc::from_pairs(&PairSet::new()))),
            None,
            engine.epoch(),
            std::time::Duration::ZERO,
        );
        let mut bytes = Vec::new();
        let err = write_snapshot(&engine, &mut bytes).unwrap_err();
        assert!(
            matches!(err, EngineError::Snapshot(ref m) if m.contains("cap")),
            "{err}"
        );
    }

    /// A load into a tighter budget than the writer's builds through the
    /// budget-enforcing insert, so the restored cache ends within it.
    #[test]
    fn a_load_into_a_tighter_budget_ends_within_it() {
        let unbounded = EngineConfig {
            cache_budget: crate::CacheBudget::default(),
            ..EngineConfig::default()
        };
        let engine = Engine::with_config_versioned(VersionedGraph::new(paper_graph()), unbounded);
        for q in ["(b.c)+", "(a.b)+", "c+", "(a|b)+", "d.(b.c)*"] {
            engine.evaluate_str(q).unwrap();
        }
        assert_eq!(engine.cache().occupancy_entries(), 4);
        let bytes = snapshot_bytes(&engine);
        let written = engine.cache().occupancy_bytes();
        for budget in [
            crate::CacheBudget {
                max_entries: Some(2),
                ..crate::CacheBudget::default()
            },
            crate::CacheBudget {
                max_bytes: Some(written / 2),
                ..crate::CacheBudget::default()
            },
        ] {
            let config = EngineConfig {
                cache_budget: budget,
                ..unbounded
            };
            let warm = read_snapshot(&bytes[..], config).unwrap();
            let cache = warm.cache();
            assert!(cache.occupancy_entries() <= budget.max_entries.unwrap_or(usize::MAX));
            assert!(cache.occupancy_bytes() <= budget.max_bytes.unwrap_or(usize::MAX));
            assert!(cache.occupancy_entries() > 0, "{budget}: something fits");
            assert_eq!(cache.eviction_counters().total(), 0, "counters reset");
        }
    }

    /// A pinned epoch can hold a bounded cache past its budget. The save
    /// writes every fresh entry anyway; a load under the writer's budget
    /// builds through the budget-enforcing insert and ends within it.
    #[test]
    fn over_budget_saves_write_every_entry_and_load_within_budget() {
        let config = EngineConfig {
            cache_budget: crate::CacheBudget {
                max_entries: Some(1),
                ..crate::CacheBudget::default()
            },
            ..EngineConfig::default()
        };
        let g = paper_graph();
        let engine = Engine::with_config(&g, config);
        let view = engine.pin(); // pins epoch 0: both entries below survive
        let pairs = sample_pairs();
        for key in ["a.b", "b.c"] {
            let body = Regex::parse(key).unwrap();
            engine.cache().insert(
                key.to_owned(),
                Shared::Rtc(Arc::new(rpq_reduction::Rtc::from_pairs(&pairs))),
                Some(Arc::new(crate::Footprint::of(&g, &body))),
                engine.epoch(),
                std::time::Duration::ZERO,
            );
        }
        assert_eq!(
            engine.cache().totals(SharingKind::Rtc).entries,
            2,
            "the pin must hold the live cache over budget"
        );

        let mut bytes = Vec::new();
        assert_eq!(write_snapshot(&engine, &mut bytes).unwrap(), 2);
        drop(view);
        let warm = read_snapshot(&bytes[..], config).unwrap();
        assert_eq!(warm.cache().occupancy_entries(), 1, "loaded within budget");
        let unbounded = EngineConfig {
            cache_budget: crate::CacheBudget::default(),
            ..config
        };
        let warm = read_snapshot(&bytes[..], unbounded).unwrap();
        assert!(warm.cache().contains_fresh(SharingKind::Rtc, "a.b"));
        assert!(warm.cache().contains_fresh(SharingKind::Rtc, "b.c"));
    }

    /// The bytes of a paper-graph RTC snapshot (at epoch 1, after a delta
    /// that adds vertex 8), pinned so the format cannot drift unnoticed.
    #[test]
    fn paper_graph_rtc_snapshot_bytes_are_pinned() {
        const GOLDEN: [&str; 10] = [
            "52505145534e503352505147534e503101000000000000000a00000000000000",
            "0600000000000000010000006101000000630100000062010000006401000000",
            "6501000000660200000000000000000000000100000007000000080000000600",
            "0000000000000100000002000000020000000500000005000000040000000500",
            "0000060000000600000003000000080000000600000006000000000000000200",
            "0000030000000200000005000000030000000200000004000000010000000500",
            "0000060000000600000008000000010000000000000007000000040000000100",
            "0000000000000800000009000000010000000000000009000000080000005250",
            "5147454e442e020000000003000000612e620003000000622e6352505145454e",
            "442e",
        ];
        let config = EngineConfig {
            cache_budget: crate::CacheBudget::default(),
            ..EngineConfig::default()
        };
        let mut engine = Engine::with_config_versioned(VersionedGraph::new(paper_graph()), config);
        let mut delta = GraphDelta::new();
        delta.insert(6, "b", 8).insert(8, "c", 6);
        engine.apply_delta(&delta);
        for q in ["d.(b.c)+.c", "(a.b)+", "c.(a.b)*"] {
            engine.evaluate_str(q).unwrap();
        }
        let hex: String = snapshot_bytes(&engine)
            .iter()
            .map(|b| format!("{b:02x}"))
            .collect();
        assert_eq!(hex, GOLDEN.concat());
    }

    /// Versions `1` and `2` held the closure tables themselves; this build
    /// refuses them, and any other version, by name.
    #[test]
    fn older_versions_are_refused_by_name() {
        let mut bytes = snapshot_bytes(&Engine::new_dynamic(paper_graph()));
        assert_eq!(bytes[7], b'3');
        for version in [b'1', b'2', b'4'] {
            bytes[7] = version;
            let err = expect_err(read_snapshot(&bytes[..], EngineConfig::default()));
            let named = format!("unsupported engine snapshot version '{}'", version as char);
            assert!(
                matches!(err, EngineError::Snapshot(ref m) if m.contains(&named)),
                "{err}"
            );
        }
    }

    fn sample_pairs() -> Arc<PairSet> {
        Arc::new(PairSet::from_sorted_unique(vec![
            (VertexId(1), VertexId(2)),
            (VertexId(2), VertexId(3)),
        ]))
    }

    #[test]
    fn file_roundtrip() {
        let dir = std::env::temp_dir().join("rpq_engine_snapshot_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("engine.snap");
        let engine = Engine::new_dynamic(paper_graph());
        engine.evaluate_str("d.(b.c)+.c").unwrap();
        save_snapshot(&engine, &path).unwrap();
        let warm = load_snapshot(&path, EngineConfig::default()).unwrap();
        warm.evaluate_str("d.(b.c)+.c").unwrap();
        assert_eq!(warm.cache().misses(), 0);
        std::fs::remove_file(&path).ok();
    }
}
