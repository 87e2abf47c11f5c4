//! Engine snapshots: graph + warm shared-structure cache, on disk.
//!
//! A long-lived [`Engine`] earns its keep by amortizing shared RTCs across
//! a query stream; a restart that only persisted the *graph* would still
//! pay Tarjan and the closure sweep again for every shared body before the
//! first warm answer. An **engine snapshot** therefore persists both
//! halves of the serving state:
//!
//! 1. the graph at its current epoch (the [`rpq_graph::snapshot`] section,
//!    embedded verbatim), and
//! 2. every **fresh** cache entry — key, recorded base relation `R_G`, and
//!    the complete structural tables of the shared [`rpq_reduction::Rtc`] /
//!    [`rpq_reduction::FullTc`] (via [`rpq_reduction::snapshot`]) — so the
//!    restored cache serves
//!    `Fresh` hits immediately, with zero recomputation.
//!
//! Stale entries (built at an older epoch than the graph) are *dropped* on
//! save: they would need a refresh before being served anyway, and the
//! refresh needs live evaluation state a snapshot cannot carry.
//!
//! Layout, after the 8-byte magic `b"RPQESNP2"`: the graph section, then
//! the RTC entry table, then the full-closure entry table, then the end
//! marker `b"RPQEEND."`. All integers are little-endian; see the field
//! comments in [`write_snapshot`] for the exact order. Version `2` adds
//! one `u64` per entry — the structure's build time in nanoseconds, the
//! cost-to-rebuild that drives budgeted eviction — right after the key;
//! version-`1` files (no cost word) still load, with cost 0. Closure
//! rows are
//! length-prefixed: a plain length word is followed by that many sorted
//! `u32` ids (the legacy sparse encoding, byte-identical to pre-hybrid
//! snapshots, so old files still load), while a length word with the
//! [`DENSE_ROW_TAG`] high bit set counts `u64` bitset words of a dense
//! row instead.
//!
//! Budgets are honoured on both sides of the roundtrip. A save from an
//! engine whose [`crate::CacheBudget`] is bounded trims to the
//! highest-score subset that fits (pinned epochs can push the live cache
//! past its budget; the file never is). A load inserts through the costed
//! budget-enforcing path, so restoring into a *tighter* budget than the
//! writer's deterministically keeps the highest-score entries and evicts
//! the rest. Loads re-validate
//! everything — magic, embedded graph, structural invariants of every
//! cached structure, `R_G` pair ordering, and the end marker — so a
//! truncated or corrupted file fails with [`EngineError::Snapshot`]
//! instead of serving garbage.
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
//! assert_eq!(warm.cache().misses(), 0); // the restored entry was Fresh
//! assert!(warm.cache().hits() >= 1);
//! ```

use crate::cache::{score, FreshEntry, Shared};
use crate::engine::{Engine, EngineConfig};
use crate::error::EngineError;
use rpq_graph::{PairSet, RowSet, VertexId};
use rpq_reduction::{FullTcParts, RtcParts};
use std::io::{Read, Write};
use std::path::Path;
use std::sync::Arc;

/// High bit of a closure-row length word: set, the low 31 bits count the
/// `u64` words of a dense bitset row; clear, they count sparse `u32` ids
/// (the legacy encoding).
pub const DENSE_ROW_TAG: u32 = 1 << 31;

/// Leading magic of an engine snapshot; the trailing byte is the format
/// version this build *writes*. The reader also accepts the previous
/// version `'1'`, which lacks per-entry build costs.
pub const MAGIC: [u8; 8] = *b"RPQESNP2";

/// Trailing end marker: present iff the file was written to completion.
pub const END_MARKER: [u8; 8] = *b"RPQEEND.";

/// Whether `head` starts with the engine-snapshot magic (any version) —
/// the sniffing rule for front-ends whose `load` accepts engine
/// snapshots alongside the graph-level formats.
pub fn matches_magic(head: &[u8]) -> bool {
    head.len() >= 7 && head[..7] == MAGIC[..7]
}

/// Writes the engine's full serving state (graph + fresh cache entries).
/// Returns `(written, trimmed)`: the cache entries the snapshot holds, and
/// the fresh ones a bounded budget left out.
pub fn write_snapshot<W: Write>(
    engine: &Engine<'_>,
    mut w: W,
) -> Result<(usize, usize), EngineError> {
    w.write_all(&MAGIC).map_err(io_err)?;
    rpq_graph::snapshot::write_graph_snapshot(engine.graph(), engine.epoch(), &mut w)?;

    let cache = engine.cache();
    let mut entries = cache.fresh_entries();
    let is_full = |e: &FreshEntry| matches!(e.shared, Shared::Full(_));

    // A bounded cache can sit past its budget while pinned epochs hold
    // entries hostage; the file must not inherit that excess. Trim to the
    // highest-score subset that fits — same score as eviction
    // (cost-to-rebuild per byte), ties broken by key then namespace, so
    // equal states trim identically.
    let (budget, fresh) = (cache.budget(), entries.len());
    if !budget.is_unbounded() {
        entries.sort_by(|a, b| {
            score(b.build_nanos, b.bytes)
                .partial_cmp(&score(a.build_nanos, a.bytes))
                .unwrap_or(std::cmp::Ordering::Equal)
                .then_with(|| a.key.cmp(&b.key))
                .then_with(|| is_full(a).cmp(&is_full(b)))
        });
        let mut bytes_left = budget.max_bytes.unwrap_or(usize::MAX);
        let mut entries_left = budget.max_entries.unwrap_or(usize::MAX);
        entries.retain(|e| {
            // A too-big entry is skipped rather than ending the scan: a
            // smaller, lower-score one may still fit.
            if entries_left == 0 || e.bytes > bytes_left {
                return false;
            }
            bytes_left -= e.bytes;
            entries_left -= 1;
            true
        });
    }

    // Sort by key so snapshots of equal state are byte-equal (hash-map
    // iteration order is not deterministic).
    entries.sort_by(|a, b| a.key.cmp(&b.key));
    let full_count = entries.iter().filter(|e| is_full(e)).count();
    write_u32(&mut w, (entries.len() - full_count) as u32)?;
    for entry in &entries {
        let Shared::Rtc(rtc) = &entry.shared else {
            continue;
        };
        write_entry_head(&mut w, entry)?;
        let parts = RtcParts::of(rtc);
        write_u64(&mut w, parts.originals.len() as u64)?;
        write_all_u32(&mut w, &parts.originals)?;
        write_u32(&mut w, parts.scc_count)?;
        write_all_u32(&mut w, &parts.component_of)?;
        for row in &parts.closure_rows {
            write_row(&mut w, row)?;
        }
        write_u64(&mut w, parts.er_edges)?;
        write_u64(&mut w, parts.ebar_edges)?;
    }

    write_u32(&mut w, full_count as u32)?;
    for entry in &entries {
        let Shared::Full(full) = &entry.shared else {
            continue;
        };
        write_entry_head(&mut w, entry)?;
        let parts = FullTcParts::of(full);
        write_u64(&mut w, parts.originals.len() as u64)?;
        write_all_u32(&mut w, &parts.originals)?;
        for row in &parts.rows {
            write_row(&mut w, row)?;
        }
    }

    w.write_all(&END_MARKER).map_err(io_err)?;
    w.flush().map_err(io_err)?;
    Ok((entries.len(), fresh - entries.len()))
}

/// Reads an engine snapshot, returning a warm engine that owns its graph
/// (so deltas apply without an upgrade copy) and serves `Fresh` cache hits
/// for every persisted shared structure.
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
    let version = magic[7];
    if version != b'1' && version != MAGIC[7] {
        return Err(EngineError::Snapshot(format!(
            "unsupported engine snapshot version '{}' (this build reads versions '1'..='{}')",
            version as char, MAGIC[7] as char,
        )));
    }
    let graph = rpq_graph::snapshot::read_snapshot(&mut r)?;
    let engine = Engine::with_config_versioned(graph, config);

    let rtc_count = read_u32(&mut r, "RTC entry count")?;
    for _ in 0..rtc_count {
        let key = read_str(&mut r, "RTC entry key")?;
        let build = read_build_cost(&mut r, version, "RTC build cost")?;
        let r_g = read_opt_pairs(&mut r)?;
        let n = read_u64(&mut r, "RTC vertex count")? as usize;
        let originals = read_vec_u32(&mut r, n, "RTC originals")?;
        let scc_count = read_u32(&mut r, "RTC scc count")?;
        let component_of = read_vec_u32(&mut r, n, "RTC component table")?;
        let mut closure_rows = Vec::with_capacity((scc_count as usize).min(CAP));
        for _ in 0..scc_count {
            closure_rows.push(read_row(&mut r, "RTC closure row")?);
        }
        let er_edges = read_u64(&mut r, "RTC |E_R|")?;
        let ebar_edges = read_u64(&mut r, "RTC |Ē_R|")?;
        let parts = RtcParts {
            originals,
            component_of,
            scc_count,
            closure_rows,
            er_edges,
            ebar_edges,
        };
        let rtc = Arc::new(
            parts
                .assemble()
                .map_err(|e| EngineError::Snapshot(format!("entry '{key}': {e}")))?,
        );
        // Inserts go through budget enforcement, so a restore into a
        // tighter budget than the writer's trims deterministically.
        let (cache, epoch) = (engine.cache(), engine.epoch());
        cache.insert(key, Shared::Rtc(rtc), r_g, epoch, build);
    }

    let full_count = read_u32(&mut r, "full-closure entry count")?;
    for _ in 0..full_count {
        let key = read_str(&mut r, "full entry key")?;
        let build = read_build_cost(&mut r, version, "full build cost")?;
        let r_g = read_opt_pairs(&mut r)?;
        let n = read_u64(&mut r, "full vertex count")? as usize;
        let originals = read_vec_u32(&mut r, n, "full originals")?;
        let mut rows = Vec::with_capacity(n.min(CAP));
        for _ in 0..n {
            rows.push(read_row(&mut r, "full row")?);
        }
        let parts = FullTcParts { originals, rows };
        let full = Arc::new(
            parts
                .assemble()
                .map_err(|e| EngineError::Snapshot(format!("entry '{key}': {e}")))?,
        );
        let (cache, epoch) = (engine.cache(), engine.epoch());
        cache.insert(key, Shared::Full(full), r_g, epoch, build);
    }

    let mut end = [0u8; 8];
    read_exact(&mut r, &mut end, "end marker")?;
    if end != END_MARKER {
        return Err(EngineError::Snapshot(
            "missing end marker: snapshot was not written to completion".into(),
        ));
    }
    Ok(engine)
}

/// Writes the engine's serving state to a snapshot file, returning
/// [`write_snapshot`]'s counts. The file is written whole to `<path>.tmp`,
/// synced, and renamed over `path`, so a failed or interrupted save leaves
/// any previous snapshot at `path` intact.
pub fn save_snapshot(engine: &Engine<'_>, path: &Path) -> Result<(usize, usize), EngineError> {
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    let tmp = std::path::PathBuf::from(tmp);
    let file = std::fs::File::create(&tmp).map_err(io_err)?;
    let written = write_synced(engine, file).and_then(|counts| {
        std::fs::rename(&tmp, path).map_err(io_err)?;
        // The rename survives a crash once the directory entry is synced.
        if cfg!(unix) {
            let dir = path.parent().filter(|d| !d.as_os_str().is_empty());
            let dir = std::fs::File::open(dir.unwrap_or(Path::new("."))).map_err(io_err)?;
            dir.sync_all().map_err(io_err)?;
        }
        Ok(counts)
    });
    if written.is_err() {
        std::fs::remove_file(&tmp).ok();
    }
    written
}

/// Writes the snapshot into `file` through a buffer and syncs it to disk.
fn write_synced(engine: &Engine<'_>, file: std::fs::File) -> Result<(usize, usize), EngineError> {
    let mut w = std::io::BufWriter::new(file);
    let counts = write_snapshot(engine, &mut w)?;
    let file = w.into_inner().map_err(|e| io_err(e.into_error()))?;
    file.sync_all().map_err(io_err)?;
    Ok(counts)
}

/// Loads a warm engine from a snapshot file.
pub fn load_snapshot(path: &Path, config: EngineConfig) -> Result<Engine<'static>, EngineError> {
    let file = std::fs::File::open(path).map_err(io_err)?;
    read_snapshot(std::io::BufReader::new(file), config)
}

/// Cap for pre-allocation from length fields a corrupt file controls.
const CAP: usize = 1 << 16;

fn io_err(e: std::io::Error) -> EngineError {
    EngineError::Snapshot(format!("i/o error: {e}"))
}

fn write_u32<W: Write>(w: &mut W, v: u32) -> Result<(), EngineError> {
    w.write_all(&v.to_le_bytes()).map_err(io_err)
}

fn write_u64<W: Write>(w: &mut W, v: u64) -> Result<(), EngineError> {
    w.write_all(&v.to_le_bytes()).map_err(io_err)
}

fn write_all_u32<W: Write>(w: &mut W, vs: &[u32]) -> Result<(), EngineError> {
    for &v in vs {
        write_u32(w, v)?;
    }
    Ok(())
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

/// The fields every entry starts with, whatever structure follows.
fn write_entry_head<W: Write>(w: &mut W, entry: &FreshEntry) -> Result<(), EngineError> {
    write_str(w, &entry.key)?;
    write_u64(w, entry.build_nanos)?;
    write_opt_pairs(w, entry.r_g.as_ref())
}

fn write_row<W: Write>(w: &mut W, row: &RowSet) -> Result<(), EngineError> {
    match row {
        RowSet::Sparse(ids) => {
            write_u32(w, ids.len() as u32)?;
            write_all_u32(w, ids)
        }
        RowSet::Dense(_) => {
            let words = row.as_dense_words().expect("dense row has words");
            write_u32(w, DENSE_ROW_TAG | words.len() as u32)?;
            for &word in words {
                w.write_all(&word.to_le_bytes()).map_err(io_err)?;
            }
            Ok(())
        }
    }
}

fn read_row<R: Read>(r: &mut R, what: &str) -> Result<RowSet, EngineError> {
    let len_word = read_u32(r, what)?;
    if len_word & DENSE_ROW_TAG != 0 {
        let words = (len_word & !DENSE_ROW_TAG) as usize;
        let mut ws = Vec::with_capacity(words.min(CAP));
        for _ in 0..words {
            let mut buf = [0u8; 8];
            read_exact(r, &mut buf, what)?;
            ws.push(u64::from_le_bytes(buf));
        }
        Ok(RowSet::dense_from_words(ws))
    } else {
        // The legacy sparse encoding; sortedness is re-validated when the
        // parts assemble.
        Ok(RowSet::Sparse(read_vec_u32(r, len_word as usize, what)?))
    }
}

fn write_opt_pairs<W: Write>(w: &mut W, pairs: Option<&Arc<PairSet>>) -> Result<(), EngineError> {
    match pairs {
        None => w.write_all(&[0u8]).map_err(io_err),
        Some(p) => {
            w.write_all(&[1u8]).map_err(io_err)?;
            write_u64(w, p.len() as u64)?;
            for (a, b) in p.iter() {
                write_u32(w, a.raw())?;
                write_u32(w, b.raw())?;
            }
            Ok(())
        }
    }
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

/// The per-entry cost-to-rebuild word, added in version `2`; version-`1`
/// entries carry no cost and restore as cost 0 (first in line to evict).
fn read_build_cost<R: Read>(
    r: &mut R,
    version: u8,
    what: &str,
) -> Result<std::time::Duration, EngineError> {
    if version < b'2' {
        return Ok(std::time::Duration::ZERO);
    }
    Ok(std::time::Duration::from_nanos(read_u64(r, what)?))
}

fn read_u64<R: Read>(r: &mut R, what: &str) -> Result<u64, EngineError> {
    let mut buf = [0u8; 8];
    read_exact(r, &mut buf, what)?;
    Ok(u64::from_le_bytes(buf))
}

fn read_vec_u32<R: Read>(r: &mut R, n: usize, what: &str) -> Result<Vec<u32>, EngineError> {
    let mut out = Vec::with_capacity(n.min(CAP));
    for _ in 0..n {
        out.push(read_u32(r, what)?);
    }
    Ok(out)
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

fn read_opt_pairs<R: Read>(r: &mut R) -> Result<Option<Arc<PairSet>>, EngineError> {
    let mut tag = [0u8; 1];
    read_exact(r, &mut tag, "base-relation tag")?;
    match tag[0] {
        0 => Ok(None),
        1 => {
            let n = read_u64(r, "base-relation pair count")? as usize;
            let mut pairs = Vec::with_capacity(n.min(CAP));
            for _ in 0..n {
                let a = read_u32(r, "base-relation pair")?;
                let b = read_u32(r, "base-relation pair")?;
                pairs.push((VertexId(a), VertexId(b)));
            }
            if !pairs.windows(2).all(|w| w[0] < w[1]) {
                return Err(EngineError::Snapshot(
                    "base relation pairs are not strictly ascending".into(),
                ));
            }
            Ok(Some(Arc::new(PairSet::from_sorted_unique(pairs))))
        }
        t => Err(EngineError::Snapshot(format!(
            "bad base-relation tag {t} (expected 0 or 1)"
        ))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::SharingKind;
    use crate::engine::Strategy;
    use rpq_graph::fixtures::paper_graph;
    use rpq_graph::GraphDelta;

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

    #[test]
    fn warm_restart_serves_fresh_hits_without_recompute() {
        let engine = Engine::new_dynamic(paper_graph());
        let expected = engine.evaluate_str("d.(b.c)+.c").unwrap();
        assert_eq!(engine.cache().totals(SharingKind::Rtc).entries, 1);

        let bytes = snapshot_bytes(&engine);
        let warm = read_snapshot(&bytes[..], EngineConfig::default()).unwrap();
        assert_eq!(warm.epoch(), engine.epoch());
        assert_eq!(warm.cache().totals(SharingKind::Rtc).entries, 1);
        // The restored entry is Fresh: the very first evaluation hits it.
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
        // and refreshes against the persisted r_g.
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
        let g = paper_graph();
        let engine = Engine::with_strategy(&g, Strategy::FullSharing);
        let expected = engine.evaluate_str("d.(b.c)+.c").unwrap();
        assert_eq!(engine.cache().totals(SharingKind::Full).entries, 1);

        let bytes = snapshot_bytes(&engine);
        let config = EngineConfig {
            strategy: Strategy::FullSharing,
            ..EngineConfig::default()
        };
        let warm = read_snapshot(&bytes[..], config).unwrap();
        assert_eq!(warm.cache().totals(SharingKind::Full).entries, 1);
        assert_eq!(warm.evaluate_str("d.(b.c)+.c").unwrap(), expected);
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

    #[test]
    fn corrupt_structure_tables_are_rejected_at_assembly() {
        let engine = Engine::new_dynamic(paper_graph());
        engine.evaluate_str("d.(b.c)+.c").unwrap();
        let bytes = snapshot_bytes(&engine);
        // Flip one byte at a time over the cache section; every outcome
        // must be a clean error or a successful parse — never a panic.
        let mut rejected = 0;
        for at in (bytes.len().saturating_sub(120))..bytes.len() {
            let mut corrupt = bytes.clone();
            corrupt[at] ^= 0x5a;
            if read_snapshot(&corrupt[..], EngineConfig::default()).is_err() {
                rejected += 1;
            }
        }
        assert!(rejected > 0, "no corruption detected at all");
    }

    #[test]
    fn oversized_cache_key_fails_at_save_not_load() {
        // Write/read symmetry: a key past the reader's cap must make the
        // *write* fail loudly, never produce an unloadable file.
        // Unbounded: a byte budget under the key's own size (CI's 64 KiB
        // leg) would evict the entry on its insert.
        let config = EngineConfig {
            cache_budget: Default::default(),
            ..EngineConfig::default()
        };
        let engine =
            Engine::with_config_versioned(rpq_graph::VersionedGraph::new(paper_graph()), config);
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

    /// ISSUE 7: dense closure rows survive the tagged encoding, a
    /// sparse-only writer emits the legacy encoding, and either file
    /// restores under any representation policy with identical results.
    #[test]
    fn dense_and_sparse_rows_roundtrip_across_policies() {
        use rpq_graph::RowSetPolicy;
        let dense_cfg = EngineConfig {
            representation: RowSetPolicy::dense(),
            ..EngineConfig::default()
        };
        let sparse_cfg = EngineConfig {
            representation: RowSetPolicy::sparse(),
            ..EngineConfig::default()
        };
        let g = paper_graph();

        let dense_engine = Engine::with_config(&g, dense_cfg);
        let expected = dense_engine.evaluate_str("d.(b.c)+.c").unwrap();
        let bytes = snapshot_bytes(&dense_engine);
        let warm = read_snapshot(&bytes[..], sparse_cfg).unwrap();
        assert!(
            warm.cache().totals(SharingKind::Rtc).dense_rows > 0,
            "dense rows must survive the roundtrip"
        );
        assert_eq!(warm.evaluate_str("d.(b.c)+.c").unwrap(), expected);
        assert_eq!(warm.cache().misses(), 0);

        let sparse_engine = Engine::with_config(&g, sparse_cfg);
        sparse_engine.evaluate_str("d.(b.c)+.c").unwrap();
        let bytes = snapshot_bytes(&sparse_engine);
        let warm = read_snapshot(&bytes[..], dense_cfg).unwrap();
        assert_eq!(
            warm.cache().totals(SharingKind::Rtc).dense_rows,
            0,
            "sparse rows restore as written (the legacy on-disk form)"
        );
        assert_eq!(warm.evaluate_str("d.(b.c)+.c").unwrap(), expected);
        assert_eq!(warm.cache().misses(), 0);
    }

    /// Version-`2` snapshots persist each entry's cost-to-rebuild, so a
    /// warm restart restores the same eviction order the writer had.
    #[test]
    fn build_costs_survive_the_roundtrip() {
        use std::time::Duration;
        let engine = Engine::new_dynamic(paper_graph());
        let pairs = sample_pairs();
        for (key, nanos) in [("cheap", 1_000u64), ("mid", 20_000), ("dear", 30_000)] {
            engine.cache().insert(
                key.to_owned(),
                Shared::Rtc(Arc::new(rpq_reduction::Rtc::from_pairs(&pairs))),
                Some(Arc::clone(&pairs)),
                engine.epoch(),
                Duration::from_nanos(nanos),
            );
        }
        let bytes = snapshot_bytes(&engine);

        // Restored into a tighter budget than the writer's, the costed
        // inserts trim deterministically: lowest score evicted first.
        let config = EngineConfig {
            cache_budget: crate::CacheBudget {
                max_entries: Some(2),
                ..crate::CacheBudget::default()
            },
            ..EngineConfig::default()
        };
        let warm = read_snapshot(&bytes[..], config).unwrap();
        assert_eq!(warm.cache().totals(SharingKind::Rtc).entries, 2);
        assert_eq!(warm.cache().occupancy_entries(), 2);
        assert!(warm.cache().contains_fresh(SharingKind::Rtc, "dear"));
        assert!(warm.cache().contains_fresh(SharingKind::Rtc, "mid"));
        assert!(!warm.cache().contains_fresh(SharingKind::Rtc, "cheap"));
        assert_eq!(warm.cache().eviction_counters().by_entries, 1);
    }

    /// A pinned epoch can hold a bounded cache past its budget; the
    /// snapshot trims to the highest-score subset that fits, so the file
    /// — and any restore of it — is under budget from the first byte.
    #[test]
    fn over_budget_saves_trim_highest_score_first() {
        use std::time::Duration;
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
        for (key, nanos) in [("cold", 1_000u64), ("hot", 9_000)] {
            engine.cache().insert(
                key.to_owned(),
                Shared::Rtc(Arc::new(rpq_reduction::Rtc::from_pairs(&pairs))),
                Some(Arc::clone(&pairs)),
                engine.epoch(),
                Duration::from_nanos(nanos),
            );
        }
        assert_eq!(
            engine.cache().totals(SharingKind::Rtc).entries,
            2,
            "the pin must hold the live cache over budget"
        );

        let mut bytes = Vec::new();
        let counts = write_snapshot(&engine, &mut bytes).unwrap();
        assert_eq!(counts, (1, 1), "one entry written, one trimmed");
        drop(view);
        let warm = read_snapshot(&bytes[..], EngineConfig::default()).unwrap();
        assert_eq!(
            warm.cache().totals(SharingKind::Rtc).entries,
            1,
            "the file was trimmed to budget"
        );
        assert!(warm.cache().contains_fresh(SharingKind::Rtc, "hot"));
        assert!(!warm.cache().contains_fresh(SharingKind::Rtc, "cold"));
    }

    #[test]
    fn version_1_files_load_with_zero_build_cost() {
        // With an empty cache the v1 and v2 bodies are byte-identical
        // (the cost word is per-entry), so rewriting the version byte
        // forges a valid legacy file.
        let engine = Engine::new_dynamic(paper_graph());
        let mut bytes = snapshot_bytes(&engine);
        assert_eq!(bytes[7], b'2');
        bytes[7] = b'1';
        let warm = read_snapshot(&bytes[..], EngineConfig::default()).unwrap();
        assert_eq!(warm.cache().totals(SharingKind::Rtc).entries, 0);
        assert_eq!(warm.epoch(), 0);

        bytes[7] = b'3';
        let err = expect_err(read_snapshot(&bytes[..], EngineConfig::default()));
        assert!(
            matches!(err, EngineError::Snapshot(ref m) if m.contains("unsupported")),
            "{err}"
        );
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
