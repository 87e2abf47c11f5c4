//! The binary graph section of an engine snapshot.
//!
//! An engine snapshot (`rpq_core::snapshot`) embeds the graph and its
//! epoch as one section, written by [`write_graph_snapshot`] and read back
//! by [`read_snapshot`]. The layout is small, versioned and little-endian:
//!
//! ```text
//! offset  field
//! 0       magic          8 bytes  b"RPQGSNP1" (format name + version)
//! 8       epoch          u64      the VersionedGraph epoch
//! 16      vertex_count   u64      |V| (isolated vertices preserved)
//! 24      label_count    u64      |Σ|
//! ...     label names    label_count × (len: u32, UTF-8 bytes)  in id order
//! ...     label rows     label_count × (row_len: u64, row_len × (src: u32, dst: u32))
//! ...     end marker     8 bytes  b"RPQGEND."
//! ```
//!
//! Design notes:
//!
//! * **Label ids are stable**: names are written in dictionary order and
//!   re-interned in that order on load, so a graph that lost all edges of
//!   some label (the alphabet never shrinks) round-trips exactly.
//! * **Per-row edges**: each label's full relation `l_G` is one contiguous
//!   run of sorted `(src, dst)` pairs — the same row the evaluator scans —
//!   so writing is a straight dump of
//!   [`crate::LabeledMultigraph::edges_with_label`].
//! * **The epoch rides along**, which is what lets a restarted engine keep
//!   serving warm cache entries stamped with the pre-restart epoch.
//! * Every load re-validates: magic/version, UTF-8 label names, vertex ids
//!   against the declared count, and the end marker. A truncated section
//!   surfaces as [`GraphError::Snapshot`], never as a silently-shorter
//!   graph.
//!
//! The section is not a file format of its own: a graph alone is
//! exchanged as an edge list (`rpq_datasets::io`).
//!
//! ```
//! use rpq_graph::fixtures::paper_graph;
//! use rpq_graph::snapshot;
//!
//! let g = paper_graph();
//! let mut bytes = Vec::new();
//! snapshot::write_graph_snapshot(&g, 3, &mut bytes).unwrap();
//! let back = snapshot::read_snapshot(&bytes[..]).unwrap();
//! assert_eq!(back.epoch(), 3);
//! assert_eq!(back.graph().edge_count(), g.edge_count());
//! ```

use crate::error::GraphError;
use crate::ids::LabelId;
use crate::multigraph::GraphBuilder;
use crate::versioned::VersionedGraph;
use std::io::{Read, Write};

/// Leading magic of a graph section; the trailing byte is the format
/// version.
pub const MAGIC: [u8; 8] = *b"RPQGSNP1";

/// Trailing end marker: present iff the section was written to completion.
pub const END_MARKER: [u8; 8] = *b"RPQGEND.";

/// Hard cap on a single label name, to refuse absurd length fields from a
/// corrupt header before allocating. Enforced symmetrically: writes fail
/// too, so a save can never produce a file its own reader rejects.
const MAX_LABEL_NAME_BYTES: u32 = 1 << 20;

/// Hard cap on the declared vertex count. Vertex ids are `u32`, but a
/// corrupt header declaring anywhere near `u32::MAX` vertices would make
/// the builder allocate per-vertex rows for tens of gigabytes before any
/// validation could run; `2^30` (~1 billion vertices, ~24 GiB of empty
/// rows) is already beyond what this engine can evaluate and keeps the
/// OOM-from-64-byte-file failure mode out of reach.
const MAX_SNAPSHOT_VERTICES: u64 = 1 << 30;

/// Writes `g` at `epoch` as a graph section.
pub fn write_graph_snapshot<W: Write>(
    g: &crate::LabeledMultigraph,
    epoch: u64,
    mut w: W,
) -> Result<(), GraphError> {
    w.write_all(&MAGIC)?;
    w.write_all(&epoch.to_le_bytes())?;
    w.write_all(&(g.vertex_count() as u64).to_le_bytes())?;
    w.write_all(&(g.label_count() as u64).to_le_bytes())?;
    for (_, name) in g.labels().iter() {
        // Same cap as the reader: never produce a file load would reject.
        if name.len() as u64 > MAX_LABEL_NAME_BYTES as u64 {
            return Err(GraphError::Snapshot(format!(
                "label name of {} bytes exceeds the {MAX_LABEL_NAME_BYTES}-byte snapshot cap",
                name.len()
            )));
        }
        w.write_all(&(name.len() as u32).to_le_bytes())?;
        w.write_all(name.as_bytes())?;
    }
    for l in 0..g.label_count() {
        let row = g.edges_with_label(LabelId::from_usize(l));
        w.write_all(&(row.len() as u64).to_le_bytes())?;
        for &(src, dst) in row {
            w.write_all(&src.raw().to_le_bytes())?;
            w.write_all(&dst.raw().to_le_bytes())?;
        }
    }
    w.write_all(&END_MARKER)?;
    w.flush()?;
    Ok(())
}

/// Reads a graph section, validating magic, version, label names, vertex
/// bounds and the end marker.
///
/// Consumes exactly the section's bytes from `r`, so it can be embedded in
/// a larger stream (the engine snapshot of `rpq_core` does this).
pub fn read_snapshot<R: Read>(mut r: R) -> Result<VersionedGraph, GraphError> {
    let mut magic = [0u8; 8];
    read_exact(&mut r, &mut magic, "magic")?;
    if magic[..7] != MAGIC[..7] {
        return Err(GraphError::Snapshot(
            "bad magic: not a graph section".into(),
        ));
    }
    if magic[7] != MAGIC[7] {
        return Err(GraphError::Snapshot(format!(
            "unsupported snapshot version '{}' (this build reads version '{}')",
            magic[7] as char, MAGIC[7] as char,
        )));
    }
    let epoch = read_u64(&mut r, "epoch")?;
    let vertex_count = read_u64(&mut r, "vertex count")?;
    if vertex_count > MAX_SNAPSHOT_VERTICES {
        return Err(GraphError::Snapshot(format!(
            "vertex count {vertex_count} exceeds the {MAX_SNAPSHOT_VERTICES}-vertex cap"
        )));
    }
    let label_count = read_u64(&mut r, "label count")?;

    let mut builder = GraphBuilder::new();
    let mut labels = Vec::new();
    for i in 0..label_count {
        let len = read_u32(&mut r, "label name length")?;
        if len > MAX_LABEL_NAME_BYTES {
            return Err(GraphError::Snapshot(format!(
                "label {i} name length {len} exceeds the {MAX_LABEL_NAME_BYTES}-byte cap"
            )));
        }
        let mut buf = vec![0u8; len as usize];
        read_exact(&mut r, &mut buf, "label name")?;
        let name = String::from_utf8(buf)
            .map_err(|_| GraphError::Snapshot(format!("label {i} name is not valid UTF-8")))?;
        let id = builder.intern_label(&name);
        if id.index() as u64 != i {
            return Err(GraphError::Snapshot(format!(
                "duplicate label name '{name}' in dictionary"
            )));
        }
        labels.push(id);
    }
    for &label in &labels {
        let row_len = read_u64(&mut r, "edge row length")?;
        for _ in 0..row_len {
            let src = read_u32(&mut r, "edge source")?;
            let dst = read_u32(&mut r, "edge target")?;
            builder.add_edge_id(src, label, dst);
        }
    }
    let mut end = [0u8; 8];
    read_exact(&mut r, &mut end, "end marker")?;
    if end != END_MARKER {
        return Err(GraphError::Snapshot(
            "missing end marker: snapshot was not written to completion".into(),
        ));
    }
    let graph = builder.build_with_vertex_count(vertex_count as usize)?;
    Ok(VersionedGraph::restore(graph, epoch))
}

fn read_exact<R: Read>(r: &mut R, buf: &mut [u8], what: &str) -> Result<(), GraphError> {
    r.read_exact(buf).map_err(|e| {
        if e.kind() == std::io::ErrorKind::UnexpectedEof {
            GraphError::Snapshot(format!("truncated snapshot: unexpected EOF reading {what}"))
        } else {
            GraphError::Io(e.to_string())
        }
    })
}

fn read_u32<R: Read>(r: &mut R, what: &str) -> Result<u32, GraphError> {
    let mut buf = [0u8; 4];
    read_exact(r, &mut buf, what)?;
    Ok(u32::from_le_bytes(buf))
}

fn read_u64<R: Read>(r: &mut R, what: &str) -> Result<u64, GraphError> {
    let mut buf = [0u8; 8];
    read_exact(r, &mut buf, what)?;
    Ok(u64::from_le_bytes(buf))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures::paper_graph;
    use crate::multigraph::LabeledMultigraph;
    use crate::versioned::GraphDelta;

    fn assert_same_graph(a: &LabeledMultigraph, b: &LabeledMultigraph) {
        assert_eq!(a.vertex_count(), b.vertex_count());
        assert_eq!(a.edge_count(), b.edge_count());
        assert_eq!(a.label_count(), b.label_count());
        for (l, name) in a.labels().iter() {
            assert_eq!(b.labels().name(l), name, "label id {l} name");
            assert_eq!(a.edges_with_label(l), b.edges_with_label(l), "row of {l}");
        }
        for v in a.vertices() {
            assert_eq!(a.out_edges(v), b.out_edges(v), "out row of {v}");
        }
    }

    fn section(vg: &VersionedGraph) -> Vec<u8> {
        let mut bytes = Vec::new();
        write_graph_snapshot(vg.graph(), vg.epoch(), &mut bytes).unwrap();
        bytes
    }

    fn roundtrip(vg: &VersionedGraph) -> VersionedGraph {
        read_snapshot(&section(vg)[..]).unwrap()
    }

    #[test]
    fn paper_graph_roundtrips() {
        let vg = VersionedGraph::new(paper_graph());
        let back = roundtrip(&vg);
        assert_eq!(back.epoch(), 0);
        assert_same_graph(back.graph(), vg.graph());
    }

    #[test]
    fn epoch_and_mutations_survive() {
        let mut vg = VersionedGraph::new(paper_graph());
        let mut delta = GraphDelta::new();
        delta.insert(0, "new_label", 9).delete(7, "d", 2);
        vg.apply(&delta);
        vg.apply(&GraphDelta::new()); // empty delta still bumps the epoch
        let back = roundtrip(&vg);
        assert_eq!(back.epoch(), 2);
        assert_same_graph(back.graph(), vg.graph());
    }

    #[test]
    fn empty_label_rows_and_isolated_vertices_survive() {
        // Delete the only edge of a label: the id must survive the trip.
        let mut vg = VersionedGraph::new(paper_graph());
        let mut delta = GraphDelta::new();
        delta.ensure_vertices(32);
        for (s, l, d) in paper_graph()
            .all_edges()
            .map(|(s, l, d)| (s.raw(), paper_graph().labels().name(l).to_owned(), d.raw()))
            .filter(|(_, l, _)| l == "d")
            .collect::<Vec<_>>()
        {
            delta.delete(s, &l, d);
        }
        vg.apply(&delta);
        let d_id = vg.graph().labels().get("d").unwrap();
        assert!(vg.graph().edges_with_label(d_id).is_empty());
        let back = roundtrip(&vg);
        assert_eq!(back.graph().labels().get("d"), Some(d_id));
        assert_eq!(back.graph().vertex_count(), 32);
        assert_same_graph(back.graph(), vg.graph());
    }

    #[test]
    fn empty_graph_roundtrips() {
        let vg = VersionedGraph::new(GraphBuilder::new().build());
        let back = roundtrip(&vg);
        assert_eq!(back.graph().vertex_count(), 0);
        assert_eq!(back.graph().edge_count(), 0);
    }

    #[test]
    fn bad_magic_is_rejected() {
        let err = read_snapshot(&b"NOTASNAP________"[..]).unwrap_err();
        assert!(
            matches!(err, GraphError::Snapshot(ref m) if m.contains("magic")),
            "{err}"
        );
        // An edge-list text file is also cleanly rejected.
        let err = read_snapshot(&b"# vertices 5\n0 a 1\n"[..]).unwrap_err();
        assert!(
            matches!(err, GraphError::Snapshot(ref m) if m.contains("magic")),
            "{err}"
        );
    }

    #[test]
    fn wrong_version_is_rejected() {
        let vg = VersionedGraph::new(paper_graph());
        let mut bytes = section(&vg);
        bytes[7] = b'9';
        let err = read_snapshot(&bytes[..]).unwrap_err();
        assert!(
            matches!(err, GraphError::Snapshot(ref m) if m.contains("version")),
            "{err}"
        );
    }

    #[test]
    fn truncation_at_every_prefix_is_detected() {
        let vg = VersionedGraph::new(paper_graph());
        let bytes = section(&vg);
        // Every strict prefix must fail (truncated), never succeed.
        for cut in 0..bytes.len() {
            let err = read_snapshot(&bytes[..cut]).unwrap_err();
            assert!(
                matches!(err, GraphError::Snapshot(_)),
                "prefix of {cut} bytes gave {err:?}"
            );
        }
    }

    #[test]
    fn corrupt_end_marker_is_detected() {
        let vg = VersionedGraph::new(paper_graph());
        let mut bytes = section(&vg);
        let n = bytes.len();
        bytes[n - 1] ^= 0xff;
        let err = read_snapshot(&bytes[..]).unwrap_err();
        assert!(
            matches!(err, GraphError::Snapshot(ref m) if m.contains("end marker")),
            "{err}"
        );
    }

    #[test]
    fn out_of_range_vertex_id_is_rejected() {
        // Hand-build a snapshot declaring 2 vertices but referencing v7.
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&MAGIC);
        bytes.extend_from_slice(&0u64.to_le_bytes()); // epoch
        bytes.extend_from_slice(&2u64.to_le_bytes()); // vertex_count
        bytes.extend_from_slice(&1u64.to_le_bytes()); // label_count
        bytes.extend_from_slice(&1u32.to_le_bytes());
        bytes.extend_from_slice(b"a");
        bytes.extend_from_slice(&1u64.to_le_bytes()); // row length
        bytes.extend_from_slice(&0u32.to_le_bytes());
        bytes.extend_from_slice(&7u32.to_le_bytes());
        bytes.extend_from_slice(&END_MARKER);
        let err = read_snapshot(&bytes[..]).unwrap_err();
        assert_eq!(
            err,
            GraphError::VertexOutOfBounds {
                vertex: 7,
                vertex_count: 2
            }
        );
    }

    #[test]
    fn absurd_vertex_count_is_rejected_before_allocation() {
        // A ~40-byte file declaring u32::MAX vertices must error, not OOM.
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&MAGIC);
        bytes.extend_from_slice(&0u64.to_le_bytes()); // epoch
        bytes.extend_from_slice(&(u32::MAX as u64).to_le_bytes()); // vertex_count
        bytes.extend_from_slice(&0u64.to_le_bytes()); // label_count
        bytes.extend_from_slice(&END_MARKER);
        let err = read_snapshot(&bytes[..]).unwrap_err();
        assert!(
            matches!(err, GraphError::Snapshot(ref m) if m.contains("vertex cap")),
            "{err}"
        );
    }

    #[test]
    fn absurd_label_length_is_rejected_before_allocation() {
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&MAGIC);
        bytes.extend_from_slice(&0u64.to_le_bytes());
        bytes.extend_from_slice(&0u64.to_le_bytes());
        bytes.extend_from_slice(&1u64.to_le_bytes()); // one label...
        bytes.extend_from_slice(&u32::MAX.to_le_bytes()); // ...4 GiB long
        let err = read_snapshot(&bytes[..]).unwrap_err();
        assert!(
            matches!(err, GraphError::Snapshot(ref m) if m.contains("cap")),
            "{err}"
        );
    }

    #[test]
    fn invalid_utf8_label_is_rejected() {
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&MAGIC);
        bytes.extend_from_slice(&0u64.to_le_bytes());
        bytes.extend_from_slice(&0u64.to_le_bytes());
        bytes.extend_from_slice(&1u64.to_le_bytes());
        bytes.extend_from_slice(&2u32.to_le_bytes());
        bytes.extend_from_slice(&[0xff, 0xfe]);
        let err = read_snapshot(&bytes[..]).unwrap_err();
        assert!(
            matches!(err, GraphError::Snapshot(ref m) if m.contains("UTF-8")),
            "{err}"
        );
    }

    #[test]
    fn reader_consumes_exactly_the_snapshot_bytes() {
        // Embeddability: trailing bytes after the end marker are left
        // unread for the enclosing stream.
        let vg = VersionedGraph::new(paper_graph());
        let mut bytes = section(&vg);
        bytes.extend_from_slice(b"TRAILER");
        let mut cursor = &bytes[..];
        let back = read_snapshot(&mut cursor).unwrap();
        assert_same_graph(back.graph(), vg.graph());
        assert_eq!(cursor, b"TRAILER");
    }
}
