//! Plain-text edge-list persistence: how a graph alone is exchanged.
//!
//! Format: one `src label dst` triple per line, whitespace-separated;
//! `#`-prefixed lines and blank lines are ignored. An optional header
//! `# vertices N` pins the vertex count (for trailing isolated vertices).
//!
//! Header semantics (pinned by tests):
//!
//! * the header may appear anywhere in the file; when it appears more
//!   than once, the **last occurrence wins** (a writer appending to a
//!   dump can restate it);
//! * a header is a *declaration*, not a minimum: once declared, any edge
//!   referencing a vertex id `≥ N` is a [`GraphError::VertexOutOfBounds`]
//!   error — out-of-range ids no longer silently grow the vertex set;
//! * a malformed header (`# vertices x`) is treated as an ordinary
//!   comment, like every other `#` line.

use rpq_graph::{GraphBuilder, GraphError, LabeledMultigraph, VersionedGraph};
use std::io::{BufRead, BufReader, BufWriter, Read, Write};
use std::path::Path;

/// Writes `graph` in edge-list format.
pub fn write_edge_list<W: Write>(graph: &LabeledMultigraph, writer: W) -> Result<(), GraphError> {
    let mut w = BufWriter::new(writer);
    writeln!(w, "# vertices {}", graph.vertex_count())?;
    for (src, label, dst) in graph.all_edges() {
        writeln!(
            w,
            "{} {} {}",
            src.raw(),
            graph.labels().name(label),
            dst.raw()
        )?;
    }
    w.flush()?;
    Ok(())
}

/// Reads a graph in edge-list format.
pub fn read_edge_list<R: Read>(reader: R) -> Result<LabeledMultigraph, GraphError> {
    let mut builder = GraphBuilder::new();
    let r = BufReader::new(reader);
    // Declared vertex count: last `# vertices N` header wins; validated
    // against every edge once the whole file is read.
    let mut declared: Option<usize> = None;
    for (idx, line) in r.lines().enumerate() {
        let line_no = idx + 1;
        let line = line?;
        let trimmed = line.trim();
        if trimmed.is_empty() {
            continue;
        }
        if let Some(rest) = trimmed.strip_prefix('#') {
            let mut parts = rest.split_whitespace();
            if parts.next() == Some("vertices") {
                if let Some(n) = parts.next().and_then(|s| s.parse::<usize>().ok()) {
                    declared = Some(n);
                }
            }
            continue;
        }
        let mut parts = trimmed.split_whitespace();
        let (src, label, dst) = match (parts.next(), parts.next(), parts.next()) {
            (Some(s), Some(l), Some(d)) => (s, l, d),
            _ => {
                return Err(GraphError::Parse {
                    line: line_no,
                    message: format!("expected 'src label dst', got '{trimmed}'"),
                })
            }
        };
        let src: u32 = src.parse().map_err(|_| GraphError::Parse {
            line: line_no,
            message: format!("bad source vertex '{src}'"),
        })?;
        let dst: u32 = dst.parse().map_err(|_| GraphError::Parse {
            line: line_no,
            message: format!("bad target vertex '{dst}'"),
        })?;
        builder.add_edge(src, label, dst);
    }
    match declared {
        Some(n) => builder.build_with_vertex_count(n),
        None => Ok(builder.build()),
    }
}

/// Writes `graph` to a file.
pub fn save_graph(graph: &LabeledMultigraph, path: &Path) -> Result<(), GraphError> {
    let file = std::fs::File::create(path)?;
    write_edge_list(graph, file)
}

/// Loads a graph from a file.
pub fn load_graph(path: &Path) -> Result<LabeledMultigraph, GraphError> {
    let file = std::fs::File::open(path)?;
    read_edge_list(file)
}

/// Loads an edge-list file as a [`VersionedGraph`] at epoch 0 (a graph
/// together with its epoch persists only inside an engine snapshot).
pub fn load_versioned(path: &Path) -> Result<VersionedGraph, GraphError> {
    Ok(VersionedGraph::new(load_graph(path)?))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rpq_graph::fixtures::paper_graph;

    #[test]
    fn roundtrip_paper_graph() {
        let g = paper_graph();
        let mut buf = Vec::new();
        write_edge_list(&g, &mut buf).unwrap();
        let back = read_edge_list(&buf[..]).unwrap();
        assert_eq!(back.vertex_count(), g.vertex_count());
        assert_eq!(back.edge_count(), g.edge_count());
        assert_eq!(back.label_count(), g.label_count());
        let a: Vec<_> = g
            .all_edges()
            .map(|(s, l, d)| (s.raw(), g.labels().name(l).to_owned(), d.raw()))
            .collect();
        let mut b: Vec<_> = back
            .all_edges()
            .map(|(s, l, d)| (s.raw(), back.labels().name(l).to_owned(), d.raw()))
            .collect();
        let mut a = a;
        a.sort();
        b.sort();
        assert_eq!(a, b);
    }

    #[test]
    fn header_preserves_isolated_vertices() {
        let text = "# vertices 50\n0 a 1\n";
        let g = read_edge_list(text.as_bytes()).unwrap();
        assert_eq!(g.vertex_count(), 50);
        assert_eq!(g.edge_count(), 1);
    }

    #[test]
    fn comments_and_blank_lines_ignored() {
        let text = "\n# a comment\n0 x 1\n\n1 y 2\n";
        let g = read_edge_list(text.as_bytes()).unwrap();
        assert_eq!(g.edge_count(), 2);
    }

    #[test]
    fn malformed_lines_error_with_position() {
        let text = "0 a 1\n0 a\n";
        let err = read_edge_list(text.as_bytes()).unwrap_err();
        match err {
            GraphError::Parse { line, .. } => assert_eq!(line, 2),
            other => panic!("expected parse error, got {other:?}"),
        }
        let text = "zero a 1\n";
        assert!(matches!(
            read_edge_list(text.as_bytes()),
            Err(GraphError::Parse { line: 1, .. })
        ));
    }

    #[test]
    fn duplicated_header_last_wins() {
        // Two headers: the later (larger) one is authoritative.
        let text = "# vertices 5\n0 a 1\n# vertices 50\n";
        let g = read_edge_list(text.as_bytes()).unwrap();
        assert_eq!(g.vertex_count(), 50);
        // And the later one wins even when it *shrinks* the declaration.
        let text = "# vertices 50\n0 a 1\n# vertices 5\n";
        let g = read_edge_list(text.as_bytes()).unwrap();
        assert_eq!(g.vertex_count(), 5);
    }

    #[test]
    fn mid_file_header_applies_to_the_whole_file() {
        // A header after some edges still pins the count for all of them.
        let text = "0 a 1\n# vertices 9\n1 b 2\n";
        let g = read_edge_list(text.as_bytes()).unwrap();
        assert_eq!(g.vertex_count(), 9);
        assert_eq!(g.edge_count(), 2);
    }

    #[test]
    fn out_of_range_vertex_ids_error_when_declared() {
        let text = "# vertices 5\n0 a 7\n";
        let err = read_edge_list(text.as_bytes()).unwrap_err();
        assert_eq!(
            err,
            GraphError::VertexOutOfBounds {
                vertex: 7,
                vertex_count: 5
            }
        );
        // Validation uses the *last* header: a later, larger one repairs it.
        let text = "# vertices 5\n0 a 7\n# vertices 8\n";
        assert!(read_edge_list(text.as_bytes()).is_ok());
        // A later, smaller one breaks previously fine edges.
        let text = "# vertices 8\n0 a 7\n# vertices 5\n";
        assert!(matches!(
            read_edge_list(text.as_bytes()),
            Err(GraphError::VertexOutOfBounds { vertex: 7, .. })
        ));
        // Boundary id N-1 is fine.
        let text = "# vertices 8\n0 a 7\n";
        assert_eq!(read_edge_list(text.as_bytes()).unwrap().vertex_count(), 8);
    }

    #[test]
    fn without_header_vertex_count_is_inferred() {
        let text = "0 a 7\n";
        let g = read_edge_list(text.as_bytes()).unwrap();
        assert_eq!(g.vertex_count(), 8);
    }

    #[test]
    fn malformed_header_is_an_ordinary_comment() {
        let text = "# vertices x\n# vertices\n0 a 1\n";
        let g = read_edge_list(text.as_bytes()).unwrap();
        assert_eq!(g.vertex_count(), 2);
        assert_eq!(g.edge_count(), 1);
    }

    #[test]
    fn load_versioned_reads_edge_lists_only() {
        let dir = std::env::temp_dir().join("rpq_io_versioned_test");
        std::fs::create_dir_all(&dir).unwrap();
        let g = paper_graph();

        // Edge-list text → epoch 0.
        let el_path = dir.join("g.el");
        save_graph(&g, &el_path).unwrap();
        let from_text = load_versioned(&el_path).unwrap();
        assert_eq!(from_text.epoch(), 0);
        assert_eq!(from_text.graph().edge_count(), g.edge_count());

        // A bare binary graph section is not an edge list.
        let mut section = Vec::new();
        rpq_graph::snapshot::write_graph_snapshot(&g, 1, &mut section).unwrap();
        let snap_path = dir.join("g.snap");
        std::fs::write(&snap_path, section).unwrap();
        assert!(load_versioned(&snap_path).is_err());

        std::fs::remove_file(&el_path).ok();
        std::fs::remove_file(&snap_path).ok();
    }

    #[test]
    fn file_roundtrip() {
        let dir = std::env::temp_dir().join("rpq_io_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("g.el");
        let g = paper_graph();
        save_graph(&g, &path).unwrap();
        let back = load_graph(&path).unwrap();
        assert_eq!(back.edge_count(), g.edge_count());
        std::fs::remove_file(&path).ok();
    }
}
