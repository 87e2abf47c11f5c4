//! Error type for graph construction.

use std::fmt;

/// Errors raised while building or loading graphs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GraphError {
    /// An edge referenced a vertex id beyond the declared vertex count.
    VertexOutOfBounds {
        /// The offending vertex id.
        vertex: u32,
        /// The number of vertices the graph was declared with.
        vertex_count: u32,
    },
    /// A parse error in an edge-list file.
    Parse {
        /// 1-based line number.
        line: usize,
        /// Description of the problem.
        message: String,
    },
    /// An I/O error message (stringified to keep the error type `Clone + Eq`).
    Io(String),
    /// A malformed, truncated or version-incompatible binary graph
    /// section (see [`crate::snapshot`]).
    Snapshot(String),
}

impl fmt::Display for GraphError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GraphError::VertexOutOfBounds {
                vertex,
                vertex_count,
            } => write!(
                f,
                "vertex v{vertex} out of bounds (graph has {vertex_count} vertices)"
            ),
            GraphError::Parse { line, message } => {
                write!(f, "parse error at line {line}: {message}")
            }
            GraphError::Io(msg) => write!(f, "i/o error: {msg}"),
            GraphError::Snapshot(msg) => write!(f, "snapshot error: {msg}"),
        }
    }
}

impl std::error::Error for GraphError {}

impl From<std::io::Error> for GraphError {
    fn from(e: std::io::Error) -> Self {
        GraphError::Io(e.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages() {
        let e = GraphError::VertexOutOfBounds {
            vertex: 9,
            vertex_count: 5,
        };
        assert_eq!(
            e.to_string(),
            "vertex v9 out of bounds (graph has 5 vertices)"
        );
        let e = GraphError::Parse {
            line: 3,
            message: "bad label".into(),
        };
        assert_eq!(e.to_string(), "parse error at line 3: bad label");
    }

    #[test]
    fn io_error_converts() {
        let io = std::io::Error::new(std::io::ErrorKind::NotFound, "nope");
        let e: GraphError = io.into();
        assert!(matches!(e, GraphError::Io(_)));
    }
}
