//! Strongly-typed index newtypes.
//!
//! The engine addresses vertices, labels and SCCs by dense `u32` indices.
//! Newtypes keep the three id spaces from being mixed up while compiling to
//! bare integers (`#[repr(transparent)]`).

use std::fmt;

/// The most vertices a graph holds: ids are `u32`, so a graph's ids are
/// `0..u32::MAX`. Every entry point that names a vertex count or an id
/// (the edge-list reader, the server's `gen` and `delta`) refuses one past
/// this.
pub const MAX_VERTICES: usize = u32::MAX as usize;

/// A vertex identifier (`v_i` in the paper, TABLE I).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
#[repr(transparent)]
pub struct VertexId(pub u32);

/// An edge-label identifier (`l_i` in the paper, TABLE I).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
#[repr(transparent)]
pub struct LabelId(pub u32);

/// A strongly-connected-component identifier (`s_i` in the paper, TABLE II).
///
/// SCC ids produced by [`crate::tarjan_scc`] are numbered in *reverse
/// topological order* of the condensation: every edge of `Ḡ_R` (other than
/// self-loops) goes from a higher id to a lower id.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
#[repr(transparent)]
pub struct SccId(pub u32);

macro_rules! impl_id {
    ($ty:ident, $prefix:literal) => {
        impl $ty {
            /// Wraps a raw `u32` index.
            #[inline]
            pub const fn new(raw: u32) -> Self {
                Self(raw)
            }

            /// Wraps a `usize` index, panicking if it does not fit in `u32`.
            #[inline]
            pub fn from_usize(raw: usize) -> Self {
                debug_assert!(raw <= u32::MAX as usize, "id overflow");
                Self(raw as u32)
            }

            /// Returns the raw index as a `usize`, for slice indexing.
            #[inline]
            pub const fn index(self) -> usize {
                self.0 as usize
            }

            /// Returns the raw `u32` value.
            #[inline]
            pub const fn raw(self) -> u32 {
                self.0
            }
        }

        impl fmt::Debug for $ty {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, concat!($prefix, "{}"), self.0)
            }
        }

        impl fmt::Display for $ty {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, concat!($prefix, "{}"), self.0)
            }
        }

        impl From<u32> for $ty {
            #[inline]
            fn from(raw: u32) -> Self {
                Self(raw)
            }
        }

        impl From<$ty> for u32 {
            #[inline]
            fn from(id: $ty) -> u32 {
                id.0
            }
        }
    };
}

impl_id!(VertexId, "v");
impl_id!(LabelId, "l");
impl_id!(SccId, "s");

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vertex_id_roundtrip() {
        let v = VertexId::new(42);
        assert_eq!(v.raw(), 42);
        assert_eq!(v.index(), 42);
        assert_eq!(u32::from(v), 42);
        assert_eq!(VertexId::from(42u32), v);
    }

    #[test]
    fn from_usize_matches_new() {
        assert_eq!(VertexId::from_usize(7), VertexId::new(7));
        assert_eq!(LabelId::from_usize(0), LabelId::new(0));
        assert_eq!(SccId::from_usize(123), SccId::new(123));
    }

    #[test]
    fn display_uses_paper_notation() {
        assert_eq!(VertexId::new(3).to_string(), "v3");
        assert_eq!(LabelId::new(1).to_string(), "l1");
        assert_eq!(SccId::new(0).to_string(), "s0");
        assert_eq!(format!("{:?}", VertexId::new(3)), "v3");
    }

    #[test]
    fn ordering_follows_raw_index() {
        assert!(VertexId::new(1) < VertexId::new(2));
        assert!(SccId::new(0) < SccId::new(10));
    }

    #[test]
    fn ids_are_transparent_u32() {
        assert_eq!(std::mem::size_of::<VertexId>(), 4);
        assert_eq!(std::mem::size_of::<LabelId>(), 4);
        assert_eq!(std::mem::size_of::<SccId>(), 4);
        assert_eq!(std::mem::size_of::<Option<VertexId>>(), 8);
    }
}
