//! Serializable views of the shared structures, for warm restarts.
//!
//! A served engine amortizes one RTC across a stream of queries; losing
//! that structure on restart means paying Tarjan plus the closure sweep
//! again before the first answer. This module exposes the *parts* of an
//! [`Rtc`] / [`FullTc`] as plain vectors so a persistence layer
//! (`rpq_core::snapshot`) can write them to disk and reassemble the
//! structure on load **without recomputing anything**.
//!
//! The parts carry no file format of their own: they are an in-memory
//! contract. [`RtcParts::assemble`] / [`FullTcParts::assemble`] re-validate
//! every structural invariant (table lengths, id ranges, row sortedness),
//! so a corrupted or hand-rolled byte stream can fail cleanly at assembly
//! instead of panicking deep inside evaluation.

use crate::full_tc::FullTc;
use crate::rtc::Rtc;
use rpq_graph::{RowSet, RowSetPolicy, RowTable, Scc, VertexId, VertexMapping};
use std::fmt;

/// Validates one closure row against universe `k`: sparse rows must be
/// strictly ascending and in range; dense rows are sorted and deduplicated
/// by construction, so only the range check applies.
fn check_row(row: &RowSet, k: usize, what: &str, i: usize) -> Result<(), PartsError> {
    match row {
        RowSet::Sparse(ids) => {
            if !ids.windows(2).all(|w| w[0] < w[1]) {
                return Err(PartsError::new(format!(
                    "{what} row {i} is not strictly ascending"
                )));
            }
            if let Some(&t) = ids.iter().find(|&&t| t as usize >= k) {
                return Err(PartsError::new(format!(
                    "{what} row {i} references id {t} out of range ({k})"
                )));
            }
        }
        RowSet::Dense(_) => {
            if let Some(t) = row.max().filter(|&t| t as usize >= k) {
                return Err(PartsError::new(format!(
                    "{what} row {i} references id {t} out of range ({k})"
                )));
            }
        }
    }
    Ok(())
}

/// A structural-invariant violation found while reassembling parts.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PartsError(String);

impl PartsError {
    fn new(message: impl Into<String>) -> Self {
        PartsError(message.into())
    }
}

impl fmt::Display for PartsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid shared-structure parts: {}", self.0)
    }
}

impl std::error::Error for PartsError {}

/// The complete state of an [`Rtc`], as plain vectors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RtcParts {
    /// Original-graph vertices of `V_R`, strictly ascending; compact id
    /// `i` maps to `originals[i]`.
    pub originals: Vec<u32>,
    /// SCC id of each compact vertex (`len == originals.len()`).
    pub component_of: Vec<u32>,
    /// Number of SCCs (`|V̄_R|`).
    pub scc_count: u32,
    /// Per-SCC closure rows over SCC ids — `TC(Ḡ_R)` exactly as
    /// [`Rtc::successors`] serves it, in either representation (sparse
    /// rows sorted ascending).
    pub closure_rows: Vec<RowSet>,
    /// `|E_R|` (= `|R_G|`), carried for [`crate::RtcStats`].
    pub er_edges: u64,
    /// `|Ē_R|`, carried for [`crate::RtcStats`].
    pub ebar_edges: u64,
}

impl RtcParts {
    /// Extracts the parts of an RTC (cheap copies of its tables).
    pub fn of(rtc: &Rtc) -> RtcParts {
        let (mapping, scc, closure, stats) = rtc.raw_parts();
        RtcParts {
            originals: mapping.originals().iter().map(|v| v.raw()).collect(),
            component_of: scc.component_table().to_vec(),
            scc_count: scc.count() as u32,
            closure_rows: closure.iter().cloned().collect(),
            er_edges: stats.er_edges as u64,
            ebar_edges: stats.ebar_edges as u64,
        }
    }

    /// Reassembles the RTC, validating every structural invariant.
    pub fn assemble(self) -> Result<Rtc, PartsError> {
        let n = self.originals.len();
        let k = self.scc_count as usize;
        if !self.originals.windows(2).all(|w| w[0] < w[1]) {
            return Err(PartsError::new(
                "original vertices must be strictly ascending",
            ));
        }
        if self.component_of.len() != n {
            return Err(PartsError::new(format!(
                "component table has {} entries for {n} vertices",
                self.component_of.len()
            )));
        }
        if let Some(&c) = self.component_of.iter().find(|&&c| c as usize >= k) {
            return Err(PartsError::new(format!(
                "component id {c} out of range (scc_count = {k})"
            )));
        }
        let mut seen = vec![false; k];
        for &c in &self.component_of {
            seen[c as usize] = true;
        }
        if let Some(s) = seen.iter().position(|&s| !s) {
            return Err(PartsError::new(format!("SCC {s} has no members")));
        }
        if self.closure_rows.len() != k {
            return Err(PartsError::new(format!(
                "{} closure rows for {k} SCCs",
                self.closure_rows.len()
            )));
        }
        for (s, row) in self.closure_rows.iter().enumerate() {
            check_row(row, k, "closure", s)?;
        }
        let mapping =
            VertexMapping::from_sorted_vertices(self.originals.into_iter().map(VertexId).collect());
        let scc = Scc::from_component_table(self.component_of, k);
        let closure = RowTable::from_rows(self.closure_rows, k as u32);
        Ok(Rtc::from_parts(
            mapping,
            scc,
            closure,
            self.er_edges as usize,
            self.ebar_edges as usize,
            RowSetPolicy::default(),
        ))
    }
}

/// The complete state of a [`FullTc`], as plain vectors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FullTcParts {
    /// Original-graph vertices of `V_R`, strictly ascending.
    pub originals: Vec<u32>,
    /// Per-compact-vertex reachability rows over compact ids
    /// (`len == originals.len()`), in either representation (sparse rows
    /// sorted ascending).
    pub rows: Vec<RowSet>,
}

impl FullTcParts {
    /// Extracts the parts of a full closure.
    pub fn of(full: &FullTc) -> FullTcParts {
        let (mapping, rows) = full.raw_parts();
        FullTcParts {
            originals: mapping.originals().iter().map(|v| v.raw()).collect(),
            rows: rows.iter().cloned().collect(),
        }
    }

    /// Reassembles the full closure, validating the invariants.
    pub fn assemble(self) -> Result<FullTc, PartsError> {
        let n = self.originals.len();
        if !self.originals.windows(2).all(|w| w[0] < w[1]) {
            return Err(PartsError::new(
                "original vertices must be strictly ascending",
            ));
        }
        if self.rows.len() != n {
            return Err(PartsError::new(format!(
                "{} reachability rows for {n} vertices",
                self.rows.len()
            )));
        }
        for (v, row) in self.rows.iter().enumerate() {
            check_row(row, n, "reachability", v)?;
        }
        let mapping =
            VertexMapping::from_sorted_vertices(self.originals.into_iter().map(VertexId).collect());
        Ok(FullTc::from_raw_parts(
            mapping,
            RowTable::from_rows(self.rows, n as u32),
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rpq_graph::PairSet;

    fn bc_pairs() -> PairSet {
        [(2u32, 4u32), (2, 6), (3, 5), (4, 2), (5, 3)]
            .into_iter()
            .collect()
    }

    #[test]
    fn rtc_parts_roundtrip() {
        let rtc = Rtc::from_pairs(&bc_pairs());
        let back = RtcParts::of(&rtc).assemble().unwrap();
        assert_eq!(back.stats(), rtc.stats());
        assert_eq!(back.expand(), rtc.expand());
        // Lookups behave identically, not just the expansion.
        for v in 0..8u32 {
            assert_eq!(
                back.scc_of_original(VertexId(v)),
                rtc.scc_of_original(VertexId(v)),
                "scc_of v{v}"
            );
        }
    }

    #[test]
    fn empty_rtc_roundtrips() {
        let rtc = Rtc::from_pairs(&PairSet::new());
        let back = RtcParts::of(&rtc).assemble().unwrap();
        assert_eq!(back.scc_count(), 0);
        assert!(back.expand().is_empty());
    }

    #[test]
    fn full_tc_parts_roundtrip() {
        let full = FullTc::from_pairs(&bc_pairs());
        let back = FullTcParts::of(&full).assemble().unwrap();
        assert_eq!(back.pair_count(), full.pair_count());
        assert_eq!(back.expand(), full.expand());
    }

    #[test]
    fn rtc_assembly_rejects_corruption() {
        let rtc = Rtc::from_pairs(&bc_pairs());
        let good = RtcParts::of(&rtc);

        let mut p = good.clone();
        p.component_of[0] = 99;
        assert!(p
            .assemble()
            .unwrap_err()
            .to_string()
            .contains("out of range"));

        let mut p = good.clone();
        p.component_of.pop();
        assert!(p.assemble().is_err());

        let mut p = good.clone();
        p.closure_rows.pop();
        assert!(p.assemble().is_err());

        let mut p = good.clone();
        p.closure_rows[0] = RowSet::Sparse(vec![1, 0]); // break sortedness
        assert!(p.assemble().is_err());

        let mut p = good.clone();
        p.closure_rows[0] = RowSet::dense_from_iter(64, [40u32]); // SCC 40 ∉ [0,k)
        assert!(p
            .assemble()
            .unwrap_err()
            .to_string()
            .contains("out of range"));

        let mut p = good.clone();
        p.originals.reverse();
        assert!(p.assemble().is_err());

        // An SCC id with no member vertex.
        let mut p = good;
        p.scc_count += 1;
        p.closure_rows.push(RowSet::empty());
        assert!(p.assemble().unwrap_err().to_string().contains("no members"));
    }

    #[test]
    fn dense_rtc_parts_roundtrip() {
        let rtc = Rtc::from_pairs_with(&bc_pairs(), &rpq_graph::RowSetPolicy::dense());
        let parts = RtcParts::of(&rtc);
        assert!(parts.closure_rows.iter().any(|r| r.is_dense()));
        let back = parts.assemble().unwrap();
        assert_eq!(back.stats(), rtc.stats());
        assert_eq!(back.expand(), rtc.expand());
    }

    #[test]
    fn full_assembly_rejects_corruption() {
        let full = FullTc::from_pairs(&bc_pairs());
        let good = FullTcParts::of(&full);

        let mut p = good.clone();
        p.rows.pop();
        assert!(p.assemble().is_err());

        let mut p = good.clone();
        p.rows[0] = RowSet::Sparse(vec![250]);
        assert!(p
            .assemble()
            .unwrap_err()
            .to_string()
            .contains("out of range"));

        let mut p = good;
        p.originals[0] = 200; // breaks ascending order (first was smallest)
        assert!(p.assemble().is_err());
    }
}
