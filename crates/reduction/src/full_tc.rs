//! The materialized `R⁺_G` — FullSharing's shared structure.
//!
//! Abul-Basher's FullSharing \[8\] shares the *evaluation result* of the
//! common sub-query `R⁺` among queries. Per Lemma 1 that result equals
//! `TC(G_R)`, which this struct materializes with one BFS per vertex of
//! `G_R` (`O(|V_R|·|E_R|)` — TABLE III's left column) and stores grouped by
//! source for the join in the baseline's batch-unit evaluation.

use rpq_graph::{MappedDigraph, PairSet, RowSet, RowTable, VertexId, VertexMapping};
use std::sync::Arc;

/// `R⁺_G` materialized and grouped by start vertex.
#[derive(Clone, Debug)]
pub struct FullTc {
    mapping: VertexMapping,
    /// Row per compact vertex: compact vertices reachable via ≥ 1 edge
    /// (hybrid sparse/dense, by density).
    rows: RowTable,
    pair_count: usize,
}

impl FullTc {
    /// Builds `R⁺_G` from an evaluated `R_G` with [`crate::tc::tc_naive`].
    pub fn from_pairs(r_g: &PairSet) -> FullTc {
        let gr = MappedDigraph::from_pairset(r_g);
        let csr = crate::tc::tc_naive(&gr.graph);
        let n = gr.graph.vertex_count() as u32;
        let rows: Vec<RowSet> = (0..csr.rows())
            .map(|v| {
                let mut row = RowSet::from_sorted_vec(csr.row(v).to_vec());
                row.normalize(n);
                row
            })
            .collect();
        let rows = RowTable::from_rows(rows, n);
        let pair_count = rows.total_len();
        FullTc {
            mapping: gr.mapping,
            rows,
            pair_count,
        }
    }

    /// Number of pairs in `R⁺_G` — FullSharing's shared-data size (Fig. 12).
    pub fn pair_count(&self) -> usize {
        self.pair_count
    }

    /// `|V_R|`.
    pub fn vertex_count(&self) -> usize {
        self.rows.len()
    }

    /// Heap bytes held by the closure rows — FullSharing's shared-data
    /// memory, comparable against [`crate::Rtc::closure_heap_bytes`].
    pub fn closure_heap_bytes(&self) -> usize {
        self.rows.heap_bytes()
    }

    /// Heap bytes of the whole structure: the `V_R` vertex list with its
    /// rank table and the closure rows.
    pub fn heap_bytes(&self) -> usize {
        self.mapping.heap_bytes() + self.rows.heap_bytes()
    }

    /// Number of closure rows currently stored as dense bitsets.
    pub fn dense_rows(&self) -> usize {
        self.rows.dense_rows()
    }

    /// End vertices of `R⁺` paths from original vertex `v`, as original ids
    /// in ascending order. Empty if `v ∉ V_R`.
    pub fn successors_original(&self, v: VertexId) -> impl Iterator<Item = VertexId> + '_ {
        self.mapping
            .compact(v)
            .map(|c| self.rows.row(c as usize))
            .into_iter()
            .flat_map(|row| row.iter())
            .map(move |c| self.mapping.original(c))
    }

    /// Materializes the full pair set (for tests and size accounting), as
    /// a grouped [`PairSet`] with one target row per source vertex.
    pub fn expand(&self) -> PairSet {
        let mut groups: Vec<(VertexId, Arc<RowSet>)> = Vec::new();
        for v in 0..self.rows.len() {
            let row = self.rows.row(v);
            if row.is_empty() {
                continue;
            }
            // The mapping is monotone, so the targets come back ascending.
            let targets: Vec<u32> = row.iter().map(|c| self.mapping.original(c).raw()).collect();
            groups.push((
                self.mapping.original(v as u32),
                Arc::new(RowSet::from_sorted_vec(targets)),
            ));
        }
        PairSet::from_grouped_rows(groups)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rtc::Rtc;

    fn bc_pairs() -> PairSet {
        [(2u32, 4u32), (2, 6), (3, 5), (4, 2), (5, 3)]
            .into_iter()
            .collect()
    }

    #[test]
    fn pair_count_matches_example4() {
        let full = FullTc::from_pairs(&bc_pairs());
        assert_eq!(full.pair_count(), 10);
        assert_eq!(full.vertex_count(), 5);
    }

    #[test]
    fn expand_equals_rtc_expand() {
        // Lemma 1 + Theorem 1: both shared structures enumerate the same R⁺_G.
        let pairs = bc_pairs();
        let full = FullTc::from_pairs(&pairs);
        let rtc = Rtc::from_pairs(&pairs);
        assert_eq!(full.expand(), rtc.expand());
    }

    #[test]
    fn successors_from_original_ids() {
        let full = FullTc::from_pairs(&bc_pairs());
        let succ: Vec<u32> = full
            .successors_original(VertexId(4))
            .map(|v| v.raw())
            .collect();
        assert_eq!(succ, vec![2, 4, 6]);
        // Vertex outside V_R.
        assert_eq!(full.successors_original(VertexId(0)).count(), 0);
    }

    #[test]
    fn rtc_is_never_larger_than_full_tc() {
        // The headline size claim: |TC(Ḡ_R)| ≤ |R⁺_G| pairs.
        for pairs in [
            bc_pairs(),
            [(0u32, 1u32), (1, 2), (2, 0)].into_iter().collect(),
            [(0u32, 0u32)].into_iter().collect(),
            [(0u32, 1u32), (1, 2), (2, 3)].into_iter().collect(),
        ] {
            let full = FullTc::from_pairs(&pairs);
            let rtc = Rtc::from_pairs(&pairs);
            assert!(
                rtc.closure_pair_count() <= full.pair_count(),
                "RTC {} > full {}",
                rtc.closure_pair_count(),
                full.pair_count()
            );
        }
    }

    #[test]
    fn empty_full_tc() {
        let full = FullTc::from_pairs(&PairSet::new());
        assert_eq!(full.pair_count(), 0);
        assert!(full.expand().is_empty());
    }
}
