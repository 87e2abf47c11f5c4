//! The reduced transitive closure (RTC) — Section III-C.
//!
//! The RTC is `TC(Ḡ_R)` together with the SCC membership table: the
//! lightweight structure RTCSharing shares among batch units instead of the
//! heavyweight `R⁺_G`. TABLE III's comparison:
//!
//! | | `R⁺_G` (FullSharing) | `R̄⁺_G` (this struct) |
//! |---|---|---|
//! | computational | `O(\|V_R\|·\|E_R\|)` | `O(\|V̄_R\|·\|Ē_R\|)` |
//! | space | `O(\|V_R\|²)` | `O(\|V̄_R\|²)` |
//!
//! with `|V̄_R| ≪ |V_R|` whenever SCCs are nontrivial. [`Rtc::expand`]
//! implements Theorem 1's enumeration
//! `R⁺_G = ⋃ {s_k × s_l | (s̄_k, s̄_l) ∈ TC(Ḡ_R)}`.
//!
//! [`Rtc::from_pairs`] reads `R_G` once: one Tarjan pass in original vertex
//! ids finds the SCCs of `G_R` and each SCC's row of `Ḡ_R`, and the closure
//! sweep reads those rows. The staged path — [`crate::reduce_edge_level`],
//! [`rpq_graph::tarjan_scc`], [`rpq_graph::Condensation::new`],
//! [`crate::closure_of_condensation_rows`] — builds the same structure and
//! stays as the test reference and the trace probe's stages.

use crate::tc::closure_rows;
use rpq_graph::{
    tarjan_components, Csr, Ends, EpochVisited, PairSet, RowSet, RowSetPolicy, RowTable, SccId,
    VertexId,
};
use std::sync::Arc;

/// Marks an original id outside `V_R` in [`Rtc`]'s SCC table.
const OFF_VR: u32 = u32::MAX;

/// Size/shape statistics of an RTC, reported by the experiment harness
/// (Figs. 12 and 13 compare `closure_pairs` and `scc_count` against the
/// FullSharing equivalents).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RtcStats {
    /// `|V_R|` — vertices of the edge-level reduced graph.
    pub vr_vertices: usize,
    /// `|E_R|` — edges of the edge-level reduced graph (= `|R_G|`).
    pub er_edges: usize,
    /// `|V̄_R|` — SCC count after vertex-level reduction.
    pub scc_count: usize,
    /// `|Ē_R|` — condensation edges including self-loops.
    pub ebar_edges: usize,
    /// `|TC(Ḡ_R)|` — pairs in the reduced transitive closure (the shared
    /// data size of RTCSharing in Fig. 12).
    pub closure_pairs: usize,
}

/// The reduced transitive closure of some `R` on some graph.
#[derive(Clone, Debug)]
pub struct Rtc {
    /// SCC id by original vertex id up to the largest in `V_R`, [`OFF_VR`]
    /// off `V_R`.
    comp_of: Vec<u32>,
    /// Members of each SCC as original ids, ascending.
    members: Csr<u32>,
    /// Per-SCC closure rows over SCC ids (hybrid sparse/dense).
    closure: RowTable,
    stats: RtcStats,
}

impl Rtc {
    /// Computes the RTC from an evaluated `R_G` (Algorithm 1 line 11,
    /// `Compute_RTC`) with one Tarjan pass over `R_G` itself.
    ///
    /// The pass runs in original vertex ids: its roots are the starts in
    /// ascending order, and a vertex that is only an end is reached from
    /// one of them. `G_R` is never built — its edges are `R_G`'s pairs and
    /// its vertices the pairs' endpoints. Each SCC's condensation row comes
    /// from the pass as the SCC closes ([`tarjan_components`]); the
    /// reverse-topological closure sweep then reads those rows alone.
    pub fn from_pairs(r_g: &PairSet) -> Rtc {
        let starts: Vec<(VertexId, Ends<'_>)> = r_g.groups().collect();
        let n = starts
            .iter()
            .map(|(s, ends)| ends.max().map_or(*s, |e| e.max(*s)).index() + 1)
            .max()
            .unwrap_or(0);
        let mut row_of = vec![OFF_VR; n];
        for (i, (s, _)) in starts.iter().enumerate() {
            row_of[s.index()] = i as u32;
        }
        let mut cond: Csr<u32> = Csr::new();
        let mut self_loops: Vec<bool> = Vec::new();
        let mut seen = EpochVisited::new(n);
        let (comp_of, k) = tarjan_components(
            n,
            starts.iter().map(|(s, _)| s.raw()),
            |v| {
                let row = starts.get(row_of[v as usize] as usize);
                let ends = row.map_or_else(|| Ends::Pairs(&[]).iter(), |(_, ends)| ends.iter());
                ends.map(VertexId::raw)
            },
            |successors, self_loop| {
                seen.clear();
                cond.push_row(successors.iter().copied().filter(|&t| seen.insert(t)));
                self_loops.push(self_loop);
            },
        );
        let closure = closure_rows(k, |s| (self_loops[s as usize], cond.row(s as usize)));
        let in_vr = (0..n as u32).filter(|&v| comp_of[v as usize] != OFF_VR);
        let members = Csr::from_items(k, in_vr.map(|v| (comp_of[v as usize] as usize, v)));
        let stats = RtcStats {
            vr_vertices: members.len(),
            er_edges: r_g.len(),
            scc_count: k,
            ebar_edges: cond.len() + self_loops.iter().filter(|&&l| l).count(),
            closure_pairs: closure.total_len(),
        };
        Rtc {
            comp_of,
            members,
            closure,
            stats,
        }
    }

    /// [`Rtc::from_pairs`]; the [`RowSetPolicy`] is read by nothing. It
    /// stays only for the benchmark harness's trace probe (ROADMAP 4g).
    pub fn from_pairs_with(r_g: &PairSet, _: &RowSetPolicy) -> Rtc {
        Self::from_pairs(r_g)
    }

    /// Heap bytes held by the closure rows (`TC(Ḡ_R)`) — the shared-data
    /// memory of RTCSharing, comparable against [`crate::FullTc::closure_heap_bytes`].
    pub fn closure_heap_bytes(&self) -> usize {
        self.closure.heap_bytes()
    }

    /// Heap bytes of the whole structure: the SCC table over original ids
    /// (4 B an id up to the largest in `V_R`), the member rows (4 B a
    /// member, 4 B an SCC) and the closure rows.
    pub fn heap_bytes(&self) -> usize {
        self.comp_of.capacity() * std::mem::size_of::<u32>()
            + self.members.heap_bytes()
            + self.closure.heap_bytes()
    }

    /// Number of closure rows currently stored as dense bitsets.
    pub fn dense_closure_rows(&self) -> usize {
        self.closure.dense_rows()
    }

    /// Size statistics.
    pub fn stats(&self) -> &RtcStats {
        &self.stats
    }

    /// Number of SCCs (`|V̄_R|`).
    pub fn scc_count(&self) -> usize {
        self.members.rows()
    }

    /// Number of pairs in `TC(Ḡ_R)` — the shared-data size of RTCSharing.
    pub fn closure_pair_count(&self) -> usize {
        self.stats.closure_pairs
    }

    /// Average number of vertices per SCC (1.00 means vertex-level
    /// reduction bought nothing — the Yago2s regime).
    pub fn average_scc_size(&self) -> f64 {
        if self.scc_count() == 0 {
            return 0.0;
        }
        self.members.len() as f64 / self.scc_count() as f64
    }

    /// The SCC containing original vertex `v`, or `None` if `v ∉ V_R`.
    ///
    /// The `None` case is what makes *useless-1* elimination automatic in
    /// Algorithm 2: `Pre_G` tuples whose end vertex is off every `R`-path
    /// simply fail this join.
    #[inline]
    pub fn scc_of_original(&self, v: VertexId) -> Option<SccId> {
        let s = *self.comp_of.get(v.index())?;
        (s != OFF_VR).then_some(SccId(s))
    }

    /// SCC ids reachable from `s` via ≥ 1 step of `Ḡ_R`. Iteration is
    /// ascending regardless of the row's representation. Contains `s`
    /// itself iff the SCC has an internal cycle/self-loop.
    #[inline]
    pub fn successors(&self, s: SccId) -> &RowSet {
        self.closure.row(s.index())
    }

    /// Original-graph vertices belonging to SCC `s`, ascending.
    pub fn members_original(&self, s: SccId) -> impl Iterator<Item = VertexId> + '_ {
        self.members.row(s.index()).iter().map(|&v| VertexId(v))
    }

    /// Number of vertices in SCC `s`.
    pub fn scc_size(&self, s: SccId) -> usize {
        self.members.row_len(s.index())
    }

    /// Materializes `R⁺_G` per Theorem 1:
    /// `{(v_i, v_j) | (s̄_k, s̄_l) ∈ TC(Ḡ_R) ∧ (v_i, v_j) ∈ s_k × s_l}`.
    ///
    /// The result is a grouped [`PairSet`]: the target row of each source
    /// SCC is gathered once and *shared* (`Arc`) among every member of the
    /// SCC, so expansion costs `O(|V̄_R|·row)` materialized memory instead
    /// of `O(|R⁺_G|)` — Theorem 1's `s_k × s_l` without the product.
    pub fn expand(&self) -> PairSet {
        let mut groups: Vec<(VertexId, Arc<RowSet>)> = Vec::new();
        for s in 0..self.scc_count() {
            let succ = self.closure.row(s);
            if succ.is_empty() {
                continue;
            }
            // Gather target vertices once per source SCC.
            let mut targets: Vec<u32> = Vec::new();
            for t in succ.iter() {
                targets.extend(self.members_original(SccId(t)).map(|v| v.raw()));
            }
            targets.sort_unstable();
            let mut row = RowSet::from_sorted_vec(targets);
            row.normalize(0);
            let row = Arc::new(row);
            for &m in self.members.row(s) {
                groups.push((VertexId(m), Arc::clone(&row)));
            }
        }
        PairSet::from_grouped_rows(groups)
    }

    /// [`Rtc::expand`]; the thread count is read by nothing. It stays only
    /// for the benchmark harness's trace probe (ROADMAP 4g).
    pub fn expand_parallel(&self, _: usize) -> PairSet {
        self.expand()
    }

    /// The number of pairs [`Rtc::expand`] would produce, computed without
    /// materializing them (used by the size experiments).
    pub fn expanded_pair_count(&self) -> usize {
        let sizes: Vec<usize> = (0..self.scc_count())
            .map(|s| self.members.row_len(s))
            .collect();
        let mut total = 0usize;
        for s in 0..self.scc_count() {
            let succ_total: usize = self.closure.row(s).iter().map(|t| sizes[t as usize]).sum();
            total += sizes[s] * succ_total;
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The `b·c` fixture: R_G = {(2,4),(2,6),(3,5),(4,2),(5,3)}.
    fn bc_rtc() -> Rtc {
        let r_g: PairSet = [(2u32, 4u32), (2, 6), (3, 5), (4, 2), (5, 3)]
            .into_iter()
            .collect();
        Rtc::from_pairs(&r_g)
    }

    #[test]
    fn example5_structure() {
        let rtc = bc_rtc();
        assert_eq!(rtc.scc_count(), 3);
        assert_eq!(rtc.stats().vr_vertices, 5);
        assert_eq!(rtc.stats().er_edges, 5);
        assert_eq!(rtc.stats().ebar_edges, 3); // 2 loops + 1 cross edge
    }

    #[test]
    fn example6_closure_pairs() {
        // TC(Ḡ_{b·c}) = {(s̄{2,4},s̄{2,4}), (s̄{2,4},s̄{6}), (s̄{3,5},s̄{3,5})}.
        let rtc = bc_rtc();
        assert_eq!(rtc.closure_pair_count(), 3);
    }

    #[test]
    fn example6_expansion_is_bc_plus() {
        let rtc = bc_rtc();
        let expanded: Vec<(u32, u32)> = rtc
            .expand()
            .iter()
            .map(|(a, b)| (a.raw(), b.raw()))
            .collect();
        assert_eq!(
            expanded,
            vec![
                (2, 2),
                (2, 4),
                (2, 6),
                (3, 3),
                (3, 5),
                (4, 2),
                (4, 4),
                (4, 6),
                (5, 3),
                (5, 5)
            ]
        );
    }

    #[test]
    fn expanded_pair_count_matches_expand() {
        let rtc = bc_rtc();
        assert_eq!(rtc.expanded_pair_count(), rtc.expand().len());
    }

    #[test]
    fn scc_of_original_vertex_lookup() {
        let rtc = bc_rtc();
        // v2 and v4 share an SCC; v6 is a singleton; v0 is not in V_R.
        let s2 = rtc.scc_of_original(VertexId(2)).unwrap();
        let s4 = rtc.scc_of_original(VertexId(4)).unwrap();
        assert_eq!(s2, s4);
        assert_eq!(rtc.scc_size(s2), 2);
        let s6 = rtc.scc_of_original(VertexId(6)).unwrap();
        assert_eq!(rtc.scc_size(s6), 1);
        assert_eq!(rtc.scc_of_original(VertexId(0)), None);
        assert_eq!(rtc.scc_of_original(VertexId(9)), None);
    }

    #[test]
    fn members_round_trip() {
        let rtc = bc_rtc();
        let s = rtc.scc_of_original(VertexId(3)).unwrap();
        let members: Vec<u32> = rtc.members_original(s).map(|v| v.raw()).collect();
        assert_eq!(members, vec![3, 5]);
    }

    #[test]
    fn successors_respect_self_loop_rule() {
        let rtc = bc_rtc();
        let s24 = rtc.scc_of_original(VertexId(2)).unwrap();
        let s6 = rtc.scc_of_original(VertexId(6)).unwrap();
        let s35 = rtc.scc_of_original(VertexId(3)).unwrap();
        // s{2,4} reaches itself (cycle) and s{6}.
        assert!(rtc.successors(s24).contains(s24.raw()));
        assert!(rtc.successors(s24).contains(s6.raw()));
        // s{6} reaches nothing.
        assert!(rtc.successors(s6).is_empty());
        // s{3,5} reaches only itself.
        assert_eq!(rtc.successors(s35).to_vec(), vec![s35.raw()]);
    }

    #[test]
    fn expand_is_grouped_and_rows_follow_the_density_rule() {
        let r_g: PairSet = [(2u32, 4u32), (2, 6), (3, 5), (4, 2), (5, 3)]
            .into_iter()
            .collect();
        let rtc = Rtc::from_pairs(&r_g);
        assert!(rtc.expand().is_grouped());
        assert_eq!(
            rtc.expand(),
            Rtc::from_pairs_with(&r_g, &RowSetPolicy).expand()
        );
        // Three SCCs: every non-empty row holds at least 1/32 of them.
        assert_eq!(rtc.dense_closure_rows(), 2);
        assert!(rtc.closure_heap_bytes() > 0);
        // A 130-vertex path: row `i` reaches the 129 - i vertices after it,
        // so the rows near the end fall under 1/32 and stay sparse.
        let path: PairSet = (0..129u32).map(|v| (v, v + 1)).collect();
        let rtc = Rtc::from_pairs(&path);
        let dense = (0..130)
            .filter(|&i| RowSet::wants_dense(129 - i, 130))
            .count();
        assert_eq!(rtc.dense_closure_rows(), dense);
        assert!(dense > 0 && dense < 129);
    }

    #[test]
    fn empty_rtc() {
        let rtc = Rtc::from_pairs(&PairSet::new());
        assert_eq!(rtc.scc_count(), 0);
        assert_eq!(rtc.closure_pair_count(), 0);
        assert!(rtc.expand().is_empty());
        assert_eq!(rtc.expanded_pair_count(), 0);
    }

    #[test]
    fn dag_rtc_has_no_self_pairs() {
        let r_g: PairSet = [(0u32, 1u32), (1, 2)].into_iter().collect();
        let rtc = Rtc::from_pairs(&r_g);
        assert_eq!(rtc.scc_count(), 3);
        assert_eq!(rtc.average_scc_size(), 1.0);
        let expanded = rtc.expand();
        for (a, b) in expanded.iter() {
            assert_ne!(a, b, "DAG must not produce (v,v) pairs");
        }
        assert_eq!(expanded.len(), 3); // (0,1),(0,2),(1,2)
    }

    #[test]
    fn lemma1_expand_equals_naive_tc_of_gr() {
        // Random-ish fixture: two cycles and a bridge over sparse ids.
        let r_g: PairSet = [
            (10u32, 20u32),
            (20, 10),
            (20, 30),
            (30, 40),
            (40, 50),
            (50, 30),
            (60, 60),
        ]
        .into_iter()
        .collect();
        let rtc = Rtc::from_pairs(&r_g);
        // Naive TC over the same pairs via the algebraic oracle.
        let tc = rpq_eval::algebraic::plus_closure(&r_g);
        assert_eq!(rtc.expand(), tc);
    }
}
