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
//! Two builds make the same structure, each with one Tarjan pass
//! ([`tarjan_components`]) and the closure sweep over the rows it leaves:
//!
//! * [`Rtc::from_body`] never evaluates `R_G`. Its pass runs over the
//!   layered product of the graph and a closure-free body's position
//!   automaton: layer 0 is `V`, and each position a label can follow adds
//!   a private copy of `V`, so a path from layer 0 back to layer 0 is one
//!   `R`-step and `G_R`'s SCCs are the product's SCCs cut down to layer 0.
//! * [`Rtc::from_pairs`] reads an evaluated `R_G`: the engine's build for a
//!   body with a nested closure, and the oracle of the other.
//!
//! The staged path — [`crate::reduce_edge_level`],
//! [`rpq_graph::tarjan_scc`], [`rpq_graph::Condensation::new`],
//! [`crate::closure_of_condensation_rows`] — builds the same structure and
//! stays as the test reference and the trace probe's stages.

use crate::tc::closure_rows;
use rpq_eval::ProductEvaluator;
use rpq_graph::{
    tarjan_components, Cover, Csr, Ends, LabelId, LabeledMultigraph, PairSet, RowSet, RowSetPolicy,
    RowTable, SccId, VertexId,
};
use rpq_regex::Regex;
use std::sync::Arc;

/// Marks an original id outside `V_R` in [`Rtc`]'s SCC table, and a
/// product node no search reached.
const OFF_VR: u32 = u32::MAX;

/// Size/shape statistics of an RTC, reported by the experiment harness
/// (Figs. 12 and 13 compare `closure_pairs` and `scc_count` against the
/// FullSharing equivalents). `|E_R|` is not among them: it is `|R_G|`, a
/// count of the relation, which [`Rtc::from_body`] never builds.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RtcStats {
    /// `|V_R|` — vertices of the edge-level reduced graph.
    pub vr_vertices: usize,
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
        Self::from_groups(r_g.groups().collect())
    }

    /// [`Rtc::from_pairs`] over a relation's rows, ascending by start.
    fn from_groups(starts: Vec<(VertexId, Ends<'_>)>) -> Rtc {
        let n = starts
            .iter()
            .map(|(s, ends)| ends.max().map_or(*s, |e| e.max(*s)).index() + 1)
            .max()
            .unwrap_or(0);
        let mut row_of = vec![OFF_VR; n];
        for (i, (s, _)) in starts.iter().enumerate() {
            row_of[s.index()] = i as u32;
        }
        let mut sccs = Closing::new(n);
        // Every node is an original vertex here, so a walked edge is an
        // `R`-step and a component id an SCC id: each SCC's row is read
        // off the search's successor stack, duplicates dropped.
        let mut seen = Cover::new(n);
        tarjan_components(
            n,
            starts.iter().map(|(s, _)| s.raw()),
            |v| {
                let row = starts.get(row_of[v as usize] as usize);
                let ends = row.map_or_else(|| Ends::Pairs(&[]).iter(), |(_, ends)| ends.iter());
                ends.map(VertexId::raw)
            },
            |members, successors, self_loop| {
                sccs.close(members, self_loop);
                seen.clear();
                let row = successors.iter().copied().filter(|&t| seen.insert(t));
                sccs.cond.push_row(row);
            },
        );
        sccs.finish()
    }

    /// Computes the RTC of a closure-free body `R` on `graph` without
    /// evaluating `R_G`: one Tarjan pass over the layered product of the
    /// graph and `R`'s position automaton, in which `G_R`'s SCCs are the
    /// product's SCCs cut down to layer 0. `None` when `R` has a closure
    /// (a nested body is built from its `R_G`, [`Rtc::from_pairs`]) or the
    /// product has more nodes than `u32` ids.
    ///
    /// * **Layers.** Layer 0 is `V`. A position that other positions can
    ///   follow gets a private layer, so `l₁·…·l_k` adds `k − 1` layers: a
    ///   step along a label into a position moves into that position's
    ///   layer, and into layer 0 when the position can end a word. So
    ///   every `R`-step runs from layer 0 back to layer 0 through private
    ///   layers only, and a nullable `R` puts a self-edge on every layer-0
    ///   node. A single label's `R_G` is its sorted edge list, read in
    ///   place as [`Rtc::from_pairs`] reads an `R_G`.
    /// * **Ids.** Closing order restricted to layer 0 is still reverse
    ///   topological. `V_R` is known only after the pass: a root no step
    ///   leaves closes alone, and a later root's step may still end at it.
    /// * **Rows.** Each SCC's condensation row is its set of one-`R`-step
    ///   successors. It is not read off the pass's successor stack, since
    ///   a step can enter a cyclic component at an inner layer and leave it
    ///   again before it reaches layer 0. It is walked after the pass
    ///   instead, through a per-layer memo of the SCCs each node's steps
    ///   end in.
    pub fn from_body(graph: &LabeledMultigraph, body: &Regex) -> Option<Rtc> {
        if body.has_closure() {
            return None;
        }
        let product = Product::new(graph, body)?;
        if let Some(label) = product.single_label() {
            // `R_G` is the label's edge list, read in place.
            let edges = graph.edges_with_label(label);
            let rows = edges.chunk_by(|a, b| a.0 == b.0);
            return Some(Self::from_groups(
                rows.map(|row| (row[0].0, Ends::Pairs(row))).collect(),
            ));
        }
        let n = graph.vertex_count();
        let mut sccs = Closing::new(n);
        let (reached, _) = tarjan_components(
            product.hops.len() * n,
            product.roots(),
            |u| product.out(u),
            |members, _, self_loop| sccs.close(members, self_loop),
        );
        sccs.cond = product.step_rows(&reached, &sccs.scc_of, &sccs.members());
        Some(sccs.finish())
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
    /// materializing them; the tests compare it with `expand().len()`.
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

/// The SCCs of `G_R` as one search closes them, over a graph whose first
/// `n` node ids are the original vertices: numbered in closing order, so
/// in reverse topological order.
struct Closing {
    /// Each original id's SCC, [`OFF_VR`] while it has none.
    scc_of: Vec<u32>,
    self_loops: Vec<bool>,
    /// Each SCC's distinct one-step successors other than itself.
    cond: Csr<u32>,
}

impl Closing {
    fn new(n: usize) -> Self {
        Self {
            scc_of: vec![OFF_VR; n],
            self_loops: Vec::new(),
            cond: Csr::new(),
        }
    }

    /// Gives the original ids among a closed component's `members` the next
    /// SCC id. A component without one — a node of a private layer that no
    /// cycle runs through — gets none.
    fn close(&mut self, members: &[u32], self_loop: bool) {
        let s = self.self_loops.len() as u32;
        let mut original = false;
        for &u in members {
            if let Some(c) = self.scc_of.get_mut(u as usize) {
                *c = s;
                original = true;
            }
        }
        if original {
            self.self_loops.push(self_loop);
        }
    }

    /// Each SCC's members, ascending.
    fn members(&self) -> Csr<u32> {
        let in_vr = (0..self.scc_of.len() as u32).filter(|&v| self.scc_of[v as usize] != OFF_VR);
        Csr::from_items(
            self.self_loops.len(),
            in_vr.map(|v| (self.scc_of[v as usize] as usize, v)),
        )
    }

    /// Drops the SCCs off `V_R` — a root that no step leaves and no step
    /// ends at — keeping the others' order, and closes the condensation.
    fn finish(mut self) -> Rtc {
        let mut kept = self.self_loops.clone();
        for s in 0..kept.len() {
            let row = self.cond.row(s);
            kept[s] |= !row.is_empty();
            for &t in row {
                kept[t as usize] = true;
            }
        }
        if kept.contains(&false) {
            let old_ids: Vec<usize> = (0..kept.len()).filter(|&s| kept[s]).collect();
            let mut new_id = vec![OFF_VR; kept.len()];
            for (k, &s) in old_ids.iter().enumerate() {
                new_id[s] = k as u32;
            }
            for c in self.scc_of.iter_mut().filter(|c| **c != OFF_VR) {
                *c = new_id[*c as usize];
            }
            let rows = old_ids.iter().map(|&s| self.cond.row(s));
            self.cond = Csr::from_rows(rows.map(|row| row.iter().map(|&t| new_id[t as usize])));
            self.self_loops = old_ids.iter().map(|&s| self.self_loops[s]).collect();
        }
        let top = self.scc_of.iter().rposition(|&c| c != OFF_VR);
        self.scc_of.truncate(top.map_or(0, |v| v + 1));
        self.scc_of.shrink_to_fit();
        let members = self.members();
        let (k, self_loops, cond) = (self.self_loops.len(), &self.self_loops, &self.cond);
        let closure = closure_rows(k, |s| (self_loops[s as usize], cond.row(s as usize)));
        let stats = RtcStats {
            vr_vertices: members.len(),
            scc_count: k,
            ebar_edges: cond.len() + self_loops.iter().filter(|&&l| l).count(),
            closure_pairs: closure.total_len(),
        };
        Rtc {
            comp_of: self.scc_of,
            members,
            closure,
            stats,
        }
    }
}

/// The layered product of a graph and a closure-free body's position
/// automaton ([`Rtc::from_body`]): node `layer · |V| + v` is vertex `v` in
/// `layer`.
struct Product<'g> {
    graph: &'g LabeledMultigraph,
    n: u32,
    /// Each layer's hops: `(label, into)` steps along `label` into layer
    /// `into`. A `None` label is the self-edge of a nullable body.
    hops: Vec<Vec<(Option<LabelId>, u32)>>,
}

impl<'g> Product<'g> {
    /// `None` when the product's node ids overflow `u32`.
    fn new(graph: &'g LabeledMultigraph, body: &Regex) -> Option<Self> {
        // The body's position automaton and its label binding, as the
        // product evaluator compiles them for NoSharing.
        let evaluator = ProductEvaluator::new(graph, body);
        let nfa = evaluator.nfa();
        // The initial state is layer 0, and a position with followers has
        // its own layer. Without closures, a position is followed only by
        // later ones, so hops run into higher layers or back to layer 0.
        let mut layer_of = vec![None; nfa.state_count()];
        let mut layers = 0u32;
        for (p, layer) in layer_of.iter_mut().enumerate() {
            if p == 0 || !nfa.transitions_from(p as u32).is_empty() {
                *layer = Some(layers);
                layers += 1;
            }
        }
        let labels = evaluator.symbol_labels();
        let mut hops = vec![Vec::new(); layers as usize];
        for (p, from) in layer_of.iter().enumerate() {
            let Some(from) = from else { continue };
            for &(sym, q) in nfa.transitions_from(p as u32) {
                let Some(label) = labels[sym as usize] else {
                    continue;
                };
                let from = &mut hops[*from as usize];
                if nfa.is_accepting(q) {
                    from.push((Some(label), 0));
                }
                if let Some(into) = layer_of[q as usize] {
                    from.push((Some(label), into));
                }
            }
        }
        if nfa.accepts_empty() {
            hops[0].push((None, 0));
        }
        let nodes = graph.vertex_count().checked_mul(hops.len())?;
        (nodes < OFF_VR as usize).then_some(Product {
            graph,
            n: graph.vertex_count() as u32,
            hops,
        })
    }

    /// The label of a body that is one label and nothing else.
    fn single_label(&self) -> Option<LabelId> {
        match &self.hops[..] {
            [only] => match only[..] {
                [(label, 0)] => label,
                _ => None,
            },
            _ => None,
        }
    }

    /// The layer-0 nodes some hop leaves, ascending: every vertex when the
    /// body is nullable.
    fn roots(&self) -> Vec<u32> {
        let labels: Option<Vec<LabelId>> = self.hops[0].iter().map(|&(label, _)| label).collect();
        match labels {
            Some(labels) => self
                .graph
                .sources_with_labels(labels)
                .into_iter()
                .map(VertexId::raw)
                .collect(),
            None => (0..self.n).collect(),
        }
    }

    /// Out-neighbours of node `u`.
    fn out(&self, u: u32) -> impl Iterator<Item = u32> + '_ {
        let (layer, v) = (u / self.n, VertexId(u % self.n));
        self.hops[layer as usize]
            .iter()
            .flat_map(move |&(label, into)| {
                let (edges, own) = match label {
                    Some(label) => (self.graph.out_with_label(v, label), None),
                    None => (&[][..], Some(v)),
                };
                let base = into * self.n;
                edges
                    .iter()
                    .map(|&(_, w)| w)
                    .chain(own)
                    .map(move |w| base + w.raw())
            })
    }

    /// Each SCC's one-step row: the SCCs other than itself that its
    /// members' `R`-steps end in. `reached` is the search's component table
    /// over product nodes ([`OFF_VR`] where it never went) and `scc_of` the
    /// SCC of each original id. Each inner layer's node gets a memo row, the
    /// SCCs its way back to layer 0 ends in, last layers first.
    fn step_rows(&self, reached: &[u32], scc_of: &[u32], members: &Csr<u32>) -> Csr<u32> {
        let n = self.n as usize;
        let mut seen = Cover::new(members.rows());
        let mut memo: Vec<Csr<u32>> = (0..self.hops.len()).map(|_| Csr::new()).collect();
        let mut row = Vec::new();
        for layer in (1..self.hops.len()).rev() {
            let mut rows = Csr::new();
            for v in 0..n {
                if reached[layer * n + v] != OFF_VR {
                    seen.clear();
                    let v = VertexId::from_usize(v);
                    self.step_ends(layer, v, &memo, scc_of, &mut seen, &mut row);
                }
                rows.push_row(row.drain(..));
            }
            memo[layer] = rows;
        }
        let mut cond = Csr::new();
        for s in 0..members.rows() {
            seen.clear();
            seen.insert(s as u32);
            for &v in members.row(s) {
                self.step_ends(0, VertexId(v), &memo, scc_of, &mut seen, &mut row);
            }
            cond.push_row(row.drain(..));
        }
        cond
    }

    /// Appends to `row` the SCCs not `seen` yet that the steps leaving `v`
    /// in `layer` end in.
    fn step_ends(
        &self,
        layer: usize,
        v: VertexId,
        memo: &[Csr<u32>],
        scc_of: &[u32],
        seen: &mut Cover,
        row: &mut Vec<u32>,
    ) {
        for &(label, into) in &self.hops[layer] {
            // The self-edge ends in `v`'s own SCC: its self-loop, which the
            // search already reported.
            let Some(label) = label else { continue };
            for &(_, w) in self.graph.out_with_label(v, label) {
                let ends = match into {
                    0 => std::slice::from_ref(&scc_of[w.index()]),
                    into => memo[into as usize].row(w.index()),
                };
                row.extend(ends.iter().copied().filter(|&s| seen.insert(s)));
            }
        }
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
