//! Incremental RTC maintenance for dynamic graphs.
//!
//! The static pipeline recomputes an [`Rtc`] from scratch — Tarjan over
//! `G_R`, then the reverse-topological closure sweep — whenever `R_G`
//! changes. For a serving engine absorbing edge churn that is the wrong
//! cost model: a delta touching a handful of pairs should cost work
//! proportional to the *damaged region* of the condensation, not
//! `O(|V̄_R|·|Ē_R|)`.
//!
//! [`DynamicRtc`] is the maintainable form of the RTC: the reduced graph
//! `G_R`, its SCC decomposition, the condensation adjacency (with
//! member-edge multiplicities, so cross-SCC edges survive partial
//! deletions) and the per-SCC closure rows, all in hash-indexed form keyed
//! by a *representative* vertex (the minimum original member id — stable
//! under renumber-free merges and splits). The update rules:
//!
//! * **pair insertion** `(u, v)` — if it closes a cycle (the target's SCC
//!   already reaches the source's), every SCC on a `v→…→u` condensation
//!   path merges into one and the merged row is rewritten into the
//!   ancestors found by a *backward sweep from the merge point*; otherwise
//!   the target's descendant set is propagated backward from the source's
//!   SCC, pruning the sweep wherever a row already absorbs it;
//! * **pair deletion** `(u, v)` — cross-SCC deletions decrement the
//!   member-edge count and, when the condensation edge disappears,
//!   recompute exactly the rows of the source SCC and its condensation
//!   ancestors; intra-SCC deletions re-run Tarjan *on the SCC's members
//!   only* and, if the SCC splits, rebuild the incident condensation
//!   edges and the ancestor rows;
//! * **damage threshold** — a delta whose effective operation count
//!   exceeds [`MaintenanceConfig::damage_threshold`] (as a fraction of
//!   the current `|E_R|`) rebuilds the whole structure from scratch
//!   instead: one shared closure sweep beats repeating per-operation
//!   propagation across most of the condensation. [`MaintenanceOutcome`]
//!   reports which path was taken.
//!
//! [`DynamicRtc::snapshot`] converts back to the engine-facing [`Rtc`]
//! without re-running Tarjan or the closure sweep; equivalence with
//! rebuild-from-scratch is pinned by the module tests here and
//! property-tested end-to-end in `tests/dynamic_equivalence.rs`.

use crate::rtc::Rtc;
use rpq_graph::{
    tarjan_scc, Digraph, PairSet, RowSet, RowSetPolicy, RowTable, Scc, SccId, VertexId,
    VertexMapping,
};
use rustc_hash::{FxHashMap, FxHashSet};

/// Tuning knobs for incremental maintenance.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct MaintenanceConfig {
    /// Fraction of the current relation (`|E_R|`) a delta may touch —
    /// counting only effective operations, after no-ops and
    /// delete-then-reinsert round trips cancel — before maintenance falls
    /// back to a full rebuild. `0.0` rebuilds on any change; values
    /// `≥ 1.0` make large batches rebuild only when they outsize the
    /// relation itself. The incremental path's cost already adapts to the
    /// damaged region (batched re-split, one ancestor sweep), so this
    /// guards against the pathological regime where per-insert merge
    /// propagation repeats ancestor rewrites a single rebuild sweep would
    /// share.
    pub damage_threshold: f64,
}

impl Default for MaintenanceConfig {
    fn default() -> Self {
        Self {
            damage_threshold: 0.25,
        }
    }
}

/// Which maintenance path [`DynamicRtc::apply`] took.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MaintenanceOutcome {
    /// Every operation was a no-op (inserting present pairs, deleting
    /// absent ones); nothing changed.
    Unchanged,
    /// The delta was absorbed incrementally.
    Incremental(MaintenanceStats),
    /// The structure was rebuilt from scratch.
    Rebuilt(RebuildReason),
}

/// Work counters of an incremental application.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MaintenanceStats {
    /// Pairs actually inserted into `G_R`.
    pub pairs_inserted: usize,
    /// Pairs actually deleted from `G_R`.
    pub pairs_deleted: usize,
    /// SCCs collapsed by cycle-closing insertions.
    pub sccs_merged: usize,
    /// Sub-SCCs produced by cycle-breaking deletions.
    pub sccs_split: usize,
    /// Closure rows written (the cost proxy: rebuild writes all of them).
    pub rows_touched: usize,
}

/// Why [`DynamicRtc::apply`] rebuilt instead of maintaining.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RebuildReason {
    /// The delta's ancestor region exceeded
    /// [`MaintenanceConfig::damage_threshold`] of all SCCs.
    DamageThresholdExceeded,
}

/// A maintainable reduced transitive closure (see the module docs).
///
/// All vertex ids are *original-graph* ids; SCCs are keyed by their
/// minimum member id. The structure is `Send + Sync` and cheap to `Clone`
/// relative to recomputation (hash tables, no recompute).
#[derive(Clone, Debug, Default)]
pub struct DynamicRtc {
    /// `G_R` adjacency over original vertex ids.
    out: FxHashMap<u32, FxHashSet<u32>>,
    inn: FxHashMap<u32, FxHashSet<u32>>,
    /// Vertex → SCC representative (minimum member id).
    comp: FxHashMap<u32, u32>,
    /// Representative → sorted members.
    members: FxHashMap<u32, Vec<u32>>,
    /// Condensation adjacency with member-edge multiplicities:
    /// `scc_out[a][b]` = number of `G_R` edges from SCC `a` into SCC `b`.
    scc_out: FxHashMap<u32, FxHashMap<u32, u32>>,
    /// Condensation predecessors: `a ∈ scc_in[b]` iff `scc_out[a]` has `b`.
    /// The multiplicity is stored on the out side only, so the two
    /// directions cannot disagree on it.
    scc_in: FxHashMap<u32, FxHashSet<u32>>,
    /// Representatives of SCCs with an internal ≥1-length cycle.
    cyclic: FxHashSet<u32>,
    /// Representative → SCC reps reachable via ≥1 condensation step
    /// (contains the rep itself iff cyclic). Rows are [`RowSet`]s over the
    /// *rep-id* space — sparse in practice (rep ids are arbitrary original
    /// vertex ids, so a bitset universe would span the whole id range),
    /// but every repair below goes through the set-algebra API, so a dense
    /// row arriving via churn still word-masks.
    closure: FxHashMap<u32, RowSet>,
    edge_count: usize,
    /// The row policy of the [`Rtc`] this form came from; what
    /// [`DynamicRtc::snapshot`] and a damage-gate rebuild build with.
    policy: RowSetPolicy,
}

impl DynamicRtc {
    /// Builds the maintainable form from an evaluated `R_G` (full
    /// compute: Tarjan + closure, like [`Rtc::from_pairs`]).
    pub fn from_pairs(r_g: &PairSet) -> DynamicRtc {
        Self::from_rtc(&Rtc::from_pairs(r_g), r_g)
    }

    /// Converts an already-computed [`Rtc`] (plus the `R_G` it was built
    /// from) into maintainable form **without** recomputing SCCs or the
    /// closure — a linear re-indexing pass. This is how a cache upgrades a
    /// static entry the first time a delta arrives.
    pub fn from_rtc(rtc: &Rtc, r_g: &PairSet) -> DynamicRtc {
        let mut dyn_rtc = DynamicRtc {
            policy: *rtc.policy(),
            ..DynamicRtc::default()
        };
        // SCC membership, representatives and cyclicity.
        let k = rtc.scc_count();
        let mut rep_of: Vec<u32> = Vec::with_capacity(k);
        for s in 0..k {
            let scc = SccId::from_usize(s);
            let members: Vec<u32> = rtc.members_original(scc).map(|v| v.raw()).collect();
            let rep = members[0]; // members ascend; min member = representative
            for &m in &members {
                dyn_rtc.comp.insert(m, rep);
            }
            if rtc.successors(scc).contains(scc.raw()) {
                dyn_rtc.cyclic.insert(rep);
            }
            dyn_rtc.members.insert(rep, members);
            rep_of.push(rep);
        }
        // Closure rows, re-keyed by representative.
        for s in 0..k {
            let rep = rep_of[s];
            let row = RowSet::from_unsorted(
                rtc.successors(SccId::from_usize(s))
                    .iter()
                    .map(|t| rep_of[t as usize])
                    .collect(),
            );
            dyn_rtc.closure.insert(rep, row);
            dyn_rtc.scc_out.insert(rep, FxHashMap::default());
            dyn_rtc.scc_in.insert(rep, FxHashSet::default());
        }
        // Member-level adjacency and condensation multiplicities.
        for (u, v) in r_g.iter() {
            let (u, v) = (u.raw(), v.raw());
            dyn_rtc.out.entry(u).or_default().insert(v);
            dyn_rtc.out.entry(v).or_default();
            dyn_rtc.inn.entry(v).or_default().insert(u);
            dyn_rtc.inn.entry(u).or_default();
            let a = dyn_rtc.comp[&u];
            let b = dyn_rtc.comp[&v];
            if a != b {
                *dyn_rtc.scc_out.get_mut(&a).unwrap().entry(b).or_insert(0) += 1;
                dyn_rtc.scc_in.get_mut(&b).unwrap().insert(a);
            }
        }
        dyn_rtc.edge_count = r_g.len();
        dyn_rtc
    }

    /// Number of vertices in `V_R`.
    pub fn vertex_count(&self) -> usize {
        self.comp.len()
    }

    /// Number of pairs/edges in `R_G` (= `|E_R|`).
    pub fn edge_count(&self) -> usize {
        self.edge_count
    }

    /// Number of SCCs (`|V̄_R|`).
    pub fn scc_count(&self) -> usize {
        self.members.len()
    }

    /// Heap footprint in bytes (capacity-based, as [`RowSet::heap_bytes`]
    /// is; hash-table control bytes are not counted).
    pub fn heap_bytes(&self) -> usize {
        use std::mem::size_of;
        fn table<K, V>(map: &FxHashMap<K, V>, inner: impl Fn(&V) -> usize) -> usize {
            map.capacity() * size_of::<(K, V)>() + map.values().map(inner).sum::<usize>()
        }
        let set = |s: &FxHashSet<u32>| s.capacity() * size_of::<u32>();
        table(&self.out, set)
            + table(&self.inn, set)
            + table(&self.comp, |_| 0)
            + table(&self.members, |m| m.capacity() * size_of::<u32>())
            + table(&self.scc_out, |m| m.capacity() * size_of::<(u32, u32)>())
            + table(&self.scc_in, set)
            + set(&self.cyclic)
            + table(&self.closure, RowSet::heap_bytes)
    }

    /// The current `R_G` as a pair set (materialized; for diffing and the
    /// rebuild path).
    pub fn pairs(&self) -> PairSet {
        let mut pairs: Vec<(VertexId, VertexId)> = Vec::with_capacity(self.edge_count);
        for (&u, row) in &self.out {
            pairs.extend(row.iter().map(|&v| (VertexId(u), VertexId(v))));
        }
        PairSet::from_pairs(pairs)
    }

    /// Applies a pair-level delta: `deletes` first, then `inserts`
    /// (mirroring `VersionedGraph::apply`). No-op operations (deleting
    /// absent pairs, inserting present ones) are skipped. Returns which
    /// maintenance path ran; the structure is equivalent to
    /// rebuild-from-scratch afterward either way.
    pub fn apply(
        &mut self,
        inserts: &[(VertexId, VertexId)],
        deletes: &[(VertexId, VertexId)],
        config: &MaintenanceConfig,
    ) -> MaintenanceOutcome {
        let mut real_deletes: Vec<(u32, u32)> = deletes
            .iter()
            .map(|&(u, v)| (u.raw(), v.raw()))
            .filter(|&(u, v)| self.has_edge(u, v))
            .collect();
        real_deletes.sort_unstable();
        real_deletes.dedup();
        let mut real_inserts: Vec<(u32, u32)> = inserts
            .iter()
            .map(|&(u, v)| (u.raw(), v.raw()))
            .filter(|&(u, v)| !self.has_edge(u, v) || real_deletes.binary_search(&(u, v)).is_ok())
            .collect();
        real_inserts.sort_unstable();
        real_inserts.dedup();
        // A pair both deleted and reinserted (deletes run first) nets out
        // to "present": cancel the round trip on both sides.
        let round_trips: Vec<(u32, u32)> = real_inserts
            .iter()
            .copied()
            .filter(|p| real_deletes.binary_search(p).is_ok())
            .collect();
        real_deletes.retain(|p| round_trips.binary_search(p).is_err());
        real_inserts.retain(|p| round_trips.binary_search(p).is_err());
        if real_deletes.is_empty() && real_inserts.is_empty() {
            return MaintenanceOutcome::Unchanged;
        }

        // Damage gate: a delta touching more than `damage_threshold` of
        // the relation is cheaper to absorb with one from-scratch sweep.
        let ops = real_deletes.len() + real_inserts.len();
        if ops as f64 > config.damage_threshold * self.edge_count.max(1) as f64 {
            for &(u, v) in &real_deletes {
                self.remove_edge_raw(u, v);
            }
            for &(u, v) in &real_inserts {
                self.add_edge_raw(u, v);
            }
            self.rebuild();
            return MaintenanceOutcome::Rebuilt(RebuildReason::DamageThresholdExceeded);
        }

        let mut stats = MaintenanceStats::default();
        self.delete_batch(&real_deletes, &mut stats);
        self.insert_batch(&real_inserts, &mut stats);
        MaintenanceOutcome::Incremental(stats)
    }

    /// Converts back to the engine-facing [`Rtc`]: a linear re-indexing
    /// (sorted vertices → [`VertexMapping`], sorted representatives →
    /// dense SCC ids) with **no** Tarjan or closure recompute. The
    /// resulting SCC numbering is not topological — [`Rtc`] consumers
    /// don't rely on one.
    pub fn snapshot(&self) -> Rtc {
        let mut vertices: Vec<VertexId> = self.comp.keys().map(|&v| VertexId(v)).collect();
        vertices.sort_unstable();
        let mut reps: Vec<u32> = self.members.keys().copied().collect();
        reps.sort_unstable();
        // A representative's dense SCC id is its rank among the sorted reps,
        // read from a table over the id range.
        let mut dense = vec![0u32; reps.last().map_or(0, |&r| r as usize + 1)];
        for (i, &r) in reps.iter().enumerate() {
            dense[r as usize] = i as u32;
        }
        let comp_of: Vec<u32> = vertices
            .iter()
            .map(|v| dense[self.comp[&v.raw()] as usize])
            .collect();
        let scc = Scc::from_component_table(comp_of, reps.len());
        // The rank is monotone, so every renumbered row stays ascending.
        let rows: Vec<RowSet> = reps
            .iter()
            .map(|r| {
                let row = self.closure[r].iter().map(|t| dense[t as usize]).collect();
                RowSet::from_sorted_vec(row)
            })
            .collect();
        // Renumbering to dense SCC ids makes the density-driven policy
        // meaningful again (rep-id rows stay sparse; see `closure` docs).
        let closure = RowTable::from_rows_with(rows, reps.len() as u32, &self.policy);
        let ebar_edges: usize =
            self.scc_out.values().map(FxHashMap::len).sum::<usize>() + self.cyclic.len();
        let mapping = VertexMapping::from_sorted_vertices(vertices);
        Rtc::from_parts(
            mapping,
            scc,
            closure,
            self.edge_count,
            ebar_edges,
            self.policy,
        )
    }

    // ---- internals ----

    fn has_edge(&self, u: u32, v: u32) -> bool {
        self.out.get(&u).is_some_and(|row| row.contains(&v))
    }

    /// Adjacency-only edge add (rebuild path).
    fn add_edge_raw(&mut self, u: u32, v: u32) {
        self.out.entry(u).or_default().insert(v);
        self.out.entry(v).or_default();
        self.inn.entry(v).or_default().insert(u);
        self.inn.entry(u).or_default();
        self.edge_count += 1;
    }

    /// Adjacency-only edge removal (rebuild path).
    fn remove_edge_raw(&mut self, u: u32, v: u32) {
        self.out.get_mut(&u).unwrap().remove(&v);
        self.inn.get_mut(&v).unwrap().remove(&u);
        self.edge_count -= 1;
    }

    /// Recomputes every derived structure from the current adjacency.
    fn rebuild(&mut self) {
        let r_g = self.pairs();
        *self = Self::from_rtc(&Rtc::from_pairs_with(&r_g, &self.policy), &r_g);
    }

    /// Whether a path of length ≥ 1 from `u` to `v` exists using only
    /// vertices of SCC `a` (early-exit BFS over the induced subgraph).
    fn reaches_within_scc(&self, a: u32, u: u32, v: u32) -> bool {
        let mut seen: FxHashSet<u32> = FxHashSet::default();
        let mut queue: Vec<u32> = vec![u];
        // Seed with u but don't treat the start as "reached" — the path
        // must have length ≥ 1 (relevant for deleted self-loops).
        let mut first = true;
        while let Some(x) = queue.pop() {
            for &w in &self.out[&x] {
                if self.comp.get(&w) != Some(&a) {
                    continue;
                }
                if w == v {
                    return true;
                }
                if seen.insert(w) {
                    queue.push(w);
                }
            }
            if first {
                first = false;
                seen.insert(u);
            }
        }
        false
    }

    /// `frontier ∪ ancestors(frontier)` over the condensation.
    fn backward_closure(&self, frontier: impl IntoIterator<Item = u32>) -> FxHashSet<u32> {
        let mut seen: FxHashSet<u32> = frontier.into_iter().collect();
        let mut queue: Vec<u32> = seen.iter().copied().collect();
        while let Some(s) = queue.pop() {
            for &p in &self.scc_in[&s] {
                if seen.insert(p) {
                    queue.push(p);
                }
            }
        }
        seen
    }

    /// Registers `v` as a fresh singleton SCC if it is not in `V_R` yet.
    fn ensure_vertex(&mut self, v: u32) {
        if self.comp.contains_key(&v) {
            return;
        }
        self.comp.insert(v, v);
        self.members.insert(v, vec![v]);
        self.closure.insert(v, RowSet::empty());
        self.scc_out.insert(v, FxHashMap::default());
        self.scc_in.insert(v, FxHashSet::default());
        self.out.entry(v).or_default();
        self.inn.entry(v).or_default();
    }

    /// Removes `w` from every structure if it has become edge-free (`V_R`
    /// contains only vertices incident to some pair). An isolated vertex
    /// is always a singleton SCC with no condensation edges and an empty
    /// closure row, so the removal is local.
    fn drop_if_isolated(&mut self, w: u32) {
        let isolated = self.out.get(&w).is_none_or(FxHashSet::is_empty)
            && self.inn.get(&w).is_none_or(FxHashSet::is_empty);
        if !isolated {
            return;
        }
        if let Some(rep) = self.comp.remove(&w) {
            debug_assert_eq!(rep, w, "isolated vertex must be its own singleton SCC");
            self.members.remove(&rep);
            self.cyclic.remove(&rep);
            let row = self.closure.remove(&rep);
            debug_assert!(row.is_none_or(|r| r.is_empty()));
            let o = self.scc_out.remove(&rep);
            debug_assert!(o.is_none_or(|m| m.is_empty()));
            let i = self.scc_in.remove(&rep);
            debug_assert!(i.is_none_or(|m| m.is_empty()));
        }
        self.out.remove(&w);
        self.inn.remove(&w);
    }

    /// Inserts a batch of pairs (all known absent). Edge-level state and
    /// condensation multiplicities update pair by pair; cycle handling is
    /// batched — one Tarjan over the condensation finds *every* SCC group
    /// the new edges collapse (including cycles that only exist through
    /// several new edges combined), each group merges structurally once,
    /// and a single change-driven sweep repairs the affected closure rows.
    /// A batch with exactly one new condensation edge and no cycle skips
    /// all of that for the pruned backward propagation.
    fn insert_batch(&mut self, inserts: &[(u32, u32)], stats: &mut MaintenanceStats) {
        let mut new_cond: Vec<(u32, u32)> = Vec::new();
        for &(u, v) in inserts {
            self.ensure_vertex(u);
            self.ensure_vertex(v);
            self.out.get_mut(&u).unwrap().insert(v);
            self.inn.get_mut(&v).unwrap().insert(u);
            self.edge_count += 1;
            stats.pairs_inserted += 1;

            let a = self.comp[&u];
            let b = self.comp[&v];
            if a == b {
                // Internal edge: the SCC now (still) reaches itself.
                // Ancestors already list it, so only its own row changes.
                if self.cyclic.insert(a) {
                    self.closure.get_mut(&a).unwrap().insert(a);
                    stats.rows_touched += 1;
                }
                continue;
            }
            let count = self.scc_out.get_mut(&a).unwrap().entry(b).or_insert(0);
            *count += 1;
            if *count == 1 {
                new_cond.push((a, b));
            }
            self.scc_in.get_mut(&b).unwrap().insert(a);
        }
        if new_cond.is_empty() {
            return;
        }
        // Cycle gate: a cycle through the new edges needs some new edge's
        // tail to be reachable from some new edge's head in the *old*
        // closure (any new-edge cycle chains `head_i →old→ tail_j` hops),
        // so if no such pair exists every insertion is acyclic — even in
        // combination — and the pruned per-edge propagation applies. The
        // O(k²) test is capped; past that the condensation-wide Tarjan is
        // cheaper anyway.
        let maybe_cycle = new_cond.len() > 32
            || new_cond.iter().any(|&(_, b)| {
                new_cond
                    .iter()
                    .any(|&(a2, _)| a2 == b || self.closure[&b].contains(a2))
            });
        if maybe_cycle {
            self.absorb_cond_edges(&new_cond, stats);
        } else {
            for &(a, b) in &new_cond {
                self.propagate_insert(a, b, stats);
            }
        }
    }

    /// Batched reachability repair after new condensation edges: detect
    /// merge groups with one Tarjan over the condensation, merge each
    /// group structurally, then recompute rows from the merged reps and
    /// the new edges' tails outward.
    fn absorb_cond_edges(&mut self, new_cond: &[(u32, u32)], stats: &mut MaintenanceStats) {
        // Tarjan over the rep graph (the condensation plus the new edges,
        // which are already in `scc_out`).
        let reps: Vec<u32> = self.members.keys().copied().collect();
        let idx: FxHashMap<u32, u32> = reps
            .iter()
            .enumerate()
            .map(|(i, &r)| (r, i as u32))
            .collect();
        let mut edges: Vec<(u32, u32)> = Vec::new();
        for (&r, outs) in &self.scc_out {
            let i = idx[&r];
            edges.extend(outs.keys().map(|t| (i, idx[t])));
        }
        let rep_graph = Digraph::from_edges(reps.len(), edges);
        let rep_scc = tarjan_scc(&rep_graph);

        let mut frontier: FxHashSet<u32> = FxHashSet::default();
        if rep_scc.count() < reps.len() {
            for s in 0..rep_scc.count() {
                let group: Vec<u32> = rep_scc
                    .members(SccId::from_usize(s))
                    .iter()
                    .map(|&i| reps[i as usize])
                    .collect();
                if group.len() > 1 {
                    frontier.insert(self.merge_group(&group, stats));
                }
            }
        }
        // Tails of the new edges gained reachability even without merging
        // (resolve through `comp` — a rep id is a vertex id, so a merged
        // tail forwards to its group's representative).
        for &(a, _) in new_cond {
            frontier.insert(self.comp[&a]);
        }
        self.recompute_rows(&frontier, stats);
    }

    /// New acyclic condensation edge `a → b`: push `{b} ∪ closure(b)`
    /// backward from `a`, pruning wherever a row already absorbs it.
    fn propagate_insert(&mut self, a: u32, b: u32, stats: &mut MaintenanceStats) {
        let mut delta = self.closure[&b].clone();
        delta.insert(b);
        let mut seen: FxHashSet<u32> = FxHashSet::default();
        seen.insert(a);
        let mut queue = vec![a];
        while let Some(s) = queue.pop() {
            let row = self.closure.get_mut(&s).unwrap();
            let changed = row.union_in_place(&delta);
            // If the row already contained the delta, every predecessor's
            // row (a superset, by the closure invariant) did too.
            if changed {
                stats.rows_touched += 1;
                for &p in &self.scc_in[&s] {
                    if seen.insert(p) {
                        queue.push(p);
                    }
                }
            }
        }
    }

    /// Structurally merges a group of SCCs known (by the caller's Tarjan)
    /// to have become one: members, component table, cyclicity and
    /// condensation adjacency collapse onto the minimum representative.
    /// The merged rep's closure row is left as an empty placeholder — the
    /// caller recomputes it (and every ancestor's) in its batched sweep.
    fn merge_group(&mut self, merged: &[u32], stats: &mut MaintenanceStats) -> u32 {
        debug_assert!(merged.len() >= 2, "a merge group spans several SCCs");
        let mset: FxHashSet<u32> = merged.iter().copied().collect();
        let r = *merged.iter().min().unwrap();
        stats.sccs_merged += merged.len();

        // Members and membership table.
        let mut new_members: Vec<u32> = merged
            .iter()
            .flat_map(|s| self.members.remove(s).unwrap())
            .collect();
        new_members.sort_unstable();
        for &x in &new_members {
            self.comp.insert(x, r);
        }
        self.members.insert(r, new_members);
        for &s in merged {
            self.cyclic.remove(&s);
            self.closure.remove(&s);
        }
        self.cyclic.insert(r); // the group is a cycle by construction
        self.closure.insert(r, RowSet::empty());

        // Condensation adjacency: union the merged SCCs' maps (edges
        // between them become internal) and re-point external neighbors.
        let mut merged_out: FxHashMap<u32, u32> = FxHashMap::default();
        let mut merged_in: FxHashSet<u32> = FxHashSet::default();
        for &s in merged {
            for (t, c) in self.scc_out.remove(&s).unwrap() {
                if !mset.contains(&t) {
                    *merged_out.entry(t).or_insert(0) += c;
                }
            }
            let preds = self.scc_in.remove(&s).unwrap();
            merged_in.extend(preds.into_iter().filter(|t| !mset.contains(t)));
        }
        for t in merged_out.keys() {
            let t_in = self.scc_in.get_mut(t).unwrap();
            for s in merged {
                t_in.remove(s);
            }
            t_in.insert(r);
        }
        for t in &merged_in {
            let t_out = self.scc_out.get_mut(t).unwrap();
            let c = merged.iter().filter_map(|s| t_out.remove(s)).sum();
            t_out.insert(r, c);
        }
        self.scc_out.insert(r, merged_out);
        self.scc_in.insert(r, merged_in);
        r
    }

    /// Deletes a batch of pairs (all known present), doing the expensive
    /// structural work **once per damaged region** rather than once per
    /// pair: adjacency and condensation multiplicities are updated pair by
    /// pair, then each SCC that lost an internal edge is re-split by a
    /// single local Tarjan, then one backward sweep from the whole delete
    /// frontier recomputes every affected closure row.
    fn delete_batch(&mut self, deletes: &[(u32, u32)], stats: &mut MaintenanceStats) {
        if deletes.is_empty() {
            return;
        }
        // Phase 1: edge-level updates. SCC classification uses the
        // pre-delete decomposition throughout (comp is untouched here), so
        // intra/cross bookkeeping stays consistent; structural repair of
        // over-coarse SCCs happens in phase 2.
        let mut dirty_sccs: FxHashMap<u32, Vec<(u32, u32)>> = FxHashMap::default();
        let mut row_frontier: FxHashSet<u32> = FxHashSet::default();
        for &(u, v) in deletes {
            self.out.get_mut(&u).unwrap().remove(&v);
            self.inn.get_mut(&v).unwrap().remove(&u);
            self.edge_count -= 1;
            stats.pairs_deleted += 1;
            let a = self.comp[&u];
            let b = self.comp[&v];
            if a != b {
                let count = self.scc_out.get_mut(&a).unwrap().get_mut(&b).unwrap();
                *count -= 1;
                if *count == 0 {
                    self.scc_out.get_mut(&a).unwrap().remove(&b);
                    self.scc_in.get_mut(&b).unwrap().remove(&a);
                    // Redundancy check: if `a` still reaches `b` through a
                    // surviving out-edge, its row (and every ancestor's)
                    // is unchanged — no recompute trigger. Staleness of
                    // `closure[t]` within this batch is safe: any deeper
                    // loss has its own frontier entry, and the changed-
                    // chain in `recompute_rows` carries it up through `a`.
                    let redundant = self.scc_out[&a]
                        .keys()
                        .any(|&t| t == b || self.closure[&t].contains(b));
                    if !redundant {
                        row_frontier.insert(a);
                    }
                }
            } else if self.members[&a].len() == 1 {
                // Removing a singleton's self-loop: cyclicity may flip;
                // ancestors still reach it either way.
                debug_assert_eq!(u, v);
                if !self.out[&u].contains(&u) && self.cyclic.remove(&a) {
                    self.closure.get_mut(&a).unwrap().remove(a);
                    stats.rows_touched += 1;
                }
            } else {
                dirty_sccs.entry(a).or_default().push((u, v));
            }
        }
        // Phase 2: structural repair of each SCC that lost internal edges
        // (at most one local Tarjan per SCC, skipped entirely when an
        // early-exit reachability check proves the SCC intact).
        let dirty: Vec<(u32, Vec<(u32, u32)>)> = dirty_sccs.into_iter().collect();
        for (a, lost) in dirty {
            if let Some(sub_reps) = self.resplit_scc(a, &lost, stats) {
                row_frontier.extend(sub_reps);
            }
        }
        // Phase 3: one row-recompute sweep over the union of all damaged
        // ancestor regions, pruned wherever rows turn out unchanged.
        if !row_frontier.is_empty() {
            self.recompute_rows(&row_frontier, stats);
        }
        // Phase 4: vertices left edge-free exit V_R (rows are already
        // recomputed, so an isolated vertex's row is provably empty).
        for &(u, v) in deletes {
            self.drop_if_isolated(u);
            if v != u {
                self.drop_if_isolated(v);
            }
        }
    }

    /// Structural repair of one SCC after losing the internal edges in
    /// `lost`: if the SCC splits, rebuilds the incident condensation edges
    /// and returns the sub-SCC representatives (whose closure rows — and
    /// their ancestors' — the caller must recompute). `None` if the SCC
    /// survived intact.
    ///
    /// The fast path avoids Tarjan entirely: the SCC stays strongly
    /// connected iff, in the post-deletion induced subgraph, the source of
    /// every lost edge still reaches its target (every broken path can
    /// then be rerouted). Each check is an early-exit BFS — in dense SCCs
    /// it terminates after a handful of hops, where a full Tarjan would
    /// pay for every internal edge.
    fn resplit_scc(
        &mut self,
        a: u32,
        lost: &[(u32, u32)],
        stats: &mut MaintenanceStats,
    ) -> Option<Vec<u32>> {
        if lost.iter().all(|&(u, v)| self.reaches_within_scc(a, u, v)) {
            return None;
        }
        let mem: Vec<u32> = self.members[&a].clone();
        let idx_of: FxHashMap<u32, u32> = mem
            .iter()
            .enumerate()
            .map(|(i, &x)| (x, i as u32))
            .collect();
        // One pass over the members' edges collects both the induced
        // subgraph (by local index) and the external crossings (local
        // index + external rep), so the post-split recount never re-walks
        // adjacency with hash lookups.
        let mut local_edges: Vec<(u32, u32)> = Vec::new();
        let mut ext_out: Vec<(u32, u32)> = Vec::new();
        let mut ext_in: Vec<(u32, u32)> = Vec::new();
        for (i, &x) in mem.iter().enumerate() {
            for &y in &self.out[&x] {
                match idx_of.get(&y) {
                    Some(&j) => local_edges.push((i as u32, j)),
                    None => ext_out.push((i as u32, self.comp[&y])),
                }
            }
            for &p in &self.inn[&x] {
                if !idx_of.contains_key(&p) {
                    ext_in.push((i as u32, self.comp[&p]));
                }
            }
        }
        let local = Digraph::from_edges(mem.len(), local_edges.clone());
        let local_scc = tarjan_scc(&local);
        if local_scc.count() == 1 {
            // Unreachable when the reachability pre-check ran (it is
            // exact), but kept as a safety net for direct callers.
            return None;
        }
        stats.sccs_split += local_scc.count();

        // Retire the old SCC's bookkeeping, remembering its external
        // condensation neighbors.
        self.members.remove(&a);
        self.closure.remove(&a);
        self.cyclic.remove(&a);
        let old_out = self.scc_out.remove(&a).unwrap();
        let old_in = self.scc_in.remove(&a).unwrap();
        for t in old_out.keys() {
            self.scc_in.get_mut(t).unwrap().remove(&a);
        }
        for t in &old_in {
            self.scc_out.get_mut(t).unwrap().remove(&a);
        }

        // Install the sub-SCCs.
        let mut sub_reps: Vec<u32> = Vec::with_capacity(local_scc.count());
        for s in 0..local_scc.count() {
            let sub_members: Vec<u32> = local_scc
                .members(SccId::from_usize(s))
                .iter()
                .map(|&i| mem[i as usize])
                .collect();
            let rep = sub_members[0];
            for &x in &sub_members {
                self.comp.insert(x, rep);
            }
            let is_cyclic = sub_members.len() > 1 || self.out[&rep].contains(&rep);
            if is_cyclic {
                self.cyclic.insert(rep);
            }
            self.members.insert(rep, sub_members);
            self.closure.insert(rep, RowSet::empty());
            self.scc_out.insert(rep, FxHashMap::default());
            self.scc_in.insert(rep, FxHashSet::default());
            sub_reps.push(rep);
        }

        // Recount every member-level edge crossing a (new) SCC boundary
        // from the pre-collected lists: sub↔sub via local indices (no
        // hashing), sub↔external via the recorded external reps.
        let sub_of_local = |i: u32| sub_reps[local_scc.component_of(i).index()];
        for &(i, j) in &local_edges {
            let (ca, cb) = (sub_of_local(i), sub_of_local(j));
            if ca != cb {
                *self.scc_out.get_mut(&ca).unwrap().entry(cb).or_insert(0) += 1;
                self.scc_in.get_mut(&cb).unwrap().insert(ca);
            }
        }
        for &(i, e) in &ext_out {
            let ca = sub_of_local(i);
            *self.scc_out.get_mut(&ca).unwrap().entry(e).or_insert(0) += 1;
            self.scc_in.get_mut(&e).unwrap().insert(ca);
        }
        for &(i, e) in &ext_in {
            let ca = sub_of_local(i);
            *self.scc_out.get_mut(&e).unwrap().entry(ca).or_insert(0) += 1;
            self.scc_in.get_mut(&ca).unwrap().insert(e);
        }

        Some(sub_reps)
    }

    /// Recomputes closure rows after structural damage at `frontier`: the
    /// potentially affected set is `frontier ∪ ancestors(frontier)`,
    /// visited in dependency order with an explicit stack — but a row is
    /// only actually recomputed if it sits on the frontier or one of its
    /// recomputed successors *changed*; reachability shrinkage that dies
    /// out (a deleted edge with redundant paths) stops propagating
    /// immediately instead of sweeping every ancestor.
    fn recompute_rows(&mut self, frontier: &FxHashSet<u32>, stats: &mut MaintenanceStats) {
        let affected = self.backward_closure(frontier.iter().copied());
        let mut done: FxHashSet<u32> = FxHashSet::default();
        // Frontier reps count as changed a priori: after a split their
        // *identity* changed (ancestor rows hold stale rep ids), even when
        // their own recomputed row happens to match — the first ancestor
        // ring must always look.
        let mut changed: FxHashSet<u32> = frontier.clone();
        for &root in &affected {
            if done.contains(&root) {
                continue;
            }
            let mut stack = vec![root];
            while let Some(&s) = stack.last() {
                if done.contains(&s) {
                    stack.pop();
                    continue;
                }
                let mut ready = true;
                for &t in self.scc_out[&s].keys() {
                    if affected.contains(&t) && !done.contains(&t) {
                        stack.push(t);
                        ready = false;
                    }
                }
                if !ready {
                    continue;
                }
                let must_recompute =
                    frontier.contains(&s) || self.scc_out[&s].keys().any(|t| changed.contains(t));
                if must_recompute {
                    let mut ids: Vec<u32> = Vec::new();
                    for &t in self.scc_out[&s].keys() {
                        ids.push(t);
                        ids.extend(self.closure[&t].iter());
                    }
                    if self.cyclic.contains(&s) {
                        ids.push(s);
                    }
                    let row = RowSet::from_unsorted(ids);
                    if row != self.closure[&s] {
                        changed.insert(s);
                        self.closure.insert(s, row);
                    }
                    stats.rows_touched += 1;
                }
                done.insert(s);
                stack.pop();
            }
        }
    }

    /// Exhaustive internal consistency check against a rebuild — test
    /// support, kept out of release binaries.
    #[cfg(test)]
    fn assert_consistent(&self) {
        let rebuilt = Self::from_pairs(&self.pairs());
        assert_eq!(self.edge_count, rebuilt.edge_count, "edge count");
        assert_eq!(self.comp, rebuilt.comp, "component table");
        assert_eq!(self.members, rebuilt.members, "membership");
        assert_eq!(self.cyclic, rebuilt.cyclic, "cyclic set");
        assert_eq!(self.closure, rebuilt.closure, "closure rows");
        assert_eq!(self.scc_out, rebuilt.scc_out, "condensation out");
        assert_eq!(self.scc_in, rebuilt.scc_in, "condensation in");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pair_set(pairs: &[(u32, u32)]) -> PairSet {
        pairs.iter().map(|&(a, b)| (a, b)).collect()
    }

    fn vid(pairs: &[(u32, u32)]) -> Vec<(VertexId, VertexId)> {
        pairs
            .iter()
            .map(|&(a, b)| (VertexId(a), VertexId(b)))
            .collect()
    }

    const NEVER_REBUILD: MaintenanceConfig = MaintenanceConfig {
        damage_threshold: 2.0,
    };

    /// Applies one delta incrementally and asserts full equivalence with
    /// the rebuilt structure plus expansion equivalence with a fresh `Rtc`.
    fn step(
        dynamic: &mut DynamicRtc,
        inserts: &[(u32, u32)],
        deletes: &[(u32, u32)],
    ) -> MaintenanceOutcome {
        let outcome = dynamic.apply(&vid(inserts), &vid(deletes), &NEVER_REBUILD);
        dynamic.assert_consistent();
        let fresh = Rtc::from_pairs(&dynamic.pairs());
        assert_eq!(
            dynamic.snapshot().expand(),
            fresh.expand(),
            "+{inserts:?} -{deletes:?}"
        );
        outcome
    }

    /// [`step`] on a structure built from `base`, plus snapshot-level
    /// statistics equivalence with a fresh `Rtc`.
    fn check_apply(
        base: &[(u32, u32)],
        inserts: &[(u32, u32)],
        deletes: &[(u32, u32)],
    ) -> MaintenanceOutcome {
        let mut dynamic = DynamicRtc::from_pairs(&pair_set(base));
        let outcome = step(&mut dynamic, inserts, deletes);
        let fresh = Rtc::from_pairs(&dynamic.pairs());
        let snap = dynamic.snapshot();
        assert_eq!(snap.stats().vr_vertices, fresh.stats().vr_vertices);
        assert_eq!(snap.stats().er_edges, fresh.stats().er_edges);
        assert_eq!(snap.stats().scc_count, fresh.stats().scc_count);
        assert_eq!(snap.stats().ebar_edges, fresh.stats().ebar_edges);
        assert_eq!(snap.stats().closure_pairs, fresh.stats().closure_pairs);
        outcome
    }

    /// The paper's b·c fixture.
    const BC: &[(u32, u32)] = &[(2, 4), (2, 6), (3, 5), (4, 2), (5, 3)];

    /// A refresh keeps the row policy the RTC was built with, on the
    /// incremental path and through the damage-gate rebuild alike.
    #[test]
    fn snapshot_keeps_the_row_policy() {
        let pairs = pair_set(BC);
        let always_rebuild = MaintenanceConfig {
            damage_threshold: 0.0,
        };
        for policy in [RowSetPolicy::sparse(), RowSetPolicy::dense()] {
            for config in [NEVER_REBUILD, always_rebuild] {
                let rtc = Rtc::from_pairs_with(&pairs, &policy);
                let mut dynamic = DynamicRtc::from_rtc(&rtc, &pairs);
                let outcome = dynamic.apply(&vid(&[(6, 3)]), &[], &config);
                assert_ne!(outcome, MaintenanceOutcome::Unchanged);
                let snap = dynamic.snapshot();
                assert_eq!(snap.policy(), &policy);
                let rows = (0..snap.scc_count()).map(|s| snap.successors(SccId::from_usize(s)));
                let want_dense = policy == RowSetPolicy::dense();
                assert!(rows.clone().any(|row| !row.is_empty()));
                for row in rows {
                    assert_eq!(row.is_dense(), want_dense && !row.is_empty(), "{policy:?}");
                }
            }
        }
    }

    #[test]
    fn from_rtc_matches_from_pairs() {
        let pairs = pair_set(BC);
        let via_rtc = DynamicRtc::from_rtc(&Rtc::from_pairs(&pairs), &pairs);
        let direct = DynamicRtc::from_pairs(&pairs);
        assert_eq!(via_rtc.closure, direct.closure);
        assert_eq!(via_rtc.comp, direct.comp);
        assert_eq!(via_rtc.scc_out, direct.scc_out);
        assert_eq!(via_rtc.cyclic, direct.cyclic);
    }

    #[test]
    fn snapshot_of_static_structure_matches_rtc() {
        let pairs = pair_set(BC);
        let snap = DynamicRtc::from_pairs(&pairs).snapshot();
        let fresh = Rtc::from_pairs(&pairs);
        assert_eq!(snap.expand(), fresh.expand());
        assert_eq!(snap.closure_pair_count(), fresh.closure_pair_count());
        assert_eq!(snap.scc_count(), fresh.scc_count());
    }

    #[test]
    fn acyclic_insert_propagates_to_ancestors() {
        // Chain 0→1→2 gains 2→3: 0, 1, 2 all gain 3.
        let out = check_apply(&[(0, 1), (1, 2)], &[(2, 3)], &[]);
        assert!(matches!(out, MaintenanceOutcome::Incremental(s) if s.rows_touched == 3));
    }

    #[test]
    fn cycle_closing_insert_merges_sccs() {
        // Chain 0→1→2→3 gains 3→1: {1,2,3} merge.
        let out = check_apply(&[(0, 1), (1, 2), (2, 3)], &[(3, 1)], &[]);
        assert!(matches!(out, MaintenanceOutcome::Incremental(s) if s.sccs_merged == 3));
    }

    #[test]
    fn merge_through_branching_paths() {
        // Diamond 0→{1,2}→3 plus 3→0: everything merges.
        check_apply(&[(0, 1), (0, 2), (1, 3), (2, 3)], &[(3, 0)], &[]);
        // Only one branch on the cycle: 3→1 merges {1,3} but not 2.
        let out = check_apply(&[(0, 1), (0, 2), (1, 3), (2, 3)], &[(3, 1)], &[]);
        assert!(matches!(out, MaintenanceOutcome::Incremental(s) if s.sccs_merged == 2));
    }

    #[test]
    fn cross_scc_delete_recomputes_ancestors() {
        // 0→1→2; delete 1→2: rows of 1 and 0 shrink.
        let out = check_apply(&[(0, 1), (1, 2)], &[], &[(1, 2)]);
        assert!(matches!(out, MaintenanceOutcome::Incremental(s) if s.pairs_deleted == 1));
    }

    #[test]
    fn intra_scc_delete_splits() {
        // Cycle 0→1→2→0; deleting 2→0 splits into three singletons.
        let out = check_apply(&[(0, 1), (1, 2), (2, 0)], &[], &[(2, 0)]);
        assert!(matches!(out, MaintenanceOutcome::Incremental(s) if s.sccs_split == 3));
    }

    #[test]
    fn intra_scc_delete_that_keeps_scc_intact() {
        // Two-cycle {0,1} with chord 0→0 (self-loop): deleting the loop
        // leaves the SCC strongly connected.
        let out = check_apply(&[(0, 1), (1, 0), (0, 0)], &[], &[(0, 0)]);
        assert!(matches!(out, MaintenanceOutcome::Incremental(s) if s.sccs_split == 0));
    }

    #[test]
    fn singleton_self_loop_lifecycle() {
        check_apply(&[(7, 7)], &[], &[(7, 7)]); // drop to empty
        check_apply(&[(0, 1)], &[(1, 1)], &[]); // gain a self-loop
        check_apply(&[(0, 1), (1, 1)], &[], &[(1, 1)]);
    }

    #[test]
    fn delete_then_reinsert_round_trips() {
        let mut dynamic = DynamicRtc::from_pairs(&pair_set(BC));
        let before = dynamic.snapshot();
        dynamic.apply(&[], &vid(&[(4, 2)]), &NEVER_REBUILD);
        dynamic.assert_consistent();
        dynamic.apply(&vid(&[(4, 2)]), &[], &NEVER_REBUILD);
        dynamic.assert_consistent();
        let after = dynamic.snapshot();
        assert_eq!(before.expand(), after.expand());
        assert_eq!(before.stats(), after.stats());
    }

    #[test]
    fn same_delta_delete_and_reinsert_is_unchanged() {
        let mut dynamic = DynamicRtc::from_pairs(&pair_set(BC));
        let out = dynamic.apply(&vid(&[(4, 2)]), &vid(&[(4, 2)]), &NEVER_REBUILD);
        assert_eq!(out, MaintenanceOutcome::Unchanged);
        dynamic.assert_consistent();
    }

    #[test]
    fn noop_delta_is_unchanged() {
        let mut dynamic = DynamicRtc::from_pairs(&pair_set(BC));
        // Present insert + absent delete.
        let out = dynamic.apply(&vid(&[(2, 4)]), &vid(&[(9, 9)]), &NEVER_REBUILD);
        assert_eq!(out, MaintenanceOutcome::Unchanged);
    }

    #[test]
    fn damage_threshold_forces_rebuild() {
        let chain: Vec<(u32, u32)> = (0..20).map(|i| (i, i + 1)).collect();
        // Threshold 0.0: any effective change rebuilds.
        let mut dynamic = DynamicRtc::from_pairs(&pair_set(&chain));
        let strict = MaintenanceConfig {
            damage_threshold: 0.0,
        };
        let out = dynamic.apply(&vid(&[(20, 21)]), &[], &strict);
        assert_eq!(
            out,
            MaintenanceOutcome::Rebuilt(RebuildReason::DamageThresholdExceeded)
        );
        dynamic.assert_consistent();
        let fresh = Rtc::from_pairs(&dynamic.pairs());
        assert_eq!(dynamic.snapshot().expand(), fresh.expand());
        // A one-edge delta on a 20-edge relation is 5% — under the default
        // threshold it stays incremental...
        let mut dynamic = DynamicRtc::from_pairs(&pair_set(&chain));
        let out = dynamic.apply(&vid(&[(20, 21)]), &[], &MaintenanceConfig::default());
        assert!(matches!(out, MaintenanceOutcome::Incremental(_)));
        dynamic.assert_consistent();
        // ...while a batch outsizing the threshold rebuilds.
        let big: Vec<(u32, u32)> = (0..30).map(|i| (100 + i, 101 + i)).collect();
        let mut dynamic = DynamicRtc::from_pairs(&pair_set(&chain));
        let out = dynamic.apply(&vid(&big), &[], &MaintenanceConfig::default());
        assert_eq!(
            out,
            MaintenanceOutcome::Rebuilt(RebuildReason::DamageThresholdExceeded)
        );
        dynamic.assert_consistent();
    }

    #[test]
    fn growing_from_empty() {
        let mut dynamic = DynamicRtc::from_pairs(&PairSet::new());
        dynamic.apply(&vid(&[(0, 1)]), &[], &NEVER_REBUILD);
        dynamic.assert_consistent();
        dynamic.apply(&vid(&[(1, 0)]), &[], &NEVER_REBUILD);
        dynamic.assert_consistent();
        assert_eq!(dynamic.scc_count(), 1);
        assert_eq!(dynamic.snapshot().expand().len(), 4);
    }

    #[test]
    fn scripted_update_stream_stays_equivalent() {
        // A mixed script exercising merge, split, propagation, vertex
        // birth/death and reinsertion, checking full consistency per step.
        let mut dynamic = DynamicRtc::from_pairs(&pair_set(BC));
        let script: &[(&str, u32, u32)] = &[
            ("ins", 6, 2),  // merge {2,4} with {6}
            ("ins", 5, 6),  // cross edge into the merged SCC
            ("del", 6, 2),  // split the merge back apart
            ("ins", 10, 2), // new vertex feeding the cycle
            ("del", 2, 4),  // break {2,4}
            ("ins", 2, 4),  // restore it
            ("del", 3, 5),  // break {3,5}
            ("del", 5, 3),  // 5 keeps only the 5→6 edge
            ("del", 5, 6),  // 5 goes isolated and leaves V_R
            ("ins", 3, 3),  // self-loop on a singleton
        ];
        for &(op, u, v) in script {
            if op == "ins" {
                step(&mut dynamic, &[(u, v)], &[]);
            } else {
                step(&mut dynamic, &[], &[(u, v)]);
            }
        }

        // A long seeded stream on few vertices, held near 40 pairs (the
        // fuller the relation, the likelier an op deletes): the regime of
        // several mid-sized SCCs joined by parallel member edges that get
        // deleted one at a time, merged over and split again.
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let mut draw = |bound: usize| {
            // xorshift64
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state % bound as u64) as u32
        };
        let mut dynamic = DynamicRtc::from_pairs(&PairSet::new());
        for _ in 0..300 {
            let (mut inserts, mut deletes) = (Vec::new(), Vec::new());
            let present: Vec<(VertexId, VertexId)> = dynamic.pairs().iter().collect();
            for _ in 0..1 + draw(4) {
                if (draw(80) as usize) < present.len() {
                    let (u, v) = present[draw(present.len()) as usize];
                    deletes.push((u.raw(), v.raw()));
                } else {
                    inserts.push((draw(25), draw(25)));
                }
            }
            step(&mut dynamic, &inserts, &deletes);
        }
    }

    /// Deleting one of two parallel member edges between two SCCs must
    /// lower the multiplicity in both directions of the condensation, or a
    /// later merge resurrects the deleted edge as a phantom.
    #[test]
    fn parallel_cross_scc_edge_delete_leaves_no_phantom() {
        // SCC {0,3} reaches singleton {1} through two member edges.
        let mut dynamic = DynamicRtc::from_pairs(&pair_set(&[(0, 3), (3, 0), (0, 1), (3, 1)]));
        step(&mut dynamic, &[], &[(0, 1)]);
        step(&mut dynamic, &[(1, 2), (2, 1)], &[]); // {1} merges into {1,2}
        step(&mut dynamic, &[], &[(3, 1)]); // the last {0,3}→{1,2} edge goes
        assert_eq!(dynamic.snapshot().expand().len(), 8);
    }

    #[test]
    fn batch_delta_matches_sequential_singles() {
        let inserts = [(6, 3), (5, 2), (11, 12)];
        let deletes = [(2, 6), (3, 5)];
        let mut batched = DynamicRtc::from_pairs(&pair_set(BC));
        batched.apply(&vid(&inserts), &vid(&deletes), &NEVER_REBUILD);
        batched.assert_consistent();

        let mut single = DynamicRtc::from_pairs(&pair_set(BC));
        for &d in &deletes {
            single.apply(&[], &vid(&[d]), &NEVER_REBUILD);
        }
        for &i in &inserts {
            single.apply(&vid(&[i]), &[], &NEVER_REBUILD);
        }
        assert_eq!(batched.pairs(), single.pairs());
        assert_eq!(batched.snapshot().expand(), single.snapshot().expand());
    }
}
