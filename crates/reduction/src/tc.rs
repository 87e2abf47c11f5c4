//! Transitive-closure algorithms on unlabeled digraphs.
//!
//! Three implementations with one contract (`TC` = pairs reachable by paths
//! of length ≥ 1):
//!
//! * [`tc_naive`] — per-vertex BFS, `O(|V|·|E|)`. This is what FullSharing
//!   pays to materialize `R⁺_G = TC(G_R)` (TABLE III, left column).
//! * [`closure_of_condensation`] / [`tc_condensation`] — Purdom's scheme
//!   \[12\]: condense to `Ḡ_R`, close the much smaller DAG-with-self-loops in
//!   reverse topological order, then (optionally) expand by SCC membership.
//!   The un-expanded SCC closure is exactly the RTC (TABLE III, right
//!   column).
//! * [`nuutila_closure`] — a Nuutila-inspired \[13\] two-phase variant that
//!   builds the SCC closure straight from member adjacency, never
//!   materializing the condensation graph.
//!
//! The naive BFS is embarrassingly parallel; [`tc_naive_parallel`] shards
//! it over the scoped-thread pool of [`rpq_graph::par`] and is
//! property-tested to be bitwise-identical to its sequential counterpart.
//!
//! All closure rows are sorted ascending, so downstream joins can merge.

use rpq_graph::{
    par, tarjan_scc, Condensation, Csr, Digraph, EpochVisited, RowSet, RowSetPolicy, RowTable, Scc,
    SccId,
};

/// Naive transitive closure: one BFS per vertex. Row `v` holds the sorted
/// vertices reachable from `v` via ≥ 1 edge.
pub fn tc_naive(g: &Digraph) -> Csr<u32> {
    let n = g.vertex_count();
    let mut visited = EpochVisited::new(n);
    let mut queue: Vec<u32> = Vec::new();
    let mut out = Csr::new();
    for v in 0..n as u32 {
        let row = rpq_graph::bfs::reachable_ge1(g, v, &mut visited, &mut queue);
        out.push_row(row);
    }
    out
}

/// Parallel [`tc_naive`]: the per-vertex BFS sweep is sharded into chunks
/// of source vertices pulled by up to `threads` scoped workers (0 = all
/// cores), each worker reusing its own `EpochVisited`/queue scratch across
/// chunks, and the per-chunk row blocks are stitched back into one CSR in
/// vertex order. Output is identical to [`tc_naive`] (property-tested).
pub fn tc_naive_parallel(g: &Digraph, threads: usize) -> Csr<u32> {
    let n = g.vertex_count();
    let threads = par::effective_threads(threads);
    if threads <= 1 || n == 0 {
        return tc_naive(g);
    }
    let chunk = par::balanced_chunk(n, threads, 4, 1024);
    // Each chunk yields one flattened (row data, row lengths) block rather
    // than one heap Vec per source row, so buffering the whole closure
    // before the stitch costs two flat vectors per chunk instead of |V|
    // row allocations held live at once.
    let shards: Vec<(Vec<u32>, Vec<u32>)> = par::par_map_chunks_with(
        threads,
        n,
        chunk,
        || (EpochVisited::new(n), Vec::new()),
        |(visited, queue), range| {
            let mut data: Vec<u32> = Vec::new();
            let mut lens: Vec<u32> = Vec::with_capacity(range.len());
            for v in range {
                let row = rpq_graph::bfs::reachable_ge1(g, v as u32, visited, queue);
                lens.push(row.len() as u32);
                data.extend_from_slice(&row);
            }
            (data, lens)
        },
    );
    // Stitch in chunk order, dropping each block as it is consumed.
    let mut out = Csr::new();
    for (data, lens) in shards {
        let mut at = 0usize;
        for len in lens {
            let end = at + len as usize;
            out.push_row(data[at..end].iter().copied());
            at = end;
        }
    }
    out
}

/// Closure of a condensation: row `s̄` holds the sorted SCC ids reachable
/// from `s̄` via ≥ 1 edge of `Ḡ_R` (self-loops included).
///
/// Exploits the reverse-topological numbering of Tarjan SCC ids: a single
/// ascending sweep sees every successor row before it is needed. Dedup uses
/// an epoch-stamped scratch array, so the cost is proportional to the sum of
/// merged list lengths.
pub fn closure_of_condensation(cond: &Condensation) -> Csr<u32> {
    let k = cond.vertex_count();
    let mut rows: Vec<Vec<u32>> = Vec::with_capacity(k);
    let mut stamp = EpochVisited::new(k);
    for s in 0..k as u32 {
        stamp.clear();
        let mut row: Vec<u32> = Vec::new();
        if cond.has_self_loop(SccId(s)) && stamp.insert(s) {
            row.push(s);
        }
        for &t in cond.out(SccId(s)) {
            if stamp.insert(t) {
                row.push(t);
            }
            for &q in &rows[t as usize] {
                if stamp.insert(q) {
                    row.push(q);
                }
            }
        }
        row.sort_unstable();
        rows.push(row);
    }
    Csr::from_rows(rows)
}

/// Purdom-style transitive closure: condensation closure expanded back to
/// vertex level. Returns per-vertex sorted reachability rows equal to
/// [`tc_naive`]'s output.
pub fn tc_condensation(g: &Digraph) -> Csr<u32> {
    let scc = tarjan_scc(g);
    let cond = Condensation::new(g, &scc);
    let closure = closure_of_condensation(&cond);
    expand_scc_closure(&scc, &closure, g.vertex_count())
}

/// Nuutila-inspired closure \[13\]: a two-phase computation that runs
/// [`rpq_graph::tarjan_scc`] first and then builds each SCC's successor
/// set directly from its members' out-edges in one ascending
/// (reverse-topological) sweep — Nuutila's key saving of never
/// materializing the condensation graph, but **not** the fully
/// interleaved single-traversal formulation of the original paper: SCC
/// detection and closure construction are separate passes here.
///
/// Returns the SCC decomposition (identical to [`rpq_graph::tarjan_scc`],
/// including component numbering) and the per-SCC closure rows (sorted),
/// identical to [`closure_of_condensation`] over the condensation.
pub fn nuutila_closure(g: &Digraph) -> (Scc, Csr<u32>) {
    // Tarjan SCC ids are reverse-topological, so an ascending sweep sees
    // every successor SCC's closure row before it is needed; the row for
    // `s` is merged from its members' out-edges without ever building a
    // `Condensation`.
    let scc = tarjan_scc(g);
    let k = scc.count();
    let mut rows: Vec<Vec<u32>> = Vec::with_capacity(k);
    let mut stamp = EpochVisited::new(k);
    for s in 0..k as u32 {
        stamp.clear();
        let mut row: Vec<u32> = Vec::new();
        for &member in scc.members(SccId(s)) {
            for &w in g.out(member) {
                let t = scc.component_of(w).raw();
                if t == s {
                    // Internal edge: the SCC reaches itself.
                    if stamp.insert(s) {
                        row.push(s);
                    }
                    continue;
                }
                if stamp.insert(t) {
                    row.push(t);
                }
                for &q in &rows[t as usize] {
                    if stamp.insert(q) {
                        row.push(q);
                    }
                }
            }
        }
        row.sort_unstable();
        rows.push(row);
    }
    (scc, Csr::from_rows(rows))
}

/// Hybrid variant of the condensation closure: each row is a [`RowSet`]
/// whose representation is chosen per `policy`. Sparse rows are built with
/// the same epoch-stamped merge as [`closure_of_condensation`]; rows whose
/// *estimated* merged size crosses the policy's density crossover are built
/// dense up front, so successor unions run as word-parallel ORs instead of
/// list merges. After the merge each row is normalized (an over-estimated
/// dense row demotes back to sparse under the adaptive policy).
pub fn closure_of_condensation_rows(cond: &Condensation, policy: &RowSetPolicy) -> RowTable {
    let k = cond.vertex_count();
    let mut rows: Vec<RowSet> = Vec::with_capacity(k);
    let mut stamp = EpochVisited::new(k);
    for s in 0..k as u32 {
        let self_loop = cond.has_self_loop(SccId(s));
        // Upper bound of the merged row: the successor edges plus their
        // closure rows (duplicates counted). Deciding the representation
        // *before* merging is what makes the dense path cheap — the
        // alternative (build sparse, then promote) pays the merge twice.
        let mut estimate = usize::from(self_loop);
        for &t in cond.out(SccId(s)) {
            estimate += 1 + rows[t as usize].len();
        }
        let mut row = if policy.wants_dense(estimate.min(k), k as u32) {
            let mut row = RowSet::dense_from_iter(k as u32, std::iter::empty());
            if self_loop {
                row.insert(s);
            }
            for &t in cond.out(SccId(s)) {
                row.insert(t);
                row.union_in_place(&rows[t as usize]);
            }
            row
        } else {
            stamp.clear();
            let mut row: Vec<u32> = Vec::new();
            if self_loop && stamp.insert(s) {
                row.push(s);
            }
            for &t in cond.out(SccId(s)) {
                if stamp.insert(t) {
                    row.push(t);
                }
                for q in rows[t as usize].iter() {
                    if stamp.insert(q) {
                        row.push(q);
                    }
                }
            }
            row.sort_unstable();
            RowSet::from_sorted_vec(row)
        };
        row.normalize(k as u32, policy);
        rows.push(row);
    }
    RowTable::from_rows(rows, k as u32)
}

/// Bitset variant of the condensation closure: every non-empty row is a
/// dense bit vector and the reverse-topological sweep unions successor
/// rows with word-parallel ORs. Faster than list merging when the closure
/// is dense; memory is up to `|V̄_R|²/8` bytes, so callers should prefer
/// the adaptive [`closure_of_condensation_rows`] for large condensations
/// (the `tc_ablation` and `repr_ablation` benches quantify the crossover).
pub fn closure_of_condensation_bitset(cond: &Condensation) -> RowTable {
    closure_of_condensation_rows(cond, &RowSetPolicy::dense())
}

/// Expands a per-SCC closure to per-vertex rows (the Cartesian products of
/// Lemma 3, laid out row-wise). The reachable vertex set is collected once
/// per SCC and cloned per member.
pub fn expand_scc_closure(scc: &Scc, closure: &Csr<u32>, n: usize) -> Csr<u32> {
    let mut rows: Vec<Vec<u32>> = vec![Vec::new(); n];
    for s in 0..scc.count() {
        let succ = closure.row(s);
        if succ.is_empty() {
            continue;
        }
        let mut reach: Vec<u32> = Vec::new();
        for &t in succ {
            reach.extend_from_slice(scc.members(SccId(t)));
        }
        reach.sort_unstable();
        for &member in scc.members(SccId(s as u32)) {
            rows[member as usize] = reach.clone();
        }
    }
    Csr::from_rows(rows)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rows_of(csr: &Csr<u32>) -> Vec<Vec<u32>> {
        csr.iter_rows().map(|r| r.to_vec()).collect()
    }

    #[test]
    fn naive_tc_on_chain() {
        let g = Digraph::from_edges(4, vec![(0, 1), (1, 2), (2, 3)]);
        let tc = tc_naive(&g);
        assert_eq!(
            rows_of(&tc),
            vec![vec![1, 2, 3], vec![2, 3], vec![3], vec![]]
        );
    }

    #[test]
    fn naive_tc_on_cycle_includes_self() {
        let g = Digraph::from_edges(3, vec![(0, 1), (1, 2), (2, 0)]);
        let tc = tc_naive(&g);
        for v in 0..3 {
            assert_eq!(tc.row(v), &[0, 1, 2]);
        }
    }

    #[test]
    fn condensation_closure_example6() {
        // G_{b·c} compact: {v2,v3,v4,v5,v6}→{0,1,2,3,4},
        // edges {(0,2),(0,4),(1,3),(2,0),(3,1)}.
        let g = Digraph::from_edges(5, vec![(0, 2), (0, 4), (1, 3), (2, 0), (3, 1)]);
        let scc = tarjan_scc(&g);
        let cond = Condensation::new(&g, &scc);
        let closure = closure_of_condensation(&cond);
        // TC(Ḡ_{b·c}) = {(s̄{24},s̄{24}), (s̄{24},s̄{6}), (s̄{35},s̄{35})} —
        // 3 pairs (Example 6).
        let total: usize = closure.iter_rows().map(|r| r.len()).sum();
        assert_eq!(total, 3);
        let s24 = scc.component_of(0);
        let s6 = scc.component_of(4);
        let s35 = scc.component_of(1);
        let mut expect_s24 = [s24.raw(), s6.raw()];
        expect_s24.sort_unstable();
        assert_eq!(closure.row(s24.index()), &expect_s24[..]);
        assert_eq!(closure.row(s6.index()), &[] as &[u32]);
        assert_eq!(closure.row(s35.index()), &[s35.raw()]);
    }

    #[test]
    fn tc_condensation_equals_tc_naive() {
        let graphs = [
            Digraph::from_edges(4, vec![(0, 1), (1, 2), (2, 3)]),
            Digraph::from_edges(3, vec![(0, 1), (1, 2), (2, 0)]),
            Digraph::from_edges(5, vec![(0, 2), (0, 4), (1, 3), (2, 0), (3, 1)]),
            Digraph::from_edges(2, vec![(0, 0), (0, 1)]),
            Digraph::from_edges(
                6,
                vec![(0, 1), (1, 0), (1, 2), (2, 3), (3, 2), (3, 4), (4, 5)],
            ),
            Digraph::from_edges(3, vec![]),
        ];
        for (i, g) in graphs.iter().enumerate() {
            assert_eq!(
                rows_of(&tc_condensation(g)),
                rows_of(&tc_naive(g)),
                "graph {i}"
            );
        }
    }

    #[test]
    fn nuutila_matches_two_phase() {
        let graphs = [
            Digraph::from_edges(5, vec![(0, 2), (0, 4), (1, 3), (2, 0), (3, 1)]),
            Digraph::from_edges(4, vec![(0, 1), (1, 2), (2, 3), (3, 0)]),
            Digraph::from_edges(2, vec![(0, 0)]),
            Digraph::from_edges(
                7,
                vec![
                    (0, 1),
                    (1, 2),
                    (2, 0),
                    (2, 3),
                    (3, 4),
                    (4, 5),
                    (5, 4),
                    (6, 0),
                ],
            ),
        ];
        for (i, g) in graphs.iter().enumerate() {
            let (scc_a, closure_a) = nuutila_closure(g);
            let scc_b = tarjan_scc(g);
            let cond = Condensation::new(g, &scc_b);
            let closure_b = closure_of_condensation(&cond);
            assert_eq!(scc_a.count(), scc_b.count(), "graph {i}");
            assert_eq!(rows_of(&closure_a), rows_of(&closure_b), "graph {i}");
        }
    }

    /// Pins the documented contract of `nuutila_closure`: it is a
    /// two-phase computation whose SCC decomposition is *exactly* the
    /// plain Tarjan decomposition (same component ids per vertex, same
    /// member tables), with the closure built in a separate sweep.
    #[test]
    fn nuutila_scc_is_plain_tarjan_decomposition() {
        let g = Digraph::from_edges(
            7,
            vec![
                (0, 1),
                (1, 2),
                (2, 0),
                (2, 3),
                (3, 4),
                (4, 5),
                (5, 4),
                (6, 0),
            ],
        );
        let (scc_a, _) = nuutila_closure(&g);
        let scc_b = tarjan_scc(&g);
        for v in 0..7u32 {
            assert_eq!(scc_a.component_of(v), scc_b.component_of(v), "vertex {v}");
        }
        for s in 0..scc_b.count() as u32 {
            assert_eq!(scc_a.members(SccId(s)), scc_b.members(SccId(s)), "scc {s}");
        }
    }

    #[test]
    fn parallel_tc_naive_matches_sequential() {
        let graphs = [
            Digraph::from_edges(0, vec![]),
            Digraph::from_edges(4, vec![(0, 1), (1, 2), (2, 3)]),
            Digraph::from_edges(3, vec![(0, 1), (1, 2), (2, 0)]),
            Digraph::from_edges(130, (0..129).map(|v| (v, v + 1)).collect()),
            Digraph::from_edges(64, (0..64).map(|v| (v, (v + 1) % 64)).collect()),
        ];
        for (i, g) in graphs.iter().enumerate() {
            let seq = tc_naive(g);
            for threads in [1usize, 2, 8] {
                assert_eq!(
                    tc_naive_parallel(g, threads),
                    seq,
                    "graph {i}, threads {threads}"
                );
            }
        }
    }

    #[test]
    fn self_loop_singleton_closure() {
        let g = Digraph::from_edges(2, vec![(0, 0), (0, 1)]);
        let (scc, closure) = nuutila_closure(&g);
        let s0 = scc.component_of(0);
        let s1 = scc.component_of(1);
        let mut expect = [s0.raw(), s1.raw()];
        expect.sort_unstable();
        assert_eq!(closure.row(s0.index()), &expect[..]);
        assert_eq!(closure.row(s1.index()), &[] as &[u32]);
    }

    #[test]
    fn expand_scc_closure_produces_cartesian_products() {
        // Cycle {0,1} reaching singleton {2}.
        let g = Digraph::from_edges(3, vec![(0, 1), (1, 0), (1, 2)]);
        let tc = tc_condensation(&g);
        assert_eq!(tc.row(0), &[0, 1, 2]);
        assert_eq!(tc.row(1), &[0, 1, 2]);
        assert_eq!(tc.row(2), &[] as &[u32]);
    }

    #[test]
    fn empty_graph_closures() {
        let g = Digraph::from_edges(0, vec![]);
        assert_eq!(tc_naive(&g).rows(), 0);
        assert_eq!(tc_condensation(&g).rows(), 0);
        let (scc, closure) = nuutila_closure(&g);
        assert_eq!(scc.count(), 0);
        assert_eq!(closure.rows(), 0);
    }

    #[test]
    fn bitset_closure_matches_list_closure() {
        let graphs = [
            Digraph::from_edges(5, vec![(0, 2), (0, 4), (1, 3), (2, 0), (3, 1)]),
            Digraph::from_edges(4, vec![(0, 1), (1, 2), (2, 3)]),
            Digraph::from_edges(3, vec![(0, 1), (1, 2), (2, 0)]),
            Digraph::from_edges(2, vec![(0, 0), (0, 1)]),
            Digraph::from_edges(1, vec![]),
            Digraph::from_edges(130, (0..129).map(|v| (v, v + 1)).collect()),
        ];
        for (i, g) in graphs.iter().enumerate() {
            let scc = tarjan_scc(g);
            let cond = Condensation::new(g, &scc);
            let lists = closure_of_condensation(&cond);
            let bits = closure_of_condensation_bitset(&cond);
            assert_eq!(bits.total_len(), lists.len(), "graph {i}: pair totals");
            for s in 0..cond.vertex_count() {
                let row = bits.row(s);
                assert!(row.is_dense() || row.is_empty(), "graph {i}, scc {s}: repr");
                assert_eq!(row.to_vec(), lists.row(s), "graph {i}, scc {s}");
            }
            // The adaptive and forced-sparse sweeps agree element-wise too.
            for policy in [RowSetPolicy::adaptive(), RowSetPolicy::sparse()] {
                let rows = closure_of_condensation_rows(&cond, &policy);
                assert_eq!(rows.total_len(), lists.len(), "graph {i}: {policy:?}");
                for s in 0..cond.vertex_count() {
                    assert_eq!(rows.row(s).to_vec(), lists.row(s), "graph {i}, scc {s}");
                }
            }
        }
    }

    #[test]
    fn closure_pair_counts_match_between_algorithms() {
        let g = Digraph::from_edges(
            8,
            vec![
                (0, 1),
                (1, 2),
                (2, 0),
                (2, 3),
                (3, 4),
                (4, 3),
                (5, 6),
                (6, 7),
            ],
        );
        let naive: usize = tc_naive(&g).len();
        let purdom: usize = tc_condensation(&g).len();
        assert_eq!(naive, purdom);
    }
}
