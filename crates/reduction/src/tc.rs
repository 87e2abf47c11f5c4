//! Transitive-closure algorithms on unlabeled digraphs.
//!
//! The two closure costs TABLE III compares, with one contract (`TC` =
//! pairs reachable by paths of length ≥ 1):
//!
//! * [`tc_naive`] — per-vertex BFS, `O(|V|·|E|)`. This is what FullSharing
//!   pays to materialize `R⁺_G = TC(G_R)` (TABLE III, left column), and the
//!   oracle every closure test compares against.
//! * [`closure_of_condensation_rows`] — Purdom's scheme \[12\]: close the
//!   much smaller condensation `Ḡ_R` (a DAG with self-loops) in reverse
//!   topological order. The un-expanded SCC closure is exactly the RTC
//!   (TABLE III, right column).
//!
//! The naive BFS is embarrassingly parallel; [`tc_naive_parallel`] shards
//! it over the scoped-thread pool of [`rpq_graph::par`] and is
//! property-tested to be bitwise-identical to its sequential counterpart.
//!
//! All closure rows are sorted ascending, so downstream joins can merge.

use rpq_graph::{
    par, Condensation, Csr, Digraph, EpochVisited, RowSet, RowSetPolicy, RowTable, SccId,
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

/// Closure of a condensation: row `s̄` holds the SCC ids reachable from
/// `s̄` via ≥ 1 edge of `Ḡ_R` (self-loops included), as a [`RowSet`] whose
/// representation is chosen per `policy`.
///
/// Exploits the reverse-topological numbering of Tarjan SCC ids: a single
/// ascending sweep sees every successor row before it is needed. Sparse
/// rows are merged through an epoch-stamped scratch array, so their cost is
/// proportional to the sum of merged list lengths; rows whose *estimated*
/// merged size crosses the policy's density crossover are built dense up
/// front, so successor unions run as word-parallel ORs instead of list
/// merges ([`RowSetPolicy::dense`] makes every non-empty row a bit vector,
/// at up to `|V̄_R|²/8` bytes). After the merge each row is normalized (an
/// over-estimated dense row demotes back to sparse under the adaptive
/// policy).
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

#[cfg(test)]
mod tests {
    use super::*;
    use rpq_graph::{tarjan_scc, Scc};

    fn rows_of(csr: &Csr<u32>) -> Vec<Vec<u32>> {
        csr.iter_rows().map(|r| r.to_vec()).collect()
    }

    fn condense(g: &Digraph) -> (Scc, Condensation) {
        let scc = tarjan_scc(g);
        let cond = Condensation::new(g, &scc);
        (scc, cond)
    }

    /// Per-vertex reachability rows from a per-SCC closure (the Cartesian
    /// products of Lemma 3, laid out row-wise).
    fn expand_by_membership(scc: &Scc, closure: &RowTable, n: usize) -> Vec<Vec<u32>> {
        (0..n as u32)
            .map(|v| {
                let mut reach: Vec<u32> = closure
                    .row(scc.component_of(v).index())
                    .iter()
                    .flat_map(|t| scc.members(SccId(t)).iter().copied())
                    .collect();
                reach.sort_unstable();
                reach
            })
            .collect()
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
        let (scc, cond) = condense(&g);
        let closure = closure_of_condensation_rows(&cond, &RowSetPolicy::adaptive());
        // TC(Ḡ_{b·c}) = {(s̄{24},s̄{24}), (s̄{24},s̄{6}), (s̄{35},s̄{35})} —
        // 3 pairs (Example 6).
        assert_eq!(closure.total_len(), 3);
        let s24 = scc.component_of(0);
        let s6 = scc.component_of(4);
        let s35 = scc.component_of(1);
        let mut expect_s24 = vec![s24.raw(), s6.raw()];
        expect_s24.sort_unstable();
        assert_eq!(closure.row(s24.index()).to_vec(), expect_s24);
        assert!(closure.row(s6.index()).is_empty());
        assert_eq!(closure.row(s35.index()).to_vec(), vec![s35.raw()]);
    }

    /// The condensation sweep under every row policy, expanded by SCC
    /// membership, is the naive closure; the forced-dense sweep builds only
    /// bit-vector rows.
    #[test]
    fn condensation_closure_expands_to_tc_naive() {
        let graphs = [
            Digraph::from_edges(4, vec![(0, 1), (1, 2), (2, 3)]),
            Digraph::from_edges(3, vec![(0, 1), (1, 2), (2, 0)]),
            Digraph::from_edges(5, vec![(0, 2), (0, 4), (1, 3), (2, 0), (3, 1)]),
            Digraph::from_edges(2, vec![(0, 0), (0, 1)]),
            Digraph::from_edges(3, vec![(0, 1), (1, 0), (1, 2)]),
            Digraph::from_edges(
                6,
                vec![(0, 1), (1, 0), (1, 2), (2, 3), (3, 2), (3, 4), (4, 5)],
            ),
            Digraph::from_edges(
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
            ),
            Digraph::from_edges(3, vec![]),
            Digraph::from_edges(1, vec![]),
            Digraph::from_edges(130, (0..129).map(|v| (v, v + 1)).collect()),
        ];
        for (i, g) in graphs.iter().enumerate() {
            let (scc, cond) = condense(g);
            let naive = rows_of(&tc_naive(g));
            for policy in [
                RowSetPolicy::adaptive(),
                RowSetPolicy::sparse(),
                RowSetPolicy::dense(),
            ] {
                let closure = closure_of_condensation_rows(&cond, &policy);
                assert_eq!(
                    expand_by_membership(&scc, &closure, g.vertex_count()),
                    naive,
                    "graph {i}: {policy:?}"
                );
                if policy == RowSetPolicy::dense() {
                    for s in 0..cond.vertex_count() {
                        let row = closure.row(s);
                        assert!(row.is_dense() || row.is_empty(), "graph {i}, scc {s}: repr");
                    }
                }
            }
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
        let (scc, cond) = condense(&g);
        let closure = closure_of_condensation_rows(&cond, &RowSetPolicy::adaptive());
        let s0 = scc.component_of(0);
        let s1 = scc.component_of(1);
        let mut expect = vec![s0.raw(), s1.raw()];
        expect.sort_unstable();
        assert_eq!(closure.row(s0.index()).to_vec(), expect);
        assert!(closure.row(s1.index()).is_empty());
    }

    #[test]
    fn empty_graph_closures() {
        let g = Digraph::from_edges(0, vec![]);
        assert_eq!(tc_naive(&g).rows(), 0);
        let (scc, cond) = condense(&g);
        assert_eq!(scc.count(), 0);
        let closure = closure_of_condensation_rows(&cond, &RowSetPolicy::adaptive());
        assert_eq!(closure.total_len(), 0);
    }
}
