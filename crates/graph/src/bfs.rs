//! Breadth-first reachability primitives and reusable visited buffers.
//!
//! Transitive-closure and product-graph traversals run one search per source
//! vertex. Allocating (or zeroing) a fresh visited array per source would
//! cost `O(|V|)` each time; [`EpochVisited`] instead stamps cells with a
//! generation counter so that "clearing" is a single increment — the
//! workhorse-buffer idiom from the performance guide.

use crate::digraph::Digraph;

/// A visited set over `0..n` that clears in O(1) by bumping an epoch.
#[derive(Clone, Debug)]
pub struct EpochVisited {
    stamp: Vec<u32>,
    epoch: u32,
}

impl EpochVisited {
    /// A visited buffer for ids `0..n`, initially all unvisited.
    pub fn new(n: usize) -> Self {
        // Epoch starts at 1 so a fresh buffer (stamps all 0) is usable
        // without a leading `clear()`.
        Self {
            stamp: vec![0; n],
            epoch: 1,
        }
    }

    /// Number of addressable ids.
    pub fn len(&self) -> usize {
        self.stamp.len()
    }

    /// Whether the buffer addresses no ids.
    pub fn is_empty(&self) -> bool {
        self.stamp.is_empty()
    }

    /// Starts a new generation; all cells become unvisited.
    #[inline]
    pub fn clear(&mut self) {
        self.epoch += 1;
        if self.epoch == u32::MAX {
            // Epoch wrapped: do the O(n) reset once every 2^32 - 1 clears.
            self.stamp.fill(0);
            self.epoch = 1;
        }
    }

    /// Marks `v` visited; returns `true` if it was not visited before.
    #[inline]
    pub fn insert(&mut self, v: u32) -> bool {
        let cell = &mut self.stamp[v as usize];
        if *cell == self.epoch {
            false
        } else {
            *cell = self.epoch;
            true
        }
    }

    /// Whether `v` is visited in the current generation.
    #[inline]
    pub fn contains(&self, v: u32) -> bool {
        self.stamp[v as usize] == self.epoch
    }
}

/// Vertices reachable from `src` by a path of length ≥ 1, ascending.
///
/// `src` itself is included only when it lies on a cycle (or has a
/// self-loop) — exactly the membership rule of `TC(G_R)` and hence of
/// `R⁺_G` (Lemma 1).
pub fn reachable_ge1(
    g: &Digraph,
    src: u32,
    visited: &mut EpochVisited,
    queue: &mut Vec<u32>,
) -> Vec<u32> {
    debug_assert_eq!(visited.len(), g.vertex_count());
    visited.clear();
    queue.clear();
    let mut out = Vec::new();
    for &w in g.out(src) {
        if visited.insert(w) {
            queue.push(w);
            out.push(w);
        }
    }
    let mut head = 0;
    while head < queue.len() {
        let v = queue[head];
        head += 1;
        for &w in g.out(v) {
            if visited.insert(w) {
                queue.push(w);
                out.push(w);
            }
        }
    }
    out.sort_unstable();
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// [`reachable_ge1`] with fresh scratch buffers.
    fn reach(g: &Digraph, src: u32) -> Vec<u32> {
        let mut visited = EpochVisited::new(g.vertex_count());
        reachable_ge1(g, src, &mut visited, &mut Vec::new())
    }

    #[test]
    fn epoch_visited_basic() {
        let mut v = EpochVisited::new(4);
        // Fresh buffer is fully unvisited without a leading clear().
        assert!(!v.contains(2));
        assert!(v.insert(2));
        assert!(!v.insert(2));
        assert!(v.contains(2));
        assert!(!v.contains(3));
        v.clear();
        assert!(!v.contains(2));
        assert!(v.insert(2));
    }

    #[test]
    fn epoch_visited_many_generations() {
        let mut v = EpochVisited::new(2);
        for _ in 0..10_000 {
            v.clear();
            assert!(v.insert(0));
            assert!(!v.insert(0));
        }
    }

    #[test]
    fn reachability_excludes_acyclic_source() {
        let g = Digraph::from_edges(4, vec![(0, 1), (1, 2), (2, 3)]);
        assert_eq!(reach(&g, 0), vec![1, 2, 3]);
        assert_eq!(reach(&g, 3), Vec::<u32>::new());
    }

    #[test]
    fn reachability_includes_source_on_cycle() {
        let g = Digraph::from_edges(3, vec![(0, 1), (1, 0), (1, 2)]);
        assert_eq!(reach(&g, 0), vec![0, 1, 2]);
        assert_eq!(reach(&g, 2), Vec::<u32>::new());
    }

    #[test]
    fn reachability_self_loop() {
        let g = Digraph::from_edges(2, vec![(0, 0)]);
        assert_eq!(reach(&g, 0), vec![0]);
        assert_eq!(reach(&g, 1), Vec::<u32>::new());
    }

    #[test]
    fn scratch_reuse_is_safe() {
        let g = Digraph::from_edges(3, vec![(0, 1), (1, 2), (2, 0)]);
        let mut visited = EpochVisited::new(3);
        let mut queue = Vec::new();
        for src in 0..3 {
            let r = reachable_ge1(&g, src, &mut visited, &mut queue);
            assert_eq!(r, vec![0, 1, 2], "src {src}");
        }
    }
}
