//! Breadth-first reachability over an unlabeled digraph.
//!
//! Closure building runs one search per source vertex, so the visited set
//! is a [`Cover`] the caller keeps across sources: it empties over the
//! words the last search set, never the whole vertex range.

use crate::digraph::Digraph;
use crate::rowset::Cover;

/// Vertices reachable from `src` by a path of length ≥ 1, ascending.
///
/// `src` itself is included only when it lies on a cycle (or has a
/// self-loop) — exactly the membership rule of `TC(G_R)` and hence of
/// `R⁺_G` (Lemma 1).
pub fn reachable_ge1(g: &Digraph, src: u32, visited: &mut Cover, queue: &mut Vec<u32>) -> Vec<u32> {
    visited.clear();
    queue.clear();
    // `src` is not marked visited: a path back to it queues it again.
    queue.push(src);
    let mut head = 0;
    while let Some(&v) = queue.get(head) {
        head += 1;
        for &w in g.out(v) {
            if visited.insert(w) {
                queue.push(w);
            }
        }
    }
    let mut out = Vec::with_capacity(queue.len() - 1);
    visited.drain_ascending(|v| out.push(v));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// [`reachable_ge1`] with fresh scratch buffers.
    fn reach(g: &Digraph, src: u32) -> Vec<u32> {
        let mut visited = Cover::new(g.vertex_count());
        reachable_ge1(g, src, &mut visited, &mut Vec::new())
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
        let mut visited = Cover::new(3);
        let mut queue = Vec::new();
        for src in 0..3 {
            let r = reachable_ge1(&g, src, &mut visited, &mut queue);
            assert_eq!(r, vec![0, 1, 2], "src {src}");
        }
    }
}
