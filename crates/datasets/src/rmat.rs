//! R-MAT synthetic graph generation.
//!
//! The recursive matrix model of Chakrabarti, Zhan & Faloutsos \[17\]: each
//! edge endpoint pair is sampled by recursively descending into one of the
//! four quadrants of the adjacency matrix with probabilities `(a, b, c, d)`.
//! TrillionG \[18\] (the paper's generator) uses the same model; we default to
//! its canonical skew `a=0.57, b=0.19, c=0.19, d=0.05`.
//!
//! Labels are assigned uniformly at random, reproducing the paper's
//! "we randomly added a label to each edge" step. Generation is
//! deterministic per seed. Because the data model deduplicates
//! `(src, label, dst)` triples, the generator *tops up* until the requested
//! number of distinct edges is reached (bounded retries), so the
//! `|E|/(|V|·|Σ|)` degree parameter is exact.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rpq_graph::{GraphBuilder, LabeledMultigraph, MAX_VERTICES};
use rustc_hash::FxHashSet;

/// R-MAT generation parameters.
#[derive(Clone, Debug)]
pub struct RmatConfig {
    /// log2 of the vertex count.
    pub scale: u32,
    /// Number of distinct `(src, label, dst)` edges to generate.
    pub edges: usize,
    /// Number of labels (`|Σ|`), named `l0..l{n-1}`.
    pub labels: usize,
    /// Quadrant probabilities; must sum to ~1.
    pub a: f64,
    /// Top-right quadrant probability.
    pub b: f64,
    /// Bottom-left quadrant probability.
    pub c: f64,
    /// Bottom-right quadrant probability.
    pub d: f64,
    /// RNG seed (generation is fully deterministic per seed).
    pub seed: u64,
}

impl RmatConfig {
    /// The canonical TrillionG skew with the given size parameters.
    pub fn new(scale: u32, edges: usize, labels: usize, seed: u64) -> Self {
        Self {
            scale,
            edges,
            labels,
            a: 0.57,
            b: 0.19,
            c: 0.19,
            d: 0.05,
            seed,
        }
    }

    /// Vertex count (`2^scale`).
    pub fn vertex_count(&self) -> usize {
        1usize << self.scale
    }
}

/// Generates an edge-labeled R-MAT multigraph.
pub fn rmat_graph(config: &RmatConfig) -> LabeledMultigraph {
    let mut rng = StdRng::seed_from_u64(config.seed);
    let n = config.vertex_count();
    let mut builder = GraphBuilder::with_capacity(config.edges);
    builder.ensure_vertices(n);
    // Fix the alphabet ordering up front so label ids are stable.
    let label_ids: Vec<_> = (0..config.labels)
        .map(|i| builder.intern_label(&format!("l{i}")))
        .collect();

    let mut seen: FxHashSet<(u32, u32, u32)> = FxHashSet::default();
    seen.reserve(config.edges);
    // Top up to the exact edge count; cap attempts so dense corner cases
    // (edges close to n²·labels) cannot loop forever.
    let max_attempts = config.edges.saturating_mul(20).max(1024);
    let mut attempts = 0usize;
    while seen.len() < config.edges && attempts < max_attempts {
        attempts += 1;
        let (src, dst) = sample_edge(&mut rng, config);
        let label = label_ids[rng.gen_range(0..config.labels)];
        if seen.insert((src, label.raw(), dst)) {
            builder.add_edge_id(src, label, dst);
        }
    }
    builder.build()
}

/// The paper's `RMAT_N` family: `2^13` vertices, `2^(N+13)` edges, 4 labels.
/// Per-label vertex degree is `2^(N-2)`.
pub fn rmat_n(n: u32, seed: u64) -> LabeledMultigraph {
    rmat_graph(&RmatConfig::new(13, 1usize << (n + 13), 4, seed))
}

/// A scaled `RMAT_N`-shaped graph: `2^scale` vertices with the same
/// per-label degree `2^(N-2)` as `RMAT_N`. Used by the fast experiment
/// profiles (`|V| = 2^11`) — the degree parameter, which is what the
/// paper's analysis depends on, is preserved exactly.
///
/// Panics when [`rmat_n_scaled_edges`] refuses `(n, scale)`.
pub fn rmat_n_scaled(n: u32, scale: u32, seed: u64) -> LabeledMultigraph {
    let edges = rmat_n_scaled_edges(n, scale).expect("RMAT size out of range");
    rmat_graph(&RmatConfig::new(scale, edges, 4, seed))
}

/// The edge count `2^(n + scale)` of [`rmat_n_scaled`], or `None` when its
/// `2^scale` vertices exceed [`MAX_VERTICES`] or the edge count does not fit
/// a `usize`.
pub fn rmat_n_scaled_edges(n: u32, scale: u32) -> Option<usize> {
    let vertices = 1usize.checked_shl(scale)?;
    let edges = 1usize.checked_shl(n.checked_add(scale)?)?;
    (vertices <= MAX_VERTICES).then_some(edges)
}

fn sample_edge(rng: &mut StdRng, config: &RmatConfig) -> (u32, u32) {
    let (mut x0, mut x1) = (0u64, (1u64 << config.scale) - 1);
    let (mut y0, mut y1) = (0u64, (1u64 << config.scale) - 1);
    let ab = config.a + config.b;
    let abc = ab + config.c;
    while x0 < x1 || y0 < y1 {
        let r: f64 = rng.gen();
        let (right, down) = if r < config.a {
            (false, false)
        } else if r < ab {
            (true, false)
        } else if r < abc {
            (false, true)
        } else {
            (true, true)
        };
        if x0 < x1 {
            let mid = x0 + (x1 - x0) / 2;
            if right {
                x0 = mid + 1;
            } else {
                x1 = mid;
            }
        }
        if y0 < y1 {
            let mid = y0 + (y1 - y0) / 2;
            if down {
                y0 = mid + 1;
            } else {
                y1 = mid;
            }
        }
    }
    // R-MAT quadrant convention: x = source, y = destination.
    (x0 as u32, y0 as u32)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rpq_graph::GraphStats;

    #[test]
    fn scaled_sizes_past_the_id_space_or_usize_are_refused() {
        assert_eq!(rmat_n_scaled_edges(2, 11), Some(1 << 13));
        assert_eq!(rmat_n_scaled_edges(2, 31), Some(1 << 33));
        // 2^32 vertices and up leave the u32 id space; a shift of 64 or
        // more, or an exponent sum that overflows, is refused.
        for (n, scale) in [(2, 32), (2, 40), (2, 64), (60, 10), (u32::MAX, 1)] {
            assert_eq!(rmat_n_scaled_edges(n, scale), None, "rmat {n} {scale}");
        }
    }

    #[test]
    fn exact_sizes() {
        let g = rmat_graph(&RmatConfig::new(8, 1000, 4, 42));
        assert_eq!(g.vertex_count(), 256);
        assert_eq!(g.edge_count(), 1000);
        assert_eq!(g.label_count(), 4);
    }

    #[test]
    fn deterministic_per_seed() {
        let a = rmat_graph(&RmatConfig::new(8, 500, 3, 7));
        let b = rmat_graph(&RmatConfig::new(8, 500, 3, 7));
        let ea: Vec<_> = a.all_edges().collect();
        let eb: Vec<_> = b.all_edges().collect();
        assert_eq!(ea, eb);
    }

    #[test]
    fn different_seeds_differ() {
        let a = rmat_graph(&RmatConfig::new(8, 500, 3, 1));
        let b = rmat_graph(&RmatConfig::new(8, 500, 3, 2));
        let ea: Vec<_> = a.all_edges().collect();
        let eb: Vec<_> = b.all_edges().collect();
        assert_ne!(ea, eb);
    }

    #[test]
    fn rmat_n_family_shape() {
        // RMAT_0 at reduced check size is impractical here; verify the
        // formulas on RMAT_0 (2^13 vertices, 2^13 edges).
        let g = rmat_n(0, 42);
        let s = GraphStats::of(&g);
        assert_eq!(s.vertices, 1 << 13);
        assert_eq!(s.edges, 1 << 13);
        assert_eq!(s.labels, 4);
        // Degree per label = 2^(0-2) = 0.25.
        assert!((s.degree_per_label - 0.25).abs() < 1e-9);
    }

    #[test]
    fn rmat_n_scaled_preserves_degree() {
        let g = rmat_n_scaled(3, 10, 42); // 1024 vertices, 8192 edges
        assert_eq!(g.vertex_count(), 1024);
        assert_eq!(g.edge_count(), 8192);
        // Degree per label = 2^(3-2) = 2.
        assert!((g.degree_per_label() - 2.0).abs() < 1e-9);
    }

    #[test]
    fn skew_produces_hubs() {
        // With a=0.57 the low-id quadrant is heavily favored: vertex 0's
        // out-degree should far exceed the average.
        let g = rmat_graph(&RmatConfig::new(10, 10_000, 1, 123));
        let avg = 10_000.0 / 1024.0;
        let deg0 = g.out_edges(rpq_graph::VertexId(0)).len() as f64;
        assert!(deg0 > avg * 5.0, "deg0={deg0}, avg={avg}");
    }

    #[test]
    fn uniform_quadrants_are_not_skewed() {
        let cfg = RmatConfig {
            a: 0.25,
            b: 0.25,
            c: 0.25,
            d: 0.25,
            ..RmatConfig::new(10, 10_000, 1, 123)
        };
        let g = rmat_graph(&cfg);
        let deg0 = g.out_edges(rpq_graph::VertexId(0)).len() as f64;
        let avg = 10_000.0 / 1024.0;
        assert!(
            deg0 < avg * 5.0,
            "uniform should not produce hub at 0: {deg0}"
        );
    }

    #[test]
    fn dense_request_terminates() {
        // Request more distinct triples than attempts allow on a tiny
        // matrix; must terminate with fewer edges rather than loop.
        let g = rmat_graph(&RmatConfig::new(2, 1_000, 1, 5));
        assert!(g.edge_count() <= 16); // at most n² · |Σ| possible
    }

    #[test]
    fn all_vertices_in_range() {
        let g = rmat_graph(&RmatConfig::new(6, 2_000, 2, 9));
        for (s, _, d) in g.all_edges() {
            assert!(s.index() < 64);
            assert!(d.index() < 64);
        }
    }
}
