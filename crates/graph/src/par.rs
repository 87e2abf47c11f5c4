//! A hand-rolled scoped-thread worker pool (`std::thread::scope` only —
//! no external dependencies).
//!
//! The closure-construction and batch-evaluation hot paths are
//! embarrassingly parallel: one BFS per vertex, one Cartesian product per
//! SCC, one query per batch slot. This module gives them a single shared
//! primitive: split `0..len` into fixed-size chunks, let workers grab
//! chunks from an atomic counter (dynamic load balancing — BFS and
//! expansion costs are highly skewed across sources), and reassemble the
//! per-chunk results in deterministic index order. Parallel callers
//! therefore produce *bitwise-identical* output to their sequential
//! counterparts, which the property tests in `rpq_reduction` and the
//! facade crate pin down.
//!
//! Worker state (scratch buffers, cache snapshots) is created once per
//! worker via an `init` closure and reused across every chunk that worker
//! processes — the same workhorse-buffer idiom `EpochVisited` exists for.

use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Number of threads the host exposes (`available_parallelism`), with a
/// fallback of 1 when the platform cannot tell.
pub fn available_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Resolves a requested thread count: `0` means "all available cores";
/// anything else is taken literally up to a cap of
/// `max(4 × available cores, 8)` — modest oversubscription is harmless
/// (and lets correctness tests exercise multi-worker paths on small
/// hosts), but an absurd request must not translate into thousands of OS
/// threads.
pub fn effective_threads(requested: usize) -> usize {
    let available = available_threads();
    if requested == 0 {
        available
    } else {
        requested.min((available * 4).max(8))
    }
}

/// The half-open range of chunk `i` when `0..len` is cut into `chunk`-sized
/// pieces.
#[inline]
fn chunk_range(i: usize, chunk: usize, len: usize) -> Range<usize> {
    let start = i * chunk;
    start..(start + chunk).min(len)
}

/// Maps chunks of `0..len` through `f` on up to `threads` scoped workers,
/// returning the per-chunk results in chunk order.
///
/// `threads == 0` uses every available core; `threads == 1` (or a single
/// chunk) runs inline with no thread spawned at all, so the sequential
/// fallback has zero overhead.
pub fn par_map_chunks<T, F>(threads: usize, len: usize, chunk: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(Range<usize>) -> T + Sync,
{
    par_map_chunks_with(threads, len, chunk, || (), |(), r| f(r))
}

/// [`par_map_chunks`] with per-worker state: `init` runs once on each
/// worker and the resulting state is threaded through every chunk that
/// worker grabs (scratch buffers, visited sets, …).
pub fn par_map_chunks_with<S, T, FS, F>(
    threads: usize,
    len: usize,
    chunk: usize,
    init: FS,
    f: F,
) -> Vec<T>
where
    S: Send,
    T: Send,
    FS: Fn() -> S + Sync,
    F: Fn(&mut S, Range<usize>) -> T + Sync,
{
    let chunk = chunk.max(1);
    let n_chunks = len.div_ceil(chunk);
    if n_chunks == 0 {
        return Vec::new();
    }
    let threads = effective_threads(threads).min(n_chunks);
    if threads <= 1 {
        let mut state = init();
        return (0..n_chunks)
            .map(|i| f(&mut state, chunk_range(i, chunk, len)))
            .collect();
    }

    // Workers pull chunk indices from a shared atomic cursor (dynamic load
    // balancing) and keep `(index, result)` pairs locally; the scope join
    // then scatters them back into chunk order, so the caller sees the
    // exact sequential ordering regardless of scheduling.
    let cursor = AtomicUsize::new(0);
    let per_worker: Vec<Vec<(usize, T)>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                s.spawn(|| {
                    let mut state = init();
                    let mut out: Vec<(usize, T)> = Vec::new();
                    loop {
                        let i = cursor.fetch_add(1, Ordering::Relaxed);
                        if i >= n_chunks {
                            break;
                        }
                        out.push((i, f(&mut state, chunk_range(i, chunk, len))));
                    }
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("par worker panicked"))
            .collect()
    });

    let mut slots: Vec<Option<T>> = (0..n_chunks).map(|_| None).collect();
    for (i, t) in per_worker.into_iter().flatten() {
        debug_assert!(slots[i].is_none(), "chunk {i} computed twice");
        slots[i] = Some(t);
    }
    slots
        .into_iter()
        .map(|o| o.expect("chunk never scheduled"))
        .collect()
}

/// A chunk size that gives each worker several chunks to balance across,
/// clamped to `[min, max]` so tiny inputs stay cheap and huge inputs don't
/// serialize behind one oversized chunk.
pub fn balanced_chunk(len: usize, threads: usize, min: usize, max: usize) -> usize {
    (len / (threads.max(1) * 8)).clamp(min, max)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_length_yields_nothing() {
        let out = par_map_chunks_with(4, 0, 8, || 0u32, |_, _| 1u32);
        assert!(out.is_empty());
    }

    #[test]
    fn sequential_and_parallel_agree() {
        for threads in [1usize, 2, 3, 8] {
            for chunk in [1usize, 3, 7, 100] {
                let out = par_map_chunks(threads, 23, chunk, |r| r.sum::<usize>());
                let expect: Vec<usize> = (0..23usize.div_ceil(chunk))
                    .map(|i| chunk_range(i, chunk, 23).sum::<usize>())
                    .collect();
                assert_eq!(out, expect, "threads={threads} chunk={chunk}");
            }
        }
    }

    #[test]
    fn chunks_cover_the_range_exactly_once() {
        let out = par_map_chunks(4, 100, 7, |r| r.collect::<Vec<usize>>());
        let flat: Vec<usize> = out.into_iter().flatten().collect();
        assert_eq!(flat, (0..100).collect::<Vec<usize>>());
    }

    #[test]
    fn worker_state_reused_across_chunks() {
        // Each worker counts the chunks it processed: the outputs come back
        // in chunk order and cover the range, and a count starts at 1 once
        // per worker — never more than three times, however work was stolen.
        let out = par_map_chunks_with(
            3,
            50,
            4,
            || 0usize,
            |count, r| {
                *count += 1;
                (r.start, *count)
            },
        );
        let starts: Vec<usize> = out.iter().map(|&(start, _)| start).collect();
        assert_eq!(starts, (0..50).step_by(4).collect::<Vec<_>>());
        let fresh_states = out.iter().filter(|&&(_, count)| count == 1).count();
        assert!(
            (1..=3).contains(&fresh_states),
            "{fresh_states} fresh states"
        );
    }

    #[test]
    fn single_chunk_runs_inline() {
        // len <= chunk collapses to one chunk and the sequential path: the
        // chunk runs on the calling thread.
        let here = std::thread::current().id();
        let out = par_map_chunks_with(
            8,
            5,
            100,
            || (),
            |_, r| (r.len(), std::thread::current().id()),
        );
        assert_eq!(out, vec![(5, here)]);
    }

    #[test]
    fn effective_threads_resolves_zero_and_caps_absurd_requests() {
        assert!(effective_threads(0) >= 1);
        assert_eq!(effective_threads(3), 3);
        let cap = (available_threads() * 4).max(8);
        assert_eq!(effective_threads(100_000), cap);
        assert_eq!(effective_threads(8), 8.min(cap));
    }

    #[test]
    fn balanced_chunk_respects_bounds() {
        assert_eq!(balanced_chunk(10, 4, 4, 512), 4);
        assert_eq!(balanced_chunk(1 << 20, 2, 4, 512), 512);
        let mid = balanced_chunk(1600, 2, 4, 512);
        assert_eq!(mid, 100);
    }
}
