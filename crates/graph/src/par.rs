//! A hand-rolled scoped-thread map (`std::thread::scope` only — no
//! external dependencies).
//!
//! [`par_map`] is the one parallel primitive: `Engine::evaluate_set` fans a
//! set's queries out with it, one query per index. Workers pull indices
//! from a shared atomic cursor (dynamic load balancing — query costs are
//! highly skewed) and the results come back in index order, so a caller
//! sees exactly what the sequential loop would produce. Every closure is
//! built sequentially.

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

/// Maps `f` over `0..len` on up to `threads` scoped workers, returning the
/// results in index order.
///
/// `threads == 0` uses every available core; `threads == 1` (or `len <= 1`)
/// runs inline with no thread spawned at all. A panic inside `f` reaches
/// the caller with the worker's own payload.
pub fn par_map<T, F>(threads: usize, len: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let threads = effective_threads(threads).min(len);
    if threads <= 1 {
        return (0..len).map(f).collect();
    }
    let cursor = AtomicUsize::new(0);
    let mut slots: Vec<Option<T>> = (0..len).map(|_| None).collect();
    std::thread::scope(|s| {
        let worker = || {
            let mut out = Vec::new();
            loop {
                let i = cursor.fetch_add(1, Ordering::Relaxed);
                if i >= len {
                    return out;
                }
                out.push((i, f(i)));
            }
        };
        let handles: Vec<_> = (0..threads).map(|_| s.spawn(worker)).collect();
        for handle in handles {
            match handle.join() {
                Ok(out) => out.into_iter().for_each(|(i, t)| slots[i] = Some(t)),
                Err(payload) => std::panic::resume_unwind(payload),
            }
        }
    });
    // The cursor hands out every index exactly once, so no slot is empty.
    slots.into_iter().flatten().collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_length_yields_nothing() {
        assert!(par_map(4, 0, |i| i).is_empty());
    }

    #[test]
    fn results_come_back_in_index_order() {
        for threads in [0usize, 1, 2, 3, 8] {
            for len in [1usize, 2, 23, 100] {
                let out = par_map(threads, len, |i| i * i);
                let expect: Vec<usize> = (0..len).map(|i| i * i).collect();
                assert_eq!(out, expect, "threads={threads} len={len}");
            }
        }
    }

    #[test]
    fn one_thread_runs_inline() {
        let here = std::thread::current().id();
        let out = par_map(1, 3, |_| std::thread::current().id());
        assert_eq!(out, vec![here; 3]);
    }

    #[test]
    fn worker_panic_keeps_its_message() {
        let caught = std::panic::catch_unwind(|| {
            par_map(2, 4, |i| {
                if i == 3 {
                    panic!("query 3 failed");
                }
                i
            })
        });
        let payload = caught.expect_err("the worker's panic reaches the caller");
        assert_eq!(payload.downcast_ref::<&str>(), Some(&"query 3 failed"));
    }

    #[test]
    fn effective_threads_resolves_zero_and_caps_absurd_requests() {
        assert!(effective_threads(0) >= 1);
        assert_eq!(effective_threads(3), 3);
        let cap = (available_threads() * 4).max(8);
        assert_eq!(effective_threads(100_000), cap);
        assert_eq!(effective_threads(8), 8.min(cap));
    }
}
