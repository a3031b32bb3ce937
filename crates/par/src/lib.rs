//! Deterministic data parallelism on scoped threads.
//!
//! [`par_map`] fans work out over a fixed worker count and preserves input
//! order: the output at index `i` is always `f(i, &items[i])`, regardless of
//! which worker computed it or when. That order is what makes parallel
//! results independent of thread count and scheduling: floating-point
//! addition is not associative, so callers that sum the outputs fold them
//! **sequentially in input order** on the calling thread (the trainer sums
//! per-sample gradients this way), never in arrival order, and parallel
//! runs stay bit-identical to sequential ones.
//!
//! Workers are plain [`std::thread::scope`] threads, spawned per call, each
//! claiming one fixed contiguous chunk (no work stealing, no queues, no
//! extra dependencies). With `threads <= 1` or tiny inputs the closure runs
//! inline on the caller, so the sequential path *is* the parallel path with
//! one worker.

use std::num::NonZeroUsize;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Thread count configured for the process; 0 means "not set, use auto".
static CONFIGURED_THREADS: AtomicUsize = AtomicUsize::new(0);

/// Sets the process-wide default worker count used when callers pass
/// `threads = 0` to the fan-out functions. `0` restores auto-detection.
pub fn set_threads(threads: usize) {
    CONFIGURED_THREADS.store(threads, Ordering::Relaxed);
}

/// Number of cores the scheduler will actually give us; 1 when unknown.
pub fn available_cores() -> usize {
    std::thread::available_parallelism().map(NonZeroUsize::get).unwrap_or(1)
}

/// Resolves an effective worker count: an explicit request wins, then the
/// process-wide setting, then the machine's available parallelism. The
/// result is clamped to [`available_cores`] — oversubscribing a container
/// that exposes fewer cores only adds scheduling overhead, and on a
/// one-core box `--threads 4` would otherwise report fake "parallel" runs.
pub fn resolve_threads(requested: usize) -> usize {
    let cores = available_cores();
    let chosen = if requested > 0 {
        requested
    } else {
        let configured = CONFIGURED_THREADS.load(Ordering::Relaxed);
        if configured > 0 {
            configured
        } else {
            cores
        }
    };
    chosen.min(cores).max(1)
}

/// Maps `f` over `items` on up to `threads` workers (0 = default, see
/// [`resolve_threads`]), returning outputs in input order.
///
/// Panics in `f` propagate to the caller.
pub fn par_map<T, U, F>(items: &[T], threads: usize, f: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    F: Fn(usize, &T) -> U + Sync,
{
    let threads = resolve_threads(threads).min(items.len()).max(1);
    if threads == 1 || items.len() <= 1 {
        return items.iter().enumerate().map(|(i, item)| f(i, item)).collect();
    }

    // Fixed contiguous chunks: worker w takes [w*chunk, (w+1)*chunk). The
    // partition depends only on len and thread count, never on timing.
    let chunk = items.len().div_ceil(threads);
    let mut chunks: Vec<Vec<U>> = Vec::new();
    std::thread::scope(|scope| {
        let f = &f;
        let handles: Vec<_> = items
            .chunks(chunk)
            .enumerate()
            .map(|(w, slice)| {
                let base = w * chunk;
                scope.spawn(move || {
                    slice.iter().enumerate().map(|(i, item)| f(base + i, item)).collect::<Vec<U>>()
                })
            })
            .collect();
        chunks = handles
            .into_iter()
            .map(|h| h.join().unwrap_or_else(|e| std::panic::resume_unwind(e)))
            .collect();
    });
    let mut out = Vec::with_capacity(items.len());
    for c in chunks {
        out.extend(c);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Callers fold the outputs in input order (the trainer's per-sample
    /// gradient sums), so this order is what keeps their sums
    /// bit-identical across thread counts.
    #[test]
    fn par_map_preserves_order() {
        let items: Vec<usize> = (0..103).collect();
        for threads in [1, 2, 3, 4, 7] {
            let out = par_map(&items, threads, |i, &x| {
                assert_eq!(i, x, "index must match position");
                x * 2
            });
            assert_eq!(out, items.iter().map(|x| x * 2).collect::<Vec<_>>());
        }
    }

    #[test]
    fn handles_edge_sizes() {
        let empty: Vec<u8> = Vec::new();
        assert!(par_map(&empty, 4, |_, &x| x).is_empty());
        assert_eq!(par_map(&[5u8], 4, |_, &x| x + 1), vec![6]);
        // More threads than items.
        let two = [1u8, 2];
        assert_eq!(par_map(&two, 16, |_, &x| x), vec![1, 2]);
    }

    #[test]
    fn configured_default_is_used() {
        let cores = available_cores();
        set_threads(3);
        assert_eq!(resolve_threads(0), 3.min(cores));
        assert_eq!(resolve_threads(5), 5.min(cores));
        set_threads(0);
        assert!(resolve_threads(0) >= 1);
    }

    #[test]
    fn resolved_threads_never_exceed_available_cores() {
        let cores = available_cores();
        for requested in [0, 1, 2, cores, cores + 1, 1024] {
            let effective = resolve_threads(requested);
            assert!(effective >= 1);
            assert!(effective <= cores, "requested {requested} resolved to {effective} > {cores}");
        }
    }

    #[test]
    #[should_panic(expected = "worker boom")]
    fn worker_panics_propagate() {
        let items: Vec<usize> = (0..64).collect();
        par_map(&items, 4, |_, &x| {
            if x == 63 {
                panic!("worker boom");
            }
            x
        });
    }
}
