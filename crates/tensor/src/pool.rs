//! Thread-local, size-bucketed buffer pool behind every [`crate::Tensor`].
//!
//! Each worker thread keeps free lists of `Vec<f32>` buffers bucketed by
//! power-of-two capacity. [`take`] pops from the bucket whose buffers are
//! guaranteed to hold the requested length (capacity rounded *up* to the
//! next power of two on a miss, so a buffer allocated for a shape re-enters
//! the exact bucket that shape asks for next time); [`give`] files a
//! retiring buffer under `floor(log2(capacity))`. `Tensor`'s `Drop` impl
//! routes every buffer through [`give`], so recycling needs no call-site
//! cooperation and a buffer can only be reused after its tensor is gone —
//! live tensors never alias by construction.
//!
//! Reuse order is deterministic: each bucket is a LIFO stack and the pool is
//! thread-local, so a single-threaded run replays the same take/give
//! sequence every time. This preserves the bit-identical-across-thread-count
//! training guarantee — pooling changes *where* a buffer lives, never what
//! is computed.
//!
//! Statistics (hits / misses / recycled and allocated bytes) are plain
//! process-wide atomics that stay live even when observability is disabled,
//! because the benchmark ledger's `tensor.pool_hit_rate` reads them. When
//! observability *is* enabled they are mirrored into `tensor.pool.*`
//! counters for the summary/JSONL sinks.

use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, Ordering};

/// Largest pooled bucket: 2^24 elements (64 MiB of `f32`). Bigger buffers
/// are allocated and freed directly — they are rare one-offs and would pin
/// too much memory in a free list.
const NUM_BUCKETS: usize = 25;
/// Per-bucket byte budget; a bucket already holding this much lets further
/// retiring buffers drop instead. The budget must cover the tape's peak live
/// tensor count — a whole training step's forward values and gradients
/// retire at once on `Graph::reset`, and every buffer the budget rejects is
/// a guaranteed allocator round-trip on the next step.
const MAX_BUCKET_BYTES: usize = 1 << 24;

/// Free-list depth cap for a bucket: the byte budget divided by the bucket's
/// buffer size, floored at 8 so even the largest poolable buffers keep a
/// couple of slots.
#[inline]
fn max_per_bucket(bucket: usize) -> usize {
    (MAX_BUCKET_BYTES / (4 << bucket)).max(8)
}

static HITS: AtomicU64 = AtomicU64::new(0);
static MISSES: AtomicU64 = AtomicU64::new(0);
static RETURNS: AtomicU64 = AtomicU64::new(0);
static ALLOC_BYTES: AtomicU64 = AtomicU64::new(0);
static RECYCLED_BYTES: AtomicU64 = AtomicU64::new(0);

static OBS_HITS: valuenet_obs::Counter = valuenet_obs::Counter::new("tensor.pool.hits");
static OBS_MISSES: valuenet_obs::Counter = valuenet_obs::Counter::new("tensor.pool.misses");
static OBS_RECYCLED: valuenet_obs::Counter =
    valuenet_obs::Counter::new("tensor.pool.recycled_bytes");

thread_local! {
    static FREE: RefCell<Vec<Vec<Vec<f32>>>> =
        RefCell::new((0..NUM_BUCKETS).map(|_| Vec::new()).collect());
}

/// Point-in-time pool statistics (process-wide, monotonically increasing).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// `take` calls served from a free list.
    pub hits: u64,
    /// `take` calls that had to allocate.
    pub misses: u64,
    /// Buffers accepted back into a free list by `give`.
    pub returns: u64,
    /// Bytes freshly allocated by misses.
    pub alloc_bytes: u64,
    /// Bytes served from recycled buffers by hits.
    pub recycled_bytes: u64,
}

impl PoolStats {
    /// Hits as a fraction of all `take` calls (0 when nothing was taken).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }

    /// Counter deltas since an earlier snapshot.
    pub fn since(&self, earlier: &PoolStats) -> PoolStats {
        PoolStats {
            hits: self.hits - earlier.hits,
            misses: self.misses - earlier.misses,
            returns: self.returns - earlier.returns,
            alloc_bytes: self.alloc_bytes - earlier.alloc_bytes,
            recycled_bytes: self.recycled_bytes - earlier.recycled_bytes,
        }
    }
}

/// Snapshot of the process-wide pool counters.
pub fn stats() -> PoolStats {
    PoolStats {
        hits: HITS.load(Ordering::Relaxed),
        misses: MISSES.load(Ordering::Relaxed),
        returns: RETURNS.load(Ordering::Relaxed),
        alloc_bytes: ALLOC_BYTES.load(Ordering::Relaxed),
        recycled_bytes: RECYCLED_BYTES.load(Ordering::Relaxed),
    }
}

/// Bucket whose buffers are all guaranteed to hold `len` elements.
#[inline]
fn bucket_for_len(len: usize) -> usize {
    // ceil(log2(len)); len == 1 maps to bucket 0.
    (usize::BITS - (len - 1).leading_zeros()) as usize
}

/// Bucket a buffer of capacity `cap` belongs to: floor(log2(cap)), so every
/// resident of bucket `b` has capacity >= 2^b.
#[inline]
fn bucket_for_cap(cap: usize) -> usize {
    (usize::BITS - 1 - cap.leading_zeros()) as usize
}

#[cold]
fn miss(len: usize, cap: usize) -> Vec<f32> {
    MISSES.fetch_add(1, Ordering::Relaxed);
    ALLOC_BYTES.fetch_add(4 * cap as u64, Ordering::Relaxed);
    OBS_MISSES.add(1);
    let _ = len;
    Vec::with_capacity(cap)
}

/// Hands out an empty buffer with capacity for at least `len` elements,
/// recycled when the thread's free list has one. The returned buffer has
/// length 0 — fill it with `extend`/`resize`.
pub fn take(len: usize) -> Vec<f32> {
    if len == 0 {
        return Vec::new();
    }
    let b = bucket_for_len(len);
    if b >= NUM_BUCKETS {
        // Unpoolable size: plain allocation.
        return miss(len, len);
    }
    let recycled = FREE.try_with(|f| f.borrow_mut()[b].pop()).ok().flatten();
    match recycled {
        Some(mut v) => {
            debug_assert!(v.capacity() >= len);
            v.clear();
            HITS.fetch_add(1, Ordering::Relaxed);
            RECYCLED_BYTES.fetch_add(4 * len as u64, Ordering::Relaxed);
            OBS_HITS.add(1);
            OBS_RECYCLED.add(4 * len as u64);
            v
        }
        None => miss(len, 1 << b),
    }
}

/// Files a retiring buffer back into the thread's free list (or frees it
/// when the bucket is full or the thread is shutting down).
pub fn give(v: Vec<f32>) {
    if v.capacity() == 0 {
        return;
    }
    let b = bucket_for_cap(v.capacity());
    if b >= NUM_BUCKETS {
        return;
    }
    // try_with: during thread teardown the TLS slot may already be gone; the
    // buffer then just drops normally.
    let _ = FREE.try_with(|f| {
        let mut f = f.borrow_mut();
        if f[b].len() < max_per_bucket(b) {
            RETURNS.fetch_add(1, Ordering::Relaxed);
            f[b].push(v);
        }
    });
}

/// Drops every buffer held by the current thread's free lists (used by
/// tests that assert on buffer reuse).
pub fn clear_thread_local() {
    let _ = FREE.try_with(|f| {
        for bucket in f.borrow_mut().iter_mut() {
            bucket.clear();
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_cover_requested_length() {
        assert_eq!(bucket_for_len(1), 0);
        assert_eq!(bucket_for_len(2), 1);
        assert_eq!(bucket_for_len(3), 2);
        assert_eq!(bucket_for_len(4), 2);
        assert_eq!(bucket_for_len(5), 3);
        for len in 1..100usize {
            let b = bucket_for_len(len);
            assert!((1usize << b) >= len, "bucket {b} too small for len {len}");
        }
    }

    #[test]
    fn give_then_take_reuses_when_enabled() {
        // The pool is thread-local, so this test owns its free lists.
        clear_thread_local();
        let v = take(10);
        assert!(v.capacity() >= 10);
        let ptr = v.as_ptr();
        give(v);
        let w = take(10);
        assert_eq!(w.as_ptr(), ptr, "LIFO bucket should return the same buffer");
        assert!(w.is_empty());
    }

    #[test]
    fn cap_floor_bucket_always_satisfies_len_bucket() {
        // A buffer allocated by a miss for length L must land, via
        // bucket_for_cap, back in bucket_for_len(L).
        for len in 1..200usize {
            let b = bucket_for_len(len);
            assert_eq!(bucket_for_cap(1 << b), b);
        }
    }
}
