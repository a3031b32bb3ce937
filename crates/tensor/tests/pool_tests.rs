//! Buffer-pool invariants, exercised through the public `Tensor` API:
//!
//! * live tensors (including clones) never alias a pooled buffer,
//! * reuse is deterministic — per-thread LIFO within a size bucket,
//! * recycled buffers come back fully re-initialised,
//! * the process-wide statistics count every take/give.
//!
//! The pool's free lists are thread-local, so each `#[test]` thread owns its
//! own lists; only the stats counters are shared across threads, which is
//! why their assertions use `>=` deltas.

use valuenet_tensor::{pool, Tensor};

fn ptr_of(t: &Tensor) -> *const f32 {
    t.as_slice().as_ptr()
}

#[test]
fn live_tensors_never_alias() {
    pool::clear_thread_local();
    // Interleave constructions, clones and drops; at every point all live
    // tensors must sit on pairwise-distinct buffers, because a buffer only
    // enters a free list when its owning tensor is dropped.
    let a = Tensor::full(4, 4, 1.0);
    let b = Tensor::full(4, 4, 2.0);
    let c = a.clone();
    drop(Tensor::full(4, 4, 9.0)); // retires one buffer into the pool
    let d = Tensor::full(4, 4, 3.0); // may reuse the retired buffer, not a–c
    let live = [&a, &b, &c, &d];
    for (i, x) in live.iter().enumerate() {
        for y in &live[i + 1..] {
            assert_ne!(ptr_of(x), ptr_of(y), "live tensors share a buffer");
        }
    }
    // Clones are deep: mutating the original leaves the clone untouched.
    let mut a = a;
    a.as_mut_slice()[0] = 42.0;
    assert_eq!(c.as_slice()[0], 1.0);
    assert!(a.as_slice()[1..].iter().all(|&x| x == 1.0));
}

#[test]
fn reuse_is_lifo_within_a_bucket() {
    pool::clear_thread_local();
    let a = Tensor::zeros(4, 4); // 16 elements -> bucket 4
    let b = Tensor::zeros(4, 4);
    let (pa, pb) = (ptr_of(&a), ptr_of(&b));
    drop(a); // free list: [a]
    drop(b); // free list: [a, b]
    let c = Tensor::zeros(4, 4);
    let d = Tensor::zeros(4, 4);
    assert_eq!(ptr_of(&c), pb, "LIFO: the most recently retired buffer comes back first");
    assert_eq!(ptr_of(&d), pa, "LIFO: then the older one");
    // Replaying the same sequence reuses the same buffers in the same order:
    // reuse is a deterministic function of the take/give history.
    drop(c);
    drop(d);
    let e = Tensor::zeros(4, 4);
    let f = Tensor::zeros(4, 4);
    assert_eq!(ptr_of(&e), pa);
    assert_eq!(ptr_of(&f), pb);
}

#[test]
fn different_buckets_do_not_mix() {
    pool::clear_thread_local();
    let small = Tensor::zeros(1, 4); // bucket 2
    let p_small = ptr_of(&small);
    drop(small);
    // A larger request must not be served from the smaller bucket.
    let big = Tensor::zeros(8, 8);
    assert_ne!(ptr_of(&big), p_small);
    // The small buffer is still there for the next same-sized request.
    let small2 = Tensor::zeros(2, 2);
    assert_eq!(ptr_of(&small2), p_small, "4-element request reuses the 4-element buffer");
}

#[test]
fn recycled_buffers_are_reinitialised() {
    pool::clear_thread_local();
    drop(Tensor::full(3, 5, f32::NAN));
    let z = Tensor::zeros(3, 5);
    assert!(z.as_slice().iter().all(|&x| x == 0.0), "zeros() leaked recycled contents");
    drop(z);
    let f = Tensor::full(3, 5, 7.0);
    assert!(f.as_slice().iter().all(|&x| x == 7.0), "full() leaked recycled contents");
    drop(f);
    let v = Tensor::from_vec(3, 5, (0..15).map(|i| i as f32).collect());
    assert_eq!(v.get(2, 4), 14.0);
}

#[test]
fn stats_count_takes_and_gives() {
    pool::clear_thread_local();
    let before = pool::stats();
    {
        let _a = Tensor::zeros(16, 16); // cold: a miss
        let _b = _a.clone(); // another take
    } // both retire
    let t = Tensor::zeros(16, 16); // warm: served from this thread's pool
    drop(t);
    let delta = pool::stats().since(&before);
    // Other test threads may add to the process-wide counters concurrently,
    // so only lower bounds are exact.
    assert!(delta.misses + delta.hits >= 3, "three takes happened: {delta:?}");
    assert!(delta.returns >= 3, "three buffers retired: {delta:?}");
    assert!(delta.hits >= 1, "the warm take should hit: {delta:?}");
    assert!(delta.recycled_bytes >= 4 * 256, "hit served 256 f32s: {delta:?}");
    assert!(delta.alloc_bytes >= 4 * 256, "the cold take allocated: {delta:?}");
    let rate = pool::stats().hit_rate();
    assert!((0.0..=1.0).contains(&rate));
}
