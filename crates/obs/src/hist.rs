//! Fixed-bucket histograms over `u64` values.
//!
//! The bucket layout is a base-2 scheme with four sub-buckets per octave
//! (two significant bits, HdrHistogram-style): values 0–3 get exact buckets,
//! and every value `v >= 4` lands in bucket `(exp - 1) * 4 + sub` where
//! `exp = floor(log2 v)` and `sub` is the next two bits below the leading
//! one. Bucket bounds are therefore powers of two scaled by 4–7, the
//! relative width of a bucket is at most 1/4, and percentile extraction
//! (which reports a bucket midpoint) has a worst-case relative error of
//! 12.5% — plenty for latency work, where the interesting differences are
//! 2× not 2%.
//!
//! The same layout backs the lock-free [`AtomicBuckets`] (safe to hammer
//! from `valuenet-par` workers) that both the gated [`crate::Histogram`]
//! statics and the serving engine's always-on latency histograms hold, and
//! the per-thread span-duration aggregates (plain `u64` buckets, merged at
//! flush time).

use std::sync::atomic::{AtomicU64, Ordering};

/// Total bucket count: 4 exact small-value buckets + 62 octaves × 4.
pub const NBUCKETS: usize = 252;

/// Maps a value to its bucket index.
#[inline]
pub fn bucket_index(v: u64) -> usize {
    if v < 4 {
        return v as usize;
    }
    let exp = 63 - v.leading_zeros() as usize; // floor(log2 v) >= 2
    let sub = ((v >> (exp - 2)) & 3) as usize;
    (exp - 1) * 4 + sub
}

/// The `[lower, upper)` value range of a bucket.
pub fn bucket_bounds(i: usize) -> (u64, u64) {
    if i < 4 {
        return (i as u64, i as u64 + 1);
    }
    let exp = i / 4 + 1;
    let sub = (i % 4) as u64;
    let lower = (4 + sub) << (exp - 2);
    let width = 1u64 << (exp - 2);
    (lower, lower.saturating_add(width))
}

/// The representative value reported for a bucket (its midpoint).
pub fn bucket_mid(i: usize) -> f64 {
    let (lo, hi) = bucket_bounds(i);
    (lo as f64 + hi as f64) / 2.0
}

/// Nearest-rank percentile over raw bucket counts: the midpoint of the
/// bucket containing the `ceil(q * total)`-th smallest recorded value.
/// Returns 0.0 when nothing was recorded.
pub fn percentile_from_counts(counts: &[u64], q: f64) -> f64 {
    let total: u64 = counts.iter().sum();
    if total == 0 {
        return 0.0;
    }
    let rank = ((q * total as f64).ceil() as u64).clamp(1, total);
    let mut seen = 0u64;
    for (i, &c) in counts.iter().enumerate() {
        seen += c;
        if seen >= rank {
            return bucket_mid(i);
        }
    }
    bucket_mid(counts.len() - 1)
}

/// One count per bucket, incremented with relaxed atomics. Records
/// unconditionally; [`crate::Histogram`] adds the observability gate.
pub struct AtomicBuckets([AtomicU64; NBUCKETS]);

impl AtomicBuckets {
    /// All buckets empty (const, for statics).
    pub const fn new() -> Self {
        AtomicBuckets([const { AtomicU64::new(0) }; NBUCKETS])
    }

    /// Counts `v` in its bucket.
    #[inline]
    pub fn record(&self, v: u64) {
        self.0[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
    }

    /// A copy of the bucket counts, for [`percentile_from_counts`].
    pub fn counts(&self) -> Vec<u64> {
        self.0.iter().map(|c| c.load(Ordering::Relaxed)).collect()
    }

    /// Empties every bucket.
    pub fn reset(&self) {
        for c in &self.0 {
            c.store(0, Ordering::Relaxed);
        }
    }
}

impl Default for AtomicBuckets {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_values_are_exact() {
        for v in 0..4u64 {
            let i = bucket_index(v);
            let (lo, hi) = bucket_bounds(i);
            assert_eq!((lo, hi), (v, v + 1));
        }
    }

    #[test]
    fn every_value_falls_inside_its_bucket_bounds() {
        let mut probes: Vec<u64> = (0..200).collect();
        for e in 2..63 {
            let base = 1u64 << e;
            probes.extend([base - 1, base, base + 1, base + base / 3, base + base / 2]);
        }
        probes.push(u64::MAX);
        for v in probes {
            let i = bucket_index(v);
            assert!(i < NBUCKETS, "index {i} out of range for {v}");
            let (lo, hi) = bucket_bounds(i);
            assert!(lo <= v && (v < hi || hi == u64::MAX), "{v} not in [{lo},{hi}) (bucket {i})");
        }
    }

    #[test]
    fn buckets_are_monotone() {
        let mut prev = bucket_index(0);
        for v in [1u64, 2, 3, 4, 5, 7, 8, 100, 1000, 1 << 20, (1 << 20) + 17, 1 << 40] {
            let i = bucket_index(v);
            assert!(i >= prev, "bucket index decreased at {v}");
            prev = i;
        }
    }

    #[test]
    fn percentile_of_uniform_counts() {
        let mut counts = vec![0u64; NBUCKETS];
        // 100 values of exactly 1000.
        counts[bucket_index(1000)] = 100;
        let p = percentile_from_counts(&counts, 0.5);
        let (lo, hi) = bucket_bounds(bucket_index(1000));
        assert!(p >= lo as f64 && p <= hi as f64);
    }
}
