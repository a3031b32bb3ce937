//! SLO burn-rate arithmetic over the always-on counters and histograms.
//!
//! Two objectives, both expressed as budgets:
//!
//! * **Availability** — a target fraction of eligible requests must be
//!   served (anything the *server* failed: shed, deadline miss,
//!   quarantine, internal error counts against it; client errors do not).
//! * **Latency** — a target fraction of requests must finish under a
//!   threshold, evaluated from the bucket counts of the end-to-end latency
//!   histogram (the [`crate::hist`] layout shared with the serving engine).
//!
//! The *burn rate* is `(observed bad fraction) / (allowed bad fraction)`:
//! 1.0 means the error budget is being consumed exactly as provisioned,
//! above 1.0 the budget is burning — `vn_slo_check` exits nonzero there.
//! Windowing comes from snapshot-and-diff (`stats` delta mode), not from
//! timers inside this module, so the same arithmetic serves cumulative and
//! interval views.

use crate::hist::bucket_bounds;
use crate::json::Json;

/// Service-level objectives for a serving deployment.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SloPolicy {
    /// Fraction of eligible requests that must be served (e.g. `0.99`).
    pub availability_target: f64,
    /// Fraction of requests that must finish under the threshold.
    pub latency_target: f64,
    /// The latency threshold, µs.
    pub latency_threshold_us: u64,
}

impl Default for SloPolicy {
    fn default() -> Self {
        SloPolicy {
            availability_target: 0.99,
            latency_target: 0.99,
            latency_threshold_us: 500_000,
        }
    }
}

/// One evaluated SLO window.
#[derive(Debug, Clone, PartialEq)]
pub struct SloReport {
    /// `cumulative` or `delta` (snapshot-and-diff window).
    pub window: String,
    /// Eligible requests in the window.
    pub total: u64,
    /// Requests served (availability numerator).
    pub good: u64,
    /// `good / total` (1.0 when the window is empty).
    pub availability: f64,
    /// Availability burn rate (≥ 0; > 1 burns the budget).
    pub availability_burn: f64,
    /// Fraction of latency-measured requests under the threshold.
    pub fast_fraction: f64,
    /// Latency burn rate.
    pub latency_burn: f64,
    /// Whether either burn rate exceeds 1.0.
    pub breached: bool,
}

impl SloPolicy {
    /// Evaluates the objectives over one window: `good`/`total` request
    /// counts plus the bucket counts of the end-to-end latency histogram.
    /// An empty window reports burn 0 (nothing happened, nothing burned).
    pub fn evaluate(&self, window: &str, good: u64, total: u64, latency_buckets: &[u64]) -> SloReport {
        let availability = if total == 0 { 1.0 } else { good as f64 / total as f64 };
        let avail_budget = (1.0 - self.availability_target).max(f64::EPSILON);
        let availability_burn =
            if total == 0 { 0.0 } else { (1.0 - availability) / avail_budget };

        let measured: u64 = latency_buckets.iter().sum();
        // A bucket is "fast" when its whole range is under the threshold —
        // the conservative reading of the ≤12.5%-error layout.
        let fast: u64 = latency_buckets
            .iter()
            .enumerate()
            .filter(|(i, _)| bucket_bounds(*i).1 <= self.latency_threshold_us)
            .map(|(_, &c)| c)
            .sum();
        let fast_fraction = if measured == 0 { 1.0 } else { fast as f64 / measured as f64 };
        let lat_budget = (1.0 - self.latency_target).max(f64::EPSILON);
        let latency_burn =
            if measured == 0 { 0.0 } else { (1.0 - fast_fraction) / lat_budget };

        SloReport {
            window: window.to_string(),
            total,
            good,
            availability,
            availability_burn,
            fast_fraction,
            latency_burn,
            breached: availability_burn > 1.0 || latency_burn > 1.0,
        }
    }

    /// The policy's JSON form (embedded in SLO reports).
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("availability_target", Json::Num(self.availability_target)),
            ("latency_target", Json::Num(self.latency_target)),
            ("latency_threshold_us", Json::Int(self.latency_threshold_us as i64)),
        ])
    }
}

impl SloReport {
    /// The `stats`-verb form: a `type:"slo"` record, which
    /// [`check_slo_record`] reads.
    pub fn to_json(&self, policy: &SloPolicy) -> Json {
        Json::obj(vec![
            ("type", Json::Str("slo".into())),
            ("window", Json::Str(self.window.clone())),
            ("objectives", policy.to_json()),
            ("total", Json::Int(self.total as i64)),
            ("good", Json::Int(self.good as i64)),
            ("availability", Json::Num(self.availability)),
            ("availability_burn", Json::Num(self.availability_burn)),
            ("fast_fraction", Json::Num(self.fast_fraction)),
            ("latency_burn", Json::Num(self.latency_burn)),
            ("breached", Json::Bool(self.breached)),
        ])
    }
}

/// Checks one `type:"slo"` JSON record against a burn ceiling. Returns the
/// record's `(name, availability_burn, latency_burn)` on success.
///
/// # Errors
/// A description when the record is malformed or a burn rate exceeds
/// `max_burn`.
pub fn check_slo_record(v: &Json, max_burn: f64) -> Result<(String, f64, f64), String> {
    let name = v
        .get("name")
        .and_then(Json::as_str)
        .unwrap_or("slo")
        .to_string();
    let avail = v
        .get("availability_burn")
        .and_then(Json::as_f64)
        .ok_or_else(|| format!("{name}: slo record missing `availability_burn`"))?;
    let lat = v
        .get("latency_burn")
        .and_then(Json::as_f64)
        .ok_or_else(|| format!("{name}: slo record missing `latency_burn`"))?;
    if avail > max_burn {
        return Err(format!(
            "{name}: availability burn {avail:.2} exceeds {max_burn:.2} (availability {})",
            v.get("availability").and_then(Json::as_f64).unwrap_or(f64::NAN)
        ));
    }
    if lat > max_burn {
        return Err(format!(
            "{name}: latency burn {lat:.2} exceeds {max_burn:.2} (fast fraction {})",
            v.get("fast_fraction").and_then(Json::as_f64).unwrap_or(f64::NAN)
        ));
    }
    Ok((name, avail, lat))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hist::{bucket_index, NBUCKETS};

    #[test]
    fn empty_window_burns_nothing() {
        let r = SloPolicy::default().evaluate("delta", 0, 0, &vec![0; NBUCKETS]);
        assert_eq!(r.availability, 1.0);
        assert_eq!(r.availability_burn, 0.0);
        assert_eq!(r.latency_burn, 0.0);
        assert!(!r.breached);
    }

    #[test]
    fn availability_burn_is_error_rate_over_budget() {
        let p = SloPolicy { availability_target: 0.99, ..Default::default() };
        // 2% errors against a 1% budget: burn 2.
        let r = p.evaluate("cumulative", 98, 100, &[]);
        assert!((r.availability_burn - 2.0).abs() < 1e-9, "burn {}", r.availability_burn);
        assert!(r.breached);
        // Exactly on budget: burn 1, not breached (strictly above burns).
        let r = p.evaluate("cumulative", 99, 100, &[]);
        assert!((r.availability_burn - 1.0).abs() < 1e-9);
        assert!(!r.breached);
    }

    #[test]
    fn latency_burn_reads_bucket_counts() {
        let p = SloPolicy {
            latency_target: 0.9,
            latency_threshold_us: 100_000,
            ..Default::default()
        };
        let mut buckets = vec![0u64; NBUCKETS];
        buckets[bucket_index(1_000)] = 80; // fast
        buckets[bucket_index(1_000_000)] = 20; // slow
        let r = p.evaluate("cumulative", 100, 100, &buckets);
        assert!((r.fast_fraction - 0.8).abs() < 1e-9);
        assert!((r.latency_burn - 2.0).abs() < 1e-9); // 20% slow over a 10% budget
        assert!(r.breached);
    }

    #[test]
    fn slo_record_round_trips_through_checker() {
        let p = SloPolicy::default();
        let good = p.evaluate("cumulative", 100, 100, &[]).to_json(&p);
        let (name, a, l) = check_slo_record(&good, 1.0).unwrap();
        assert_eq!(name, "slo");
        assert_eq!((a, l), (0.0, 0.0));
        let bad = p.evaluate("cumulative", 90, 100, &[]).to_json(&p);
        assert!(check_slo_record(&bad, 1.0).is_err());
        assert!(check_slo_record(&bad, 100.0).is_ok());
        assert!(check_slo_record(&Json::obj(vec![]), 1.0).is_err());
    }
}
