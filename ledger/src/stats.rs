//! Order statistics, process facts and provenance.

use std::time::Instant;

/// Nearest-rank percentile (`p` in 0..=1) of an ascending sample; 0 when empty.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let idx = ((sorted.len() as f64 - 1.0) * p).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

/// Sorts a sample ascending (NaN-free by construction: every value is a
/// duration or a count).
pub fn sorted(mut v: Vec<f64>) -> Vec<f64> {
    v.sort_by(f64::total_cmp);
    v
}

/// Median of a sample; 0 when empty.
pub fn median(v: &[f64]) -> f64 {
    percentile(&sorted(v.to_vec()), 0.5)
}

/// Arithmetic mean; 0 when empty.
pub fn mean(v: &[f64]) -> f64 {
    if v.is_empty() {
        0.0
    } else {
        v.iter().sum::<f64>() / v.len() as f64
    }
}

/// The fastest of each request's repetitions: `runs[r][i]` is request `i`'s
/// time in repetition `r` (`None` when it was not answered there). Host
/// contention only ever adds time, so a request's best repetition is the
/// program's own time for it. Requests never answered are left out.
pub fn best_of(runs: &[Vec<Option<f64>>]) -> Vec<f64> {
    let n = runs.iter().map(Vec::len).max().unwrap_or(0);
    (0..n)
        .filter_map(|i| {
            runs.iter()
                .filter_map(|r| r.get(i).copied().flatten())
                .min_by(f64::total_cmp)
        })
        .collect()
}

/// Number of samples strictly above the `p` percentile — the guide's rule is
/// that a reported percentile needs at least ten beyond it.
pub fn beyond(sorted: &[f64], p: f64) -> usize {
    let cut = percentile(sorted, p);
    sorted.iter().filter(|&&x| x > cut).count()
}

/// Runs `f` and returns its result with the elapsed wall time in ms.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let t = Instant::now();
    let r = f();
    (r, t.elapsed().as_secs_f64() * 1e3)
}

/// Peak resident set size (`VmHWM`) of this process in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Cores this process may run on.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The commit the benchmark was built from: read from `.git` beside the
/// benchmark's directory when the checkout is a git repository, otherwise
/// from `VN_COMMIT`, otherwise `unknown`.
pub fn commit() -> String {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
    let git = root.join(".git");
    let head = std::fs::read_to_string(git.join("HEAD")).unwrap_or_default();
    let head = head.trim();
    let resolved = match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(git.join(r)).ok().or_else(|| {
            let packed = std::fs::read_to_string(git.join("packed-refs")).ok()?;
            packed
                .lines()
                .find(|l| l.ends_with(r))
                .map(|l| l[..l.len() - r.len()].to_string())
        }),
        None if !head.is_empty() => Some(head.to_string()),
        None => None,
    };
    resolved
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .or_else(|| std::env::var("VN_COMMIT").ok())
        .unwrap_or_else(|| "unknown".into())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_are_nearest_rank() {
        let v = sorted((1..=100).map(f64::from).collect());
        assert_eq!(percentile(&v, 0.5), 51.0);
        assert_eq!(percentile(&v, 0.99), 99.0);
        assert_eq!(beyond(&v, 0.9), 10);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
    }

    #[test]
    fn best_of_keeps_each_requests_fastest_answer() {
        let runs = vec![
            vec![Some(3.0), None, Some(5.0)],
            vec![Some(2.0), None, Some(7.0)],
        ];
        assert_eq!(best_of(&runs), vec![2.0, 5.0]);
    }
}
