//! Order statistics, process readings, and the result line.

use vb_telemetry::Json;

/// Samples that must lie beyond a reported percentile.
const MIN_BEYOND: u64 = 10;

/// Clock ticks per second in `/proc/<pid>/stat` (Linux `USER_HZ`).
const USER_HZ: f64 = 100.0;

/// 1-based nearest rank of the `per_mille`/1000 quantile of `n` samples.
fn rank(n: u64, per_mille: u64) -> u64 {
    (n * per_mille).div_ceil(1000).max(1)
}

/// Nearest-rank percentile of ascending `sorted`, or `None` when fewer
/// than ten samples lie beyond it.
pub fn percentile(sorted: &[f64], per_mille: u64) -> Option<f64> {
    let n = sorted.len() as u64;
    if n == 0 {
        return None;
    }
    let r = rank(n, per_mille);
    (n - r >= MIN_BEYOND).then(|| sorted[(r - 1) as usize])
}

/// The highest of p99.9, p99, p90 and p50 that `n` samples support.
pub fn tail_per_mille(n: usize) -> Option<u64> {
    let n = n as u64;
    [999, 990, 900, 500]
        .into_iter()
        .find(|&q| n > 0 && n - rank(n, q) >= MIN_BEYOND)
}

/// Mean of the largest hundredth of ascending `sorted` (at least one
/// value); 0 when empty.
pub fn top_hundredth_mean(sorted: &[f64]) -> f64 {
    let k = (sorted.len() / 100).max(1).min(sorted.len());
    ratio(sorted[sorted.len() - k..].iter().sum(), k as f64)
}

/// Geometric mean of positive `values`; 0 when empty. For per-study sizes
/// that span orders of magnitude, where a few large studies would set an
/// arithmetic mean.
pub fn geometric_mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let logs: f64 = values.iter().map(|v| v.ln()).sum();
    (logs / values.len() as f64).exp()
}

pub fn sorted(values: impl IntoIterator<Item = f64>) -> Vec<f64> {
    let mut v: Vec<f64> = values.into_iter().collect();
    v.sort_by(f64::total_cmp);
    v
}

/// Median (mean of the middle two for an even count); 0 when empty.
pub fn median(values: impl IntoIterator<Item = f64>) -> f64 {
    let v = sorted(values);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// `num / den`, or 0 when nothing was attempted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// This process's peak resident set (`VmHWM`) in MB; 0 off Linux.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// User + system CPU seconds this process has used; 0 off Linux.
pub fn cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the parenthesised command name start at field 3
    // (state); utime and stime are fields 14 and 15.
    let Some((_, rest)) = stat.rsplit_once(')') else {
        return 0.0;
    };
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| fields.get(i).and_then(|f| f.parse::<f64>().ok());
    match (ticks(11), ticks(12)) {
        (Some(u), Some(s)) => (u + s) / USER_HZ,
        _ => 0.0,
    }
}

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
}

/// The last line of a run's output.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let metrics = metrics
        .iter()
        .map(|m| {
            let v = Json::Obj(vec![
                ("value".into(), Json::Num(m.value)),
                ("unit".into(), Json::from(m.unit)),
            ]);
            (m.name.to_string(), v)
        })
        .collect();
    Json::Obj(vec![
        ("correct".into(), Json::Bool(correct)),
        ("attempted".into(), Json::Int(attempted as i64)),
        ("failed".into(), Json::Int(failed as i64)),
        ("metrics".into(), Json::Obj(metrics)),
    ])
    .emit()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_selection_keeps_ten_samples_beyond() {
        assert_eq!(tail_per_mille(0), None);
        assert_eq!(tail_per_mille(19), None);
        assert_eq!(tail_per_mille(20), Some(500));
        assert_eq!(tail_per_mille(99), Some(500));
        assert_eq!(tail_per_mille(100), Some(900));
        assert_eq!(tail_per_mille(999), Some(900));
        assert_eq!(tail_per_mille(1000), Some(990));
        assert_eq!(tail_per_mille(10_000), Some(999));
    }

    #[test]
    fn percentile_is_nearest_rank_and_refuses_thin_tails() {
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&v, 500), Some(500.0));
        assert_eq!(percentile(&v, 990), Some(990.0));
        assert_eq!(percentile(&v, 999), None, "only one sample beyond p99.9");
        assert_eq!(percentile(&v[..100], 990), None);
        assert_eq!(percentile(&[], 500), None);
    }

    #[test]
    fn top_hundredth_mean_averages_the_largest_values() {
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(top_hundredth_mean(&v), 995.5, "mean of 991..=1000");
        assert_eq!(top_hundredth_mean(&v[..50]), 50.0, "one value below 100");
        assert_eq!(top_hundredth_mean(&[]), 0.0);
    }

    #[test]
    fn geometric_mean_of_sizes() {
        assert!((geometric_mean(&[1.0, 100.0]) - 10.0).abs() < 1e-12);
        assert_eq!(geometric_mean(&[]), 0.0);
    }

    #[test]
    fn median_and_ratio() {
        assert_eq!(median([3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median([4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median([]), 0.0);
        assert_eq!(ratio(1.0, 0.0), 0.0);
        assert_eq!(ratio(1.0, 4.0), 0.25);
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let line = result_line(
            true,
            3,
            0,
            &[Metric {
                name: "setup_s",
                unit: "s",
                value: 0.8127,
            }],
        );
        assert_eq!(
            line,
            r#"{"correct":true,"attempted":3,"failed":0,"metrics":{"setup_s":{"value":0.8127,"unit":"s"}}}"#
        );
    }

    #[test]
    fn proc_readings_are_positive_on_linux() {
        if std::path::Path::new("/proc/self/status").exists() {
            assert!(peak_rss_mb() > 0.0);
            // CPU time advances in 10 ms ticks: spin until one lands.
            let t = std::time::Instant::now();
            while cpu_seconds() == 0.0 && t.elapsed().as_secs() < 5 {
                std::hint::black_box((0..1_000_000u64).fold(0, |a, i| a ^ i.wrapping_mul(31)));
            }
            assert!(cpu_seconds() > 0.0);
        }
    }
}
