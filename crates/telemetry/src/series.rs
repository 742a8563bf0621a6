//! Per-epoch metric series: compact columnar samples of simulation
//! state, embedded in the JSONL run report.
//!
//! Aggregate metrics say *how much*; a series says *when*. Call
//! [`series_sample`] once per epoch (or step) with the values to record:
//!
//! ```
//! vb_telemetry::series_sample(
//!     "example.step_series",
//!     "greedy",
//!     42,
//!     &[("queued_apps", 3.0), ("transfer_gb", 12.5)],
//! );
//! ```
//!
//! Samples accumulate in a process-global store keyed by
//! `(name, instance)` — `instance` distinguishes concurrent recorders of
//! the same series (e.g. the four policies a Table-1 run simulates in
//! parallel), so interleaved threads never mix rows. Within one key,
//! rows stay in append order; the snapshot sorts keys, which keeps run
//! reports byte-identical across thread counts.
//!
//! Columns may vary between samples: a column first seen mid-series is
//! backfilled with zeros, and columns missing from a sample are padded
//! with zeros, so every column always has exactly one value per epoch.

use crate::registry::lock_or_recover;
use std::sync::{Mutex, OnceLock};

/// One recorded series: parallel `epochs` / per-column value vectors.
/// Plain data — shared by the live store and the run-report serializer.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct SeriesData {
    pub name: String,
    /// Distinguishes concurrent recorders of the same series name
    /// (policy name, site name, ...); empty when unused.
    pub instance: String,
    pub epochs: Vec<u64>,
    pub columns: Vec<(String, Vec<f64>)>,
}

impl SeriesData {
    /// Number of sampled epochs.
    pub fn len(&self) -> usize {
        self.epochs.len()
    }

    pub fn is_empty(&self) -> bool {
        self.epochs.is_empty()
    }

    /// Values of one column, if present.
    pub fn column(&self, name: &str) -> Option<&[f64]> {
        self.columns
            .iter()
            .find(|(c, _)| c == name)
            .map(|(_, v)| v.as_slice())
    }
}

fn store() -> &'static Mutex<Vec<SeriesData>> {
    static STORE: OnceLock<Mutex<Vec<SeriesData>>> = OnceLock::new();
    STORE.get_or_init(|| Mutex::new(Vec::new()))
}

/// Append one row to the `(name, instance)` series: a one-row
/// [`series_extend`]. Sampling the same column twice at one epoch keeps
/// the last value.
pub fn series_sample(name: &'static str, instance: &str, epoch: u64, columns: &[(&str, f64)]) {
    let columns: Vec<(&str, &[f64])> = columns
        .iter()
        .map(|(col, v)| (*col, std::slice::from_ref(v)))
        .collect();
    series_extend(name, instance, &[epoch], &columns);
}

/// Append many rows to the `(name, instance)` series in one store
/// lock. A tight per-step loop (the group simulator samples every one
/// of its thousands of steps, from every fleet-shard thread at once)
/// pays one global mutex acquisition per *run* instead of per step.
/// Every column slice must be parallel to `epochs`. A column new to the
/// series is backfilled with zeros, a column missing from this call is
/// padded with zeros, and a column named twice keeps its last values.
pub fn series_extend(
    name: &'static str,
    instance: &str,
    epochs: &[u64],
    columns: &[(&str, &[f64])],
) {
    if epochs.is_empty() {
        return;
    }
    let mut all = lock_or_recover(store());
    let at = match all
        .iter()
        .position(|s| s.name == name && s.instance == instance)
    {
        Some(at) => at,
        None => {
            all.push(SeriesData {
                name: name.to_string(),
                instance: instance.to_string(),
                ..SeriesData::default()
            });
            all.len() - 1
        }
    };
    let buf = &mut all[at];
    let start = buf.epochs.len();
    buf.epochs.extend_from_slice(epochs);
    let rows = buf.epochs.len();
    for &(col, vals) in columns {
        debug_assert_eq!(vals.len(), epochs.len(), "column {col} not parallel");
        let idx = match buf.columns.iter().position(|(c, _)| c == col) {
            Some(i) => i,
            None => {
                // New column mid-series: backfill earlier epochs.
                buf.columns.push((col.to_string(), vec![0.0; start]));
                buf.columns.len() - 1
            }
        };
        let out = &mut buf.columns[idx].1;
        out.resize(start, 0.0);
        out.extend(vals.iter().copied().take(epochs.len()));
    }
    for (_, vals) in &mut buf.columns {
        if vals.len() < rows {
            vals.resize(rows, 0.0);
        }
    }
}

/// Copy of every recorded series, sorted by `(name, instance)` for
/// deterministic reports regardless of recorder thread interleaving.
pub fn series_snapshot() -> Vec<SeriesData> {
    let mut all = lock_or_recover(store()).clone();
    all.sort_by(|a, b| (&a.name, &a.instance).cmp(&(&b.name, &b.instance)));
    all
}

/// Drop every recorded series (between runs).
pub(crate) fn reset_series() {
    lock_or_recover(store()).clear();
}

#[cfg(test)]
mod tests {
    use super::*;

    // The store is process-global; a unique name per test keeps these
    // independent of sibling tests in the binary.
    #[test]
    fn rows_accumulate_and_columns_align() {
        series_sample("seriestest.basic", "a", 0, &[("x", 1.0), ("y", 2.0)]);
        series_sample("seriestest.basic", "a", 1, &[("y", 4.0), ("z", 9.0)]);
        series_sample("seriestest.basic", "b", 0, &[("x", 7.0)]);

        let all = series_snapshot();
        let a = all
            .iter()
            .find(|s| s.name == "seriestest.basic" && s.instance == "a")
            .expect("series a");
        assert_eq!(a.epochs, vec![0, 1]);
        assert_eq!(a.column("x"), Some(&[1.0, 0.0][..]), "missing sample pads");
        assert_eq!(a.column("y"), Some(&[2.0, 4.0][..]));
        assert_eq!(
            a.column("z"),
            Some(&[0.0, 9.0][..]),
            "late column backfills"
        );
        let b = all
            .iter()
            .find(|s| s.name == "seriestest.basic" && s.instance == "b")
            .expect("series b");
        assert_eq!(b.epochs, vec![0]);
        assert_eq!(b.column("x"), Some(&[7.0][..]));
    }

    #[test]
    fn extend_matches_repeated_samples() {
        // The batched form must leave the store in exactly the state
        // repeated single samples would.
        let epochs: Vec<u64> = (0..5).collect();
        let a: Vec<f64> = epochs.iter().map(|&e| e as f64 * 1.5).collect();
        let b: Vec<f64> = epochs.iter().map(|&e| 10.0 - e as f64).collect();
        for (i, &e) in epochs.iter().enumerate() {
            series_sample(
                "seriestest.extend",
                "one-by-one",
                e,
                &[("a", a[i]), ("b", b[i])],
            );
        }
        series_extend(
            "seriestest.extend",
            "batched",
            &epochs,
            &[("a", &a), ("b", &b)],
        );
        let all = series_snapshot();
        let find = |inst: &str| {
            all.iter()
                .find(|s| s.name == "seriestest.extend" && s.instance == inst)
                .expect("series recorded")
        };
        let (single, batched) = (find("one-by-one"), find("batched"));
        assert_eq!(single.epochs, batched.epochs);
        assert_eq!(single.columns, batched.columns);
    }

    #[test]
    fn extend_appends_and_backfills_like_sample() {
        series_sample("seriestest.extend_mix", "x", 0, &[("old", 1.0)]);
        series_extend(
            "seriestest.extend_mix",
            "x",
            &[1, 2],
            &[("new", &[5.0, 6.0])],
        );
        let all = series_snapshot();
        let s = all
            .iter()
            .find(|s| s.name == "seriestest.extend_mix")
            .expect("series recorded");
        assert_eq!(s.epochs, vec![0, 1, 2]);
        assert_eq!(s.column("old"), Some(&[1.0, 0.0, 0.0][..]), "old pads");
        assert_eq!(s.column("new"), Some(&[0.0, 5.0, 6.0][..]), "new backfills");
    }

    #[test]
    fn snapshot_is_sorted_by_name_then_instance() {
        series_sample("seriestest.sort_z", "1", 0, &[("v", 0.0)]);
        series_sample("seriestest.sort_a", "2", 0, &[("v", 0.0)]);
        series_sample("seriestest.sort_a", "1", 0, &[("v", 0.0)]);
        let keys: Vec<(String, String)> = series_snapshot()
            .into_iter()
            .filter(|s| s.name.starts_with("seriestest.sort"))
            .map(|s| (s.name, s.instance))
            .collect();
        assert_eq!(
            keys,
            vec![
                ("seriestest.sort_a".to_string(), "1".to_string()),
                ("seriestest.sort_a".to_string(), "2".to_string()),
                ("seriestest.sort_z".to_string(), "1".to_string()),
            ]
        );
    }
}
