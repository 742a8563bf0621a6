//! WAN capacity accounting.
//!
//! The paper sizes the networking problem with two back-of-envelope
//! arguments that this module turns into code:
//!
//! * §3: "if the migration is to complete within 5 minutes, then a
//!   10 terabyte spike requires ≈200 Gbps network capacity for a single
//!   site. This is roughly 40 % of the share of WAN capacity per site,
//!   assuming ≈100 sites (each with 1000 servers) share an aggregate WAN
//!   link with 50 terabits/sec capacity."
//! * §5: "migration occurs only 2-4 % of the time assuming 200 Gbps WAN
//!   link per VB site."
//!
//! The site link is one fluid queue, [`WanModel::busy_profile`]: each
//! interval's burst joins the backlog, and the link drains at most one
//! interval's worth of seconds. [`WanModel::queue`] reads the same
//! queue per interval: the GB still queued, and how many intervals each
//! burst waited when bursts drain first in, first out.

/// Gigabytes → gigabits.
const GBIT_PER_GBYTE: f64 = 8.0;

/// The site link's queue after one interval (see [`WanModel::queue`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QueueStep {
    /// GB still queued after the interval.
    pub backlog_gb: f64,
    /// Intervals from the one that offered a burst to the one in which
    /// its last GB drained (0: it drained within its own interval).
    /// `None` when the interval offered nothing, or its burst is still
    /// queued after the last interval.
    pub delay_intervals: Option<u64>,
}

/// Per-site WAN model.
#[derive(Debug, Clone)]
pub struct WanModel {
    /// Provisioned per-site WAN link capacity in Gbps (paper: 200).
    pub site_link_gbps: f64,
    /// Aggregate WAN capacity shared by the fleet, in Gbps
    /// (paper: 50 Tbps = 50 000 Gbps, after B4).
    pub aggregate_gbps: f64,
    /// Number of sites sharing the aggregate (paper: ≈100).
    pub n_sites: usize,
    /// Deadline within which a migration burst must complete, seconds
    /// (paper: 5 minutes).
    pub migration_deadline_secs: f64,
}

impl Default for WanModel {
    fn default() -> WanModel {
        WanModel {
            site_link_gbps: 200.0,
            aggregate_gbps: 50_000.0,
            n_sites: 100,
            migration_deadline_secs: 300.0,
        }
    }
}

impl WanModel {
    /// Fair share of the aggregate WAN per site, in Gbps. A fleet of
    /// zero sites has no share.
    pub fn per_site_share_gbps(&self) -> f64 {
        if self.n_sites == 0 {
            return 0.0;
        }
        self.aggregate_gbps / self.n_sites as f64
    }

    /// Capacity needed to move `gb` within the migration deadline, Gbps.
    /// A non-positive (or NaN) deadline means the burst cannot complete
    /// at any finite rate; report zero rather than ±inf/NaN.
    pub fn required_gbps(&self, gb: f64) -> f64 {
        if self.migration_deadline_secs.is_nan() || self.migration_deadline_secs <= 0.0 {
            return 0.0;
        }
        gb * GBIT_PER_GBYTE / self.migration_deadline_secs
    }

    /// The required capacity for a burst as a fraction of the per-site
    /// share of the aggregate WAN (the paper's "roughly 40 %" figure for
    /// a 10 TB spike). Returns 0.0 when the share itself is degenerate.
    pub fn share_fraction(&self, gb: f64) -> f64 {
        let share = self.per_site_share_gbps();
        if share.is_nan() || share <= 0.0 {
            return 0.0;
        }
        self.required_gbps(gb) / share
    }

    /// Seconds needed to drain `gb` over the provisioned site link. A
    /// non-positive (or NaN) link rate can never drain anything.
    pub fn drain_secs(&self, gb: f64) -> f64 {
        if gb <= 0.0 || self.site_link_gbps.is_nan() || self.site_link_gbps <= 0.0 {
            0.0
        } else {
            gb * GBIT_PER_GBYTE / self.site_link_gbps
        }
    }

    /// Per-interval busy seconds with backlog carry-over, plus the
    /// backlog (in seconds of drain) still queued after the last
    /// interval.
    ///
    /// A burst whose drain time exceeds `interval_secs` keeps the link
    /// busy into the *following* intervals rather than silently
    /// vanishing at the interval boundary: each interval's unfinished
    /// drain work carries forward as backlog. Conservation holds:
    /// Σ busy + leftover == Σ drain_secs (up to float rounding).
    pub fn busy_profile(&self, gb_per_interval: &[f64], interval_secs: f64) -> (Vec<f64>, f64) {
        let mut busy = Vec::with_capacity(gb_per_interval.len());
        let mut backlog = 0.0_f64;
        for &gb in gb_per_interval {
            backlog += self.drain_secs(gb);
            let drained = backlog.min(interval_secs);
            busy.push(drained);
            backlog -= drained;
        }
        (busy, backlog)
    }

    /// The queue behind [`busy_profile`](Self::busy_profile), read
    /// after each interval: its backlog in GB, and the FIFO delay of the
    /// burst the interval offered.
    ///
    /// One pass over `busy_profile`'s drained seconds. The backlog is the
    /// seconds offered less the seconds drained, taken in
    /// `busy_profile`'s own order so that it is exactly zero whenever that
    /// queue empties, and converted to GB at the link rate. Bursts drain
    /// in arrival order, so a burst has drained once the seconds drained
    /// since the link was last idle reach the seconds offered since then
    /// up to and including it, or once the queue is empty.
    ///
    /// A link that cannot drain — a non-positive or NaN `site_link_gbps`
    /// or `interval_secs` — keeps every burst: the backlog after each
    /// interval is all the GB offered so far, and no burst drains.
    pub fn queue(&self, gb_per_interval: &[f64], interval_secs: f64) -> Vec<QueueStep> {
        if !(self.site_link_gbps > 0.0 && interval_secs > 0.0) {
            let mut queued = 0.0;
            return gb_per_interval
                .iter()
                .map(|&gb| {
                    queued += gb.max(0.0);
                    QueueStep {
                        backlog_gb: queued,
                        delay_intervals: None,
                    }
                })
                .collect();
        }
        let (busy, _leftover) = self.busy_profile(gb_per_interval, interval_secs);
        let gb_per_sec = self.site_link_gbps / GBIT_PER_GBYTE;
        let mut steps = Vec::with_capacity(gb_per_interval.len());
        // Seconds queued; seconds drained since the link was last idle,
        // and seconds offered since then by the bursts that have drained.
        let (mut backlog, mut drained, mut offered) = (0.0_f64, 0.0_f64, 0.0_f64);
        // The oldest interval whose burst may still be queued.
        let mut head = 0;
        for (k, (&gb, &secs)) in gb_per_interval.iter().zip(&busy).enumerate() {
            backlog += self.drain_secs(gb);
            backlog -= secs;
            drained += secs;
            steps.push(QueueStep {
                backlog_gb: backlog * gb_per_sec,
                delay_intervals: None,
            });
            while head <= k {
                let burst_gb = gb_per_interval[head];
                let burst = self.drain_secs(burst_gb);
                if burst_gb > 0.0 {
                    if !(backlog == 0.0 || drained >= offered + burst) {
                        break;
                    }
                    steps[head].delay_intervals = Some((k - head) as u64);
                }
                offered += burst;
                head += 1;
            }
            if backlog == 0.0 {
                drained = 0.0;
                offered = 0.0;
            }
        }
        steps
    }

    /// Fraction of wall-clock time the site link is busy migrating,
    /// given per-interval migration volumes (GB per `interval_secs`).
    /// This is the §5 "2-4 % of the time" statistic.
    ///
    /// Bursts too large to drain within their own interval stay busy in
    /// subsequent intervals (see [`busy_profile`](Self::busy_profile));
    /// only backlog outstanding *after the last interval* is excluded,
    /// since the observation window ends there. Returns 0.0 for an empty
    /// series or a non-positive (or NaN) `interval_secs`.
    pub fn busy_fraction(&self, gb_per_interval: &[f64], interval_secs: f64) -> f64 {
        if gb_per_interval.is_empty() || interval_secs.is_nan() || interval_secs <= 0.0 {
            return 0.0;
        }
        let (busy, _leftover) = self.busy_profile(gb_per_interval, interval_secs);
        let total_busy: f64 = busy.iter().sum();
        // Each interval's busy time is ≤ interval_secs, but summation
        // rounding can push the ratio a couple of ulps past 1.0.
        (total_busy / (gb_per_interval.len() as f64 * interval_secs)).min(1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_headline_numbers() {
        let wan = WanModel::default();
        // 10 TB in 5 minutes ≈ 267 Gbps — the paper rounds to ≈200 Gbps.
        let gbps = wan.required_gbps(10_000.0);
        assert!((200.0..300.0).contains(&gbps), "got {gbps}");
        // Per-site share of 50 Tbps over 100 sites = 500 Gbps; a 10 TB
        // spike needs ~40-55% of it (paper: "roughly 40%").
        assert_eq!(wan.per_site_share_gbps(), 500.0);
        let frac = wan.share_fraction(10_000.0);
        assert!((0.35..0.6).contains(&frac), "got {frac}");
    }

    #[test]
    fn drain_time_scales_linearly() {
        let wan = WanModel::default();
        assert_eq!(wan.drain_secs(0.0), 0.0);
        // 200 Gbps moves 25 GB/s.
        assert!((wan.drain_secs(25.0) - 1.0).abs() < 1e-9);
        assert!((wan.drain_secs(2_500.0) - 100.0).abs() < 1e-9);
    }

    #[test]
    fn busy_fraction_counts_drain_time() {
        let wan = WanModel::default();
        // One 2 500 GB burst (100 s of drain) in four 900 s intervals.
        let frac = wan.busy_fraction(&[2_500.0, 0.0, 0.0, 0.0], 900.0);
        assert!((frac - 100.0 / 3_600.0).abs() < 1e-9);
        assert_eq!(wan.busy_fraction(&[], 900.0), 0.0);
    }

    #[test]
    fn busy_fraction_saturates_per_interval() {
        let wan = WanModel::default();
        // A burst too big to drain within the whole series keeps the
        // link busy 100% of the observed window.
        let huge = 1e9;
        assert!((wan.busy_fraction(&[huge], 900.0) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn busy_fraction_carries_backlog_into_later_intervals() {
        let wan = WanModel::default();
        // 45 000 GB = 1 800 s of drain at 200 Gbps. In 900 s intervals
        // that is two full intervals of work: the old per-interval clamp
        // reported 900/3600 = 0.25; with carry the link is busy for
        // 1 800/3 600 = 0.5 of the window.
        let frac = wan.busy_fraction(&[45_000.0, 0.0, 0.0, 0.0], 900.0);
        assert!((frac - 0.5).abs() < 1e-9, "got {frac}");
        // Overlapping bursts stack rather than vanish at boundaries.
        let frac = wan.busy_fraction(&[45_000.0, 45_000.0, 0.0, 0.0], 900.0);
        assert!((frac - 1.0).abs() < 1e-9, "got {frac}");
    }

    #[test]
    fn busy_profile_conserves_drain_time() {
        let wan = WanModel::default();
        let volumes = [45_000.0, 100.0, 0.0, 30_000.0];
        let (busy, leftover) = wan.busy_profile(&volumes, 900.0);
        let total_drain: f64 = volumes.iter().map(|&gb| wan.drain_secs(gb)).sum();
        let accounted: f64 = busy.iter().sum::<f64>() + leftover;
        assert!((accounted - total_drain).abs() < 1e-6);
        for &b in &busy {
            assert!((0.0..=900.0).contains(&b));
        }
    }

    /// Each interval's FIFO delay. The default 200 Gbps link moves
    /// 22 500 GB per 900 s interval.
    fn delays(steps: &[QueueStep]) -> Vec<Option<u64>> {
        steps.iter().map(|s| s.delay_intervals).collect()
    }

    #[test]
    fn a_small_burst_drains_within_its_interval() {
        let steps = WanModel::default().queue(&[1_000.0, 0.0], 900.0);
        assert_eq!(steps[0].backlog_gb, 0.0);
        assert_eq!(delays(&steps), vec![Some(0), None]);
    }

    #[test]
    fn an_oversized_burst_queues_and_waits() {
        // 50 000 GB needs about 2.2 intervals.
        let steps = WanModel::default().queue(&[50_000.0, 0.0, 0.0, 0.0], 900.0);
        assert!((steps[0].backlog_gb - 27_500.0).abs() < 1e-9);
        assert!((steps[1].backlog_gb - 5_000.0).abs() < 1e-9);
        assert_eq!(steps[2].backlog_gb, 0.0);
        assert_eq!(delays(&steps), vec![Some(2), None, None, None]);
    }

    #[test]
    fn bursts_drain_first_in_first_out() {
        // 7 500 GB of the first burst waits; both finish in the second
        // interval, and the first waited one interval.
        let steps = WanModel::default().queue(&[30_000.0, 10_000.0], 900.0);
        assert_eq!(delays(&steps), vec![Some(1), Some(0)]);
        // A burst that exactly fills two intervals drains at the end of
        // the second; the burst behind it waits one more.
        let steps = WanModel::default().queue(&[45_000.0, 11_250.0, 0.0], 900.0);
        assert_eq!(delays(&steps), vec![Some(1), Some(1), None]);
        assert_eq!(steps[1].backlog_gb, 11_250.0);
    }

    #[test]
    fn queue_conserves_volume() {
        let wan = WanModel::default();
        let offered = [40_000.0, 0.0, 10_000.0, 0.0, 0.0, 5_000.0, 0.0, 90_000.0];
        let steps = wan.queue(&offered, 900.0);
        let (busy, leftover) = wan.busy_profile(&offered, 900.0);
        let drained_gb: f64 = busy.iter().sum::<f64>() * 25.0;
        let total: f64 = offered.iter().sum();
        let last = steps[steps.len() - 1];
        assert!((drained_gb + last.backlog_gb - total).abs() < 1e-6);
        assert!((last.backlog_gb - leftover * 25.0).abs() < 1e-6);
        assert_eq!(last.delay_intervals, None, "the last burst is still queued");
    }

    #[test]
    fn a_link_that_cannot_drain_keeps_every_burst() {
        let offered = [1_000.0, 0.0, -5.0, 2_500.0];
        let backlog = [1_000.0, 1_000.0, 1_000.0, 3_500.0];
        let stuck = |steps: Vec<QueueStep>| {
            assert_eq!(
                steps.iter().map(|s| s.backlog_gb).collect::<Vec<_>>(),
                backlog
            );
            assert!(steps.iter().all(|s| s.delay_intervals.is_none()));
        };
        for bad in [0.0, -200.0, f64::NAN] {
            let wan = WanModel {
                site_link_gbps: bad,
                ..WanModel::default()
            };
            stuck(wan.queue(&offered, 900.0));
            stuck(WanModel::default().queue(&offered, bad));
        }
        assert!(WanModel::default().queue(&[], 900.0).is_empty());
    }

    #[test]
    fn degenerate_intervals_return_zero_not_nan() {
        let wan = WanModel::default();
        for secs in [0.0, -900.0, f64::NAN] {
            assert_eq!(wan.busy_fraction(&[100.0], secs), 0.0);
        }
    }

    #[test]
    fn degenerate_models_return_zero_not_nan() {
        let zero_sites = WanModel {
            n_sites: 0,
            ..WanModel::default()
        };
        assert_eq!(zero_sites.per_site_share_gbps(), 0.0);
        assert_eq!(zero_sites.share_fraction(10_000.0), 0.0);
        for bad in [0.0, -5.0, f64::NAN] {
            let wan = WanModel {
                migration_deadline_secs: bad,
                ..WanModel::default()
            };
            assert_eq!(wan.required_gbps(10_000.0), 0.0);
            let wan = WanModel {
                site_link_gbps: bad,
                ..WanModel::default()
            };
            assert_eq!(wan.drain_secs(100.0), 0.0);
            let wan = WanModel {
                aggregate_gbps: bad,
                ..WanModel::default()
            };
            assert_eq!(wan.share_fraction(10_000.0), 0.0);
        }
    }
}
