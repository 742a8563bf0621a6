//! Store-and-forward link simulator.
//!
//! Migration bursts are spiky (Fig 4a); a finite WAN link drains them
//! over time, building a backlog when a burst exceeds the link's
//! per-interval capacity. This simulator quantifies completion latency
//! and backlog so the scheduler's burst-smoothing benefit (MIP-peak,
//! §3.1) can be expressed in seconds of transfer delay rather than only
//! in bytes.

use std::collections::VecDeque;

/// One pending transfer on the link.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Transfer {
    /// Remaining volume, GB.
    remaining_gb: f64,
    /// Interval index at which the transfer was enqueued.
    enqueued_at: u64,
}

/// Per-interval link telemetry.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkStats {
    /// Interval index.
    pub interval: u64,
    /// GB drained this interval.
    pub drained_gb: f64,
    /// Backlog remaining after the interval, GB.
    pub backlog_gb: f64,
    /// Link utilization this interval in [0, 1].
    pub utilization: f64,
    /// Number of transfers completed this interval.
    pub completed: usize,
    /// Worst queueing delay (in intervals) among transfers completed
    /// this interval.
    pub worst_delay_intervals: u64,
}

/// A FIFO link with fixed capacity draining queued transfers.
#[derive(Debug, Clone)]
pub struct LinkSimulator {
    capacity_gb_per_interval: f64,
    queue: VecDeque<Transfer>,
    interval: u64,
}

impl LinkSimulator {
    /// A link that can move `gbps` gigabits/s, stepped at
    /// `interval_secs` granularity.
    pub fn new(gbps: f64, interval_secs: f64) -> LinkSimulator {
        assert!(
            gbps > 0.0 && interval_secs > 0.0,
            "capacity must be positive"
        );
        LinkSimulator {
            capacity_gb_per_interval: gbps * interval_secs / 8.0,
            queue: VecDeque::new(),
            interval: 0,
        }
    }

    /// GB the link can move in one interval.
    pub fn capacity_gb(&self) -> f64 {
        self.capacity_gb_per_interval
    }

    /// Current backlog, GB.
    pub fn backlog_gb(&self) -> f64 {
        self.queue.iter().map(|t| t.remaining_gb).sum()
    }

    /// Enqueue a burst and advance one interval, draining FIFO.
    pub fn step(&mut self, offered_gb: f64) -> LinkStats {
        if offered_gb > 0.0 {
            self.queue.push_back(Transfer {
                remaining_gb: offered_gb,
                enqueued_at: self.interval,
            });
        }
        let mut budget = self.capacity_gb_per_interval;
        let mut drained = 0.0;
        let mut completed = 0usize;
        let mut worst_delay = 0u64;
        while budget > 1e-12 {
            let Some(front) = self.queue.front_mut() else {
                break;
            };
            let take = front.remaining_gb.min(budget);
            front.remaining_gb -= take;
            budget -= take;
            drained += take;
            if front.remaining_gb <= 1e-12 {
                worst_delay = worst_delay.max(self.interval - front.enqueued_at);
                completed += 1;
                self.queue.pop_front();
            }
        }
        let stats = LinkStats {
            interval: self.interval,
            drained_gb: drained,
            backlog_gb: self.backlog_gb(),
            utilization: drained / self.capacity_gb_per_interval,
            completed,
            worst_delay_intervals: worst_delay,
        };
        self.interval += 1;
        stats
    }

    /// Run a whole offered-load series through the link.
    pub fn run(&mut self, offered_gb: &[f64]) -> Vec<LinkStats> {
        offered_gb.iter().map(|&gb| self.step(gb)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// 200 Gbps at 900 s intervals = 22 500 GB per interval.
    fn link() -> LinkSimulator {
        LinkSimulator::new(200.0, 900.0)
    }

    #[test]
    fn capacity_conversion() {
        assert!((link().capacity_gb() - 22_500.0).abs() < 1e-9);
    }

    #[test]
    fn small_burst_completes_immediately() {
        let mut l = link();
        let s = l.step(1_000.0);
        assert_eq!(s.completed, 1);
        assert_eq!(s.backlog_gb, 0.0);
        assert_eq!(s.worst_delay_intervals, 0);
        assert!((s.utilization - 1_000.0 / 22_500.0).abs() < 1e-9);
    }

    #[test]
    fn oversized_burst_builds_backlog_and_delays() {
        let mut l = link();
        // 50 000 GB needs ~2.2 intervals.
        let s0 = l.step(50_000.0);
        assert_eq!(s0.completed, 0);
        assert!((s0.backlog_gb - 27_500.0).abs() < 1e-9);
        assert!((s0.utilization - 1.0).abs() < 1e-9);
        let s1 = l.step(0.0);
        assert_eq!(s1.completed, 0);
        let s2 = l.step(0.0);
        assert_eq!(s2.completed, 1);
        assert_eq!(s2.worst_delay_intervals, 2);
        assert_eq!(s2.backlog_gb, 0.0);
    }

    #[test]
    fn fifo_order_is_respected() {
        let mut l = link();
        l.step(30_000.0); // backlog 7 500
        let s = l.step(10_000.0); // drains 7 500 + 10 000 = 17 500 < cap
        assert_eq!(s.completed, 2, "both finish this interval");
        assert_eq!(s.worst_delay_intervals, 1, "first waited one interval");
    }

    #[test]
    fn conservation_of_volume() {
        let mut l = link();
        let offered = [40_000.0, 0.0, 10_000.0, 0.0, 0.0, 5_000.0, 0.0];
        let stats = l.run(&offered);
        let drained: f64 = stats.iter().map(|s| s.drained_gb).sum();
        let total: f64 = offered.iter().sum();
        assert!((drained + l.backlog_gb() - total).abs() < 1e-6);
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_rejected() {
        LinkSimulator::new(0.0, 900.0);
    }
}
