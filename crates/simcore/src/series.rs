//! Time-series helpers used by the measurement harnesses.
//!
//! [`TimeSeries`] accumulates `(time, value)` points; [`RateSeries`]
//! accumulates byte counts and turns them into throughput-over-time and
//! cumulative-average-throughput curves — the exact quantities plotted in
//! the paper's Figures 9–12.

use crate::time::{Dur, Time};
use serde::{Deserialize, Serialize};

/// A sequence of timestamped samples, kept in arrival order (which is
/// non-decreasing in simulated time by construction of the event loop).
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct TimeSeries {
    points: Vec<(Time, f64)>,
}

impl TimeSeries {
    /// Empty series.
    pub fn new() -> Self {
        Self::default()
    }

    /// Append a sample. Panics if time goes backwards (the simulator never
    /// produces out-of-order samples; a panic here means a harness bug).
    pub fn push(&mut self, at: Time, value: f64) {
        if let Some(&(last, _)) = self.points.last() {
            assert!(at >= last, "time series went backwards: {last} -> {at}");
        }
        self.points.push((at, value));
    }

    /// All points.
    pub fn points(&self) -> &[(Time, f64)] {
        &self.points
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// True iff no samples.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Last sample, if any.
    pub fn last(&self) -> Option<(Time, f64)> {
        self.points.last().copied()
    }
}

/// Accumulates byte-progress events (e.g. "k bytes cumulatively ACKed at
/// time t") and derives throughput curves from them.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct RateSeries {
    /// `(time, cumulative_bytes)` — cumulative_bytes non-decreasing.
    progress: Vec<(Time, u64)>,
    start: Option<Time>,
}

impl RateSeries {
    /// Empty series.
    pub fn new() -> Self {
        Self::default()
    }

    /// Mark the logical start of the transfer (connection initiation).
    /// The paper measures average throughput "from the time the MPTCP
    /// session is established", i.e. from the first SYN.
    pub fn mark_start(&mut self, at: Time) {
        if self.start.is_none() {
            self.start = Some(at);
        }
    }

    /// Record that the cumulative byte count reached `cumulative_bytes`
    /// at `at`. Monotonicity in both coordinates is enforced.
    pub fn record(&mut self, at: Time, cumulative_bytes: u64) {
        if let Some(&(t, b)) = self.progress.last() {
            assert!(at >= t, "progress time went backwards");
            if cumulative_bytes <= b {
                return; // duplicate ACK level; nothing new to record
            }
        }
        self.mark_start(at);
        self.progress.push((at, cumulative_bytes));
    }

    /// Transfer start time (first SYN / first record).
    pub fn start(&self) -> Option<Time> {
        self.start
    }

    /// Total bytes recorded.
    pub fn total_bytes(&self) -> u64 {
        self.progress.last().map(|&(_, b)| b).unwrap_or(0)
    }

    /// Time of last progress.
    pub fn end(&self) -> Option<Time> {
        self.progress.last().map(|&(t, _)| t)
    }

    /// Average throughput in bits/s over the whole transfer, or `None`
    /// when fewer than one byte of progress or zero elapsed time.
    pub fn average_bps(&self) -> Option<f64> {
        let start = self.start?;
        let (end, bytes) = self.progress.last().copied()?;
        let dt = (end - start).as_secs_f64();
        if dt <= 0.0 || bytes == 0 {
            return None;
        }
        Some(bytes as f64 * 8.0 / dt)
    }

    /// Cumulative average throughput (bits/s) sampled at each progress
    /// point — the "average throughput from session establishment to time
    /// t" curve of Figures 9 and 10.
    pub fn cumulative_average_curve(&self) -> TimeSeries {
        let mut ts = TimeSeries::new();
        let Some(start) = self.start else {
            return ts;
        };
        for &(t, bytes) in &self.progress {
            let dt = (t - start).as_secs_f64();
            if dt > 0.0 {
                ts.push(t, bytes as f64 * 8.0 / dt);
            }
        }
        ts
    }

    /// Windowed throughput (bits/s) over fixed bins of width `bin`,
    /// covering `[start, end]`. Bins with no progress report 0.
    pub fn binned_throughput(&self, bin: Dur) -> TimeSeries {
        let mut ts = TimeSeries::new();
        let (Some(start), Some(end)) = (self.start, self.end()) else {
            return ts;
        };
        assert!(!bin.is_zero(), "bin must be positive");
        let mut prev_bytes = 0u64;
        let mut idx = 0usize;
        let mut t = start;
        while t < end {
            let t_next = t + bin;
            // bytes at end of bin = last progress record <= t_next
            while idx < self.progress.len() && self.progress[idx].0 <= t_next {
                prev_bytes = self.progress[idx].1;
                idx += 1;
            }
            let bytes_by_prev_bin = if ts.is_empty() {
                0
            } else {
                // reconstruct from cumulative curve below
                ts_cumulative_last(&ts)
            };
            let delta = prev_bytes - bytes_by_prev_bin;
            ts.push(t_next, delta as f64); // temporarily store cumulative deltas
            t = t_next;
        }
        // Convert "bytes in bin" into bits/s.
        let mut out = TimeSeries::new();
        let mut cum = 0u64;
        for &(t, v) in ts.points() {
            cum += v as u64;
            let _ = cum;
            out.push(t, v * 8.0 / bin.as_secs_f64());
        }
        out
    }

    /// Time taken for the first `bytes` of progress, measured from start.
    /// `None` if the transfer never reached `bytes`.
    pub fn time_to_bytes(&self, bytes: u64) -> Option<Dur> {
        let start = self.start?;
        for &(t, b) in &self.progress {
            if b >= bytes {
                return Some(t - start);
            }
        }
        None
    }

    /// Average throughput (bits/s) over the prefix of the transfer up to
    /// `bytes` — i.e. the throughput a flow of exactly that size would
    /// have seen. This is how the paper computes "throughput as a function
    /// of flow size" from a single 1 MB transfer (Figures 7, 11, 12).
    pub fn throughput_at_flow_size(&self, bytes: u64) -> Option<f64> {
        let dt = self.time_to_bytes(bytes)?.as_secs_f64();
        if dt <= 0.0 {
            return None;
        }
        Some(bytes as f64 * 8.0 / dt)
    }

    /// Raw progress points.
    pub fn progress(&self) -> &[(Time, u64)] {
        &self.progress
    }
}

fn ts_cumulative_last(ts: &TimeSeries) -> u64 {
    ts.points().iter().map(|&(_, v)| v as u64).sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[should_panic(expected = "backwards")]
    fn time_series_rejects_regress() {
        let mut ts = TimeSeries::new();
        ts.push(Time::from_secs(2), 1.0);
        ts.push(Time::from_secs(1), 2.0);
    }

    #[test]
    fn average_throughput_simple() {
        let mut rs = RateSeries::new();
        rs.mark_start(Time::ZERO);
        rs.record(Time::from_secs(1), 125_000); // 125 kB in 1 s = 1 Mbit/s
        assert_eq!(rs.average_bps().unwrap().round() as u64, 1_000_000);
        assert_eq!(rs.total_bytes(), 125_000);
    }

    #[test]
    fn duplicate_progress_ignored() {
        let mut rs = RateSeries::new();
        rs.record(Time::from_secs(1), 100);
        rs.record(Time::from_secs(2), 100);
        rs.record(Time::from_secs(3), 50); // stale cumulative level
        assert_eq!(rs.progress().len(), 1);
    }

    #[test]
    fn time_to_bytes_interpolates_records() {
        let mut rs = RateSeries::new();
        rs.mark_start(Time::ZERO);
        rs.record(Time::from_secs(1), 10_000);
        rs.record(Time::from_secs(2), 50_000);
        assert_eq!(rs.time_to_bytes(10_000), Some(Dur::from_secs(1)));
        assert_eq!(rs.time_to_bytes(10_001), Some(Dur::from_secs(2)));
        assert_eq!(rs.time_to_bytes(50_001), None);
    }

    #[test]
    fn throughput_at_flow_size_prefix() {
        let mut rs = RateSeries::new();
        rs.mark_start(Time::ZERO);
        rs.record(Time::from_secs(1), 125_000);
        rs.record(Time::from_secs(2), 500_000);
        // 10 kB flow completes within the first second's progress point.
        let t10k = rs.throughput_at_flow_size(10_000).unwrap();
        assert_eq!(t10k.round() as u64, 80_000); // 10kB/1s = 80 kbit/s
        let t500k = rs.throughput_at_flow_size(500_000).unwrap();
        assert_eq!(t500k.round() as u64, 2_000_000);
    }

    #[test]
    fn cumulative_average_curve_is_progress_over_elapsed() {
        let mut rs = RateSeries::new();
        rs.mark_start(Time::ZERO);
        rs.record(Time::from_secs(1), 125_000);
        rs.record(Time::from_secs(2), 250_000);
        let curve = rs.cumulative_average_curve();
        assert_eq!(curve.len(), 2);
        assert_eq!(curve.points()[0].1.round() as u64, 1_000_000);
        assert_eq!(curve.points()[1].1.round() as u64, 1_000_000);
    }

    #[test]
    fn binned_throughput_covers_transfer() {
        let mut rs = RateSeries::new();
        rs.mark_start(Time::ZERO);
        // 1000 bytes at t=0.5s, 3000 bytes total by t=1.5s.
        rs.record(Time::from_millis(500), 1000);
        rs.record(Time::from_millis(1500), 3000);
        let binned = rs.binned_throughput(Dur::from_secs(1));
        assert_eq!(binned.len(), 2);
        // bin 1: 1000 bytes -> 8000 bit/s; bin 2: 2000 bytes -> 16000 bit/s.
        assert_eq!(binned.points()[0].1.round() as u64, 8_000);
        assert_eq!(binned.points()[1].1.round() as u64, 16_000);
    }

    #[test]
    fn empty_series_yield_none() {
        let rs = RateSeries::new();
        assert!(rs.average_bps().is_none());
        assert!(rs.time_to_bytes(1).is_none());
        assert!(rs.cumulative_average_curve().is_empty());
    }
}
