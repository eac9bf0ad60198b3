//! Bandwidth accounting: cumulative byte curves and windowed statistics.
//!
//! Table 1 of the paper reports "peak transfer rate over 0.1 seconds",
//! "peak transfer rate over 5 seconds", "sustained transfer rate over
//! 1 hour" and "total data transferred in 1 hour" — all derived from one
//! cumulative bytes-vs-time curve measured by SciNET instrumentation.
//! [`BandwidthMeter`] records that curve (piecewise linear between samples)
//! and computes the same statistics exactly.

use esg_simnet::{SimDuration, SimTime};

/// Records a monotone cumulative-bytes curve and answers rate queries.
#[derive(Debug, Default, Clone)]
pub struct BandwidthMeter {
    /// (time, cumulative bytes) samples, strictly increasing in time,
    /// non-decreasing in bytes.
    samples: Vec<(SimTime, f64)>,
    /// Samples rejected because they regressed in time or bytes. Counted
    /// identically in debug and release builds.
    dropped_samples: u64,
}

impl BandwidthMeter {
    pub fn new() -> Self {
        BandwidthMeter::default()
    }

    /// Record the cumulative byte count at `time`.
    ///
    /// Returns `true` if the sample was accepted (appended or same-instant
    /// replaced). Out-of-order or byte-regressing samples are dropped, the
    /// [`dropped_samples`] counter is bumped, and `false` is returned — the
    /// same behaviour in every build profile, so debug and release runs no
    /// longer diverge (the seed panicked in debug and silently dropped in
    /// release).
    ///
    /// [`dropped_samples`]: BandwidthMeter::dropped_samples
    pub fn record(&mut self, time: SimTime, cumulative_bytes: f64) -> bool {
        if let Some(&(t, b)) = self.samples.last() {
            if time < t || cumulative_bytes < b {
                self.dropped_samples += 1;
                return false;
            }
            if time == t {
                // Replace: same-instant update.
                self.samples.last_mut().unwrap().1 = cumulative_bytes;
                return true;
            }
        }
        self.samples.push((time, cumulative_bytes));
        true
    }

    /// Convenience: add a byte delta at `time`. Returns `false` if the
    /// resulting sample was dropped (see [`BandwidthMeter::record`]).
    pub fn add(&mut self, time: SimTime, delta: f64) -> bool {
        let last = self.samples.last().map_or(0.0, |&(_, b)| b);
        self.record(time, last + delta)
    }

    /// How many samples have been rejected for regressing in time or bytes.
    pub fn dropped_samples(&self) -> u64 {
        self.dropped_samples
    }

    pub fn is_empty(&self) -> bool {
        self.samples.len() < 2
    }

    pub fn sample_count(&self) -> usize {
        self.samples.len()
    }

    /// Every accepted `(time, cumulative bytes)` sample, in time order.
    pub fn samples(&self) -> &[(SimTime, f64)] {
        &self.samples
    }

    /// First and last sample times.
    pub fn span(&self) -> Option<(SimTime, SimTime)> {
        match (self.samples.first(), self.samples.last()) {
            (Some(&(a, _)), Some(&(b, _))) if b > a => Some((a, b)),
            _ => None,
        }
    }

    /// Cumulative bytes at `t`, interpolating linearly between samples and
    /// clamping outside the recorded span.
    pub fn bytes_at(&self, t: SimTime) -> f64 {
        // Binary search for the segment containing t.
        let mut idx = self.samples.partition_point(|&(st, _)| st <= t);
        self.bytes_at_from(&mut idx, t)
    }

    /// [`bytes_at`](Self::bytes_at) read through a forward cursor: `idx`
    /// is moved on to the first sample after `t`, so a caller that asks
    /// for non-decreasing times from `idx = 0` walks the samples once in
    /// all. Same clamps, same segment, same arithmetic as `bytes_at`, so
    /// the same bits.
    fn bytes_at_from(&self, idx: &mut usize, t: SimTime) -> f64 {
        let (Some(&first), Some(&last)) = (self.samples.first(), self.samples.last()) else {
            return 0.0;
        };
        if t <= first.0 {
            return first.1;
        }
        if t >= last.0 {
            return last.1;
        }
        // first.0 < t < last.0: the walk stops inside the samples.
        while self.samples[*idx].0 <= t {
            *idx += 1;
        }
        let (t0, b0) = self.samples[*idx - 1];
        let (t1, b1) = self.samples[*idx];
        let frac = t.since(t0).as_secs_f64() / t1.since(t0).as_secs_f64();
        b0 + (b1 - b0) * frac
    }

    /// Total bytes moved in `[from, to]`.
    pub fn bytes_between(&self, from: SimTime, to: SimTime) -> f64 {
        (self.bytes_at(to) - self.bytes_at(from)).max(0.0)
    }

    /// Mean rate over `[from, to]` in bytes/sec.
    pub fn mean_rate(&self, from: SimTime, to: SimTime) -> f64 {
        let dt = to.since(from).as_secs_f64();
        if dt <= 0.0 {
            return 0.0;
        }
        self.bytes_between(from, to) / dt
    }

    /// Peak rate over any window of length `window` within the recorded
    /// span, in bytes/sec. Evaluates windows anchored at every sample
    /// boundary, which is exact for a piecewise-linear curve, in one
    /// forward pass over the samples.
    pub fn peak_rate(&self, window: SimDuration) -> f64 {
        let Some((start, end)) = self.span() else {
            return 0.0;
        };
        if window.is_zero() || end.since(start) < window {
            return self.mean_rate(start, end);
        }
        let w = window.as_secs_f64();
        let mut peak: f64 = 0.0;
        // Candidate window starts: every sample time (clamped) and every
        // sample time minus the window. For a piecewise-linear cumulative
        // curve the maximum of B(t+w)-B(t) occurs with t or t+w at a knot.
        // Each stream of starts rises with the sample index, and so do its
        // ends, so each of the four reads through its own cursor and every
        // value is the one `bytes_at` gives. The final start, `end - w`,
        // is at or after every start of the second stream.
        let mut consider = |t: SimTime, (from, to): &mut (usize, usize)| {
            if t < start {
                return;
            }
            let t_end = t + window;
            if t_end > end {
                return;
            }
            let bytes = self.bytes_at_from(to, t_end) - self.bytes_at_from(from, t);
            let rate = bytes.max(0.0) / w;
            if rate > peak {
                peak = rate;
            }
        };
        let (mut at_knot, mut ending_at_knot) = ((0, 0), (0, 0));
        for &(t, _) in &self.samples {
            consider(t, &mut at_knot);
            if t.since(start) >= window {
                consider(
                    SimTime(t.as_nanos() - window.as_nanos()),
                    &mut ending_at_knot,
                );
            }
        }
        // Also the very end.
        consider(
            SimTime(end.as_nanos().saturating_sub(window.as_nanos())),
            &mut ending_at_knot,
        );
        peak
    }

    /// Binned rate series: one `(bin_start, mean rate)` point per `bin`
    /// across the recorded span. This is the Figure 8 series.
    pub fn series(&self, bin: SimDuration) -> Vec<(SimTime, f64)> {
        let Some((start, end)) = self.span() else {
            return Vec::new();
        };
        assert!(!bin.is_zero(), "bin must be positive");
        let mut out = Vec::new();
        let mut t = start;
        while t < end {
            let t_next = (t + bin).min(end);
            out.push((t, self.mean_rate(t, t_next)));
            t += bin;
        }
        out
    }
}

/// Convert bytes/sec to the paper's Mb/s (megabits, decimal).
pub fn to_mbps(bytes_per_sec: f64) -> f64 {
    bytes_per_sec * 8.0 / 1e6
}

/// Convert bytes/sec to Gb/s.
pub fn to_gbps(bytes_per_sec: f64) -> f64 {
    bytes_per_sec * 8.0 / 1e9
}

#[cfg(test)]
mod tests {
    use super::*;

    fn meter_linear(rate: f64, secs: u64) -> BandwidthMeter {
        let mut m = BandwidthMeter::new();
        for s in 0..=secs {
            m.record(SimTime::from_secs(s), rate * s as f64);
        }
        m
    }

    #[test]
    fn mean_rate_of_constant_curve() {
        let m = meter_linear(100.0, 10);
        assert!((m.mean_rate(SimTime::ZERO, SimTime::from_secs(10)) - 100.0).abs() < 1e-9);
        assert!((m.mean_rate(SimTime::from_secs(2), SimTime::from_secs(7)) - 100.0).abs() < 1e-9);
    }

    #[test]
    fn interpolation_between_samples() {
        let mut m = BandwidthMeter::new();
        m.record(SimTime::ZERO, 0.0);
        m.record(SimTime::from_secs(10), 1000.0);
        assert!((m.bytes_at(SimTime::from_secs(5)) - 500.0).abs() < 1e-9);
    }

    #[test]
    fn clamping_outside_span() {
        let m = meter_linear(10.0, 5);
        assert_eq!(m.bytes_at(SimTime::from_secs(100)), 50.0);
        assert_eq!(m.bytes_at(SimTime::ZERO), 0.0);
    }

    #[test]
    fn peak_finds_burst() {
        // 10 s at 10 B/s, then 1 s burst at 1000 B/s, then 10 s at 10 B/s.
        let mut m = BandwidthMeter::new();
        m.record(SimTime::ZERO, 0.0);
        m.record(SimTime::from_secs(10), 100.0);
        m.record(SimTime::from_secs(11), 1100.0);
        m.record(SimTime::from_secs(21), 1200.0);
        let peak1 = m.peak_rate(SimDuration::from_secs(1));
        assert!((peak1 - 1000.0).abs() < 1e-6, "{peak1}");
        // Over 5 s windows the burst is diluted.
        let peak5 = m.peak_rate(SimDuration::from_secs(5));
        assert!(peak5 < 250.0 && peak5 > 200.0, "{peak5}");
        // Sustained over everything.
        let sustained = m.mean_rate(SimTime::ZERO, SimTime::from_secs(21));
        assert!((sustained - 1200.0 / 21.0).abs() < 1e-6);
        // Peaks over shorter windows never lose to longer windows.
        assert!(peak1 >= peak5);
    }

    #[test]
    fn peak_window_longer_than_span_falls_back_to_mean() {
        let m = meter_linear(50.0, 2);
        let p = m.peak_rate(SimDuration::from_secs(100));
        assert!((p - 50.0).abs() < 1e-9);
    }

    #[test]
    fn series_bins() {
        let m = meter_linear(100.0, 10);
        let series = m.series(SimDuration::from_secs(2));
        assert_eq!(series.len(), 5);
        for (_, rate) in series {
            assert!((rate - 100.0).abs() < 1e-9);
        }
    }

    #[test]
    fn add_accumulates() {
        let mut m = BandwidthMeter::new();
        m.add(SimTime::ZERO, 0.0);
        m.add(SimTime::from_secs(1), 500.0);
        m.add(SimTime::from_secs(2), 500.0);
        assert_eq!(m.bytes_at(SimTime::from_secs(2)), 1000.0);
    }

    #[test]
    fn same_instant_update_replaces() {
        let mut m = BandwidthMeter::new();
        m.record(SimTime::ZERO, 0.0);
        m.record(SimTime::from_secs(1), 10.0);
        m.record(SimTime::from_secs(1), 20.0);
        assert_eq!(m.bytes_at(SimTime::from_secs(1)), 20.0);
        assert_eq!(m.sample_count(), 2);
    }

    #[test]
    fn unit_conversions() {
        assert!((to_mbps(512.9e6 / 8.0) - 512.9).abs() < 1e-9);
        assert!((to_gbps(1.55e9 / 8.0) - 1.55).abs() < 1e-9);
    }

    #[test]
    fn regressing_samples_are_counted_and_reported() {
        let mut m = BandwidthMeter::new();
        assert!(m.record(SimTime::from_secs(5), 100.0));
        // Time regression.
        assert!(!m.record(SimTime::from_secs(4), 200.0));
        // Byte regression at a later time.
        assert!(!m.record(SimTime::from_secs(6), 50.0));
        assert_eq!(m.dropped_samples(), 2);
        assert_eq!(m.sample_count(), 1);
        // A well-formed sample still lands afterwards.
        assert!(m.record(SimTime::from_secs(6), 150.0));
        assert_eq!(m.sample_count(), 2);
        assert_eq!(m.dropped_samples(), 2);
        // add() propagates the verdict too.
        assert!(!m.add(SimTime::from_secs(5), 10.0));
        assert_eq!(m.dropped_samples(), 3);
    }

    #[test]
    fn empty_meter_is_harmless() {
        let m = BandwidthMeter::new();
        assert_eq!(m.peak_rate(SimDuration::from_secs(1)), 0.0);
        assert!(m.series(SimDuration::from_secs(1)).is_empty());
        assert_eq!(m.span(), None);
    }

    /// At a knot, the segment it starts and the segment it ends can give
    /// different bits (`1 + (2^53 + 2 - 1)` rounds to `2^53`): a cursor
    /// must stop on the segment `bytes_at` picks.
    #[test]
    fn a_knot_reads_from_the_segment_it_starts() {
        let big = 9_007_199_254_740_994.0; // 2^53 + 2
        let mut m = BandwidthMeter::new();
        m.record(SimTime::ZERO, 1.0);
        m.record(SimTime::from_secs(1), big);
        m.record(SimTime::from_secs(2), big + 4.0);
        let mut idx = 0;
        assert_eq!(m.bytes_at_from(&mut idx, SimTime::from_secs(1)), big);
        assert_eq!(m.bytes_at(SimTime::from_secs(1)), big);
    }

    /// `bytes_at` as a binary search per call: the oracle's reader.
    fn bytes_at_oracle(m: &BandwidthMeter, t: SimTime) -> f64 {
        if m.samples.is_empty() {
            return 0.0;
        }
        let first = m.samples[0];
        let last = *m.samples.last().unwrap();
        if t <= first.0 {
            return first.1;
        }
        if t >= last.0 {
            return last.1;
        }
        let idx = m.samples.partition_point(|&(st, _)| st <= t);
        let (t0, b0) = m.samples[idx - 1];
        let (t1, b1) = m.samples[idx];
        let frac = t.since(t0).as_secs_f64() / t1.since(t0).as_secs_f64();
        b0 + (b1 - b0) * frac
    }

    /// `peak_rate` with four binary searches per sample, the way it was
    /// computed before the one-pass sweep: the oracle the sweep must match
    /// bit for bit.
    fn peak_rate_oracle(m: &BandwidthMeter, window: SimDuration) -> f64 {
        let between = |from: SimTime, to: SimTime| {
            (bytes_at_oracle(m, to) - bytes_at_oracle(m, from)).max(0.0)
        };
        let Some((start, end)) = m.span() else {
            return 0.0;
        };
        if window.is_zero() || end.since(start) < window {
            return between(start, end) / end.since(start).as_secs_f64();
        }
        let w = window.as_secs_f64();
        let mut peak: f64 = 0.0;
        let mut consider = |t: SimTime| {
            if t < start {
                return;
            }
            let t_end = t + window;
            if t_end > end {
                return;
            }
            let rate = between(t, t_end) / w;
            if rate > peak {
                peak = rate;
            }
        };
        for &(t, _) in &m.samples {
            consider(t);
            if t.since(start) >= window {
                consider(SimTime(t.as_nanos() - window.as_nanos()));
            }
        }
        consider(SimTime(end.as_nanos().saturating_sub(window.as_nanos())));
        peak
    }

    use proptest::prelude::*;

    proptest! {
        /// Random meters: strictly increasing times, on a fixed step or at
        /// random gaps; non-decreasing fractional bytes with flat stretches.
        /// Windows: multiples of the step, multiples plus a remainder, the
        /// whole span, longer than it, and zero. Each meter is checked whole
        /// and as its first two samples.
        #[test]
        fn peak_rate_matches_the_binary_search_oracle(
            start_ns in 0u64..5_000_000_000,
            step_ns in 1u64..300_000_000,
            points in prop::collection::vec((0u64..3, 1u64..900_000_000, 0u64..3, 0.0f64..5e8), 1..64),
            jitter_ns in 1u64..300_000_000,
        ) {
            let mut m = BandwidthMeter::new();
            let (mut t, mut bytes) = (start_ns, 1e3);
            m.record(SimTime(t), bytes);
            for &(gap_kind, gap_ns, flat, delta) in &points {
                t += if gap_kind == 0 { gap_ns } else { step_ns };
                if flat != 0 {
                    bytes += delta;
                }
                prop_assert!(m.record(SimTime(t), bytes));
            }
            let two = BandwidthMeter {
                samples: m.samples[..2].to_vec(),
                dropped_samples: 0,
            };
            for meter in [&m, &two] {
                let (a, b) = meter.span().unwrap();
                let span = b.since(a).as_nanos();
                let mut windows = vec![0, span, span + 1, 2 * span + jitter_ns];
                for k in [1, 2, 3, 5, 8, 13] {
                    windows.push(k * step_ns);
                    windows.push(k * step_ns + jitter_ns % step_ns.max(2));
                }
                for w in windows {
                    let w = SimDuration(w);
                    prop_assert_eq!(
                        meter.peak_rate(w).to_bits(),
                        peak_rate_oracle(meter, w).to_bits(),
                        "window {:?}, {} samples",
                        w,
                        meter.sample_count()
                    );
                }
            }
        }

        /// One cursor through every knot, its neighbours, the midpoints and
        /// both clamps reads what a binary search per call reads.
        #[test]
        fn cursor_reads_match_the_binary_search(
            points in prop::collection::vec((1u64..900_000_000, 0u64..3, 0.0f64..5e8), 1..64),
        ) {
            let mut m = BandwidthMeter::new();
            let (mut t, mut bytes) = (1, 1e3);
            m.record(SimTime(t), bytes);
            for &(gap_ns, flat, delta) in &points {
                t += gap_ns;
                if flat != 0 {
                    bytes += delta;
                }
                prop_assert!(m.record(SimTime(t), bytes));
            }
            let mut times = vec![SimTime(0), SimTime(t + 1)];
            for pair in m.samples.windows(2) {
                let (t0, t1) = (pair[0].0.as_nanos(), pair[1].0.as_nanos());
                times.extend([t0, t0 + 1, t0 + (t1 - t0) / 2, t1 - 1].map(SimTime));
            }
            times.sort_unstable();
            let mut idx = 0;
            for &t in &times {
                let want = bytes_at_oracle(&m, t).to_bits();
                prop_assert_eq!(m.bytes_at_from(&mut idx, t).to_bits(), want, "at {:?}", t);
                prop_assert_eq!(m.bytes_at(t).to_bits(), want, "at {:?}", t);
            }
        }
    }
}
