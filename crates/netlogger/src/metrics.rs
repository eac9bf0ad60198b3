//! Deterministic metrics registry: counters, gauges, and log-bucket
//! histograms keyed by name, with a sorted snapshot export.
//!
//! Replaces the ad-hoc counter structs that grew per subsystem (simnet's
//! `AllocStats`, the request manager's `SchedStats` fields, monitor tick
//! tallies) with one interface. Everything is driven by simulation state —
//! no wall clock, no RNG — so same-seed runs export identical snapshots,
//! and `BTreeMap` storage keeps iteration order (and therefore JSON output)
//! deterministic regardless of registration order.

use esg_simnet::AllocStats;
use std::collections::BTreeMap;
use std::fmt::Write;

/// Histogram over power-of-two buckets.
///
/// The bucket for value `v` is the smallest `k` with `v <= 2^k`, read from
/// the f64's exponent and mantissa bits (no `log2` call, whose libm
/// rounding could differ across platforms). Exponents cover `2^-30`
/// (~1 ns as seconds) through `2^40` (~1 TB as bytes).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Histogram {
    /// count per exponent bucket: `buckets[i]` counts values in
    /// `(2^(MIN_EXP+i-1), 2^(MIN_EXP+i)]`; values `<= 2^MIN_EXP` land in
    /// bucket 0, values `> 2^MAX_EXP` in the last bucket.
    buckets: Vec<u64>,
    count: u64,
    sum: f64,
    min: f64,
    max: f64,
}

const MIN_EXP: i32 = -30;
const MAX_EXP: i32 = 40;
const N_BUCKETS: usize = (MAX_EXP - MIN_EXP + 1) as usize;

impl Histogram {
    pub fn new() -> Histogram {
        Histogram::default()
    }

    /// `v`'s bucket: 0 up to `2^MIN_EXP` (negatives, zeros and subnormals
    /// included), the last for values past `2^(MIN_EXP + N_BUCKETS - 2)`,
    /// infinity and NaN, else `ceil(log2 v) - MIN_EXP`: a normal `v`'s
    /// unbiased exponent, plus one unless `v` is a power of two.
    fn bucket_index(v: f64) -> usize {
        if v.is_nan() {
            return N_BUCKETS - 1;
        }
        if v <= 2f64.powi(MIN_EXP) {
            return 0;
        }
        let bits = v.to_bits();
        let exp = ((bits >> 52) & 0x7ff) as i32 - 1023;
        let ceil_log2 = exp + i32::from(bits & ((1 << 52) - 1) != 0);
        ((ceil_log2 - MIN_EXP) as usize).min(N_BUCKETS - 1)
    }

    /// Upper bound of bucket `i` (`f64::INFINITY` for the overflow bucket).
    pub fn bucket_bound(i: usize) -> f64 {
        if i >= N_BUCKETS - 1 {
            f64::INFINITY
        } else {
            2f64.powi(MIN_EXP + i as i32)
        }
    }

    pub fn observe(&mut self, v: f64) {
        if !v.is_finite() || v < 0.0 {
            return;
        }
        if self.buckets.is_empty() {
            self.buckets = vec![0; N_BUCKETS];
        }
        self.buckets[Self::bucket_index(v)] += 1;
        if self.count == 0 {
            self.min = v;
            self.max = v;
        } else {
            self.min = self.min.min(v);
            self.max = self.max.max(v);
        }
        self.count += 1;
        self.sum += v;
    }

    pub fn count(&self) -> u64 {
        self.count
    }

    pub fn sum(&self) -> f64 {
        self.sum
    }

    pub fn min(&self) -> Option<f64> {
        (self.count > 0).then_some(self.min)
    }

    pub fn max(&self) -> Option<f64> {
        (self.count > 0).then_some(self.max)
    }

    pub fn mean(&self) -> Option<f64> {
        (self.count > 0).then(|| self.sum / self.count as f64)
    }

    /// Upper bound of the bucket containing the q-quantile (0 ≤ q ≤ 1).
    /// Bucket-resolution approximation: exact to within one power of two.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        if self.count == 0 {
            return None;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return Some(Self::bucket_bound(i).min(self.max));
            }
        }
        Some(self.max)
    }
}

/// Apply `f` to the entry for `name`, inserting `init` first if it is
/// missing. Looks up by `&str`, so only a metric's first update allocates
/// its key.
fn update<T>(map: &mut BTreeMap<String, T>, name: &str, init: T, f: impl FnOnce(&mut T)) {
    match map.get_mut(name) {
        Some(v) => f(v),
        None => {
            let mut v = init;
            f(&mut v);
            map.insert(name.to_string(), v);
        }
    }
}

/// One deterministic registry of named counters, gauges, and histograms.
#[derive(Debug, Clone, Default)]
pub struct MetricsRegistry {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, f64>,
    histograms: BTreeMap<String, Histogram>,
}

impl MetricsRegistry {
    pub fn new() -> MetricsRegistry {
        MetricsRegistry::default()
    }

    /// Add `n` to a monotone counter.
    pub fn counter_add(&mut self, name: &str, n: u64) {
        update(&mut self.counters, name, 0, |c| *c += n);
    }

    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Set a gauge to a value.
    pub fn gauge_set(&mut self, name: &str, v: f64) {
        update(&mut self.gauges, name, v, |g| *g = v);
    }

    /// Raise a gauge to `v` if `v` exceeds its current value (high-water
    /// mark semantics; missing gauge starts at `v`).
    pub fn gauge_max(&mut self, name: &str, v: f64) {
        update(&mut self.gauges, name, v, |g| {
            if v > *g {
                *g = v;
            }
        });
    }

    pub fn gauge(&self, name: &str) -> f64 {
        self.gauges.get(name).copied().unwrap_or(0.0)
    }

    /// Record one observation into a histogram.
    pub fn observe(&mut self, name: &str, v: f64) {
        update(&mut self.histograms, name, Histogram::default(), |h| {
            h.observe(v)
        });
    }

    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        self.histograms.get(name)
    }

    /// Import simnet's allocator counters under `simnet.alloc.*`, so the
    /// flow-allocator statistics live behind the same interface as
    /// everything else. Values are absolute, so the import is a `set`, not
    /// an add — safe to call repeatedly with the latest stats.
    pub fn import_alloc(&mut self, stats: &AllocStats) {
        self.counters.insert(
            "simnet.alloc.recompute_passes".into(),
            stats.recompute_passes,
        );
        self.counters.insert(
            "simnet.alloc.components_solved".into(),
            stats.components_solved,
        );
        self.counters
            .insert("simnet.alloc.flow_solves".into(), stats.flow_solves);
        self.counters.insert(
            "simnet.alloc.route_cache_hits".into(),
            stats.route_cache_hits,
        );
        self.counters.insert(
            "simnet.alloc.route_cache_misses".into(),
            stats.route_cache_misses,
        );
        self.counters
            .insert("simnet.alloc.rate_changes".into(), stats.rate_changes);
    }

    /// Overwrite a counter with an absolute value (for importing externally
    /// maintained tallies).
    pub fn counter_set(&mut self, name: &str, v: u64) {
        self.counters.insert(name.to_string(), v);
    }

    /// Import the *deterministic* half of a subsystem profiler report —
    /// event counts only, under `profile.*`. Wall-clock self-times are
    /// deliberately excluded: they vary run to run, and this registry's
    /// exports must stay byte-stable for a fixed seed (route wall numbers
    /// through a lab record's timing section instead).
    pub fn import_profile(&mut self, report: &esg_simnet::ProfileReport) {
        for (k, &v) in &report.counts {
            self.counters.insert(format!("profile.{k}"), v);
        }
    }

    /// Flat numeric lookup across all three metric families, used by the
    /// scenario lab to extract spec-declared metrics from a snapshot.
    /// Counters and gauges resolve by name (counters win on collision);
    /// histograms resolve through a `.count` / `.sum` / `.mean` suffix.
    pub fn value(&self, name: &str) -> Option<f64> {
        if let Some(v) = self.counters.get(name) {
            return Some(*v as f64);
        }
        if let Some(v) = self.gauges.get(name) {
            return Some(*v);
        }
        let (base, field) = name.rsplit_once('.')?;
        let h = self.histograms.get(base)?;
        match field {
            "count" => Some(h.count() as f64),
            "sum" => Some(h.sum()),
            "mean" => h.mean(),
            _ => None,
        }
    }

    /// Every metric as one sorted `name → value` map: counters and gauges
    /// by name, each histogram as `<name>.count`, `.sum`, `.min`, `.max`,
    /// `.p50` and `.p99` (an empty histogram's min, max and quantiles read
    /// 0). Counters win a name clash, as in [`MetricsRegistry::value`].
    pub fn flat(&self) -> BTreeMap<String, f64> {
        let mut flat: BTreeMap<String, f64> =
            self.gauges.iter().map(|(k, &v)| (k.clone(), v)).collect();
        for (k, h) in &self.histograms {
            flat.extend([
                (format!("{k}.count"), h.count() as f64),
                (format!("{k}.sum"), h.sum()),
                (format!("{k}.min"), h.min().unwrap_or(0.0)),
                (format!("{k}.max"), h.max().unwrap_or(0.0)),
                (format!("{k}.p50"), h.quantile(0.5).unwrap_or(0.0)),
                (format!("{k}.p99"), h.quantile(0.99).unwrap_or(0.0)),
            ]);
        }
        flat.extend(self.counters.iter().map(|(k, &v)| (k.clone(), v as f64)));
        flat
    }

    /// Deterministic JSON snapshot: keys sorted (BTreeMap order), floats
    /// printed with `{}` (shortest round-trip representation).
    pub fn to_json(&self) -> String {
        let mut s = String::from("{\n  \"counters\": {");
        let mut first = true;
        for (k, v) in &self.counters {
            if !first {
                s.push(',');
            }
            first = false;
            write!(s, "\n    \"{k}\": {v}").unwrap();
        }
        s.push_str("\n  },\n  \"gauges\": {");
        first = true;
        for (k, v) in &self.gauges {
            if !first {
                s.push(',');
            }
            first = false;
            write!(s, "\n    \"{k}\": {v}").unwrap();
        }
        s.push_str("\n  },\n  \"histograms\": {");
        first = true;
        for (k, h) in &self.histograms {
            if !first {
                s.push(',');
            }
            first = false;
            write!(
                s,
                "\n    \"{k}\": {{\"count\": {}, \"sum\": {}, \"min\": {}, \"max\": {}, \"p50\": {}, \"p99\": {}}}",
                h.count(),
                h.sum(),
                h.min().unwrap_or(0.0),
                h.max().unwrap_or(0.0),
                h.quantile(0.5).unwrap_or(0.0),
                h.quantile(0.99).unwrap_or(0.0),
            )
            .unwrap();
        }
        s.push_str("\n  }\n}");
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_and_gauges() {
        let mut r = MetricsRegistry::new();
        r.counter_add("a.b", 2);
        r.counter_add("a.b", 3);
        assert_eq!(r.counter("a.b"), 5);
        assert_eq!(r.counter("missing"), 0);
        r.gauge_set("g", 1.5);
        r.gauge_max("g", 0.5);
        assert_eq!(r.gauge("g"), 1.5);
        r.gauge_max("g", 9.0);
        assert_eq!(r.gauge("g"), 9.0);
    }

    #[test]
    fn histogram_buckets_by_powers_of_two() {
        let mut h = Histogram::new();
        for v in [0.5, 1.0, 2.0, 3.0, 1000.0] {
            h.observe(v);
        }
        assert_eq!(h.count(), 5);
        assert_eq!(h.sum(), 1006.5);
        assert_eq!(h.min(), Some(0.5));
        assert_eq!(h.max(), Some(1000.0));
        // 3.0, the fourth value, lands in the (2,4] bucket.
        assert_eq!(h.quantile(0.8), Some(4.0));
        // Quantile is bucket-resolution and clamped to the true max.
        let p99 = h.quantile(0.99).unwrap();
        assert!((1000.0..=1024.0).contains(&p99), "{p99}");
        assert!(h.quantile(0.0).unwrap() <= 0.5);
    }

    /// The bucket loop `bucket_index` replaced, as its oracle.
    fn bucket_by_loop(v: f64) -> usize {
        let mut bound = 2f64.powi(MIN_EXP);
        for i in 0..N_BUCKETS - 1 {
            if v <= bound {
                return i;
            }
            bound *= 2.0;
        }
        N_BUCKETS - 1
    }

    #[test]
    fn bucket_index_matches_the_doubling_loop() {
        let mut values = vec![
            0.0,
            -0.0,
            -1.0,
            -1e300,
            f64::MIN,
            f64::MIN_POSITIVE,
            f64::MIN_POSITIVE / 2.0,
            f64::from_bits(1),
            -f64::from_bits(1),
            f64::MAX,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
            -f64::NAN,
            0.3,
            1000.0,
            1e12,
        ];
        for k in MIN_EXP - 2..=MAX_EXP + 2 {
            let p = 2f64.powi(k);
            values.extend([p, p.next_up(), p.next_down(), 1.5 * p, -p]);
        }
        for v in values {
            assert_eq!(Histogram::bucket_index(v), bucket_by_loop(v), "{v:e}");
        }
    }

    #[test]
    fn histogram_ignores_non_finite_and_negative() {
        let mut h = Histogram::new();
        h.observe(f64::NAN);
        h.observe(f64::INFINITY);
        h.observe(-1.0);
        assert_eq!(h.count(), 0);
        assert_eq!(h.quantile(0.5), None);
    }

    #[test]
    fn json_snapshot_is_sorted_and_stable() {
        let mut r = MetricsRegistry::new();
        r.counter_add("z.last", 1);
        r.counter_add("a.first", 2);
        r.gauge_set("mid", 3.25);
        r.observe("lat", 0.5);
        let j = r.to_json();
        assert!(j.find("a.first").unwrap() < j.find("z.last").unwrap());
        assert!(j.contains("\"mid\": 3.25"));
        assert!(j.contains("\"count\": 1"));
        // Building the same registry in a different order exports the same
        // bytes.
        let mut r2 = MetricsRegistry::new();
        r2.observe("lat", 0.5);
        r2.gauge_set("mid", 3.25);
        r2.counter_add("a.first", 2);
        r2.counter_add("z.last", 1);
        assert_eq!(r2.to_json(), j);
    }

    #[test]
    fn import_alloc_is_idempotent() {
        let mut r = MetricsRegistry::new();
        let stats = AllocStats {
            recompute_passes: 10,
            components_solved: 20,
            flow_solves: 30,
            route_cache_hits: 40,
            route_cache_misses: 5,
            parallel_batches: 0,
            rate_changes: 25,
        };
        r.import_alloc(&stats);
        r.import_alloc(&stats);
        assert_eq!(r.counter("simnet.alloc.recompute_passes"), 10);
        assert_eq!(r.counter("simnet.alloc.route_cache_misses"), 5);
        assert_eq!(r.counter("simnet.alloc.rate_changes"), 25);
    }
}
