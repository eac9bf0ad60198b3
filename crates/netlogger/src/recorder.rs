//! Metrics flight recorder: periodic, deterministic, delta-encoded
//! snapshots of a [`MetricsRegistry`] as byte-stable JSONL.
//!
//! One end-of-run `to_json()` blob says where a campaign *ended up*; the
//! flight recorder says how it *got there*. Each [`snapshot`] call flattens
//! the registry to a sorted key → value map and appends one JSONL line
//! holding only the keys that changed since the previous snapshot (the
//! first line is the full state). Replaying `set` maps in order
//! reconstructs every intermediate state, which is what lets the campaign
//! monitor render live stall/phase summaries from the tape and what lets CI
//! gate byte-stability: same seed → identical snapshot stream, because
//! every input is sim-time-driven and the flattening order is `BTreeMap`'s.
//!
//! [`snapshot`]: FlightRecorder::snapshot

use crate::metrics::MetricsRegistry;
use esg_simnet::SimTime;
use std::collections::BTreeMap;
use std::fmt::Write;

/// Delta-encoding snapshot recorder over a [`MetricsRegistry`].
#[derive(Debug, Clone, Default)]
pub struct FlightRecorder {
    /// Rendered value per key as of the last snapshot — the baseline the
    /// next delta is computed against, and the "current view" accessor.
    last: BTreeMap<String, String>,
    lines: Vec<String>,
}

impl FlightRecorder {
    pub fn new() -> FlightRecorder {
        FlightRecorder::default()
    }

    /// Capture one snapshot at sim time `t`, appending (and returning) one
    /// JSONL line: `{"t": <secs>, "set": {<changed key>: <value>, ...}}`.
    /// The first snapshot's `set` is the whole [`MetricsRegistry::flat`]
    /// view, each value rendered with `{}`; later ones
    /// carry only keys whose rendered value changed. An unchanged registry
    /// still appends a line (empty `set`) so the cadence itself is on tape.
    pub fn snapshot(&mut self, t: SimTime, reg: &MetricsRegistry) -> &str {
        let flat: BTreeMap<String, String> = reg
            .flat()
            .into_iter()
            .map(|(k, v)| (k, format!("{v}")))
            .collect();
        let mut line = format!("{{\"t\": {:.6}, \"set\": {{", t.as_secs_f64());
        let mut first = true;
        for (k, v) in &flat {
            if self.last.get(k) == Some(v) {
                continue;
            }
            if !first {
                line.push_str(", ");
            }
            first = false;
            write!(line, "\"{k}\": {v}").unwrap();
        }
        line.push_str("}}");
        self.last = flat;
        self.lines.push(line);
        self.lines.last().unwrap()
    }

    /// All lines recorded so far, in capture order.
    pub fn lines(&self) -> &[String] {
        &self.lines
    }

    pub fn len(&self) -> usize {
        self.lines.len()
    }

    pub fn is_empty(&self) -> bool {
        self.lines.is_empty()
    }

    /// Current merged view (every key's latest rendered value) — what a
    /// reader replaying the whole tape would hold.
    pub fn current(&self) -> &BTreeMap<String, String> {
        &self.last
    }

    /// Latest rendered value of one key, parsed as f64.
    pub fn value(&self, key: &str) -> Option<f64> {
        self.last.get(key)?.parse().ok()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_snapshot_full_then_deltas() {
        let mut reg = MetricsRegistry::new();
        reg.counter_add("xfers", 2);
        reg.gauge_set("inflight", 1.5);
        let mut rec = FlightRecorder::new();
        let l0 = rec.snapshot(SimTime::from_secs(10), &reg).to_string();
        assert_eq!(
            l0,
            "{\"t\": 10.000000, \"set\": {\"inflight\": 1.5, \"xfers\": 2}}"
        );
        // Only the changed key appears in the second line.
        reg.counter_add("xfers", 3);
        let l1 = rec.snapshot(SimTime::from_secs(20), &reg).to_string();
        assert_eq!(l1, "{\"t\": 20.000000, \"set\": {\"xfers\": 5}}");
        // No change → empty set, cadence still on tape.
        let l2 = rec.snapshot(SimTime::from_secs(30), &reg).to_string();
        assert_eq!(l2, "{\"t\": 30.000000, \"set\": {}}");
        assert_eq!(rec.len(), 3);
        assert_eq!(rec.value("xfers"), Some(5.0));
        assert_eq!(rec.value("inflight"), Some(1.5));
    }

    #[test]
    fn histograms_flatten_to_summary_fields() {
        let mut reg = MetricsRegistry::new();
        reg.observe("lat", 0.5);
        reg.observe("lat", 2.0);
        let mut rec = FlightRecorder::new();
        let line = rec.snapshot(SimTime::ZERO, &reg).to_string();
        assert!(line.contains("\"lat.count\": 2"));
        assert!(line.contains("\"lat.sum\": 2.5"));
        assert!(line.contains("\"lat.min\": 0.5"));
        assert!(line.contains("\"lat.max\": 2"));
        assert_eq!(rec.value("lat.count"), Some(2.0));
    }

    #[test]
    fn tape_is_byte_stable_across_build_order() {
        let build = |swap: bool| {
            let mut reg = MetricsRegistry::new();
            let mut rec = FlightRecorder::new();
            if swap {
                reg.gauge_set("g", 2.0);
                reg.counter_add("c", 1);
            } else {
                reg.counter_add("c", 1);
                reg.gauge_set("g", 2.0);
            }
            rec.snapshot(SimTime::from_secs(1), &reg);
            reg.counter_add("c", 1);
            rec.snapshot(SimTime::from_secs(2), &reg);
            rec.lines().to_vec()
        };
        assert_eq!(build(false), build(true));
    }
}
