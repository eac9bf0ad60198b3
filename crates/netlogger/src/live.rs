//! Online lifeline analysis: the streaming half of the observability plane.
//!
//! [`LifelineSet::from_log`] is a post-hoc pass — it needs the whole trace
//! before it can say where a file's time went. [`LiveLifelines`] is the same
//! analysis run *while the trace is being written*: the request manager's
//! [`TracedLog`](crate::trace::TracedLog) taps every event it records into
//! [`LiveLifelines::observe`], which feeds the exact same
//! `SpanCollector` the offline pass uses (same parse, same grouping on
//! [`snapshot`](LiveLifelines::snapshot)) *plus* cheap incremental state the
//! offline pass cannot offer mid-run:
//!
//! * the set of currently-open spans with ages ([`open_spans`],
//!   [`oldest_open`], [`open_phase_of`]) — what a monitor needs to say
//!   "file X has sat in `stage` for 212 s";
//! * per-(request, file) closed-phase totals accumulated at span close
//!   ([`file_phase_totals`]), matching [`Lifeline::phase_totals`] for every
//!   attached lifeline;
//! * a count of live-fired stall probes ([`note_stall_fired`]).
//!
//! Byte-identity with the offline pass is structural: `snapshot()` calls the
//! same `assemble()` over the same collector state, so phase totals,
//! critical paths, stall sets and tiling verdicts are bit-for-bit those of
//! `LifelineSet::from_log` over the full trace — `tests/observability.rs`
//! and the `tests/live_lifeline.rs` proptest pin it against real faulted
//! runs.
//!
//! [`open_spans`]: LiveLifelines::open_spans
//! [`oldest_open`]: LiveLifelines::oldest_open
//! [`open_phase_of`]: LiveLifelines::open_phase_of
//! [`file_phase_totals`]: LiveLifelines::file_phase_totals
//! [`note_stall_fired`]: LiveLifelines::note_stall_fired

use crate::event::{EventRef, Text};
use crate::lifeline::{LifelineSet, SpanCollector};
use crate::trace::Phase;
use esg_simnet::SimTime;
use std::collections::BTreeMap;

/// A currently-open span, as tracked incrementally.
#[derive(Debug, Clone, PartialEq)]
pub struct OpenSpan {
    pub span: u64,
    pub phase: Phase,
    pub request: Option<u64>,
    pub file: Option<Text>,
    pub start: SimTime,
}

impl OpenSpan {
    /// How long the span has been open as of `now`.
    pub fn age_s(&self, now: SimTime) -> f64 {
        now.since(self.start).as_secs_f64()
    }
}

/// Incremental span-tree builder fed event-by-event as a run executes.
#[derive(Debug, Clone, Default)]
pub struct LiveLifelines {
    collector: SpanCollector,
    /// Open span id → details, kept sorted by id (= open order: span ids
    /// are allocated sequentially by `TracedLog`).
    open: BTreeMap<u64, OpenSpan>,
    /// Root File span id → (request, file), for attributing child closes.
    roots: BTreeMap<u64, (u64, Text)>,
    /// (request, file) → closed phase totals in seconds, accumulated at
    /// span close — the streaming mirror of [`Lifeline::phase_totals`].
    ///
    /// [`Lifeline::phase_totals`]: crate::lifeline::Lifeline::phase_totals
    totals: BTreeMap<(u64, Text), BTreeMap<&'static str, f64>>,
    events_seen: u64,
    spans_closed: u64,
    stalls_fired: u64,
}

impl LiveLifelines {
    pub fn new() -> LiveLifelines {
        LiveLifelines::default()
    }

    /// Feed one event. Non-span events still advance the trace horizon
    /// (`trace_end`), exactly as the offline pass scans them.
    pub fn observe(&mut self, e: EventRef<'_>) {
        self.events_seen += 1;
        let is_span = e.name == "span.start" || e.name == "span.end";
        let id = e.get_num("span").map(|x| x as u64);
        self.collector.observe(e);
        let (true, Some(id)) = (is_span, id) else {
            return;
        };
        if e.name == "span.start" {
            // The collector just parsed the span; mirror it into the
            // incremental indexes from its canonical parsed form.
            if let Some(s) = self.collector.span(id) {
                if s.end.is_none() {
                    self.open.insert(
                        id,
                        OpenSpan {
                            span: id,
                            phase: s.phase,
                            request: s.request,
                            file: s.file.clone(),
                            start: s.start,
                        },
                    );
                    if s.phase == Phase::File {
                        if let (Some(r), Some(f)) = (s.request, s.file.clone()) {
                            self.roots.insert(id, (r, f));
                        }
                    }
                }
            }
        } else if let Some(done) = self.open.remove(&id) {
            self.spans_closed += 1;
            self.credit_close(&done, e.time);
        }
        // end-without-start: the collector already recorded the orphan.
    }

    /// Accumulate a closed child phase span into its lifeline's totals,
    /// matching the offline attribution: only children whose parent is a
    /// root File span with both request and file count.
    fn credit_close(&mut self, done: &OpenSpan, end: SimTime) {
        if matches!(done.phase, Phase::File | Phase::Prestage | Phase::Campaign) {
            return;
        }
        let Some(parent) = self.collector.span(done.span).map(|s| s.parent) else {
            return;
        };
        let Some(key) = self.roots.get(&parent).cloned() else {
            return;
        };
        *self
            .totals
            .entry(key)
            .or_default()
            .entry(done.phase.as_str())
            .or_insert(0.0) += end.since(done.start).as_secs_f64();
    }

    /// The full offline-equivalent analysis of everything observed so far:
    /// the same `assemble()` grouping pass `LifelineSet::from_log` runs, so
    /// every downstream product (phase totals, critical paths,
    /// `detect_stalls`, `is_complete` tiling) is byte-identical to the
    /// offline pass over the same events.
    pub fn snapshot(&self) -> LifelineSet {
        self.collector.assemble()
    }

    /// Time of the latest event observed (the live "now" of the trace).
    pub fn trace_end(&self) -> SimTime {
        self.collector.trace_end()
    }

    /// Is this span currently open?
    pub fn is_open(&self, span: u64) -> bool {
        self.open.contains_key(&span)
    }

    /// Currently-open spans in open order.
    pub fn open_spans(&self) -> impl Iterator<Item = &OpenSpan> {
        self.open.values()
    }

    pub fn open_count(&self) -> usize {
        self.open.len()
    }

    /// The longest-open span, excluding root/umbrella spans (File,
    /// Prestage, Campaign) when `phases_only` — those are open for a file's
    /// whole lifetime by design and would drown the signal.
    pub fn oldest_open(&self, phases_only: bool) -> Option<&OpenSpan> {
        self.open
            .values()
            .filter(|s| {
                !phases_only || !matches!(s.phase, Phase::File | Phase::Prestage | Phase::Campaign)
            })
            .min_by_key(|s| (s.start, s.span))
    }

    /// The currently-open *phase* span of a named file (any request), for
    /// monitor straggler annotation. Root File spans are skipped: the
    /// answer is "what is this file doing right now", not "it exists".
    pub fn open_phase_of(&self, file: &str) -> Option<&OpenSpan> {
        self.open
            .values()
            .filter(|s| {
                s.file.as_deref() == Some(file)
                    && !matches!(s.phase, Phase::File | Phase::Prestage | Phase::Campaign)
            })
            .min_by_key(|s| (s.start, s.span))
    }

    /// Closed-phase totals for one lifeline, accumulated incrementally.
    pub fn file_phase_totals(
        &self,
        request: u64,
        file: &str,
    ) -> Option<&BTreeMap<&'static str, f64>> {
        self.totals.get(&(request, Text::shared(file)))
    }

    /// Open spans older than `threshold_s` as of the live trace horizon —
    /// the cheap mid-run stall query (same strict `>` the offline detector
    /// applies, restricted to what can be known without the trace's end).
    pub fn open_stalls(&self, threshold_s: f64) -> Vec<&OpenSpan> {
        let now = self.trace_end();
        self.open
            .values()
            .filter(|s| {
                !matches!(s.phase, Phase::File | Phase::Campaign) && s.age_s(now) > threshold_s
            })
            .collect()
    }

    /// Record that a live stall probe fired `obs.stall` (called by the
    /// request manager's detector so displays can show a running count).
    pub fn note_stall_fired(&mut self) {
        self.stalls_fired += 1;
    }

    pub fn stalls_fired(&self) -> u64 {
        self.stalls_fired
    }

    pub fn events_seen(&self) -> u64 {
        self.events_seen
    }

    pub fn spans_closed(&self) -> u64 {
        self.spans_closed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::{TraceCtx, TracedLog};
    use esg_simnet::SimTime;

    /// Two files in one request, interleaved with non-decreasing event
    /// times (as a real run emits them); f2 is left open mid-transfer.
    fn sample() -> TracedLog {
        let mut log = TracedLog::new();
        let c1 = TraceCtx::request(7).with_file("f1");
        let c2 = TraceCtx::request(7).with_file("f2");
        let r1 = log.span_start(&c1, SimTime::ZERO, Phase::File, None);
        let q1 = log.span_start(&c1, SimTime::ZERO, Phase::Queue, Some(r1));
        let r2 = log.span_start(&c2, SimTime::ZERO, Phase::File, None);
        let q2 = log.span_start(&c2, SimTime::ZERO, Phase::Queue, Some(r2));
        log.span_end(&c1, SimTime::from_secs(3), q1, Phase::Queue, vec![]);
        let t1 = log.span_start(&c1, SimTime::from_secs(3), Phase::Transfer, Some(r1));
        log.span_end(&c2, SimTime::from_secs(3), q2, Phase::Queue, vec![]);
        let _t2 = log.span_start(&c2, SimTime::from_secs(3), Phase::Transfer, Some(r2));
        log.span_end(
            &c1,
            SimTime::from_secs(10),
            t1,
            Phase::Transfer,
            vec![("bytes", 500u64.into())],
        );
        log.span_end(
            &c1,
            SimTime::from_secs(10),
            r1,
            Phase::File,
            vec![("status", "done".into())],
        );
        log
    }

    fn feed(log: &TracedLog) -> LiveLifelines {
        let mut live = LiveLifelines::new();
        for e in log.iter() {
            live.observe(e);
        }
        live
    }

    #[test]
    fn snapshot_matches_offline_pass() {
        let log = sample();
        let live = feed(&log);
        let offline = LifelineSet::from_log(&log);
        let snap = live.snapshot();
        assert_eq!(snap.lifelines.len(), offline.lifelines.len());
        assert_eq!(snap.orphans, offline.orphans);
        assert_eq!(snap.trace_end, offline.trace_end);
        for (a, b) in snap.lifelines.iter().zip(&offline.lifelines) {
            assert_eq!((a.request, &a.file), (b.request, &b.file));
            assert_eq!(a.phase_totals(), b.phase_totals());
            assert_eq!(a.is_complete(), b.is_complete());
        }
    }

    #[test]
    fn open_span_tracking() {
        let log = sample();
        let live = feed(&log);
        // f2's root + transfer still open.
        assert_eq!(live.open_count(), 2);
        let oldest = live.oldest_open(true).unwrap();
        assert_eq!(oldest.phase, Phase::Transfer);
        assert_eq!(oldest.file.as_deref(), Some("f2"));
        assert_eq!(oldest.age_s(SimTime::from_secs(10)), 7.0);
        let open = live.open_phase_of("f2").unwrap();
        assert_eq!(open.phase, Phase::Transfer);
        assert!(live.open_phase_of("f1").is_none());
    }

    #[test]
    fn incremental_totals_match_lifeline_totals() {
        let log = sample();
        let live = feed(&log);
        let offline = LifelineSet::from_log(&log);
        let l = offline.lifeline(7, "f1").unwrap();
        assert_eq!(live.file_phase_totals(7, "f1").unwrap(), &l.phase_totals());
        // f2's transfer never closed: only the queue phase is credited,
        // exactly like the offline closed-only sum.
        let l2 = offline.lifeline(7, "f2").unwrap();
        assert_eq!(live.file_phase_totals(7, "f2").unwrap(), &l2.phase_totals());
    }

    #[test]
    fn open_stalls_respect_threshold() {
        let log = sample();
        let live = feed(&log);
        // trace_end = 10; f2's transfer opened at 3 → age 7.
        let stalls = live.open_stalls(5.0);
        assert_eq!(stalls.len(), 1);
        assert_eq!(stalls[0].phase, Phase::Transfer);
        assert!(live.open_stalls(8.0).is_empty());
    }
}
