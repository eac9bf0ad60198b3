//! Online lifeline analysis: the streaming half of the observability plane.
//!
//! [`LifelineSet::from_log`] is a post-hoc pass — it needs the whole trace
//! before it can say where a file's time went, and a whole-trace analysis
//! of a running log is that same pass over the events stored so far.
//! [`LiveLifelines`] keeps only what a running request asks: the request
//! manager's [`TracedLog`](crate::trace::TracedLog) taps every event it
//! stores into it, which maintains
//!
//! * the set of currently-open spans with ages ([`open_spans`],
//!   [`oldest_open`], [`open_phase_of`]) — what a monitor needs to say
//!   "file X has sat in `stage` for 212 s";
//! * the root `File` span of every file and per-(request, file)
//!   closed-phase totals accumulated at span close
//!   ([`file_phase_totals`]), matching [`Lifeline::phase_totals`] for every
//!   attached lifeline;
//! * the trace horizon and three tallies: events seen, spans closed and
//!   live-fired stall probes ([`note_stall_fired`]).
//!
//! The spans `TracedLog::span_start` and `span_end` store reach the tap
//! typed — id, parent, phase and context as the emitter holds them, at the
//! time the log stored — so they read no field. Any other event goes
//! through [`LiveLifelines::observe`], which reads a span event's fields by
//! the same [`Span`] rule the offline pass uses (an attached tap's replay,
//! and span events sent through plain `emit`) and feeds the same updates.
//! A span start or end is one ordered-map operation on the open set; a
//! close credits its lifeline through one id-keyed lookup into a dense
//! per-phase slot, resolved when the lifeline's root opened. A closed span
//! is forgotten, so the tap's memory is O(open spans + lifelines), not
//! O(events).
//!
//! [`open_spans`]: LiveLifelines::open_spans
//! [`oldest_open`]: LiveLifelines::oldest_open
//! [`open_phase_of`]: LiveLifelines::open_phase_of
//! [`file_phase_totals`]: LiveLifelines::file_phase_totals
//! [`note_stall_fired`]: LiveLifelines::note_stall_fired
//! [`Lifeline::phase_totals`]: crate::lifeline::Lifeline::phase_totals
//! [`LifelineSet::from_log`]: crate::lifeline::LifelineSet::from_log

use crate::event::{EventRef, Text};
use crate::lifeline::Span;
use crate::trace::Phase;
use esg_simnet::SimTime;
use std::collections::{BTreeMap, HashMap};

/// A currently-open span, as tracked incrementally.
#[derive(Debug, Clone, PartialEq)]
pub struct OpenSpan {
    pub span: u64,
    /// The enclosing span's id (0 for a root).
    pub parent: u64,
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

/// One lifeline's closed-phase sums in seconds, indexed by phase.
#[derive(Debug, Clone, Default)]
struct PhaseSums {
    secs: [f64; Phase::ALL.len()],
    /// Bit `p` is set once a span of phase `p` closed.
    closed: u16,
}

/// Incremental open-span index and per-file totals, fed event by event as
/// a run executes.
#[derive(Debug, Clone, Default)]
pub struct LiveLifelines {
    /// Open span id → details, kept sorted by id (= open order: span ids
    /// are allocated sequentially by `TracedLog`). A later start of an open
    /// id replaces it.
    open: BTreeMap<u64, OpenSpan>,
    /// Root File span id → its lifeline's slot in `sums`, for attributing
    /// child closes. A root stays one after it closes.
    roots: HashMap<u64, u32>,
    /// (request, file) → slot in `sums`, resolved when a root opens.
    slots: HashMap<(u64, Text), u32>,
    /// Closed phase totals per lifeline, summed in close order — the
    /// streaming mirror of [`Lifeline::phase_totals`].
    ///
    /// [`Lifeline::phase_totals`]: crate::lifeline::Lifeline::phase_totals
    sums: Vec<PhaseSums>,
    trace_end: SimTime,
    events_seen: u64,
    spans_closed: u64,
    stalls_fired: u64,
}

impl LiveLifelines {
    pub fn new() -> LiveLifelines {
        LiveLifelines::default()
    }

    /// Feed one stored event. Every event advances the trace horizon
    /// (`trace_end`); only `span.start` and `span.end` read a field.
    pub fn observe(&mut self, e: EventRef<'_>) {
        let opens = match e.name {
            "span.start" => true,
            "span.end" => false,
            _ => return self.saw(e.time),
        };
        let Some(id) = e.get_num("span").map(|x| x as u64) else {
            return self.saw(e.time);
        };
        if !opens {
            return self.span_closed(id, e.time);
        }
        let s = Span::opened(id, e);
        self.span_opened(OpenSpan {
            span: s.id,
            parent: s.parent,
            phase: s.phase,
            request: s.request,
            file: s.file,
            start: s.start,
        });
    }

    /// Count one event stored at `time`.
    fn saw(&mut self, time: SimTime) {
        self.events_seen += 1;
        self.trace_end = self.trace_end.max(time);
    }

    /// A `span.start` was stored at time `span.start`: open the span,
    /// replacing an open one of the same id, and make a File span with both
    /// request and file its lifeline's root.
    pub(crate) fn span_opened(&mut self, span: OpenSpan) {
        self.saw(span.start);
        if let (Phase::File, Some(r), Some(f)) = (span.phase, span.request, &span.file) {
            let next = self.sums.len() as u32;
            let slot = *self.slots.entry((r, f.clone())).or_insert(next);
            if slot == next {
                self.sums.push(PhaseSums::default());
            }
            self.roots.insert(span.span, slot);
        }
        self.open.insert(span.span, span);
    }

    /// A `span.end` of span `id` was stored at `time`. An end without an
    /// open start changes nothing but the tallies. A closed child phase
    /// span is credited to its lifeline, matching the offline attribution:
    /// only children whose parent is a root File span with both request
    /// and file count.
    pub(crate) fn span_closed(&mut self, id: u64, time: SimTime) {
        self.saw(time);
        let Some(done) = self.open.remove(&id) else {
            return;
        };
        self.spans_closed += 1;
        if matches!(done.phase, Phase::File | Phase::Prestage | Phase::Campaign) {
            return;
        }
        if let Some(&slot) = self.roots.get(&done.parent) {
            let sums = &mut self.sums[slot as usize];
            sums.secs[done.phase as usize] += time.since(done.start).as_secs_f64();
            sums.closed |= 1 << done.phase as u16;
        }
    }

    /// Time of the latest event observed (the live "now" of the trace).
    pub fn trace_end(&self) -> SimTime {
        self.trace_end
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

    /// Closed-phase totals for one lifeline, accumulated incrementally;
    /// `None` until one of its phase spans closed.
    pub fn file_phase_totals(
        &self,
        request: u64,
        file: &str,
    ) -> Option<BTreeMap<&'static str, f64>> {
        let slot = *self.slots.get(&(request, Text::shared(file)))?;
        let sums = &self.sums[slot as usize];
        (sums.closed != 0).then(|| {
            Phase::ALL
                .into_iter()
                .filter(|&p| sums.closed & (1 << p as u16) != 0)
                .map(|p| (p.as_str(), sums.secs[p as usize]))
                .collect()
        })
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
    use crate::event::LogEvent;
    use crate::lifeline::LifelineSet;
    use crate::trace::{SpanId, TraceCtx, TracedLog};

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

    /// What the tap holds equals what the offline pass over the same log
    /// says: the horizon, the spans the trace leaves open (with their
    /// parents) and every lifeline's closed-phase totals.
    #[test]
    fn tap_state_matches_offline_pass() {
        let log = sample();
        let live = feed(&log);
        let offline = LifelineSet::from_log(&log);
        assert_eq!(live.trace_end(), offline.trace_end);
        assert_eq!(live.trace_end(), SimTime::from_secs(10));
        let still_open: Vec<OpenSpan> = offline
            .lifelines
            .iter()
            .flat_map(|l| std::iter::once(&l.root).chain(&l.phases))
            .filter(|s| s.end.is_none())
            .map(|s| OpenSpan {
                span: s.id,
                parent: s.parent,
                phase: s.phase,
                request: s.request,
                file: s.file.clone(),
                start: s.start,
            })
            .collect();
        assert!(live.open_spans().eq(&still_open));
        assert_eq!(live.spans_closed(), 4);
        assert_eq!(live.events_seen(), log.len() as u64);
        for l in &offline.lifelines {
            assert_eq!(
                live.file_phase_totals(l.request, &l.file),
                Some(l.phase_totals())
            );
        }
    }

    /// The tap's rules at the edges: a later start of an open id replaces
    /// it, a closed id may open again, an end without an open start and a
    /// non-span event touch nothing but the tallies, and a child credits
    /// its parent's lifeline, not its own id.
    #[test]
    fn reused_ids_orphan_ends_and_foreign_events() {
        let mut log = TracedLog::new();
        let ctx = TraceCtx::request(2).with_file("g");
        let root = log.span_start(&ctx, SimTime::ZERO, Phase::File, None);
        let q = log.span_start(&ctx, SimTime::ZERO, Phase::Queue, Some(root));
        log.span_end(&ctx, SimTime::from_secs(1), q, Phase::Queue, vec![]);
        log.span_end(
            &ctx,
            SimTime::from_secs(2),
            SpanId(99),
            Phase::Queue,
            vec![],
        );
        log.emit(&ctx, LogEvent::new(SimTime::from_secs(3), "rm.tick"));
        // Re-open the closed queue span's id as a transfer, then again as a
        // verify while it is still open.
        for (t, phase) in [(3, Phase::Transfer), (4, Phase::Verify)] {
            let e = LogEvent::new(SimTime::from_secs(t), "span.start")
                .field("span", q.0)
                .field("parent", root.0)
                .field("phase", phase.as_str());
            log.emit(&ctx, e);
        }
        let live = feed(&log);
        assert_eq!(live.open_count(), 2);
        let reopened = live.open_spans().nth(1).unwrap();
        assert_eq!((reopened.span, reopened.parent), (q.0, root.0));
        assert_eq!(
            (reopened.phase, reopened.start),
            (Phase::Verify, SimTime::from_secs(4))
        );
        assert_eq!(live.spans_closed(), 1);
        assert_eq!(live.events_seen(), 7);
        assert_eq!(live.trace_end(), SimTime::from_secs(4));
        let totals = live.file_phase_totals(2, "g").unwrap();
        assert_eq!(totals.iter().collect::<Vec<_>>(), [(&"queue", &1.0)]);
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
        assert_eq!(live.file_phase_totals(7, "f1").unwrap(), l.phase_totals());
        // f2's transfer never closed: only the queue phase is credited,
        // exactly like the offline closed-only sum.
        let l2 = offline.lifeline(7, "f2").unwrap();
        assert_eq!(live.file_phase_totals(7, "f2").unwrap(), l2.phase_totals());
    }
}
