//! Lifeline reconstruction: rebuild per-file span trees from a trace and
//! attribute wall-clock time to lifecycle phases.
//!
//! This is the offline half of NetLogger that produced the paper's Figure 8:
//! given a ULM trace (parsed back with [`NetLog::from_ulm`] or taken live),
//! [`LifelineSet::from_log`] joins `span.start`/`span.end` events into
//! [`Span`]s, groups each file's phase spans under its root
//! [`Phase::File`] span, and answers "where did request 3's file 7 spend its
//! 41 seconds?" — queue wait, prestage/tape mount, replica selection and
//! deferral, transfer, verify, ERET repair, backoff.
//!
//! Because the request manager's phase state machine tiles every live file
//! with exactly one open phase span, a delivered file's phase durations sum
//! to its makespan; [`Lifeline::is_complete`] checks that invariant span by
//! span and [`Lifeline::tiling_gap_s`] reports the float residue.

use crate::event::{EventRef, NetLog, Text, Value};
use crate::trace::Phase;
use esg_simnet::SimTime;
use std::collections::BTreeMap;

/// One reconstructed span.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: u64,
    pub parent: u64,
    pub phase: Phase,
    pub request: Option<u64>,
    /// The trace's own copy of the file name, shared by refcount.
    pub file: Option<Text>,
    pub attempt: Option<u32>,
    pub start: SimTime,
    /// `None` if the trace ended before the span closed.
    pub end: Option<SimTime>,
    /// Bytes attributed at close (banked transfer delta / repaired bytes).
    pub bytes: u64,
    /// Terminal status attached at close (root spans: `done` / `failed`).
    pub status: Option<Text>,
}

impl Span {
    pub fn duration_s(&self) -> Option<f64> {
        self.end.map(|e| e.since(self.start).as_secs_f64())
    }
}

/// The span tree of one logical file within one request.
#[derive(Debug, Clone)]
pub struct Lifeline {
    pub request: u64,
    pub file: Text,
    /// The root [`Phase::File`] span (submit → settle).
    pub root: Span,
    /// Child phase spans, sorted by (start, id).
    pub phases: Vec<Span>,
}

impl Lifeline {
    /// Submit-to-settle wall clock, if the file settled.
    pub fn makespan_s(&self) -> Option<f64> {
        self.root.duration_s()
    }

    /// Sum of closed child phase durations.
    pub fn phase_sum_s(&self) -> f64 {
        self.phases.iter().filter_map(Span::duration_s).sum()
    }

    /// Total per-phase durations, keyed by phase name.
    pub fn phase_totals(&self) -> BTreeMap<&'static str, f64> {
        let mut totals = BTreeMap::new();
        for s in &self.phases {
            if let Some(d) = s.duration_s() {
                *totals.entry(s.phase.as_str()).or_insert(0.0) += d;
            }
        }
        totals
    }

    /// True when the span tree is complete and the phases tile the root
    /// exactly: root closed, every phase closed, first phase starts with the
    /// root, each phase starts where the previous ended, last phase ends
    /// with the root. Boundaries are compared at nanosecond identity — the
    /// emitter closes and opens adjacent phases at the same instant, and the
    /// ULM round-trip preserves timestamps exactly.
    pub fn is_complete(&self) -> bool {
        let Some(root_end) = self.root.end else {
            return false;
        };
        if self.phases.is_empty() || self.phases.iter().any(|s| s.end.is_none()) {
            return false;
        }
        let mut cursor = self.root.start;
        for s in &self.phases {
            if s.start != cursor {
                return false;
            }
            cursor = s.end.unwrap();
        }
        cursor == root_end
    }

    /// |makespan − Σ phase durations| in seconds (float summation residue
    /// only, when [`is_complete`](Lifeline::is_complete) holds).
    pub fn tiling_gap_s(&self) -> Option<f64> {
        self.makespan_s().map(|m| (m - self.phase_sum_s()).abs())
    }

    /// Bytes delivered by transfer attempts (sum over Transfer span closes).
    pub fn transfer_bytes(&self) -> u64 {
        self.phase_bytes(Phase::Transfer)
    }

    /// Bytes re-fetched by ERET repair rounds.
    pub fn repair_bytes(&self) -> u64 {
        self.phase_bytes(Phase::Repair)
    }

    fn phase_bytes(&self, phase: Phase) -> u64 {
        self.phases
            .iter()
            .filter(|s| s.phase == phase)
            .map(|s| s.bytes)
            .sum()
    }

    /// Terminal status from the root close (`done` / `failed`).
    pub fn status(&self) -> Option<&str> {
        self.root.status.as_deref()
    }
}

/// One detected stall: a phase span that made no progress for longer than
/// the threshold.
#[derive(Debug, Clone)]
pub struct Stall {
    pub request: Option<u64>,
    pub file: Option<Text>,
    pub phase: Phase,
    pub span: u64,
    pub start: SimTime,
    /// How long the span sat in the phase (to trace end if never closed).
    pub duration_s: f64,
    /// Whether the span was still open when the trace ended.
    pub open: bool,
}

/// Per-request critical path: the file whose settle time determined the
/// request's finish, with its phase breakdown.
#[derive(Debug, Clone)]
pub struct CriticalPath {
    pub request: u64,
    pub file: Text,
    pub makespan_s: f64,
    pub settle: SimTime,
    pub breakdown: BTreeMap<&'static str, f64>,
}

/// All lifelines reconstructed from one trace.
#[derive(Debug, Clone, Default)]
pub struct LifelineSet {
    /// Per-file lifelines, sorted by (request, file).
    pub lifelines: Vec<Lifeline>,
    /// Request-scoped prestage spans (no file; one per cold HRM host batch).
    pub prestage: Vec<Span>,
    /// Campaign root spans (no file; one per replication campaign), so
    /// lifeline analysis can attribute round requests to the campaign
    /// that drove them instead of reporting the spans as orphans.
    pub campaigns: Vec<Span>,
    /// Span ids that could not be attached (end without start, or a child
    /// whose parent/file never materialised).
    pub orphans: Vec<u64>,
    /// Time of the last event in the trace ("now" for open spans).
    pub trace_end: SimTime,
}

/// A field's value as text: a string as is, a number as it prints.
fn into_text(v: Value) -> Text {
    match v {
        Value::Str(s) => s,
        other => other.to_string().into(),
    }
}

impl Span {
    /// The span a `span.start` event opens: an unknown phase reads as
    /// [`Phase::File`], a missing parent as 0, and request, file and attempt
    /// come from the event's own fields or its context. The one parse rule
    /// of the offline pass and the live tap.
    pub(crate) fn opened(id: u64, e: EventRef<'_>) -> Span {
        let phase = match e.get("phase") {
            Some(Value::Str(s)) => Phase::from_str(&s),
            _ => None,
        };
        Span {
            id,
            parent: e.get_num("parent").unwrap_or(0.0) as u64,
            phase: phase.unwrap_or(Phase::File),
            request: e.get_num("request").map(|x| x as u64),
            file: e.get("file").map(into_text),
            attempt: e.get_num("attempt").map(|x| x as u32),
            start: e.time,
            end: None,
            bytes: 0,
            status: None,
        }
    }
}

impl LifelineSet {
    /// Join `span.start`/`span.end` events into span trees. A later start of
    /// the same id replaces the span; an end without a start is an orphan.
    pub fn from_log(log: &NetLog) -> LifelineSet {
        let mut spans: BTreeMap<u64, Span> = BTreeMap::new();
        let mut orphans = Vec::new();
        let mut trace_end = SimTime::ZERO;
        for e in log.iter() {
            trace_end = trace_end.max(e.time);
            let starts = match e.name {
                "span.start" => true,
                "span.end" => false,
                _ => continue,
            };
            let Some(id) = e.get_num("span").map(|x| x as u64) else {
                continue;
            };
            if starts {
                spans.insert(id, Span::opened(id, e));
            } else if let Some(s) = spans.get_mut(&id) {
                s.end = Some(e.time);
                s.bytes = e.get_num("bytes").unwrap_or(0.0) as u64;
                s.status = e.get("status").map(into_text);
            } else {
                orphans.push(id);
            }
        }
        // Group children under their root File spans.
        let mut children: BTreeMap<u64, Vec<Span>> = BTreeMap::new();
        let mut roots: Vec<Span> = Vec::new();
        let mut prestage = Vec::new();
        let mut campaigns = Vec::new();
        for s in spans.into_values() {
            match s.phase {
                Phase::File => roots.push(s),
                Phase::Prestage => prestage.push(s),
                Phase::Campaign => campaigns.push(s),
                _ if s.parent != 0 => children.entry(s.parent).or_default().push(s),
                _ => orphans.push(s.id),
            }
        }
        let mut lifelines = Vec::new();
        for root in roots {
            let (Some(request), Some(file)) = (root.request, root.file.clone()) else {
                orphans.push(root.id);
                continue;
            };
            let mut phases = children.remove(&root.id).unwrap_or_default();
            phases.sort_by_key(|s| (s.start, s.id));
            lifelines.push(Lifeline {
                request,
                file,
                root,
                phases,
            });
        }
        // Children whose root never appeared.
        for (_, kids) in children {
            orphans.extend(kids.into_iter().map(|s| s.id));
        }
        lifelines.sort_by(|a, b| (a.request, &a.file).cmp(&(b.request, &b.file)));
        orphans.sort_unstable();
        orphans.dedup();
        LifelineSet {
            lifelines,
            prestage,
            campaigns,
            orphans,
            trace_end,
        }
    }

    pub fn lifeline(&self, request: u64, file: &str) -> Option<&Lifeline> {
        self.lifelines
            .iter()
            .find(|l| l.request == request && l.file == file)
    }

    /// Per-request critical path: the file whose root span closed last (the
    /// settle that gated the request), with its phase breakdown. Requests
    /// with no settled files are omitted.
    pub fn critical_paths(&self) -> Vec<CriticalPath> {
        let mut best: BTreeMap<u64, &Lifeline> = BTreeMap::new();
        for l in &self.lifelines {
            if l.root.end.is_none() {
                continue;
            }
            let entry = best.entry(l.request).or_insert(l);
            if l.root.end > entry.root.end {
                *entry = l;
            }
        }
        best.into_values()
            .map(|l| CriticalPath {
                request: l.request,
                file: l.file.clone(),
                makespan_s: l.makespan_s().unwrap_or(0.0),
                settle: l.root.end.unwrap(),
                breakdown: l.phase_totals(),
            })
            .collect()
    }

    /// Phase spans (and prestage spans) that exceeded `threshold_s` without
    /// closing progress — the "no span progress for N sim-seconds" detector.
    /// Open spans are measured to the end of the trace.
    pub fn detect_stalls(&self, threshold_s: f64) -> Vec<Stall> {
        let mut stalls = Vec::new();
        let mut consider = |s: &Span| {
            let (dur, open) = match s.end {
                Some(e) => (e.since(s.start).as_secs_f64(), false),
                None => (self.trace_end.since(s.start).as_secs_f64(), true),
            };
            if dur > threshold_s {
                stalls.push(Stall {
                    request: s.request,
                    file: s.file.clone(),
                    phase: s.phase,
                    span: s.id,
                    start: s.start,
                    duration_s: dur,
                    open,
                });
            }
        };
        for l in &self.lifelines {
            for s in &l.phases {
                consider(s);
            }
        }
        for s in &self.prestage {
            consider(s);
        }
        stalls.sort_by_key(|s| (s.start, s.span));
        stalls
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::LogEvent;
    use crate::trace::{Phase, SpanId, TraceCtx, TracedLog};

    /// Build a two-phase lifeline: queue 0→2, transfer 2→10 (bytes 1000).
    fn sample_log() -> TracedLog {
        let mut log = TracedLog::new();
        let ctx = TraceCtx::request(1).with_file("f1");
        let root = log.span_start(&ctx, SimTime::ZERO, Phase::File, None);
        let q = log.span_start(&ctx, SimTime::ZERO, Phase::Queue, Some(root));
        log.span_end(&ctx, SimTime::from_secs(2), q, Phase::Queue, vec![]);
        let t = log.span_start(&ctx, SimTime::from_secs(2), Phase::Transfer, Some(root));
        log.span_end(
            &ctx,
            SimTime::from_secs(10),
            t,
            Phase::Transfer,
            vec![("bytes", 1000u64.into())],
        );
        log.span_end(
            &ctx,
            SimTime::from_secs(10),
            root,
            Phase::File,
            vec![("status", "done".into())],
        );
        log
    }

    #[test]
    fn reconstructs_complete_lifeline() {
        let log = sample_log();
        let set = LifelineSet::from_log(&log);
        assert_eq!(set.lifelines.len(), 1);
        assert!(set.orphans.is_empty());
        let l = set.lifeline(1, "f1").unwrap();
        assert!(l.is_complete());
        assert_eq!(l.makespan_s(), Some(10.0));
        assert!(l.tiling_gap_s().unwrap() < 1e-9);
        assert_eq!(l.transfer_bytes(), 1000);
        assert_eq!(l.status(), Some("done"));
        let totals = l.phase_totals();
        assert_eq!(totals["queue"], 2.0);
        assert_eq!(totals["transfer"], 8.0);
    }

    #[test]
    fn survives_ulm_round_trip() {
        let log = sample_log();
        let ulm = log.to_ulm();
        let parsed = NetLog::from_ulm(&ulm).unwrap();
        assert_eq!(parsed.to_ulm(), ulm);
        let set = LifelineSet::from_log(&parsed);
        let l = set.lifeline(1, "f1").unwrap();
        assert!(l.is_complete());
        assert_eq!(l.transfer_bytes(), 1000);
    }

    #[test]
    fn incomplete_when_gap_or_open() {
        let mut log = TracedLog::new();
        let ctx = TraceCtx::request(1).with_file("f1");
        let root = log.span_start(&ctx, SimTime::ZERO, Phase::File, None);
        let q = log.span_start(&ctx, SimTime::ZERO, Phase::Queue, Some(root));
        log.span_end(&ctx, SimTime::from_secs(2), q, Phase::Queue, vec![]);
        // Gap: transfer starts at 3, not 2.
        let t = log.span_start(&ctx, SimTime::from_secs(3), Phase::Transfer, Some(root));
        log.span_end(&ctx, SimTime::from_secs(10), t, Phase::Transfer, vec![]);
        log.span_end(&ctx, SimTime::from_secs(10), root, Phase::File, vec![]);
        let set = LifelineSet::from_log(&log);
        assert!(!set.lifeline(1, "f1").unwrap().is_complete());

        // Open root: never closed.
        let mut log = TracedLog::new();
        log.span_start(&ctx, SimTime::ZERO, Phase::File, None);
        let set = LifelineSet::from_log(&log);
        assert!(!set.lifeline(1, "f1").unwrap().is_complete());
    }

    #[test]
    fn orphan_end_is_reported() {
        let mut log = TracedLog::new();
        let ctx = TraceCtx::system();
        log.span_end(&ctx, SimTime::ZERO, SpanId(99), Phase::Queue, vec![]);
        let set = LifelineSet::from_log(&log);
        assert_eq!(set.orphans, vec![99]);
    }

    #[test]
    fn critical_path_picks_latest_settle() {
        let mut log = TracedLog::new();
        // Emit in time order (as a real run does): both files open at t=0,
        // then close at their own settle times.
        let mut open = Vec::new();
        for file in ["fast", "slow"] {
            let ctx = TraceCtx::request(4).with_file(file);
            let root = log.span_start(&ctx, SimTime::ZERO, Phase::File, None);
            let t = log.span_start(&ctx, SimTime::ZERO, Phase::Transfer, Some(root));
            open.push((ctx, root, t));
        }
        for (i, end) in [5u64, 20u64].into_iter().enumerate() {
            let (ctx, root, t) = &open[i];
            log.span_end(ctx, SimTime::from_secs(end), *t, Phase::Transfer, vec![]);
            log.span_end(ctx, SimTime::from_secs(end), *root, Phase::File, vec![]);
        }
        let set = LifelineSet::from_log(&log);
        let cps = set.critical_paths();
        assert_eq!(cps.len(), 1);
        assert_eq!(cps[0].file, "slow");
        assert_eq!(cps[0].makespan_s, 20.0);
    }

    #[test]
    fn stall_detector_flags_slow_and_open_spans() {
        let mut log = TracedLog::new();
        let ctx = TraceCtx::request(1).with_file("f1");
        let root = log.span_start(&ctx, SimTime::ZERO, Phase::File, None);
        let s = log.span_start(&ctx, SimTime::ZERO, Phase::Stage, Some(root));
        log.span_end(&ctx, SimTime::from_secs(100), s, Phase::Stage, vec![]);
        // Open transfer span; trace ends at 300 via a later event.
        log.span_start(&ctx, SimTime::from_secs(100), Phase::Transfer, Some(root));
        log.emit(&ctx, LogEvent::new(SimTime::from_secs(300), "rm.tick"));
        let set = LifelineSet::from_log(&log);
        let stalls = set.detect_stalls(60.0);
        assert_eq!(stalls.len(), 2);
        assert_eq!(stalls[0].phase, Phase::Stage);
        assert!(!stalls[0].open);
        assert_eq!(stalls[1].phase, Phase::Transfer);
        assert!(stalls[1].open);
        assert_eq!(stalls[1].duration_s, 200.0);
        // Nothing stalls with a generous threshold.
        assert!(set.detect_stalls(1000.0).is_empty());
    }
}
