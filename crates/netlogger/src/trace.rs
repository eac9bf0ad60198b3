//! Causal trace context for NetLogger events.
//!
//! The paper's Figure 8 was produced by correlating NetLogger events *after*
//! the run; that only works if every event carries enough identity to join
//! on. This module supplies that identity: a [`TraceCtx`] names the causal
//! coordinates of an emission (request → file → attempt) and a [`TracedLog`]
//! stamps them onto every event plus allocates [`SpanId`]s for
//! `span.start`/`span.end` pairs that bracket each lifecycle [`Phase`].
//!
//! The log stores the context with each event as coordinates — the request
//! and attempt numbers and the file name, shared by refcount from the one
//! copy built per file — and stamps them onto the event only when it is
//! rendered, so emitting copies no string and allocates nothing.
//!
//! `TracedLog` exposes the underlying [`NetLog`] read-only through `Deref`,
//! so queries (`named`, `between`, `to_ulm`, iteration) work unchanged — but
//! there is deliberately no `DerefMut` and no public `push`: inside the
//! request manager the only way to emit is [`TracedLog::emit`] /
//! [`TracedLog::span_start`] / [`TracedLog::span_end`], which makes
//! un-contexted emission a compile error rather than a code-review hazard.

use crate::event::{LogEvent, NetLog, Text, Value};
use crate::live::{LiveLifelines, OpenSpan};
use esg_simnet::SimTime;
use std::ops::Deref;

/// Identifier of one span in a trace. Allocated sequentially per
/// [`TracedLog`], so same-seed runs produce identical ids. Id 0 is reserved
/// to mean "no span / no parent".
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SpanId(pub u64);

impl SpanId {
    pub const NONE: SpanId = SpanId(0);

    pub fn is_none(self) -> bool {
        self.0 == 0
    }
}

impl std::fmt::Display for SpanId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// Lifecycle phase taxonomy — the Figure 8 decomposition. A file's root
/// [`Phase::File`] span is tiled by exactly one child phase span at every
/// instant, which is what lets the lifeline analyzer prove that per-phase
/// durations sum to the per-file makespan.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Phase {
    /// Root span: submit → settle for one logical file.
    File,
    /// Waiting in the scheduler's per-request ready queue for an admission
    /// slot.
    Queue,
    /// Replica selection, including capacity-deferral waits.
    Select,
    /// HRM staging: tape mount + seek + stream to disk cache.
    Stage,
    /// Bytes moving over GridFTP.
    Transfer,
    /// Digest verification of delivered/banked ranges.
    Verify,
    /// Block-granular ERET repair rounds.
    Repair,
    /// Retry backoff between attempts (includes failover waits).
    Backoff,
    /// Request-scoped stage-ahead prefetch of cold files on one HRM host.
    Prestage,
    /// Root span of a replication campaign: start → complete/cancel,
    /// enclosing every round request the orchestrator drives.
    Campaign,
}

impl Phase {
    pub const ALL: [Phase; 10] = [
        Phase::File,
        Phase::Queue,
        Phase::Select,
        Phase::Stage,
        Phase::Transfer,
        Phase::Verify,
        Phase::Repair,
        Phase::Backoff,
        Phase::Prestage,
        Phase::Campaign,
    ];

    pub fn as_str(self) -> &'static str {
        match self {
            Phase::File => "file",
            Phase::Queue => "queue",
            Phase::Select => "select",
            Phase::Stage => "stage",
            Phase::Transfer => "transfer",
            Phase::Verify => "verify",
            Phase::Repair => "repair",
            Phase::Backoff => "backoff",
            Phase::Prestage => "prestage",
            Phase::Campaign => "campaign",
        }
    }

    /// `rm.phase.<phase>_s`: the metrics histogram of closed spans of this
    /// phase.
    pub fn metric(self) -> &'static str {
        match self {
            Phase::File => "rm.phase.file_s",
            Phase::Queue => "rm.phase.queue_s",
            Phase::Select => "rm.phase.select_s",
            Phase::Stage => "rm.phase.stage_s",
            Phase::Transfer => "rm.phase.transfer_s",
            Phase::Verify => "rm.phase.verify_s",
            Phase::Repair => "rm.phase.repair_s",
            Phase::Backoff => "rm.phase.backoff_s",
            Phase::Prestage => "rm.phase.prestage_s",
            Phase::Campaign => "rm.phase.campaign_s",
        }
    }

    /// `obs.stall.<phase>_s`: the metrics histogram of the age of spans of
    /// this phase that a live stall probe caught open.
    pub fn stall_metric(self) -> &'static str {
        match self {
            Phase::File => "obs.stall.file_s",
            Phase::Queue => "obs.stall.queue_s",
            Phase::Select => "obs.stall.select_s",
            Phase::Stage => "obs.stall.stage_s",
            Phase::Transfer => "obs.stall.transfer_s",
            Phase::Verify => "obs.stall.verify_s",
            Phase::Repair => "obs.stall.repair_s",
            Phase::Backoff => "obs.stall.backoff_s",
            Phase::Prestage => "obs.stall.prestage_s",
            Phase::Campaign => "obs.stall.campaign_s",
        }
    }

    /// Inverse of [`as_str`](Phase::as_str). Fallible (not the `FromStr`
    /// trait) because unknown phase names are expected in foreign traces.
    #[allow(clippy::should_implement_trait)]
    pub fn from_str(s: &str) -> Option<Phase> {
        Phase::ALL.into_iter().find(|p| p.as_str() == s)
    }
}

impl std::fmt::Display for Phase {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// The causal coordinates stamped onto every emitted event: which request,
/// which logical file, which attempt. Build with the fluent constructors
/// (build a file's name into a [`Text`] once and clone that: every event
/// then shares it):
///
/// ```
/// use esg_netlogger::TraceCtx;
/// let ctx = TraceCtx::request(3).with_file("pcm.run1.f007").with_attempt(2);
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TraceCtx {
    pub request: Option<u64>,
    pub file: Option<Text>,
    pub attempt: Option<u32>,
}

impl TraceCtx {
    /// Context for manager-global events not tied to any request (breaker
    /// state changes, replica rehabilitation, ...).
    pub fn system() -> TraceCtx {
        TraceCtx::default()
    }

    /// Context scoped to one request.
    pub fn request(id: u64) -> TraceCtx {
        TraceCtx {
            request: Some(id),
            ..TraceCtx::default()
        }
    }

    pub fn with_file(mut self, file: impl Into<Text>) -> TraceCtx {
        self.file = Some(file.into());
        self
    }

    pub fn with_attempt(mut self, attempt: u32) -> TraceCtx {
        self.attempt = Some(attempt);
        self
    }
}

/// A [`NetLog`] that only accepts contexted emission.
///
/// Derefs to `NetLog` for all read-side queries; mutation is only possible
/// through [`emit`](TracedLog::emit), [`span_start`](TracedLog::span_start)
/// and [`span_end`](TracedLog::span_end), each of which requires a
/// [`TraceCtx`].
#[derive(Debug, Default, Clone)]
pub struct TracedLog {
    log: NetLog,
    next_span: u64,
    /// Optional streaming analyzer tap: when attached, every event is also
    /// fed to the online lifeline analyzer as the log stored it, making
    /// phase/stall state queryable mid-run.
    live: Option<Box<LiveLifelines>>,
}

impl TracedLog {
    pub fn new() -> TracedLog {
        TracedLog::default()
    }

    /// Grow the store so the next `events` events carrying `fields` own
    /// fields in all are emitted without reallocating.
    pub fn reserve(&mut self, events: usize, fields: usize) {
        self.log.reserve(events, fields);
    }

    /// Emit one event stamped with `ctx`.
    ///
    /// If a live analyzer is attached, the event is also streamed to it —
    /// *as stored*: the tap observes the stored record (so an out-of-order
    /// time the log clamped is seen clamped), which is what keeps the
    /// streaming analysis byte-identical to a later offline pass over the
    /// same log.
    pub fn emit(&mut self, ctx: &TraceCtx, event: LogEvent) {
        self.log.append(ctx, event);
        if let (Some(live), Some(e)) = (&mut self.live, self.log.last()) {
            live.observe(e);
        }
    }

    /// Attach an online lifeline analyzer, replaying every event already in
    /// the log so the live state is complete from this point on. Idempotent
    /// in effect: re-attaching replaces the analyzer with a fresh replay.
    pub fn attach_live(&mut self) {
        let mut live = Box::new(LiveLifelines::new());
        for e in self.log.iter() {
            live.observe(e);
        }
        self.live = Some(live);
    }

    /// The attached streaming analyzer, if any.
    pub fn live(&self) -> Option<&LiveLifelines> {
        self.live.as_deref()
    }

    /// Mutable access to the attached streaming analyzer (used by the
    /// request manager's stall detector to record fired probes).
    pub fn live_mut(&mut self) -> Option<&mut LiveLifelines> {
        self.live.as_deref_mut()
    }

    /// Open a span: allocates the next [`SpanId`], emits a `span.start`
    /// event carrying `span`, `parent` (0 for a root) and `phase`, and
    /// returns the id for the matching [`span_end`](TracedLog::span_end).
    ///
    /// A live analyzer gets the span as this call holds it, at the time the
    /// log stored: what [`LiveLifelines::observe`] would read back from the
    /// stored event, without reading it.
    pub fn span_start(
        &mut self,
        ctx: &TraceCtx,
        time: SimTime,
        phase: Phase,
        parent: Option<SpanId>,
    ) -> SpanId {
        self.next_span += 1;
        let id = SpanId(self.next_span);
        let parent = parent.unwrap_or(SpanId::NONE);
        let event = LogEvent::new(time, "span.start")
            .field("span", id.0)
            .field("parent", parent.0)
            .field("phase", phase.as_str());
        let start = self.log.append(ctx, event);
        if let Some(live) = &mut self.live {
            live.span_opened(OpenSpan {
                span: id.0,
                parent: parent.0,
                phase,
                request: ctx.request,
                file: ctx.file.clone(),
                start,
            });
        }
        id
    }

    /// Close a span, attaching any extra fields (e.g. `bytes` banked by a
    /// transfer attempt, or a terminal `status`). A live analyzer gets the
    /// id and the stored time, as for [`span_start`](TracedLog::span_start).
    pub fn span_end(
        &mut self,
        ctx: &TraceCtx,
        time: SimTime,
        span: SpanId,
        phase: Phase,
        extra: impl IntoIterator<Item = (&'static str, Value)>,
    ) {
        let mut event = LogEvent::new(time, "span.end")
            .field("span", span.0)
            .field("phase", phase.as_str());
        for (k, v) in extra {
            event = event.field(k, v);
        }
        let end = self.log.append(ctx, event);
        if let Some(live) = &mut self.live {
            live.span_closed(span.0, end);
        }
    }
}

impl Deref for TracedLog {
    type Target = NetLog;

    fn deref(&self) -> &NetLog {
        &self.log
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ctx_stamps_without_clobbering() {
        let mut log = TracedLog::new();
        let ctx = TraceCtx::request(7).with_file("f1").with_attempt(2);
        log.emit(&ctx, LogEvent::new(SimTime::ZERO, "rm.x"));
        log.emit(
            &ctx,
            LogEvent::new(SimTime::ZERO, "rm.y").field("file", "other"),
        );
        let e = log.named("rm.x").next().unwrap();
        assert_eq!(e.get_num("request"), Some(7.0));
        assert_eq!(e.get("file"), Some(Value::from("f1")));
        assert_eq!(e.get_num("attempt"), Some(2.0));
        // Explicit field wins over the ctx stamp.
        let e = log.named("rm.y").next().unwrap();
        assert_eq!(e.get("file"), Some(Value::from("other")));
        assert_eq!(e.get_num("request"), Some(7.0));
    }

    #[test]
    fn span_ids_are_sequential_and_events_paired() {
        let mut log = TracedLog::new();
        let ctx = TraceCtx::request(1).with_file("f");
        let root = log.span_start(&ctx, SimTime::ZERO, Phase::File, None);
        let child = log.span_start(&ctx, SimTime::ZERO, Phase::Queue, Some(root));
        assert_eq!(root, SpanId(1));
        assert_eq!(child, SpanId(2));
        log.span_end(&ctx, SimTime::from_secs(3), child, Phase::Queue, vec![]);
        log.span_end(
            &ctx,
            SimTime::from_secs(3),
            root,
            Phase::File,
            vec![("status", "done".into())],
        );
        assert_eq!(log.named("span.start").count(), 2);
        assert_eq!(log.named("span.end").count(), 2);
        let start = log.named("span.start").nth(1).unwrap();
        assert_eq!(start.get_num("parent"), Some(1.0));
        assert_eq!(start.get("phase"), Some(Value::from("queue")));
    }

    #[test]
    fn phase_round_trips_its_name() {
        for p in Phase::ALL {
            assert_eq!(Phase::from_str(p.as_str()), Some(p));
        }
        assert_eq!(Phase::from_str("nope"), None);
    }

    #[test]
    fn live_tap_replays_and_streams() {
        let mut log = TracedLog::new();
        let ctx = TraceCtx::request(1).with_file("f");
        let root = log.span_start(&ctx, SimTime::ZERO, Phase::File, None);
        // Attach mid-stream: the pre-attach span must be replayed.
        log.attach_live();
        assert_eq!(log.live().unwrap().open_count(), 1);
        let q = log.span_start(&ctx, SimTime::from_secs(1), Phase::Queue, Some(root));
        assert_eq!(log.live().unwrap().open_count(), 2);
        log.span_end(&ctx, SimTime::from_secs(4), q, Phase::Queue, vec![]);
        assert_eq!(log.live().unwrap().open_count(), 1);
        assert_eq!(log.live().unwrap().spans_closed(), 1);
        // The tap sees events as stored: an out-of-order end is clamped by
        // the log before observation, so live == offline on the same log.
        log.span_end(&ctx, SimTime::from_secs(2), root, Phase::File, vec![]);
        let live = log.live().unwrap();
        let offline = crate::lifeline::LifelineSet::from_log(&log);
        assert_eq!(
            live.file_phase_totals(1, "f"),
            Some(offline.lifelines[0].phase_totals())
        );
        assert_eq!(live.trace_end(), offline.trace_end);
        assert_eq!(live.open_count(), 0);
    }

    #[test]
    fn deref_exposes_read_queries() {
        let mut log = TracedLog::new();
        log.emit(&TraceCtx::system(), LogEvent::new(SimTime::ZERO, "a"));
        assert_eq!(log.len(), 1);
        assert!(log.to_ulm().starts_with("DATE=0.000000 EVNT=a"));
    }
}
