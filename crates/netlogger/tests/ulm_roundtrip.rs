//! Property tests of the event store.
//!
//! 1. ULM export → parse → export is byte-identical for arbitrary events,
//!    including hostile keys (spaces, `=`, uppercase) and values containing
//!    the full printable-unicode pool.
//! 2. The record store against the store it replaced: [`oracle`] is the old
//!    `Vec<LogEvent>` log, kept verbatim — every event a name `String` and
//!    a `Vec<(String, Value)>` with the context stamped in as fields at
//!    emission. Random event streams (hostile keys and values, events that
//!    carry their own `file` / `request` / `attempt`, out-of-order times)
//!    go to a clamping `TracedLog` under random contexts with a live tap
//!    attached mid-stream. It must export the same bytes as the oracle,
//!    re-parse to the same bytes and answer every query the same, and the
//!    live analyzer must hold what [`recount`] says it must.
//! 3. The typed tap: request-manager-shaped streams of `span_start`,
//!    `span_end` and `emit` calls reach the live analyzer mostly without
//!    being read back, and it must hold what `attach_live`'s replay of the
//!    finished log and the offline `LifelineSet::from_log` pass hold.

use esg_netlogger::{
    LifelineSet, LiveLifelines, LogEvent, NetLog, OpenSpan, Phase, SpanId, TraceCtx, TracedLog,
    Value,
};
use esg_simnet::SimTime;
use proptest::prelude::*;
use proptest::TestCaseError;

#[path = "support/recount.rs"]
mod recount;

/// The event store before typed records, verbatim but for type names.
mod oracle {
    use esg_simnet::SimTime;
    use std::fmt::Write;

    #[derive(Debug, Clone, PartialEq)]
    pub enum OldValue {
        Str(String),
        Num(f64),
        Int(i64),
    }

    impl std::fmt::Display for OldValue {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            match self {
                OldValue::Str(s) => write!(f, "{s}"),
                OldValue::Num(x) => write!(f, "{x}"),
                OldValue::Int(i) => write!(f, "{i}"),
            }
        }
    }

    fn sanitize_key(key: &str) -> String {
        let mut out = String::with_capacity(key.len());
        for c in key.chars() {
            match c {
                'a'..='z' | '0'..='9' | '.' | '_' | '-' => out.push(c),
                'A'..='Z' => out.push(c.to_ascii_lowercase()),
                _ => out.push('_'),
            }
        }
        if out.is_empty() {
            out.push('_');
        }
        out
    }

    fn escape_value(s: &str) -> String {
        if !s
            .bytes()
            .any(|b| matches!(b, b' ' | b'=' | b'%' | b'\n' | b'\r' | b'\t'))
        {
            return s.to_string();
        }
        let mut out = String::with_capacity(s.len() + 4);
        for c in s.chars() {
            match c {
                ' ' | '=' | '%' | '\n' | '\r' | '\t' => {
                    let b = c as u8;
                    out.push('%');
                    out.push(
                        char::from_digit((b >> 4) as u32, 16)
                            .unwrap()
                            .to_ascii_uppercase(),
                    );
                    out.push(
                        char::from_digit((b & 0xf) as u32, 16)
                            .unwrap()
                            .to_ascii_uppercase(),
                    );
                }
                _ => out.push(c),
            }
        }
        out
    }

    #[derive(Debug, Clone, PartialEq)]
    pub struct OldEvent {
        pub time: SimTime,
        pub name: String,
        pub fields: Vec<(String, OldValue)>,
    }

    impl OldEvent {
        pub fn new(time: SimTime, name: impl Into<String>) -> Self {
            OldEvent {
                time,
                name: name.into(),
                fields: Vec::new(),
            }
        }

        pub fn field(mut self, key: impl Into<String>, value: OldValue) -> Self {
            let key = key.into();
            let key = if key
                .bytes()
                .all(|b| matches!(b, b'a'..=b'z' | b'0'..=b'9' | b'.' | b'_' | b'-'))
                && !key.is_empty()
            {
                key
            } else {
                sanitize_key(&key)
            };
            self.fields.push((key, value));
            self
        }

        pub fn has(&self, key: &str) -> bool {
            self.fields.iter().any(|(k, _)| k == key)
        }

        pub fn get(&self, key: &str) -> Option<&OldValue> {
            self.fields.iter().find(|(k, _)| k == key).map(|(_, v)| v)
        }

        pub fn get_num(&self, key: &str) -> Option<f64> {
            match self.get(key)? {
                OldValue::Num(x) => Some(*x),
                OldValue::Int(i) => Some(*i as f64),
                OldValue::Str(_) => None,
            }
        }

        pub fn to_ulm(&self) -> String {
            let mut s = String::new();
            write!(
                s,
                "DATE={:.6} EVNT={}",
                self.time.as_secs_f64(),
                escape_value(&self.name)
            )
            .unwrap();
            for (k, v) in &self.fields {
                match v {
                    OldValue::Str(raw) => write!(s, " {}={}", k, escape_value(raw)).unwrap(),
                    _ => write!(s, " {k}={v}").unwrap(),
                }
            }
            s
        }
    }

    #[derive(Debug, Clone, Default)]
    pub struct OldCtx {
        pub request: Option<u64>,
        pub file: Option<String>,
        pub attempt: Option<u32>,
    }

    impl OldCtx {
        pub fn stamp(&self, mut event: OldEvent) -> OldEvent {
            if let Some(r) = self.request {
                if !event.has("request") {
                    event = event.field("request", OldValue::Int(r as i64));
                }
            }
            if let Some(f) = &self.file {
                if !event.has("file") {
                    event = event.field("file", OldValue::Str(f.clone()));
                }
            }
            if let Some(a) = self.attempt {
                if !event.has("attempt") {
                    event = event.field("attempt", OldValue::Int(a as u64 as i64));
                }
            }
            event
        }
    }

    #[derive(Debug, Default)]
    pub struct OldLog {
        pub events: Vec<OldEvent>,
        pub out_of_order: u64,
    }

    impl OldLog {
        pub fn push(&mut self, mut event: OldEvent) {
            if let Some(last) = self.events.last() {
                if event.time < last.time {
                    self.out_of_order += 1;
                    event.time = last.time;
                }
            }
            self.events.push(event);
        }

        pub fn named<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a OldEvent> + 'a {
            self.events.iter().filter(move |e| e.name == name)
        }

        pub fn between(&self, from: SimTime, to: SimTime) -> impl Iterator<Item = &OldEvent> {
            self.events
                .iter()
                .filter(move |e| e.time >= from && e.time < to)
        }

        pub fn to_ulm(&self) -> String {
            let mut s = String::new();
            for e in &self.events {
                s.push_str(&e.to_ulm());
                s.push('\n');
            }
            s
        }
    }
}

use oracle::{OldCtx, OldEvent, OldLog, OldValue};

proptest! {
    #[test]
    fn ulm_round_trip_is_byte_identical(
        raw in prop::collection::vec(
            (
                0u64..4_000_000_000_000u64,             // nanos, up to ~4000 s
                "[a-z.]{1,12}",                          // event name
                prop::collection::vec(
                    ("\\PC{0,12}", 0u8..3u8, "\\PC{0,16}", -1_000_000i64..1_000_000i64, 0.001f64..1e9),
                    0..5usize,
                ),
            ),
            0..12usize,
        )
    ) {
        let mut raw = raw;
        raw.sort_by_key(|(t, _, _)| *t);
        let mut log = NetLog::new();
        let mut originals = Vec::new();
        for (nanos, name, fields) in raw {
            let mut e = LogEvent::new(SimTime(nanos), name);
            for (key, tag, s, i, x) in fields {
                e = match tag {
                    0 => e.field(key, s),
                    1 => e.field(key, i),
                    _ => e.field(key, x),
                };
            }
            originals.push(e.clone());
            log.push(e);
        }
        let ulm = log.to_ulm();
        let parsed = NetLog::from_ulm(&ulm).unwrap();

        // Byte-identical re-export: the core round-trip property.
        prop_assert_eq!(parsed.to_ulm(), ulm);
        prop_assert_eq!(parsed.len(), log.len());

        // Semantic fidelity: names survive escaping, keys stay as the
        // builder sanitised them, and every value prints the same text.
        for (a, b) in originals.iter().zip(parsed.iter()) {
            prop_assert_eq!(b.name, a.name.as_str());
            let fb: Vec<(&str, Value)> = b.fields().collect();
            prop_assert_eq!(fb.len(), a.fields().len());
            for ((ka, va), (kb, vb)) in a.fields().iter().zip(fb.iter()) {
                prop_assert_eq!(ka.as_str(), *kb);
                prop_assert_eq!(va.to_string(), vb.to_string());
                // A string value must come back as the exact same string;
                // a numeric-looking one may be reclassified, and its
                // Display was already proven equal above.
                if let (Value::Str(orig), Value::Str(back)) = (va, vb) {
                    prop_assert_eq!(orig, back);
                }
            }
        }
    }
}

/// Keys the generator draws from: clean ones, the three context keys, keys
/// that sanitise onto a context key, and ones `sanitize_key` must repair.
const KEYS: [&str; 12] = [
    "host", "bytes", "request", "file", "attempt", "FILE", "Request", "bad key", "a=b", "",
    "rate%", "x\ty",
];

/// String values, some of which need percent-escaping.
const STRS: [&str; 6] = [
    "dallas0",
    "a b=c%d",
    "tab\there",
    "line\nbreak",
    "007",
    "ünï cödé",
];

const NAMES: [&str; 5] = [
    "span.start",
    "span.end",
    "rm.tune.path",
    "obs.stall",
    "rm.x",
];

const PHASES: [&str; 6] = ["file", "queue", "transfer", "verify", "backoff", "prestage"];

fn old_value(tag: u8, s: &str, i: i64, x: f64) -> OldValue {
    match tag {
        0 => OldValue::Str(s.to_string()),
        1 => OldValue::Int(i),
        _ => OldValue::Num(x),
    }
}

fn new_value(v: &OldValue) -> Value {
    match v {
        OldValue::Str(s) => Value::from(s.clone()),
        OldValue::Num(x) => Value::Num(*x),
        OldValue::Int(i) => Value::Int(*i),
    }
}

/// `log` against `old`, the oracle fed the same events: the same export,
/// which re-parses to itself, and the same answer to every query. Returns
/// the re-parsed log.
fn assert_same_store(log: &NetLog, old: &OldLog) -> Result<NetLog, TestCaseError> {
    let ulm = log.to_ulm();
    prop_assert_eq!(&ulm, &old.to_ulm());
    let parsed = NetLog::from_ulm(&ulm).unwrap();
    prop_assert_eq!(parsed.to_ulm(), ulm.clone());
    prop_assert_eq!(parsed.len(), old.events.len());

    prop_assert_eq!(log.len(), old.events.len());
    prop_assert_eq!(log.out_of_order_count(), old.out_of_order);
    for name in NAMES {
        prop_assert_eq!(log.named(name).count(), old.named(name).count());
    }
    for (from, to) in [
        (0u64, 30u64),
        (30, 200),
        (10, 10),
        (0, u64::MAX / 2_000_000_000),
    ] {
        let (from, to) = (SimTime::from_secs(from), SimTime::from_secs(to));
        prop_assert_eq!(log.between(from, to).count(), old.between(from, to).count());
    }
    let lookups = KEYS
        .iter()
        .chain(&["span", "phase", "missing", "_", "bad_key"]);
    for (new, old) in log.iter().zip(&old.events) {
        prop_assert_eq!(new.time, old.time);
        prop_assert_eq!(new.name, old.name.as_str());
        prop_assert_eq!(new.to_ulm(), old.to_ulm());
        for key in lookups.clone() {
            prop_assert_eq!(new.get(key), old.get(key).map(new_value), "get({:?})", key);
            prop_assert_eq!(new.get_num(key), old.get_num(key), "get_num({:?})", key);
            prop_assert_eq!(new.has(key), old.has(key));
        }
    }
    let tail: Vec<String> = log.tail(5).map(|e| e.to_ulm()).collect();
    let old_tail: Vec<String> = old
        .events
        .iter()
        .rev()
        .take(5)
        .rev()
        .map(OldEvent::to_ulm)
        .collect();
    prop_assert_eq!(tail, old_tail);
    Ok(parsed)
}

proptest! {
    /// Each stream feeds a `TracedLog`, the request manager's store: it
    /// clamps late events, stamps the context and has a live tap attached
    /// mid-stream.
    #[test]
    fn record_store_matches_the_old_event_vector(
        stream in prop::collection::vec(
            (
                (0u64..60, 0u64..1_000_000),              // time step (s), µs
                0u8..7,                                    // name (5, 6: random)
                "[a-z.]{1,8}",
                prop::collection::vec(
                    (0u8..12, 0u8..3, "\\PC{0,10}", -1_000i64..1_000, 0.001f64..1e6),
                    0..4usize,
                ),
                (0u8..3, 0u8..4, 0u8..3),                  // request / file / attempt
                (1u64..12, 0u64..12, 0u8..6, 0u8..6),      // span, parent, phase, string
            ),
            0..40usize,
        ),
        attach_at in 0usize..45,
    ) {
        let mut log = TracedLog::new();
        let mut old = OldLog::default();
        let mut secs = 20u64;
        for (i, ((step, micros), name_ix, rand_name, fields, ctx_ix, span_ix)) in stream.iter().enumerate() {
            if i == attach_at {
                log.attach_live();
            }
            // One step in four goes backwards in time.
            secs = (secs + step).saturating_sub(15);
            // ULM carries microseconds: finer times would not re-parse.
            let time = SimTime(secs * 1_000_000_000 + micros * 1_000);
            let name = match *name_ix as usize {
                n if n < NAMES.len() => NAMES[n].to_string(),
                _ => rand_name.clone(),
            };
            let (span, parent, phase, str_ix) = *span_ix;
            let mut e = LogEvent::new(time, name.clone());
            let mut o = OldEvent::new(time, name.clone());
            if name.starts_with("span.") {
                e = e.field("span", span).field("parent", parent).field("phase", PHASES[phase as usize]);
                o = o
                    .field("span", OldValue::Int(span as i64))
                    .field("parent", OldValue::Int(parent as i64))
                    .field("phase", OldValue::Str(PHASES[phase as usize].into()));
            }
            for &(key_ix, tag, ref s, int, x) in fields {
                let s = if s.len() % 2 == 0 { s.as_str() } else { STRS[str_ix as usize] };
                let v = old_value(tag, s, int, x);
                e = e.field(KEYS[key_ix as usize], new_value(&v));
                o = o.field(KEYS[key_ix as usize], v);
            }
            let (req, file, attempt) = *ctx_ix;
            let file = match file {
                0 => None,
                1 => Some("pcm.run1.f001"),
                2 => Some("f two=%"),
                _ => Some(STRS[str_ix as usize]),
            };
            let mut ctx = if req == 0 { TraceCtx::system() } else { TraceCtx::request(req as u64 * 7) };
            let mut old_ctx = OldCtx { request: ctx.request, ..OldCtx::default() };
            if let Some(f) = file {
                ctx = ctx.with_file(f.to_string());
                old_ctx.file = Some(f.to_string());
            }
            if attempt > 0 {
                ctx = ctx.with_attempt(attempt as u32);
                old_ctx.attempt = Some(attempt as u32);
            }
            log.emit(&ctx, e);
            old.push(old_ctx.stamp(o));
        }
        if log.live().is_none() {
            log.attach_live();
        }

        let parsed = assert_same_store(&log, &old)?;

        // The live tap, attached mid-stream, holds what a recount of the
        // stored log says it must (clamped times, reused span ids, ends
        // without a start). The offline pass reads the re-parse as it
        // reads the log.
        let live = log.live().unwrap();
        prop_assert_eq!(live.events_seen() as usize, log.len());
        prop_assert_eq!(recount::tap_matches_recount(live, &log), Ok(()));
        let offline = format!("{:?}", LifelineSet::from_log(&log));
        prop_assert_eq!(format!("{:?}", LifelineSet::from_log(&parsed)), offline);
    }

    /// The live tap against the recount on span-dense streams: few span ids
    /// and parents, so ids are reused, ends arrive without a start, children
    /// close under live, stale and missing roots; times step backwards (the
    /// traced log clamps them) and the tap attaches mid-stream.
    #[test]
    fn live_tap_holds_what_the_log_recounts(
        stream in prop::collection::vec(
            (
                (0u64..30, 0u64..1_000_000),          // time step (s), µs
                0u8..5,                                // start, start, end, end, other
                (1u64..7, 0u64..7, 0u8..8),            // span, parent, phase
                (0u8..3, 0u8..3, 0u8..4),              // request / file / own fields
            ),
            0..60usize,
        ),
        attach_at in 0usize..65,
    ) {
        const SPAN_PHASES: [&str; 8] =
            ["file", "file", "queue", "transfer", "verify", "prestage", "campaign", "bogus"];
        let mut log = TracedLog::new();
        let mut secs = 20u64;
        for (i, ((step, micros), kind, (span, parent, phase), (req, file, own))) in
            stream.iter().enumerate()
        {
            if i == attach_at {
                log.attach_live();
            }
            secs = (secs + step).saturating_sub(8);
            let time = SimTime(secs * 1_000_000_000 + micros * 1_000);
            let name = ["span.start", "span.end", "rm.tick"][(*kind as usize / 2).min(2)];
            let mut e = LogEvent::new(time, name);
            if name != "rm.tick" {
                e = e.field("span", *span).field("phase", SPAN_PHASES[*phase as usize]);
                if *parent > 0 {
                    e = e.field("parent", *parent);
                }
            }
            match own {
                1 => e = e.field("file", "own"),
                2 => e = e.field("file", 7u64),
                3 => e = e.field("request", 5u64).field("file", "own"),
                _ => {}
            }
            let mut ctx = match req {
                0 => TraceCtx::system(),
                r => TraceCtx::request(*r as u64),
            };
            if *file > 0 {
                ctx = ctx.with_file(["", "f1", "f2"][*file as usize]);
            }
            log.emit(&ctx, e);
        }
        if log.live().is_none() {
            log.attach_live();
        }
        prop_assert_eq!(recount::tap_matches_recount(log.live().unwrap(), &log), Ok(()));
    }

    /// The typed tap against both readers of the stored log. Lifelines
    /// open under requests of two files each, walk through phases with one
    /// open at a time, and settle; a prestage span opens and closes beside
    /// them. Through plain `emit`, span events reuse the typed path's ids:
    /// a phase is closed, or replaced while open by another phase of the
    /// same id, and ends arrive for ids never opened. Times step backwards
    /// (the log clamps them) and the tap attaches mid-stream. The tap must
    /// then hold exactly what `attach_live` rebuilds by reading the whole
    /// log and what the offline pass reconstructs: open spans in order,
    /// every lifeline's phase totals, the horizon and the tallies.
    #[test]
    fn typed_tap_holds_what_replay_and_offline_hold(
        stream in prop::collection::vec(
            (0u8..9, 0usize..4, 0usize..7, (0u64..8, 0u64..1_000_000)),
            0..80usize,
        ),
        attach_at in 0usize..20,
    ) {
        const PHASES: [Phase; 7] = [
            Phase::Queue,
            Phase::Select,
            Phase::Stage,
            Phase::Transfer,
            Phase::Verify,
            Phase::Repair,
            Phase::Backoff,
        ];
        struct Lane {
            ctx: TraceCtx,
            root: SpanId,
            phase: Option<(SpanId, Phase)>,
        }
        let mut log = TracedLog::new();
        let mut lanes: [Option<Lane>; 4] = Default::default();
        let mut prestage: Option<(TraceCtx, SpanId)> = None;
        let mut roots = 0u64;
        let mut secs = 10u64;
        for (i, &(op, lane, phase, (step, micros))) in stream.iter().enumerate() {
            if i == attach_at {
                log.attach_live();
            }
            secs = (secs + step).saturating_sub(3);
            let t = SimTime(secs * 1_000_000_000 + micros * 1_000);
            let next = PHASES[phase];
            let slot = &mut lanes[lane];
            match (op, slot.as_mut()) {
                (0 | 1, None) => {
                    roots += 1;
                    let ctx = TraceCtx::request(1 + roots / 2).with_file(format!("f{lane}.{roots}"));
                    let root = log.span_start(&ctx, t, Phase::File, None);
                    *slot = Some(Lane { ctx, root, phase: None });
                }
                (0 | 1, Some(l)) => {
                    if let Some((id, p)) = l.phase.take() {
                        log.span_end(&l.ctx, t, id, p, vec![("bytes", Value::from(micros))]);
                    }
                    let id = log.span_start(&l.ctx, t, next, Some(l.root));
                    l.phase = Some((id, next));
                }
                (2, Some(l)) => {
                    if let Some((id, p)) = l.phase.take() {
                        log.span_end(&l.ctx, t, id, p, vec![]);
                    }
                    log.span_end(&l.ctx, t, l.root, Phase::File, vec![("status", "done".into())]);
                    *slot = None;
                }
                (3, l) => {
                    let mut e = LogEvent::new(t, "rm.tick");
                    let ctx = match l {
                        Some(l) => {
                            if let Some((id, p)) = l.phase {
                                e = e.field("span", id.0).field("phase", p.as_str());
                            }
                            l.ctx.clone()
                        }
                        None => TraceCtx::system(),
                    };
                    log.emit(&ctx, e);
                }
                (4, Some(l)) => {
                    if let Some((id, p)) = l.phase.take() {
                        let e = LogEvent::new(t, "span.end")
                            .field("span", id.0)
                            .field("phase", p.as_str());
                        log.emit(&l.ctx, e);
                    }
                }
                (5, Some(l)) => {
                    if let Some((id, _)) = l.phase {
                        let e = LogEvent::new(t, "span.start")
                            .field("span", id.0)
                            .field("parent", l.root.0)
                            .field("phase", next.as_str());
                        log.emit(&l.ctx, e);
                        l.phase = Some((id, next));
                    }
                }
                (6, _) => {
                    let e = LogEvent::new(t, "span.end").field("span", 1_000_000 + micros);
                    log.emit(&TraceCtx::request(1), e);
                }
                (7, _) => match prestage.take() {
                    Some((ctx, id)) => log.span_end(&ctx, t, id, Phase::Prestage, vec![]),
                    None => {
                        let ctx = TraceCtx::request(1 + roots / 2);
                        let id = log.span_start(&ctx, t, Phase::Prestage, None);
                        prestage = Some((ctx, id));
                    }
                },
                _ => {}
            }
        }
        if log.live().is_none() {
            log.attach_live();
        }
        let live = log.live().unwrap();
        let mut again = log.clone();
        again.attach_live();
        let replay = again.live().unwrap();
        let offline = LifelineSet::from_log(&log);

        let tallies = |l: &LiveLifelines| {
            (l.events_seen(), l.spans_closed(), l.stalls_fired(), l.trace_end(), l.open_count())
        };
        prop_assert_eq!(tallies(live), tallies(replay));
        prop_assert_eq!(live.events_seen(), log.len() as u64);
        prop_assert_eq!(live.trace_end(), offline.trace_end);
        let open: Vec<&OpenSpan> = live.open_spans().collect();
        prop_assert_eq!(&open, &replay.open_spans().collect::<Vec<_>>());
        let mut still_open: Vec<OpenSpan> = offline
            .lifelines
            .iter()
            .flat_map(|l| std::iter::once(&l.root).chain(&l.phases))
            .chain(offline.prestage.iter().chain(&offline.campaigns))
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
        still_open.sort_by_key(|s| s.span);
        prop_assert_eq!(open, still_open.iter().collect::<Vec<_>>());
        prop_assert_eq!(offline.lifelines.len() as u64, roots);
        for l in &offline.lifelines {
            let totals = live.file_phase_totals(l.request, &l.file);
            prop_assert_eq!(&totals, &replay.file_phase_totals(l.request, &l.file));
            prop_assert_eq!(totals.unwrap_or_default(), l.phase_totals(), "{}", l.file);
        }
        prop_assert_eq!(recount::tap_matches_recount(live, &log), Ok(()));
    }
}
