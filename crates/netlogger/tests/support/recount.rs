//! An independent recount of what the live lifeline tap must hold, read
//! back from a stored log: the oracle the tap is held to wherever a test
//! runs it. Included by `#[path]` from netlogger's `ulm_roundtrip` and the
//! workspace's `live_lifeline` and `observability` tests.
//!
//! The rules, written out once more without the tap's code:
//! * a span is open from its `span.start` to the next `span.end` of its
//!   id; a later start of the same id replaces it (the last start wins);
//! * a `span.start` reads an unknown or non-text phase as `file`, a
//!   missing parent as 0, and request and file from its own fields or its
//!   context, a numeric file as it prints;
//! * a `File` start with both request and file makes its id a file root
//!   for the rest of the trace;
//! * closing a span that is not `file`, `prestage` or `campaign` adds its
//!   duration to its phase's total of the (request, file) of its parent's
//!   root, if the parent is one, summed in close order.

use esg_netlogger::{LiveLifelines, NetLog, OpenSpan, Phase, Text, Value};
use esg_simnet::SimTime;
use std::collections::BTreeMap;

type Totals = BTreeMap<&'static str, f64>;

/// What the tap must hold after observing every event of a log.
#[derive(Debug, Default)]
pub struct Recount {
    pub open: BTreeMap<u64, OpenSpan>,
    /// Every (request, file) that has a root, whether or not a child closed.
    pub files: Vec<(u64, String)>,
    pub totals: BTreeMap<(u64, String), Totals>,
    pub trace_end: SimTime,
    pub spans_closed: u64,
    pub events: u64,
}

pub fn recount(log: &NetLog) -> Recount {
    let mut r = Recount::default();
    let mut roots: BTreeMap<u64, (u64, String)> = BTreeMap::new();
    for e in log.iter() {
        r.events += 1;
        if e.time > r.trace_end {
            r.trace_end = e.time;
        }
        let starts = match e.name {
            "span.start" => true,
            "span.end" => false,
            _ => continue,
        };
        let Some(id) = e.get_num("span").map(|x| x as u64) else {
            continue;
        };
        if starts {
            let phase = match e.get("phase") {
                Some(Value::Str(p)) => Phase::ALL
                    .into_iter()
                    .find(|x| x.as_str() == &*p)
                    .unwrap_or(Phase::File),
                _ => Phase::File,
            };
            let request = e.get_num("request").map(|x| x as u64);
            let file = e.get("file").map(|v| v.to_string());
            if let (Phase::File, Some(req), Some(f)) = (phase, request, &file) {
                roots.insert(id, (req, f.clone()));
                r.files.push((req, f.clone()));
            }
            let open = OpenSpan {
                span: id,
                parent: e.get_num("parent").map_or(0, |x| x as u64),
                phase,
                request,
                file: file.map(Text::from),
                start: e.time,
            };
            r.open.insert(id, open);
        } else if let Some(s) = r.open.remove(&id) {
            r.spans_closed += 1;
            let umbrella = matches!(s.phase, Phase::File | Phase::Prestage | Phase::Campaign);
            if let (false, Some(key)) = (umbrella, roots.get(&s.parent)) {
                *r.totals
                    .entry(key.clone())
                    .or_default()
                    .entry(s.phase.as_str())
                    .or_insert(0.0) += e.time.since(s.start).as_secs_f64();
            }
        }
    }
    r.files.sort();
    r.files.dedup();
    r
}

/// Hold a tap to the recount of the log it observed; the first difference
/// is the error.
pub fn tap_matches_recount(live: &LiveLifelines, log: &NetLog) -> Result<(), String> {
    let r = recount(log);
    let tallies = (live.events_seen(), live.spans_closed(), live.trace_end());
    if tallies != (r.events, r.spans_closed, r.trace_end) {
        return Err(format!(
            "tap (events, closed, end) {tallies:?}, recount {:?}",
            (r.events, r.spans_closed, r.trace_end)
        ));
    }
    let open: Vec<&OpenSpan> = live.open_spans().collect();
    let want: Vec<&OpenSpan> = r.open.values().collect();
    if open != want || live.open_count() != want.len() {
        return Err(format!("tap open spans {open:?}, recount {want:?}"));
    }
    for key in &r.files {
        let (got, want) = (
            live.file_phase_totals(key.0, &key.1),
            r.totals.get(key).cloned(),
        );
        if got != want {
            return Err(format!("{key:?}: tap totals {got:?}, recount {want:?}"));
        }
    }
    Ok(())
}
