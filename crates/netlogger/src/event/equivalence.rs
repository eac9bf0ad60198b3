//! Store equivalence: what the interned store reads back is what the
//! emitter built.
//!
//! Random events go into a [`NetLog`] under random contexts; beside it a
//! model keeps each stored event as its builder — the [`LogEvent`] as
//! emitted, its time clamped to the tail's, then the context's `request` /
//! `file` / `attempt` appended as fields where the event did not set that
//! key. Every read of the store (`iter`, `fields`, `get`, `get_num`, `has`,
//! `to_ulm`, `named`, `between`, `tail`) must equal the model's, a float to
//! the bit.
//! The events carry static, shared and sanitised keys; empty, unicode and
//! escape-laden strings, each as a `'static`, as the same `Rc` again and as
//! a fresh `Rc` with content the log has seen; `-0.0`, NaN, infinities and
//! subnormals; integers at the extremes; every presence combination of the
//! three context coordinates.
//!
//! Case count is `PROPTEST_CASES`-bounded (default 96, CI runs 256).

use super::*;
use proptest::prelude::*;

const KEYS: [&str; 8] = [
    "host", "bytes", "request", "file", "attempt", "span", "phase", "k",
];

/// Keys the builder must sanitise; `FILE` and `Request` land on a context
/// key.
const HOSTILE: [&str; 6] = ["Bad Key", "", "a=b", "FILE", "Request", "x\ty"];

const STRS: [&str; 7] = [
    "",
    "dallas0",
    "ünï cödé 中文",
    "a b=c%d",
    "tab\there",
    "line\nbreak\r",
    "%25",
];

const NAMES: [&str; 5] = ["span.start", "span.end", "rm.tune.path", "", "ev ent=%"];

const NUMS: [f64; 9] = [
    -0.0,
    0.0,
    f64::NAN,
    f64::INFINITY,
    f64::NEG_INFINITY,
    f64::MIN_POSITIVE / 2.0,
    5e-324,
    f64::MAX,
    55.5,
];

const INTS: [i64; 5] = [i64::MIN, i64::MAX, 0, -1, 42];

const FILES: [&str; 4] = ["pcm.run1.f001", "", "f two=%", "ünï"];

const REQUESTS: [u64; 3] = [0, 7, u64::MAX];
const ATTEMPTS: [u32; 3] = [0, 1, u32::MAX];

/// One `Rc` per string, built once per case and handed out again.
struct Pool(Vec<Text>);

impl Pool {
    fn new(strs: &[&str]) -> Pool {
        Pool(strs.iter().map(|s| Text::from(s.to_string())).collect())
    }
}

/// `strs[ix]` as a `'static`, as the pool's `Rc` or as a fresh `Rc`.
fn text(flavour: u8, strs: &[&'static str], pool: &Pool, ix: u8) -> Text {
    let ix = ix as usize % strs.len();
    match flavour % 3 {
        0 => Text::Static(strs[ix]),
        1 => pool.0[ix].clone(),
        _ => Text::from(strs[ix].to_string()),
    }
}

/// A value with its float compared by bits, so NaN equals itself and
/// `-0.0` differs from `0.0`.
#[derive(Debug, PartialEq)]
enum Bits {
    Str(String),
    Num(u64),
    Int(i64),
}

fn bits(v: &Value) -> Bits {
    match v {
        Value::Str(s) => Bits::Str(s.to_string()),
        Value::Num(x) => Bits::Num(x.to_bits()),
        Value::Int(i) => Bits::Int(*i),
    }
}

proptest! {
    #[test]
    fn interned_store_reads_back_what_the_builder_built(
        stream in prop::collection::vec(
            (
                (0u64..10, 0u64..1_000_000),                 // time step (s), µs
                (0u8..3, 0u8..5),                            // name flavour, name
                prop::collection::vec(
                    ((0u8..4, 0u8..8), (0u8..5, 0u8..3, 0u8..9), any::<u64>()),
                    0..6usize,
                ),
                (0u8..8, 0u8..3, 0u8..3, 0u8..4),            // presence, request, attempt, file
                0u8..3,                                      // file flavour
            ),
            0..40usize,
        ),
    ) {
        let mut log = NetLog::new();
        let (keys, hostile, strs) = (Pool::new(&KEYS), Pool::new(&HOSTILE), Pool::new(&STRS));
        let (names, files) = (Pool::new(&NAMES), Pool::new(&FILES));
        let mut want: Vec<LogEvent> = Vec::new();
        let mut out_of_order = 0u64;
        let mut secs = 10u64;
        for ((step, micros), (name_flavour, name), fields, (present, req, att, file), file_flavour) in
            &stream
        {
            // One step in two goes backwards in time.
            secs = (secs + step).saturating_sub(5);
            let time = SimTime(secs * 1_000_000_000 + micros * 1_000);
            let mut e = LogEvent::new(time, text(*name_flavour, &NAMES, &names, *name));
            for &((key_kind, key), (kind, flavour, ix), raw) in fields {
                let key = match key_kind {
                    0 | 1 => text(key_kind, &KEYS, &keys, key),
                    _ => text(key_kind, &HOSTILE, &hostile, key),
                };
                let value = match kind {
                    0 => Value::Str(text(flavour, &STRS, &strs, ix)),
                    1 => Value::Num(NUMS[ix as usize]),
                    2 => Value::Int(INTS[ix as usize % INTS.len()]),
                    3 => Value::Num(f64::from_bits(raw)),
                    _ => Value::Int(raw as i64),
                };
                e = e.field(key, value);
            }
            let mut ctx = TraceCtx::system();
            if present & 1 != 0 {
                ctx.request = Some(REQUESTS[*req as usize]);
            }
            if present & 2 != 0 {
                ctx.file = Some(text(*file_flavour, &FILES, &files, *file));
            }
            if present & 4 != 0 {
                ctx.attempt = Some(ATTEMPTS[*att as usize]);
            }

            // The model: the builder as emitted, its time clamped, with the
            // context appended where the event left the key unset.
            let mut model = e.clone();
            if let Some(last) = want.last().map(|w| w.time) {
                if time < last {
                    out_of_order += 1;
                    model.time = last;
                }
            }
            log.append(&ctx, e);
            if let Some(r) = ctx.request.filter(|_| !model.has("request")) {
                model = model.field("request", Value::Int(r as i64));
            }
            if let Some(f) = ctx.file.clone().filter(|_| !model.has("file")) {
                model = model.field("file", f);
            }
            if let Some(a) = ctx.attempt.filter(|_| !model.has("attempt")) {
                model = model.field("attempt", Value::Int(a as i64));
            }
            want.push(model);
        }

        prop_assert_eq!(log.len(), want.len());
        prop_assert_eq!(log.out_of_order_count(), out_of_order);
        let lookups: Vec<String> = KEYS
            .iter()
            .map(|k| k.to_string())
            .chain(HOSTILE.iter().map(|k| sanitize_key(k)))
            .chain(["missing".to_string(), "Host".to_string()])
            .collect();
        for (got, want) in log.iter().zip(&want) {
            prop_assert_eq!(got.time, want.time);
            prop_assert_eq!(got.name, want.name.as_str());
            let got_fields: Vec<(&str, Bits)> = got.fields().map(|(k, v)| (k, bits(&v))).collect();
            let want_fields: Vec<(&str, Bits)> =
                want.fields().iter().map(|(k, v)| (k.as_str(), bits(v))).collect();
            prop_assert_eq!(got_fields, want_fields);
            prop_assert_eq!(got.to_ulm(), want.to_ulm());
            for key in &lookups {
                prop_assert_eq!(got.get(key).map(|v| bits(&v)), want.get(key).map(bits), "get({:?})", key);
                prop_assert_eq!(
                    got.get_num(key).map(f64::to_bits),
                    want.get_num(key).map(f64::to_bits),
                    "get_num({:?})", key
                );
                prop_assert_eq!(got.has(key), want.has(key));
            }
        }
        let export: String = want.iter().map(|w| w.to_ulm() + "\n").collect();
        prop_assert_eq!(log.to_ulm(), export);

        // Queries by name answer from the table; a name it never stored
        // is an empty answer and adds nothing to it.
        let bytes = log.stored_bytes();
        for name in NAMES.iter().chain(&["never", "span"]) {
            let got: Vec<String> = log.named(name).map(|e| e.to_ulm()).collect();
            let model: Vec<String> =
                want.iter().filter(|w| w.name == *name).map(LogEvent::to_ulm).collect();
            prop_assert_eq!(got, model);
        }
        prop_assert_eq!(log.iter().filter(|e| e.has("never.seen")).count(), 0);
        prop_assert_eq!(log.stored_bytes(), bytes);

        for (from, to) in [(0u64, 30u64), (30, 200), (10, 10), (0, u64::MAX / 2_000_000_000)] {
            let (from, to) = (SimTime::from_secs(from), SimTime::from_secs(to));
            let got: Vec<String> = log.between(from, to).map(|e| e.to_ulm()).collect();
            let model: Vec<String> = want
                .iter()
                .filter(|w| w.time >= from && w.time < to)
                .map(LogEvent::to_ulm)
                .collect();
            prop_assert_eq!(got, model);
        }
        let tail: Vec<String> = log.tail(3).map(|e| e.to_ulm()).collect();
        let model: Vec<String> = want[want.len().saturating_sub(3)..].iter().map(LogEvent::to_ulm).collect();
        prop_assert_eq!(tail, model);
    }
}
