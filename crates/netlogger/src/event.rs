//! NetLogger-style structured events.
//!
//! NetLogger [Gunter et al., 2000] records timestamped key-value events from
//! every component of a distributed system and correlates them afterwards —
//! it produced the paper's Figure 8. We reproduce its event model: an event
//! has a time, a dotted event name (`gridftp.transfer.start`), and a flat
//! set of string/number fields — plus the second half of the NetLogger
//! story: a ULM parser ([`LogEvent::from_ulm`], [`NetLog::from_ulm`]) whose
//! export→parse→export round-trip is byte-identical, which is what makes
//! offline lifeline reconstruction trustworthy.
//!
//! The log stores typed records, not text. Emitters build events from
//! [`Text`] — a `'static` literal or a refcounted shared string — and the
//! log interns every name, key, string value and context file name once
//! by content into its symbol table, so a stored record (32 bytes: time,
//! the [`TraceCtx`] coordinates, the name's id, where its fields start)
//! and a stored field (16 bytes: key id, type, 8 payload bytes) hold ids.
//! Storing an event copies no bytes and, once the stores have grown and
//! its strings have been seen, allocates nothing. ULM text exists only
//! when something asks for it ([`NetLog::to_ulm`], [`EventRef::to_ulm`]);
//! the context's `request` / `file` / `attempt` are stamped at that point,
//! after the event's own fields.

use crate::symbols::{Sym, Symbols, MAX_SYMBOLS};
use crate::trace::TraceCtx;
use esg_simnet::SimTime;
use std::cell::Cell;
use std::fmt::{self, Write};
use std::ops::Deref;
use std::rc::Rc;

/// A string as the log keeps it: a `'static` literal (every event name and
/// key the emitters write, and fixed values such as a phase name) or a
/// refcounted string shared by every event that carries it (a file name
/// built once per file, a host name built on the host's first event), or
/// owned by one event (a digest, a parsed log's tokens). Cloning never
/// copies the bytes. Compares, orders and prints as its `str`.
#[derive(Clone)]
pub enum Text {
    Static(&'static str),
    Shared(Rc<str>),
}

impl Text {
    /// A shared copy of a borrowed string: one allocation, which every
    /// clone of the result then shares.
    pub fn shared(s: &str) -> Text {
        Text::Shared(s.into())
    }

    pub fn as_str(&self) -> &str {
        match self {
            Text::Static(s) => s,
            Text::Shared(s) => s,
        }
    }
}

impl Deref for Text {
    type Target = str;

    fn deref(&self) -> &str {
        self.as_str()
    }
}

impl PartialEq for Text {
    fn eq(&self, other: &Text) -> bool {
        self.as_str() == other.as_str()
    }
}

impl Eq for Text {}

impl PartialEq<str> for Text {
    fn eq(&self, other: &str) -> bool {
        self.as_str() == other
    }
}

impl PartialEq<&str> for Text {
    fn eq(&self, other: &&str) -> bool {
        self.as_str() == *other
    }
}

impl std::hash::Hash for Text {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.as_str().hash(state)
    }
}

impl PartialOrd for Text {
    fn partial_cmp(&self, other: &Text) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Text {
    fn cmp(&self, other: &Text) -> std::cmp::Ordering {
        self.as_str().cmp(other.as_str())
    }
}

impl fmt::Debug for Text {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self.as_str(), f)
    }
}

impl fmt::Display for Text {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

impl From<&'static str> for Text {
    fn from(s: &'static str) -> Self {
        Text::Static(s)
    }
}

impl From<String> for Text {
    fn from(s: String) -> Self {
        Text::Shared(s.into())
    }
}

impl From<Rc<str>> for Text {
    fn from(s: Rc<str>) -> Self {
        Text::Shared(s)
    }
}

/// A field value: NetLogger fields are strings or numbers.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    Str(Text),
    Num(f64),
    Int(i64),
}

impl Value {
    /// The value as a number: `Int` widens, `Str` is `None`.
    pub fn as_num(&self) -> Option<f64> {
        match self {
            Value::Num(x) => Some(*x),
            Value::Int(i) => Some(*i as f64),
            Value::Str(_) => None,
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Str(s) => f.write_str(s),
            Value::Num(x) => write!(f, "{x}"),
            Value::Int(i) => write!(f, "{i}"),
        }
    }
}

impl From<&'static str> for Value {
    fn from(s: &'static str) -> Self {
        Value::Str(Text::Static(s))
    }
}

impl From<String> for Value {
    fn from(s: String) -> Self {
        Value::Str(s.into())
    }
}

impl From<Text> for Value {
    fn from(s: Text) -> Self {
        Value::Str(s)
    }
}

impl From<f64> for Value {
    fn from(x: f64) -> Self {
        Value::Num(x)
    }
}

impl From<i64> for Value {
    fn from(i: i64) -> Self {
        Value::Int(i)
    }
}

impl From<u64> for Value {
    fn from(i: u64) -> Self {
        Value::Int(i as i64)
    }
}

impl From<usize> for Value {
    fn from(i: usize) -> Self {
        Value::Int(i as i64)
    }
}

fn is_clean_key(key: &str) -> bool {
    !key.is_empty()
        && key
            .bytes()
            .all(|b| matches!(b, b'a'..=b'z' | b'0'..=b'9' | b'.' | b'_' | b'-'))
}

/// Normalise a field key to the ULM-safe alphabet `[a-z0-9._-]`.
///
/// ULM keys are case-insensitive on the wire, so uppercase is folded to
/// lowercase rather than rejected; any other character outside the alphabet
/// (spaces, `=`, `%`, control characters) would make the line unparseable and
/// is replaced with `_`. An empty key becomes `_`.
pub fn sanitize_key(key: &str) -> String {
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

/// Append `s` to `out`, percent-escaping the characters that would break
/// ULM tokenisation in an event name or field value: space, `=`, `%`, and
/// line/tab controls.
fn push_escaped(out: &mut String, s: &str) {
    let special = |b: u8| matches!(b, b' ' | b'=' | b'%' | b'\n' | b'\r' | b'\t');
    if !s.bytes().any(special) {
        out.push_str(s);
        return;
    }
    // The specials are all single-byte ASCII; everything else (including
    // multi-byte UTF-8) passes through untouched.
    for c in s.chars() {
        if c.is_ascii() && special(c as u8) {
            write!(out, "%{:02X}", c as u8).unwrap();
        } else {
            out.push(c);
        }
    }
}

fn unescape_value(s: &str) -> Result<String, UlmError> {
    if !s.contains('%') {
        return Ok(s.to_string());
    }
    let bytes = s.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        if bytes[i] == b'%' {
            let hex = s
                .get(i + 1..i + 3)
                .ok_or_else(|| UlmError::BadEscape(s.to_string()))?;
            let b = u8::from_str_radix(hex, 16).map_err(|_| UlmError::BadEscape(s.to_string()))?;
            out.push(b);
            i += 3;
        } else {
            out.push(bytes[i]);
            i += 1;
        }
    }
    String::from_utf8(out).map_err(|_| UlmError::BadEscape(s.to_string()))
}

/// Why a ULM line failed to parse.
#[derive(Debug, Clone, PartialEq)]
pub enum UlmError {
    /// Line does not start with a `DATE=` token.
    MissingDate(String),
    /// `DATE=` value is not a non-negative decimal timestamp.
    BadDate(String),
    /// Second token is not `EVNT=`.
    MissingEvent(String),
    /// A field token has no `=` separator.
    BadField(String),
    /// A percent-escape in a value is malformed.
    BadEscape(String),
}

impl fmt::Display for UlmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            UlmError::MissingDate(l) => write!(f, "ULM line missing DATE=: {l:?}"),
            UlmError::BadDate(t) => write!(f, "bad DATE value: {t:?}"),
            UlmError::MissingEvent(l) => write!(f, "ULM line missing EVNT=: {l:?}"),
            UlmError::BadField(t) => write!(f, "field token without '=': {t:?}"),
            UlmError::BadEscape(t) => write!(f, "malformed percent-escape: {t:?}"),
        }
    }
}

impl std::error::Error for UlmError {}

/// Parse a `DATE=` timestamp exactly: the exporter writes `{:.6}` seconds, so
/// decoding digit-by-digit into nanoseconds (instead of going through an f64
/// multiply) guarantees a byte-identical re-export.
fn parse_date_nanos(tok: &str) -> Result<SimTime, UlmError> {
    let bad = || UlmError::BadDate(tok.to_string());
    let (secs, frac) = match tok.split_once('.') {
        Some((s, f)) => (s, f),
        None => (tok, ""),
    };
    if secs.is_empty() || !secs.bytes().all(|b| b.is_ascii_digit()) {
        return Err(bad());
    }
    if frac.len() > 9 || !frac.bytes().all(|b| b.is_ascii_digit()) {
        return Err(bad());
    }
    let secs: u64 = secs.parse().map_err(|_| bad())?;
    let mut frac_nanos: u64 = 0;
    for (i, b) in frac.bytes().enumerate() {
        frac_nanos += (b - b'0') as u64 * 10u64.pow(8 - i as u32);
    }
    secs.checked_mul(1_000_000_000)
        .and_then(|n| n.checked_add(frac_nanos))
        .map(SimTime)
        .ok_or_else(bad)
}

/// Classify a parsed value token. A token becomes numeric only when its
/// canonical `Display` reprints the exact original text, so that a parsed
/// log re-exports byte-identically (`007` stays a string, `7` becomes an
/// integer, `55.5` a float).
fn classify_value(raw: &str) -> Value {
    if raw.len() <= 20 {
        if let Ok(i) = raw.parse::<i64>() {
            if i.to_string() == raw {
                return Value::Int(i);
            }
        }
    }
    if raw.len() <= 32
        && raw
            .bytes()
            .all(|b| matches!(b, b'0'..=b'9' | b'.' | b'-' | b'e' | b'E' | b'+'))
    {
        if let Ok(x) = raw.parse::<f64>() {
            if x.is_finite() && format!("{x}") == raw {
                return Value::Num(x);
            }
        }
    }
    Value::Str(Text::shared(raw))
}

/// Parse one ULM line into an event whose name, keys and string values are
/// owned [`Text::Shared`] strings. Keys are kept verbatim: a parsed log
/// re-exports exactly what it read.
fn parse_line(line: &str) -> Result<LogEvent, UlmError> {
    let mut toks = line.split(' ').filter(|t| !t.is_empty());
    let date = toks
        .next()
        .and_then(|t| t.strip_prefix("DATE="))
        .ok_or_else(|| UlmError::MissingDate(line.to_string()))?;
    let time = parse_date_nanos(date)?;
    let name = toks
        .next()
        .and_then(|t| t.strip_prefix("EVNT="))
        .ok_or_else(|| UlmError::MissingEvent(line.to_string()))?;
    let mut event = LogEvent::new(time, unescape_value(name)?);
    for tok in toks {
        let (k, v) = tok
            .split_once('=')
            .ok_or_else(|| UlmError::BadField(tok.to_string()))?;
        let value = classify_value(&unescape_value(v)?);
        event.fields.push((Text::shared(k), value));
    }
    Ok(event)
}

/// Write the head of a ULM line: `DATE=<secs> EVNT=<name>`, the name
/// percent-escaped.
fn write_head(out: &mut String, time: SimTime, name: &str) {
    write!(out, "DATE={:.6} EVNT=", time.as_secs_f64()).unwrap();
    push_escaped(out, name);
}

/// Write one ` key=value` of a ULM line: the key verbatim (the builder
/// sanitised it), a string value percent-escaped.
fn write_field(out: &mut String, key: &str, value: &Value) {
    out.push(' ');
    out.push_str(key);
    out.push('=');
    match value {
        Value::Str(s) => push_escaped(out, s),
        Value::Num(x) => write!(out, "{x}").unwrap(),
        Value::Int(i) => write!(out, "{i}").unwrap(),
    }
}

/// How many emptied field buffers a thread keeps for reuse.
const SPARE_BUFFERS: usize = 16;

thread_local! {
    /// Field buffers of events already stored, emptied, for the next
    /// builders: once a thread has emitted an event, building the next one
    /// allocates nothing.
    static SPARE: Cell<Vec<Vec<(Text, Value)>>> = const { Cell::new(Vec::new()) };
}

/// One event under construction — the builder every emitter uses:
///
/// ```
/// use esg_netlogger::LogEvent;
/// use esg_simnet::SimTime;
/// let e = LogEvent::new(SimTime::ZERO, "rm.tune.path").field("streams", 4u64);
/// assert_eq!(e.to_ulm(), "DATE=0.000000 EVNT=rm.tune.path streams=4");
/// ```
///
/// Its field buffer comes from the ones stored events left behind, so
/// building an event from `'static` names and keys does not touch the heap.
#[derive(Debug, Clone, PartialEq)]
pub struct LogEvent {
    pub time: SimTime,
    pub name: Text,
    fields: Vec<(Text, Value)>,
}

impl Drop for LogEvent {
    /// Hand the emptied field buffer to the next builder on this thread.
    fn drop(&mut self) {
        if self.fields.capacity() == 0 {
            return;
        }
        self.fields.clear();
        let buf = std::mem::take(&mut self.fields);
        let _ = SPARE.try_with(|spare| {
            let mut bufs = spare.take();
            if bufs.len() < SPARE_BUFFERS {
                bufs.push(buf);
            }
            spare.set(bufs);
        });
    }
}

impl LogEvent {
    pub fn new(time: SimTime, name: impl Into<Text>) -> Self {
        let fields = SPARE
            .try_with(|spare| {
                let mut bufs = spare.take();
                let buf = bufs.pop();
                spare.set(bufs);
                buf
            })
            .ok()
            .flatten()
            .unwrap_or_default();
        LogEvent {
            time,
            name: name.into(),
            fields,
        }
    }

    /// Append a field. The key is normalised via [`sanitize_key`] so every
    /// event this builder produces is exportable and re-parseable.
    pub fn field(mut self, key: impl Into<Text>, value: impl Into<Value>) -> Self {
        let key = key.into();
        let key = if is_clean_key(&key) {
            key
        } else {
            sanitize_key(&key).into()
        };
        self.fields.push((key, value.into()));
        self
    }

    /// The fields in the order they were added.
    pub fn fields(&self) -> &[(Text, Value)] {
        &self.fields
    }

    /// True if the event already carries a field with this key.
    pub fn has(&self, key: &str) -> bool {
        self.get(key).is_some()
    }

    pub fn get(&self, key: &str) -> Option<&Value> {
        self.fields.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    pub fn get_num(&self, key: &str) -> Option<f64> {
        self.get(key)?.as_num()
    }

    /// NetLogger ULM text format:
    /// `DATE=<secs> EVNT=<name> key=value ...`
    ///
    /// Keys are emitted verbatim (they were sanitised at [`field`]); values
    /// and the event name are percent-escaped so that spaces, `=`, and `%`
    /// survive tokenisation.
    ///
    /// [`field`]: LogEvent::field
    pub fn to_ulm(&self) -> String {
        let mut s = String::new();
        write_head(&mut s, self.time, &self.name);
        for (k, v) in &self.fields {
            write_field(&mut s, k, v);
        }
        s
    }

    /// Parse one ULM line produced by [`LogEvent::to_ulm`].
    pub fn from_ulm(line: &str) -> Result<LogEvent, UlmError> {
        parse_line(line)
    }
}

/// The record's name id sits in the low bits of [`Record::name`]; the
/// context's presence flags above it.
const NAME_MASK: u32 = (MAX_SYMBOLS - 1) as u32;
const HAS_REQUEST: u32 = 1 << 29;
const HAS_FILE: u32 = 1 << 30;
const HAS_ATTEMPT: u32 = 1 << 31;

/// One stored event, 32 bytes: its time, its context's coordinates (the
/// file as a symbol id) and the name's symbol id with the flags saying
/// which coordinates are present. Its own fields are the log's slots from
/// `first` up to the next record's `first`.
#[derive(Debug, Clone, Copy)]
struct Record {
    time: SimTime,
    request: u64,
    name: u32,
    file: Sym,
    attempt: u32,
    first: u32,
}

impl Record {
    fn name(&self) -> Sym {
        self.name & NAME_MASK
    }

    fn request(&self) -> Option<u64> {
        (self.name & HAS_REQUEST != 0).then_some(self.request)
    }

    fn file(&self) -> Option<Sym> {
        (self.name & HAS_FILE != 0).then_some(self.file)
    }

    fn attempt(&self) -> Option<u32> {
        (self.name & HAS_ATTEMPT != 0).then_some(self.attempt)
    }
}

/// Which of [`Value`]'s types a slot's payload holds.
#[derive(Debug, Clone, Copy)]
enum Tag {
    Str,
    Num,
    Int,
}

/// One stored field, 16 bytes: the key's symbol id, the value's type and
/// 8 payload bytes — a string's symbol id, an `f64`'s bits or an `i64`.
#[derive(Debug, Clone, Copy)]
struct Slot {
    key: Sym,
    tag: Tag,
    bits: u64,
}

/// A stored event, borrowed from its [`NetLog`]: what `iter`, `named`,
/// `between` and `tail` yield. Reads see the event as exported — its own
/// fields, then the context's `request` / `file` / `attempt` where the
/// event did not set that key itself.
#[derive(Clone, Copy)]
pub struct EventRef<'a> {
    pub time: SimTime,
    pub name: &'a str,
    own: &'a [Slot],
    rec: &'a Record,
    syms: &'a Symbols,
}

impl fmt::Debug for EventRef<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_ulm())
    }
}

impl<'a> EventRef<'a> {
    fn key(&self, slot: &Slot) -> &'a str {
        self.syms.str(slot.key)
    }

    fn value(&self, slot: &Slot) -> Value {
        match slot.tag {
            Tag::Str => Value::Str(self.syms.text(slot.bits as Sym).clone()),
            Tag::Num => Value::Num(f64::from_bits(slot.bits)),
            Tag::Int => Value::Int(slot.bits as i64),
        }
    }

    fn own(&self, key: &str) -> Option<&'a Slot> {
        self.own.iter().find(|s| self.key(s) == key)
    }

    /// The context coordinates this event is stamped with, in stamp order.
    fn stamps(&self) -> impl Iterator<Item = (&'static str, Value)> + 'a {
        let this = *self;
        let unset = move |key: &str| this.own(key).is_none();
        let request = self.rec.request().filter(|_| unset("request"));
        let file = self.rec.file().filter(|_| unset("file"));
        let attempt = self.rec.attempt().filter(|_| unset("attempt"));
        (request
            .map(|r| ("request", Value::Int(r as i64)))
            .into_iter())
        .chain(file.map(move |f| ("file", Value::Str(this.syms.text(f).clone()))))
        .chain(attempt.map(|a| ("attempt", Value::Int(a as i64))))
    }

    /// Every field in export order: the event's own, then the stamps.
    pub fn fields(&self) -> impl Iterator<Item = (&'a str, Value)> + 'a {
        let this = *self;
        let own = self.own.iter().map(move |s| (this.key(s), this.value(s)));
        own.chain(self.stamps().map(|(k, v)| (k as &'a str, v)))
    }

    pub fn has(&self, key: &str) -> bool {
        self.get(key).is_some()
    }

    pub fn get(&self, key: &str) -> Option<Value> {
        if let Some(s) = self.own(key) {
            return Some(self.value(s));
        }
        match key {
            "request" => self.rec.request().map(|r| Value::Int(r as i64)),
            "file" => self
                .rec
                .file()
                .map(|f| Value::Str(self.syms.text(f).clone())),
            "attempt" => self.rec.attempt().map(|a| Value::Int(a as i64)),
            _ => None,
        }
    }

    pub fn get_num(&self, key: &str) -> Option<f64> {
        self.get(key)?.as_num()
    }

    fn write_ulm(&self, out: &mut String) {
        write_head(out, self.time, self.name);
        for s in self.own {
            write_field(out, self.key(s), &self.value(s));
        }
        for (k, v) in self.stamps() {
            write_field(out, k, &v);
        }
    }

    /// This event's ULM line (see [`LogEvent::to_ulm`]).
    pub fn to_ulm(&self) -> String {
        let mut s = String::new();
        self.write_ulm(&mut s);
        s
    }
}

/// An append-only event log with simple queries.
///
/// The log owns its records, one arena of field slots and the symbol table
/// both refer to; an emitter's [`LogEvent`] and [`TraceCtx`] are read and
/// let go.
#[derive(Debug, Default, Clone)]
pub struct NetLog {
    records: Vec<Record>,
    /// Every record's own fields, back to back in emission order.
    slots: Vec<Slot>,
    syms: Symbols,
    out_of_order: u64,
}

impl NetLog {
    pub fn new() -> Self {
        NetLog::default()
    }

    /// Append an event, enforcing time order in every build profile: an
    /// event whose time precedes the log's tail is clamped up to the tail
    /// time and kept, so nothing is lost and `between()`'s half-open scan
    /// stays correct. Out-of-order submissions are counted (see
    /// [`out_of_order_count`]).
    ///
    /// [`out_of_order_count`]: NetLog::out_of_order_count
    pub fn push(&mut self, event: LogEvent) {
        self.append(&TraceCtx::default(), event);
    }

    /// Store `event` under `ctx`, its time clamped to the tail's; returns
    /// the stored time.
    pub(crate) fn append(&mut self, ctx: &TraceCtx, mut event: LogEvent) -> SimTime {
        let mut time = event.time;
        if let Some(last) = self.records.last() {
            if time < last.time {
                self.out_of_order += 1;
                time = last.time;
            }
        }
        let first = self.slots.len() as u32;
        for (key, value) in event.fields.drain(..) {
            let key = self.syms.intern(&key);
            let (tag, bits) = match value {
                Value::Str(s) => (Tag::Str, self.syms.intern(&s) as u64),
                Value::Num(x) => (Tag::Num, x.to_bits()),
                Value::Int(i) => (Tag::Int, i as u64),
            };
            self.slots.push(Slot { key, tag, bits });
        }
        let mut rec = Record {
            time,
            request: 0,
            name: self.syms.intern(&event.name),
            file: 0,
            attempt: 0,
            first,
        };
        if let Some(request) = ctx.request {
            rec.request = request;
            rec.name |= HAS_REQUEST;
        }
        if let Some(file) = &ctx.file {
            rec.file = self.syms.intern(file);
            rec.name |= HAS_FILE;
        }
        if let Some(attempt) = ctx.attempt {
            rec.attempt = attempt;
            rec.name |= HAS_ATTEMPT;
        }
        self.records.push(rec);
        time
    }

    /// Grow the stores so the next `events` events with `fields` own
    /// fields in all are appended without reallocating.
    pub(crate) fn reserve(&mut self, events: usize, fields: usize) {
        self.records.reserve(events);
        self.slots.reserve(fields);
    }

    /// How many pushed events violated time order so far.
    pub fn out_of_order_count(&self) -> u64 {
        self.out_of_order
    }

    /// Bytes the stored trace occupies, counted from lengths so the same
    /// run always reads the same number: the records, the field slots and
    /// the symbol table (handles, string bytes, indexes).
    pub fn stored_bytes(&self) -> u64 {
        (self.records.len() * std::mem::size_of::<Record>()
            + self.slots.len() * std::mem::size_of::<Slot>()
            + self.syms.stored_bytes()) as u64
    }

    pub fn log(&mut self, time: SimTime, name: impl Into<Text>) -> &mut Self {
        self.push(LogEvent::new(time, name));
        self
    }

    pub fn len(&self) -> usize {
        self.records.len()
    }

    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    fn view(&self, i: usize) -> EventRef<'_> {
        let r = &self.records[i];
        let end = self
            .records
            .get(i + 1)
            .map_or(self.slots.len(), |next| next.first as usize);
        EventRef {
            time: r.time,
            name: self.syms.str(r.name()),
            own: &self.slots[r.first as usize..end],
            rec: r,
            syms: &self.syms,
        }
    }

    pub fn iter(&self) -> impl DoubleEndedIterator<Item = EventRef<'_>> + ExactSizeIterator {
        (0..self.records.len()).map(|i| self.view(i))
    }

    /// The most recent event.
    pub fn last(&self) -> Option<EventRef<'_>> {
        self.records.len().checked_sub(1).map(|i| self.view(i))
    }

    /// The last `n` events (fewer if the log is shorter), taken in O(1) —
    /// for live displays that re-render every tick and must not walk the
    /// whole log each time.
    pub fn tail(
        &self,
        n: usize,
    ) -> impl DoubleEndedIterator<Item = EventRef<'_>> + ExactSizeIterator {
        let from = self.records.len().saturating_sub(n);
        (from..self.records.len()).map(|i| self.view(i))
    }

    /// Events with the given name (none for a name the log never stored).
    pub fn named<'a>(&'a self, name: &'a str) -> impl Iterator<Item = EventRef<'a>> + 'a {
        let id = self.syms.find(name);
        (0..self.records.len())
            .filter(move |&i| Some(self.records[i].name()) == id)
            .map(|i| self.view(i))
    }

    /// Events in the half-open interval `[from, to)`.
    pub fn between(&self, from: SimTime, to: SimTime) -> impl Iterator<Item = EventRef<'_>> {
        (0..self.records.len())
            .filter(move |&i| (from..to).contains(&self.records[i].time))
            .map(|i| self.view(i))
    }

    /// Export everything in NetLogger's ULM text format.
    pub fn to_ulm(&self) -> String {
        let mut s = String::with_capacity(self.records.len() * 96);
        for e in self.iter() {
            e.write_ulm(&mut s);
            s.push('\n');
        }
        s
    }

    /// Parse a multi-line ULM export back into a log. Round-trips
    /// [`NetLog::to_ulm`] byte-identically; blank lines are skipped.
    pub fn from_ulm(text: &str) -> Result<NetLog, UlmError> {
        let mut log = NetLog::new();
        for line in text.lines() {
            if line.trim().is_empty() {
                continue;
            }
            log.push(parse_line(line)?);
        }
        Ok(log)
    }
}

#[cfg(test)]
mod equivalence;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_and_field_slots_keep_their_sizes() {
        // 88 and 48 bytes when they held `Text`s and a `TraceCtx`; the
        // layout's targets were a record of at most 40 and a slot of 16.
        assert_eq!(std::mem::size_of::<Record>(), 32);
        assert_eq!(std::mem::size_of::<Slot>(), 16);
    }

    #[test]
    fn an_unseen_name_or_key_is_an_empty_answer() {
        let mut log = NetLog::new();
        log.push(LogEvent::new(SimTime::ZERO, "a").field("k", 1u64));
        let bytes = log.stored_bytes();
        assert_eq!(log.named("x").count(), 0);
        assert_eq!(log.last().unwrap().get("x"), None);
        assert_eq!(log.stored_bytes(), bytes);
        // One record, one slot, and "a" and "k" in the table.
        log.push(LogEvent::new(SimTime::ZERO, "k").field("a", "k"));
        assert_eq!(log.stored_bytes() - bytes, 32 + 16);
    }

    #[test]
    fn builder_and_getters() {
        let e = LogEvent::new(SimTime::from_secs(1), "gridftp.transfer.start")
            .field("host", "dallas0")
            .field("bytes", 2_000_000_000u64)
            .field("rate", 55.5);
        assert_eq!(e.get("host"), Some(&Value::from("dallas0")));
        assert_eq!(e.get_num("bytes"), Some(2e9));
        assert_eq!(e.get_num("rate"), Some(55.5));
        assert_eq!(e.get_num("host"), None);
        assert_eq!(e.get("missing"), None);
    }

    #[test]
    fn ulm_format_preserves_key_case_distinctly() {
        let e = LogEvent::new(SimTime::from_secs_f64(1.5), "x.y").field("n", 3u64);
        assert_eq!(e.to_ulm(), "DATE=1.500000 EVNT=x.y n=3");
        // Uppercase keys fold to lowercase at the builder, so `HOST` and
        // `host` are the *same* field rather than two colliding columns.
        let e = LogEvent::new(SimTime::ZERO, "x").field("HOST", "a");
        assert_eq!(e.get("host"), Some(&Value::from("a")));
        assert_eq!(e.to_ulm(), "DATE=0.000000 EVNT=x host=a");
    }

    #[test]
    fn hostile_keys_are_sanitized_and_values_escaped() {
        let e = LogEvent::new(SimTime::ZERO, "x")
            .field("bad key=here", "v")
            .field("", "empty")
            .field("msg", "a b=c%d");
        let ulm = e.to_ulm();
        assert_eq!(
            ulm,
            "DATE=0.000000 EVNT=x bad_key_here=v _=empty msg=a%20b%3Dc%25d"
        );
        let back = LogEvent::from_ulm(&ulm).unwrap();
        assert_eq!(back.get("msg"), Some(&Value::from("a b=c%d")));
        assert_eq!(back.to_ulm(), ulm);
    }

    #[test]
    fn ulm_parse_round_trips_value_types() {
        let e = LogEvent::new(SimTime::from_secs_f64(12.25), "a.b")
            .field("i", 42u64)
            .field("neg", -7i64)
            .field("f", 55.5)
            .field("s", "plain")
            .field("oct", "007");
        let ulm = e.to_ulm();
        let back = LogEvent::from_ulm(&ulm).unwrap();
        assert_eq!(back.get("i"), Some(&Value::Int(42)));
        assert_eq!(back.get("neg"), Some(&Value::Int(-7)));
        assert_eq!(back.get("f"), Some(&Value::Num(55.5)));
        assert_eq!(back.get("s"), Some(&Value::from("plain")));
        // Leading zeros must stay a string or the re-export would differ.
        assert_eq!(back.get("oct"), Some(&Value::from("007")));
        assert_eq!(back.to_ulm(), ulm);
        assert_eq!(back.time, SimTime::from_secs_f64(12.25));
    }

    #[test]
    fn ulm_parse_rejects_garbage() {
        assert!(matches!(
            LogEvent::from_ulm("EVNT=x"),
            Err(UlmError::MissingDate(_))
        ));
        assert!(matches!(
            LogEvent::from_ulm("DATE=abc EVNT=x"),
            Err(UlmError::BadDate(_))
        ));
        assert!(matches!(
            LogEvent::from_ulm("DATE=1.0 nope"),
            Err(UlmError::MissingEvent(_))
        ));
        assert!(matches!(
            LogEvent::from_ulm("DATE=1.0 EVNT=x badtoken"),
            Err(UlmError::BadField(_))
        ));
        assert!(matches!(
            LogEvent::from_ulm("DATE=1.0 EVNT=x k=%zz"),
            Err(UlmError::BadEscape(_))
        ));
    }

    #[test]
    fn builders_reuse_the_buffers_stored_events_leave() {
        let wide = |i: u64| {
            (0..11u64).fold(LogEvent::new(SimTime::from_secs(i), "wide"), |e, k| {
                e.field("k", k)
            })
        };
        let mut log = NetLog::new();
        log.push(wide(0));
        // The stored event's emptied buffer is the next builder's.
        let e = wide(1);
        assert!(e.fields.capacity() >= 11);
        let values: Vec<f64> = e.fields().iter().filter_map(|(_, v)| v.as_num()).collect();
        assert_eq!(values, (0..11).map(|k| k as f64).collect::<Vec<_>>());
        log.push(e.clone());
        let ulm = log.to_ulm();
        assert_eq!(ulm.lines().nth(1), Some(e.to_ulm().as_str()));
        assert_eq!(ulm.lines().next(), Some(wide(0).to_ulm().as_str()));
    }

    #[test]
    fn log_queries() {
        let mut log = NetLog::new();
        for i in 0..10u64 {
            let name = if i % 2 == 0 { "even" } else { "odd" };
            log.push(LogEvent::new(SimTime::from_secs(i), name).field("i", i));
        }
        assert_eq!(log.len(), 10);
        assert_eq!(log.named("even").count(), 5);
        assert_eq!(
            log.between(SimTime::from_secs(2), SimTime::from_secs(5))
                .count(),
            3
        );
        let tail: Vec<f64> = log.tail(3).filter_map(|e| e.get_num("i")).collect();
        assert_eq!(tail, vec![7.0, 8.0, 9.0]);
        assert_eq!(log.tail(99).len(), 10);
    }

    #[test]
    fn queries_on_empty_log() {
        let log = NetLog::new();
        assert!(log.is_empty());
        assert_eq!(log.named("anything").count(), 0);
        assert_eq!(log.between(SimTime::ZERO, SimTime::MAX).count(), 0);
        assert_eq!(log.to_ulm(), "");
        assert!(log.last().is_none());
        assert_eq!(NetLog::from_ulm("").unwrap().len(), 0);
    }

    #[test]
    fn queries_on_single_event_log() {
        let mut log = NetLog::new();
        log.push(LogEvent::new(SimTime::from_secs(5), "only").field("k", 1u64));
        assert_eq!(log.len(), 1);
        assert_eq!(log.named("only").count(), 1);
        assert_eq!(log.named("other").count(), 0);
        // Half-open: [5, 5) is empty, [5, 6) contains it, [4, 5) does not.
        assert_eq!(
            log.between(SimTime::from_secs(5), SimTime::from_secs(5))
                .count(),
            0
        );
        assert_eq!(
            log.between(SimTime::from_secs(5), SimTime::from_secs(6))
                .count(),
            1
        );
        assert_eq!(
            log.between(SimTime::from_secs(4), SimTime::from_secs(5))
                .count(),
            0
        );
    }

    #[test]
    fn out_of_order_events_are_clamped() {
        let mut log = NetLog::new();
        log.log(SimTime::from_secs(10), "a");
        log.push(LogEvent::new(SimTime::from_secs(3), "late"));
        assert_eq!(log.len(), 2);
        assert_eq!(log.out_of_order_count(), 1);
        // Clamped to the tail time so between() stays a correct scan.
        let late = log.named("late").next().unwrap();
        assert_eq!(late.time, SimTime::from_secs(10));
    }

    #[test]
    fn netlog_ulm_round_trip_is_byte_identical() {
        let mut log = NetLog::new();
        log.push(
            LogEvent::new(SimTime::ZERO, "rm.request.submit")
                .field("request", 3u64)
                .field("files", 12u64),
        );
        log.push(
            LogEvent::new(SimTime(1_234_567_000), "gridftp.transfer.start")
                .field("file", "pcm.run1.f003")
                .field("rate", 12.5),
        );
        let ulm = log.to_ulm();
        let back = NetLog::from_ulm(&ulm).unwrap();
        assert_eq!(back.to_ulm(), ulm);
        assert_eq!(back.len(), log.len());
    }

    #[test]
    fn ulm_export_lines() {
        let mut log = NetLog::new();
        log.log(SimTime::ZERO, "a");
        log.log(SimTime::from_secs(1), "b");
        let text = log.to_ulm();
        assert_eq!(text.lines().count(), 2);
        assert!(text.starts_with("DATE=0.000000 EVNT=a"));
    }
}
