//! Emitting a trace event does not go to the heap.
//!
//! A stored event is a fixed-size record and a run of fixed-size field
//! slots that hold symbol ids: the log interns each name, key, string
//! value and context file name once, and its builder's buffer is one an
//! earlier event left behind. Once the stores have room and the strings
//! have been seen, emitting — span pairs under a request + file + attempt
//! context, an `rm.tune.path`-shaped event with a shared host name and
//! numeric fields, or an event whose host name is a fresh `Rc` of a name
//! the log already holds — must allocate nothing: at ESGF scale the trace
//! is written once per phase of every file, and the ten-odd heap calls per
//! event the `Vec<LogEvent>` log made were a sixth of a campaign round
//! (EXPERIMENTS A27). The same holds for a warm `MetricsRegistry` update.
//! This binary installs a counting global allocator, which is why it is
//! its own test target.
//!
//! Run it in release too (`cargo test --release -p esg-netlogger --test
//! alloc_free_emit`; CI does): that is the build whose allocation
//! behaviour the benchmark measures.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use esg_netlogger::{LogEvent, MetricsRegistry, Phase, Text, TraceCtx, TracedLog};
use esg_simnet::{SimDuration, SimTime};

thread_local! {
    /// `(allocations, reallocations)` made by this thread.
    static HEAP_CALLS: Cell<(u64, u64)> = const { Cell::new((0, 0)) };
}

struct Counting;

// SAFETY: every call is forwarded unchanged to `System`; the only addition
// is a const-initialised, destructor-free thread-local counter, which
// neither allocates nor unwinds.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = HEAP_CALLS.try_with(|c| c.set((c.get().0 + 1, c.get().1)));
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let _ = HEAP_CALLS.try_with(|c| c.set((c.get().0, c.get().1 + 1)));
        // SAFETY: as for `dealloc`, and the caller upholds `realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Heap calls `f` makes on this thread.
fn heap_calls(f: impl FnOnce()) -> (u64, u64) {
    let before = HEAP_CALLS.with(Cell::get);
    f();
    let after = HEAP_CALLS.with(Cell::get);
    (after.0 - before.0, after.1 - before.1)
}

const PAIRS: u64 = 1_000;

/// Open and close one transfer span per iteration, the way the request
/// manager does: the file name is built once, the context cloned per use.
fn span_pairs(log: &mut TracedLog, ctx: &TraceCtx, from: u64) {
    for i in from..from + PAIRS {
        let t = SimTime::from_secs(i);
        let span = log.span_start(ctx, t, Phase::Transfer, None);
        log.span_end(
            &ctx.clone(),
            t + SimDuration::from_millis(500),
            span,
            Phase::Transfer,
            [("bytes", 1_000_000u64.into())],
        );
    }
}

#[test]
fn warm_span_pairs_allocate_nothing() {
    let mut log = TracedLog::new();
    let ctx = TraceCtx::request(7)
        .with_file(String::from("pcm.run1.f007"))
        .with_attempt(2);
    span_pairs(&mut log, &ctx, 0);
    // span.start carries span/parent/phase, span.end span/phase/bytes.
    log.reserve(2 * PAIRS as usize, 6 * PAIRS as usize);
    let calls = heap_calls(|| span_pairs(&mut log, &ctx, PAIRS));
    assert_eq!(
        calls,
        (0, 0),
        "(allocations, reallocations) over {PAIRS} warm span pairs"
    );
    assert_eq!(log.len() as u64, 4 * PAIRS);
    // The stored events still render the context after their own fields.
    let last = log.last().unwrap().to_ulm();
    assert!(
        last.ends_with("phase=transfer bytes=1000000 request=7 file=pcm.run1.f007 attempt=2"),
        "{last}"
    );
}

#[test]
fn warm_tune_path_events_allocate_nothing() {
    let mut log = TracedLog::new();
    let ctx = TraceCtx::request(3)
        .with_file(String::from("pcm.run1.f003"))
        .with_attempt(1);
    // Like the file name, the host is built once and shared by its events.
    let host = Text::from(String::from("dallas0.lbl.gov"));
    let emit = |log: &mut TracedLog, i: u64| {
        log.emit(
            &ctx,
            LogEvent::new(SimTime::from_secs(i), "rm.tune.path")
                .field("host", host.clone())
                .field("streams", 8u64)
                .field("window", 4_194_304.0)
                .field("fc_bw", 9.5e6 + i as f64)
                .field("fc_rtt_s", 0.061)
                .field("source", "bdp"),
        );
    };
    emit(&mut log, 0);
    log.reserve(PAIRS as usize, 6 * PAIRS as usize);
    let calls = heap_calls(|| {
        for i in 1..=PAIRS {
            emit(&mut log, i);
        }
    });
    assert_eq!(
        calls,
        (0, 0),
        "(allocations, reallocations) over {PAIRS} warm events"
    );
    assert_eq!(log.named("rm.tune.path").count() as u64, PAIRS + 1);
}

#[test]
fn a_string_seen_before_under_another_rc_allocates_nothing() {
    let mut log = TracedLog::new();
    let ctx = TraceCtx::request(5)
        .with_file(String::from("pcm.run1.f005"))
        .with_attempt(1);
    let emit = |log: &mut TracedLog, i: u64, host: Text| {
        log.emit(
            &ctx,
            LogEvent::new(SimTime::from_secs(i), "integrity.block.mismatch")
                .field("block", i)
                .field("host", host),
        );
    };
    emit(&mut log, 0, Text::from(String::from("dallas0.lbl.gov")));
    // Each warm event carries its own `Rc` of a host name the log holds:
    // the log finds it by content and keeps no second copy.
    let hosts: Vec<Text> = (0..PAIRS)
        .map(|_| Text::from(String::from("dallas0.lbl.gov")))
        .collect();
    log.reserve(PAIRS as usize, 2 * PAIRS as usize);
    let bytes = log.stored_bytes();
    let calls = heap_calls(|| {
        for (i, host) in (1..).zip(hosts) {
            emit(&mut log, i, host);
        }
    });
    assert_eq!(
        calls,
        (0, 0),
        "(allocations, reallocations) over {PAIRS} warm events"
    );
    // Each event added one record and two field slots, and no string.
    assert_eq!(log.stored_bytes() - bytes, PAIRS * (32 + 2 * 16));
    let last = log.last().unwrap().to_ulm();
    assert!(
        last.ends_with("host=dallas0.lbl.gov request=5 file=pcm.run1.f005 attempt=1"),
        "{last}"
    );
}

#[test]
fn warm_metric_updates_allocate_nothing() {
    let mut reg = MetricsRegistry::new();
    let update = |reg: &mut MetricsRegistry| {
        reg.counter_add("rm.files.completed", 1);
        reg.gauge_set("rm.sched.inflight", 3.0);
        reg.gauge_max("rm.sched.peak_active", 8.0);
        reg.observe("rm.phase.transfer_s", 0.5);
    };
    update(&mut reg);
    let calls = heap_calls(|| {
        for _ in 0..PAIRS {
            update(&mut reg);
        }
    });
    assert_eq!(
        calls,
        (0, 0),
        "(allocations, reallocations) over warm metric updates"
    );
    assert_eq!(reg.counter("rm.files.completed"), PAIRS + 1);
}
