//! Deterministic subsystem profiler: scoped wall-clock + sim-event
//! accounting attributed to named subsystems.
//!
//! The question ROADMAP item 4 needs answered — *where does the wall go in
//! a 10k-files-per-round campaign?* — is about real elapsed time, which a
//! deterministic simulator deliberately never looks at. This module
//! measures it from the outside without contaminating the simulation:
//!
//! * **Scopes** ([`scope`]) bracket code regions with a subsystem name
//!   ([`KERNEL`], [`ALLOCATOR`], [`RM`], [`NET_POLL`], [`JOURNAL`],
//!   [`EVENTS`]). Attribution is *self-time*: entering a nested scope stops
//!   the clock of its parent, so the per-subsystem numbers tile the
//!   measured window instead of double-counting — wrap the whole event
//!   loop in [`KERNEL`] and the sum of self-times accounts for ~100% of
//!   the run by construction.
//! * **Counts** ([`count`]) tally deterministic quantities (events fired,
//!   flows polled, journal lines written): same seed → same counts, so
//!   they may flow into metrics snapshots. Wall-clock totals are
//!   nondeterministic by nature and must stay out of byte-stable
//!   artifacts — [`ProfileReport`] keeps them separate so callers can
//!   route each to the right sink.
//!
//! The profiler is **off by default** and gated by one relaxed atomic
//! load, so instrumented hot paths (the kernel inner loop, per-transfer
//! polling) pay one branch when disabled. State is thread-local: profile
//! the thread that drives the simulation.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Instant;

/// The event-loop shell itself: queue management, batch draining.
pub const KERNEL: &str = "kernel";
/// Bandwidth allocation: `next_event_time` + `advance_to` (recompute
/// passes, component solves, progress integration).
pub const ALLOCATOR: &str = "allocator";
/// Request-manager bookkeeping: scheduling, admission, ledger scans.
pub const RM: &str = "rm";
/// Per-transfer polling of the shared network layer (`transfer_bytes` /
/// `transfer_rate` / `transfer_stalled` linear scans).
pub const NET_POLL: &str = "net_poll";
/// Campaign journal serialization + I/O.
pub const JOURNAL: &str = "journal";
/// User event callbacks not claimed by a finer subsystem scope.
pub const EVENTS: &str = "events";

static ENABLED: AtomicBool = AtomicBool::new(false);

#[derive(Default)]
struct ProfState {
    stack: Vec<&'static str>,
    last_mark: Option<Instant>,
    self_ns: BTreeMap<&'static str, u64>,
    counts: BTreeMap<&'static str, u64>,
    started: Option<Instant>,
}

thread_local! {
    static STATE: RefCell<ProfState> = RefCell::new(ProfState::default());
}

/// Is profiling currently collecting? One relaxed load — the fast gate
/// every instrumentation site checks first.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Begin collecting on this thread, clearing any previous state.
pub fn start() {
    STATE.with(|s| {
        let mut s = s.borrow_mut();
        *s = ProfState {
            started: Some(Instant::now()),
            ..ProfState::default()
        };
    });
    ENABLED.store(true, Ordering::Relaxed);
}

/// Stop collecting and return everything gathered since [`start`].
pub fn stop() -> ProfileReport {
    ENABLED.store(false, Ordering::Relaxed);
    STATE.with(|s| {
        let mut s = s.borrow_mut();
        // Close out any time accrued since the last mark to whatever scope
        // is (still) on top — robust to stop() inside an open scope.
        if let (Some(mark), Some(&top)) = (s.last_mark, s.stack.last()) {
            let d = mark.elapsed().as_nanos() as u64;
            *s.self_ns.entry(top).or_insert(0) += d;
        }
        let total_s = s.started.map_or(0.0, |t| t.elapsed().as_secs_f64());
        let report = ProfileReport {
            total_s,
            self_s: s
                .self_ns
                .iter()
                .map(|(&k, &v)| (k, v as f64 * 1e-9))
                .collect(),
            counts: s.counts.clone(),
        };
        *s = ProfState::default();
        report
    })
}

/// Enter a named scope; the returned guard exits it on drop. When the
/// profiler is disabled this is one atomic load and an inert guard.
#[inline]
pub fn scope(name: &'static str) -> Scope {
    if !enabled() {
        return Scope { active: false };
    }
    STATE.with(|s| {
        let mut s = s.borrow_mut();
        let now = Instant::now();
        if let (Some(mark), Some(&top)) = (s.last_mark, s.stack.last()) {
            let d = now.duration_since(mark).as_nanos() as u64;
            *s.self_ns.entry(top).or_insert(0) += d;
        }
        s.stack.push(name);
        s.last_mark = Some(now);
    });
    Scope { active: true }
}

/// Add `n` to a deterministic subsystem counter (no-op when disabled).
#[inline]
pub fn count(name: &'static str, n: u64) {
    if !enabled() {
        return;
    }
    STATE.with(|s| {
        *s.borrow_mut().counts.entry(name).or_insert(0) += n;
    });
}

/// RAII guard for one profiled region; exit happens on drop.
#[must_use = "a profiling scope closes when this guard drops"]
pub struct Scope {
    active: bool,
}

impl Drop for Scope {
    fn drop(&mut self) {
        if !self.active {
            return;
        }
        STATE.with(|s| {
            let mut s = s.borrow_mut();
            let now = Instant::now();
            if let (Some(mark), Some(&top)) = (s.last_mark, s.stack.last()) {
                let d = now.duration_since(mark).as_nanos() as u64;
                *s.self_ns.entry(top).or_insert(0) += d;
            }
            s.stack.pop();
            s.last_mark = Some(now);
        });
    }
}

/// Everything one [`start`]/[`stop`] window collected.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ProfileReport {
    /// Wall seconds from `start()` to `stop()` (nondeterministic).
    pub total_s: f64,
    /// Self-time wall seconds per subsystem (nondeterministic).
    pub self_s: BTreeMap<&'static str, f64>,
    /// Deterministic event counts per subsystem counter name.
    pub counts: BTreeMap<&'static str, u64>,
}

impl ProfileReport {
    /// Sum of all subsystem self-times — wall seconds the profiler can
    /// attribute to a named subsystem.
    pub fn attributed_s(&self) -> f64 {
        self.self_s.values().sum()
    }

    /// One subsystem's share of attributed time (0 when nothing measured).
    pub fn share(&self, name: &str) -> f64 {
        let total = self.attributed_s();
        if total <= 0.0 {
            return 0.0;
        }
        self.self_s.get(name).copied().unwrap_or(0.0) / total
    }

    pub fn self_s_of(&self, name: &str) -> f64 {
        self.self_s.get(name).copied().unwrap_or(0.0)
    }

    pub fn count_of(&self, name: &str) -> u64 {
        self.counts.get(name).copied().unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    /// `ENABLED` is process-global while state is thread-local, so tests
    /// that toggle the profiler must not interleave.
    static LOCK: Mutex<()> = Mutex::new(());

    fn spin_for(us: u64) {
        let t = Instant::now();
        while t.elapsed().as_micros() < us as u128 {
            std::hint::black_box(0u64);
        }
    }

    #[test]
    fn disabled_profiler_collects_nothing() {
        let _l = LOCK.lock().unwrap();
        let _g = scope(KERNEL);
        count("kernel.events", 5);
        drop(_g);
        assert!(!enabled());
        let r = stop();
        assert_eq!(r.self_s.len(), 0);
        assert_eq!(r.counts.len(), 0);
    }

    #[test]
    fn self_time_attribution_tiles_nested_scopes() {
        let _l = LOCK.lock().unwrap();
        start();
        {
            let _k = scope(KERNEL);
            spin_for(200);
            {
                let _a = scope(ALLOCATOR);
                spin_for(200);
            }
            spin_for(200);
        }
        let r = stop();
        let k = r.self_s_of(KERNEL);
        let a = r.self_s_of(ALLOCATOR);
        assert!(k > 0.0 && a > 0.0);
        // Self-times are disjoint: each ≥ its own spin, and their sum is
        // bounded by the whole window.
        assert!(k + a <= r.total_s + 1e-9, "k={k} a={a} total={}", r.total_s);
        assert!(r.attributed_s() >= (k + a) - 1e-12);
        // The kernel scope spun twice as long as the allocator scope; with
        // generous slack (CI timers), it must at least exceed it.
        assert!(k > a * 0.5, "k={k} a={a}");
    }

    #[test]
    fn counts_are_deterministic_tallies() {
        let _l = LOCK.lock().unwrap();
        start();
        count("net_poll.flows_scanned", 7);
        count("net_poll.flows_scanned", 3);
        count("kernel.events", 1);
        let r = stop();
        assert_eq!(r.count_of("net_poll.flows_scanned"), 10);
        assert_eq!(r.count_of("kernel.events"), 1);
        assert_eq!(r.count_of("missing"), 0);
    }

    #[test]
    fn stop_clears_state_for_next_window() {
        let _l = LOCK.lock().unwrap();
        start();
        count("x", 1);
        let r1 = stop();
        assert_eq!(r1.count_of("x"), 1);
        start();
        let r2 = stop();
        assert_eq!(r2.count_of("x"), 0);
        assert_eq!(r2.self_s.len(), 0);
    }

    #[test]
    fn share_and_attribution_helpers() {
        let mut r = ProfileReport::default();
        assert_eq!(r.share(KERNEL), 0.0);
        r.self_s.insert(KERNEL, 3.0);
        r.self_s.insert(NET_POLL, 1.0);
        assert_eq!(r.attributed_s(), 4.0);
        assert_eq!(r.share(NET_POLL), 0.25);
        assert_eq!(r.self_s_of("nope"), 0.0);
    }
}
