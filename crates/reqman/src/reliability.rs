//! The reliability layer: retry policy and per-host circuit breakers.
//!
//! §7 of the paper describes the RM's reliability plugin in terms of three
//! behaviours: detect a failed or degraded transfer, remember how much of
//! the file already arrived (the restart marker), and move the remainder of
//! the work elsewhere. The seed implementation hard-coded its retry delays
//! (5 s / 10 s / 30 s) and blacklisted failing hosts permanently, which
//! meant a host that suffered one transient outage was never used again for
//! that file. This module replaces both mechanisms:
//!
//! * [`RetryPolicy`] — exponential backoff with seeded jitter, a cap on
//!   attempts, and an optional per-attempt timeout. Every requeue the RM
//!   schedules goes through one policy.
//! * [`CircuitBreaker`] — a per-host three-state machine (closed → open →
//!   half-open). Consecutive failures open the breaker; while open the host
//!   receives no traffic; after a cooldown a single probe transfer is
//!   admitted, and its outcome decides whether the host is readmitted or
//!   the breaker re-opens.
//!
//! Both are deterministic: jitter comes from the manager's seeded RNG and
//! breaker transitions depend only on simulated time.

use esg_simnet::{SimDuration, SimTime};
use rand::rngs::StdRng;
use rand::Rng;

/// Growth factor of the backoff per attempt.
const BACKOFF_FACTOR: f64 = 2.0;
/// Ceiling on any single backoff delay (pre-jitter).
const MAX_BACKOFF: SimDuration = SimDuration::from_secs(60);
/// Jitter amplitude as a fraction of the delay.
const JITTER: f64 = 0.2;
/// Consecutive failures that trip a host's circuit breaker.
pub(crate) const BREAKER_THRESHOLD: u32 = 3;
/// How long a tripped breaker blocks its host before a probe.
pub(crate) const BREAKER_COOLDOWN: SimDuration = SimDuration::from_secs(60);

/// Backoff schedule for requeued file workers.
///
/// Attempt `n` (0-based) sleeps `base * 2^n`, clamped to 60 s, then spread
/// by ±20 % of the delay so that workers knocked over by the same outage do
/// not thunder back in lockstep.
#[derive(Debug, Clone, Copy)]
pub struct RetryPolicy {
    /// First retry delay.
    pub base: SimDuration,
    /// Give up on a file after this many attempts (0 = never give up).
    pub max_attempts: u32,
    /// Cancel an attempt that has run longer than this (ZERO = no limit).
    pub attempt_timeout: SimDuration,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            base: SimDuration::from_secs(2),
            max_attempts: 0,
            attempt_timeout: SimDuration::ZERO,
        }
    }
}

impl RetryPolicy {
    /// Delay before retry number `attempt` (0-based), jittered by `rng`.
    pub fn backoff(&self, attempt: u32, rng: &mut StdRng) -> SimDuration {
        let exp = BACKOFF_FACTOR.powi(attempt.min(30) as i32);
        let raw = (self.base.as_secs_f64() * exp).min(MAX_BACKOFF.as_secs_f64());
        let u: f64 = rng.gen_range(-1.0..1.0);
        SimDuration::from_secs_f64((raw * (1.0 + JITTER * u)).max(0.0))
    }

    /// Whether attempt count `attempts` has exhausted the policy.
    pub fn exhausted(&self, attempts: u32) -> bool {
        self.max_attempts > 0 && attempts >= self.max_attempts
    }
}

/// Where a breaker currently stands.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BreakerState {
    /// Healthy: all traffic admitted.
    #[default]
    Closed,
    /// Tripped: no traffic until `until`.
    Open { until: SimTime },
    /// Cooled down: one probe transfer may test the host.
    HalfOpen { probing: bool },
}

/// State transition reported by a breaker operation, for event logging.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BreakerTransition {
    Opened,
    HalfOpened,
    Closed,
}

/// Per-host circuit breaker.
///
/// Three consecutive failures (`BREAKER_THRESHOLD`) trip it open for 60 s
/// (`BREAKER_COOLDOWN`); the first admission query after the cooldown moves
/// it to half-open and admits a single probe. The probe's outcome either
/// closes the breaker or re-opens it for another cooldown.
#[derive(Debug, Clone, Default)]
pub struct CircuitBreaker {
    consecutive_failures: u32,
    state: BreakerState,
}

impl CircuitBreaker {
    pub fn state(&self) -> BreakerState {
        self.state
    }

    /// Non-committal admission check, for filtering candidate lists
    /// without consuming the half-open probe slot.
    pub fn would_admit(&self, now: SimTime) -> bool {
        match self.state {
            BreakerState::Closed => true,
            BreakerState::Open { until } => now >= until,
            BreakerState::HalfOpen { probing } => !probing,
        }
    }

    /// May a new transfer go to this host now? Transitions open → half-open
    /// once the cooldown has elapsed; in half-open, admits exactly one
    /// probe at a time.
    pub fn admits(&mut self, now: SimTime) -> (bool, Option<BreakerTransition>) {
        match self.state {
            BreakerState::Closed => (true, None),
            BreakerState::Open { until } if now >= until => {
                self.state = BreakerState::HalfOpen { probing: true };
                (true, Some(BreakerTransition::HalfOpened))
            }
            BreakerState::Open { .. } => (false, None),
            BreakerState::HalfOpen { probing: false } => {
                self.state = BreakerState::HalfOpen { probing: true };
                (true, None)
            }
            BreakerState::HalfOpen { probing: true } => (false, None),
        }
    }

    /// Record a failed transfer (or failed start) against this host.
    pub fn record_failure(&mut self, now: SimTime) -> Option<BreakerTransition> {
        match self.state {
            BreakerState::HalfOpen { .. } => {
                // Probe failed: straight back to open.
                self.consecutive_failures = BREAKER_THRESHOLD;
                self.state = BreakerState::Open {
                    until: now + BREAKER_COOLDOWN,
                };
                Some(BreakerTransition::Opened)
            }
            BreakerState::Closed => {
                self.consecutive_failures += 1;
                if self.consecutive_failures >= BREAKER_THRESHOLD {
                    self.state = BreakerState::Open {
                        until: now + BREAKER_COOLDOWN,
                    };
                    Some(BreakerTransition::Opened)
                } else {
                    None
                }
            }
            // Already open: nothing changes (late failures from attempts
            // started before the trip).
            BreakerState::Open { .. } => None,
        }
    }

    /// Release an admitted probe without judging the host — used when the
    /// attempt aborted for reasons unrelated to it (e.g. a global name
    /// service outage), so the probe slot frees up for the next worker.
    pub fn release(&mut self) {
        if let BreakerState::HalfOpen { probing: true } = self.state {
            self.state = BreakerState::HalfOpen { probing: false };
        }
    }

    /// Record a completed transfer from this host.
    pub fn record_success(&mut self) -> Option<BreakerTransition> {
        let was_half_open = matches!(self.state, BreakerState::HalfOpen { .. });
        self.consecutive_failures = 0;
        match self.state {
            BreakerState::Closed => None,
            _ => {
                self.state = BreakerState::Closed;
                if was_half_open {
                    Some(BreakerTransition::Closed)
                } else {
                    // Success while nominally open (attempt predating the
                    // trip): close quietly.
                    Some(BreakerTransition::Closed)
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn t(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    /// A breaker tripped by [`BREAKER_THRESHOLD`] failures at `at`.
    fn tripped(at: u64) -> CircuitBreaker {
        let mut b = CircuitBreaker::default();
        for _ in 1..BREAKER_THRESHOLD {
            assert_eq!(b.record_failure(t(at)), None);
        }
        assert_eq!(b.record_failure(t(at)), Some(BreakerTransition::Opened));
        b
    }

    #[test]
    fn backoff_grows_and_clamps() {
        let p = RetryPolicy {
            base: SimDuration::from_secs(1),
            ..RetryPolicy::default()
        };
        let mut rng = StdRng::seed_from_u64(1);
        // Each delay is `min(2^n, 60)` s spread by at most ±20 %.
        for (attempt, raw) in [
            (0, 1.0),
            (1, 2.0),
            (3, 8.0),
            (5, 32.0),
            (6, 60.0),
            (20, 60.0),
        ] {
            let d = p.backoff(attempt, &mut rng).as_secs_f64();
            assert!(
                (raw * 0.8..=raw * 1.2).contains(&d),
                "attempt {attempt}: {d} s outside {raw} s ± 20 %"
            );
        }
    }

    #[test]
    fn backoff_jitter_stays_in_band_and_is_deterministic() {
        let p = RetryPolicy {
            base: SimDuration::from_secs(4),
            ..RetryPolicy::default()
        };
        let sample = |seed: u64| -> Vec<f64> {
            let mut rng = StdRng::seed_from_u64(seed);
            (0..100)
                .map(|_| p.backoff(0, &mut rng).as_secs_f64())
                .collect()
        };
        let a = sample(9);
        for d in &a {
            assert!((3.2..=4.8).contains(d), "jitter out of band: {d}");
        }
        assert_eq!(a, sample(9), "same seed must give same delays");
        assert_ne!(a, sample(10));
    }

    #[test]
    fn exhaustion_cap() {
        let p = RetryPolicy {
            max_attempts: 3,
            ..RetryPolicy::default()
        };
        assert!(!p.exhausted(2));
        assert!(p.exhausted(3));
        let unlimited = RetryPolicy::default();
        assert!(!unlimited.exhausted(u32::MAX));
    }

    #[test]
    fn breaker_opens_after_threshold() {
        let mut b = tripped(3);
        assert!(!b.admits(t(10)).0, "open breaker must block");
        assert!(matches!(b.state(), BreakerState::Open { .. }));
    }

    #[test]
    fn breaker_half_open_probe_readmits_on_success() {
        let mut b = tripped(0);
        assert!(!b.admits(t(10)).0);
        // Cooldown elapsed: exactly one probe allowed.
        let (ok, tr) = b.admits(t(61));
        assert!(ok);
        assert_eq!(tr, Some(BreakerTransition::HalfOpened));
        assert!(!b.admits(t(62)).0, "second concurrent probe must wait");
        assert_eq!(b.record_success(), Some(BreakerTransition::Closed));
        assert!(b.admits(t(63)).0);
        assert_eq!(b.state(), BreakerState::Closed);
    }

    #[test]
    fn breaker_probe_failure_reopens() {
        let mut b = tripped(0);
        assert!(b.admits(t(61)).0);
        // One failed probe re-opens it, whatever the threshold.
        assert_eq!(b.record_failure(t(61)), Some(BreakerTransition::Opened));
        assert!(!b.admits(t(100)).0);
        // A second full cooldown is required before the next probe.
        assert!(b.admits(t(122)).0);
    }

    #[test]
    fn would_admit_does_not_consume_probe() {
        let mut b = tripped(0);
        assert!(b.would_admit(t(61)), "cooldown elapsed");
        assert!(
            matches!(b.state(), BreakerState::Open { .. }),
            "peek must not transition"
        );
        assert!(b.admits(t(61)).0);
        assert!(!b.would_admit(t(61)), "probe slot taken");
        b.release();
        assert!(b.would_admit(t(61)));
    }

    #[test]
    fn success_resets_failure_streak() {
        let mut b = CircuitBreaker::default();
        for s in 1..BREAKER_THRESHOLD as u64 {
            b.record_failure(t(s));
        }
        b.record_success();
        assert_eq!(b.record_failure(t(3)), None, "streak must restart");
        assert!(b.admits(t(4)).0);
    }
}
