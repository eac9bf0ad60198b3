//! The six workloads. Each module exposes `rep(&Ctx) -> Rep`: build the
//! world from the seed (timed as set-up), run the default-configuration
//! system on it (timed slice by slice), check the outputs.

pub mod campaign;
pub mod flows;
pub mod interactive;
pub mod loopback;
pub mod striped;

use esg_simnet::{profile, AllocStats, ProfileReport};
use std::collections::BTreeMap;
use std::ops::Range;
use std::path::PathBuf;
use std::time::Instant;

/// Inputs of one rep.
pub struct Ctx {
    pub seed: u64,
    /// `--quick`: scaled-down sizes, same checks.
    pub quick: bool,
    /// Wrap the timed section in `esg_simnet::profile` and harvest layer
    /// counts. Never set while an end-to-end metric is being measured.
    pub traced: bool,
    /// Scratch directory inside the checkout (journals, served files).
    pub dir: PathBuf,
}

/// What one rep measured and checked.
#[derive(Default)]
pub struct Rep {
    pub setup_s: f64,
    /// Host seconds of consecutive slices of the timed section, cut at
    /// points the simulation (or the client's call sequence) fixes, so
    /// slice i does the same work in every rep of a run.
    pub slices: Vec<f64>,
    /// Delivered files (flows, transfers), and the slices that delivered
    /// them (`None`: all): `files_per_s` is files over those seconds.
    pub files: u64,
    pub files_slices: Option<Range<usize>>,
    /// Operations whose output was checked, and how many checks failed.
    pub attempted: u64,
    pub failed: u64,
    /// First few failed checks, for the report.
    pub failures: Vec<String>,
    /// sha256 of the simulated outcome; must repeat across reps.
    pub sim_digest: Option<String>,
    /// Everything else by metric name: simulated results (deterministic)
    /// and, on a traced rep, per-layer self times and counts.
    pub values: BTreeMap<&'static str, f64>,
    /// Profiler self times by subsystem, traced reps only.
    pub profile: Option<ProfileReport>,
    /// Individually timed client calls (`loopback_xfer`): one sample per
    /// call, in the unit of the metric the name belongs to.
    pub spans: Vec<(&'static str, f64)>,
    /// Host seconds those calls cover, for `trace.attributed_frac`.
    pub span_seconds: f64,
}

impl Rep {
    pub fn wall_s(&self) -> f64 {
        self.slices.iter().sum()
    }

    pub fn files_range(&self) -> Range<usize> {
        self.files_slices.clone().unwrap_or(0..self.slices.len())
    }

    /// Record one output check; a failed check counts the operation as
    /// failed and keeps a message.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.failures.len() < 8 {
                self.failures.push(what());
            }
        }
    }

    /// Record one timed call: its sample and the seconds it covered.
    pub fn span(&mut self, name: &'static str, sample: f64, seconds: f64) {
        self.spans.push((name, sample));
        self.span_seconds += seconds;
    }

    pub fn set(&mut self, name: &'static str, v: f64) {
        self.values.insert(name, v);
    }

    pub fn add(&mut self, name: &'static str, v: f64) {
        *self.values.entry(name).or_insert(0.0) += v;
    }
}

/// Cuts the timed section into slices: each `lap` closes one.
pub struct Laps(Instant);

impl Laps {
    pub fn start() -> Laps {
        Laps(Instant::now())
    }

    pub fn lap(&mut self, rep: &mut Rep) {
        let now = Instant::now();
        rep.slices.push((now - self.0).as_secs_f64());
        self.0 = now;
    }
}

/// Run the timed section, under the profiler when `traced`.
pub fn profiled(traced: bool, f: impl FnOnce()) -> Option<ProfileReport> {
    if traced {
        profile::start();
    }
    f();
    traced.then(profile::stop)
}

/// Fold a profiler window into the rep (windows add up: `campaign_round`
/// profiles two rounds).
pub fn add_profile(rep: &mut Rep, report: ProfileReport) {
    match &mut rep.profile {
        None => rep.profile = Some(report),
        Some(acc) => {
            acc.total_s += report.total_s;
            for (k, v) in report.self_s {
                *acc.self_s.entry(k).or_insert(0.0) += v;
            }
            for (k, v) in report.counts {
                *acc.counts.entry(k).or_insert(0) += v;
            }
        }
    }
}

/// Allocator counters, summed over the rep's simulations.
pub fn add_alloc(rep: &mut Rep, s: &AllocStats) {
    rep.add("simnet.alloc.recompute_passes", s.recompute_passes as f64);
    rep.add("simnet.alloc.components_solved", s.components_solved as f64);
    rep.add("simnet.alloc.flow_solves", s.flow_solves as f64);
    rep.add("simnet.alloc.parallel_batches", s.parallel_batches as f64);
    rep.add("route_cache_hits", s.route_cache_hits as f64);
    rep.add("route_cache_misses", s.route_cache_misses as f64);
}

/// Harvest the request-manager world's layer counts after a run, through
/// the public accessors the layers already offer. Adds, so several worlds
/// of one rep sum up.
pub fn add_world(rep: &mut Rep, sim: &esg_core::EsgSim) {
    add_alloc(rep, &sim.net.alloc_stats());
    let rm = &sim.world.rm;
    let m = &rm.metrics;
    for (name, counter) in [
        ("reqman.sched.admitted", "rm.sched.admitted"),
        ("reqman.sched.deferred", "rm.sched.deferred"),
        ("reqman.select.ledger_lookups", "rm.select.ledger_lookups"),
        ("reqman.failovers", "rm.failovers"),
        ("reqman.retry.backoffs", "rm.retries"),
        ("reqman.integrity.verified", "rm.integrity.verified"),
        (
            "reqman.integrity.block_mismatches",
            "rm.integrity.block_mismatches",
        ),
        ("reqman.integrity.eret_repairs", "rm.integrity.repairs"),
        ("files_completed", "rm.files.completed"),
    ] {
        rep.add(name, m.counter(counter) as f64);
    }
    rep.add("reqman.monitor_ticks", rm.monitor_ticks() as f64);
    rep.add(
        "attempts",
        rm.log.named("rm.replica.selected").count() as f64,
    );
    rep.add(
        "reqman.breaker.opens",
        rm.log.named("rm.breaker.open").count() as f64,
    );
    rep.add("netlogger.trace.events", rm.log.len() as f64);
    if let Some(live) = rm.live() {
        rep.add("netlogger.live.events_seen", live.events_seen() as f64);
        rep.add("netlogger.live.stalls_fired", live.stalls_fired() as f64);
    }
    rep.add("storage.hrm.prestaged", rm.sched_stats().prestaged as f64);
    for hrm in rm.hrms.values() {
        let (hits, misses, _) = hrm.cache.stats();
        rep.add("hrm_cache_hits", hits as f64);
        rep.add("hrm_cache_misses", misses as f64);
    }
    let g = &sim.world.gridftp;
    rep.add("gridftp.sim.transfers_started", g.transfers_started as f64);
    rep.add(
        "gridftp.sim.transfers_completed",
        g.transfers_completed as f64,
    );
    rep.add("gridftp.sim.handshakes", g.handshakes_performed as f64);
    rep.add("gridftp_cache_hits", g.cache_hits as f64);
}
