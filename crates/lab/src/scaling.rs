//! Flow-level concurrent-user scaling harness (A10 / A14).
//!
//! Builds a WAN of independent regions — each a storage server feeding
//! several clients through a shared regional uplink — and pushes N
//! concurrent flows through it. The allocator has no configuration: one
//! single-threaded solve loop (DESIGN.md "Why there is no pool").
//!
//! Regions are disjoint on purpose: real deployments are many mostly-
//! independent site↔client paths, and that independence is exactly the
//! structure a component-scoped allocator exploits: an event re-solves
//! only the region it touches.
//!
//! On top of the single run sits the A14 **scaling curve** (1k → 10k →
//! 100k flows, [`run_curve_point`]): best-of-N wall clock and peak memory
//! per point, with in-run oracle probes checking the live incremental
//! allocation against [`FlowNet::oracle_rates`] — a from-scratch re-solve
//! that ignores the persistent index — at geometrically spaced sim
//! instants. The sequential-solver and full-recompute arms this harness
//! used to race against were removed once their bitwise equivalence was
//! on record (EXPERIMENTS.md A10/A14); the trace sha256 of every curve
//! point is pinned in the committed `BENCH_user_scaling.json`. Peak
//! memory is captured from `VmHWM` after resetting the kernel's RSS
//! high-water mark.

use esg_netlogger::{LogEvent, NetLog};
use esg_simnet::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

pub const CLIENTS_PER_REGION: usize = 4;

/// Result of one run.
pub struct RunResult {
    pub wall: std::time::Duration,
    pub stats: AllocStats,
    /// (flow sequence number, completion time) in completion order.
    pub completions: Vec<(usize, SimTime)>,
    /// ULM dump of the flow.start/flow.complete trace.
    pub trace_ulm: String,
    pub peak_concurrent: usize,
    /// Peak resident set (KiB) over this run, from `/proc/self/status`
    /// `VmHWM` after a `clear_refs` reset; `None` off-Linux.
    pub peak_rss_kb: Option<u64>,
    /// How many in-run incremental-vs-oracle probes executed (all must
    /// match bitwise or the run panics).
    pub oracle_probes_run: usize,
}

struct World {
    log: NetLog,
    completions: Vec<(usize, SimTime)>,
    peak: usize,
    oracle_probes: usize,
}

/// Reset the kernel's peak-RSS high-water mark so `VmHWM` measures only
/// the run that follows. Best-effort: silently a no-op off-Linux.
fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

fn peak_rss_kb() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))
        .and_then(|l| l.split_whitespace().nth(1))
        .and_then(|v| v.parse().ok())
}

/// Run `n` flows over `regions` regions with the given seed, with
/// `oracle_probes` in-run oracle probes at sim times 5·2^k seconds.
pub fn run_flows(n: usize, regions: usize, seed: u64, oracle_probes: usize) -> RunResult {
    reset_peak_rss();
    let mut topo = Topology::new();
    let mut servers = Vec::with_capacity(regions);
    let mut clients = Vec::with_capacity(regions);
    for r in 0..regions {
        let sv = topo.add_node(Node::host(format!("server{r}")));
        let rt = topo.add_node(Node::router(format!("router{r}")));
        // Shared regional uplink: 1 Gb/s, 10 ms.
        topo.add_link(sv, rt, 125e6, SimDuration::from_millis(10));
        let mut cls = Vec::with_capacity(CLIENTS_PER_REGION);
        for c in 0..CLIENTS_PER_REGION {
            let cl = topo.add_node(Node::host(format!("client{r}.{c}")));
            // Access: 622 Mb/s, 5 ms.
            topo.add_link(rt, cl, 77.75e6, SimDuration::from_millis(5));
            cls.push(cl);
        }
        servers.push(sv);
        clients.push(cls);
    }

    let world = World {
        log: NetLog::new(),
        completions: Vec::new(),
        peak: 0,
        oracle_probes: 0,
    };
    let mut sim = Sim::new(topo, world);

    // Deterministic workload: arrivals staggered over 20 s, sizes chosen
    // so every flow outlives the arrival window — the whole population is
    // concurrently active.
    let mut rng = StdRng::seed_from_u64(seed);
    for i in 0..n {
        let region = i % regions;
        let src = servers[region];
        let dst = clients[region][rng.gen_range(0usize..CLIENTS_PER_REGION)];
        let at = SimTime::ZERO + SimDuration::from_millis(rng.gen_range(0u64..20_000));
        let size = 150e6 + rng.gen_range(0u64..400_000_000) as f64;
        sim.schedule_at(at, move |s| {
            let now = s.net.now();
            s.world.log.push(
                LogEvent::new(now, "flow.start")
                    .field("flow", i)
                    .field("bytes", size),
            );
            s.start_flow(
                FlowSpec::new(src, dst, size).window(2e6).memory_to_memory(),
                move |s2| {
                    let now = s2.now();
                    s2.world.completions.push((i, now));
                    s2.world.log.push(
                        LogEvent::new(now, "flow.complete")
                            .field("flow", i)
                            .field("bytes", size),
                    );
                },
            )
            .expect("regions are always routable");
            let active = s.net.active_flow_count();
            s.world.peak = s.world.peak.max(active);
        });
    }

    // Incremental-vs-oracle probes: at sim times 5, 10, 20, 40, … s the
    // live allocation (persistent index, dirty-set scoped solves) must
    // match a from-scratch oracle re-solve bit for bit. Probes are
    // trace-neutral: at probe time every prior event has already been
    // re-solved, so `snapshot_rates` performs no extra allocation work
    // and the ULM trace is byte-identical with probes on or off.
    for k in 0..oracle_probes {
        let at = SimTime::from_secs(5u64 << k.min(40));
        sim.schedule_at(at, move |s| {
            let live = s.net.snapshot_rates();
            let oracle = s.net.oracle_rates();
            assert_eq!(
                live.len(),
                oracle.len(),
                "oracle probe at {at}: running-flow sets differ"
            );
            for ((fl, rl), (fo, ro)) in live.iter().zip(&oracle) {
                assert_eq!(fl, fo, "oracle probe at {at}: flow order diverged");
                assert_eq!(
                    rl.to_bits(),
                    ro.to_bits(),
                    "oracle probe at {at}: flow {fl:?} incremental {rl} vs oracle {ro}"
                );
            }
            s.world.oracle_probes += 1;
        });
    }

    let wall = std::time::Instant::now();
    sim.run_until(SimTime::from_secs(100_000));
    let wall = wall.elapsed();

    let world = &sim.world;
    assert_eq!(
        world.completions.len(),
        n,
        "not every flow completed before the horizon"
    );
    RunResult {
        wall,
        stats: sim.net.alloc_stats(),
        completions: world.completions.clone(),
        trace_ulm: world.log.to_ulm(),
        peak_concurrent: world.peak,
        peak_rss_kb: peak_rss_kb(),
        oracle_probes_run: world.oracle_probes,
    }
}

/// One point of the A14 scaling curve: the seeded workload with in-run
/// oracle probes, best-of-`repeats` wall clock. The simulation is
/// deterministic, so repeats only tighten the timing (min filters
/// scheduler/frequency noise); that determinism is re-asserted on every
/// repeat for free.
pub fn run_curve_point(
    n: usize,
    regions: usize,
    seed: u64,
    oracle_probes: usize,
    repeats: usize,
) -> RunResult {
    let mut best = run_flows(n, regions, seed, oracle_probes);
    for _ in 1..repeats {
        let r = run_flows(n, regions, seed, oracle_probes);
        assert_eq!(r.completions, best.completions, "repeat run diverged");
        assert_eq!(r.trace_ulm, best.trace_ulm, "repeat run trace diverged");
        if r.wall < best.wall {
            best = r;
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn curve_point_runs_its_probes() {
        let p = run_curve_point(32, 4, 11, 4, 2);
        // All probes executed (they panic internally on divergence).
        assert_eq!(p.oracle_probes_run, 4);
        assert_eq!(p.completions.len(), 32);
    }

    #[test]
    fn oracle_probes_are_trace_neutral() {
        // The committed goldens run without probes; the curve runs with
        // them. Both must see the exact same simulation.
        let quiet = run_flows(24, 3, 5, 0);
        let probed = run_flows(24, 3, 5, 6);
        assert_eq!(probed.oracle_probes_run, 6);
        assert_eq!(quiet.completions, probed.completions);
        assert_eq!(quiet.trace_ulm, probed.trace_ulm);
    }
}
