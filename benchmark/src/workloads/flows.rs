//! `flow_storm` and `flow_burst`: the kernel and the bandwidth allocator
//! with no request manager on top.
//!
//! Same topology as `esg_lab::scaling` (disjoint regions: one server
//! feeding four clients through a shared uplink) and the same flow
//! population, arriving two ways. The storm staggers arrivals, so every
//! recompute pass touches one small region; the burst quantises arrivals
//! to a few instants and gives each cohort one size, so starts and
//! completions coincide and a pass carries thousands of dirty flows — the
//! side of the allocator's worker-pool threshold nothing else reaches.

use super::{add_alloc, add_profile, profiled, Ctx, Laps, Rep};
use esg_lab::sha_hex;
use esg_netlogger::{LogEvent, NetLog};
use esg_simnet::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Instant;

const CLIENTS_PER_REGION: usize = 4;
const ARRIVAL_WINDOW_MS: u64 = 20_000;
const BURST_INSTANTS: u64 = 16;

#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Arrivals {
    Storm,
    Burst,
}

/// `(flows, regions)`.
pub fn sizes(quick: bool) -> (usize, usize) {
    if quick {
        (4_000, 128)
    } else {
        (16_000, 512)
    }
}

/// One flow of the population: `(arrival ms, region, client, bytes)`.
pub type PlannedFlow = (u64, usize, usize, f64);

/// The flow population, a pure function of the seed.
pub fn plan(seed: u64, arrivals: Arrivals, n: usize, regions: usize) -> Vec<PlannedFlow> {
    let mut rng = StdRng::seed_from_u64(seed);
    // One size per burst cohort, so its flows also finish together.
    let cohort_bytes: Vec<f64> = (0..BURST_INSTANTS)
        .map(|_| 150e6 + rng.gen_range(0u64..400_000_000) as f64)
        .collect();
    (0..n)
        .map(|i| {
            let client = rng.gen_range(0usize..CLIENTS_PER_REGION);
            let at = rng.gen_range(0u64..ARRIVAL_WINDOW_MS);
            let bytes = 150e6 + rng.gen_range(0u64..400_000_000) as f64;
            match arrivals {
                Arrivals::Storm => (at, i % regions, client, bytes),
                Arrivals::Burst => {
                    let cohort = at * BURST_INSTANTS / ARRIVAL_WINDOW_MS;
                    (
                        cohort * ARRIVAL_WINDOW_MS / BURST_INSTANTS,
                        i % regions,
                        client,
                        cohort_bytes[cohort as usize],
                    )
                }
            }
        })
        .collect()
}

#[derive(Default)]
struct World {
    log: NetLog,
    completions: Vec<(usize, SimTime)>,
}

pub fn rep(ctx: &Ctx, arrivals: Arrivals) -> Rep {
    let (n, regions) = sizes(ctx.quick);
    let mut rep = Rep::default();

    let t = Instant::now();
    let mut topo = Topology::new();
    let mut servers = Vec::with_capacity(regions);
    let mut clients = Vec::with_capacity(regions);
    for r in 0..regions {
        let sv = topo.add_node(Node::host(format!("server{r}")));
        let rt = topo.add_node(Node::router(format!("router{r}")));
        topo.add_link(sv, rt, 125e6, SimDuration::from_millis(10));
        let cls: Vec<NodeId> = (0..CLIENTS_PER_REGION)
            .map(|c| {
                let cl = topo.add_node(Node::host(format!("client{r}.{c}")));
                topo.add_link(rt, cl, 77.75e6, SimDuration::from_millis(5));
                cl
            })
            .collect();
        servers.push(sv);
        clients.push(cls);
    }
    let mut sim: Sim<World> = Sim::new(topo, World::default());
    for (i, (at_ms, region, client, bytes)) in
        plan(ctx.seed, arrivals, n, regions).into_iter().enumerate()
    {
        let (src, dst) = (servers[region], clients[region][client]);
        let at = SimTime::ZERO + SimDuration::from_millis(at_ms);
        sim.schedule_at(at, move |s| {
            let now = s.now();
            s.world.log.push(
                LogEvent::new(now, "flow.start")
                    .field("flow", i)
                    .field("bytes", bytes),
            );
            s.start_flow(
                FlowSpec::new(src, dst, bytes)
                    .window(2e6)
                    .memory_to_memory(),
                move |s2| {
                    let now = s2.now();
                    s2.world.completions.push((i, now));
                    s2.world.log.push(
                        LogEvent::new(now, "flow.complete")
                            .field("flow", i)
                            .field("bytes", bytes),
                    );
                },
            )
            .expect("regions are always routable");
        });
    }
    rep.setup_s = t.elapsed().as_secs_f64();

    let report = profiled(ctx.traced, || {
        let mut laps = Laps::start();
        let mut until = 1;
        while sim.world.completions.len() < n && until < 100_000 {
            sim.run_until(SimTime::from_secs(until));
            laps.lap(&mut rep);
            until += 1;
        }
    });

    let mut seen = vec![false; n];
    for &(i, _) in &sim.world.completions {
        seen[i] = true;
    }
    for (i, done) in seen.iter().enumerate() {
        rep.check(*done, || format!("flow {i} never completed"));
    }
    rep.check(sim.world.completions.len() == n, || {
        format!("{} completions for {n} flows", sim.world.completions.len())
    });
    rep.files = seen.iter().filter(|d| **d).count() as u64;
    rep.set("files_total", rep.files as f64);
    let last = sim.world.completions.iter().map(|&(_, t)| t).max();
    rep.set("sim.makespan_s", last.map_or(0.0, |t| t.as_secs_f64()));
    rep.set("netlogger.trace.events", sim.world.log.len() as f64);
    rep.sim_digest = Some(sha_hex(&sim.world.log.to_ulm()));
    if let Some(report) = report {
        add_profile(&mut rep, report);
        add_alloc(&mut rep, &sim.net.alloc_stats());
    }
    rep
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_is_a_pure_function_of_the_seed() {
        for arrivals in [Arrivals::Storm, Arrivals::Burst] {
            assert_eq!(plan(17, arrivals, 500, 16), plan(17, arrivals, 500, 16));
            assert_ne!(plan(17, arrivals, 500, 16), plan(18, arrivals, 500, 16));
        }
    }

    #[test]
    fn burst_is_the_storm_population_quantised() {
        let storm = plan(17, Arrivals::Storm, 2000, 16);
        let burst = plan(17, Arrivals::Burst, 2000, 16);
        let mut instants: Vec<u64> = burst.iter().map(|f| f.0).collect();
        instants.sort_unstable();
        instants.dedup();
        assert_eq!(instants.len(), BURST_INSTANTS as usize);
        for (s, b) in storm.iter().zip(&burst) {
            // Same region and client; arrival rounded down to its instant.
            assert_eq!((s.1, s.2), (b.1, b.2));
            assert!(b.0 <= s.0 && s.0 - b.0 < ARRIVAL_WINDOW_MS / BURST_INSTANTS);
        }
        // One size per cohort.
        for w in burst.windows(2) {
            if w[0].0 == w[1].0 {
                assert_eq!(w[0].3, w[1].3);
            }
        }
    }
}
