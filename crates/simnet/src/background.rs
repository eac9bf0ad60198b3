//! Background (cross) traffic generation.
//!
//! The paper's testbeds were shared: SciNet carried the whole exhibition
//! floor, and the Figure 8 path crossed the commodity Internet. This
//! module generates on/off background flows — exponential-ish on/off
//! periods, seeded and deterministic — so experiments can include the
//! contention real measurements saw.

use crate::flownet::FlowSpec;
use crate::kernel::Sim;
use crate::network::NodeId;
use crate::time::{SimDuration, SimTime};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Configuration for one background traffic source.
#[derive(Debug, Clone, Copy)]
pub struct BackgroundTraffic {
    pub src: NodeId,
    pub dst: NodeId,
    /// Mean ON period (a burst's duration).
    pub mean_on: SimDuration,
    /// Mean OFF period between bursts.
    pub mean_off: SimDuration,
    /// Burst throughput ceiling, bytes/sec (the flow's window-derived cap;
    /// actual rate still subject to fair sharing).
    pub burst_rate: f64,
    /// RNG seed (each source should get its own).
    pub seed: u64,
    /// Stop generating at this time.
    pub until: SimTime,
}

/// Exponential sample via inverse CDF, kept deterministic per source.
fn exp_sample(rng: &mut StdRng, mean: SimDuration) -> SimDuration {
    let u: f64 = rng.gen_range(1e-9..1.0);
    SimDuration::from_secs_f64(-mean.as_secs_f64() * u.ln())
}

/// Start an on/off background source. Each ON period runs one unbounded
/// flow (capped by a window sized to `burst_rate` over the path RTT),
/// cancelled at the period's end. The source's RNG moves down the chain of
/// periods by value: each scheduled period owns it until it schedules the
/// next.
pub fn start_background<W: 'static>(sim: &mut Sim<W>, cfg: BackgroundTraffic) {
    schedule_off(sim, cfg, StdRng::seed_from_u64(cfg.seed));
}

/// One OFF period, then one ON period, then the next OFF period. Both
/// lengths are random draws, so the chain re-schedules itself rather than
/// being a fixed-period [`Sim::every`] tick.
fn schedule_off<W: 'static>(sim: &mut Sim<W>, cfg: BackgroundTraffic, mut rng: StdRng) {
    let off = exp_sample(&mut rng, cfg.mean_off);
    sim.schedule(off, move |s| {
        if s.now() >= cfg.until {
            return;
        }
        let on = exp_sample(&mut rng, cfg.mean_on);
        // Window that yields ~burst_rate on this path.
        let window = match s.net.path_rtt(cfg.src, cfg.dst) {
            Some(rtt) if !rtt.is_zero() => cfg.burst_rate * rtt.as_secs_f64(),
            _ => 1e12,
        };
        let spec = FlowSpec::new(cfg.src, cfg.dst, f64::INFINITY)
            .window(window.max(4096.0))
            .memory_to_memory();
        match s.start_flow_detached(spec) {
            Ok(flow) => {
                s.schedule(on, move |s2| {
                    s2.net.remove_flow(flow);
                    schedule_off(s2, cfg, rng);
                });
            }
            Err(_) => {
                // Path down: try again after another off period.
                schedule_off(s, cfg, rng);
            }
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network::{Node, Topology};

    fn setup() -> (Sim<()>, NodeId, NodeId) {
        let mut topo = Topology::new();
        let a = topo.add_node(Node::host("bg-src"));
        let b = topo.add_node(Node::host("bg-dst"));
        topo.add_link(a, b, 100e6, SimDuration::from_millis(10));
        (Sim::new(topo, ()), a, b)
    }

    fn cfg(a: NodeId, b: NodeId, seed: u64) -> BackgroundTraffic {
        BackgroundTraffic {
            src: a,
            dst: b,
            mean_on: SimDuration::from_secs(5),
            mean_off: SimDuration::from_secs(5),
            burst_rate: 50e6,
            seed,
            until: SimTime::from_secs(300),
        }
    }

    #[test]
    fn bursts_come_and_go() {
        let (mut sim, a, b) = setup();
        start_background(&mut sim, cfg(a, b, 1));
        let mut saw_on = false;
        let mut saw_off = false;
        for t in 1..250 {
            sim.run_until(SimTime::from_secs(t));
            match sim.net.active_flow_count() {
                0 => saw_off = true,
                _ => saw_on = true,
            }
        }
        assert!(saw_on, "background must burst");
        assert!(saw_off, "background must go quiet");
    }

    #[test]
    fn stops_at_deadline() {
        let (mut sim, a, b) = setup();
        start_background(&mut sim, cfg(a, b, 2));
        sim.run_until(SimTime::from_secs(400));
        sim.run();
        assert_eq!(sim.net.active_flow_count(), 0);
        assert!(
            sim.now() <= SimTime::from_secs(500),
            "generator must wind down"
        );
    }

    #[test]
    fn deterministic_per_seed() {
        let run = |seed: u64| -> Vec<usize> {
            let (mut sim, a, b) = setup();
            start_background(&mut sim, cfg(a, b, seed));
            (1..100)
                .map(|t| {
                    sim.run_until(SimTime::from_secs(t));
                    sim.net.active_flow_count()
                })
                .collect()
        };
        assert_eq!(run(7), run(7));
        assert_ne!(run(7), run(8));
    }

    #[test]
    fn contends_with_foreground_traffic() {
        let (mut sim, a, b) = setup();
        // Foreground unbounded flow; measure its rate with and without
        // background pressure.
        let fg = sim
            .start_flow_detached(
                FlowSpec::new(a, b, f64::INFINITY)
                    .window(1e12)
                    .memory_to_memory(),
            )
            .unwrap();
        sim.run_until(SimTime::from_secs(2));
        let alone = sim.net.flow_rate(fg);
        start_background(
            &mut sim,
            BackgroundTraffic {
                mean_off: SimDuration::from_secs(1),
                mean_on: SimDuration::from_secs(30),
                ..cfg(a, b, 3)
            },
        );
        // Find a moment when the burst is active. Sampling right at the
        // second boundary can catch the burst mid slow-start (cap still a
        // few MSS/RTT), so give it half a second to finish ramping first.
        let mut contended = alone;
        for t in 3..120 {
            sim.run_until(SimTime::from_secs(t));
            if sim.net.active_flow_count() > 1 {
                sim.run_until(sim.now() + SimDuration::from_millis(500));
                if sim.net.active_flow_count() > 1 {
                    contended = sim.net.flow_rate(fg);
                    break;
                }
            }
        }
        assert!(
            contended < alone * 0.8,
            "background must take a share: {alone} -> {contended}"
        );
    }
}
