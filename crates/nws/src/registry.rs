//! The NWS measurement registry and simulator-driven sensors.
//!
//! The request manager "consults the NWS to determine the current transfer
//! and latency from the site where the file resides to the local site"
//! (§4). [`NwsRegistry`] holds per-path measurement histories and adaptive
//! forecasts; [`start_sensor`] schedules the periodic probe loop on the
//! simulator (a small memory-to-memory transfer, timed end to end, exactly
//! like NWS's network sensor).

use crate::forecast::{AdaptiveForecaster, Forecaster};
use esg_simnet::{FlowSpec, NodeId, Sim, SimDuration, SimTime};
use std::collections::HashMap;

/// Measurements and forecasts for one directed path.
#[derive(Default)]
pub struct PathStats {
    bandwidth: AdaptiveForecaster,
    latency: AdaptiveForecaster,
    history: Vec<(SimTime, f64)>,
}

/// The measurement store the MDS publishes and the RM queries.
#[derive(Default)]
pub struct NwsRegistry {
    paths: HashMap<(NodeId, NodeId), PathStats>,
}

impl NwsRegistry {
    pub fn new() -> Self {
        NwsRegistry::default()
    }

    /// Record a bandwidth measurement (bytes/sec) for src→dst at `t`.
    pub fn observe_bandwidth(&mut self, src: NodeId, dst: NodeId, t: SimTime, rate: f64) {
        let stats = self.paths.entry((src, dst)).or_default();
        stats.bandwidth.observe(rate);
        stats.history.push((t, rate));
    }

    /// Record a latency measurement (seconds) for src→dst.
    pub fn observe_latency(&mut self, src: NodeId, dst: NodeId, seconds: f64) {
        self.paths
            .entry((src, dst))
            .or_default()
            .latency
            .observe(seconds);
    }

    /// Forecast bandwidth (bytes/sec) for src→dst.
    pub fn forecast_bandwidth(&self, src: NodeId, dst: NodeId) -> Option<f64> {
        self.paths.get(&(src, dst))?.bandwidth.predict()
    }

    /// Forecast latency (seconds) for src→dst.
    pub fn forecast_latency(&self, src: NodeId, dst: NodeId) -> Option<f64> {
        self.paths.get(&(src, dst))?.latency.predict()
    }

    /// Raw bandwidth measurement history for a path.
    pub fn history(&self, src: NodeId, dst: NodeId) -> &[(SimTime, f64)] {
        self.paths
            .get(&(src, dst))
            .map_or(&[], |s| s.history.as_slice())
    }
}

/// World-access trait so sensors can run inside any simulation world.
pub trait HasNws {
    fn nws(&mut self) -> &mut NwsRegistry;
}

/// Default probe size: NWS's network sensor moves a small fixed payload.
pub const DEFAULT_PROBE_BYTES: f64 = 512.0 * 1024.0;

/// Schedule a periodic bandwidth+latency sensor for src→dst.
///
/// Each period: record the path RTT (latency sensor), then time a
/// `probe_bytes` memory-to-memory transfer (bandwidth sensor). The probe
/// shares the network with real traffic, so measurements see contention —
/// which is the point of NWS.
pub fn start_sensor<W: HasNws + 'static>(
    sim: &mut Sim<W>,
    src: NodeId,
    dst: NodeId,
    period: SimDuration,
    probe_bytes: f64,
) {
    schedule_probe(sim, src, dst, period, probe_bytes, SimDuration::ZERO);
}

/// One probe, `delay` from now. The next probe is armed from the probe
/// flow's completion (or at once if the flow cannot start), not at a fixed
/// period after this one, so the loop stays hand-rolled instead of a
/// [`Sim::every`] tick: its spacing is `period` plus the probe's transfer
/// time.
fn schedule_probe<W: HasNws + 'static>(
    sim: &mut Sim<W>,
    src: NodeId,
    dst: NodeId,
    period: SimDuration,
    probe_bytes: f64,
    delay: SimDuration,
) {
    sim.schedule(delay, move |s| {
        // Latency sensor: ICMP-like, instantaneous read of path RTT.
        if let Some(rtt) = s.net.path_rtt(src, dst) {
            s.world.nws().observe_latency(src, dst, rtt.as_secs_f64());
        }
        // Bandwidth sensor: timed probe transfer.
        let started = s.now();
        let spec = FlowSpec::new(src, dst, probe_bytes).memory_to_memory();
        match s.start_flow(spec, move |s2| {
            let now = s2.now();
            let elapsed = now.since(started).as_secs_f64();
            if elapsed > 0.0 {
                s2.world
                    .nws()
                    .observe_bandwidth(src, dst, now, probe_bytes / elapsed);
            }
            schedule_probe(s2, src, dst, period, probe_bytes, period);
        }) {
            Ok(_) => {}
            Err(_) => {
                // Path down: record zero bandwidth and keep probing.
                let now = s.now();
                s.world.nws().observe_bandwidth(src, dst, now, 0.0);
                schedule_probe(s, src, dst, period, probe_bytes, period);
            }
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use esg_simnet::{Node, Topology};

    struct World {
        nws: NwsRegistry,
    }

    impl HasNws for World {
        fn nws(&mut self) -> &mut NwsRegistry {
            &mut self.nws
        }
    }

    fn sim(cap: f64, latency_ms: u64) -> (Sim<World>, NodeId, NodeId) {
        let mut topo = Topology::new();
        let a = topo.add_node(Node::host("a"));
        let b = topo.add_node(Node::host("b"));
        topo.add_link(a, b, cap, SimDuration::from_millis(latency_ms));
        (
            Sim::new(
                topo,
                World {
                    nws: NwsRegistry::new(),
                },
            ),
            a,
            b,
        )
    }

    #[test]
    fn registry_forecasts_after_observations() {
        let mut r = NwsRegistry::new();
        let (a, b) = (NodeId(0), NodeId(1));
        assert_eq!(r.forecast_bandwidth(a, b), None);
        for i in 0..10 {
            r.observe_bandwidth(a, b, SimTime::from_secs(i), 50e6);
        }
        let f = r.forecast_bandwidth(a, b).unwrap();
        assert!((f - 50e6).abs() < 1.0);
        assert_eq!(r.history(a, b).len(), 10);
    }

    #[test]
    fn directional_paths_are_independent() {
        let mut r = NwsRegistry::new();
        let (a, b) = (NodeId(0), NodeId(1));
        r.observe_bandwidth(a, b, SimTime::ZERO, 10e6);
        assert!(r.forecast_bandwidth(b, a).is_none());
    }

    #[test]
    fn sensor_measures_real_path() {
        let (mut sim, a, b) = sim(100e6, 5);
        start_sensor(
            &mut sim,
            a,
            b,
            SimDuration::from_secs(30),
            DEFAULT_PROBE_BYTES,
        );
        sim.run_until(SimTime::from_secs(300));
        let bw = sim.world.nws.forecast_bandwidth(a, b).unwrap();
        // Small probes pay slow start, so they underestimate the 100 MB/s
        // path — but should land within an order of magnitude.
        assert!(bw > 5e6 && bw <= 100.1e6, "bw estimate {bw}");
        let lat = sim.world.nws.forecast_latency(a, b).unwrap();
        assert!((lat - 0.010).abs() < 1e-6, "latency {lat}");
        assert!(sim.world.nws.history(a, b).len() >= 9);
    }

    #[test]
    fn sensor_tracks_contention() {
        let (mut sim, a, b) = sim(100e6, 0);
        start_sensor(
            &mut sim,
            a,
            b,
            SimDuration::from_secs(10),
            DEFAULT_PROBE_BYTES,
        );
        // Quiet period.
        sim.run_until(SimTime::from_secs(100));
        let quiet = sim.world.nws.forecast_bandwidth(a, b).unwrap();
        // Start a fat background flow consuming most of the link.
        sim.start_flow_detached(
            FlowSpec::new(a, b, f64::INFINITY)
                .window(1e12)
                .memory_to_memory(),
        )
        .unwrap();
        sim.run_until(SimTime::from_secs(1000));
        let busy = sim.world.nws.forecast_bandwidth(a, b).unwrap();
        assert!(
            busy < quiet * 0.8,
            "probe should see contention: quiet {quiet} busy {busy}"
        );
    }

    #[test]
    fn sensor_survives_outage() {
        let (mut sim, a, b) = sim(100e6, 0);
        start_sensor(
            &mut sim,
            a,
            b,
            SimDuration::from_secs(10),
            DEFAULT_PROBE_BYTES,
        );
        sim.run_until(SimTime::from_secs(35));
        let before = sim.world.nws.history(a, b).len();
        sim.schedule(SimDuration::ZERO, |s| {
            s.net.set_link_up(esg_simnet::LinkId(0), false)
        });
        sim.run_until(SimTime::from_secs(100));
        // Probes during the outage record 0 (failed starts) or stall.
        sim.schedule(SimDuration::ZERO, |s| {
            s.net.set_link_up(esg_simnet::LinkId(0), true)
        });
        sim.run_until(SimTime::from_secs(200));
        let after = sim.world.nws.history(a, b).len();
        assert!(after > before, "sensor must keep measuring after recovery");
    }
}
