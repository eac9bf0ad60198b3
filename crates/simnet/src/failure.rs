//! Fault injection for wide-area experiments.
//!
//! Figure 8 of the paper shows a 14-hour run punctuated by real incidents —
//! "a power failure for the SC network (SCiNet), DNS problems, and backbone
//! problems on the exhibition floor". This module schedules equivalent
//! synthetic faults on the virtual clock:
//!
//! * **Power failure** — a node (or every link at a site) goes down; existing
//!   transfers stall, new connections fail.
//! * **Backbone problem** — a link's capacity is degraded for a while.
//! * **DNS problem** — the control plane is unavailable: *new* connection
//!   setups fail while established flows keep moving. Modeled as a flag on
//!   [`crate::flownet::FlowNet`] that connection-establishing protocols
//!   check.

use crate::kernel::Sim;
use crate::network::{LinkId, NodeId};
use crate::time::{SimDuration, SimTime};
use std::collections::HashMap;

/// Bookkeeping that lets injected faults overlap without clobbering each
/// other: a link held down by two faults stays down until *both* end, and
/// overlapping degrades compose multiplicatively and restore the true
/// base capacity once the last one lifts.
#[derive(Debug, Default, Clone)]
pub struct FaultLedger {
    link_down: HashMap<LinkId, u32>,
    node_down: HashMap<NodeId, u32>,
    ns_down: u32,
    /// Per link: capacity before the first active degrade, and the
    /// multiset of active degrade fractions.
    degrade: HashMap<LinkId, (f64, Vec<f64>)>,
    /// Per node: depth of active wire-corruption faults, and when the
    /// current corruption episode (depth 0 → 1) began.
    wire_corrupt: HashMap<NodeId, (u32, SimTime)>,
    /// Closed wire-corruption episodes, `(node, start, end)`, kept so
    /// data-integrity checks can ask "was this sender corrupting during
    /// that transfer?" after the fault has lifted.
    wire_history: Vec<(NodeId, SimTime, SimTime)>,
}

/// What a fault affects.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultKind {
    /// Take a link fully down (fiber cut, switch power loss).
    LinkDown(LinkId),
    /// Take a node down (host/router power failure).
    NodeDown(NodeId),
    /// Degrade a link to the given fraction of its capacity (congestion or
    /// a flapping backbone).
    LinkDegrade(LinkId, f64),
    /// Name service outage: new connections cannot be established, existing
    /// flows continue.
    NameServiceDown,
    /// Silent data corruption on the wire: EBLOCK payloads *served by* this
    /// node may arrive bit-flipped while the fault is active. Flows keep
    /// moving at full rate — only checksums can tell.
    WireCorrupt(NodeId),
}

/// A fault with a start time and duration.
#[derive(Debug, Clone, Copy)]
pub struct Fault {
    pub at: SimTime,
    pub duration: SimDuration,
    pub kind: FaultKind,
}

impl Fault {
    pub fn new(at: SimTime, duration: SimDuration, kind: FaultKind) -> Self {
        Fault { at, duration, kind }
    }

    pub fn end(&self) -> SimTime {
        self.at + self.duration
    }
}

/// Schedule a fault (onset and recovery) on the simulator. Faults of the
/// same kind on the same target may overlap freely: the ledger keeps the
/// target faulted until every covering fault has ended.
pub fn inject<W: 'static>(sim: &mut Sim<W>, fault: Fault) {
    match fault.kind {
        FaultKind::LinkDown(l) => {
            sim.schedule_at(fault.at, move |s| s.fault_link_down(l));
            sim.schedule_at(fault.end(), move |s| s.fault_link_restore(l));
        }
        FaultKind::NodeDown(n) => {
            sim.schedule_at(fault.at, move |s| s.fault_node_down(n));
            sim.schedule_at(fault.end(), move |s| s.fault_node_restore(n));
        }
        FaultKind::LinkDegrade(l, frac) => {
            sim.schedule_at(fault.at, move |s| s.fault_link_degrade(l, frac));
            sim.schedule_at(fault.end(), move |s| s.fault_link_undegrade(l, frac));
        }
        FaultKind::NameServiceDown => {
            sim.schedule_at(fault.at, |s| s.fault_name_service_down());
            sim.schedule_at(fault.end(), |s| s.fault_name_service_restore());
        }
        FaultKind::WireCorrupt(n) => {
            sim.schedule_at(fault.at, move |s| s.fault_wire_corrupt_start(n));
            sim.schedule_at(fault.end(), move |s| s.fault_wire_corrupt_end(n));
        }
    }
}

impl<W> Sim<W> {
    fn fault_link_down(&mut self, l: LinkId) {
        let d = self.net.fault_ledger.link_down.entry(l).or_default();
        *d += 1;
        if *d == 1 {
            self.net.set_link_up(l, false);
        }
    }

    fn fault_link_restore(&mut self, l: LinkId) {
        if let Some(d) = self.net.fault_ledger.link_down.get_mut(&l) {
            *d -= 1;
            if *d == 0 {
                self.net.fault_ledger.link_down.remove(&l);
                self.net.set_link_up(l, true);
            }
        }
    }

    fn fault_node_down(&mut self, n: NodeId) {
        let d = self.net.fault_ledger.node_down.entry(n).or_default();
        *d += 1;
        if *d == 1 {
            self.net.set_node_up(n, false);
        }
    }

    fn fault_node_restore(&mut self, n: NodeId) {
        if let Some(d) = self.net.fault_ledger.node_down.get_mut(&n) {
            *d -= 1;
            if *d == 0 {
                self.net.fault_ledger.node_down.remove(&n);
                self.net.set_node_up(n, true);
            }
        }
    }

    fn fault_link_degrade(&mut self, l: LinkId, frac: f64) {
        let cap = self.net.topo.link(l).capacity;
        let entry = self
            .net
            .fault_ledger
            .degrade
            .entry(l)
            .or_insert_with(|| (cap, Vec::new()));
        entry.1.push(frac);
        let target = entry.0 * entry.1.iter().product::<f64>();
        self.net.set_link_capacity(l, target);
    }

    fn fault_link_undegrade(&mut self, l: LinkId, frac: f64) {
        let Some(entry) = self.net.fault_ledger.degrade.get_mut(&l) else {
            return;
        };
        if let Some(pos) = entry.1.iter().position(|&f| f == frac) {
            entry.1.remove(pos);
        }
        let target = entry.0 * entry.1.iter().product::<f64>();
        let done = entry.1.is_empty();
        if done {
            self.net.fault_ledger.degrade.remove(&l);
        }
        self.net.set_link_capacity(l, target);
    }

    fn fault_name_service_down(&mut self) {
        self.net.fault_ledger.ns_down += 1;
        if self.net.fault_ledger.ns_down == 1 {
            self.net_set_name_service(false);
        }
    }

    fn fault_name_service_restore(&mut self) {
        if self.net.fault_ledger.ns_down > 0 {
            self.net.fault_ledger.ns_down -= 1;
            if self.net.fault_ledger.ns_down == 0 {
                self.net_set_name_service(true);
            }
        }
    }

    fn fault_wire_corrupt_start(&mut self, n: NodeId) {
        let now = self.now();
        let entry = self
            .net
            .fault_ledger
            .wire_corrupt
            .entry(n)
            .or_insert((0, now));
        if entry.0 == 0 {
            entry.1 = now;
        }
        entry.0 += 1;
    }

    fn fault_wire_corrupt_end(&mut self, n: NodeId) {
        let now = self.now();
        if let Some(entry) = self.net.fault_ledger.wire_corrupt.get_mut(&n) {
            entry.0 -= 1;
            if entry.0 == 0 {
                let started = entry.1;
                self.net.fault_ledger.wire_corrupt.remove(&n);
                self.net.fault_ledger.wire_history.push((n, started, now));
            }
        }
    }

    /// Whether a wire-corruption episode at `n` overlapped the closed
    /// interval `[from, to]` — the question an integrity verifier asks
    /// about a transfer that served data during that window.
    pub fn wire_corrupt_during(&self, n: NodeId, from: SimTime, to: SimTime) -> bool {
        if let Some(&(depth, started)) = self.net.fault_ledger.wire_corrupt.get(&n) {
            if depth > 0 && started <= to {
                return true;
            }
        }
        self.net
            .fault_ledger
            .wire_history
            .iter()
            .any(|&(node, s, e)| node == n && s <= to && e >= from)
    }
}

/// Schedule a whole plan of faults.
pub fn inject_all<W: 'static>(sim: &mut Sim<W>, faults: &[Fault]) {
    for &f in faults {
        inject(sim, f);
    }
}

// Name-service availability rides on the kernel so that the fault injector
// doesn't need to know about the world type.
impl<W> Sim<W> {
    pub fn net_set_name_service(&mut self, up: bool) {
        self.net.name_service_up = up;
    }

    /// Whether new connections can currently be established (DNS reachable).
    pub fn name_service_up(&self) -> bool {
        self.net.name_service_up
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flownet::{FlowSpec, FlowState};
    use crate::network::{Node, Topology};

    impl<W> Sim<W> {
        /// Whether blocks served by `n` are being corrupted right now.
        fn wire_corrupt_active(&self, n: NodeId) -> bool {
            self.net
                .fault_ledger
                .wire_corrupt
                .get(&n)
                .is_some_and(|&(depth, _)| depth > 0)
        }
    }

    fn two_hosts() -> (Topology, NodeId, NodeId, LinkId) {
        let mut t = Topology::new();
        let a = t.add_node(Node::host("a"));
        let b = t.add_node(Node::host("b"));
        let l = t.add_link(a, b, 100e6, SimDuration::ZERO);
        (t, a, b, l)
    }

    #[test]
    fn link_outage_stalls_then_recovers() {
        let (t, a, b, l) = two_hosts();
        let mut sim: Sim<()> = Sim::new(t, ());
        let id = sim
            .start_flow_detached(
                FlowSpec::new(a, b, f64::INFINITY)
                    .window(1e12)
                    .memory_to_memory(),
            )
            .unwrap();
        inject(
            &mut sim,
            Fault::new(
                SimTime::from_secs(1),
                SimDuration::from_secs(2),
                FaultKind::LinkDown(l),
            ),
        );
        sim.run_until(SimTime::from_secs(2));
        assert_eq!(sim.net.flow_state(id), Some(FlowState::Stalled));
        sim.run_until(SimTime::from_secs(4));
        assert_eq!(sim.net.flow_state(id), Some(FlowState::Running));
    }

    #[test]
    fn degrade_reduces_then_restores_capacity() {
        let (t, _, _, l) = two_hosts();
        let mut sim: Sim<()> = Sim::new(t, ());
        inject(
            &mut sim,
            Fault::new(
                SimTime::from_secs(1),
                SimDuration::from_secs(1),
                FaultKind::LinkDegrade(l, 0.25),
            ),
        );
        sim.run_until(SimTime::from_secs_f64(1.5));
        assert!((sim.net.topo.link(l).capacity - 25e6).abs() < 1.0);
        sim.run_until(SimTime::from_secs(3));
        assert!((sim.net.topo.link(l).capacity - 100e6).abs() < 1.0);
    }

    #[test]
    fn node_outage_round_trip() {
        let (t, a, b, _) = two_hosts();
        let mut sim: Sim<()> = Sim::new(t, ());
        let id = sim
            .start_flow_detached(
                FlowSpec::new(a, b, f64::INFINITY)
                    .window(1e12)
                    .memory_to_memory(),
            )
            .unwrap();
        inject(
            &mut sim,
            Fault::new(
                SimTime::from_secs(1),
                SimDuration::from_secs(1),
                FaultKind::NodeDown(b),
            ),
        );
        sim.run_until(SimTime::from_secs_f64(1.5));
        assert_eq!(sim.net.flow_state(id), Some(FlowState::Stalled));
        sim.run_until(SimTime::from_secs(3));
        assert_eq!(sim.net.flow_state(id), Some(FlowState::Running));
    }

    #[test]
    fn flow_stalled_across_ramp_boundary_resumes_after_node_outage() {
        // Regression: a slow-starting flow that stalled across one of its
        // ramp boundaries (source node down mid-ramp) used to wedge the
        // kernel on recovery — the frozen boundary lay in the past,
        // `next_event_time` kept returning it, and virtual time never
        // advanced again. Resumed flows now re-enter slow start.
        let mut t = Topology::new();
        let a = t.add_node(Node::host("a"));
        let b = t.add_node(Node::host("b"));
        t.add_link(a, b, 100e6, SimDuration::from_millis(50));
        let mut sim: Sim<bool> = Sim::new(t, false);
        sim.start_flow(
            FlowSpec::new(a, b, 50e6).window(1e12).memory_to_memory(),
            |s| s.world = true,
        )
        .unwrap();
        inject(
            &mut sim,
            Fault::new(
                SimTime::from_secs_f64(0.15),
                SimDuration::from_secs(1),
                FaultKind::NodeDown(a),
            ),
        );
        sim.run_until(SimTime::from_secs(60));
        assert!(sim.world, "flow must complete after the outage heals");
    }

    #[test]
    fn name_service_outage_sets_flag() {
        let (t, ..) = two_hosts();
        let mut sim: Sim<()> = Sim::new(t, ());
        assert!(sim.name_service_up());
        inject(
            &mut sim,
            Fault::new(
                SimTime::from_secs(1),
                SimDuration::from_secs(1),
                FaultKind::NameServiceDown,
            ),
        );
        sim.run_until(SimTime::from_secs_f64(1.5));
        assert!(!sim.name_service_up());
        sim.run_until(SimTime::from_secs(3));
        assert!(sim.name_service_up());
    }

    #[test]
    fn overlapping_link_faults_hold_link_down_until_last_ends() {
        let (t, a, b, l) = two_hosts();
        let mut sim: Sim<()> = Sim::new(t, ());
        let id = sim
            .start_flow_detached(
                FlowSpec::new(a, b, f64::INFINITY)
                    .window(1e12)
                    .memory_to_memory(),
            )
            .unwrap();
        // First fault [1, 3) ends while the second [2, 6) is still active:
        // the earlier recovery must not resurrect the link.
        inject_all(
            &mut sim,
            &[
                Fault::new(
                    SimTime::from_secs(1),
                    SimDuration::from_secs(2),
                    FaultKind::LinkDown(l),
                ),
                Fault::new(
                    SimTime::from_secs(2),
                    SimDuration::from_secs(4),
                    FaultKind::LinkDown(l),
                ),
            ],
        );
        sim.run_until(SimTime::from_secs(4));
        assert_eq!(
            sim.net.flow_state(id),
            Some(FlowState::Stalled),
            "link must stay down after the first fault's recovery"
        );
        sim.run_until(SimTime::from_secs(7));
        assert_eq!(sim.net.flow_state(id), Some(FlowState::Running));
    }

    #[test]
    fn overlapping_node_faults_hold_node_down_until_last_ends() {
        let (t, a, b, _) = two_hosts();
        let mut sim: Sim<()> = Sim::new(t, ());
        let id = sim
            .start_flow_detached(
                FlowSpec::new(a, b, f64::INFINITY)
                    .window(1e12)
                    .memory_to_memory(),
            )
            .unwrap();
        inject_all(
            &mut sim,
            &[
                Fault::new(
                    SimTime::from_secs(1),
                    SimDuration::from_secs(2),
                    FaultKind::NodeDown(b),
                ),
                Fault::new(
                    SimTime::from_secs(2),
                    SimDuration::from_secs(4),
                    FaultKind::NodeDown(b),
                ),
            ],
        );
        sim.run_until(SimTime::from_secs(4));
        assert_eq!(sim.net.flow_state(id), Some(FlowState::Stalled));
        sim.run_until(SimTime::from_secs(7));
        assert_eq!(sim.net.flow_state(id), Some(FlowState::Running));
    }

    #[test]
    fn overlapping_degrades_compose_and_restore_base_capacity() {
        let (t, _, _, l) = two_hosts();
        let mut sim: Sim<()> = Sim::new(t, ());
        // A halves capacity on [1, 4); B halves it again on [2, 3).
        inject_all(
            &mut sim,
            &[
                Fault::new(
                    SimTime::from_secs(1),
                    SimDuration::from_secs(3),
                    FaultKind::LinkDegrade(l, 0.5),
                ),
                Fault::new(
                    SimTime::from_secs(2),
                    SimDuration::from_secs(1),
                    FaultKind::LinkDegrade(l, 0.5),
                ),
            ],
        );
        sim.run_until(SimTime::from_secs_f64(1.5));
        assert!((sim.net.topo.link(l).capacity - 50e6).abs() < 1.0);
        sim.run_until(SimTime::from_secs_f64(2.5));
        assert!(
            (sim.net.topo.link(l).capacity - 25e6).abs() < 1.0,
            "overlapping degrades must compose"
        );
        sim.run_until(SimTime::from_secs_f64(3.5));
        assert!(
            (sim.net.topo.link(l).capacity - 50e6).abs() < 1.0,
            "inner recovery must leave the outer degrade in force"
        );
        sim.run_until(SimTime::from_secs(5));
        assert!(
            (sim.net.topo.link(l).capacity - 100e6).abs() < 1.0,
            "base capacity must come back exactly"
        );
    }

    #[test]
    fn overlapping_name_service_faults_stay_down_until_last_ends() {
        let (t, ..) = two_hosts();
        let mut sim: Sim<()> = Sim::new(t, ());
        inject_all(
            &mut sim,
            &[
                Fault::new(
                    SimTime::from_secs(1),
                    SimDuration::from_secs(2),
                    FaultKind::NameServiceDown,
                ),
                Fault::new(
                    SimTime::from_secs(2),
                    SimDuration::from_secs(3),
                    FaultKind::NameServiceDown,
                ),
            ],
        );
        sim.run_until(SimTime::from_secs(4));
        assert!(!sim.name_service_up(), "second outage still in force");
        sim.run_until(SimTime::from_secs(6));
        assert!(sim.name_service_up());
    }

    #[test]
    fn name_service_outage_drains_established_flows() {
        let (t, a, b, _) = two_hosts();
        let mut sim: Sim<()> = Sim::new(t, ());
        // A finite flow established before the outage must keep moving and
        // finish during it; only *new* connections are refused (callers
        // check `name_service_up` before opening channels).
        let id = sim
            .start_flow_detached(FlowSpec::new(a, b, 10e6).window(1e12).memory_to_memory())
            .unwrap();
        inject(
            &mut sim,
            Fault::new(
                SimTime::from_secs(1),
                SimDuration::from_secs(30),
                FaultKind::NameServiceDown,
            ),
        );
        sim.run_until(SimTime::from_secs(10));
        assert!(!sim.name_service_up());
        // Completed flows are retired from the allocator, so a drained
        // flow no longer has a state.
        assert_eq!(
            sim.net.flow_state(id),
            None,
            "established flow must drain to completion during the outage"
        );
        assert_eq!(sim.net.active_flow_count(), 0);
    }

    #[test]
    fn inject_all_schedules_everything() {
        let (t, _, _, l) = two_hosts();
        let mut sim: Sim<()> = Sim::new(t, ());
        inject_all(
            &mut sim,
            &[
                Fault::new(
                    SimTime::from_secs(1),
                    SimDuration::from_secs(1),
                    FaultKind::LinkDown(l),
                ),
                Fault::new(
                    SimTime::from_secs(5),
                    SimDuration::from_secs(1),
                    FaultKind::NameServiceDown,
                ),
            ],
        );
        assert_eq!(sim.pending_events(), 4);
    }

    #[test]
    fn wire_corruption_tracks_active_window_and_history() {
        let (t, a, ..) = two_hosts();
        let mut sim: Sim<()> = Sim::new(t, ());
        inject(
            &mut sim,
            Fault::new(
                SimTime::from_secs(2),
                SimDuration::from_secs(3),
                FaultKind::WireCorrupt(a),
            ),
        );
        sim.run_until(SimTime::from_secs(1));
        assert!(!sim.wire_corrupt_active(a));
        sim.run_until(SimTime::from_secs(3));
        assert!(sim.wire_corrupt_active(a));
        sim.run_until(SimTime::from_secs(10));
        assert!(!sim.wire_corrupt_active(a));
        // History answers overlap queries after the episode closed.
        assert!(sim.wire_corrupt_during(a, SimTime::from_secs(4), SimTime::from_secs(6)));
        assert!(sim.wire_corrupt_during(a, SimTime::from_secs(1), SimTime::from_secs(2)));
        assert!(!sim.wire_corrupt_during(a, SimTime::from_secs(6), SimTime::from_secs(8)));
        assert!(!sim.wire_corrupt_during(a, SimTime::ZERO, SimTime::from_secs(1)));
    }

    #[test]
    fn overlapping_wire_corruption_merges_into_one_episode() {
        let (t, _, b, _) = two_hosts();
        let mut sim: Sim<()> = Sim::new(t, ());
        inject_all(
            &mut sim,
            &[
                Fault::new(
                    SimTime::from_secs(1),
                    SimDuration::from_secs(2),
                    FaultKind::WireCorrupt(b),
                ),
                Fault::new(
                    SimTime::from_secs(2),
                    SimDuration::from_secs(3),
                    FaultKind::WireCorrupt(b),
                ),
            ],
        );
        sim.run_until(SimTime::from_secs(4));
        assert!(
            sim.wire_corrupt_active(b),
            "first recovery must not end the merged episode"
        );
        sim.run_until(SimTime::from_secs(6));
        assert!(!sim.wire_corrupt_active(b));
        // The merged episode spans [1, 5]; a probe inside the first
        // fault's tail still hits it.
        assert!(sim.wire_corrupt_during(b, SimTime::from_secs_f64(4.5), SimTime::from_secs(5)));
    }
}
