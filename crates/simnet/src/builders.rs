//! Reusable topology builders for experiments and tests.

use crate::network::{CpuModel, LinkId, Node, NodeId, Topology};
use crate::time::SimDuration;

/// A simple dumbbell: `n` source hosts and `n` sink hosts joined by a single
/// bottleneck link between two routers.
///
/// ```text
/// src0 ─┐                      ┌─ dst0
/// src1 ─┼─ R1 ══ bottleneck ══ R2 ─┼─ dst1
/// ...  ─┘                      └─ ...
/// ```
pub struct Dumbbell {
    pub sources: Vec<NodeId>,
    pub sinks: Vec<NodeId>,
    pub left_router: NodeId,
    pub right_router: NodeId,
    pub bottleneck: LinkId,
}

/// Parameters for [`dumbbell`].
#[derive(Debug, Clone, Copy)]
pub struct DumbbellParams {
    pub hosts_per_side: usize,
    /// Bottleneck capacity, bytes/sec per direction.
    pub bottleneck_capacity: f64,
    /// One-way latency across the bottleneck.
    pub wan_latency: SimDuration,
    /// Access link capacity (host ↔ router), bytes/sec.
    pub access_capacity: f64,
    /// One-way access latency.
    pub access_latency: SimDuration,
    /// NIC rate at each host, bytes/sec.
    pub nic_rate: f64,
    /// Host CPU model.
    pub cpu: CpuModel,
    /// Disk read/write rates at hosts.
    pub disk_read: f64,
    pub disk_write: f64,
}

impl Default for DumbbellParams {
    fn default() -> Self {
        DumbbellParams {
            hosts_per_side: 1,
            bottleneck_capacity: 2.5e9 / 8.0, // OC-48-ish
            wan_latency: SimDuration::from_millis(8),
            access_capacity: 1e9 / 8.0 * 2.0, // dual-bonded GigE uplink
            access_latency: SimDuration::from_micros(100),
            nic_rate: 1e9 / 8.0, // GigE
            cpu: CpuModel::unlimited(),
            disk_read: f64::INFINITY,
            disk_write: f64::INFINITY,
        }
    }
}

/// Build a dumbbell topology.
pub fn dumbbell(topo: &mut Topology, p: DumbbellParams) -> Dumbbell {
    let r1 = topo.add_node(Node::router("r-left"));
    let r2 = topo.add_node(Node::router("r-right"));
    let bottleneck = topo.add_link(r1, r2, p.bottleneck_capacity, p.wan_latency);
    let mut sources = Vec::new();
    let mut sinks = Vec::new();
    for i in 0..p.hosts_per_side {
        let s = topo.add_node(
            Node::host(format!("src{i}"))
                .with_nic(p.nic_rate)
                .with_cpu(p.cpu)
                .with_disk(p.disk_read, p.disk_write),
        );
        topo.add_link(s, r1, p.access_capacity, p.access_latency);
        sources.push(s);
        let d = topo.add_node(
            Node::host(format!("dst{i}"))
                .with_nic(p.nic_rate)
                .with_cpu(p.cpu)
                .with_disk(p.disk_read, p.disk_write),
        );
        topo.add_link(r2, d, p.access_capacity, p.access_latency);
        sinks.push(d);
    }
    Dumbbell {
        sources,
        sinks,
        left_router: r1,
        right_router: r2,
        bottleneck,
    }
}

/// A star of `n` sites around a core router, each site with one storage host.
/// Returns (core, site hosts). Used for multi-site replica experiments.
pub fn star_sites(
    topo: &mut Topology,
    site_names: &[&str],
    site_capacity: f64,
    site_latency: &[SimDuration],
) -> (NodeId, Vec<NodeId>) {
    assert_eq!(site_names.len(), site_latency.len());
    let core = topo.add_node(Node::router("core"));
    let mut hosts = Vec::new();
    for (name, &lat) in site_names.iter().zip(site_latency) {
        let h = topo.add_node(Node::host(*name));
        topo.add_link(h, core, site_capacity, lat);
        hosts.push(h);
    }
    (core, hosts)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flownet::{FlowNet, FlowSpec};
    use crate::time::SimTime;

    #[test]
    fn dumbbell_shape() {
        let mut topo = Topology::new();
        let d = dumbbell(
            &mut topo,
            DumbbellParams {
                hosts_per_side: 3,
                ..DumbbellParams::default()
            },
        );
        assert_eq!(d.sources.len(), 3);
        assert_eq!(d.sinks.len(), 3);
        // 2 routers + 6 hosts.
        assert_eq!(topo.nodes().count(), 8);
        // bottleneck + 6 access links.
        assert_eq!(topo.links().count(), 7);
        // Every src can reach every dst through the bottleneck.
        for &s in &d.sources {
            for &t in &d.sinks {
                let route = topo.route(s, t).unwrap();
                assert_eq!(route.len(), 3);
                assert!(route.iter().any(|&(l, _)| l == d.bottleneck));
            }
        }
    }

    #[test]
    fn star_latencies_differ() {
        let mut topo = Topology::new();
        let (_, hosts) = star_sites(
            &mut topo,
            &["lbnl", "anl", "isi"],
            1e9,
            &[
                SimDuration::from_millis(5),
                SimDuration::from_millis(20),
                SimDuration::from_millis(40),
            ],
        );
        let mut net = FlowNet::new(topo);
        let rtt01 = net.path_rtt(hosts[0], hosts[1]).unwrap();
        let rtt02 = net.path_rtt(hosts[0], hosts[2]).unwrap();
        assert_eq!(rtt01, SimDuration::from_millis(50));
        assert_eq!(rtt02, SimDuration::from_millis(90));
        // Can actually move data.
        let f = net
            .start_flow(
                SimTime::ZERO,
                FlowSpec::new(hosts[0], hosts[1], f64::INFINITY).window(1e12),
            )
            .unwrap();
        assert!(net.flow_rate(f) > 0.0);
    }
}
