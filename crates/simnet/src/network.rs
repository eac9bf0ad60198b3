//! Wide-area network topology: hosts, routers, links and routing.
//!
//! The topology is a graph of [`Node`]s connected by bidirectional [`Link`]s.
//! Each direction of a link is an independent capacity resource. Hosts carry
//! additional per-node resources — NIC rate, a CPU byte-processing budget and
//! disk bandwidth — which the allocator treats uniformly with link capacity.
//! This is how the paper's observed bottlenecks ("the CPU was running at near
//! 100% capacity", software RAID to keep disk off the critical path, GigE NIC
//! limits) enter the model.

use crate::time::SimDuration;

/// Index of a node in the topology.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub usize);

/// Index of a link in the topology.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct LinkId(pub usize);

/// Direction of travel across a link: `Fwd` is a→b, `Rev` is b→a.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Dir {
    Fwd,
    Rev,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NodeKind {
    /// End host: sources/sinks traffic, has NIC/CPU/disk constraints.
    Host,
    /// Router/switch: forwards only, no per-node constraints.
    Router,
}

/// CPU cost model for network processing at a host.
///
/// Gigabit Ethernet in 2000 was interrupt-bound: each frame costs CPU cycles,
/// and the paper reports hosts pegged at 100% CPU during transfers. The model
/// turns a cycle budget into a maximum byte rate the host can source or sink,
/// with multipliers for the two mitigations the paper discusses: interrupt
/// coalescing and jumbo frames.
#[derive(Debug, Clone, Copy)]
pub struct CpuModel {
    /// Available cycles per second dedicated to network processing.
    pub cycles_per_sec: f64,
    /// Base cost in cycles to move one byte through the stack.
    pub cycles_per_byte: f64,
    /// Interrupt coalescing reduces per-byte cost (1.0 = off; e.g. 0.6 =
    /// 40% cheaper).
    pub coalescing_factor: f64,
    /// Jumbo frames (9000-byte MTU) reduce per-byte cost further; the paper
    /// could not evaluate them because one router lacked support.
    pub jumbo_frames: bool,
}

/// Per-byte cost multiplier when jumbo frames are enabled (6x fewer frames
/// than a 1500-byte MTU, amortizing per-frame interrupt cost).
const JUMBO_FACTOR: f64 = 0.35;

impl CpuModel {
    /// A model with effectively unlimited CPU (routers, abstract endpoints).
    pub fn unlimited() -> Self {
        CpuModel {
            cycles_per_sec: f64::INFINITY,
            cycles_per_byte: 1.0,
            coalescing_factor: 1.0,
            jumbo_frames: false,
        }
    }

    /// A model calibrated to the paper's year-2000 workstations: ~800 MHz
    /// CPUs that saturate at roughly `max_byte_rate` bytes/sec of GigE
    /// traffic with interrupt coalescing on.
    pub fn year2000_workstation() -> Self {
        // 800 MHz, ~8 cycles/byte raw: caps at 100 MB/s with coalescing at
        // 0.8 — just above what one GigE NIC can deliver, so the CPU and the
        // NIC contend for the bottleneck exactly as observed at SC'00.
        CpuModel {
            cycles_per_sec: 800e6,
            cycles_per_byte: 8.0,
            coalescing_factor: 0.8,
            jumbo_frames: false,
        }
    }

    /// Maximum sustainable byte rate given the cycle budget.
    pub fn max_byte_rate(&self) -> f64 {
        if !self.cycles_per_sec.is_finite() {
            return f64::INFINITY;
        }
        let mut per_byte = self.cycles_per_byte * self.coalescing_factor;
        if self.jumbo_frames {
            per_byte *= JUMBO_FACTOR;
        }
        self.cycles_per_sec / per_byte
    }
}

/// A node in the topology.
#[derive(Debug, Clone)]
pub struct Node {
    pub name: String,
    pub kind: NodeKind,
    /// NIC line rate, bytes/sec, each direction independently.
    pub nic_rate: f64,
    pub cpu: CpuModel,
    /// Disk read bandwidth, bytes/sec (sources reading files).
    pub disk_read_rate: f64,
    /// Disk write bandwidth, bytes/sec (sinks writing files).
    pub disk_write_rate: f64,
    pub up: bool,
}

impl Node {
    pub fn host(name: impl Into<String>) -> Self {
        Node {
            name: name.into(),
            kind: NodeKind::Host,
            nic_rate: f64::INFINITY,
            cpu: CpuModel::unlimited(),
            disk_read_rate: f64::INFINITY,
            disk_write_rate: f64::INFINITY,
            up: true,
        }
    }

    pub fn router(name: impl Into<String>) -> Self {
        Node {
            name: name.into(),
            kind: NodeKind::Router,
            nic_rate: f64::INFINITY,
            cpu: CpuModel::unlimited(),
            disk_read_rate: f64::INFINITY,
            disk_write_rate: f64::INFINITY,
            up: true,
        }
    }

    pub fn with_nic(mut self, bytes_per_sec: f64) -> Self {
        self.nic_rate = bytes_per_sec;
        self
    }

    pub fn with_cpu(mut self, cpu: CpuModel) -> Self {
        self.cpu = cpu;
        self
    }

    pub fn with_disk(mut self, read: f64, write: f64) -> Self {
        self.disk_read_rate = read;
        self.disk_write_rate = write;
        self
    }
}

/// A bidirectional link; each direction has independent `capacity`.
#[derive(Debug, Clone)]
pub struct Link {
    pub a: NodeId,
    pub b: NodeId,
    /// Bytes per second, per direction.
    pub capacity: f64,
    /// One-way propagation delay.
    pub latency: SimDuration,
    /// Packet loss probability (per packet) used by the steady-state TCP
    /// throughput model.
    pub loss_rate: f64,
    pub up: bool,
}

/// The network topology. Flows and rate allocation live in
/// [`crate::flownet::FlowNet`]; this type is purely structural.
#[derive(Debug, Default, Clone)]
pub struct Topology {
    nodes: Vec<Node>,
    links: Vec<Link>,
    /// Adjacency: node -> (link, dir, neighbour).
    adj: Vec<Vec<(LinkId, Dir, NodeId)>>,
}

impl Topology {
    pub fn new() -> Self {
        Topology::default()
    }

    pub fn add_node(&mut self, node: Node) -> NodeId {
        let id = NodeId(self.nodes.len());
        self.nodes.push(node);
        self.adj.push(Vec::new());
        id
    }

    /// Connect `a` and `b` with a link of the given capacity (bytes/sec per
    /// direction) and one-way latency.
    pub fn add_link(
        &mut self,
        a: NodeId,
        b: NodeId,
        capacity: f64,
        latency: SimDuration,
    ) -> LinkId {
        assert!(a != b, "self-links are not allowed");
        let id = LinkId(self.links.len());
        self.links.push(Link {
            a,
            b,
            capacity,
            latency,
            loss_rate: 0.0,
            up: true,
        });
        self.adj[a.0].push((id, Dir::Fwd, b));
        self.adj[b.0].push((id, Dir::Rev, a));
        id
    }

    pub fn set_link_loss(&mut self, link: LinkId, loss: f64) {
        self.links[link.0].loss_rate = loss;
    }

    pub fn node(&self, id: NodeId) -> &Node {
        &self.nodes[id.0]
    }

    pub fn node_mut(&mut self, id: NodeId) -> &mut Node {
        &mut self.nodes[id.0]
    }

    pub fn link(&self, id: LinkId) -> &Link {
        &self.links[id.0]
    }

    pub fn link_mut(&mut self, id: LinkId) -> &mut Link {
        &mut self.links[id.0]
    }

    pub fn nodes(&self) -> impl Iterator<Item = (NodeId, &Node)> {
        self.nodes.iter().enumerate().map(|(i, n)| (NodeId(i), n))
    }

    pub fn links(&self) -> impl Iterator<Item = (LinkId, &Link)> {
        self.links.iter().enumerate().map(|(i, l)| (LinkId(i), l))
    }

    /// BFS shortest path (by hop count) from `src` to `dst`, traversing only
    /// up links and up intermediate nodes. Returns the sequence of directed
    /// link hops, or `None` if unreachable.
    ///
    /// O(nodes + links) per call; `FlowNet` memoizes results (including the
    /// `None` case) per endpoint pair and drops the cache whenever link/node
    /// up-state changes, the only mutations that can alter a hop-count
    /// shortest path. Callers on hot paths should go through
    /// `FlowNet::cached_route` rather than calling this directly.
    pub fn route(&self, src: NodeId, dst: NodeId) -> Option<Vec<(LinkId, Dir)>> {
        if src == dst {
            return Some(Vec::new());
        }
        if !self.nodes[src.0].up || !self.nodes[dst.0].up {
            return None;
        }
        let mut prev: Vec<Option<(NodeId, LinkId, Dir)>> = vec![None; self.nodes.len()];
        let mut visited = vec![false; self.nodes.len()];
        let mut queue = std::collections::VecDeque::new();
        visited[src.0] = true;
        queue.push_back(src);
        while let Some(u) = queue.pop_front() {
            for &(lid, dir, v) in &self.adj[u.0] {
                if visited[v.0] || !self.links[lid.0].up || !self.nodes[v.0].up {
                    continue;
                }
                visited[v.0] = true;
                prev[v.0] = Some((u, lid, dir));
                if v == dst {
                    // Reconstruct.
                    let mut path = Vec::new();
                    let mut cur = dst;
                    while cur != src {
                        let (p, lid, dir) = prev[cur.0].unwrap();
                        path.push((lid, dir));
                        cur = p;
                    }
                    path.reverse();
                    return Some(path);
                }
                queue.push_back(v);
            }
        }
        None
    }

    /// Round-trip time along a route: twice the sum of one-way latencies.
    pub fn route_rtt(&self, route: &[(LinkId, Dir)]) -> SimDuration {
        let mut one_way = SimDuration::ZERO;
        for &(lid, _) in route {
            one_way += self.links[lid.0].latency;
        }
        one_way * 2
    }

    /// Aggregate packet loss probability along a route:
    /// `1 - prod(1 - p_i)`.
    pub fn route_loss(&self, route: &[(LinkId, Dir)]) -> f64 {
        let mut keep = 1.0;
        for &(lid, _) in route {
            keep *= 1.0 - self.links[lid.0].loss_rate;
        }
        1.0 - keep
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn line3() -> (Topology, NodeId, NodeId, NodeId, LinkId, LinkId) {
        let mut t = Topology::new();
        let a = t.add_node(Node::host("a"));
        let r = t.add_node(Node::router("r"));
        let b = t.add_node(Node::host("b"));
        let l1 = t.add_link(a, r, 1e9, SimDuration::from_millis(5));
        let l2 = t.add_link(r, b, 1e9, SimDuration::from_millis(5));
        (t, a, r, b, l1, l2)
    }

    #[test]
    fn route_through_router() {
        let (t, a, _, b, l1, l2) = line3();
        let route = t.route(a, b).unwrap();
        assert_eq!(route, vec![(l1, Dir::Fwd), (l2, Dir::Fwd)]);
        let back = t.route(b, a).unwrap();
        assert_eq!(back, vec![(l2, Dir::Rev), (l1, Dir::Rev)]);
    }

    #[test]
    fn rtt_is_twice_one_way() {
        let (t, a, _, b, ..) = line3();
        let route = t.route(a, b).unwrap();
        assert_eq!(t.route_rtt(&route), SimDuration::from_millis(20));
    }

    #[test]
    fn down_link_is_not_routed() {
        let (mut t, a, _, b, l1, _) = line3();
        t.link_mut(l1).up = false;
        assert!(t.route(a, b).is_none());
    }

    #[test]
    fn down_node_is_not_routed() {
        let (mut t, a, r, b, ..) = line3();
        t.node_mut(r).up = false;
        assert!(t.route(a, b).is_none());
    }

    #[test]
    fn alternate_path_used_when_primary_down() {
        let mut t = Topology::new();
        let a = t.add_node(Node::host("a"));
        let b = t.add_node(Node::host("b"));
        let r = t.add_node(Node::router("r"));
        let direct = t.add_link(a, b, 1e9, SimDuration::from_millis(1));
        let via1 = t.add_link(a, r, 1e9, SimDuration::from_millis(1));
        let via2 = t.add_link(r, b, 1e9, SimDuration::from_millis(1));
        assert_eq!(t.route(a, b).unwrap(), vec![(direct, Dir::Fwd)]);
        t.link_mut(direct).up = false;
        assert_eq!(
            t.route(a, b).unwrap(),
            vec![(via1, Dir::Fwd), (via2, Dir::Fwd)]
        );
    }

    #[test]
    fn route_to_self_is_empty() {
        let (t, a, ..) = line3();
        assert_eq!(t.route(a, a).unwrap(), Vec::new());
    }

    #[test]
    fn route_loss_composes() {
        let (mut t, a, _, b, l1, l2) = line3();
        t.set_link_loss(l1, 0.01);
        t.set_link_loss(l2, 0.02);
        let route = t.route(a, b).unwrap();
        let p = t.route_loss(&route);
        assert!((p - (1.0 - 0.99 * 0.98)).abs() < 1e-12);
    }

    #[test]
    fn cpu_model_byte_rate() {
        let cpu = CpuModel {
            cycles_per_sec: 800e6,
            cycles_per_byte: 8.0,
            coalescing_factor: 1.0,
            jumbo_frames: false,
        };
        assert!((cpu.max_byte_rate() - 100e6).abs() < 1.0);
        let coalesced = CpuModel {
            coalescing_factor: 0.5,
            ..cpu
        };
        assert!((coalesced.max_byte_rate() - 200e6).abs() < 1.0);
        let jumbo = CpuModel {
            jumbo_frames: true,
            ..cpu
        };
        assert!(jumbo.max_byte_rate() > 2.0 * cpu.max_byte_rate());
        assert_eq!(CpuModel::unlimited().max_byte_rate(), f64::INFINITY);
    }
}
