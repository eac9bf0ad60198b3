//! Flow-level network simulation: topology + active TCP flows + max-min
//! fair bandwidth sharing + progress integration.
//!
//! `FlowNet` is the piece the discrete-event kernel advances. Between events
//! every flow moves bytes at a constant allocated rate; any mutation (flow
//! added/removed, failure injected, slow-start stage boundary) marks the
//! allocation dirty and it is recomputed lazily. This gives exact piecewise-
//! linear progress while simulating hours of WAN activity in milliseconds.
//!
//! ## Incremental allocation
//!
//! The allocator is *component-scoped*: a persistent flow↔resource index
//! tracks which running flows cross which resources, mutations mark only the
//! flows/resources they touch, and a recompute solves only the connected
//! components of the flow↔resource bipartite graph reachable from the dirty
//! set — rates of untouched components are spliced through unchanged. Because
//! disjoint components share no capacity, the per-component solution is
//! mathematically identical to a global solve; because each component is
//! assembled in a canonical order (flows by id, resources by first
//! encounter), it is also *bitwise* reproducible regardless of which other
//! components were or weren't re-solved. [`FlowNet::oracle_rates`] rebuilds
//! the whole problem from routes and topology as the from-scratch reference
//! for differential tests.
//!
//! ## Scale: O(events), not O(flows · events)
//!
//! Nothing in the steady-state event path scans all flows. Byte progress is
//! integrated *lazily*: a flow's `bytes_done` is materialized only when its
//! rate actually changes (bitwise), so a clean advance costs nothing per
//! flow. Completions and slow-start boundaries live in a time-ordered event
//! index (an indexed heap, `crate::eventindex`) re-keyed in place on rate
//! changes, making [`FlowNet::next_event_time`] a lookup instead of a scan.
//! Each resource's running members are one flat ascending list of flow ids,
//! and per-flow hot state is keyed by dense interned flow ids (a slab), not
//! a tree.
//!
//! ## Anatomy of a recompute pass
//!
//! A pass rebuilds three things and keeps none of them, so all three live
//! in buffers the `FlowNet` owns and reuses; once they have grown to the
//! shape of the network a pass does not touch the heap
//! (`tests/alloc_free_pass.rs` counts). Mutations push onto the dirty
//! lists `dirty_flows`/`dirty_res` (plain `Vec`s, repeats allowed) →
//! `dirty_seeds` writes the dirty running flows and one member per dirty
//! finite resource into `seeds` → `partition_components` lays every
//! reachable component flat into `PartitionScratch::{flows, ends}`, reading
//! each resource's capacity once, as it first meets it (`cap_r`) →
//! `solve_components` walks that arena in place, assembling each component
//! as CSR into `SolveScratch`'s `WaterFill` (capacities from `cap_r`, one
//! stamp compare per pair, the cap kept on each flow) and solving it there
//! → `apply_rates` reads the rates as a slice of that scratch.
//!
//! A slow-start crossing dirties its flow only when the cap rise can move a
//! bit: a flow already held below its old cap by a bottleneck share keeps
//! every rate of its component (proof at `FlowNet::cross_ramp`), so its
//! crossing schedules no pass.
//!
//! Same-instant dirty events coalesce: a burst of N flow arrivals between
//! two queries accumulates one dirty set and triggers one recompute pass,
//! not N. So do the network's own discontinuities: [`FlowNet::advance_to`]
//! applies every completion and slow-start crossing due at one instant and
//! then makes that instant's one pass. Read-only queries ([`FlowNet::flow_rate`],
//! [`FlowNet::host_cpu_utilization`]) refresh only components that are
//! dirty-adjacent to the queried flow or host and never force work for
//! unrelated parts of the network.

use std::collections::{BTreeMap, BTreeSet, HashMap};

use crate::allocation::{max_min_fair, AllocFlow, WaterFill};
use crate::eventindex::{EventIndex, EV_COMPLETE, EV_RAMP};
use crate::network::{Dir, LinkId, NodeId, NodeKind, Topology};
use crate::tcp::{TcpParams, INITIAL_WINDOW, MSS};
use crate::time::{SimDuration, SimTime};

/// A memoized routing answer: the directed hops plus the (immutable) RTT,
/// or `None` when the pair is unreachable (negative caching).
type CachedRoute = Option<(Vec<(LinkId, Dir)>, SimDuration)>;

/// Identifier of an active (or completed) flow.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct FlowId(pub u64);

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlowState {
    /// Transferring at the allocated rate.
    Running,
    /// No route currently exists (failure); rate is zero but the flow is
    /// kept so the owner can observe the stall and decide to restart.
    Stalled,
    /// All bytes delivered.
    Done,
}

/// Parameters for starting a flow.
#[derive(Debug, Clone, Copy)]
pub struct FlowSpec {
    pub src: NodeId,
    pub dst: NodeId,
    /// Total bytes to move; `f64::INFINITY` for an unbounded flow
    /// (background traffic, probes that are stopped manually).
    pub size: f64,
    /// TCP socket buffer in bytes (the SBUF value); caps rate at window/RTT.
    pub window: f64,
    /// Segment size (1460 standard, 8960 jumbo).
    pub mss: f64,
    /// Whether the source reads from its disk subsystem (false for
    /// memory-to-memory tests).
    pub uses_src_disk: bool,
    /// Whether the destination writes to its disk subsystem.
    pub uses_dst_disk: bool,
    /// Model the slow-start ramp. A cached data channel (post-SC'00 GridFTP
    /// feature) keeps its congestion window, so it skips the ramp.
    pub slow_start: bool,
}

impl FlowSpec {
    pub fn new(src: NodeId, dst: NodeId, size: f64) -> Self {
        FlowSpec {
            src,
            dst,
            size,
            window: (1u64 << 20) as f64, // paper's 1 MB default
            mss: MSS,
            uses_src_disk: true,
            uses_dst_disk: true,
            slow_start: true,
        }
    }

    pub fn window(mut self, bytes: f64) -> Self {
        self.window = bytes;
        self
    }

    pub fn mss(mut self, mss: f64) -> Self {
        self.mss = mss;
        self
    }

    pub fn memory_to_memory(mut self) -> Self {
        self.uses_src_disk = false;
        self.uses_dst_disk = false;
        self
    }
}

#[derive(Debug)]
struct FlowRt {
    spec: FlowSpec,
    route: Vec<(LinkId, Dir)>,
    rtt: SimDuration,
    loss: f64,
    /// Bytes delivered as of `anchor`. Progress past the anchor is implied
    /// by `rate` and only *materialized* when the rate changes bitwise —
    /// the lazy-integration contract that makes byte trajectories a pure
    /// function of the rate trajectory, however the solve was scheduled.
    bytes_done: f64,
    /// Instant `bytes_done` was last materialized.
    anchor: SimTime,
    rate: f64,
    state: FlowState,
    started: SimTime,
    /// Congestion-window ramp stage; cap = INITIAL_WINDOW * 2^stage / rtt
    /// until it reaches the steady cap. `None` once ramp is finished.
    ramp_stage: Option<u32>,
    /// `current_cap()`, re-derived only where RTT, loss or ramp stage change.
    cap: f64,
    /// Interned resource ids this flow crosses, in canonical order (route
    /// links first, then endpoint NIC/CPU/disk), deduplicated. Empty while
    /// the flow is stalled or done.
    res: Vec<u32>,
}

impl FlowRt {
    fn steady_cap(&self) -> f64 {
        TcpParams {
            window: self.spec.window,
            rtt: self.rtt,
            loss: self.loss,
            mss: self.spec.mss,
        }
        .rate_cap()
    }

    /// Current per-flow ceiling including the slow-start ramp.
    fn current_cap(&self) -> f64 {
        let steady = self.steady_cap();
        match self.ramp_stage {
            None => steady,
            Some(stage) => {
                let rtt = self.rtt.as_secs_f64();
                if rtt <= 0.0 {
                    return steady;
                }
                let w = INITIAL_WINDOW * 2f64.powi(stage as i32);
                (w / rtt).min(steady)
            }
        }
    }

    /// Time of the next ramp-stage boundary, if still ramping.
    fn next_ramp_boundary(&self) -> Option<SimTime> {
        let stage = self.ramp_stage?;
        if self.rtt.is_zero() {
            return None;
        }
        Some(self.started + self.rtt * (stage as u64 + 1))
    }

    /// Fold progress since `anchor` into `bytes_done`. Called exactly when
    /// the rate is about to change (or the flow stalls) — never on clean
    /// advances — so the float-addition sequence is a pure function of the
    /// rate trajectory.
    fn materialize(&mut self, t: SimTime) {
        if self.rate > 0.0 && t > self.anchor {
            self.bytes_done += self.rate * t.since(self.anchor).as_secs_f64();
        }
        self.anchor = t;
    }

    /// Bytes delivered as of `t` (`t >= anchor`), without materializing.
    fn bytes_at(&self, t: SimTime) -> f64 {
        if self.state == FlowState::Running && self.rate > 0.0 && t > self.anchor {
            self.bytes_done + self.rate * t.since(self.anchor).as_secs_f64()
        } else {
            self.bytes_done
        }
    }
}

/// Error returned when a flow cannot be started.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FlowError {
    /// No path between the endpoints (down links/nodes or partitioned).
    NoRoute,
}

impl std::fmt::Display for FlowError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FlowError::NoRoute => write!(f, "no route between endpoints"),
        }
    }
}

impl std::error::Error for FlowError {}

/// Resource identity used when assembling the allocation problem.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum ResKey {
    LinkDir(LinkId, Dir),
    NicTx(NodeId),
    NicRx(NodeId),
    Cpu(NodeId),
    DiskRead(NodeId),
    DiskWrite(NodeId),
}

/// Cumulative counters for allocation work — the observability hook behind
/// the recompute-count regression tests and the `user_scaling` curve.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct AllocStats {
    /// Recompute passes that solved at least one component. A slow-start
    /// crossing that provably moves no rate makes none.
    pub recompute_passes: u64,
    /// Components solved (including scoped query solves).
    pub components_solved: u64,
    /// Total per-flow rate computations across all solved components.
    pub flow_solves: u64,
    /// Route-cache hits during flow starts and reroutes.
    pub route_cache_hits: u64,
    /// Route-cache misses (BFS actually ran).
    pub route_cache_misses: u64,
    /// Always 0: nothing increments it since the worker pool was deleted
    /// (EXPERIMENTS A21). Kept only because the frozen
    /// `benchmark/src/workloads/mod.rs` reads it; dropped with the next
    /// `benchmark` PR (ROADMAP item 2d).
    pub parallel_batches: u64,
    /// Bitwise rate changes committed — each one materializes a flow's
    /// progress and re-keys its completion in the event index. Counted per
    /// pass, and an instant's discontinuities share one pass: a rate that
    /// one of them would move and a later one move back is no change.
    pub rate_changes: u64,
}

/// Reusable arena for assembling and solving one component's subproblem
/// without per-component allocation: the `WaterFill` the component is
/// written into, and the global→local resource-id interning that replaces
/// a hash map — epoch-stamped dense arrays sized to the resource table, so
/// interning is one stamp compare. Local ids are assigned in first-encounter
/// order: bitwise the oracle's hash-map interning.
#[derive(Debug, Default)]
struct SolveScratch {
    epoch: u32,
    stamp: Vec<u32>,
    local: Vec<u32>,
    /// The component under assembly; its resource table is the interned
    /// capacities (local id = position).
    fill: WaterFill,
}

impl SolveScratch {
    fn begin(&mut self, n_res: usize) {
        if self.stamp.len() < n_res {
            self.stamp.resize(n_res, 0);
            self.local.resize(n_res, 0);
        }
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            // Stamp wrapped: old stamps could alias the new epoch.
            self.stamp.iter_mut().for_each(|s| *s = 0);
            self.epoch = 1;
        }
        self.fill.clear();
    }

    /// Local id for global resource `r`, interning on first encounter.
    fn intern(&mut self, r: u32, cap: f64) -> usize {
        let ri = r as usize;
        if self.stamp[ri] != self.epoch {
            self.stamp[ri] = self.epoch;
            self.local[ri] = self.fill.push_resource(cap) as u32;
        }
        self.local[ri] as usize
    }
}

/// Reusable arena for component partitioning: epoch-stamped visited sets
/// and the partition itself. A fresh `vec![false; N]` pair per recompute
/// pass is O(flows + resources) of memset *per event* — the exact
/// quadratic-at-scale pattern this allocator exists to avoid — so the seen
/// marks live here and are invalidated in O(1) by bumping the epoch. The
/// components of the last partition lie flat in `flows`, delimited by
/// `ends`, instead of in a `Vec` each.
#[derive(Debug, Default)]
struct PartitionScratch {
    epoch: u32,
    seen_r: Vec<u32>,
    /// Capacity of `r` as read when this partition first met it: valid
    /// where `seen_r[r] == epoch`, so for every resource of an arena flow.
    cap_r: Vec<f64>,
    seen_f: Vec<u32>,
    stack: Vec<u64>,
    /// Every component of the last partition, back to back.
    flows: Vec<u64>,
    /// `ends[k]` is one past component `k`'s last position in `flows`.
    ends: Vec<usize>,
}

impl PartitionScratch {
    fn begin(&mut self, n_res: usize, n_flows: usize) {
        if self.seen_r.len() < n_res {
            self.seen_r.resize(n_res, 0);
            self.cap_r.resize(n_res, 0.0);
        }
        if self.seen_f.len() < n_flows {
            self.seen_f.resize(n_flows, 0);
        }
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            self.seen_r.iter_mut().for_each(|s| *s = 0);
            self.seen_f.iter_mut().for_each(|s| *s = 0);
            self.epoch = 1;
        }
        self.stack.clear();
        self.flows.clear();
        self.ends.clear();
    }

    /// Number of components in the last partition.
    fn len(&self) -> usize {
        self.ends.len()
    }

    /// Component `k` of the last partition: its flow ids, ascending.
    fn component(&self, k: usize) -> &[u64] {
        let start = if k == 0 { 0 } else { self.ends[k - 1] };
        &self.flows[start..self.ends[k]]
    }
}

/// Canonical resource-key list for a flow: route link-directions in path
/// order, then source NIC/CPU/disk, then destination NIC/CPU/disk, with
/// duplicates removed preserving first occurrence. Both the persistent
/// index and the from-scratch oracle derive per-flow resources through this
/// single function, so their subproblems are assembled identically.
fn resource_keys_for(spec: &FlowSpec, route: &[(LinkId, Dir)], topo: &Topology) -> Vec<ResKey> {
    fn push(out: &mut Vec<ResKey>, k: ResKey) {
        if !out.contains(&k) {
            out.push(k);
        }
    }
    let mut out = Vec::with_capacity(route.len() + 6);
    for &(l, d) in route {
        push(&mut out, ResKey::LinkDir(l, d));
    }
    let (src, dst) = (spec.src, spec.dst);
    if topo.node(src).kind == NodeKind::Host {
        push(&mut out, ResKey::NicTx(src));
        push(&mut out, ResKey::Cpu(src));
        if spec.uses_src_disk {
            push(&mut out, ResKey::DiskRead(src));
        }
    }
    if topo.node(dst).kind == NodeKind::Host {
        push(&mut out, ResKey::NicRx(dst));
        push(&mut out, ResKey::Cpu(dst));
        if spec.uses_dst_disk {
            push(&mut out, ResKey::DiskWrite(dst));
        }
    }
    out
}

/// Partition the flows reachable from `seeds` (ascending; repeats are
/// skipped) into connected components of the flow↔resource bipartite
/// graph, written flat into `scratch` (see [`PartitionScratch::component`]).
/// Only finite-capacity resources carry connectivity (infinite resources
/// never constrain anything); `capacity` is asked once per resource met
/// and the answer kept in `cap_r`. Components are emitted in ascending
/// order of their smallest seed and each component is sorted by flow id —
/// a canonical order shared by the incremental path and the oracle.
/// Traversal borrows the per-flow resource slices and visits resource
/// members through a callback; once the scratch has grown to the largest
/// partition seen it allocates nothing at all.
fn partition_components<'a>(
    seeds: &[u64],
    n_res: usize,
    n_flows: u64,
    scratch: &mut PartitionScratch,
    res_of: impl Fn(u64) -> &'a [u32],
    flows_on: impl Fn(u32, &mut dyn FnMut(u64)),
    capacity: impl Fn(u32) -> f64,
) {
    debug_assert!(seeds.is_sorted());
    scratch.begin(n_res, n_flows as usize);
    let epoch = scratch.epoch;
    let PartitionScratch {
        seen_r,
        cap_r,
        seen_f,
        stack,
        flows,
        ends,
        ..
    } = scratch;
    for &s in seeds {
        if seen_f[s as usize] == epoch {
            continue;
        }
        seen_f[s as usize] = epoch;
        let start = flows.len();
        flows.push(s);
        stack.push(s);
        while let Some(f) = stack.pop() {
            for &r in res_of(f) {
                if seen_r[r as usize] == epoch {
                    continue;
                }
                seen_r[r as usize] = epoch;
                let cap = capacity(r);
                cap_r[r as usize] = cap;
                if !cap.is_finite() {
                    continue;
                }
                flows_on(r, &mut |g| {
                    if seen_f[g as usize] != epoch {
                        seen_f[g as usize] = epoch;
                        flows.push(g);
                        stack.push(g);
                    }
                });
            }
        }
        flows[start..].sort_unstable();
        ends.push(flows.len());
    }
}

/// Drop `id` from an ascending member list; an absent id leaves it as is.
fn remove_member(list: &mut Vec<u64>, id: u64) {
    if let Ok(i) = list.binary_search(&id) {
        list.remove(i);
    }
}

/// The live network: topology plus active flows.
#[derive(Debug)]
pub struct FlowNet {
    pub topo: Topology,
    /// Whether the name service (DNS) is reachable; connection-establishing
    /// protocols check this before opening new channels. See
    /// [`crate::failure::FaultKind::NameServiceDown`].
    pub name_service_up: bool,
    /// Bookkeeping for overlapping injected faults (see [`crate::failure`]).
    pub(crate) fault_ledger: crate::failure::FaultLedger,
    /// Flow slab keyed by dense flow id; ids are never reused, completed
    /// and removed flows leave a `None` behind.
    flows: Vec<Option<FlowRt>>,
    /// Ids of flows in `Running` or `Stalled` state, ascending.
    active: BTreeSet<u64>,
    next_id: u64,
    last_advance: SimTime,
    completed: Vec<FlowId>,

    // --- incremental allocator state ---
    /// Interning: resource key → stable index.
    res_ids: HashMap<ResKey, u32>,
    /// Inverse interning: index → key (capacities are read live from the
    /// topology in every pass, so capacity changes need no re-interning).
    res_keys: Vec<ResKey>,
    /// Membership: resource index → the running flows crossing it, by id
    /// ascending (`dirty_seeds` takes the first as the smallest). Ids only
    /// grow, so a start appends; `reroute_all` rebuilds every list.
    members: Vec<Vec<u64>>,
    /// Flows whose cap/route/existence changed since the last recompute.
    /// A reused list, not a set: repeats are allowed and ids of flows since
    /// removed or stalled linger — `dirty_seeds` drops both.
    dirty_flows: Vec<u64>,
    /// Resources whose capacity changed or whose member set shrank (a
    /// reused list; repeats allowed).
    dirty_res: Vec<u32>,
    /// Topology-wide invalidation (reroute events): re-solve everything.
    dirty_all: bool,
    /// Time-ordered index of pending network discontinuities: each flow's
    /// completion (`anchor + remaining/rate`, re-keyed on rate changes) and
    /// next slow-start boundary, popped in `(time, kind, id)` order.
    /// Maintained eagerly so `next_event_time` is a lookup.
    events: EventIndex,
    /// Route cache keyed by endpoint pair; cleared whenever link/node
    /// up-state changes (the only mutations that can change BFS routes).
    /// Negative results are cached too.
    route_cache: HashMap<(NodeId, NodeId), CachedRoute>,
    /// Seed list of the pass in progress, reused across passes.
    seeds: Vec<u64>,
    /// Arena for component assembly and solve, reused across solves.
    scratch: SolveScratch,
    /// Visited sets and the flat component arena, reused across passes.
    part_scratch: PartitionScratch,
    /// Flows whose slow-start crossing made no pass, awaiting the debug
    /// check that runs after their instant's pass. Empty between instants.
    #[cfg(debug_assertions)]
    pruned: Vec<u64>,
    stats: AllocStats,
}

impl FlowNet {
    pub fn new(topo: Topology) -> Self {
        FlowNet {
            topo,
            name_service_up: true,
            fault_ledger: crate::failure::FaultLedger::default(),
            flows: Vec::new(),
            active: BTreeSet::new(),
            next_id: 0,
            last_advance: SimTime::ZERO,
            completed: Vec::new(),
            res_ids: HashMap::new(),
            res_keys: Vec::new(),
            members: Vec::new(),
            dirty_flows: Vec::new(),
            dirty_res: Vec::new(),
            dirty_all: false,
            events: EventIndex::default(),
            route_cache: HashMap::new(),
            seeds: Vec::new(),
            scratch: SolveScratch::default(),
            part_scratch: PartitionScratch::default(),
            #[cfg(debug_assertions)]
            pruned: Vec::new(),
            stats: AllocStats::default(),
        }
    }

    /// Cumulative allocation-work counters.
    pub fn alloc_stats(&self) -> AllocStats {
        self.stats
    }

    /// Number of non-completed flows currently in the system.
    pub fn active_flow_count(&self) -> usize {
        self.active.len()
    }

    fn flow(&self, id: u64) -> &FlowRt {
        self.flows[id as usize].as_ref().expect("live flow")
    }

    fn is_dirty(&self) -> bool {
        self.dirty_all || !self.dirty_flows.is_empty() || !self.dirty_res.is_empty()
    }

    fn capacity_of(&self, key: ResKey) -> f64 {
        match key {
            ResKey::LinkDir(l, _) => self.topo.link(l).capacity,
            ResKey::NicTx(n) | ResKey::NicRx(n) => self.topo.node(n).nic_rate,
            ResKey::Cpu(n) => self.topo.node(n).cpu.max_byte_rate(),
            ResKey::DiskRead(n) => self.topo.node(n).disk_read_rate,
            ResKey::DiskWrite(n) => self.topo.node(n).disk_write_rate,
        }
    }

    fn intern_all(&mut self, keys: &[ResKey]) -> Vec<u32> {
        keys.iter()
            .map(|&k| match self.res_ids.get(&k) {
                Some(&i) => i,
                None => {
                    let i = self.res_keys.len() as u32;
                    self.members.push(Vec::new());
                    self.res_ids.insert(k, i);
                    self.res_keys.push(k);
                    i
                }
            })
            .collect()
    }

    /// Route + RTT for an endpoint pair, via the epoch cache. RTT can be
    /// cached alongside the path because link latency is immutable; loss is
    /// not cached ([`FlowNet::set_link_loss`] changes it without rerouting).
    fn cached_route(&mut self, src: NodeId, dst: NodeId) -> CachedRoute {
        if let Some(hit) = self.route_cache.get(&(src, dst)) {
            self.stats.route_cache_hits += 1;
            return hit.clone();
        }
        self.stats.route_cache_misses += 1;
        let computed = self.topo.route(src, dst).map(|r| {
            let rtt = self.topo.route_rtt(&r);
            (r, rtt)
        });
        self.route_cache.insert((src, dst), computed.clone());
        computed
    }

    /// Start a flow at time `now` (callers must have advanced to `now`).
    pub fn start_flow(&mut self, now: SimTime, spec: FlowSpec) -> Result<FlowId, FlowError> {
        debug_assert!(now >= self.last_advance);
        let (route, rtt) = self
            .cached_route(spec.src, spec.dst)
            .ok_or(FlowError::NoRoute)?;
        let loss = self.topo.route_loss(&route);
        let id = FlowId(self.next_id);
        self.next_id += 1;
        let ramp_stage = if spec.slow_start && !rtt.is_zero() {
            Some(0)
        } else {
            None
        };
        let keys = resource_keys_for(&spec, &route, &self.topo);
        let res = self.intern_all(&keys);
        for &r in &res {
            // The newest id is the largest: appending keeps the list sorted.
            self.members[r as usize].push(id.0);
        }
        let mut f = FlowRt {
            spec,
            route,
            rtt,
            loss,
            bytes_done: 0.0,
            anchor: now,
            rate: 0.0,
            state: FlowState::Running,
            started: now,
            ramp_stage,
            cap: 0.0,
            res,
        };
        f.cap = f.current_cap();
        if let Some(b) = f.next_ramp_boundary() {
            self.events.set(EV_RAMP, id.0, b);
        }
        debug_assert_eq!(self.flows.len(), id.0 as usize);
        self.flows.push(Some(f));
        self.active.insert(id.0);
        self.dirty_flows.push(id.0);
        // Room for every active flow to cross at one instant, grown here
        // so that no pass has to.
        #[cfg(debug_assertions)]
        self.pruned.reserve(self.active.len());
        Ok(id)
    }

    /// Remove a flow (cancellation, or cleanup after completion).
    pub fn remove_flow(&mut self, id: FlowId) {
        let Some(slot) = self.flows.get_mut(id.0 as usize) else {
            return;
        };
        let Some(f) = slot.take() else {
            return;
        };
        self.events.set(EV_COMPLETE, id.0, SimTime::MAX);
        self.events.set(EV_RAMP, id.0, SimTime::MAX);
        // Only a running flow occupies capacity: its departure dirties
        // the resources it sat on so surviving sharers get re-solved.
        // Removing a stalled or completed flow changes nothing.
        if f.state == FlowState::Running {
            for &r in &f.res {
                remove_member(&mut self.members[r as usize], id.0);
                self.dirty_res.push(r);
            }
        }
        self.active.remove(&id.0);
    }

    pub fn flow_state(&self, id: FlowId) -> Option<FlowState> {
        self.flows
            .get(id.0 as usize)
            .and_then(|s| s.as_ref())
            .map(|f| f.state)
    }

    /// Bytes delivered so far (as of the last advance).
    pub fn flow_bytes(&self, id: FlowId) -> f64 {
        self.flows
            .get(id.0 as usize)
            .and_then(|s| s.as_ref())
            .map_or(0.0, |f| f.bytes_at(self.last_advance))
    }

    /// Current allocated rate in bytes/sec. Read-only and scoped: refreshes
    /// at most the component containing `id`; dirty state elsewhere in the
    /// network is left for the next full recompute.
    pub fn flow_rate(&mut self, id: FlowId) -> f64 {
        self.refresh_scoped(|fid, _| fid == id.0);
        self.flows
            .get(id.0 as usize)
            .and_then(|s| s.as_ref())
            .map_or(0.0, |f| f.rate)
    }

    /// RTT between two nodes along the current route, if any. Used by NWS
    /// latency sensors and by protocol engines to price control exchanges.
    pub fn path_rtt(&self, src: NodeId, dst: NodeId) -> Option<SimDuration> {
        if let Some(hit) = self.route_cache.get(&(src, dst)) {
            return hit.as_ref().map(|(_, rtt)| *rtt);
        }
        let route = self.topo.route(src, dst)?;
        Some(self.topo.route_rtt(&route))
    }

    /// Mark a link up/down; flows are rerouted (or stalled) lazily.
    pub fn set_link_up(&mut self, link: LinkId, up: bool) {
        if self.topo.link(link).up != up {
            self.topo.link_mut(link).up = up;
            self.reroute_all();
        }
    }

    /// Mark a node up/down.
    pub fn set_node_up(&mut self, node: NodeId, up: bool) {
        if self.topo.node(node).up != up {
            self.topo.node_mut(node).up = up;
            self.reroute_all();
        }
    }

    /// Change a link's capacity (degradation scenarios). Dirties only the
    /// link's two directed resources — routes are hop-count shortest paths,
    /// so capacity changes never invalidate the route cache.
    pub fn set_link_capacity(&mut self, link: LinkId, capacity: f64) {
        self.topo.link_mut(link).capacity = capacity;
        for d in [Dir::Fwd, Dir::Rev] {
            if let Some(&r) = self.res_ids.get(&ResKey::LinkDir(link, d)) {
                self.dirty_res.push(r);
            }
        }
    }

    /// Change a link's loss rate (congestion scenarios). Refreshes the
    /// cached path loss of the flows actually crossing the link — found
    /// through the link's member lists, not a scan — so their Mathis caps
    /// track the new conditions; other flows are untouched.
    pub fn set_link_loss(&mut self, link: LinkId, loss: f64) {
        self.topo.set_link_loss(link, loss);
        let mut touched: Vec<u64> = Vec::new();
        for d in [Dir::Fwd, Dir::Rev] {
            if let Some(&r) = self.res_ids.get(&ResKey::LinkDir(link, d)) {
                touched.extend_from_slice(&self.members[r as usize]);
            }
        }
        touched.sort_unstable();
        touched.dedup();
        for id in touched {
            let f = self.flows[id as usize].as_mut().expect("live flow");
            f.loss = self.topo.route_loss(&f.route);
            f.cap = f.current_cap();
            self.dirty_flows.push(id);
        }
    }

    fn reroute_all(&mut self) {
        // Up-state changed somewhere: every cached path may be invalid.
        self.route_cache.clear();
        // Every active flow is re-attached below, in ascending id order, so
        // each member list is rebuilt sorted by appending alone.
        self.members.iter_mut().for_each(Vec::clear);
        let ids: Vec<u64> = self.active.iter().copied().collect();
        for id in ids {
            let spec = self.flow(id).spec;
            match self.cached_route(spec.src, spec.dst) {
                Some((route, rtt)) => {
                    let loss = self.topo.route_loss(&route);
                    let keys = resource_keys_for(&spec, &route, &self.topo);
                    let res = self.intern_all(&keys);
                    for &r in &res {
                        self.members[r as usize].push(id);
                    }
                    let last = self.last_advance;
                    let events = &mut self.events;
                    let f = self.flows[id as usize].as_mut().expect("live flow");
                    f.rtt = rtt;
                    f.loss = loss;
                    f.route = route;
                    f.res = res;
                    if f.state == FlowState::Stalled {
                        // A flow resuming after an outage re-enters slow
                        // start. This also discards ramp boundaries frozen
                        // in the past while the flow was stalled, which
                        // would otherwise wedge the kernel's next-event
                        // computation at that past instant.
                        f.started = last;
                        f.ramp_stage = if f.spec.slow_start && !f.rtt.is_zero() {
                            Some(0)
                        } else {
                            None
                        };
                    }
                    f.state = FlowState::Running;
                    f.cap = f.current_cap();
                    // The RTT (and thus any pending boundary) may have
                    // moved; clamp to the strict future so a boundary
                    // already behind the clock still fires (and ramp
                    // catch-up runs) instead of wedging time.
                    let b = f
                        .next_ramp_boundary()
                        .map(|b| b.max(last + SimDuration::from_nanos(1)))
                        .unwrap_or(SimTime::MAX);
                    events.set(EV_RAMP, id, b);
                }
                None => {
                    let last = self.last_advance;
                    let events = &mut self.events;
                    let f = self.flows[id as usize].as_mut().expect("live flow");
                    f.materialize(last);
                    f.route.clear();
                    f.res.clear();
                    f.rate = 0.0;
                    f.state = FlowState::Stalled;
                    events.set(EV_COMPLETE, id, SimTime::MAX);
                    events.set(EV_RAMP, id, SimTime::MAX);
                }
            }
        }
        self.dirty_all = true;
    }

    /// Integrate progress up to `t` using the current allocation. Flows
    /// that finish are marked `Done` and queued for the kernel's drain
    /// (`swap_completed`). Cost is O(log n) per *discontinuity*
    /// (completion or ramp boundary) in `(last_advance, t]`, not O(flows):
    /// clean flows simply keep their anchor and rate. Every discontinuity
    /// due at one instant is applied first and the instant then makes one
    /// re-solve, so the allocation committed there is the max-min solution
    /// of the network after all of them, and rates are exact
    /// piecewise-linear even when `t` jumps past several instants. An
    /// allocation that would hold for zero seconds between two of an
    /// instant's discontinuities is never committed.
    pub fn advance_to(&mut self, t: SimTime) {
        self.ensure_fresh();
        if t <= self.last_advance {
            return;
        }
        while let Some((at, _, _)) = self.events.first() {
            if at > t {
                break;
            }
            self.last_advance = at;
            // Neither step schedules anything at `at`: a completion clears
            // its flow's ramp entry and a crossing keys the next boundary
            // strictly later. Only the pass can (a completion rounding to
            // now), and the outer loop takes that as a second batch.
            while let Some((_, kind, id)) = self.events.first().filter(|e| e.0 == at) {
                self.events.pop_first();
                self.apply_discontinuity(kind, id);
            }
            self.ensure_fresh();
            #[cfg(debug_assertions)]
            self.check_pruned_crossings();
        }
        self.last_advance = t;
    }

    /// The loop `advance_to` replaced, kept as the reference its
    /// differential runs against: one re-solve after every discontinuity,
    /// so an instant with k of them commits k allocations.
    #[cfg(test)]
    fn advance_to_per_event(&mut self, t: SimTime) {
        self.ensure_fresh();
        if t <= self.last_advance {
            return;
        }
        while let Some((at, kind, id)) = self.events.first() {
            if at > t {
                break;
            }
            self.events.pop_first();
            self.last_advance = at;
            self.apply_discontinuity(kind, id);
            self.ensure_fresh();
            #[cfg(debug_assertions)]
            self.check_pruned_crossings();
        }
        self.last_advance = t;
    }

    fn apply_discontinuity(&mut self, kind: u8, id: u64) {
        match kind {
            EV_COMPLETE => self.complete_flow(id),
            _ => self.cross_ramp(id),
        }
    }

    fn complete_flow(&mut self, id: u64) {
        let t = self.last_advance;
        let events = &mut self.events;
        let f = self.flows[id as usize].as_mut().expect("live flow");
        f.bytes_done = f.spec.size;
        f.anchor = t;
        f.rate = 0.0;
        f.state = FlowState::Done;
        events.set(EV_RAMP, id, SimTime::MAX);
        let res = std::mem::take(&mut f.res);
        for r in res {
            remove_member(&mut self.members[r as usize], id);
            self.dirty_res.push(r);
        }
        self.active.remove(&id);
        self.completed.push(FlowId(id));
    }

    /// Cross the slow-start boundaries of `id` that are due, and dirty the
    /// flow unless the cap rise provably moves no rate: `f.cap >= old_cap`
    /// and `f.rate < old_cap`. Why that moves no bit:
    /// - `f.rate` is the rate the last pass solved. If an earlier
    ///   discontinuity of this instant has since dirtied the component,
    ///   the instant's pass re-solves it with the new cap anyway; if none
    ///   has, the component is the one that pass solved, give or take
    ///   other pruned crossings.
    /// - `rate < cap` (strictly) means `WaterFill::solve` froze the flow at
    ///   a bottleneck share, not at its cap. So `caps[i] <= bottleneck_share`
    ///   was false in every round while the flow was unfixed, and neither
    ///   `rate = cap` branch reached it.
    /// - A larger cap leaves every comparison unchanged, however many of
    ///   the component's flows cross at once, so every bit of every rate
    ///   in the component is unchanged.
    ///
    /// Debug builds note the pruned flow and, after the instant's pass,
    /// re-solve its component and hold every member to its rate.
    fn cross_ramp(&mut self, id: u64) {
        let last = self.last_advance;
        let events = &mut self.events;
        let f = self.flows[id as usize].as_mut().expect("live flow");
        let old_cap = f.cap;
        // Cross every boundary at or before now (a clamped stale entry —
        // reroute with a shrunken RTT — can cover several at once).
        while let Some(stage) = f.ramp_stage {
            let boundary = f.started + f.rtt * (stage as u64 + 1);
            if boundary > last {
                break;
            }
            let next = stage + 1;
            let rtt = f.rtt.as_secs_f64();
            let w = INITIAL_WINDOW * 2f64.powi(next as i32);
            if rtt <= 0.0 || w / rtt >= f.steady_cap() {
                f.ramp_stage = None; // ramp complete
            } else {
                f.ramp_stage = Some(next);
            }
        }
        f.cap = f.current_cap();
        let b = f
            .next_ramp_boundary()
            .map(|b| b.max(last + SimDuration::from_nanos(1)))
            .unwrap_or(SimTime::MAX);
        events.set(EV_RAMP, id, b);
        if f.cap >= old_cap && f.rate < old_cap {
            #[cfg(debug_assertions)]
            self.pruned.push(id);
        } else {
            self.dirty_flows.push(id);
        }
    }

    /// Hold the component of every crossing pruned since the last check
    /// to a fresh solve, once the instant's pass has run. A flow may have
    /// left the running set since; the list is reused, not dropped.
    #[cfg(debug_assertions)]
    fn check_pruned_crossings(&mut self) {
        let mut pruned = std::mem::take(&mut self.pruned);
        for &id in &pruned {
            if self.flow_state(FlowId(id)) == Some(FlowState::Running) {
                self.assert_component_rates_hold(id);
            }
        }
        pruned.clear();
        self.pruned = pruned;
    }

    /// Re-solve the component of `id` and assert that every member's rate
    /// is bitwise the one it holds; commits nothing. Partitions from `[id]`
    /// into the pass arena and solves in the solve scratch, both idle
    /// between passes, so a debug build keeps a warm pass free of heap
    /// calls too.
    #[cfg(debug_assertions)]
    fn assert_component_rates_hold(&mut self, id: u64) {
        let mut parts = std::mem::take(&mut self.part_scratch);
        let mut scratch = std::mem::take(&mut self.scratch);
        self.partition_from(&[id], &mut parts);
        let comp = parts.component(0);
        let rates = self.solve_component_rates(comp, &parts.cap_r, &mut scratch);
        for (&fid, &rate) in comp.iter().zip(rates) {
            assert_eq!(
                rate.to_bits(),
                self.flow(fid).rate.to_bits(),
                "pruned crossing of flow {id} moves flow {fid}"
            );
        }
        self.scratch = scratch;
        self.part_scratch = parts;
    }

    /// Drain the set of flows that completed during past advances by
    /// swapping buffers: nothing reallocates.
    pub(crate) fn swap_completed(&mut self, out: &mut Vec<FlowId>) {
        out.clear();
        std::mem::swap(&mut self.completed, out);
    }

    /// The next time anything discontinuous happens inside the network:
    /// a flow completion or a slow-start stage boundary. `SimTime::MAX`
    /// when nothing is pending. The event index is maintained eagerly on
    /// rate changes, so after the freshness check this is a lookup.
    pub fn next_event_time(&mut self) -> SimTime {
        self.ensure_fresh();
        self.events.first().map_or(SimTime::MAX, |(t, _, _)| t)
    }

    /// Seed flows for a recompute, ascending (repeats allowed — the
    /// partitioner skips them): the dirty flows still running, plus the
    /// first member of each dirty resource (whose share changed when its
    /// capacity moved or a sharer departed). A finite resource connects its
    /// members, so the traversal finds the rest; the first is the smallest,
    /// so each component's smallest seed — the emission order — is what
    /// seeding them all gives. One that is not finite (any more) connects
    /// nothing: every member is a seed.
    fn dirty_seeds(&self, seeds: &mut Vec<u64>) {
        seeds.clear();
        let running = |id: u64| {
            self.flows
                .get(id as usize)
                .and_then(|s| s.as_ref())
                .is_some_and(|f| f.state == FlowState::Running)
        };
        if self.dirty_all {
            // `active` iterates ascending: nothing to sort.
            seeds.extend(self.active.iter().copied().filter(|&id| running(id)));
            return;
        }
        seeds.extend(self.dirty_flows.iter().copied().filter(|&id| running(id)));
        for &r in &self.dirty_res {
            let finite = self.capacity_of(self.res_keys[r as usize]).is_finite();
            let n = if finite { 1 } else { usize::MAX };
            seeds.extend(self.members[r as usize].iter().take(n));
        }
        seeds.sort_unstable();
    }

    /// Partition everything reachable from the dirty sets into the
    /// partition arena. False when no running flow is affected, i.e. there
    /// is nothing to solve.
    fn partition_dirty(&mut self) -> bool {
        let mut seeds = std::mem::take(&mut self.seeds);
        self.dirty_seeds(&mut seeds);
        let any = !seeds.is_empty();
        if any {
            let mut parts = std::mem::take(&mut self.part_scratch);
            self.partition_from(&seeds, &mut parts);
            self.part_scratch = parts;
        }
        self.seeds = seeds;
        any
    }

    /// Partition the live flow↔resource graph reachable from `seeds`
    /// (ascending) into `parts`.
    fn partition_from(&self, seeds: &[u64], parts: &mut PartitionScratch) {
        partition_components(
            seeds,
            self.res_keys.len(),
            self.next_id,
            parts,
            |f| self.flow(f).res.as_slice(),
            |r, visit| self.members[r as usize].iter().for_each(|&g| visit(g)),
            |r| self.capacity_of(self.res_keys[r as usize]),
        );
    }

    /// Assemble one component as a self-contained max-min fair subproblem
    /// — CSR, straight into the scratch's `WaterFill` — and solve it there,
    /// against an immutable view of the network. Assembly order is
    /// canonical — flows ascending by id, resources interned by first
    /// encounter — so the same component always produces the same bits no
    /// matter what else is recomputed around it. Capacities are those the
    /// partition recorded (`cap_r`), caps those kept on the flows; debug
    /// builds hold both to the live functions on every pass.
    fn solve_component_rates<'s>(
        &self,
        comp: &[u64],
        cap_r: &[f64],
        scratch: &'s mut SolveScratch,
    ) -> &'s [f64] {
        scratch.begin(self.res_keys.len());
        for &fid in comp {
            let f = self.flow(fid);
            for &r in &f.res {
                let cap = cap_r[r as usize];
                debug_assert_eq!(
                    cap.to_bits(),
                    self.capacity_of(self.res_keys[r as usize]).to_bits()
                );
                if !cap.is_finite() {
                    continue; // unconstrained resources don't participate
                }
                let local = scratch.intern(r, cap);
                scratch.fill.push_flow_resource(local);
            }
            debug_assert_eq!(f.cap.to_bits(), f.current_cap().to_bits());
            scratch.fill.end_flow(f.cap);
        }
        scratch.fill.solve()
    }

    /// Commit one solved component: flows whose rate changed *bitwise*
    /// materialize their progress at the present and re-key their
    /// completion entry; unchanged flows are untouched (same anchor, same
    /// pending events), which is what keeps byte progress bit-identical
    /// however many clean components a pass happens to re-solve.
    fn apply_rates(&mut self, comp: &[u64], rates: &[f64]) {
        let t = self.last_advance;
        let mut changes = 0;
        for (&fid, &rate) in comp.iter().zip(rates) {
            let f = self.flows[fid as usize].as_mut().expect("live flow");
            if rate.to_bits() == f.rate.to_bits() {
                continue;
            }
            f.materialize(t);
            f.rate = rate;
            // Not finite for rate 0, for an unbounded flow, and for a rate
            // so small the quotient overflows: none of them ever completes.
            let secs = (f.spec.size - f.bytes_done).max(0.0) / rate;
            let at = if secs.is_finite() {
                f.anchor + SimDuration::from_secs_f64(secs)
            } else {
                SimTime::MAX
            };
            self.events.set(EV_COMPLETE, fid, at);
            changes += 1;
        }
        self.stats.rate_changes += changes;
        self.stats.components_solved += 1;
        self.stats.flow_solves += comp.len() as u64;
    }

    /// Solve and commit, in ascending component order, every component of
    /// the partition arena holding a flow `wanted` accepts — the one solve
    /// loop, behind full and scoped refreshes alike. Components are read in
    /// place and rates come back as a slice of the scratch: the loop itself
    /// allocates nothing.
    fn solve_components(&mut self, wanted: impl Fn(u64, &FlowRt) -> bool) {
        let parts = std::mem::take(&mut self.part_scratch);
        let mut scratch = std::mem::take(&mut self.scratch);
        for k in 0..parts.len() {
            let comp = parts.component(k);
            if comp.iter().any(|&f| wanted(f, self.flow(f))) {
                let rates = self.solve_component_rates(comp, &parts.cap_r, &mut scratch);
                self.apply_rates(comp, rates);
            }
        }
        self.scratch = scratch;
        self.part_scratch = parts;
    }

    /// Recompute the allocation for every dirty component. A burst of
    /// mutations between two queries coalesces into one pass here.
    fn ensure_fresh(&mut self) {
        if !self.is_dirty() {
            return;
        }
        let any = self.partition_dirty();
        self.dirty_all = false;
        self.dirty_flows.clear();
        self.dirty_res.clear();
        if any {
            self.stats.recompute_passes += 1;
            self.solve_components(|_, _| true);
        }
    }

    /// Refresh only the dirty components for which `wanted` matches a
    /// member flow. The dirty set is left intact (re-solving a component
    /// later is idempotent: same subproblem, same bits), so an unrelated
    /// read never forces — or absorbs — work belonging to other parts of
    /// the network.
    fn refresh_scoped(&mut self, wanted: impl Fn(u64, &FlowRt) -> bool) {
        if !self.is_dirty() {
            return;
        }
        if self.dirty_all {
            self.ensure_fresh();
        } else if self.partition_dirty() {
            self.solve_components(wanted);
        }
    }

    /// Fraction of a host's CPU byte-processing budget currently consumed
    /// by its flows (0.0 = idle, 1.0 = saturated). This is the "available
    /// CPU percentage" signal NWS's CPU sensor reports, and what §7 means
    /// by "the CPU was running at near 100% capacity". Read-only and
    /// scoped: only components touching this host are refreshed, and the
    /// sum runs over the member list of the host's CPU resource, not over
    /// every flow in the network.
    pub fn host_cpu_utilization(&mut self, node: NodeId) -> f64 {
        let budget = self.topo.node(node).cpu.max_byte_rate();
        if !budget.is_finite() {
            return 0.0;
        }
        self.refresh_scoped(|_, f| f.spec.src == node || f.spec.dst == node);
        let used: f64 = match self.res_ids.get(&ResKey::Cpu(node)) {
            Some(&r) => self.members[r as usize]
                .iter()
                .map(|&id| self.flow(id).rate)
                .sum(),
            None => 0.0,
        };
        (used / budget).min(1.0)
    }

    /// Force an allocation recompute and return the current rate of every
    /// running flow (for instrumentation snapshots).
    pub fn snapshot_rates(&mut self) -> Vec<(FlowId, f64)> {
        self.ensure_fresh();
        self.active
            .iter()
            .filter(|&&id| self.flow(id).state == FlowState::Running)
            .map(|&id| (FlowId(id), self.flow(id).rate))
            .collect()
    }

    /// From-scratch reference allocation for differential tests: rebuilds
    /// the flow↔resource graph directly from routes and topology (ignoring
    /// the persistent index entirely), partitions it into components, and
    /// solves each with the same canonical assembly the incremental path
    /// uses. A correct incremental allocator must match this bit-for-bit.
    pub fn oracle_rates(&self) -> Vec<(FlowId, f64)> {
        let mut key_ids: HashMap<ResKey, u32> = HashMap::new();
        let mut keys: Vec<ResKey> = Vec::new();
        let mut members: Vec<Vec<u64>> = Vec::new();
        let mut flow_res: BTreeMap<u64, Vec<u32>> = BTreeMap::new();
        let mut running: Vec<u64> = Vec::new(); // ascending, as `active` is
        for &id in &self.active {
            let f = self.flow(id);
            if f.state != FlowState::Running {
                continue;
            }
            running.push(id);
            let rkeys = resource_keys_for(&f.spec, &f.route, &self.topo);
            let mut rs: Vec<u32> = Vec::with_capacity(rkeys.len());
            for key in rkeys {
                let next = keys.len() as u32;
                let rid = *key_ids.entry(key).or_insert_with(|| {
                    keys.push(key);
                    members.push(Vec::new());
                    next
                });
                rs.push(rid);
            }
            for &r in &rs {
                members[r as usize].push(id);
            }
            flow_res.insert(id, rs);
        }
        // The oracle is deliberately free of persistent state: it pays for
        // a fresh scratch every call, which is fine at test frequency.
        let mut ps = PartitionScratch::default();
        partition_components(
            &running,
            keys.len(),
            self.next_id,
            &mut ps,
            |f| flow_res[&f].as_slice(),
            |r, visit| {
                for &g in &members[r as usize] {
                    visit(g);
                }
            },
            |r| self.capacity_of(keys[r as usize]),
        );
        let mut out: Vec<(FlowId, f64)> = Vec::new();
        for k in 0..ps.len() {
            let comp = ps.component(k);
            let mut local: HashMap<u32, usize> = HashMap::new();
            let mut capacities: Vec<f64> = Vec::new();
            let mut aflows: Vec<AllocFlow> = Vec::with_capacity(comp.len());
            for &fid in comp {
                let mut rs: Vec<usize> = Vec::new();
                for &r in &flow_res[&fid] {
                    let cap = self.capacity_of(keys[r as usize]);
                    if !cap.is_finite() {
                        continue;
                    }
                    let next = local.len();
                    let lid = *local.entry(r).or_insert_with(|| {
                        capacities.push(cap);
                        next
                    });
                    rs.push(lid);
                }
                rs.sort_unstable();
                aflows.push(AllocFlow {
                    resources: rs,
                    cap: self.flow(fid).current_cap(),
                });
            }
            let rates = max_min_fair(&capacities, &aflows);
            for (&fid, rate) in comp.iter().zip(rates) {
                out.push((FlowId(fid), rate));
            }
        }
        out.sort_by_key(|&(id, _)| id);
        out
    }

    pub fn now(&self) -> SimTime {
        self.last_advance
    }
}
#[cfg(test)]
mod tests {
    use super::*;
    use crate::network::Node;

    impl FlowSpec {
        /// A cached data channel keeps its congestion window: no ramp.
        fn cached_channel(mut self) -> Self {
            self.slow_start = false;
            self
        }
    }

    fn dumbbell(capacity: f64, latency_ms: u64) -> (FlowNet, NodeId, NodeId) {
        let mut t = Topology::new();
        let a = t.add_node(Node::host("a"));
        let b = t.add_node(Node::host("b"));
        t.add_link(a, b, capacity, SimDuration::from_millis(latency_ms));
        (FlowNet::new(t), a, b)
    }

    fn big_window_spec(a: NodeId, b: NodeId, size: f64) -> FlowSpec {
        FlowSpec::new(a, b, size).window(1e12).memory_to_memory()
    }

    /// A star of sites around a core router, each site one host on its own
    /// link. Returns (core, site hosts).
    fn star_sites(
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

    #[test]
    fn single_flow_completes_at_line_rate() {
        let (mut net, a, b) = dumbbell(100e6, 0);
        // Zero latency: no slow-start ramp, rate = link capacity.
        let id = net
            .start_flow(SimTime::ZERO, big_window_spec(a, b, 100e6))
            .unwrap();
        let t = net.next_event_time();
        assert!((t.as_secs_f64() - 1.0).abs() < 1e-6, "{t}");
        net.advance_to(t);
        assert_eq!(net.flow_state(id), Some(FlowState::Done));
        assert_eq!(std::mem::take(&mut net.completed), vec![id]);
    }

    #[test]
    fn two_flows_halve_throughput() {
        let (mut net, a, b) = dumbbell(100e6, 0);
        let f1 = net
            .start_flow(SimTime::ZERO, big_window_spec(a, b, f64::INFINITY))
            .unwrap();
        let f2 = net
            .start_flow(SimTime::ZERO, big_window_spec(a, b, f64::INFINITY))
            .unwrap();
        assert!((net.flow_rate(f1) - 50e6).abs() < 1.0);
        assert!((net.flow_rate(f2) - 50e6).abs() < 1.0);
    }

    #[test]
    fn window_limits_flow_below_link() {
        let (mut net, a, b) = dumbbell(1e9, 50); // 100 ms RTT
        let spec = FlowSpec::new(a, b, f64::INFINITY)
            .window(1e6)
            .memory_to_memory()
            .cached_channel(); // skip ramp: observe steady state directly
        let id = net.start_flow(SimTime::ZERO, spec).unwrap();
        // window/RTT = 1 MB / 0.1 s = 10 MB/s.
        assert!((net.flow_rate(id) - 10e6).abs() < 1.0);
    }

    #[test]
    fn slow_start_ramp_caps_early_rate() {
        let (mut net, a, b) = dumbbell(1e9, 10); // 20 ms RTT
        let spec = FlowSpec::new(a, b, f64::INFINITY)
            .window(4e6)
            .memory_to_memory();
        let id = net.start_flow(SimTime::ZERO, spec).unwrap();
        let early = net.flow_rate(id);
        // Initial cap = 2*MSS / 20 ms = 146 KB/s.
        assert!(early < 200e3, "early rate {early}");
        net.advance_to(SimTime::from_secs(2));
        let late = net.flow_rate(id);
        assert!(late > 50e6, "steady rate {late}");
    }

    #[test]
    fn cached_channel_skips_ramp() {
        let (mut net, a, b) = dumbbell(1e9, 10);
        let spec = FlowSpec::new(a, b, f64::INFINITY)
            .window(4e6)
            .memory_to_memory()
            .cached_channel();
        let id = net.start_flow(SimTime::ZERO, spec).unwrap();
        assert!(net.flow_rate(id) > 50e6);
    }

    #[test]
    fn link_failure_stalls_and_recovery_resumes() {
        let (mut net, a, b) = dumbbell(100e6, 0);
        let id = net
            .start_flow(SimTime::ZERO, big_window_spec(a, b, 200e6))
            .unwrap();
        net.advance_to(SimTime::from_secs(1)); // 100 MB done
        let done_before = net.flow_bytes(id);
        assert!((done_before - 100e6).abs() < 1.0);

        net.set_link_up(LinkId(0), false);
        assert_eq!(net.flow_state(id), Some(FlowState::Stalled));
        net.advance_to(SimTime::from_secs(5));
        assert_eq!(net.flow_bytes(id), done_before); // no progress while down

        net.set_link_up(LinkId(0), true);
        assert_eq!(net.flow_state(id), Some(FlowState::Running));
        net.advance_to(SimTime::from_secs(6));
        assert_eq!(net.flow_state(id), Some(FlowState::Done));
    }

    #[test]
    fn no_route_is_an_error() {
        let mut t = Topology::new();
        let a = t.add_node(Node::host("a"));
        let b = t.add_node(Node::host("b"));
        // no link
        let mut net = FlowNet::new(t);
        assert_eq!(
            net.start_flow(SimTime::ZERO, FlowSpec::new(a, b, 1.0)),
            Err(FlowError::NoRoute)
        );
    }

    #[test]
    fn host_nic_caps_aggregate() {
        // Fat link, slow NIC at the source: 3 flows to 3 sinks share the NIC.
        let mut t = Topology::new();
        let src = t.add_node(Node::host("src").with_nic(30e6));
        let r = t.add_node(Node::router("r"));
        t.add_link(src, r, 1e9, SimDuration::ZERO);
        let mut sinks = Vec::new();
        for i in 0..3 {
            let s = t.add_node(Node::host(format!("sink{i}")));
            t.add_link(r, s, 1e9, SimDuration::ZERO);
            sinks.push(s);
        }
        let mut net = FlowNet::new(t);
        let flows: Vec<_> = sinks
            .iter()
            .map(|&s| {
                net.start_flow(SimTime::ZERO, big_window_spec(src, s, f64::INFINITY))
                    .unwrap()
            })
            .collect();
        for f in flows {
            assert!((net.flow_rate(f) - 10e6).abs() < 1.0);
        }
    }

    #[test]
    fn disk_constrains_only_disk_flows() {
        let mut t = Topology::new();
        let a = t.add_node(Node::host("a").with_disk(5e6, f64::INFINITY));
        let b = t.add_node(Node::host("b"));
        t.add_link(a, b, 1e9, SimDuration::ZERO);
        let mut net = FlowNet::new(t);
        let disk_flow = net
            .start_flow(
                SimTime::ZERO,
                FlowSpec::new(a, b, f64::INFINITY).window(1e12),
            )
            .unwrap();
        let mem_flow = net
            .start_flow(SimTime::ZERO, big_window_spec(a, b, f64::INFINITY))
            .unwrap();
        assert!((net.flow_rate(disk_flow) - 5e6).abs() < 1.0);
        assert!(net.flow_rate(mem_flow) > 100e6);
    }

    #[test]
    fn remove_flow_releases_bandwidth() {
        let (mut net, a, b) = dumbbell(100e6, 0);
        let f1 = net
            .start_flow(SimTime::ZERO, big_window_spec(a, b, f64::INFINITY))
            .unwrap();
        let f2 = net
            .start_flow(SimTime::ZERO, big_window_spec(a, b, f64::INFINITY))
            .unwrap();
        assert!((net.flow_rate(f1) - 50e6).abs() < 1.0);
        net.remove_flow(f2);
        assert!((net.flow_rate(f1) - 100e6).abs() < 1.0);
    }

    #[test]
    fn parallel_streams_beat_one_on_lossy_path() {
        // Loss-limited path: N streams get ~N x the Mathis bound, the
        // mechanism behind GridFTP's parallel transfers.
        let mut t = Topology::new();
        let a = t.add_node(Node::host("a"));
        let b = t.add_node(Node::host("b"));
        let l = t.add_link(a, b, 1e9, SimDuration::from_millis(25));
        t.set_link_loss(l, 0.001);
        let mut net = FlowNet::new(t);
        let spec = FlowSpec::new(a, b, f64::INFINITY)
            .window(1e9)
            .memory_to_memory()
            .cached_channel();
        let single = net.start_flow(SimTime::ZERO, spec).unwrap();
        let r1 = net.flow_rate(single);
        for _ in 0..3 {
            net.start_flow(SimTime::ZERO, spec).unwrap();
        }
        let total: f64 = net.snapshot_rates().iter().map(|(_, r)| r).sum();
        assert!(
            total > 3.5 * r1,
            "4 streams should ~4x a loss-limited stream: {total} vs {r1}"
        );
    }

    #[test]
    fn next_event_reports_ramp_boundaries() {
        let (mut net, a, b) = dumbbell(1e9, 10);
        net.start_flow(
            SimTime::ZERO,
            FlowSpec::new(a, b, f64::INFINITY).memory_to_memory(),
        )
        .unwrap();
        // First ramp boundary at one RTT (20 ms).
        let next = net.next_event_time();
        assert_eq!(next, SimTime::from_secs_f64(0.020));
    }

    #[test]
    fn cpu_utilization_tracks_flows() {
        let mut t = Topology::new();
        let cpu = crate::network::CpuModel {
            cycles_per_sec: 800e6,
            cycles_per_byte: 8.0,
            coalescing_factor: 1.0,
            jumbo_frames: false,
        }; // budget = 100 MB/s
        let a = t.add_node(Node::host("a").with_cpu(cpu));
        let b = t.add_node(Node::host("b"));
        t.add_link(a, b, 50e6, SimDuration::ZERO);
        let mut net = FlowNet::new(t);
        assert_eq!(net.host_cpu_utilization(a), 0.0);
        let id = net
            .start_flow(
                SimTime::ZERO,
                FlowSpec::new(a, b, f64::INFINITY)
                    .window(1e12)
                    .memory_to_memory(),
            )
            .unwrap();
        // Link-limited flow at 50 MB/s against a 100 MB/s CPU budget.
        let u = net.host_cpu_utilization(a);
        assert!((u - 0.5).abs() < 1e-6, "{u}");
        // Router/unlimited node reports 0.
        assert_eq!(net.host_cpu_utilization(b), 0.0);
        net.remove_flow(id);
        assert_eq!(net.host_cpu_utilization(a), 0.0);
    }

    #[test]
    fn advance_is_idempotent_for_same_time() {
        let (mut net, a, b) = dumbbell(100e6, 0);
        let id = net
            .start_flow(SimTime::ZERO, big_window_spec(a, b, f64::INFINITY))
            .unwrap();
        net.advance_to(SimTime::from_secs(1));
        let bytes = net.flow_bytes(id);
        net.advance_to(SimTime::from_secs(1));
        assert_eq!(net.flow_bytes(id), bytes);
    }

    // ---- incremental-allocator specific tests ----

    /// Two disjoint dumbbells inside one FlowNet: a↔b and c↔d.
    fn twin_dumbbells() -> (FlowNet, NodeId, NodeId, NodeId, NodeId) {
        let mut t = Topology::new();
        let a = t.add_node(Node::host("a"));
        let b = t.add_node(Node::host("b"));
        let c = t.add_node(Node::host("c"));
        let d = t.add_node(Node::host("d"));
        t.add_link(a, b, 100e6, SimDuration::ZERO);
        t.add_link(c, d, 100e6, SimDuration::ZERO);
        (FlowNet::new(t), a, b, c, d)
    }

    #[test]
    fn scoped_query_skips_non_adjacent_components() {
        let (mut net, a, b, c, d) = twin_dumbbells();
        let fab = net
            .start_flow(SimTime::ZERO, big_window_spec(a, b, f64::INFINITY))
            .unwrap();
        let _fcd = net
            .start_flow(SimTime::ZERO, big_window_spec(c, d, f64::INFINITY))
            .unwrap();
        net.snapshot_rates(); // settle both components
        let base = net.alloc_stats();

        // Dirty only the c↔d component.
        let fcd2 = net
            .start_flow(SimTime::ZERO, big_window_spec(c, d, f64::INFINITY))
            .unwrap();
        // Reading the a↔b flow must not solve anything.
        assert!((net.flow_rate(fab) - 100e6).abs() < 1.0);
        assert_eq!(net.alloc_stats().components_solved, base.components_solved);
        // Reading the dirty component solves exactly one component.
        assert!((net.flow_rate(fcd2) - 50e6).abs() < 1.0);
        assert_eq!(
            net.alloc_stats().components_solved,
            base.components_solved + 1
        );
        // Querying CPU on a non-adjacent host also solves nothing further.
        net.host_cpu_utilization(a);
        assert_eq!(
            net.alloc_stats().components_solved,
            base.components_solved + 1
        );
    }

    #[test]
    fn burst_of_arrivals_coalesces_into_one_pass() {
        let (mut net, a, b) = dumbbell(100e6, 0);
        net.start_flow(SimTime::ZERO, big_window_spec(a, b, f64::INFINITY))
            .unwrap();
        net.snapshot_rates();
        let base = net.alloc_stats();
        for _ in 0..16 {
            net.start_flow(SimTime::ZERO, big_window_spec(a, b, f64::INFINITY))
                .unwrap();
        }
        net.snapshot_rates();
        let after = net.alloc_stats();
        assert_eq!(after.recompute_passes, base.recompute_passes + 1);
        assert_eq!(after.components_solved, base.components_solved + 1);
    }

    #[test]
    fn route_cache_hits_and_invalidates() {
        let (mut net, a, b) = dumbbell(100e6, 0);
        net.start_flow(SimTime::ZERO, big_window_spec(a, b, 1e6))
            .unwrap();
        let s = net.alloc_stats();
        assert_eq!((s.route_cache_hits, s.route_cache_misses), (0, 1));
        net.start_flow(SimTime::ZERO, big_window_spec(a, b, 1e6))
            .unwrap();
        assert_eq!(net.alloc_stats().route_cache_hits, 1);
        // Topology up-state change clears the cache.
        net.set_link_up(LinkId(0), false);
        net.set_link_up(LinkId(0), true);
        net.start_flow(SimTime::ZERO, big_window_spec(a, b, 1e6))
            .unwrap();
        // reroute_all repopulated the cache for (a, b) while the link was
        // re-routed, so this start is a hit against the fresh entry; the
        // miss counter moved during the reroutes instead.
        assert!(net.alloc_stats().route_cache_misses >= 2);
    }

    #[test]
    fn no_route_is_cached_and_cleared_on_recovery() {
        let (mut net, a, b) = dumbbell(100e6, 0);
        net.set_link_up(LinkId(0), false);
        assert_eq!(
            net.start_flow(SimTime::ZERO, FlowSpec::new(a, b, 1.0)),
            Err(FlowError::NoRoute)
        );
        assert_eq!(
            net.start_flow(SimTime::ZERO, FlowSpec::new(a, b, 1.0)),
            Err(FlowError::NoRoute)
        );
        net.set_link_up(LinkId(0), true);
        assert!(net
            .start_flow(SimTime::ZERO, FlowSpec::new(a, b, 1.0))
            .is_ok());
    }

    /// One `snapshot_rates()`, bitwise equal to the from-scratch oracle.
    fn assert_matches_oracle(net: &mut FlowNet) {
        let inc = net.snapshot_rates();
        let ora = net.oracle_rates();
        assert_eq!(inc.len(), ora.len());
        for ((fi, ri), (fo, ro)) in inc.iter().zip(&ora) {
            assert_eq!(fi, fo);
            assert_eq!(ri.to_bits(), ro.to_bits(), "flow {fi:?}: {ri} vs {ro}");
        }
    }

    #[test]
    fn incremental_matches_oracle_through_mutations() {
        let (mut net, a, b, c, d) = twin_dumbbells();
        let f1 = net
            .start_flow(SimTime::ZERO, big_window_spec(a, b, 500e6))
            .unwrap();
        net.start_flow(SimTime::ZERO, big_window_spec(c, d, f64::INFINITY))
            .unwrap();
        net.start_flow(SimTime::ZERO, big_window_spec(a, b, f64::INFINITY))
            .unwrap();
        assert_matches_oracle(&mut net);
        net.advance_to(SimTime::from_secs(2));
        assert_matches_oracle(&mut net);
        net.set_link_capacity(LinkId(1), 40e6);
        assert_matches_oracle(&mut net);
        net.remove_flow(f1);
        assert_matches_oracle(&mut net);
        net.set_link_up(LinkId(0), false);
        assert_matches_oracle(&mut net);
        net.set_link_up(LinkId(0), true);
        assert_matches_oracle(&mut net);
    }

    #[test]
    fn capacity_change_dirties_only_its_component() {
        let (mut net, a, b, c, d) = twin_dumbbells();
        let fab = net
            .start_flow(SimTime::ZERO, big_window_spec(a, b, f64::INFINITY))
            .unwrap();
        let fcd = net
            .start_flow(SimTime::ZERO, big_window_spec(c, d, f64::INFINITY))
            .unwrap();
        net.snapshot_rates();
        let base = net.alloc_stats();
        net.set_link_capacity(LinkId(1), 30e6); // the c↔d link
        net.snapshot_rates();
        let after = net.alloc_stats();
        assert_eq!(after.components_solved, base.components_solved + 1);
        assert!((net.flow_rate(fcd) - 30e6).abs() < 1.0);
        assert!((net.flow_rate(fab) - 100e6).abs() < 1.0);
    }

    #[test]
    fn completion_redistributes_to_sharers() {
        let (mut net, a, b) = dumbbell(100e6, 0);
        let short = net
            .start_flow(SimTime::ZERO, big_window_spec(a, b, 50e6))
            .unwrap();
        let long = net
            .start_flow(SimTime::ZERO, big_window_spec(a, b, f64::INFINITY))
            .unwrap();
        // Both at 50 MB/s; the short one finishes at t=1 and the survivor
        // takes the whole link.
        let t = net.next_event_time();
        net.advance_to(t);
        assert_eq!(net.flow_state(short), Some(FlowState::Done));
        assert!((net.flow_rate(long) - 100e6).abs() < 1.0);
    }

    // ---- seed-rule tests ----

    #[test]
    fn seeds_are_one_per_dirty_finite_resource() {
        // Four sites feed one destination host: 48 flows in one component
        // through its access link, NIC and disk.
        // Every resource is finite, as on the paper's testbed hosts.
        let mut t = Topology::new();
        let lat = [5u64, 10, 15, 20, 25].map(SimDuration::from_millis);
        let (_, hosts) = star_sites(&mut t, &["dst", "s0", "s1", "s2", "s3"], 100e6, &lat);
        for &h in &hosts {
            let n = t.node_mut(h);
            n.nic_rate = 125e6;
            n.cpu = crate::network::CpuModel::year2000_workstation();
            (n.disk_read_rate, n.disk_write_rate) = (90e6, 60e6);
        }
        let dst = hosts[0];
        let mut net = FlowNet::new(t);
        for i in 0..48u64 {
            let spec = FlowSpec::new(hosts[1 + i as usize % 4], dst, 20e6 + i as f64 * 1e6)
                .window(4e6)
                .cached_channel();
            net.start_flow(SimTime::ZERO, spec).unwrap();
        }
        net.snapshot_rates();
        let base = net.alloc_stats();
        assert_eq!((base.components_solved, base.flow_solves), (1, 48));

        // The first completion dirties the resources the finished flow sat
        // on and no flow: one seed per resource names the component.
        let (at, kind, id) = net.events.first().unwrap();
        assert_eq!(kind, EV_COMPLETE);
        let dirty_res = net.flow(id).res.len();
        assert!(dirty_res >= 4, "{dirty_res}");
        net.advance_to(at);
        assert_eq!(std::mem::take(&mut net.completed), vec![FlowId(id)]);
        assert!(!net.seeds.is_empty() && net.seeds.len() <= dirty_res);
        // What seeding every member of every dirty resource solves.
        let after = net.alloc_stats();
        assert_eq!(after.recompute_passes, base.recompute_passes + 1);
        assert_eq!((after.components_solved, after.flow_solves), (2, 95));
        assert_matches_oracle(&mut net);
    }

    #[test]
    fn capacity_turning_infinite_reseeds_every_former_sharer() {
        // Three flows share one link and nothing else finite.
        let (mut net, a, b) = dumbbell(90e6, 10);
        let flows: Vec<FlowId> = [100e6, 200e6, 300e6]
            .iter()
            .map(|&w| {
                let spec = FlowSpec::new(a, b, f64::INFINITY)
                    .window(w)
                    .memory_to_memory()
                    .cached_channel();
                net.start_flow(SimTime::ZERO, spec).unwrap()
            })
            .collect();
        let shared = vec![30e6; 3];
        let rates = |net: &mut FlowNet| -> Vec<f64> {
            net.snapshot_rates().iter().map(|&(_, r)| r).collect()
        };
        assert_eq!(rates(&mut net), shared);
        let base = net.alloc_stats().components_solved;
        // Infinite, the link connects nothing: each former sharer is its
        // own component and must be seeded by name to reach its cap.
        net.set_link_capacity(LinkId(0), f64::INFINITY);
        assert_matches_oracle(&mut net);
        let caps: Vec<f64> = flows.iter().map(|&f| net.flow(f.0).current_cap()).collect();
        assert_eq!(rates(&mut net), caps);
        assert_eq!(net.alloc_stats().components_solved, base + 3);
        // Finite again, they share again.
        net.set_link_capacity(LinkId(0), 90e6);
        assert_matches_oracle(&mut net);
        assert_eq!(rates(&mut net), shared);
        assert_eq!(net.alloc_stats().components_solved, base + 3 + 1);
    }

    // ---- pruned-crossing tests ----

    #[test]
    fn pruned_crossing_of_a_bottlenecked_flow_makes_no_pass() {
        // A cached channel and a ramping flow share a 100 kB/s link, 20 ms
        // RTT. From its first cap on (2 MSS / RTT, 146 kB/s) the ramping
        // flow is held to its 50 kB/s share, so no boundary it crosses can
        // move a bit: every one of them is stepped without a pass.
        let (mut net, a, b) = dumbbell(100e3, 10);
        let spec = FlowSpec::new(a, b, f64::INFINITY)
            .window(1e6)
            .memory_to_memory();
        net.start_flow(SimTime::ZERO, spec.cached_channel())
            .unwrap();
        let ramping = net.start_flow(SimTime::ZERO, spec).unwrap().0;
        assert_matches_oracle(&mut net);
        let base = net.alloc_stats();
        let mut crossings = 0;
        while net.flow(ramping).ramp_stage.is_some() {
            let f = net.flow(ramping);
            assert!(f.rate < f.cap, "{} vs {}", f.rate, f.cap);
            let at = net.next_event_time();
            assert_eq!(net.events.first(), Some((at, EV_RAMP, ramping)));
            net.advance_to(at);
            crossings += 1;
            assert_eq!(net.alloc_stats(), base, "crossing {crossings}");
            assert_matches_oracle(&mut net);
        }
        // 2 MSS doubles nine times before the 1 MB window caps it.
        assert_eq!(crossings, 9);
        assert_eq!(net.alloc_stats(), base);
    }

    #[test]
    fn pruned_crossing_never_skips_a_cap_limited_flow() {
        // The same ramping flow alone on a fast link runs at its cap, so
        // every boundary raises its rate: exactly one pass each.
        let (mut net, a, b) = dumbbell(1e9, 10);
        let spec = FlowSpec::new(a, b, f64::INFINITY)
            .window(1e6)
            .memory_to_memory();
        let id = net.start_flow(SimTime::ZERO, spec).unwrap().0;
        assert_matches_oracle(&mut net);
        let mut crossings = 0;
        while net.flow(id).ramp_stage.is_some() {
            let f = net.flow(id);
            assert_eq!(f.rate, f.cap);
            let before = net.alloc_stats();
            let at = net.next_event_time();
            net.advance_to(at);
            crossings += 1;
            let after = net.alloc_stats();
            assert_eq!(after.recompute_passes, before.recompute_passes + 1);
            assert_eq!(after.rate_changes, before.rate_changes + 1);
            assert_matches_oracle(&mut net);
        }
        assert_eq!(crossings, 9);
    }

    // ---- member-list tests ----

    /// Every member list ascending and holding exactly the running flows
    /// whose resource list names it.
    fn assert_members_exact(net: &FlowNet) {
        let mut want: Vec<Vec<u64>> = vec![Vec::new(); net.res_keys.len()];
        for &id in &net.active {
            for &r in &net.flow(id).res {
                want[r as usize].push(id);
            }
        }
        assert_eq!(net.members, want);
    }

    #[test]
    fn members_stay_ascending_through_an_outage_reroute() {
        // Triangle a–b, a–c, c–b. Flow 0 goes a→b direct; when that link
        // fails it joins flow 2 (c→b) on c→b, ahead of it in id order
        // though it arrives there last.
        let mut t = Topology::new();
        let [a, b, c] = ["a", "b", "c"].map(|n| t.add_node(Node::host(n)));
        let direct = t.add_link(a, b, 100e6, SimDuration::from_millis(5));
        t.add_link(a, c, 100e6, SimDuration::from_millis(5));
        let cb_link = t.add_link(c, b, 100e6, SimDuration::from_millis(5));
        let mut net = FlowNet::new(t);
        for (s, d) in [(a, b), (a, c), (c, b)] {
            net.start_flow(SimTime::ZERO, big_window_spec(s, d, f64::INFINITY))
                .unwrap();
        }
        let cb = net.res_ids[&ResKey::LinkDir(cb_link, Dir::Fwd)] as usize;
        assert_eq!(net.members[cb], [2]);
        assert_members_exact(&net);
        net.set_link_up(direct, false);
        assert_eq!(net.members[cb], [0, 2]);
        assert_members_exact(&net);
        assert_matches_oracle(&mut net);
        net.set_link_up(direct, true);
        assert_eq!(net.members[cb], [2]);
        assert_members_exact(&net);
        assert_matches_oracle(&mut net);
    }

    #[test]
    fn members_removal_of_an_absent_id_changes_nothing() {
        let mut list = vec![1, 4, 9, 16];
        remove_member(&mut list, 5);
        remove_member(&mut list, 20);
        assert_eq!(list, [1, 4, 9, 16]);
        remove_member(&mut list, 4);
        assert_eq!(list, [1, 9, 16]);

        // Through the network: a stalled flow sits on no list, so removing
        // it, or removing any flow twice, leaves every list as it was.
        let (mut net, a, b, c, d) = twin_dumbbells();
        let stalled = net
            .start_flow(SimTime::ZERO, big_window_spec(a, b, f64::INFINITY))
            .unwrap();
        let kept: Vec<FlowId> = (0..3)
            .map(|_| {
                net.start_flow(SimTime::ZERO, big_window_spec(c, d, f64::INFINITY))
                    .unwrap()
            })
            .collect();
        net.set_link_up(LinkId(0), false);
        assert_eq!(net.flow_state(stalled), Some(FlowState::Stalled));
        net.remove_flow(stalled);
        net.remove_flow(stalled);
        assert_members_exact(&net);
        for f in [kept[1], kept[1], kept[0], kept[2]] {
            net.remove_flow(f);
            assert_members_exact(&net);
            assert_matches_oracle(&mut net);
        }
        assert!(net.members.iter().all(Vec::is_empty));
    }

    // ---- event-index specific tests ----

    #[test]
    fn stall_resume_and_removal_leave_no_stale_index_entry() {
        let (mut net, a, b) = dumbbell(100e6, 10);
        let spec = FlowSpec::new(a, b, 500e6).window(1e12).memory_to_memory();
        let f1 = net.start_flow(SimTime::ZERO, spec).unwrap();
        let f2 = net.start_flow(SimTime::ZERO, spec).unwrap();
        net.advance_to(SimTime::from_secs_f64(0.05));
        for f in [f1, f2] {
            assert!(net.events.time_of(EV_COMPLETE, f.0).is_some());
            assert!(net.events.time_of(EV_RAMP, f.0).is_some());
        }

        // Stalled flows schedule nothing.
        net.set_link_up(LinkId(0), false);
        assert_eq!(net.events.first(), None);
        assert_eq!(net.next_event_time(), SimTime::MAX);

        // Resuming re-enters slow start: a ramp boundary strictly in the
        // future at once, a completion as soon as rates are solved.
        net.set_link_up(LinkId(0), true);
        assert!(net.events.time_of(EV_RAMP, f1.0).unwrap() > net.now());
        assert_eq!(net.events.time_of(EV_COMPLETE, f1.0), None);
        net.snapshot_rates();
        assert!(net.events.time_of(EV_COMPLETE, f1.0).is_some());

        net.remove_flow(f1);
        assert_eq!(net.events.time_of(EV_COMPLETE, f1.0), None);
        assert_eq!(net.events.time_of(EV_RAMP, f1.0), None);
        assert!(net.events.time_of(EV_COMPLETE, f2.0).is_some());

        // A completion clears the flow's pending ramp entry.
        let spec = FlowSpec::new(a, b, 1e3).window(1e12).memory_to_memory();
        let f3 = net.start_flow(net.now(), spec).unwrap();
        let done = net.next_event_time();
        net.advance_to(done);
        assert_eq!(net.flow_state(f3), Some(FlowState::Done));
        assert_eq!(net.events.time_of(EV_RAMP, f3.0), None);
        net.remove_flow(f2);
        assert_eq!(net.events.first(), None);
    }

    #[test]
    fn completion_past_the_end_of_time_holds_no_entry() {
        let (mut net, a, b) = dumbbell(1.0, 0);
        let id = net
            .start_flow(SimTime::ZERO, big_window_spec(a, b, 1e30))
            .unwrap();
        assert_eq!(net.flow_rate(id), 1.0);
        assert_eq!(net.events.time_of(EV_COMPLETE, id.0), None);
        assert_eq!(net.next_event_time(), SimTime::MAX);
    }

    #[test]
    fn vanishing_rate_parks_the_completion_instead_of_panicking() {
        // `LinkDegrade` fractions multiply, so scenario data can drive a
        // capacity this low; `remaining / rate` then overflows to +inf.
        let (mut net, a, b) = dumbbell(100e6, 0);
        let id = net
            .start_flow(SimTime::ZERO, big_window_spec(a, b, 1e9))
            .unwrap();
        net.advance_to(SimTime::from_secs(1));
        net.set_link_capacity(LinkId(0), 1e-300);
        assert_eq!(net.flow_rate(id), 1e-300);
        assert_eq!(net.events.time_of(EV_COMPLETE, id.0), None);
        assert_eq!(net.next_event_time(), SimTime::MAX);
        // Progress made so far is kept, and the flow finishes once the
        // link is back: 900 MB left at 100 MB/s.
        net.advance_to(SimTime::from_secs(2));
        net.set_link_capacity(LinkId(0), 100e6);
        let done = net.next_event_time();
        assert!((done.as_secs_f64() - 11.0).abs() < 1e-6, "{done}");
        net.advance_to(done);
        assert_eq!(net.flow_state(id), Some(FlowState::Done));
    }

    proptest::proptest! {
        /// The flat arena holds exactly the partition a textbook BFS over
        /// `Vec<Vec<_>>` produces: components in order of their smallest
        /// seed, flows ascending within each, repeated seeds skipped,
        /// infinite resources carrying no connectivity — and a second
        /// partition through the same scratch sees nothing of the first.
        /// The dirty seed list is drawn both ways: every member of each
        /// dirty resource (what the BFS is given), and `dirty_seeds`' rule
        /// — the first member of a finite one, all of an infinite one.
        #[test]
        fn partition_arena_equals_a_naive_bfs(
            flow_res in proptest::collection::vec(proptest::collection::vec(0u32..10, 0..4), 1..40),
            infinite in proptest::collection::vec(0u32..10, 0..3),
            picks in proptest::collection::vec(0usize..40, 0..12),
            dirty_res in proptest::collection::vec(0u32..10, 0..4),
        ) {
            const N_RES: usize = 10;
            let nf = flow_res.len();
            let mut members: Vec<Vec<u64>> = vec![Vec::new(); N_RES];
            for (f, rs) in flow_res.iter().enumerate() {
                for &r in rs {
                    if !members[r as usize].contains(&(f as u64)) {
                        members[r as usize].push(f as u64);
                    }
                }
            }
            let capacity = |r: u32| if infinite.contains(&r) { f64::INFINITY } else { 1e6 + r as f64 };

            let naive_bfs = |seeds: &[u64]| {
                let mut naive: Vec<Vec<u64>> = Vec::new();
                let mut seen = vec![false; nf];
                for &s in seeds {
                    if seen[s as usize] {
                        continue;
                    }
                    seen[s as usize] = true;
                    let mut comp = vec![s];
                    let mut queue = std::collections::VecDeque::from([s]);
                    while let Some(f) = queue.pop_front() {
                        for &r in &flow_res[f as usize] {
                            if infinite.contains(&r) {
                                continue;
                            }
                            for &g in &members[r as usize] {
                                if !seen[g as usize] {
                                    seen[g as usize] = true;
                                    comp.push(g);
                                    queue.push_back(g);
                                }
                            }
                        }
                    }
                    comp.sort_unstable();
                    naive.push(comp);
                }
                naive
            };

            let mut all_members: Vec<u64> = picks.iter().map(|&p| (p % nf) as u64).collect();
            let mut first_member = all_members.clone();
            for &r in &dirty_res {
                let m = &members[r as usize];
                all_members.extend(m);
                if infinite.contains(&r) {
                    first_member.extend(m);
                } else {
                    first_member.extend(m.first());
                }
            }
            all_members.sort_unstable();
            first_member.sort_unstable();
            let every_flow: Vec<u64> = (0..nf as u64).collect();

            let mut scratch = PartitionScratch::default();
            for (seeds, bfs_seeds) in [
                (&all_members, &all_members),
                (&first_member, &all_members),
                (&every_flow, &every_flow),
            ] {
                partition_components(
                    seeds,
                    N_RES,
                    nf as u64,
                    &mut scratch,
                    |f| flow_res[f as usize].as_slice(),
                    |r, visit| members[r as usize].iter().for_each(|&g| visit(g)),
                    capacity,
                );
                let arena: Vec<Vec<u64>> =
                    (0..scratch.len()).map(|k| scratch.component(k).to_vec()).collect();
                proptest::prop_assert_eq!(arena, naive_bfs(bfs_seeds));
                // Assembly finds the capacity of every resource of every
                // flow in the arena on record.
                for &f in &scratch.flows {
                    for &r in &flow_res[f as usize] {
                        proptest::prop_assert_eq!(scratch.seen_r[r as usize], scratch.epoch);
                        proptest::prop_assert_eq!(scratch.cap_r[r as usize], capacity(r));
                    }
                }
            }
        }
    }

    #[test]
    fn one_large_burst_is_one_pass_over_every_region() {
        // The largest pass shape in use (the benchmark's `flow_burst`):
        // 4096 flows dirty at one instant across 256 disjoint regions.
        const REGIONS: usize = 256;
        let mut t = Topology::new();
        let pairs: Vec<(NodeId, NodeId)> = (0..REGIONS)
            .map(|i| {
                let a = t.add_node(Node::host(format!("a{i}")));
                let b = t.add_node(Node::host(format!("b{i}")));
                t.add_link(a, b, 40e6 + i as f64 * 1e6, SimDuration::from_millis(5));
                (a, b)
            })
            .collect();
        let mut net = FlowNet::new(t);
        for j in 0..16 {
            for &(a, b) in &pairs {
                let spec = FlowSpec::new(a, b, f64::INFINITY).window(2e5 * (j + 1) as f64);
                net.start_flow(SimTime::ZERO, spec).unwrap();
            }
        }
        assert_matches_oracle(&mut net);
        let stats = net.alloc_stats();
        assert_eq!(stats.recompute_passes, 1);
        assert_eq!(stats.components_solved, REGIONS as u64);
        assert_eq!(stats.flow_solves, 16 * REGIONS as u64);
        assert_members_exact(&net);
    }

    // ---- same-instant batch tests ----

    #[test]
    fn same_instant_completions_make_one_pass() {
        // Eight equal flows and one unbounded survivor share a link: the
        // eight finish at one instant, and the survivor's rate is solved
        // once there, not once per completion.
        let (mut net, a, b) = dumbbell(90e6, 0);
        let cohort: Vec<FlowId> = (0..8)
            .map(|_| {
                net.start_flow(SimTime::ZERO, big_window_spec(a, b, 20e6))
                    .unwrap()
            })
            .collect();
        let survivor = net
            .start_flow(SimTime::ZERO, big_window_spec(a, b, f64::INFINITY))
            .unwrap();
        assert_matches_oracle(&mut net);
        let base = net.alloc_stats();
        let at = net.next_event_time();
        net.advance_to(at);
        assert_eq!(std::mem::take(&mut net.completed), cohort);
        let after = net.alloc_stats();
        assert_eq!(after.recompute_passes, base.recompute_passes + 1);
        assert_eq!(after.components_solved, base.components_solved + 1);
        assert_eq!(after.flow_solves, base.flow_solves + 1);
        assert_eq!(after.rate_changes, base.rate_changes + 1);
        assert_eq!(net.flow_rate(survivor), 90e6);
        assert_matches_oracle(&mut net);
    }

    #[test]
    fn same_instant_ramp_crossings_make_one_pass() {
        // Four flows started together on one fast path are each held at
        // their cap, so every boundary raises all four rates: one pass per
        // boundary solves the four together.
        const K: u64 = 4;
        let (mut net, a, b) = dumbbell(1e9, 10);
        let spec = FlowSpec::new(a, b, f64::INFINITY)
            .window(1e6)
            .memory_to_memory();
        let ids: Vec<u64> = (0..K)
            .map(|_| net.start_flow(SimTime::ZERO, spec).unwrap().0)
            .collect();
        assert_matches_oracle(&mut net);
        let mut crossings = 0;
        while net.flow(ids[0]).ramp_stage.is_some() {
            let before = net.alloc_stats();
            let at = net.next_event_time();
            for &id in &ids {
                assert_eq!(net.events.time_of(EV_RAMP, id), Some(at));
            }
            net.advance_to(at);
            crossings += 1;
            let after = net.alloc_stats();
            assert_eq!(after.recompute_passes, before.recompute_passes + 1);
            assert_eq!(after.components_solved, before.components_solved + 1);
            assert_eq!(after.flow_solves, before.flow_solves + K);
            assert_eq!(after.rate_changes, before.rate_changes + K);
            assert_matches_oracle(&mut net);
        }
        assert_eq!(crossings, 9);
    }

    /// A random topology for the batch differential: hosts, then links as
    /// (host, host, capacity, latency-ms); self-loops are dropped.
    type DiffTopo = (usize, Vec<(usize, usize, f64, u64)>);

    /// One scripted step: kind, two selectors and a fraction.
    type DiffOp = (u8, usize, usize, f64);

    fn diff_net((n_hosts, links): &DiffTopo) -> (FlowNet, Vec<NodeId>, Vec<LinkId>) {
        let mut t = Topology::new();
        let hosts: Vec<NodeId> = (0..*n_hosts)
            .map(|i| t.add_node(Node::host(format!("h{i}"))))
            .collect();
        let mut lids = Vec::new();
        for &(a, b, cap, lat) in links {
            let (a, b) = (hosts[a % n_hosts], hosts[b % n_hosts]);
            if a != b {
                lids.push(t.add_link(a, b, cap, SimDuration::from_millis(lat)));
            }
        }
        (FlowNet::new(t), hosts, lids)
    }

    /// What a history's two runs disagreed on, where the contract lets
    /// them.
    #[derive(Debug, Default, PartialEq)]
    struct BatchDiff {
        /// Some flow's bytes were not bitwise equal after some step.
        bytes: bool,
        /// Widest byte gap seen, in ulps.
        max_ulps: u64,
        /// Some step completed the same flows in another order.
        order: bool,
        /// Recompute passes made by the batched loop and the reference.
        passes: (u64, u64),
    }

    /// Drive one history through the batched `advance_to` and through
    /// the per-event reference side by side: the `alloc_differential`
    /// script (arrivals, departures, capacity / loss changes, outages,
    /// advances, steps onto the next discontinuity with a scoped read)
    /// plus cohorts, k equal flows started together on one path, which
    /// cross their ramp boundaries and complete at one instant. After
    /// every step the two hold bitwise equal rates, have completed the
    /// same flows at the same instants, and hold bytes within 4 ulp.
    fn run_batch_differential(topo: &DiffTopo, ops: &[DiffOp]) -> BatchDiff {
        let (mut batched, hosts, links) = diff_net(topo);
        let (mut reference, _, _) = diff_net(topo);
        let mut flows: Vec<FlowId> = Vec::new();
        let mut now = SimTime::ZERO;
        let mut diff = BatchDiff::default();
        for &(kind, x, y, v) in ops {
            let mut advance = None;
            let mut read = None;
            match kind % 8 {
                0 | 7 => {
                    let (src, dst) = (hosts[x % hosts.len()], hosts[y % hosts.len()]);
                    if src == dst {
                        continue;
                    }
                    let cohort = kind % 8 == 7;
                    let size = if !cohort && x % 3 == 0 {
                        f64::INFINITY
                    } else {
                        1e6 + v * 1e8
                    };
                    let mut spec = FlowSpec::new(src, dst, size).window(1e5 + v * 1e7);
                    if y % 2 == 0 {
                        spec = spec.memory_to_memory();
                    }
                    if x % 4 == 0 {
                        spec = spec.cached_channel();
                    }
                    for _ in 0..if cohort { 2 + x % 5 } else { 1 } {
                        let started = batched.start_flow(now, spec);
                        assert_eq!(started, reference.start_flow(now, spec));
                        flows.extend(started);
                    }
                }
                1 if !flows.is_empty() => {
                    let id = flows.remove(x % flows.len());
                    batched.remove_flow(id);
                    reference.remove_flow(id);
                }
                2 if !links.is_empty() => {
                    let l = links[x % links.len()];
                    batched.set_link_capacity(l, 1e6 + v * 2e8);
                    reference.set_link_capacity(l, 1e6 + v * 2e8);
                }
                3 if !links.is_empty() => {
                    let l = links[x % links.len()];
                    let up = batched.topo.link(l).up;
                    batched.set_link_up(l, !up);
                    reference.set_link_up(l, !up);
                }
                4 if !links.is_empty() => {
                    let l = links[x % links.len()];
                    batched.set_link_loss(l, v * 0.02);
                    reference.set_link_loss(l, v * 0.02);
                }
                5 => advance = Some(now + SimDuration::from_millis(1 + (x % 400) as u64)),
                6 => {
                    let horizon = now + SimDuration::from_millis(400);
                    advance = Some(batched.next_event_time().min(horizon));
                    read = flows.get(y % flows.len().max(1)).copied();
                }
                _ => {}
            }
            if let Some(t) = advance {
                now = t;
                batched.advance_to(now);
                reference.advance_to_per_event(now);
                let done = |net: &mut FlowNet| -> Vec<(FlowId, SimTime)> {
                    let ids = std::mem::take(&mut net.completed);
                    ids.iter().map(|&f| (f, net.flow(f.0).anchor)).collect()
                };
                let (got, want) = (done(&mut batched), done(&mut reference));
                let sorted = |mut v: Vec<(FlowId, SimTime)>| {
                    v.sort();
                    v
                };
                diff.order |= got != want;
                assert_eq!(sorted(got), sorted(want), "completions at {now}");
            }
            if let Some(f) = read {
                assert_eq!(
                    batched.flow_rate(f).to_bits(),
                    reference.flow_rate(f).to_bits()
                );
            }
            let (got, want) = (batched.snapshot_rates(), reference.snapshot_rates());
            assert_eq!(got.len(), want.len());
            for ((fg, rg), (fw, rw)) in got.iter().zip(&want) {
                assert_eq!(fg, fw);
                assert_eq!(rg.to_bits(), rw.to_bits(), "{fg:?} at {now}: {rg} vs {rw}");
            }
            for &f in &flows {
                let (bg, bw) = (batched.flow_bytes(f), reference.flow_bytes(f));
                let ulps = bg.to_bits().abs_diff(bw.to_bits());
                assert!(ulps <= 4, "{f:?} at {now}: {bg} vs {bw} bytes");
                diff.bytes |= ulps > 0;
                diff.max_ulps = diff.max_ulps.max(ulps);
            }
        }
        diff.passes = (
            batched.alloc_stats().recompute_passes,
            reference.alloc_stats().recompute_passes,
        );
        diff
    }

    proptest::proptest! {
        /// Coalescing an instant's discontinuities into one pass is a
        /// refinement of the per-event loop: the same rates bit for bit,
        /// the same completions at the same instants, the same bytes to
        /// 4 ulp. It only drops allocations that would have held for zero
        /// seconds, whose materialization could round a byte count.
        #[test]
        fn same_instant_batches_match_the_per_event_loop(
            topo in (
                2usize..7,
                proptest::collection::vec(
                    (0usize..7, 0usize..7, 5e6f64..500e6, 0u64..40),
                    1..10,
                ),
            ),
            ops in proptest::collection::vec(
                (0u8..8, 0usize..1 << 16, 0usize..1 << 16, 0.0f64..1.0),
                0..60,
            ),
        ) {
            run_batch_differential(&topo, &ops);
        }
    }

    /// The differential's census: 3 000 histories drawn from a fixed LCG,
    /// counted by what the two loops disagree on inside the contract.
    /// `cargo test --release -p esg-simnet --lib same_instant_census --
    /// --ignored --nocapture`
    #[test]
    #[ignore]
    fn same_instant_census() {
        let mut state = 0x2545_f491_4f6c_dd1du64;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) as usize
        };
        let (mut bytes, mut order, mut max_ulps) = (0, 0, 0);
        let (mut batched, mut reference) = (0, 0);
        const HISTORIES: usize = 3000;
        for _ in 0..HISTORIES {
            let links = (0..1 + next() % 9)
                .map(|_| {
                    let cap = 5e6 + (next() % 1000) as f64 * 0.495e6;
                    (next() % 7, next() % 7, cap, (next() % 40) as u64)
                })
                .collect();
            let topo = (2 + next() % 5, links);
            let ops: Vec<DiffOp> = (0..next() % 60)
                .map(|_| {
                    (
                        next() as u8 % 8,
                        next() % (1 << 16),
                        next() % (1 << 16),
                        (next() % 1000) as f64 / 1000.0,
                    )
                })
                .collect();
            let d = run_batch_differential(&topo, &ops);
            bytes += d.bytes as usize;
            order += d.order as usize;
            max_ulps = max_ulps.max(d.max_ulps);
            batched += d.passes.0;
            reference += d.passes.1;
        }
        println!(
            "{HISTORIES} histories: {bytes} differ in bytes (max {max_ulps} ulp), \
             {order} complete a same-instant set in another order; \
             {batched} passes batched, {reference} per event"
        );
    }

    #[test]
    fn lazy_bytes_project_without_materializing() {
        // A clean advance must not disturb the anchor: flow_bytes is a
        // pure projection, and repeated queries agree with the closed form.
        let (mut net, a, b) = dumbbell(100e6, 0);
        let id = net
            .start_flow(SimTime::ZERO, big_window_spec(a, b, f64::INFINITY))
            .unwrap();
        net.snapshot_rates();
        for step in 1..=10u64 {
            net.advance_to(SimTime::from_secs_f64(step as f64 * 0.137));
            let expect = 100e6 * (step * 137) as f64 / 1000.0;
            let got = net.flow_bytes(id);
            assert!((got - expect).abs() < 1.0, "step {step}: {got} vs {expect}");
        }
    }
}
