//! GridFTP transfer semantics over the WAN simulator.
//!
//! Every wide-area experiment in the paper (Table 1, Figure 8, the
//! parallelism/striping/buffer sweeps) runs through this engine. It prices
//! what the real implementation pays:
//!
//! * **Connection establishment** — TCP + GSI handshake round trips per
//!   data connection ([`esg_gsi::HANDSHAKE_ROUND_TRIPS`]), plus the control
//!   exchange (PASV/RETR + final 226). The SC'2000 implementation
//!   "destroys and rebuilds its TCP connections between consecutive
//!   transfers"; with [`TransferSpec::channel_cache`] the engine reuses
//!   established channels and skips both the handshake and slow start —
//!   the post-SC'00 data-channel-caching feature.
//! * **Parallel streams** — `streams_per_source` TCP flows per source,
//!   each with its own window and slow-start ramp.
//! * **Striping** — multiple source hosts each serving a partition of the
//!   file ("a 2-gigabyte file partitioned across the eight workstations").
//! * **Stalls** — network faults stall flows; the engine exposes progress
//!   so the request manager's monitor (polling "every few seconds", §4)
//!   can notice and restart from the byte ranges already delivered.

use esg_simnet::{Completion, FlowId, FlowSpec, NodeId, Sim, SimDuration, SimTime};
use std::collections::{BTreeMap, HashMap};

/// Per-block protection overhead fraction (sequence + MAC per 64 KiB
/// block; see `esg_gsi::channel`).
pub fn protection_overhead(p: esg_gsi::Protection) -> f64 {
    match p {
        esg_gsi::Protection::Clear => 0.0,
        esg_gsi::Protection::Safe | esg_gsi::Protection::Private => 40.0 / 65_536.0,
    }
}

/// What to transfer and how.
#[derive(Debug, Clone)]
pub struct TransferSpec {
    /// Source hosts; more than one = striped transfer, each serving an
    /// equal partition.
    pub sources: Vec<NodeId>,
    /// Destination host (striped destinations are modeled as multiple
    /// concurrent transfers by the caller).
    pub dst: NodeId,
    /// File bytes to move.
    pub size: u64,
    /// Parallel TCP streams per source host.
    pub streams_per_source: u32,
    /// TCP socket buffer (SBUF) per stream, bytes.
    pub window: f64,
    /// Maximum segment size (jumbo frames = 8960).
    pub mss: f64,
    /// Whether endpoints touch disk (false for memory-to-memory tests).
    pub use_disk: bool,
    /// Reuse cached data channels (skip handshake + slow start) when
    /// available; cache channels on completion.
    pub channel_cache: bool,
    /// Data-channel protection level (adds per-block overhead bytes).
    pub protection: esg_gsi::Protection,
    /// CPU time for the GSI handshake's public-key operations plus process
    /// setup on year-2000 hardware; paid once per un-cached connection
    /// establishment. (This, with the round trips, is the "costly
    /// breakdown, restart, and re-authentication" of §7.)
    pub auth_compute: SimDuration,
}

impl TransferSpec {
    pub fn new(src: NodeId, dst: NodeId, size: u64) -> Self {
        TransferSpec {
            sources: vec![src],
            dst,
            size,
            streams_per_source: 1,
            window: (1u64 << 20) as f64,
            mss: esg_simnet::tcp::MSS,
            use_disk: true,
            channel_cache: false,
            protection: esg_gsi::Protection::Clear,
            auth_compute: SimDuration::from_millis(800),
        }
    }

    pub fn striped(sources: Vec<NodeId>, dst: NodeId, size: u64) -> Self {
        assert!(!sources.is_empty());
        let mut s = TransferSpec::new(sources[0], dst, size);
        s.sources = sources;
        s
    }

    pub fn streams(mut self, n: u32) -> Self {
        self.streams_per_source = n.max(1);
        self
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
        self.use_disk = false;
        self
    }

    pub fn cached(mut self) -> Self {
        self.channel_cache = true;
        self
    }

    pub fn protection(mut self, p: esg_gsi::Protection) -> Self {
        self.protection = p;
        self
    }
}

/// Why a transfer could not start or finish.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TransferError {
    /// Name service down: cannot resolve/connect new channels.
    NameServiceDown,
    /// No route from a source to the destination at start time.
    NoRoute { source: NodeId },
    /// Cancelled by the owner (restart, failover).
    Cancelled,
}

impl std::fmt::Display for TransferError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TransferError::NameServiceDown => write!(f, "name service unavailable"),
            TransferError::NoRoute { source } => {
                write!(f, "no route from source node {}", source.0)
            }
            TransferError::Cancelled => write!(f, "transfer cancelled"),
        }
    }
}

impl std::error::Error for TransferError {}

/// Completed-transfer statistics.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TransferResult {
    pub bytes: u64,
    pub started: SimTime,
    pub finished: SimTime,
}

impl TransferResult {
    /// Mean end-to-end rate including setup costs, bytes/sec.
    pub fn mean_rate(&self) -> f64 {
        let dt = self.finished.since(self.started).as_secs_f64();
        if dt <= 0.0 {
            0.0
        } else {
            self.bytes as f64 / dt
        }
    }
}

/// Identifies an in-flight transfer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TransferHandle(pub u64);

/// One live transfer, owned by [`GridFtpSim`]. Every closure the transfer
/// schedules (set-up, per-flow completion, the final `226`) carries only
/// its id, and a wake that finds the id gone returns: removing the state
/// from the map is cancelling the transfer.
struct TransferState {
    spec: TransferSpec,
    started: SimTime,
    flows: Vec<FlowId>,
    /// Bytes banked from flows that already completed.
    banked: f64,
    /// Flows still moving bytes: 0 before set-up ends, and again once the
    /// last one landed and the `226` is in flight.
    remaining_flows: usize,
    /// The caller's `on_done`, fired once by whichever end comes first.
    on_done: Completion,
}

/// What `on_done` receives; spelled out where it is called so the stored
/// [`Completion`] is recovered at exactly the type it was stored with.
type Outcome = Result<TransferResult, TransferError>;

/// The simulated GridFTP service state living inside the world.
#[derive(Default)]
pub struct GridFtpSim {
    /// Live transfers by id. Ordered because every progress poll
    /// (`transfer_bytes`, `_rate`, `_stalled`, `cancel_transfer`) is one
    /// lookup here, and a few-level search on a `u64` is cheaper than
    /// hashing it; nothing iterates the table, so no order is observed.
    transfers: BTreeMap<u64, TransferState>,
    next_id: u64,
    /// Cached data channels per (src, dst): how many streams are kept warm.
    cache: HashMap<(NodeId, NodeId), u32>,
    /// Counters for reporting.
    pub transfers_started: u64,
    pub transfers_completed: u64,
    pub handshakes_performed: u64,
    pub cache_hits: u64,
}

impl GridFtpSim {
    pub fn new() -> Self {
        GridFtpSim::default()
    }

    /// Cached channel count for a pair.
    pub fn cached_channels(&self, src: NodeId, dst: NodeId) -> u32 {
        self.cache.get(&(src, dst)).copied().unwrap_or(0)
    }

    /// Drop all cached channels (e.g. after long idle / server restart).
    pub fn flush_cache(&mut self) {
        self.cache.clear();
    }

    /// Export the service counters into a metrics registry (a set, not an
    /// add — safe to call repeatedly).
    pub fn export_metrics(&self, reg: &mut esg_netlogger::MetricsRegistry) {
        reg.counter_set("gridftp.transfers_started", self.transfers_started);
        reg.counter_set("gridftp.transfers_completed", self.transfers_completed);
        reg.counter_set("gridftp.handshakes_performed", self.handshakes_performed);
        reg.counter_set("gridftp.cache_hits", self.cache_hits);
    }
}

/// World-access trait for the engine.
pub trait HasGridFtp {
    fn gridftp(&mut self) -> &mut GridFtpSim;
}

/// Start a transfer; `on_done` fires with the result or error.
///
/// Returns a handle for progress queries and cancellation, or an error if
/// the transfer cannot even begin (name service down, no route).
pub fn start_transfer<W: HasGridFtp + 'static>(
    sim: &mut Sim<W>,
    spec: TransferSpec,
    on_done: impl FnOnce(&mut Sim<W>, Result<TransferResult, TransferError>) + 'static,
) -> Result<TransferHandle, TransferError> {
    // Determine per-source setup latency and cache state.
    let dst = spec.dst;
    let mut max_setup = SimDuration::ZERO;
    let mut needs_handshake = false;
    for &src in &spec.sources {
        let cached = spec.channel_cache
            && sim.world.gridftp().cached_channels(src, dst) >= spec.streams_per_source;
        let rtt = sim
            .net
            .path_rtt(src, dst)
            .ok_or(TransferError::NoRoute { source: src })?;
        let setup = if cached {
            // Reused channel: a single command round trip (RETR … 150).
            rtt
        } else {
            needs_handshake = true;
            // TCP connect + GSI handshake + PASV/RETR exchange, plus the
            // public-key compute cost of authentication.
            rtt * (esg_gsi::HANDSHAKE_ROUND_TRIPS as u64 + 2) + spec.auth_compute
        };
        if setup > max_setup {
            max_setup = setup;
        }
    }
    if needs_handshake && !sim.name_service_up() {
        return Err(TransferError::NameServiceDown);
    }

    let started = sim.now();
    let g = sim.world.gridftp();
    g.transfers_started += 1;
    if needs_handshake {
        g.handshakes_performed += 1;
    } else if spec.channel_cache {
        g.cache_hits += 1;
    }
    let id = g.next_id;
    g.next_id += 1;
    g.transfers.insert(
        id,
        TransferState {
            spec,
            started,
            flows: Vec::new(),
            banked: 0.0,
            remaining_flows: 0,
            on_done: Completion::new(on_done),
        },
    );
    sim.schedule(max_setup, move |s| launch(s, id));
    Ok(TransferHandle(id))
}

/// Set-up is over: start every stream of every source.
fn launch<W: HasGridFtp + 'static>(sim: &mut Sim<W>, id: u64) {
    let GridFtpSim {
        transfers, cache, ..
    } = sim.world.gridftp();
    let Some(st) = transfers.get_mut(&id) else {
        return;
    };
    let spec = &st.spec;
    let n_sources = spec.sources.len() as u64;
    let streams = spec.streams_per_source as u64;
    let overhead = 1.0 + protection_overhead(spec.protection);
    let wire_bytes = (spec.size as f64 * overhead).ceil();
    let per_stream = wire_bytes / (n_sources * streams) as f64;

    let mut flow_specs = Vec::new();
    for &src in &spec.sources {
        let warm = cache.get(&(src, spec.dst)).copied().unwrap_or(0);
        let skip_ss = spec.channel_cache && warm >= spec.streams_per_source;
        for _ in 0..streams {
            let mut fs = FlowSpec::new(src, spec.dst, per_stream)
                .window(spec.window)
                .mss(spec.mss);
            fs.uses_src_disk = spec.use_disk;
            fs.uses_dst_disk = spec.use_disk;
            fs.slow_start = !skip_ss;
            flow_specs.push(fs);
        }
    }
    st.remaining_flows = flow_specs.len();

    // Starting a flow runs no callback, so the transfer stays in the map
    // for the whole loop.
    let mut flows = Vec::with_capacity(flow_specs.len());
    for fs in flow_specs {
        let (source, flow_bytes) = (fs.src, fs.size);
        match sim.start_flow(fs, move |s| flow_landed(s, id, flow_bytes)) {
            Ok(fid) => flows.push(fid),
            Err(_) => {
                // Route vanished during setup: fail the transfer once,
                // naming the source whose stream could not start, and
                // retire it like a completed one. Already-started sibling
                // flows go with their completion callbacks.
                for f in flows {
                    sim.cancel_flow(f);
                }
                let st = sim.world.gridftp().transfers.remove(&id);
                let on_done = st.expect("present through launch").on_done;
                on_done.call(sim, Outcome::Err(TransferError::NoRoute { source }));
                return;
            }
        }
    }
    let st = sim.world.gridftp().transfers.get_mut(&id);
    st.expect("present through launch").flows = flows;
}

/// One stream delivered its share. When it was the last, the server's
/// final `226` reply follows half an RTT later (server→client).
fn flow_landed<W: HasGridFtp + 'static>(sim: &mut Sim<W>, id: u64, bytes: f64) {
    let Some(st) = sim.world.gridftp().transfers.get_mut(&id) else {
        return;
    };
    st.banked += bytes;
    st.remaining_flows -= 1;
    if st.remaining_flows > 0 {
        return;
    }
    let rtt = sim.net.path_rtt(st.spec.sources[0], st.spec.dst);
    sim.schedule(rtt.unwrap_or(SimDuration::ZERO) / 2, move |s| {
        complete(s, id)
    });
}

/// The `226` arrived: retire the transfer (progress queries on its handle
/// read zero from here on), cache or tear down its channels, report.
fn complete<W: HasGridFtp + 'static>(sim: &mut Sim<W>, id: u64) {
    let finished = sim.now();
    let g = sim.world.gridftp();
    // Gone: cancelled between its last byte and this reply.
    let Some(st) = g.transfers.remove(&id) else {
        return;
    };
    let spec = &st.spec;
    for &src in &spec.sources {
        if spec.channel_cache {
            g.cache.insert((src, spec.dst), spec.streams_per_source);
        } else {
            g.cache.remove(&(src, spec.dst));
        }
    }
    g.transfers_completed += 1;
    let result = TransferResult {
        bytes: spec.size,
        started: st.started,
        finished,
    };
    st.on_done.call(sim, Outcome::Ok(result));
}

/// Bytes delivered so far (across all streams), including completed flows.
/// A retired handle (its `226` arrived, it failed, or it was cancelled)
/// reads 0.
pub fn transfer_bytes<W: HasGridFtp>(sim: &mut Sim<W>, handle: TransferHandle) -> u64 {
    let Some(st) = sim.world.gridftp().transfers.get(&handle.0) else {
        return 0;
    };
    let mut bytes = st.banked;
    for &f in &st.flows {
        bytes += sim.net.flow_bytes(f);
    }
    // Clamp: protection overhead means wire bytes ≥ payload bytes.
    (bytes as u64).min(st.spec.size)
}

/// Current aggregate rate of the transfer's live flows, bytes/sec. A
/// retired handle reads 0.0.
pub fn transfer_rate<W: HasGridFtp>(sim: &mut Sim<W>, handle: TransferHandle) -> f64 {
    let Some(st) = sim.world.gridftp().transfers.get(&handle.0) else {
        return 0.0;
    };
    st.flows.iter().map(|&f| sim.net.flow_rate(f)).sum()
}

/// Whether every live flow of the transfer is stalled (faulted path). A
/// transfer whose flows have all landed is finishing, not stalled: its
/// `226` is in flight. A retired handle reads false.
pub fn transfer_stalled<W: HasGridFtp>(sim: &mut Sim<W>, handle: TransferHandle) -> bool {
    let Some(st) = sim.world.gridftp().transfers.get(&handle.0) else {
        return false;
    };
    if st.remaining_flows == 0 {
        return false;
    }
    st.flows.iter().all(|&f| {
        matches!(
            sim.net.flow_state(f),
            Some(esg_simnet::FlowState::Stalled) | None
        )
    })
}

/// Cancel a transfer; returns the bytes already delivered (the restart
/// marker a retry can resume from). The pending `on_done` callback is
/// dropped.
pub fn cancel_transfer<W: HasGridFtp>(sim: &mut Sim<W>, handle: TransferHandle) -> u64 {
    let bytes = transfer_bytes(sim, handle);
    if let Some(st) = sim.world.gridftp().transfers.remove(&handle.0) {
        for &f in &st.flows {
            sim.cancel_flow(f);
        }
    }
    bytes
}

#[cfg(test)]
mod tests {
    use super::*;
    use esg_simnet::{Node, Topology};

    struct World {
        gridftp: GridFtpSim,
        results: Vec<Result<TransferResult, TransferError>>,
    }

    impl HasGridFtp for World {
        fn gridftp(&mut self) -> &mut GridFtpSim {
            &mut self.gridftp
        }
    }

    fn world() -> World {
        World {
            gridftp: GridFtpSim::new(),
            results: Vec::new(),
        }
    }

    fn two_hosts(cap: f64, latency_ms: u64) -> (Sim<World>, NodeId, NodeId) {
        let mut topo = Topology::new();
        let a = topo.add_node(Node::host("src"));
        let b = topo.add_node(Node::host("dst"));
        topo.add_link(a, b, cap, SimDuration::from_millis(latency_ms));
        (Sim::new(topo, world()), a, b)
    }

    fn record() -> impl FnOnce(&mut Sim<World>, Result<TransferResult, TransferError>) + 'static {
        |s, r| s.world.results.push(r)
    }

    #[test]
    fn simple_transfer_completes() {
        let (mut sim, a, b) = two_hosts(100e6, 5);
        let spec = TransferSpec::new(a, b, 100_000_000).memory_to_memory();
        start_transfer(&mut sim, spec, record()).unwrap();
        sim.run();
        assert_eq!(sim.world.results.len(), 1);
        let r = sim.world.results[0].as_ref().unwrap();
        assert_eq!(r.bytes, 100_000_000);
        // ≥ 1 s of data + setup RTTs + slow start.
        let dt = r.finished.since(r.started).as_secs_f64();
        assert!(dt > 1.0 && dt < 3.0, "took {dt}");
        assert_eq!(sim.world.gridftp.transfers_completed, 1);
    }

    #[test]
    fn parallel_streams_not_slower_on_clean_link() {
        let run = |streams: u32| -> f64 {
            let (mut sim, a, b) = two_hosts(100e6, 5);
            start_transfer(
                &mut sim,
                TransferSpec::new(a, b, 50_000_000)
                    .memory_to_memory()
                    .streams(streams),
                record(),
            )
            .unwrap();
            sim.run();
            sim.world.results[0].as_ref().unwrap().mean_rate()
        };
        let r1 = run(1);
        let r4 = run(4);
        assert!(r4 > 0.8 * r1, "r1 {r1} r4 {r4}");
    }

    #[test]
    fn parallel_streams_win_on_window_limited_path() {
        // 100 ms RTT, 256 KB windows: single stream caps at ~2.6 MB/s;
        // four streams should approach 4x.
        let run = |streams: u32| -> f64 {
            let (mut sim, a, b) = two_hosts(1e9, 50);
            start_transfer(
                &mut sim,
                TransferSpec::new(a, b, 50_000_000)
                    .memory_to_memory()
                    .window(256.0 * 1024.0)
                    .streams(streams),
                record(),
            )
            .unwrap();
            sim.run();
            sim.world.results[0].as_ref().unwrap().mean_rate()
        };
        let r1 = run(1);
        let r4 = run(4);
        assert!(r4 > 3.0 * r1, "1 stream {r1}, 4 streams {r4}");
    }

    #[test]
    fn striping_overcomes_source_nic() {
        // Each source NIC is 12.5 MB/s; WAN is wide. 4 sources ≈ 4x one.
        let build = |n_sources: usize| -> (Sim<World>, Vec<NodeId>, NodeId) {
            let mut topo = Topology::new();
            let r = topo.add_node(Node::router("r"));
            let dst = topo.add_node(Node::host("dst"));
            topo.add_link(r, dst, 1e9, SimDuration::from_millis(5));
            let mut sources = Vec::new();
            for i in 0..n_sources {
                let s = topo.add_node(Node::host(format!("s{i}")).with_nic(12.5e6));
                topo.add_link(s, r, 1e9, SimDuration::from_millis(1));
                sources.push(s);
            }
            (Sim::new(topo, world()), sources, dst)
        };
        let mut rates = Vec::new();
        for n in [1usize, 4] {
            let (mut sim, sources, dst) = build(n);
            start_transfer(
                &mut sim,
                TransferSpec::striped(sources, dst, 100_000_000)
                    .memory_to_memory()
                    .window(1e9),
                record(),
            )
            .unwrap();
            sim.run();
            rates.push(sim.world.results[0].as_ref().unwrap().mean_rate());
        }
        assert!(
            rates[1] > 3.0 * rates[0],
            "striping 4x: {} vs {}",
            rates[1],
            rates[0]
        );
    }

    #[test]
    fn channel_cache_skips_handshake_on_second_transfer() {
        let (mut sim, a, b) = two_hosts(100e6, 20);
        let spec = TransferSpec::new(a, b, 1_000_000)
            .memory_to_memory()
            .cached();
        let spec2 = spec.clone();
        start_transfer(&mut sim, spec, move |s, r| {
            s.world.results.push(r);
            start_transfer(s, spec2, record()).unwrap();
        })
        .unwrap();
        sim.run();
        assert_eq!(sim.world.results.len(), 2);
        let g = &sim.world.gridftp;
        assert_eq!(g.handshakes_performed, 1);
        assert_eq!(g.cache_hits, 1);
        let d1 = {
            let r = sim.world.results[0].as_ref().unwrap();
            r.finished.since(r.started).as_secs_f64()
        };
        let d2 = {
            let r = sim.world.results[1].as_ref().unwrap();
            r.finished.since(r.started).as_secs_f64()
        };
        assert!(
            d2 < d1 * 0.7,
            "cached transfer should be much faster: {d1} vs {d2}"
        );
    }

    #[test]
    fn uncached_transfers_pay_every_time() {
        let (mut sim, a, b) = two_hosts(100e6, 20);
        let spec = TransferSpec::new(a, b, 1_000_000).memory_to_memory();
        let spec2 = spec.clone();
        start_transfer(&mut sim, spec, move |s, r| {
            s.world.results.push(r);
            start_transfer(s, spec2, record()).unwrap();
        })
        .unwrap();
        sim.run();
        assert_eq!(sim.world.gridftp.handshakes_performed, 2);
        assert_eq!(sim.world.gridftp.cache_hits, 0);
    }

    #[test]
    fn name_service_outage_blocks_new_transfers() {
        let (mut sim, a, b) = two_hosts(100e6, 5);
        sim.net_set_name_service(false);
        let err =
            start_transfer(&mut sim, TransferSpec::new(a, b, 1_000_000), record()).unwrap_err();
        assert_eq!(err, TransferError::NameServiceDown);
    }

    #[test]
    fn cached_channel_survives_name_service_outage() {
        // DNS down: existing (cached) channels keep working — the Figure 8
        // behaviour where established flows continued through DNS problems.
        let (mut sim, a, b) = two_hosts(100e6, 5);
        let spec = TransferSpec::new(a, b, 1_000_000)
            .memory_to_memory()
            .cached();
        let spec2 = spec.clone();
        start_transfer(&mut sim, spec, move |s, r| {
            s.world.results.push(r);
            s.net_set_name_service(false);
            start_transfer(s, spec2, record()).unwrap();
        })
        .unwrap();
        sim.run();
        assert_eq!(sim.world.results.len(), 2);
        assert!(sim.world.results[1].is_ok());
    }

    #[test]
    fn progress_and_rate_observable() {
        let (mut sim, a, b) = two_hosts(10e6, 0);
        let h = start_transfer(
            &mut sim,
            TransferSpec::new(a, b, 100_000_000).memory_to_memory(),
            record(),
        )
        .unwrap();
        sim.run_until(SimTime::from_secs(5));
        let bytes = transfer_bytes(&mut sim, h);
        assert!(bytes > 40_000_000 && bytes < 60_000_000, "{bytes}");
        let rate = transfer_rate(&mut sim, h);
        assert!((rate - 10e6).abs() < 1e5, "{rate}");
        assert!(!transfer_stalled(&mut sim, h));
    }

    #[test]
    fn stall_detected_and_restart_resumes() {
        let (mut sim, a, b) = two_hosts(10e6, 0);
        let h = start_transfer(
            &mut sim,
            TransferSpec::new(a, b, 100_000_000).memory_to_memory(),
            record(),
        )
        .unwrap();
        sim.run_until(SimTime::from_secs(4));
        sim.net.set_link_up(esg_simnet::LinkId(0), false);
        sim.run_until(SimTime::from_secs(6));
        assert!(transfer_stalled(&mut sim, h));
        // Cancel, note the restart marker, bring the net back, resume.
        let done = cancel_transfer(&mut sim, h);
        assert!(done > 30_000_000, "{done}");
        sim.net.set_link_up(esg_simnet::LinkId(0), true);
        let remaining = 100_000_000 - done;
        start_transfer(
            &mut sim,
            TransferSpec::new(a, b, remaining).memory_to_memory(),
            record(),
        )
        .unwrap();
        sim.run();
        let r = sim.world.results[0].as_ref().unwrap();
        assert_eq!(r.bytes, remaining);
    }

    #[test]
    fn protection_adds_overhead_time() {
        let run = |p: esg_gsi::Protection| -> f64 {
            let (mut sim, a, b) = two_hosts(10e6, 0);
            start_transfer(
                &mut sim,
                TransferSpec::new(a, b, 50_000_000)
                    .memory_to_memory()
                    .protection(p),
                record(),
            )
            .unwrap();
            sim.run();
            let r = sim.world.results[0].as_ref().unwrap();
            r.finished.since(r.started).as_secs_f64()
        };
        let clear = run(esg_gsi::Protection::Clear);
        let safe = run(esg_gsi::Protection::Safe);
        assert!(safe > clear, "protection must cost time");
        assert!(safe < clear * 1.01, "but well under 1%");
    }

    /// Run past set-up, then step the network event by event to the
    /// instant the transfer's last flow lands: its `226` is then half an
    /// RTT away.
    fn run_to_last_byte(sim: &mut Sim<World>) {
        sim.run_until(SimTime::from_secs(1));
        assert!(sim.net.active_flow_count() > 0, "flows not started yet");
        while sim.net.active_flow_count() > 0 {
            let next = sim.net.next_event_time();
            sim.run_until(next);
        }
        assert!(sim.world.results.is_empty(), "226 already arrived");
    }

    #[test]
    fn poll_at_the_last_byte_reads_finishing_not_stalled() {
        let (mut sim, a, b) = two_hosts(10e6, 10);
        let spec = TransferSpec::new(a, b, 20_000_000)
            .memory_to_memory()
            .streams(2);
        let h = start_transfer(&mut sim, spec, record()).unwrap();
        run_to_last_byte(&mut sim);
        let landed = sim.now();
        assert!(!transfer_stalled(&mut sim, h), "the 226 is in flight");
        assert_eq!(transfer_bytes(&mut sim, h), 20_000_000);
        sim.run();
        let r = sim.world.results[0].as_ref().unwrap();
        assert!(r.finished > landed);
        // Completed is retired: the handle reads as idle.
        assert_eq!(transfer_bytes(&mut sim, h), 0);
        assert_eq!(transfer_rate(&mut sim, h), 0.0);
        assert!(!transfer_stalled(&mut sim, h));
    }

    /// A striped `[a, c]` transfer ended early every way it can be: a route
    /// lost during set-up fails it once, naming the source whose streams
    /// could not start; a cancel at set-up, mid-flow or between the last
    /// byte and the `226` drops `on_done`. Either way the transfer is
    /// retired: nothing is counted or cached, no flow is left running, and
    /// the handle reads as idle.
    #[test]
    fn route_lost_or_cancelled_transfers_retire_without_completing() {
        #[derive(Debug, Clone, Copy, PartialEq)]
        enum End {
            RouteLostInSetup,
            CancelInSetup,
            CancelMidFlow,
            CancelBefore226,
        }
        for end in [
            End::RouteLostInSetup,
            End::CancelInSetup,
            End::CancelMidFlow,
            End::CancelBefore226,
        ] {
            let mut topo = Topology::new();
            let r = topo.add_node(Node::router("r"));
            let b = topo.add_node(Node::host("dst"));
            topo.add_link(r, b, 1e9, SimDuration::from_millis(5));
            let a = topo.add_node(Node::host("src-a"));
            let c = topo.add_node(Node::host("src-c"));
            topo.add_link(a, r, 5e6, SimDuration::from_millis(1));
            topo.add_link(c, r, 5e6, SimDuration::from_millis(1));
            let mut sim = Sim::new(topo, world());
            let spec = TransferSpec::striped(vec![a, c], b, 20_000_000)
                .memory_to_memory()
                .cached();
            let h = start_transfer(&mut sim, spec, record()).unwrap();
            match end {
                // Set-up takes several round trips; `c` dies inside it,
                // after `a`'s route was priced and before any stream starts.
                End::RouteLostInSetup => sim.schedule(SimDuration::from_millis(5), move |s| {
                    s.net.set_node_up(c, false);
                }),
                End::CancelInSetup => {
                    sim.run_until(SimTime::ZERO + SimDuration::from_millis(5));
                    assert_eq!(cancel_transfer(&mut sim, h), 0);
                }
                End::CancelMidFlow => {
                    sim.run_until(SimTime::from_secs_f64(1.5));
                    assert!(sim.net.active_flow_count() > 0);
                    assert!(cancel_transfer(&mut sim, h) > 0);
                }
                End::CancelBefore226 => {
                    run_to_last_byte(&mut sim);
                    assert_eq!(cancel_transfer(&mut sim, h), 20_000_000);
                }
            }
            sim.run();
            let want = match end {
                End::RouteLostInSetup => vec![Err(TransferError::NoRoute { source: c })],
                _ => vec![],
            };
            assert_eq!(sim.world.results, want, "{end:?}");
            assert_eq!(sim.net.active_flow_count(), 0, "{end:?}");
            let g = &sim.world.gridftp;
            assert!(g.transfers.is_empty(), "{end:?}");
            let counts = (
                g.transfers_completed,
                g.cache_hits,
                g.cached_channels(a, b),
                g.cached_channels(c, b),
            );
            assert_eq!(counts, (0, 0, 0, 0), "{end:?}");
            assert_eq!(transfer_bytes(&mut sim, h), 0, "{end:?}");
            assert_eq!(transfer_rate(&mut sim, h), 0.0, "{end:?}");
            assert!(!transfer_stalled(&mut sim, h), "{end:?}");
        }
    }

    #[test]
    fn no_route_fails_cleanly() {
        let mut topo = Topology::new();
        let a = topo.add_node(Node::host("a"));
        let b = topo.add_node(Node::host("b"));
        let mut sim: Sim<World> = Sim::new(topo, world());
        let err = start_transfer(&mut sim, TransferSpec::new(a, b, 1), record()).unwrap_err();
        assert_eq!(err, TransferError::NoRoute { source: a });
    }
}
