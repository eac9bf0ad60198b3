//! Experiment runners: one function per table/figure/ablation.
//!
//! Each runner builds its testbed, drives the workload on the virtual
//! clock, and returns the measured statistics. The scenario lab's `paper`
//! executor turns them into table metrics and gates each shape claim;
//! the unit tests below assert the same *shapes* (who wins, where
//! crossovers fall).

use crate::scenario::{fig8_testbed, sc2000_scinet, Sc2000Config};
use crate::world::{EsgSim, EsgWorld};
use esg_cdms::SynthParams;
use esg_gridftp::server::{GridFtpServer, ServerConfig};
use esg_gridftp::simxfer::{
    cancel_transfer, start_transfer, transfer_bytes, transfer_stalled, GridFtpSim, HasGridFtp,
    TransferHandle, TransferSpec,
};
use esg_gridftp::{GridFtpClient, TransferOptions};
use esg_netlogger::{to_gbps, to_mbps, BandwidthMeter};
use esg_simnet::failure::{inject, Fault, FaultKind};
use esg_simnet::{profile, LinkId, Node, NodeId, Sim, SimDuration, SimTime, Topology};

use std::collections::{HashMap, VecDeque};
use std::ops::ControlFlow;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// The world a wide-area runner simulates: the GridFTP engine, the
/// client-side received-bytes meter (Table 1 / Figure 8) and the runner's
/// own state `run`. The runner owns its state through the simulator, so a
/// closure it schedules carries copies and handles, never the state.
struct WanWorld<S> {
    gridftp: GridFtpSim,
    meter: BandwidthMeter,
    run: S,
}

impl<S> HasGridFtp for WanWorld<S> {
    fn gridftp(&mut self) -> &mut GridFtpSim {
        &mut self.gridftp
    }
}

type WanSim<S> = Sim<WanWorld<S>>;

/// [`Sim::every`] labels of the wide-area runners' ticks.
const TABLE1_SAMPLER: &str = "table1.sampler";
const FIG8_MONITOR: &str = "fig8.monitor";
const FIG8_SAMPLER: &str = "fig8.sampler";
const B1_WATCHDOG: &str = "b1.watchdog";

fn wan_sim<S>(topo: Topology, run: S) -> WanSim<S> {
    let world = WanWorld {
        gridftp: GridFtpSim::new(),
        meter: BandwidthMeter::new(),
        run,
    };
    Sim::new(topo, world)
}

// ---------------------------------------------------------------------------
// Table 1 — the SC'00 striped transfer experiment
// ---------------------------------------------------------------------------

/// Configuration for the Table 1 run.
#[derive(Debug, Clone, Copy)]
pub struct Table1Config {
    pub net: Sc2000Config,
    /// The file being served: "a 2-gigabyte file partitioned across the
    /// eight workstations".
    pub file_bytes: u64,
    /// TCP buffer: "We chose 1 MB as a reasonable buffer size".
    pub window: f64,
    /// "up to four simultaneous TCP streams ... from each server".
    pub max_concurrent_per_server: usize,
    /// "a new transfer ... initiated after 25% of the previous transfer
    /// was complete".
    pub start_next_frac: f64,
    /// Measurement length (paper: one hour).
    pub duration: SimDuration,
    /// Meter sampling interval (must be ≤ 0.1 s for the 0.1 s peak).
    pub sample: SimDuration,
}

impl Default for Table1Config {
    fn default() -> Self {
        Table1Config {
            net: Sc2000Config::default(),
            file_bytes: 2_000_000_000,
            window: (1u64 << 20) as f64,
            max_concurrent_per_server: 4,
            start_next_frac: 0.25,
            duration: SimDuration::from_hours(1),
            sample: SimDuration::from_millis(50),
        }
    }
}

/// The Table 1 row set.
#[derive(Debug, Clone, Copy)]
pub struct Table1Results {
    pub striped_servers_source: usize,
    pub striped_servers_destination: usize,
    pub max_streams_per_server: usize,
    pub max_streams_total: usize,
    pub peak_0_1s_gbps: f64,
    pub peak_5s_gbps: f64,
    pub sustained_mbps: f64,
    pub total_gbytes: f64,
    pub transfers_completed: u64,
}

/// The runner's state: the pipeline of per-server transfers and what they
/// have delivered.
struct Table1State {
    cfg: Table1Config,
    servers: Vec<NodeId>,
    receivers: Vec<NodeId>,
    partition: u64,
    completed_bytes: f64,
    /// Live transfers only: a transfer's entry goes when its completion
    /// closure fires (the `226`, or a failure), the same closure that banks
    /// its bytes in `completed_bytes`. The sampler reads each entry; a
    /// watch is read again only while its entry is here.
    active: HashMap<u64, TransferHandle>,
    next_key: u64,
    live_per_server: Vec<usize>,
    end: SimTime,
    /// Every transfer's next watch read, in push order. A read is due one
    /// [`TABLE1_WATCH_PERIOD`] after its push and pushes only happen at
    /// the current instant, so push order is due order across every phase
    /// (a chain restarted by a completion closure lands off the grid the
    /// run started on).
    watches: VecDeque<Watch>,
    /// The instant of the one queued [`table1_watch_wake`]: the front
    /// watch's due, `None` exactly while `watches` is empty. While a wake
    /// runs it still holds that wake's instant, so a transfer the wake
    /// spawns queues no second one.
    wake_at: Option<SimTime>,
    /// The sampler's handle buffer, reused by every tick.
    handles: Vec<TransferHandle>,
}

/// How often a Table 1 transfer's progress is read to decide when its
/// server starts the next copy.
const TABLE1_WATCH_PERIOD: SimDuration = SimDuration::from_millis(500);

/// One transfer's next watch read: at `due`, read its progress and start
/// its server's next copy once it passes `start_next_frac`.
struct Watch {
    due: SimTime,
    key: u64,
    handle: TransferHandle,
    server: usize,
    spawned_next: bool,
}

/// Run the Table 1 experiment.
pub fn run_table1(cfg: Table1Config) -> Table1Results {
    run_table1_metered(cfg).0
}

/// Run the Table 1 experiment and also return the received-bytes meter
/// its results were read from: every sample of the curve, for pinning the
/// run more tightly than five numbers can.
pub fn run_table1_metered(cfg: Table1Config) -> (Table1Results, BandwidthMeter) {
    let tb = sc2000_scinet(cfg.net);
    let n = tb.servers.len();
    let n_receivers = tb.receivers.len();
    let end = SimTime::ZERO + cfg.duration;
    let mut sim = wan_sim(
        tb.topo,
        Table1State {
            cfg,
            servers: tb.servers,
            receivers: tb.receivers,
            partition: cfg.file_bytes / n as u64,
            completed_bytes: 0.0,
            active: HashMap::new(),
            next_key: 0,
            live_per_server: vec![0; n],
            end,
            watches: VecDeque::new(),
            wake_at: None,
            handles: Vec::new(),
        },
    );

    // Exhibition-floor congestion pattern: the shared SC'00 show floor was
    // bursty. Mostly `base_loss`; every 240 s an 8 s lighter window; every
    // 600 s a 2 s near-quiet window. Calibrated so SciNet-style peak/
    // sustained statistics land in the paper's regime (see EXPERIMENTS.md).
    let wan = tb.wan;
    let horizon = cfg.duration.as_nanos() / 1_000_000_000;
    let mut t = 60u64;
    while t + 8 < horizon {
        schedule_loss_window(
            &mut sim,
            wan,
            SimTime::from_secs(t),
            SimDuration::from_secs(8),
            0.0009,
            cfg.net.base_loss,
        );
        t += 240;
    }
    let mut t = 300u64;
    while t + 2 < horizon {
        schedule_loss_window(
            &mut sim,
            wan,
            SimTime::from_secs(t),
            SimDuration::from_secs(2),
            0.0001,
            cfg.net.base_loss,
        );
        t += 600;
    }

    // Kick off one transfer per server; each spawns its successor at 25%.
    for i in 0..n {
        spawn_table1_transfer(&mut sim, i);
    }

    sim.every(cfg.sample, TABLE1_SAMPLER, table1_sample_tick);

    sim.run_until(end);

    // What is still queued costs dispatch for nothing: one watch wake at
    // the front's due, the sampler's next tick, and no watch beyond one per
    // transfer — a watch whose transfer retired goes at its next due, so
    // the list may still hold those for the last period.
    let st = &sim.world.run;
    debug_assert_eq!(st.wake_at, st.watches.front().map(|w| w.due));
    debug_assert!(
        st.watches
            .iter()
            .zip(st.watches.iter().skip(1))
            .all(|(a, b)| a.due <= b.due),
        "the watch list is out of due order"
    );
    debug_assert!(
        {
            let mut keys: Vec<u64> = st.watches.iter().map(|w| w.key).collect();
            keys.sort_unstable();
            keys.windows(2).all(|k| k[0] < k[1])
        },
        "a transfer is watched twice"
    );
    debug_assert!(sim.live_ticks(TABLE1_SAMPLER) <= 1);
    let meter = sim.world.meter;
    debug_assert_eq!(meter.dropped_samples(), 0, "the meter dropped a sample");
    let results = Table1Results {
        striped_servers_source: n,
        striped_servers_destination: n_receivers,
        max_streams_per_server: cfg.max_concurrent_per_server,
        max_streams_total: cfg.max_concurrent_per_server * n,
        peak_0_1s_gbps: to_gbps(meter.peak_rate(SimDuration::from_millis(100))),
        peak_5s_gbps: to_gbps(meter.peak_rate(SimDuration::from_secs(5))),
        sustained_mbps: to_mbps(meter.mean_rate(SimTime::ZERO, end)),
        total_gbytes: meter.bytes_between(SimTime::ZERO, end) / 1e9,
        transfers_completed: sim.world.gridftp.transfers_completed,
    };
    (results, meter)
}

fn schedule_loss_window<S: 'static>(
    sim: &mut WanSim<S>,
    wan: LinkId,
    at: SimTime,
    dur: SimDuration,
    quiet_loss: f64,
    base_loss: f64,
) {
    sim.schedule_at(at, move |s| {
        s.net.set_link_loss(wan, quiet_loss);
        s.schedule(dur, move |s2| {
            s2.net.set_link_loss(wan, base_loss);
        });
    });
}

fn spawn_table1_transfer(sim: &mut WanSim<Table1State>, server: usize) {
    let now = sim.now();
    let st = &mut sim.world.run;
    if now >= st.end || st.live_per_server[server] >= st.cfg.max_concurrent_per_server {
        return;
    }
    st.live_per_server[server] += 1;
    // "Each workstation actually had four copies of its file partition" —
    // each transfer is one TCP stream moving one copy of the partition.
    let spec = TransferSpec::new(st.servers[server], st.receivers[server], st.partition)
        .window(st.cfg.window)
        .streams(1);
    // A refused start drops this closure uncalled and leaves `next_key`
    // alone, so the key is never seen twice.
    let key = st.next_key;
    let result = start_transfer(sim, spec, move |s, result| {
        let st = &mut s.world.run;
        st.live_per_server[server] = st.live_per_server[server].saturating_sub(1);
        st.active.remove(&key);
        if let Ok(r) = &result {
            st.completed_bytes += r.bytes as f64;
        }
        // Keep the pipeline full if the chain died (e.g. very short files).
        if st.live_per_server[server] == 0 {
            spawn_table1_transfer(s, server);
        }
    });
    if let Ok(handle) = result {
        let st = &mut sim.world.run;
        st.next_key += 1;
        st.active.insert(key, handle);
        let due = now + TABLE1_WATCH_PERIOD;
        st.watches.push_back(Watch {
            due,
            key,
            handle,
            server,
            spawned_next: false,
        });
        if st.wake_at.is_none() {
            st.wake_at = Some(due);
            sim.schedule_at(due, table1_watch_wake);
        }
    }
}

/// The one queued watch wake: read every watch due now, in push order,
/// then re-arm at the front's due.
///
/// A read drops the watch once its key left `active` (the completion
/// closure removed it) or every byte is delivered (the `226` will remove
/// it). Otherwise it starts the server's next copy once the transfer passes
/// `start_next_frac`, and pushes the watch back one period out, after the
/// child's. That is the order in which one self-re-arming tick per transfer
/// queued its reads, and no other event of a wake's instant is queued
/// between those reads and the wake (EXPERIMENTS.md A37 counted none: the
/// sampler's tick is queued later and a launch at least 0.8 s ahead), so
/// serving an instant's reads from one event moves no bit. Instants that
/// only retired transfers' reads visited go unvisited; flow bytes are
/// integrated on a rate change (`FlowRt::materialize`), not on a visit, so
/// that changes no byte either.
fn table1_watch_wake(s: &mut WanSim<Table1State>) {
    let now = s.now();
    profile::count("table1.watch_wakes", 1);
    debug_assert_eq!(s.world.run.wake_at, Some(now));
    while let Some(mut w) = s.world.run.watches.pop_front_if(|w| w.due <= now) {
        if !s.world.run.active.contains_key(&w.key) {
            continue;
        }
        let bytes = transfer_bytes(s, w.handle);
        let st = &s.world.run;
        if bytes >= st.partition {
            continue;
        }
        if !w.spawned_next && bytes as f64 >= st.cfg.start_next_frac * st.partition as f64 {
            w.spawned_next = true;
            spawn_table1_transfer(s, w.server);
        }
        w.due = now + TABLE1_WATCH_PERIOD;
        s.world.run.watches.push_back(w);
    }
    let st = &mut s.world.run;
    st.wake_at = st.watches.front().map(|w| w.due);
    if let Some(at) = st.wake_at {
        s.schedule_at(at, table1_watch_wake);
    }
}

/// The Table 1 sampler's tick, every `cfg.sample`: record the bytes
/// received so far, the completed transfers' total plus each live
/// transfer's progress.
///
/// Reading live transfers only records the same bits as reading every
/// handle ever started. A retired handle reads exactly 0 from
/// `transfer_bytes`. Every term of `total` is an integer below 2^53 (an
/// hour moves ≈ 236 GB), so every partial sum is exact and the f64 sum is
/// the same in any order, `HashMap` order included; dropping zero terms
/// changes no bit. A transfer leaves `active` in the same closure that
/// adds it to `completed_bytes`, so no sample counts it twice or misses
/// it.
fn table1_sample_tick(s: &mut WanSim<Table1State>) -> ControlFlow<()> {
    let now = s.now();
    if now > s.world.run.end {
        return ControlFlow::Break(());
    }
    let st = &s.world.run;
    debug_assert!(
        st.active.len() <= st.live_per_server.iter().sum(),
        "at {now} the sampler reads {} handles, only {} transfers are live",
        st.active.len(),
        st.live_per_server.iter().sum::<usize>()
    );
    let mut total = st.completed_bytes;
    let mut handles = std::mem::take(&mut s.world.run.handles);
    handles.clear();
    handles.extend(s.world.run.active.values());
    for &h in &handles {
        total += transfer_bytes(s, h) as f64;
    }
    s.world.run.handles = handles;
    s.world.meter.record(now, total);
    ControlFlow::Continue(())
}

// ---------------------------------------------------------------------------
// Figure 8 — the 14-hour reliability run
// ---------------------------------------------------------------------------

/// A fault event in the Figure 8 schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fig8Fault {
    /// SCinet power failure: the floor link goes down.
    PowerFailure,
    /// DNS problems: no new connections.
    DnsOutage,
    /// Backbone problems: WAN capacity degraded to 25%.
    Backbone,
}

/// Configuration for the Figure 8 run.
#[derive(Debug, Clone)]
pub struct Fig8Config {
    /// Repeatedly transferred file (paper: 2 GB).
    pub file_bytes: u64,
    /// Run length (paper: ~14 hours).
    pub duration: SimDuration,
    /// Base parallelism, and the raised level used "toward the right side
    /// of the graph".
    pub base_streams: u32,
    pub late_streams: u32,
    /// When the parallelism increase happens, as a fraction of duration.
    pub late_frac: f64,
    /// Use post-SC'00 data-channel caching (the A4 ablation flips this).
    pub channel_cache: bool,
    /// Fault schedule: (start fraction of duration, length, kind).
    pub faults: Vec<(f64, SimDuration, Fig8Fault)>,
    /// Series bin width for the output.
    pub bin: SimDuration,
}

impl Default for Fig8Config {
    fn default() -> Self {
        Fig8Config {
            file_bytes: 2_000_000_000,
            duration: SimDuration::from_hours(14),
            base_streams: 4,
            late_streams: 8,
            late_frac: 0.80,
            channel_cache: false,
            faults: vec![
                (0.22, SimDuration::from_mins(25), Fig8Fault::PowerFailure),
                (0.45, SimDuration::from_mins(15), Fig8Fault::DnsOutage),
                (0.62, SimDuration::from_mins(40), Fig8Fault::Backbone),
            ],
            bin: SimDuration::from_secs(60),
        }
    }
}

/// Results of the Figure 8 run.
#[derive(Debug, Clone)]
pub struct Fig8Results {
    /// (bin start seconds, Mb/s) series — the figure itself.
    pub series: Vec<(f64, f64)>,
    pub mean_mbps: f64,
    pub plateau_mbps: f64,
    pub total_gbytes: f64,
    pub transfers_completed: u64,
    pub restarts: u64,
    /// Bins during fault windows with ~zero throughput.
    pub dead_bins: usize,
}

/// The runner's state: the one file being moved and what has landed.
struct Fig8State {
    src: NodeId,
    dst: NodeId,
    completed_bytes: f64,
    current: Option<TransferHandle>,
    /// Bytes of the current file already banked across restarts.
    file_done: u64,
    restarts: u64,
    streams: u32,
    end: SimTime,
    channel_cache: bool,
    file_bytes: u64,
    stall_since: Option<SimTime>,
}

/// Run the Figure 8 experiment.
pub fn run_fig8(cfg: Fig8Config) -> Fig8Results {
    let tb = fig8_testbed();
    let end = SimTime::ZERO + cfg.duration;
    let mut sim = wan_sim(
        tb.topo,
        Fig8State {
            src: tb.src,
            dst: tb.dst,
            completed_bytes: 0.0,
            current: None,
            file_done: 0,
            restarts: 0,
            streams: cfg.base_streams,
            end,
            channel_cache: cfg.channel_cache,
            file_bytes: cfg.file_bytes,
            stall_since: None,
        },
    );

    // Fault schedule.
    for &(frac, len, kind) in &cfg.faults {
        let at = SimTime::from_secs_f64(cfg.duration.as_secs_f64() * frac);
        let kind = match kind {
            Fig8Fault::PowerFailure => FaultKind::LinkDown(tb.floor),
            Fig8Fault::DnsOutage => FaultKind::NameServiceDown,
            Fig8Fault::Backbone => FaultKind::LinkDegrade(tb.wan, 0.25),
        };
        inject(&mut sim, Fault::new(at, len, kind));
    }

    // Parallelism bump late in the run.
    let late_streams = cfg.late_streams;
    sim.schedule_at(
        SimTime::from_secs_f64(cfg.duration.as_secs_f64() * cfg.late_frac),
        move |s| s.world.run.streams = late_streams,
    );

    fig8_start_next(&mut sim);
    sim.every(SimDuration::from_secs(5), FIG8_MONITOR, fig8_monitor_tick);
    sim.every(SimDuration::from_secs(1), FIG8_SAMPLER, fig8_sample_tick);

    sim.run_until(end);
    debug_assert!(sim.live_ticks(FIG8_MONITOR) <= 1 && sim.live_ticks(FIG8_SAMPLER) <= 1);

    let meter = &sim.world.meter;
    let series: Vec<(f64, f64)> = meter
        .series(cfg.bin)
        .into_iter()
        .map(|(t, rate)| (t.as_secs_f64(), to_mbps(rate)))
        .collect();
    let mut rates: Vec<f64> = series.iter().map(|&(_, r)| r).collect();
    rates.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let plateau = if rates.is_empty() {
        0.0
    } else {
        rates[rates.len() * 9 / 10] // 90th percentile ≈ healthy plateau
    };
    let dead_bins = series.iter().filter(|&&(_, r)| r < 1.0).count();
    Fig8Results {
        mean_mbps: to_mbps(meter.mean_rate(SimTime::ZERO, end)),
        plateau_mbps: plateau,
        total_gbytes: meter.bytes_between(SimTime::ZERO, end) / 1e9,
        transfers_completed: sim.world.gridftp.transfers_completed,
        restarts: sim.world.run.restarts,
        dead_bins,
        series,
    }
}

fn fig8_start_next(sim: &mut WanSim<Fig8State>) {
    let st = &sim.world.run;
    if sim.now() >= st.end {
        return;
    }
    let mut spec =
        TransferSpec::new(st.src, st.dst, st.file_bytes - st.file_done).streams(st.streams);
    if st.channel_cache {
        spec = spec.cached();
    }
    let result = start_transfer(sim, spec, |s, result| match result {
        Ok(r) => {
            let st = &mut s.world.run;
            st.completed_bytes += r.bytes as f64;
            st.file_done = 0;
            st.current = None;
            st.stall_since = None;
            // "transferring a 2 GB file repeatedly": straight to the
            // next file.
            fig8_start_next(s);
        }
        Err(_) => {
            s.world.run.current = None;
            s.schedule(SimDuration::from_secs(15), fig8_start_next);
        }
    });
    match result {
        Ok(handle) => sim.world.run.current = Some(handle),
        // DNS outage / network down: retry until it heals ("the
        // interrupted transfers continued as soon as the network was
        // restored").
        Err(_) => sim.schedule(SimDuration::from_secs(15), fig8_start_next),
    }
}

/// The stall watchdog's tick, every 5 s: on a long stall, cancel and
/// restart from the marker.
fn fig8_monitor_tick(s: &mut WanSim<Fig8State>) -> ControlFlow<()> {
    if s.now() >= s.world.run.end {
        return ControlFlow::Break(());
    }
    if let Some(h) = s.world.run.current {
        if transfer_stalled(s, h) {
            let now = s.now();
            match s.world.run.stall_since {
                None => s.world.run.stall_since = Some(now),
                Some(t0) if now.since(t0) > SimDuration::from_secs(20) => {
                    // Restart from the marker.
                    let banked = cancel_transfer(s, h);
                    let st = &mut s.world.run;
                    st.file_done = (st.file_done + banked).min(st.file_bytes);
                    st.completed_bytes += banked as f64;
                    st.current = None;
                    st.restarts += 1;
                    st.stall_since = None;
                    fig8_start_next(s);
                }
                Some(_) => {}
            }
        } else {
            s.world.run.stall_since = None;
        }
    }
    ControlFlow::Continue(())
}

/// The meter sampler's tick, every second.
fn fig8_sample_tick(s: &mut WanSim<Fig8State>) -> ControlFlow<()> {
    let now = s.now();
    if now > s.world.run.end {
        return ControlFlow::Break(());
    }
    let mut total = s.world.run.completed_bytes;
    if let Some(h) = s.world.run.current {
        total += transfer_bytes(s, h) as f64;
    }
    s.world.meter.record(now, total);
    ControlFlow::Continue(())
}

// ---------------------------------------------------------------------------
// Sweeps and ablations
// ---------------------------------------------------------------------------

/// Capacity of the sweep pair's link (Mb/s): the ceiling A1/A2 rates
/// approach.
pub const SWEEP_LINK_MBPS: f64 = 622.0;

/// A single lossy wide-area pair for parameter sweeps: 622 Mb/s path,
/// configurable RTT/loss, unconstrained endpoints.
fn sweep_pair(rtt_one_way_ms: u64, loss: f64) -> (Topology, NodeId, NodeId) {
    let mut topo = Topology::new();
    let a = topo.add_node(Node::host("src"));
    let b = topo.add_node(Node::host("dst"));
    let l = topo.add_link(
        a,
        b,
        SWEEP_LINK_MBPS * 1e6 / 8.0,
        SimDuration::from_millis(rtt_one_way_ms),
    );
    topo.set_link_loss(l, loss);
    (topo, a, b)
}

/// Measure the mean end-to-end rate of one transfer over `topo`.
pub(crate) fn measure_transfer(topo: Topology, spec: TransferSpec) -> f64 {
    let mut sim = wan_sim(topo, None);
    start_transfer(&mut sim, spec, |s, r| {
        s.world.run = Some(r.expect("sweep transfers succeed").mean_rate());
    })
    .expect("sweep transfers start");
    sim.run();
    sim.world.run.expect("transfer completed")
}

/// A1: aggregate bandwidth vs number of parallel streams (Mb/s).
pub fn sweep_parallel_streams(streams: &[u32]) -> Vec<(u32, f64)> {
    streams
        .iter()
        .map(|&n| {
            let (topo, a, b) = sweep_pair(12, 0.001);
            let rate = measure_transfer(
                topo,
                TransferSpec::new(a, b, 512_000_000)
                    .streams(n)
                    .memory_to_memory(),
            );
            (n, to_mbps(rate))
        })
        .collect()
}

/// A2: bandwidth vs TCP buffer size on a loss-free long-fat path (Mb/s).
/// The crossover sits at the bandwidth-delay product (§7's formula).
pub fn sweep_buffer_size(windows: &[u64]) -> Vec<(u64, f64)> {
    windows
        .iter()
        .map(|&w| {
            let (topo, a, b) = sweep_pair(15, 0.0);
            let rate = measure_transfer(
                topo,
                TransferSpec::new(a, b, 512_000_000)
                    .window(w as f64)
                    .memory_to_memory(),
            );
            (w, to_mbps(rate))
        })
        .collect()
}

/// A3: aggregate bandwidth vs stripe width on the SC'00 testbed (Mb/s).
/// Each added server contributes its own NIC/CPU and streams.
pub fn sweep_stripes(stripe_counts: &[usize]) -> Vec<(usize, f64)> {
    stripe_counts
        .iter()
        .map(|&k| {
            let tb = sc2000_scinet(Sc2000Config::default());
            let sources: Vec<NodeId> = tb.servers.iter().copied().take(k).collect();
            let rate = measure_transfer(
                tb.topo,
                TransferSpec::striped(sources, tb.receivers[0], 2_000_000_000)
                    .streams(4)
                    .memory_to_memory(),
            );
            (k, to_mbps(rate))
        })
        .collect()
}

/// A4: channel caching ablation — transfer `files` consecutive files and
/// report (mean seconds/file without caching, with caching).
pub fn ablation_channel_caching(files: u32, file_bytes: u64) -> (f64, f64) {
    // The run's state: (files done, when the last one finished).
    fn next(
        sim: &mut WanSim<(u32, SimTime)>,
        a: NodeId,
        b: NodeId,
        files: u32,
        bytes: u64,
        cached: bool,
    ) {
        if sim.world.run.0 >= files {
            sim.world.run.1 = sim.now();
            return;
        }
        let mut spec = TransferSpec::new(a, b, bytes).streams(4).memory_to_memory();
        if cached {
            spec = spec.cached();
        }
        start_transfer(sim, spec, move |s, r| {
            r.expect("ablation transfers succeed");
            s.world.run.0 += 1;
            next(s, a, b, files, bytes, cached);
        })
        .expect("ablation transfers start");
    }
    let run = |cached: bool| -> f64 {
        let (topo, a, b) = sweep_pair(25, 0.0005);
        let mut sim = wan_sim(topo, (0u32, SimTime::ZERO));
        next(&mut sim, a, b, files, file_bytes, cached);
        sim.run();
        sim.world.run.1.as_secs_f64() / files as f64
    };
    (run(false), run(true))
}

/// A5: host CPU model ablation — achievable rate (Mb/s) with interrupt
/// coalescing off/on and jumbo frames, on an unconstrained 1 Gb/s path.
pub fn ablation_cpu_model() -> Vec<(&'static str, f64)> {
    let run = |coalescing: f64, jumbo: bool| -> f64 {
        let mut topo = Topology::new();
        // Deliberately interrupt-heavy stack (12 cycles/byte) so the CPU,
        // not the NIC, is the binding constraint the mitigations relieve.
        let cpu = esg_simnet::CpuModel {
            cycles_per_sec: 800e6,
            cycles_per_byte: 12.0,
            coalescing_factor: coalescing,
            jumbo_frames: jumbo,
        };
        let a = topo.add_node(Node::host("src").with_nic(1e9 / 8.0).with_cpu(cpu));
        let b = topo.add_node(Node::host("dst").with_nic(1e9 / 8.0).with_cpu(cpu));
        topo.add_link(a, b, 1e9 / 8.0, SimDuration::from_millis(5));
        let mss = if jumbo {
            esg_simnet::tcp::MSS_JUMBO
        } else {
            esg_simnet::tcp::MSS
        };
        let rate = measure_transfer(
            topo,
            TransferSpec::new(a, b, 1_000_000_000)
                .streams(4)
                .window(4e6)
                .mss(mss)
                .memory_to_memory(),
        );
        to_mbps(rate)
    };
    vec![
        ("no coalescing", run(1.0, false)),
        ("interrupt coalescing", run(0.8, false)),
        ("coalescing + jumbo frames", run(0.8, true)),
    ]
}

/// B1: related-work baselines on a lossy WAN with a mid-transfer outage.
/// Returns (system name, completion seconds) for a 2 GB file.
///
/// * `ftp-2001`: single stream, 64 KB OS-default buffer, RFC 959 `REST`
///   resume after a failure — but no parallelism and no buffer tuning.
/// * `dods-http`: single stream, 64 KB buffer, whole-file refetch on
///   failure (DODS "relies solely upon HTTP", which had no range-resume in
///   the deployed servers, "and is not well-suited to ... very large data
///   movement over high-bandwidth wide-area networks").
/// * `gridftp`: 4 parallel streams, 1 MB buffers, restart-marker resume.
pub fn baseline_comparison() -> Vec<(&'static str, f64)> {
    /// The run's state.
    struct Run {
        /// Bytes banked for resume.
        banked: u64,
        /// The live attempt's transfer, while one runs.
        current: Option<TransferHandle>,
        /// When the file landed.
        landed: Option<SimTime>,
    }
    type Baseline = WanSim<Run>;
    /// How a system moves the file: (streams, window, resume).
    type Client = (u32, f64, bool);
    const FILE: u64 = 2_000_000_000;
    fn attempt(sim: &mut Baseline, a: NodeId, b: NodeId, client: Client) {
        let (streams, window, resume) = client;
        let remaining = FILE - if resume { sim.world.run.banked } else { 0 };
        let spec = TransferSpec::new(a, b, remaining)
            .streams(streams)
            .window(window)
            .memory_to_memory();
        let started = start_transfer(sim, spec, move |s, r| {
            s.world.run.current = None;
            match r {
                Ok(_) => s.world.run.landed = Some(s.now()),
                Err(_) => {
                    s.schedule(SimDuration::from_secs(5), move |s2| {
                        attempt(s2, a, b, client)
                    });
                }
            }
        });
        match started {
            Ok(handle) => {
                sim.world.run.current = Some(handle);
                // Every 10 s, restart a stalled attempt. A watchdog whose
                // attempt is no longer the live one (it landed, failed or
                // was cancelled) stops: its handle is retired and reads
                // "not stalled", so ticking on could change nothing.
                sim.every(SimDuration::from_secs(10), B1_WATCHDOG, move |s| {
                    if s.world.run.current != Some(handle) {
                        return ControlFlow::Break(());
                    }
                    if !transfer_stalled(s, handle) {
                        return ControlFlow::Continue(());
                    }
                    let banked = cancel_transfer(s, handle);
                    let run = &mut s.world.run;
                    run.current = None;
                    if client.2 {
                        run.banked = (run.banked + banked).min(FILE);
                    }
                    // The new attempt arms its own watchdog.
                    attempt(s, a, b, client);
                    ControlFlow::Break(())
                });
            }
            Err(_) => {
                sim.schedule(SimDuration::from_secs(5), move |s| attempt(s, a, b, client));
            }
        }
    }
    // Outage 120 s long, starting 200 s in.
    let run = |client: Client| -> f64 {
        let (topo, a, b) = sweep_pair(20, 0.0005);
        let mut sim = wan_sim(
            topo,
            Run {
                banked: 0,
                current: None,
                landed: None,
            },
        );
        inject(
            &mut sim,
            Fault::new(
                SimTime::from_secs(200),
                SimDuration::from_secs(120),
                FaultKind::LinkDown(LinkId(0)),
            ),
        );
        attempt(&mut sim, a, b, client);
        sim.run_until(SimTime::ZERO + SimDuration::from_hours(12));
        debug_assert_eq!(sim.live_ticks(B1_WATCHDOG), 0);
        let finished = sim.world.run.landed.expect("baseline transfer finished");
        finished.as_secs_f64()
    };
    vec![
        (
            "ftp-2001 (1 stream, 64KB, REST resume)",
            run((1, 65_536.0, true)),
        ),
        (
            "dods-http (1 stream, 64KB, refetch)",
            run((1, 65_536.0, false)),
        ),
        (
            "gridftp (4 streams, 1MB, restart)",
            run((4, (1u64 << 20) as f64, true)),
        ),
    ]
}

// ---------------------------------------------------------------------------
// A6: replica selection policies / A7: HRM staging
// ---------------------------------------------------------------------------

/// A6: mean request completion time (seconds) per selection policy, over
/// `requests` sequential single-file requests on the multi-site testbed.
pub fn replica_policy_comparison(requests: u32) -> Vec<(&'static str, f64)> {
    use crate::scenario::esg_testbed;
    use esg_replica::{Policy, ReplicaSelector};
    use esg_reqman::submit_request;

    let policies: [(&'static str, Policy); 3] = [
        ("nws-best-bandwidth", Policy::BestBandwidth),
        ("round-robin", Policy::RoundRobin),
        ("random", Policy::Random),
    ];
    policies
        .iter()
        .map(|&(name, policy)| {
            let mut tb = esg_testbed(17);
            // Replicas at LLNL (622 Mb/s, close), ISI (155 Mb/s) and
            // NCAR (155 Mb/s, farther): selection matters.
            tb.publish_dataset("policy_ds", 8, 8, 12_500_000, &[1, 2, 4]);
            tb.sim.world.rm.selector = ReplicaSelector::new(policy, 23);
            tb.start_nws(SimDuration::from_secs(20));
            tb.sim.run_until(SimTime::from_secs(100));
            let collection = tb.sim.world.metadata.collection_of("policy_ds").unwrap();
            let file = tb.sim.world.metadata.all_files("policy_ds").unwrap()[0]
                .name
                .clone();
            let client = tb.client;
            let mut total = 0.0;
            for _ in 0..requests {
                let before = tb.sim.world.outcomes.len();
                submit_request(
                    &mut tb.sim,
                    client,
                    vec![(collection.clone(), file.clone())],
                    |s, o| s.world.outcomes.push(o),
                );
                // Run until this request lands.
                let horizon = tb.sim.now() + SimDuration::from_secs(3_600);
                while tb.sim.world.outcomes.len() == before && tb.sim.now() < horizon {
                    let next = tb.sim.now() + SimDuration::from_secs(5);
                    tb.sim.run_until(next);
                }
                let o = tb.sim.world.outcomes.last().expect("request completed");
                total += o.finished.since(o.started).as_secs_f64();
            }
            (name, total / requests as f64)
        })
        .collect()
}

/// A7: HRM staging impact — request latency (seconds) for disk-resident
/// data, a cold tape read, a warm (cached) tape re-read, and a prestaged
/// read.
pub fn hrm_staging_comparison() -> Vec<(&'static str, f64)> {
    use crate::scenario::esg_testbed;
    use esg_reqman::submit_request;

    let run_request =
        |tb: &mut crate::scenario::EsgTestbed, collection: String, file: String| -> f64 {
            let client = tb.client;
            let before = tb.sim.world.outcomes.len();
            submit_request(&mut tb.sim, client, vec![(collection, file)], |s, o| {
                s.world.outcomes.push(o)
            });
            let horizon = tb.sim.now() + SimDuration::from_secs(7_200);
            while tb.sim.world.outcomes.len() == before && tb.sim.now() < horizon {
                let next = tb.sim.now() + SimDuration::from_secs(5);
                tb.sim.run_until(next);
            }
            let o = tb.sim.world.outcomes.last().expect("request completed");
            o.finished.since(o.started).as_secs_f64()
        };

    let mut out = Vec::new();

    // Disk-resident at LLNL.
    {
        let mut tb = esg_testbed(31);
        tb.publish_dataset("on_disk", 8, 8, 12_500_000, &[1]);
        tb.start_nws(SimDuration::from_secs(20));
        tb.sim.run_until(SimTime::from_secs(100));
        let c = tb.sim.world.metadata.collection_of("on_disk").unwrap();
        let f = tb.sim.world.metadata.all_files("on_disk").unwrap()[0]
            .name
            .clone();
        out.push(("disk-resident (LLNL)", run_request(&mut tb, c, f)));
    }

    // Tape-resident at LBNL HPSS: cold, then warm, then prestaged.
    {
        let mut tb = esg_testbed(32);
        tb.publish_dataset("on_tape", 8, 8, 12_500_000, &[0]);
        tb.start_nws(SimDuration::from_secs(20));
        tb.sim.run_until(SimTime::from_secs(100));
        let c = tb.sim.world.metadata.collection_of("on_tape").unwrap();
        let f = tb.sim.world.metadata.all_files("on_tape").unwrap()[0]
            .name
            .clone();
        out.push((
            "tape cold (HRM stage)",
            run_request(&mut tb, c.clone(), f.clone()),
        ));
        out.push(("tape warm (HRM cache hit)", run_request(&mut tb, c, f)));
    }
    {
        let mut tb = esg_testbed(33);
        tb.publish_dataset("prestaged", 8, 8, 12_500_000, &[0]);
        tb.start_nws(SimDuration::from_secs(20));
        tb.sim.run_until(SimTime::from_secs(100));
        let c = tb.sim.world.metadata.collection_of("prestaged").unwrap();
        let f = tb.sim.world.metadata.all_files("prestaged").unwrap()[0]
            .name
            .clone();
        // Prestage ahead of the request (the "replicate popular
        // collections" pattern), then wait out the staging time.
        let now = tb.sim.now();
        let size = tb.sim.world.rm.catalog.file_size(&c, &f).unwrap();
        {
            let hrm = tb.sim.world.rm.hrms.get_mut("hpss.lbl.gov").unwrap();
            hrm.catalog.register(&f, size);
            hrm.prestage(&[&f], now).unwrap();
        }
        tb.sim.run_until(SimTime::from_secs(2_000));
        out.push(("tape prestaged", run_request(&mut tb, c, f)));
    }
    out
}

/// A8 (extension of §4's planning note): total time for an 8-file request
/// with replicas at three equal sites, with and without the spread
/// planner. Returns (no-spread seconds, spread seconds).
pub fn planner_spread_comparison() -> (f64, f64) {
    use crate::scenario::esg_testbed;
    use esg_reqman::submit_request;

    let run = |spread: bool| -> f64 {
        let mut tb = esg_testbed(41);
        // Three equal-capacity sites: ISI, NCAR, SDSC (all 155 Mb/s).
        tb.publish_dataset("spread_ds", 64, 8, 12_500_000, &[2, 4, 5]);
        tb.sim.world.rm.spread_sites = spread;
        // Lift the admission cap to the request size: this experiment
        // isolates the spread planner's effect, and the cap would
        // otherwise soften the no-spread arm's self-contention.
        tb.sim.world.rm.scheduler.max_active_per_request = 8;
        tb.start_nws(SimDuration::from_secs(20));
        tb.sim.run_until(SimTime::from_secs(100));
        let collection = tb.sim.world.metadata.collection_of("spread_ds").unwrap();
        let files: Vec<(String, String)> = tb
            .sim
            .world
            .metadata
            .all_files("spread_ds")
            .unwrap()
            .iter()
            .map(|f| (collection.clone(), f.name.clone()))
            .collect();
        let client = tb.client;
        submit_request(&mut tb.sim, client, files, |s, o| s.world.outcomes.push(o));
        tb.sim.run_until(SimTime::from_secs(7_200));
        let o = tb.sim.world.outcomes.first().expect("request completed");
        o.finished.since(o.started).as_secs_f64()
    };
    (run(false), run(true))
}

/// A9: NWS forecast quality under bursty cross-traffic. Returns, per
/// forecasting approach, the mean absolute error (bytes/sec) of predicting
/// each probe measurement from the previous ones, on a path shared with
/// seeded on/off background bursts.
pub fn nws_forecast_accuracy() -> Vec<(&'static str, f64)> {
    use esg_nws::{
        AdaptiveForecaster, ExpSmoothing, Forecaster, LastValue, RunningMean, SlidingMedian,
    };
    use esg_simnet::background::{start_background, BackgroundTraffic};
    use esg_simnet::Node;

    // A 100 Mb/s path with two competing on/off background sources.
    let mut topo = Topology::new();
    let a = topo.add_node(Node::host("probe-src"));
    let b = topo.add_node(Node::host("probe-dst"));
    topo.add_link(a, b, 100e6 / 8.0, SimDuration::from_millis(10));
    let mut sim: EsgSim = Sim::new(topo, EsgWorld::default());
    for seed in [11u64, 12] {
        start_background(
            &mut sim,
            BackgroundTraffic {
                src: a,
                dst: b,
                mean_on: SimDuration::from_secs(40),
                mean_off: SimDuration::from_secs(60),
                burst_rate: 8e6,
                seed,
                until: SimTime::from_secs(7000),
            },
        );
    }
    esg_nws::start_sensor(&mut sim, a, b, SimDuration::from_secs(30), 512.0 * 1024.0);
    sim.run_until(SimTime::from_secs(7200));
    let history: Vec<f64> = sim
        .world
        .nws
        .history(a, b)
        .iter()
        .map(|&(_, r)| r)
        .collect();
    assert!(history.len() > 100, "need a long probe history");

    // Replay the measurement stream through each forecaster and score
    // one-step-ahead mean absolute error.
    let mut contenders: Vec<(&'static str, Box<dyn Forecaster>)> = vec![
        ("last-value", Box::new(LastValue::default())),
        ("running-mean", Box::new(RunningMean::default())),
        ("sliding-median-5", Box::new(SlidingMedian::new(5))),
        ("exp-smoothing-0.50", Box::new(ExpSmoothing::new(0.5))),
        ("nws-adaptive", Box::new(AdaptiveForecaster::standard())),
    ];
    contenders
        .iter_mut()
        .map(|(name, f)| {
            let mut abs_err = 0.0;
            let mut scored = 0u64;
            for &x in &history {
                if let Some(p) = f.predict() {
                    abs_err += (p - x).abs();
                    scored += 1;
                }
                f.observe(x);
            }
            (*name, abs_err / scored.max(1) as f64)
        })
        .collect()
}

// ---------------------------------------------------------------------------
// E1 — server-side subsetting on the real loopback GridFTP server
// ---------------------------------------------------------------------------

/// What one E1 request moved, against the whole-file baseline.
#[derive(Debug, Clone, Copy)]
pub struct SubsettingResult {
    /// Size of the served ESG1 file.
    pub file_bytes: u64,
    /// Bytes a whole-file `RETR` delivered (client-side analysis).
    pub whole_bytes: u64,
    /// Loopback wall time of that whole-file get.
    pub whole_wall: Duration,
    /// Bytes the `ERET X` server-side extraction delivered.
    pub subset_bytes: u64,
}

/// E1 (ESG-II extension): write `params` as ESG1 files of
/// `steps_per_file` steps, serve the first from a real loopback GridFTP
/// server, fetch it whole, then fetch only `variable` over time steps
/// `t0..t1`. The scratch directory is removed on every path.
pub fn subsetting_comparison(
    params: SynthParams,
    steps_per_file: usize,
    variable: &str,
    t0: usize,
    t1: usize,
) -> Result<SubsettingResult, String> {
    static RUNS: AtomicU64 = AtomicU64::new(0);
    let root = std::env::temp_dir().join(format!(
        "esg-e1-{}-{}",
        std::process::id(),
        RUNS.fetch_add(1, Ordering::Relaxed)
    ));
    let result = subsetting_in(&root, params, steps_per_file, variable, t0, t1);
    let _ = std::fs::remove_dir_all(&root);
    result
}

fn subsetting_in(
    root: &Path,
    params: SynthParams,
    steps_per_file: usize,
    variable: &str,
    t0: usize,
    t1: usize,
) -> Result<SubsettingResult, String> {
    let chunks = esg_cdms::write_chunks(root, "pcm_big", params, steps_per_file)
        .map_err(|e| format!("write ESG1 files: {e}"))?;
    let (_, path, file_bytes) = chunks.first().ok_or("no ESG1 file written")?;
    let file = path
        .file_name()
        .and_then(|n| n.to_str())
        .ok_or("ESG1 file name is not UTF-8")?;
    let server =
        GridFtpServer::start(ServerConfig::new(root)).map_err(|e| format!("start server: {e}"))?;
    let mut c = GridFtpClient::connect(server.addr()).map_err(|e| format!("connect: {e}"))?;
    c.login_anonymous().map_err(|e| format!("login: {e}"))?;
    let t = Instant::now();
    let whole = c
        .get(file, TransferOptions::default())
        .map_err(|e| format!("get {file}: {e}"))?;
    let whole_wall = t.elapsed();
    let subset = c
        .get_subset(file, variable, t0, t1, TransferOptions::default())
        .map_err(|e| format!("subset {variable}[{t0}..{t1}]: {e}"))?;
    c.quit();
    Ok(SubsettingResult {
        file_bytes: *file_bytes,
        whole_bytes: whole.len() as u64,
        whole_wall,
        subset_bytes: subset.len() as u64,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn short_table1() -> Table1Config {
        Table1Config {
            duration: SimDuration::from_mins(10),
            sample: SimDuration::from_millis(50),
            ..Table1Config::default()
        }
    }

    /// At most one watch wake is ever queued, at the front watch's due.
    /// Counted from the run: over 3 minutes no chain dies, so every watch
    /// is on the 500 ms grid the run starts on and a live transfer is
    /// watched at each of its 360 instants — one wake each. A wake armed
    /// per watch would run 8 at the first instant and more from there.
    #[test]
    fn one_watch_wake_per_watched_instant() {
        profile::start();
        run_table1(Table1Config {
            duration: SimDuration::from_mins(3),
            ..Table1Config::default()
        });
        let report = profile::stop();
        assert_eq!(report.count_of("table1.watch_wakes"), 360);
    }

    #[test]
    fn table1_reproduces_paper_shape() {
        let r = run_table1(short_table1());
        assert_eq!(r.striped_servers_source, 8);
        assert_eq!(r.max_streams_total, 32);
        // Paper: 1.55 / 1.03 / 0.5129 Gb/s. Accept the band, and require
        // the strict ordering peak0.1 ≥ peak5 ≥ sustained.
        assert!(
            r.peak_0_1s_gbps > 1.2 && r.peak_0_1s_gbps <= 1.6,
            "peak 0.1s {}",
            r.peak_0_1s_gbps
        );
        assert!(
            r.peak_5s_gbps > 0.7 && r.peak_5s_gbps < 1.3,
            "peak 5s {}",
            r.peak_5s_gbps
        );
        assert!(
            r.sustained_mbps > 350.0 && r.sustained_mbps < 750.0,
            "sustained {}",
            r.sustained_mbps
        );
        assert!(r.peak_0_1s_gbps >= r.peak_5s_gbps);
        assert!(r.peak_5s_gbps * 1000.0 >= r.sustained_mbps);
    }

    #[test]
    fn fig8_shape_faults_and_recovery() {
        let cfg = Fig8Config {
            duration: SimDuration::from_hours(2),
            faults: vec![
                (0.25, SimDuration::from_mins(10), Fig8Fault::PowerFailure),
                (0.60, SimDuration::from_mins(8), Fig8Fault::DnsOutage),
            ],
            ..Fig8Config::default()
        };
        let r = run_fig8(cfg);
        // Plateau ~80 Mb/s (disk limited).
        assert!(
            r.plateau_mbps > 60.0 && r.plateau_mbps < 95.0,
            "plateau {}",
            r.plateau_mbps
        );
        // The power failure must produce dead bins, and transfers must
        // resume afterwards (multiple completions).
        assert!(r.dead_bins >= 5, "dead bins {}", r.dead_bins);
        assert!(r.restarts >= 1, "restarts {}", r.restarts);
        assert!(
            r.transfers_completed >= 10,
            "completed {}",
            r.transfers_completed
        );
        assert!(r.mean_mbps < r.plateau_mbps);
    }

    #[test]
    fn parallel_sweep_monotone_until_cap() {
        let sweep = sweep_parallel_streams(&[1, 2, 4, 8]);
        assert!(sweep[1].1 > sweep[0].1 * 1.5, "{sweep:?}");
        assert!(sweep[2].1 > sweep[1].1 * 1.4, "{sweep:?}");
        // 8 streams approaches or hits a ceiling — still ≥ 4-stream rate.
        assert!(sweep[3].1 >= sweep[2].1 * 0.95, "{sweep:?}");
    }

    #[test]
    fn buffer_sweep_crosses_at_bdp() {
        // Path: 622 Mb/s, RTT 30 ms → BDP ≈ 2.3 MB.
        let sweep = sweep_buffer_size(&[64 << 10, 256 << 10, 1 << 20, 4 << 20, 16 << 20]);
        // Below BDP rate ≈ window/RTT: 64 KB / 30 ms ≈ 17.5 Mb/s.
        assert!(sweep[0].1 < 25.0, "{sweep:?}");
        // Well above BDP the link saturates.
        assert!(sweep[4].1 > 500.0, "{sweep:?}");
        // Monotone non-decreasing.
        for w in sweep.windows(2) {
            assert!(w[1].1 >= w[0].1 * 0.99, "{sweep:?}");
        }
    }

    #[test]
    fn stripes_scale_toward_wan_cap() {
        let sweep = sweep_stripes(&[1, 2, 4, 8]);
        assert!(sweep[1].1 > sweep[0].1 * 1.6, "{sweep:?}");
        assert!(sweep[3].1 > sweep[2].1 * 1.2, "{sweep:?}");
    }

    #[test]
    fn channel_caching_saves_per_file_overhead() {
        // Small files: per-file setup overhead dominates, as with the
        // consecutive-transfer valleys of Figure 8.
        let (uncached, cached) = ablation_channel_caching(6, 5_000_000);
        assert!(
            cached < uncached * 0.75,
            "caching should cut per-file time: {uncached:.2}s vs {cached:.2}s"
        );
    }

    #[test]
    fn cpu_ablation_ordering() {
        let rows = ablation_cpu_model();
        assert!(rows[1].1 > rows[0].1, "{rows:?}");
        assert!(rows[2].1 > rows[1].1, "{rows:?}");
    }

    #[test]
    fn adaptive_forecaster_competitive_under_bursts() {
        let rows = nws_forecast_accuracy();
        let adaptive = rows.iter().find(|(n, _)| *n == "nws-adaptive").unwrap().1;
        let worst = rows.iter().map(|&(_, e)| e).fold(f64::MIN, f64::max);
        // The meta-forecaster never loses to the worst single method and
        // tracks within 25% of the best single method — the point of the
        // mixture: robustness without knowing the regime in advance.
        let best_single = rows
            .iter()
            .filter(|(n, _)| *n != "nws-adaptive")
            .map(|&(_, e)| e)
            .fold(f64::MAX, f64::min);
        assert!(adaptive < worst, "adaptive {adaptive} worst {worst}");
        assert!(
            adaptive < best_single * 1.25,
            "adaptive {adaptive} best single {best_single}"
        );
    }

    #[test]
    fn nws_policy_beats_baselines() {
        let rows = replica_policy_comparison(3);
        let nws = rows[0].1;
        let rr = rows[1].1;
        let rnd = rows[2].1;
        assert!(nws < rr, "nws {nws} vs round-robin {rr}");
        assert!(nws < rnd * 0.8, "nws {nws} vs random {rnd}");
    }

    #[test]
    fn hrm_staging_tiers_ordered() {
        let rows = hrm_staging_comparison();
        let disk = rows[0].1;
        let cold = rows[1].1;
        let warm = rows[2].1;
        let prestaged = rows[3].1;
        assert!(cold > disk * 5.0, "cold tape {cold} vs disk {disk}");
        assert!(warm < cold / 3.0, "warm {warm} vs cold {cold}");
        assert!(
            prestaged < cold / 3.0,
            "prestaged {prestaged} vs cold {cold}"
        );
    }

    #[test]
    fn spread_planner_speeds_multi_file_requests() {
        let (no_spread, spread) = planner_spread_comparison();
        assert!(
            spread < no_spread * 0.55,
            "spreading 8 files over 3 sites should be much faster: \
             {no_spread:.1}s vs {spread:.1}s"
        );
    }

    #[test]
    fn subsetting_moves_a_fraction_and_leaves_no_scratch_dir() {
        let params = SynthParams {
            lat_points: 8,
            lon_points: 16,
            time_steps: 24,
            hours_per_step: 6.0,
            seed: 8,
        };
        let r = subsetting_comparison(params, 24, "tas", 0, 6).unwrap();
        assert_eq!(r.whole_bytes, r.file_bytes);
        assert!(
            r.subset_bytes > 0 && r.subset_bytes * 3 < r.file_bytes,
            "{r:?}"
        );
        // A request the server refuses fails the run and still cleans up.
        assert!(subsetting_comparison(params, 24, "no_such_var", 0, 6).is_err());
        let prefix = format!("esg-e1-{}-", std::process::id());
        let left: Vec<_> = std::fs::read_dir(std::env::temp_dir())
            .unwrap()
            .filter_map(Result::ok)
            .filter(|e| e.file_name().to_string_lossy().starts_with(&prefix))
            .map(|e| e.path())
            .collect();
        assert!(left.is_empty(), "scratch dirs left behind: {left:?}");
    }

    #[test]
    fn gridftp_beats_baselines_under_failure() {
        let rows = baseline_comparison();
        let ftp = rows[0].1;
        let gridftp = rows[2].1;
        assert!(
            gridftp < ftp * 0.6,
            "gridftp {gridftp}s should beat ftp {ftp}s comfortably"
        );
    }
}
