//! The Request Manager.
//!
//! "The Request Manager (RM) is a component designed to initiate, control
//! and monitor multiple file transfers on behalf of multiple users
//! concurrently." (§4) For each file of each request its worker:
//!
//! 1. finds all replicas in the replica catalog;
//! 2. consults NWS for bandwidth/latency from each replica site;
//! 3. selects the best replica;
//! 4. initiates a GridFTP get (staging from tape via HRM first when the
//!    chosen site's files live on mass storage);
//! 5. monitors progress "by checking the file size of the file being
//!    transferred at the local site every few seconds".
//!
//! The reliability plugin of §7 is implemented on top of the monitor: when
//! a transfer stalls, exceeds its attempt timeout, or its rate drops below
//! a configurable threshold, the worker cancels it, banks the bytes
//! already delivered (restart marker) and switches to an alternate
//! replica. Failures feed per-host [`CircuitBreaker`]s — a host that keeps
//! failing is taken out of selection until a cooldown passes and a probe
//! transfer readmits it — and every requeue is scheduled through the
//! manager's [`RetryPolicy`] (exponential backoff with seeded jitter)
//! rather than a fixed delay. When every replica of a file is excluded or
//! breaker-blocked the file is not failed: it re-enters the queue with
//! backoff and waits for the network to heal. Only an exhausted
//! `max_attempts` cap marks a file failed.
//!
//! That lifecycle is one pure step function (`lifecycle.rs`); this module
//! is its driver, the only caller of the span, ledger, breaker and transfer
//! calls a file makes. The manager owns every live request (and campaign)
//! outright. A file is addressed by a `Copy` `FileId`, scheduled closures
//! capture ids and the data of their own event, and **a wake that finds its
//! request gone returns** — so a finished request is freed on the spot and
//! nothing scheduled for it can act on it.

use crate::integrity::{verify, IntegrityManager};
pub use crate::lifecycle::FileStatus;
use crate::lifecycle::{
    Choice, Effect, Event, FileLife, Poll, PullKind, Rules, Selection, Settled,
};
use crate::reliability::{BreakerTransition, CircuitBreaker, RetryPolicy};
pub use crate::scheduler::TransferTuning;
use crate::scheduler::{
    bdp_tuning, order_queue, AdmissionPolicy, HostLedger, SchedStats, SchedulerConfig, Tenancy,
    TenantTable, DEFAULT_TENANT, DEFER_RETRY, MAX_INFLIGHT_PER_HOST,
};
use esg_gridftp::simxfer::{
    cancel_transfer, start_transfer, transfer_bytes, transfer_rate, transfer_stalled, HasGridFtp,
};
use esg_netlogger::{LogEvent, MetricsRegistry, Phase, SpanId, Text, TraceCtx, TracedLog, Value};
use esg_nws::HasNws;
use esg_replica::{PathEstimate, Policy, ReplicaCatalog, ReplicaSelector};
use esg_simnet::{profile, Completion, NodeId, Sim, SimDuration, SimTime};
use esg_storage::{Hrm, StageOutcome};

use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::{BTreeMap, BTreeSet, HashMap, VecDeque};
use std::ops::ControlFlow;

/// CORBA call latency between the client and the RM.
const RPC_LATENCY: SimDuration = SimDuration::from_millis(2);

/// Monitor poll interval: the RM checks each transfer's progress "every few
/// seconds" (§4).
const POLL: SimDuration = SimDuration::from_secs(3);

/// World bound shared by all request-manager operations.
pub trait RmWorld: HasGridFtp + HasNws + HasReqMan + 'static {}
impl<W: HasGridFtp + HasNws + HasReqMan + 'static> RmWorld for W {}

/// World access to the manager.
pub trait HasReqMan {
    fn reqman(&mut self) -> &mut RequestManager;
}

/// Outcome delivered when a whole request finishes.
#[derive(Debug, Clone, PartialEq)]
pub struct RequestOutcome {
    pub id: u64,
    pub started: SimTime,
    pub finished: SimTime,
    pub files: Vec<FileStatus>,
    pub total_bytes: u64,
}

/// One file of one live request: what a scheduled wake carries in place of
/// the state itself.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct FileId {
    request: u64,
    idx: usize,
}

/// Names that recur in trace events — hosts and tenants — each built into a
/// [`Text`] on its first event and shared by every later one, so an event
/// naming a host or tenant allocates nothing.
#[derive(Default)]
pub(crate) struct TraceNames(HashMap<String, Text>);

impl TraceNames {
    pub(crate) fn get(&mut self, name: &str) -> Text {
        if let Some(text) = self.0.get(name) {
            return text.clone();
        }
        let text = Text::shared(name);
        self.0.insert(name.to_string(), text.clone());
        text
    }
}

/// A file's lifecycle and its lifeline's spans: the root `Phase::File` span
/// (NONE before the RPC lands and after the file settles) with its opening
/// time, the open phase span `(id, phase, opened_at)`, and the file name as
/// every event of the lifeline shares it.
struct FileWork {
    life: FileLife,
    trace_root: SpanId,
    trace_opened: SimTime,
    trace_phase: Option<(SpanId, Phase, SimTime)>,
    trace_name: Text,
}

struct RequestState {
    id: u64,
    client: NodeId,
    /// Tenant this request is accounted to by the weighted fair-share
    /// admission check (campaign name, or [`DEFAULT_TENANT`]).
    tenant: String,
    files: Vec<FileWork>,
    remaining: usize,
    started: SimTime,
    /// Ready queue of file indices awaiting admission (scheduler mode).
    queue: VecDeque<usize>,
    /// Files currently holding an admission slot.
    active: usize,
    /// A per-request monitor tick is scheduled.
    monitor_active: bool,
    /// Indices with a live pull — the monitor tick's working set, in the
    /// ascending order the pinned traces depend on.
    live: BTreeSet<usize>,
    /// Indices with banked-but-unfinished bytes
    /// (`bytes_done > 0 && !done`) — the campaign marker tick's working
    /// set. Failed files with banked bytes stay in: their restart markers
    /// are still worth journaling.
    progress: BTreeSet<usize>,
    /// Sum of catalog sizes, fixed at submit — the outcome's
    /// `total_bytes` without an O(files) re-sum at completion.
    total_size: u64,
    /// The submitter's callback, fired by `finish_request`.
    on_complete: Completion,
}

impl RequestState {
    /// Re-derive file `idx`'s membership in the incremental index sets
    /// from its current status, once per step; O(log files).
    fn sync_file(&mut self, idx: usize) {
        let life = &self.files[idx].life;
        if life.live().is_some() && !life.settled() {
            self.live.insert(idx);
        } else {
            self.live.remove(&idx);
        }
        if life.status.bytes_done > 0 && !life.status.done {
            self.progress.insert(idx);
        } else {
            self.progress.remove(&idx);
        }
    }
}

/// The request manager: catalogs, site map, HRMs, policy and live state.
pub struct RequestManager {
    /// The Globus replica catalog.
    pub catalog: ReplicaCatalog,
    /// Hostname → simulator node.
    pub hosts: HashMap<String, NodeId>,
    /// HRM per tape-backed site (by hostname).
    pub hrms: HashMap<String, Hrm>,
    /// Replica selection policy.
    pub selector: ReplicaSelector,
    /// Reliability plugin: restart when rate drops below this (bytes/sec).
    /// Zero disables the rate check (stalls are always handled).
    pub min_rate: f64,
    /// Grace period before the rate check applies (slow start).
    pub grace: SimDuration,
    /// Backoff schedule, attempt cap and per-attempt timeout for requeues.
    pub retry: RetryPolicy,
    /// Live stall detection threshold. When set (via
    /// [`enable_live_analysis`](Self::enable_live_analysis)), every phase
    /// and prestage span is watched until `open + threshold + 1 ns`, and one
    /// that is still open then fires `obs.stall` *at detection time* — the
    /// streaming counterpart of the offline
    /// [`LifelineSet::detect_stalls`](esg_netlogger::LifelineSet::detect_stalls)
    /// pass. One kernel wake at the earliest deadline serves every watched
    /// span. `None` (the default) emits nothing, keeping golden traces
    /// byte-identical. Fixed once set: the watch list relies on deadlines
    /// arriving in order.
    pub stall_threshold: Option<SimDuration>,
    /// Plan multi-file requests to spread pulls across sites (§4:
    /// "maximize the number of different sites from which files are
    /// obtained"). When false, every file independently uses `selector`.
    pub spread_sites: bool,
    /// Structured event log (NetLogger). A [`TracedLog`]: read queries
    /// deref to [`esg_netlogger::NetLog`], but emission requires a
    /// [`TraceCtx`] — un-contexted `push` inside the RM is a compile error.
    pub log: TracedLog,
    /// Integrity policy, per-site corruption stores and quarantine state.
    pub integrity: IntegrityManager,
    /// Pipelined transfer scheduler: its master switch, admission caps and
    /// release policy.
    pub scheduler: SchedulerConfig,
    /// Deterministic metrics registry: every manager counter/gauge/
    /// histogram lives here behind one interface (scheduler stats, monitor
    /// ticks, integrity incidents, phase-duration histograms).
    pub metrics: MetricsRegistry,
    /// Multi-tenant weighted fair-share table (budget, weights, quotas).
    /// Inert by default.
    pub tenants: TenantTable,
    /// Manager-wide in-flight pulls per source host (all requests).
    inflight: HostLedger,
    breakers: HashMap<String, CircuitBreaker>,
    /// The host and tenant names trace events carry, each built once.
    pub(crate) names: TraceNames,
    rng: StdRng,
    /// Every live request, by id (ids are never reused). The manager is the
    /// only owner: what leaves this map is gone.
    requests: HashMap<u64, RequestState>,
    /// Live tenants: the fair share's active set and starvation clocks.
    tenancy: Tenancy,
    /// Live campaign state, keyed by campaign id (see `campaign.rs`).
    pub(crate) campaigns: HashMap<u64, crate::campaign::CampaignState>,
    pub(crate) campaign_seq: u64,
    next_id: u64,
    xfer_seq: u64,
    /// The effect buffer every step reuses.
    fx: Vec<Effect>,
    /// Spans watched for a live stall, in arm order, which is deadline
    /// order (see `arm_stall_probe`). One stall wake is queued, at the
    /// front deadline, exactly while this is not empty.
    stall_watch: VecDeque<StallWatch>,
}

impl Default for RequestManager {
    fn default() -> Self {
        Self::new(Policy::BestBandwidth, 42)
    }
}

impl RequestManager {
    pub fn new(policy: Policy, seed: u64) -> Self {
        RequestManager {
            catalog: ReplicaCatalog::new(),
            hosts: HashMap::new(),
            hrms: HashMap::new(),
            selector: ReplicaSelector::new(policy, seed),
            min_rate: 0.0,
            grace: SimDuration::from_secs(10),
            retry: RetryPolicy::default(),
            stall_threshold: None,
            spread_sites: false,
            log: TracedLog::new(),
            integrity: IntegrityManager::default(),
            scheduler: SchedulerConfig::default(),
            metrics: MetricsRegistry::new(),
            tenants: TenantTable::default(),
            inflight: HostLedger::default(),
            breakers: HashMap::new(),
            names: TraceNames::default(),
            // Decorrelate the jitter stream from the selector's RNG while
            // staying a pure function of the caller's seed.
            rng: StdRng::seed_from_u64(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(1)),
            requests: HashMap::new(),
            tenancy: Tenancy::default(),
            campaigns: HashMap::new(),
            campaign_seq: 0,
            next_id: 0,
            xfer_seq: 0,
            fx: Vec::new(),
            stall_watch: VecDeque::new(),
        }
    }

    /// Register a storage host.
    pub fn add_host(&mut self, name: impl Into<String>, node: NodeId) {
        self.hosts.insert(name.into(), node);
    }

    /// Turn on the streaming observability plane: attach the online
    /// lifeline analyzer to the trace log (replaying anything already
    /// emitted, so mid-run activation is complete) and arm live stall
    /// detection at `threshold`. From here on every phase/prestage span is
    /// watched, and `obs.stall` fires the instant a span has been open
    /// longer than the threshold — the same strict-`>` rule the offline
    /// detector applies post-hoc. At most one kernel wake is queued for
    /// all of them, at the earliest open deadline, so a span that closes in
    /// time costs no event of its own. Each firing bumps the `obs.stalls`
    /// counter plus the per-phase `obs.stall.<phase>_s` histogram in the
    /// metrics registry. Call it once: the threshold is fixed from here on.
    pub fn enable_live_analysis(&mut self, threshold: SimDuration) {
        self.log.attach_live();
        self.stall_threshold = Some(threshold);
    }

    /// The attached online lifeline analyzer (None unless
    /// [`enable_live_analysis`](Self::enable_live_analysis) was called).
    pub fn live(&self) -> Option<&esg_netlogger::LiveLifelines> {
        self.log.live()
    }

    /// Attach an HRM (tape-backed MSS) to a host.
    pub fn add_hrm(&mut self, host: impl Into<String>, hrm: Hrm) {
        self.hrms.insert(host.into(), hrm);
    }

    /// Live status snapshot of a request's files (for the Figure 4
    /// monitor).
    pub fn status(&self, request: u64) -> Option<Vec<FileStatus>> {
        let req = self.requests.get(&request)?;
        Some(req.files.iter().map(|f| f.life.status.clone()).collect())
    }

    /// All live request ids.
    pub fn live_requests(&self) -> Vec<u64> {
        let mut v: Vec<u64> = self.requests.keys().copied().collect();
        v.sort_unstable();
        v
    }

    /// Current breaker state for a host, if one has been created.
    #[cfg(test)]
    pub fn breaker_state(&self, host: &str) -> Option<crate::reliability::BreakerState> {
        self.breakers.get(host).map(|b| b.state())
    }

    /// The manager-wide in-flight pull ledger (read-only view).
    pub fn inflight(&self) -> &HostLedger {
        &self.inflight
    }

    /// Scheduler observability counters, materialised from the metrics
    /// registry (the single source of truth).
    pub fn sched_stats(&self) -> SchedStats {
        SchedStats::from_registry(&self.metrics)
    }

    /// Per-request monitor ticks executed (perf regression gauge: one per
    /// poll interval per live request, not one per file).
    pub fn monitor_ticks(&self) -> u64 {
        self.metrics.counter("rm.monitor.ticks")
    }

    /// Banked-progress snapshot for the campaign marker tick, served from
    /// the request's incremental `progress` index: only files with
    /// unfinished banked bytes are visited (and nothing is cloned but
    /// their names), in ascending file order. `None` when the request
    /// already finished.
    pub fn marker_progress(&self, request: u64) -> Option<Vec<(String, u64)>> {
        let st = self.requests.get(&request)?;
        Some(
            st.progress
                .iter()
                .map(|&i| {
                    let status = &st.files[i].life.status;
                    (status.name.clone(), status.bytes_done)
                })
                .collect(),
        )
    }

    /// Non-committal check used when filtering replica candidates.
    fn breaker_would_admit(&self, host: &str, now: SimTime) -> bool {
        self.breakers.get(host).is_none_or(|b| b.would_admit(now))
    }

    /// Apply `judge` to `host`'s breaker, made on first use, and log the
    /// transition it reports.
    fn breaker(
        &mut self,
        host: &str,
        now: SimTime,
        judge: impl FnOnce(&mut CircuitBreaker) -> Option<BreakerTransition>,
    ) {
        if !self.breakers.contains_key(host) {
            self.breakers
                .insert(host.to_string(), CircuitBreaker::default());
        }
        let name = match self.breakers.get_mut(host).and_then(judge) {
            Some(BreakerTransition::Opened) => "rm.breaker.open",
            Some(BreakerTransition::HalfOpened) => "rm.breaker.half_open",
            Some(BreakerTransition::Closed) => "rm.breaker.close",
            None => return,
        };
        self.metrics.counter_add(name, 1);
        self.log.emit(
            &TraceCtx::system(),
            LogEvent::new(now, name).field("host", self.names.get(host)),
        );
    }

    /// At-rest corruption visible at `host` for file `name` by time `by`:
    /// tape sites record flips in their HRM's object store, plain disk
    /// sites in the integrity manager's per-host store.
    pub fn at_rest_flips(&self, host: &str, name: &str, by: SimTime) -> Vec<(u64, u64)> {
        if let Some(hrm) = self.hrms.get(host) {
            return hrm.store.flips_at(name, by);
        }
        self.integrity
            .stores
            .get(host)
            .map(|s| s.flips_at(name, by))
            .unwrap_or_default()
    }

    /// Inject at-rest corruption of one block of `name` at `host` (fault
    /// hook for soak tests): routed to the HRM's store for tape-backed
    /// sites, else the per-host integrity store.
    pub fn corrupt_at_rest(&mut self, host: &str, name: &str, block: u64, nonce: u64, at: SimTime) {
        if let Some(hrm) = self.hrms.get_mut(host) {
            hrm.store.flip(name, block, nonce, at);
        } else {
            self.integrity
                .stores
                .entry(host.to_string())
                .or_default()
                .flip(name, block, nonce, at);
        }
    }
}

/// One span the stall wake watches: its deadline `open + threshold + 1 ns`
/// and what its `obs.stall` would say.
struct StallWatch {
    deadline: SimTime,
    span: SpanId,
    ctx: TraceCtx,
    phase: Phase,
    opened: SimTime,
}

/// Watch a freshly-opened phase/prestage span for a stall at
/// `open + threshold + 1 ns`. If the span is still open then, the stall is
/// real under the offline detector's strict-`>` rule (a span that closed
/// with duration exactly equal to the threshold is *not* a stall, and the
/// +1 ns makes the check see it closed). The span joins the manager's
/// watch list; a kernel wake is queued only when the list was empty, so at
/// most one is ever queued, at the earliest deadline. No-op unless
/// `stall_threshold` is set.
fn arm_stall_probe<W: RmWorld>(sim: &mut Sim<W>, ctx: &TraceCtx, span: SpanId, phase: Phase) {
    let opened = sim.now();
    let rm = sim.world.reqman();
    let Some(threshold) = rm.stall_threshold else {
        return;
    };
    let deadline = SimTime((opened + threshold).as_nanos() + 1);
    // Opens never go back in time and the threshold is fixed, so arm order
    // is deadline order and the front is always the earliest.
    debug_assert!(rm.stall_watch.back().is_none_or(|w| w.deadline <= deadline));
    rm.stall_watch.push_back(StallWatch {
        deadline,
        span,
        ctx: ctx.clone(),
        phase,
        opened,
    });
    if rm.stall_watch.len() == 1 {
        sim.schedule_at(deadline, stall_wake);
    }
}

/// The one queued stall wake, at the front deadline. Every due span still
/// open in the live tap fires `obs.stall` now, at detection time, in arm
/// order, and feeds the metrics registry; due spans that closed in time and
/// closed spans at the front go without a trace. The wake then re-arms at
/// the first deadline left, if any.
fn stall_wake<W: RmWorld>(sim: &mut Sim<W>) {
    let now = sim.now();
    let rm = sim.world.reqman();
    while let Some(w) = rm.stall_watch.front() {
        let open = rm.log.live().is_some_and(|l| l.is_open(w.span.0));
        if open && w.deadline > now {
            break;
        }
        let w = rm.stall_watch.pop_front().expect("the front was just read");
        if !open {
            continue;
        }
        let age = now.since(w.opened).as_secs_f64();
        rm.metrics.counter_add("obs.stalls", 1);
        rm.metrics.observe(w.phase.stall_metric(), age);
        rm.log.emit(
            &w.ctx,
            LogEvent::new(now, "obs.stall")
                .field("span", w.span.0)
                .field("phase", w.phase.as_str())
                .field("stalled_s", age)
                .field("open", 1u64),
        );
        if let Some(live) = rm.log.live_mut() {
            live.note_stall_fired();
        }
    }
    if let Some(at) = rm.stall_watch.front().map(|w| w.deadline) {
        sim.schedule_at(at, stall_wake);
    }
}

/// Submit a request: the CDAT client hands the RM a list of logical files
/// (collection, file name). The callback fires when every file has landed.
/// Accounted to [`DEFAULT_TENANT`] for fair sharing.
pub fn submit_request<W: RmWorld>(
    sim: &mut Sim<W>,
    client: NodeId,
    files: Vec<(String, String)>,
    on_complete: impl FnOnce(&mut Sim<W>, RequestOutcome) + 'static,
) -> u64 {
    submit_request_for_tenant(sim, client, files, DEFAULT_TENANT, on_complete)
}

/// [`submit_request`] accounted to a named tenant: the campaign
/// orchestrator submits every round this way so its pulls are governed by
/// the tenant's weighted fair share rather than the interactive pool's.
pub fn submit_request_for_tenant<W: RmWorld>(
    sim: &mut Sim<W>,
    client: NodeId,
    files: Vec<(String, String)>,
    tenant: &str,
    on_complete: impl FnOnce(&mut Sim<W>, RequestOutcome) + 'static,
) -> u64 {
    let now = sim.now();
    let rm = sim.world.reqman();
    let id = rm.next_id;
    rm.next_id += 1;
    rm.tenancy.activate(tenant, now);

    let mut work = Vec::with_capacity(files.len());
    for (collection, name) in files {
        let size = rm.catalog.file_size(&collection, &name).ok();
        let trace_name = Text::from(name.clone());
        let status = FileStatus {
            collection,
            name,
            size: size.unwrap_or(0),
            ..Default::default()
        };
        let life = FileLife {
            status,
            known: size.is_some(),
            ..Default::default()
        };
        work.push(FileWork {
            life,
            trace_root: SpanId::NONE,
            trace_phase: None,
            trace_opened: SimTime::ZERO,
            trace_name,
        });
    }
    let n_files = work.len();
    let total_size = work.iter().map(|f| f.life.status.size).sum();
    rm.requests.insert(
        id,
        RequestState {
            id,
            client,
            tenant: tenant.to_string(),
            files: work,
            remaining: n_files,
            started: now,
            queue: VecDeque::new(),
            active: 0,
            monitor_active: false,
            live: BTreeSet::new(),
            progress: BTreeSet::new(),
            total_size,
            on_complete: Completion::new(on_complete),
        },
    );
    rm.metrics.counter_add("rm.requests.submitted", 1);
    rm.log.emit(
        &TraceCtx::request(id),
        LogEvent::new(now, "rm.request.submit").field("files", n_files),
    );

    // The CORBA hop, then hand the files to the scheduler: prestage cold
    // tape files, order the ready queue by admission policy, and release
    // workers under the per-request cap. With the scheduler disabled every
    // worker starts at once ("for each file of each request, the
    // multi-threaded RM opens a separate program thread").
    let sched = rm.scheduler;
    sim.schedule(RPC_LATENCY, move |s| {
        if n_files == 0 {
            if let Some(req) = s.world.reqman().requests.remove(&id) {
                finish_request(s, req);
            }
            return;
        }
        // Every file's lifeline opens when the RPC lands; files then sit in
        // the Queue phase until their worker picks them up (zero-length for
        // immediately-admitted files, the real wait for queued ones).
        for idx in 0..n_files {
            drive(s, FileId { request: id, idx }, Event::Open);
        }
        if sched.enabled {
            prestage_cold_files(s, id);
            let Some(req) = s.world.reqman().requests.get_mut(&id) else {
                return;
            };
            let sizes: Vec<u64> = req.files.iter().map(|f| f.life.status.size).collect();
            let order = order_queue(AdmissionPolicy::ShortestFirst, &sizes);
            req.queue = VecDeque::from(order);
            pump_request(s, id);
        } else {
            for idx in 0..n_files {
                drive(s, FileId { request: id, idx }, Event::Wake);
            }
        }
    });
    id
}

/// Release queued files into workers while the request has free admission
/// slots. A file holds its slot from admission until it settles (done or
/// failed), across retries, so a request never has more than the cap's
/// worth of files competing for the client NIC at once.
fn pump_request<W: RmWorld>(sim: &mut Sim<W>, id: u64) {
    let _rm_scope = profile::scope(profile::RM);
    profile::count("rm.pumps", 1);
    loop {
        let rm = sim.world.reqman();
        let cap = rm.scheduler.max_active_per_request.max(1);
        let Some(req) = rm.requests.get_mut(&id) else {
            return;
        };
        if req.active >= cap {
            return;
        }
        let Some(idx) = req.queue.pop_front() else {
            return;
        };
        req.active += 1;
        rm.metrics.counter_add(SchedStats::ADMITTED, 1);
        rm.metrics
            .gauge_max(SchedStats::PEAK_ACTIVE, req.active as f64);
        drive(sim, FileId { request: id, idx }, Event::Admitted);
    }
}

/// Stage-ahead prefetch: ask each tape-backed site to start pulling the
/// request's cold files off tape now, so mount/seek/stream latency overlaps
/// the WAN transfers of files ahead of them in the queue instead of
/// serializing behind admission. Only files with no disk replica are
/// prefetched — staging a tape copy selection will never prefer wastes
/// tape drive time.
fn prestage_cold_files<W: RmWorld>(sim: &mut Sim<W>, id: u64) {
    let now = sim.now();
    let rm = sim.world.reqman();
    // No tape-backed host, no cold file: skip the per-file catalog lookups
    // that would each conclude the same.
    if rm.hrms.is_empty() {
        return;
    }
    let Some(req) = rm.requests.get(&id) else {
        return;
    };
    // Cold files by tape host, hosts in name order.
    let mut plan: BTreeMap<Text, Vec<String>> = BTreeMap::new();
    for f in &req.files {
        let (name, size) = (&f.life.status.name, f.life.status.size);
        let holders = rm.catalog.replica_hosts(&f.life.status.collection, name);
        if holders.clone().next().is_none()
            || holders.clone().any(|(host, _)| !rm.hrms.contains_key(host))
        {
            continue;
        }
        for (host, _) in holders {
            let Some(hrm) = rm.hrms.get_mut(host) else {
                continue;
            };
            if hrm.catalog.size_of(name).is_none() {
                hrm.catalog.register(name, size);
            }
            if !hrm.resident(name, now) {
                plan.entry(rm.names.get(host))
                    .or_default()
                    .push(name.clone());
            }
        }
    }
    let ctx = TraceCtx::request(id);
    for (host, names) in plan {
        let rm = sim.world.reqman();
        let Some(hrm) = rm.hrms.get_mut(host.as_str()) else {
            continue;
        };
        let refs: Vec<&str> = names.iter().map(|s| s.as_str()).collect();
        let ready = hrm.prestage(&refs, now).ok();
        rm.metrics
            .counter_add(SchedStats::PRESTAGED, names.len() as u64);
        // A request-scoped Prestage span covers the whole host batch: it
        // opens now and closes when the HRM says the last file is staged,
        // so lifelines show how much tape latency the prefetch hid.
        let span = rm.log.span_start(&ctx, now, Phase::Prestage, None);
        rm.log.emit(
            &ctx,
            LogEvent::new(now, "rm.prestage")
                .field("host", host.clone())
                .field("files", names.len() as u64),
        );
        let ready = ready.unwrap_or(now).max(now);
        let n = names.len() as u64;
        let ctx2 = ctx.clone();
        sim.schedule(ready.since(now), move |s| {
            let done = s.now();
            s.world.reqman().log.span_end(
                &ctx2,
                done,
                span,
                Phase::Prestage,
                [("host", host.into()), ("files", n.into())],
            );
        });
        arm_stall_probe(sim, &ctx, span, Phase::Prestage);
    }
}

/// Every file has settled: the request, already out of the manager, is
/// freed here and its submitter hears.
fn finish_request<W: RmWorld>(sim: &mut Sim<W>, req: RequestState) {
    let now = sim.now();
    let rm = sim.world.reqman();
    rm.tenancy.retire(&req.tenant);
    rm.metrics.counter_add("rm.requests.completed", 1);
    rm.log.emit(
        &TraceCtx::request(req.id),
        LogEvent::new(now, "rm.request.complete").field("bytes", req.total_size),
    );
    // Moved into a buffer of their own size: `collect` would hand the
    // submitter the three-times-larger `FileWork` allocation to keep.
    let mut files = Vec::with_capacity(req.files.len());
    files.extend(req.files.into_iter().map(|f| f.life.status));
    let outcome = RequestOutcome {
        id: req.id,
        started: req.started,
        finished: now,
        files,
        total_bytes: req.total_size,
    };
    req.on_complete.call(sim, outcome);
}

/// The driver: step file `f` with `ev`, apply the effects in order, and
/// step each query's answer in turn. The request leaves the manager for the
/// step — a wake that finds it gone returns — and goes back after it. A
/// file that settles done or failed then hands its slot to the next queued
/// file, or, when it was the request's last, `finish_request` frees the
/// request.
fn drive<W: RmWorld>(sim: &mut Sim<W>, f: FileId, ev: Event) {
    let _rm_scope = profile::scope(profile::RM);
    let rm = sim.world.reqman();
    let Some(mut req) = rm.requests.remove(&f.request) else {
        return;
    };
    let rules = Rules {
        retry: rm.retry,
        min_rate: rm.min_rate,
        grace: rm.grace,
    };
    let mut fx = std::mem::take(&mut rm.fx);
    let (mut next, mut settled) = (Some(ev), None);
    while let Some(ev) = next.take() {
        let now = sim.now();
        req.files[f.idx].life.step(ev, now, &rules, &mut fx);
        req.sync_file(f.idx);
        let fw = &req.files[f.idx];
        let ctx = TraceCtx::request(req.id)
            .with_file(fw.trace_name.clone())
            .with_attempt(fw.life.status.attempts);
        for effect in fx.drain(..) {
            let rm = sim.world.reqman();
            let fw = &mut req.files[f.idx];
            match effect {
                Effect::Open => {
                    fw.trace_root = rm.log.span_start(&ctx, now, Phase::File, None);
                    fw.trace_opened = now;
                }
                Effect::Enter(phase, bytes) => {
                    if let Some((span, open, opened)) = fw.trace_phase {
                        let extra = bytes.map(|b| ("bytes", Value::from(b)));
                        rm.log.span_end(&ctx, now, span, open, extra);
                        rm.metrics
                            .observe(open.metric(), now.since(opened).as_secs_f64());
                    }
                    let span = rm.log.span_start(&ctx, now, phase, Some(fw.trace_root));
                    fw.trace_phase = Some((span, phase, now));
                    arm_stall_probe(sim, &ctx, span, phase);
                }
                Effect::Note(counter, event) => {
                    if let Some(counter) = counter {
                        rm.metrics.counter_add(counter, 1);
                    }
                    rm.log.emit(&ctx, event);
                }
                Effect::Commit(host, kind) => {
                    // May take the half-open probe slot.
                    rm.breaker(&host, now, |b| b.admits(now).1);
                    rm.inflight
                        .acquire(&host, &req.tenant, kind == PullKind::Attempt);
                    rm.tenancy.progressed(&req.tenant, now);
                }
                Effect::Release(host, kind, verdict) => {
                    if verdict == Some(true) {
                        rm.breaker(&host, now, CircuitBreaker::record_success);
                    }
                    rm.inflight
                        .release(&host, &req.tenant, kind == PullKind::Attempt);
                    rm.breaker(&host, now, |b| {
                        b.release();
                        None
                    });
                    if verdict == Some(false) {
                        rm.breaker(&host, now, |b| b.record_failure(now));
                    }
                }
                Effect::Select(blamed) => {
                    next = Some(Event::Selected(select(sim, &req, f.idx, blamed)));
                }
                Effect::Verify => next = Some(Event::Verified(verify(sim, &fw.life, &ctx))),
                Effect::Launch(src, ranges, tuning) => {
                    rm.xfer_seq += 1;
                    let seq = rm.xfer_seq;
                    let spec = tuning.spec(src, req.client, ranges.total());
                    let started = start_transfer(sim, spec, move |s, result| {
                        let ev = result.map_or_else(Event::Failed, |_| Event::Delivered(ranges));
                        drive(s, f, ev);
                    });
                    next = Some(started.map_or_else(Event::Failed, |h| Event::Started(h, seq)));
                }
                Effect::Watch => {
                    if !std::mem::replace(&mut req.monitor_active, true) {
                        let id = f.request;
                        sim.every(POLL, MONITOR_TICK, move |s| monitor_tick(s, id));
                    }
                }
                Effect::Cancel(handle) => {
                    cancel_transfer(sim, handle);
                }
                Effect::Wait(delay) => sim.schedule(delay, move |s| drive(s, f, Event::Wake)),
                Effect::Backoff => {
                    let delay = rm.retry.backoff(fw.life.status.attempts, &mut rm.rng);
                    rm.metrics.counter_add("rm.retries", 1);
                    let event = LogEvent::new(now, "rm.retry.backoff");
                    rm.log
                        .emit(&ctx, event.field("delay_s", delay.as_secs_f64()));
                    sim.schedule(delay, move |s| drive(s, f, Event::Wake));
                }
                Effect::Defer(by_tenant) => {
                    // The one point where a tenant's demand is visibly
                    // postponed, behind its share or a host cap: the
                    // fairness layer's distress signal is raised here.
                    if let Some(waited) = rm.tenancy.starved(&req.tenant, now) {
                        rm.metrics.counter_add("rm.campaign.starved", 1);
                        let starved = LogEvent::new(now, "rm.campaign.starved")
                            .field("tenant", rm.names.get(&req.tenant))
                            .field("waited_s", waited.as_secs_f64());
                        rm.log.emit(&TraceCtx::system(), starved);
                    }
                    let mut event = LogEvent::new(now, "rm.sched.defer");
                    let counter = if by_tenant {
                        let tenant = rm.names.get(&req.tenant);
                        event = event.field("reason", "tenant").field("tenant", tenant);
                        SchedStats::TENANT_DEFERRED
                    } else {
                        SchedStats::DEFERRED
                    };
                    rm.metrics.counter_add(counter, 1);
                    rm.log
                        .emit(&ctx, event.field("delay_s", DEFER_RETRY.as_secs_f64()));
                    sim.schedule(DEFER_RETRY, move |s| drive(s, f, Event::Wake));
                }
                Effect::Settle(how, slot) => {
                    req.active -= slot as usize;
                    req.remaining -= 1;
                    let root = std::mem::replace(&mut fw.trace_root, SpanId::NONE);
                    let open = fw.trace_phase.take();
                    if !root.is_none() {
                        if let Some((span, phase, opened)) = open {
                            rm.log.span_end(&ctx, now, span, phase, None);
                            rm.metrics
                                .observe(phase.metric(), now.since(opened).as_secs_f64());
                        }
                        let status = ["done", "failed"][how as usize];
                        rm.log
                            .span_end(&ctx, now, root, Phase::File, [("status", status.into())]);
                        let makespan = now.since(fw.trace_opened).as_secs_f64();
                        rm.metrics.observe("rm.file.makespan_s", makespan);
                    }
                    let mut ctx = ctx.clone();
                    let (counter, event) = match how {
                        Settled::Done => {
                            ("rm.files.completed", LogEvent::new(now, "rm.file.complete"))
                        }
                        Settled::Failed => {
                            // The file failed, not one of its attempts.
                            ctx.attempt = None;
                            let attempts = fw.life.status.attempts as u64;
                            let event = LogEvent::new(now, "rm.file.failed");
                            ("rm.files.failed", event.field("attempts", attempts))
                        }
                    };
                    rm.metrics.counter_add(counter, 1);
                    rm.log.emit(&ctx, event);
                    settled = Some(slot);
                }
            }
        }
    }
    let rm = sim.world.reqman();
    rm.fx = fx;
    if settled.is_some() && req.remaining == 0 {
        finish_request(sim, req);
        return;
    }
    rm.requests.insert(f.request, req);
    if settled == Some(true) {
        pump_request(sim, f.request);
    }
}

/// Steps 1–3 of the worker for file `idx` of `req`: replicas → NWS
/// estimates → selection, passing over the `excluded` hosts. Without a
/// choice it answers `None` when healthy candidates exist but every one is
/// at the per-host in-flight cap — a capacity wait, not a failure — and
/// otherwise the number of catalog replicas before exclusion/breaker
/// filtering, so the lifecycle can tell "nothing registered" from
/// "everything currently unavailable". Host loads are
/// read straight from the manager-wide in-flight ledger — O(1) per
/// candidate — by both the spread planner's load discount and the cap
/// filter (`host_cap == 0` disables the cap — repairs bypass it). The
/// per-lookup cost is recorded under `rm.select.ledger_lookups`.
fn select_replica<W: RmWorld>(
    sim: &mut Sim<W>,
    req: &RequestState,
    idx: usize,
    excluded: &[String],
    host_cap: usize,
) -> Result<(Text, NodeId), Option<usize>> {
    // One walk over the catalog's borrowed `(host, suspect)` view counts
    // the candidates and the healthy ones of each trust class, and keeps
    // only the healthy hosts under the cap; then name the survivors and run
    // the stateful selector. A round that ends in a capacity wait keeps
    // nothing, so it builds nothing.
    let now = sim.now();
    let rm = sim.world.reqman();
    let file = &req.files[idx].life.status;
    let inflight = &rm.inflight;
    let (mut candidates, mut trusted, mut suspects) = (0, 0, 0);
    let mut healthy: Vec<(&str, bool)> = Vec::new();
    for (host, suspect) in rm.catalog.replica_hosts(&file.collection, &file.name) {
        candidates += 1;
        if excluded.iter().any(|h| h == host) || !rm.breaker_would_admit(host, now) {
            continue;
        }
        *(if suspect { &mut suspects } else { &mut trusted }) += 1;
        // Admission: a host already serving `host_cap` pulls is passed
        // over (`host_cap == 0` admits every host).
        if host_cap == 0 || inflight.load(host) < host_cap {
            healthy.push((host, suspect));
        }
    }
    // Quarantine demotion: while any trusted candidate remains, suspect
    // replicas drop out of the round entirely. (The selector demotes too,
    // but the spread planner bypasses it, so filter here as well.)
    let in_round = if trusted > 0 {
        healthy.retain(|&(_, suspect)| !suspect);
        trusted
    } else {
        suspects
    };
    if in_round == 0 {
        return Err(Some(candidates));
    }
    // If the cap emptied a non-empty healthy set, the caller should wait
    // for capacity rather than burn an attempt.
    if host_cap > 0 {
        rm.metrics
            .counter_add("rm.select.ledger_lookups", in_round as u64);
        if healthy.is_empty() {
            return Err(None);
        }
    }
    let (names, hosts) = (&mut rm.names, &rm.hosts);
    let picks: Vec<(Text, Option<NodeId>, bool)> = healthy
        .iter()
        .map(|&(host, suspect)| (names.get(host), hosts.get(host).copied(), suspect))
        .collect();
    let mut estimates = Vec::with_capacity(picks.len());
    for &(_, node, _) in &picks {
        let est = match node {
            Some(n) => {
                let nws = sim.world.nws();
                PathEstimate {
                    bandwidth: nws.forecast_bandwidth(n, req.client),
                    latency: nws.forecast_latency(n, req.client),
                }
            }
            None => PathEstimate::unknown(),
        };
        estimates.push(est);
    }
    let rm = sim.world.reqman();
    let idx = if rm.spread_sites {
        rm.metrics
            .counter_add("rm.select.ledger_lookups", picks.len() as u64);
        let inflight = &rm.inflight;
        let hosts: Vec<&str> = picks.iter().map(|(host, _, _)| host.as_str()).collect();
        crate::planner::plan_spread(&hosts, &estimates, |h| inflight.load(h))
    } else {
        rm.selector
            .select_by(picks.len(), |i| picks[i].2, &estimates)
    };
    let choice = idx.and_then(|i| picks[i].1.map(|n| (picks[i].0.clone(), n)));
    choice.ok_or(Some(candidates))
}

/// The selection round of `Effect::Select`, answered as a [`Selection`]:
/// the fair-share and host-cap checks, replica selection and, for the
/// chosen replica, the HRM stage and the path tuning. An attempt passes
/// over the file's excluded hosts. A repair (`blamed`) sees the
/// manager-wide load but bypasses the per-host cap — a small ERET fetch
/// must not starve behind bulk admission — and prefers an alternate over
/// any blamed host, falling back to the blamed ones (a bad copy the
/// verifier can catch again beats no copy).
fn select<W: RmWorld>(
    sim: &mut Sim<W>,
    req: &RequestState,
    idx: usize,
    blamed: Option<Vec<String>>,
) -> Selection {
    let now = sim.now();
    let file = &req.files[idx].life;
    let (host, src, stage) = if let Some(blamed) = blamed {
        let choice = select_replica(sim, req, idx, &blamed, 0)
            .or_else(|_| select_replica(sim, req, idx, &[], 0));
        let Ok((host, src)) = choice else {
            return Selection::Empty(0);
        };
        (host, src, None)
    } else {
        // Multi-tenant weighted fair sharing: a tenant at its share of the
        // global budget waits for capacity exactly like the per-host cap.
        // Neither applies with the scheduler off.
        let rm = sim.world.reqman();
        let host_cap = if rm.scheduler.enabled {
            let active_weight = rm.tenancy.active_weight(&rm.tenants);
            if rm.inflight.tenant_load(&req.tenant) >= rm.tenants.limit(&req.tenant, active_weight)
            {
                return Selection::Deferred(true);
            }
            MAX_INFLIGHT_PER_HOST
        } else {
            0
        };
        let (host, src) = match select_replica(sim, req, idx, &file.excluded, host_cap) {
            Ok(choice) => choice,
            Err(None) => return Selection::Deferred(false),
            Err(Some(registered)) => return Selection::Empty(registered),
        };
        // HRM staging when the site is tape-backed.
        let rm = sim.world.reqman();
        let (name, mut stage) = (&file.status.name, None);
        if let Some(hrm) = rm.hrms.get_mut(host.as_str()) {
            // Register unseen files lazily so the HRM can price them.
            if hrm.catalog.size_of(name).is_none() {
                hrm.catalog.register(name, file.status.size);
            }
            if let Ok(StageOutcome::Staged {
                ready,
                queued_behind,
            }) = hrm.request_file(name, now)
            {
                let delay = ready.since(now);
                if !delay.is_zero() {
                    // The HRM's cost decomposition lets lifeline analysis
                    // split drive-queueing from mount/seek/stream latency.
                    let cost = hrm.stage_cost(name).unwrap_or((0.0, 0.0, 0.0));
                    let staging = LogEvent::new(now, "rm.hrm.staging")
                        .field("host", host.clone())
                        .field("ready_in_s", delay.as_secs_f64())
                        .field("queued_s", queued_behind.as_secs_f64())
                        .field("mount_s", cost.0)
                        .field("seek_s", cost.1)
                        .field("stream_s", cost.2);
                    stage = Some((delay, staging));
                }
            }
        }
        (host, src, stage)
    };
    // The path tuning, logged (`rm.tune.path`) so parameter sweeps stay
    // explainable. Under the scheduler, streams and window come from the
    // NWS BDP forecast via [`bdp_tuning`] (the manager's fixed defaults on a
    // cold NWS path) and data channels are cached, so repeat pulls from a
    // host bank and reuse them; with it off the fixed defaults apply.
    let nws = sim.world.nws();
    let bw = nws.forecast_bandwidth(src, req.client);
    let rtt = nws.forecast_latency(src, req.client);
    let rm = sim.world.reqman();
    let (tuning, tuned) = if rm.scheduler.enabled {
        bdp_tuning(bw, rtt)
    } else {
        (TransferTuning::default(), false)
    };
    if tuned {
        rm.metrics.counter_add(SchedStats::TUNED, 1);
    }
    let tune = LogEvent::new(now, "rm.tune.path")
        .field("host", host.clone())
        .field("streams", tuning.streams as u64)
        .field("window", tuning.window)
        .field("cached", tuning.channel_cache as u64)
        .field("fc_bw", bw.unwrap_or(-1.0))
        .field("fc_rtt_s", rtt.unwrap_or(-1.0))
        .field("source", if tuned { "bdp" } else { "default" });
    Selection::Chosen(Choice {
        host,
        src,
        tuning,
        tune,
        stage,
    })
}

/// The [`Sim::every`] label of the per-request monitor ticks.
const MONITOR_TICK: &str = "rm.monitor";

/// The per-request monitor, armed by the request's first transfer start:
/// poll every live transfer "every few seconds" and step each file with
/// what it read — the progress update and the reliability plugin are the
/// lifecycle's. One tick per poll interval snapshots every live transfer of
/// the request — O(files) work once per interval instead of one timer per
/// file — and the tick retires when the request has nothing in flight, so
/// an idle or forever-pending request costs no events.
fn monitor_tick<W: RmWorld>(sim: &mut Sim<W>, id: u64) -> ControlFlow<()> {
    let _rm_scope = profile::scope(profile::RM);
    profile::count("rm.monitor_ticks", 1);
    let rm = sim.world.reqman();
    // Counted before the request is looked for: the tick that outlives its
    // request is in every pinned tick count.
    rm.metrics.counter_add("rm.monitor.ticks", 1);
    let Some(req) = rm.requests.get_mut(&id) else {
        return ControlFlow::Break(());
    };
    // The incremental `live` index holds exactly the unsettled files with
    // a live pull, in ascending index order.
    let live: Vec<usize> = req.live.iter().copied().collect();
    if live.is_empty() {
        // Nothing in flight: retire. The next transfer start re-arms us.
        req.monitor_active = false;
        return ControlFlow::Break(());
    }
    for idx in live {
        // The pull may have ended earlier this tick.
        let req = sim.world.reqman().requests.get(&id);
        let Some(pull) = req.and_then(|r| r.files[idx].life.live()) else {
            continue;
        };
        // The per-transfer polling wall: three linear scans of the shared
        // network layer per live file per tick. Attributed to `net_poll` so
        // the rm_profile scenario can size it against everything else.
        let (bytes, stalled, rate) = {
            let _poll = profile::scope(profile::NET_POLL);
            profile::count("net_poll.calls", 3);
            (
                transfer_bytes(sim, pull.handle),
                transfer_stalled(sim, pull.handle),
                transfer_rate(sim, pull.handle),
            )
        };
        let age = sim.now().since(pull.started);
        let poll = Poll {
            bytes,
            stalled,
            rate,
            age,
        };
        drive(sim, FileId { request: id, idx }, Event::Poll(poll));
    }
    ControlFlow::Continue(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reliability::{BreakerState, BREAKER_THRESHOLD};
    use esg_gridftp::simxfer::{GridFtpSim, TransferError};
    use esg_gridftp::GridUrl;
    use esg_nws::NwsRegistry;
    use esg_simnet::{Node, Topology};
    use esg_storage::{TapeParams, BLOCK_SIZE};

    struct World {
        rm: RequestManager,
        gridftp: GridFtpSim,
        nws: NwsRegistry,
        outcomes: Vec<RequestOutcome>,
    }

    impl HasReqMan for World {
        fn reqman(&mut self) -> &mut RequestManager {
            &mut self.rm
        }
    }
    impl HasGridFtp for World {
        fn gridftp(&mut self) -> &mut GridFtpSim {
            &mut self.gridftp
        }
    }
    impl HasNws for World {
        fn nws(&mut self) -> &mut NwsRegistry {
            &mut self.nws
        }
    }

    /// Three storage sites (fast, slow, tape-backed) and one client.
    fn setup(policy: Policy) -> (Sim<World>, NodeId) {
        let mut topo = Topology::new();
        let core = topo.add_node(Node::router("core"));
        let client = topo.add_node(Node::host("client"));
        topo.add_link(client, core, 1e9, SimDuration::from_millis(2));
        let fast = topo.add_node(Node::host("fast.llnl.gov"));
        topo.add_link(fast, core, 50e6, SimDuration::from_millis(5));
        let slow = topo.add_node(Node::host("slow.isi.edu"));
        topo.add_link(slow, core, 5e6, SimDuration::from_millis(40));
        let tape = topo.add_node(Node::host("hpss.lbl.gov"));
        topo.add_link(tape, core, 50e6, SimDuration::from_millis(5));

        let mut rm = RequestManager::new(policy, 7);
        rm.add_host("fast.llnl.gov", fast);
        rm.add_host("slow.isi.edu", slow);
        rm.add_host("hpss.lbl.gov", tape);
        rm.catalog.create_collection("co2").unwrap();
        rm.catalog
            .add_logical_file("co2", "jan.esg", 50_000_000)
            .unwrap();
        rm.catalog
            .register_location(
                "co2",
                "llnl",
                &GridUrl::new("fast.llnl.gov", "/data"),
                &["jan.esg"],
            )
            .unwrap();
        rm.catalog
            .register_location(
                "co2",
                "isi",
                &GridUrl::new("slow.isi.edu", "/data"),
                &["jan.esg"],
            )
            .unwrap();

        let mut world = World {
            rm,
            gridftp: GridFtpSim::new(),
            nws: NwsRegistry::new(),
            outcomes: Vec::new(),
        };
        // Seed NWS with the truth so BestBandwidth picks the fast site.
        world
            .nws
            .observe_bandwidth(fast, client, SimTime::ZERO, 50e6 / 8.0 * 8.0);
        world
            .nws
            .observe_bandwidth(slow, client, SimTime::ZERO, 5e6);
        let sim = Sim::new(topo, world);
        (sim, client)
    }

    #[test]
    fn single_file_request_completes() {
        let (mut sim, client) = setup(Policy::BestBandwidth);
        submit_request(
            &mut sim,
            client,
            vec![("co2".into(), "jan.esg".into())],
            |s, o| s.world.outcomes.push(o),
        );
        sim.run();
        assert_eq!(sim.world.outcomes.len(), 1);
        let o = &sim.world.outcomes[0];
        assert_eq!(o.files.len(), 1);
        assert!(o.files[0].done);
        assert_eq!(o.files[0].bytes_done, 50_000_000);
        // NWS-best selection must have picked the fast site.
        assert_eq!(o.files[0].replica_host.as_deref(), Some("fast.llnl.gov"));
        // ~1 s of data at 50 MB/s... link is 50e6 bytes/s? cap 50e6 B/s.
        let dt = o.finished.since(o.started).as_secs_f64();
        assert!(dt < 5.0, "{dt}");
    }

    /// `prestage_cold_files` returns before its per-file loop on a manager
    /// with no HRM. The golden was recorded at the parent commit, where
    /// the loop ran a catalog lookup per file to plan nothing.
    #[test]
    fn no_hrm_request_trace_is_pinned() {
        let (mut sim, client) = setup(Policy::BestBandwidth);
        assert!(sim.world.rm.hrms.is_empty());
        {
            let rm = &mut sim.world.rm;
            for (i, f) in ["feb.esg", "mar.esg", "apr.esg"].iter().enumerate() {
                rm.catalog
                    .add_logical_file("co2", f, 20_000_000 + i as u64)
                    .unwrap();
                rm.catalog.add_file_to_location("co2", "llnl", f).unwrap();
            }
            rm.catalog
                .add_file_to_location("co2", "isi", "mar.esg")
                .unwrap();
            // Listed, sized, but held nowhere.
            rm.catalog
                .add_logical_file("co2", "may.esg", 1_000)
                .unwrap();
        }
        let files = ["jan.esg", "feb.esg", "mar.esg", "apr.esg", "may.esg"]
            .iter()
            .map(|f| ("co2".to_string(), f.to_string()))
            .collect();
        let id = submit_request(&mut sim, client, files, |s, o| s.world.outcomes.push(o));
        sim.run_until(SimTime::from_secs(60));
        let status = sim.world.rm.status(id).unwrap();
        let done: Vec<bool> = status.iter().map(|f| f.done).collect();
        assert_eq!(done, [true, true, true, true, false]);
        let sha = esg_gsi::hex(&esg_gsi::sha256(sim.world.rm.log.to_ulm().as_bytes()));
        assert_eq!(
            sha,
            "cee977b31a91516be86a1a89e5a51ffd65e9ecc186acc261fe629b5e0b92006f"
        );
    }

    /// Every event that names a host carries the one copy of the name the
    /// manager built on that host's first event: naming it again allocates
    /// nothing.
    #[test]
    fn events_share_one_copy_of_each_host_name() {
        let (mut sim, client) = setup(Policy::BestBandwidth);
        for f in ["feb.esg", "mar.esg"] {
            let rm = &mut sim.world.rm;
            rm.catalog.add_logical_file("co2", f, 20_000_000).unwrap();
            rm.catalog.add_file_to_location("co2", "llnl", f).unwrap();
        }
        let files = ["jan.esg", "feb.esg", "mar.esg"]
            .iter()
            .map(|f| ("co2".to_string(), f.to_string()))
            .collect();
        submit_request(&mut sim, client, files, |s, o| s.world.outcomes.push(o));
        sim.run();
        let mut first: HashMap<String, *const u8> = HashMap::new();
        let mut naming = 0;
        for e in sim.world.rm.log.iter() {
            if let Some(Value::Str(host)) = e.get("host") {
                naming += 1;
                let copy = *first.entry(host.to_string()).or_insert(host.as_ptr());
                assert_eq!(copy, host.as_ptr(), "{} has its own copy of {host}", e.name);
            }
        }
        // rm.replica.selected and rm.tune.path per file.
        assert!(naming >= 6, "{naming}");
    }

    #[test]
    fn scheduled_transfers_reuse_cached_channels() {
        // Regression: `gridftp.cache_hits` sat at zero forever because the
        // default TransferTuning never requested channel caching, so the
        // simxfer engine banked no channels and every attempt paid the
        // full connect + GSI handshake. With the scheduler's
        // `channel_cache` wired through `resolve_tuning`, repeat pulls
        // from the same host must reuse banked channels.
        let (mut sim, client) = setup(Policy::BestBandwidth);
        {
            let rm = &mut sim.world.rm;
            // Eight same-site files: the admission cap (4) serializes the
            // request into waves, so later waves find channels banked by
            // completed transfers from the same host.
            for i in 0..8 {
                let f = format!("wave{i}.esg");
                rm.catalog.add_logical_file("co2", &f, 10_000_000).unwrap();
                rm.catalog.add_file_to_location("co2", "llnl", &f).unwrap();
            }
        }
        let files: Vec<(String, String)> = (0..8)
            .map(|i| ("co2".to_string(), format!("wave{i}.esg")))
            .collect();
        submit_request(&mut sim, client, files, |s, o| s.world.outcomes.push(o));
        sim.run();
        assert_eq!(sim.world.outcomes.len(), 1);
        assert!(sim.world.outcomes[0].files.iter().all(|f| f.done));
        let g = &sim.world.gridftp;
        assert!(
            g.cache_hits > 0,
            "no data-channel reuse: {} transfers, {} handshakes",
            g.transfers_started,
            g.handshakes_performed
        );
        assert!(
            g.handshakes_performed < g.transfers_started,
            "every transfer paid a handshake despite channel caching"
        );
        // The counter must survive the metrics export path the bench
        // reports go through.
        let mut reg = esg_netlogger::MetricsRegistry::new();
        g.export_metrics(&mut reg);
        assert_eq!(reg.counter("gridftp.cache_hits"), g.cache_hits);
    }

    #[test]
    fn nws_selection_beats_random_on_average() {
        let run = |policy: Policy| -> f64 {
            let (mut sim, client) = setup(policy);
            submit_request(
                &mut sim,
                client,
                vec![("co2".into(), "jan.esg".into())],
                |s, o| s.world.outcomes.push(o),
            );
            sim.run();
            let o = &sim.world.outcomes[0];
            o.finished.since(o.started).as_secs_f64()
        };
        let best = run(Policy::BestBandwidth);
        // Round-robin alternates; first pick is index 0 which may be
        // either site, so just require NWS ≤ both baselines' worst case.
        let rr = run(Policy::RoundRobin);
        assert!(best <= rr + 1e-9, "best {best} rr {rr}");
    }

    #[test]
    fn multi_file_requests_run_concurrently() {
        let (mut sim, client) = setup(Policy::BestBandwidth);
        {
            let rm = &mut sim.world.rm;
            for f in ["feb.esg", "mar.esg"] {
                rm.catalog.add_logical_file("co2", f, 50_000_000).unwrap();
                rm.catalog.add_file_to_location("co2", "llnl", f).unwrap();
                rm.catalog.add_file_to_location("co2", "isi", f).unwrap();
            }
        }
        submit_request(
            &mut sim,
            client,
            vec![
                ("co2".into(), "jan.esg".into()),
                ("co2".into(), "feb.esg".into()),
                ("co2".into(), "mar.esg".into()),
            ],
            |s, o| s.world.outcomes.push(o),
        );
        sim.run();
        let o = &sim.world.outcomes[0];
        assert_eq!(o.files.len(), 3);
        assert!(o.files.iter().all(|f| f.done));
        // Concurrent: 3 files over a shared 50 MB/s source ≈ 3 s, far less
        // than 3 sequential transfers + three full HRM stages would be.
        let dt = o.finished.since(o.started).as_secs_f64();
        assert!(dt < 10.0, "{dt}");
    }

    #[test]
    fn hrm_staging_delays_transfer() {
        let (mut sim, client) = setup(Policy::BestBandwidth);
        {
            let rm = &mut sim.world.rm;
            // Register a tape-only replica for a new file.
            rm.catalog
                .add_logical_file("co2", "deep.esg", 20_000_000)
                .unwrap();
            rm.catalog
                .register_location(
                    "co2",
                    "lbl",
                    &GridUrl::new("hpss.lbl.gov", "/hpss"),
                    &["deep.esg"],
                )
                .unwrap();
            rm.add_hrm(
                "hpss.lbl.gov",
                Hrm::new(
                    TapeParams {
                        drives: 1,
                        mount: SimDuration::from_secs(40),
                        seek: SimDuration::from_secs(20),
                        rate: 10e6,
                    },
                    1 << 34,
                ),
            );
        }
        submit_request(
            &mut sim,
            client,
            vec![("co2".into(), "deep.esg".into())],
            |s, o| s.world.outcomes.push(o),
        );
        sim.run();
        let o = &sim.world.outcomes[0];
        let dt = o.finished.since(o.started).as_secs_f64();
        // Mount 40 + seek 20 + 2 s tape streaming + transfer: ≥ 62 s.
        assert!(dt > 60.0, "staging must dominate: {dt}");
        assert!(o.files[0].done);
    }

    #[test]
    fn hrm_cache_hit_skips_staging_second_time() {
        let (mut sim, client) = setup(Policy::BestBandwidth);
        add_tape_only_file(&mut sim.world.rm, "deep.esg", 20_000_000);
        submit_request(
            &mut sim,
            client,
            vec![("co2".into(), "deep.esg".into())],
            |s, o| s.world.outcomes.push(o),
        );
        sim.run();
        let first = {
            let o = &sim.world.outcomes[0];
            o.finished.since(o.started).as_secs_f64()
        };
        submit_request(
            &mut sim,
            client,
            vec![("co2".into(), "deep.esg".into())],
            |s, o| s.world.outcomes.push(o),
        );
        sim.run();
        let second = {
            let o = &sim.world.outcomes[1];
            o.finished.since(o.started).as_secs_f64()
        };
        assert!(
            second < first / 5.0,
            "cache hit should skip tape: {first} vs {second}"
        );
    }

    #[test]
    fn failover_to_alternate_replica_on_outage() {
        let (mut sim, client) = setup(Policy::BestBandwidth);
        submit_request(
            &mut sim,
            client,
            vec![("co2".into(), "jan.esg".into())],
            |s, o| s.world.outcomes.push(o),
        );
        // Fast site dies after data starts flowing (setup takes ~0.85 s),
        // so the monitor-driven reliability plugin handles it.
        let fast = sim.world.rm.hosts["fast.llnl.gov"];
        sim.schedule(SimDuration::from_millis(1200), move |s| {
            s.net.set_node_up(fast, false);
        });
        sim.run_until(SimTime::from_secs(300));
        assert_eq!(sim.world.outcomes.len(), 1, "request must still finish");
        let o = &sim.world.outcomes[0];
        assert!(o.files[0].done);
        assert_eq!(o.files[0].replica_host.as_deref(), Some("slow.isi.edu"));
        assert!(o.files[0].attempts >= 2);
        // One failover, the fast site's: the slow site's transfer, read by
        // a monitor tick between its last byte and its 226, is finishing,
        // not stalled.
        assert_eq!(sim.world.rm.metrics.counter("rm.failovers"), 1);
        // The failover event is in the NetLogger log.
        assert!(sim
            .world
            .rm
            .log
            .named("rm.reliability.failover")
            .next()
            .is_some());
    }

    /// Every lifeline in the trace is closed and its phases tile its root.
    fn assert_lifelines_tile(rm: &RequestManager) {
        let set = esg_netlogger::LifelineSet::from_log(&rm.log);
        assert!(set.orphans.is_empty(), "orphans: {:?}", set.orphans);
        assert!(!set.lifelines.is_empty());
        for l in &set.lifelines {
            assert!(l.is_complete(), "phases do not tile {}", l.file);
        }
    }

    /// Regression: a route that vanishes inside a transfer's set-up window
    /// fails the launch through the completion callback. A handle left on
    /// the file is polled by the next monitor tick as "stalled" (a phantom
    /// failover that bypasses the back-off), and the back-off timer then
    /// starts a second concurrent pull of the same file.
    #[test]
    fn failed_launch_leaves_no_live_pull_behind() {
        let (mut sim, client) = setup(Policy::BestBandwidth);
        sim.world.rm.min_rate = 1e6;
        sim.world.rm.grace = SimDuration::from_secs(1);
        sim.world.rm.retry.base = SimDuration::from_secs(4);
        submit_files(&mut sim, client, &["jan.esg"]);
        let fast = sim.world.rm.hosts["fast.llnl.gov"];
        sim.schedule(SimDuration::from_millis(400), move |s| {
            s.net.set_node_up(fast, false);
        });
        sim.run_until(SimTime::from_secs(300));
        assert_eq!(sim.world.outcomes.len(), 1);
        let f = &sim.world.outcomes[0].files[0];
        assert!(f.done && !f.failed);
        let failovers = sim.world.rm.metrics.counter("rm.failovers");
        let started = sim.world.gridftp.transfers_started;
        assert_eq!((failovers, started, f.attempts), (0, 2, 2));
        assert_lifelines_tile(&sim.world.rm);
    }

    fn submit_files(sim: &mut Sim<World>, client: NodeId, names: &[&str]) -> u64 {
        let files = names
            .iter()
            .map(|n| ("co2".into(), n.to_string()))
            .collect();
        submit_request(sim, client, files, |s, o| s.world.outcomes.push(o))
    }

    /// Advance in 10 ms steps until `cond` holds.
    fn run_to(sim: &mut Sim<World>, mut cond: impl FnMut(&Sim<World>) -> bool) {
        while !cond(sim) {
            assert!(sim.now() < SimTime::from_secs(600), "condition never held");
            let next = sim.now() + SimDuration::from_millis(10);
            sim.run_until(next);
        }
    }

    /// Both kinds of pull, refused at the start or failed after it, by an
    /// unreachable source or a name-service outage, end in the failure
    /// epilogue (`Event::Failed`). The engine never reports a name-service
    /// outage after a start, so that corner drives the event directly.
    #[test]
    fn every_pull_failure_gives_the_pull_back_and_requeues() {
        let kinds = [PullKind::Attempt, PullKind::Repair];
        let cases = kinds.iter().flat_map(|&k| {
            [
                (k, false, true),
                (k, false, false),
                (k, true, true),
                (k, true, false),
            ]
        });
        for (kind, after_start, unreachable) in cases {
            let case = format!("{kind:?} after_start={after_start} no_route={unreachable}");
            let (mut sim, client) = setup(Policy::BestBandwidth);
            register_digest(&mut sim.world.rm, "co2", "jan.esg", 50_000_000);
            // The attempt pulls from the fast site; the repair of a block
            // the fast site corrupted pulls from the slow one.
            let host = match kind {
                PullKind::Attempt => "fast.llnl.gov",
                PullKind::Repair => {
                    let rm = &mut sim.world.rm;
                    rm.corrupt_at_rest("fast.llnl.gov", "jan.esg", 3, 99, SimTime::ZERO);
                    "slow.isi.edu"
                }
            };
            let node = sim.world.rm.hosts[host];
            // Strikes short of the breaker's threshold: one more failure
            // against the host trips it.
            for _ in 1..BREAKER_THRESHOLD {
                let t0 = SimTime::ZERO;
                sim.world.rm.breaker(host, t0, |b| b.record_failure(t0));
            }
            let id = submit_files(&mut sim, client, &["jan.esg"]);
            let file = FileId {
                request: id,
                idx: 0,
            };
            let live = |s: &Sim<World>| {
                let pull = s.world.rm.requests[&id].files[0].life.pull.as_ref();
                pull.and_then(|p| p.live.map(|live| (p.kind, live.handle)))
            };
            // Run to the moment the fault must be in place: inside the
            // pull's set-up window, or before the pull launches (a repair
            // launches the instant its attempt delivers).
            if after_start {
                run_to(&mut sim, |s| live(s).is_some_and(|(k, _)| k == kind));
            } else if kind == PullKind::Repair {
                run_to(&mut sim, |s| live(s).is_some());
            }
            if unreachable {
                sim.net.set_node_up(node, false);
            } else if after_start {
                let (_, handle) = live(&sim).unwrap();
                cancel_transfer(&mut sim, handle);
                let err = TransferError::NameServiceDown;
                drive(&mut sim, file, Event::Failed(err));
            } else {
                sim.net_set_name_service(false);
            }
            run_to(&mut sim, |s| s.world.rm.metrics.counter("rm.retries") > 0);

            let now = sim.now();
            let rm = &sim.world.rm;
            {
                let st = &rm.requests[&id];
                let fw = &st.files[0];
                assert!(fw.life.live().is_none() && st.live.is_empty(), "{case}");
                assert!(fw.life.pull.is_none(), "{case}");
                let excluded = fw.life.excluded.iter().any(|h| h == host);
                assert_eq!(excluded, kind == PullKind::Attempt && unreachable, "{case}");
            }
            assert_eq!(rm.inflight().total(), 0, "{case}");
            if unreachable {
                let state = rm.breaker_state(host);
                assert!(matches!(state, Some(BreakerState::Open { .. })), "{case}");
            } else {
                assert_eq!(rm.breaker_state(host), Some(BreakerState::Closed), "{case}");
                assert!(rm.breaker_would_admit(host, now), "{case}");
            }

            sim.net.set_node_up(node, true);
            sim.net_set_name_service(true);
            sim.run_until(SimTime::from_secs(1800));
            assert_eq!(sim.world.outcomes.len(), 1, "{case}");
            let f = &sim.world.outcomes[0].files[0];
            assert!(f.done && !f.failed, "{case}");
            assert_eq!(sim.world.rm.inflight().total(), 0, "{case}");
            assert_lifelines_tile(&sim.world.rm);
        }
    }

    /// Register `name` with its only replica on tape at `hpss.lbl.gov`.
    fn add_tape_only_file(rm: &mut RequestManager, name: &str, size: u64) {
        rm.catalog.add_logical_file("co2", name, size).unwrap();
        let url = GridUrl::new("hpss.lbl.gov", "/hpss");
        if rm.catalog.add_file_to_location("co2", "lbl", name).is_err() {
            rm.catalog
                .register_location("co2", "lbl", &url, &[name])
                .unwrap();
        }
        if !rm.hrms.contains_key("hpss.lbl.gov") {
            rm.add_hrm("hpss.lbl.gov", Hrm::new(TapeParams::default(), 1 << 34));
        }
    }

    /// Live stall detection keeps at most one kernel event queued, and
    /// none once every watched span has closed. Measured against the
    /// kernel: a twin run without the plane schedules every other event
    /// alike (stall firings only write the trace and the registry), so the
    /// two runs' queue lengths differ by exactly the one wake, if queued.
    #[test]
    fn one_stall_wake_is_queued_at_a_time() {
        let twin = || {
            let (mut sim, client) = setup(Policy::BestBandwidth);
            add_tape_only_file(&mut sim.world.rm, "deep.esg", 20_000_000);
            add_tape_only_file(&mut sim.world.rm, "deeper.esg", 30_000_000);
            (sim, client)
        };
        let (mut plain, client) = twin();
        let (mut watched, _) = twin();
        watched
            .world
            .rm
            .enable_live_analysis(SimDuration::from_secs(2));
        for sim in [&mut plain, &mut watched] {
            submit_files(sim, client, &["jan.esg", "deep.esg", "deeper.esg"]);
        }
        let (mut most_watched, mut steps) = (0, 0);
        while watched.world.outcomes.is_empty() || !watched.world.rm.stall_watch.is_empty() {
            assert!(watched.now() < SimTime::from_secs(600), "never settled");
            let next = watched.now() + SimDuration::from_millis(50);
            plain.run_until(next);
            watched.run_until(next);
            let rm = &watched.world.rm;
            let extra = watched.pending_events() - plain.pending_events();
            assert_eq!(extra, !rm.stall_watch.is_empty() as usize, "at {next:?}");
            most_watched = most_watched.max(rm.stall_watch.len());
            steps += 1;
        }
        let rm = &watched.world.rm;
        assert_eq!(rm.live().unwrap().open_count(), 0);
        assert!(rm.stall_watch.is_empty());
        assert_eq!(watched.pending_events(), plain.pending_events());
        assert!(
            most_watched > 2 && steps > 100,
            "{most_watched} spans, {steps} steps"
        );
        assert!(rm.metrics.counter("obs.stalls") > 0, "nothing stalled");
        let watched_log = rm.log.iter().filter(|e| e.name != "obs.stall");
        let plain_log = plain.world.rm.log.iter();
        assert!(watched_log
            .map(|e| e.to_ulm())
            .eq(plain_log.map(|e| e.to_ulm())));
    }

    /// Open a span now and watch it, as a phase or prestage span is.
    fn open_watched(sim: &mut Sim<World>, phase: Phase) -> SpanId {
        let (ctx, now) = (TraceCtx::request(0), sim.now());
        let span = sim.world.rm.log.span_start(&ctx, now, phase, None);
        arm_stall_probe(sim, &ctx, span, phase);
        span
    }

    fn close_at(sim: &mut Sim<World>, span: SpanId, phase: Phase, at: SimTime) {
        sim.schedule_at(at, move |s| {
            let ctx = TraceCtx::request(0);
            s.world.rm.log.span_end(&ctx, at, span, phase, None);
        });
    }

    fn fired_spans(rm: &RequestManager) -> Vec<u64> {
        let fired = rm.log.named("obs.stall");
        fired.map(|e| e.get_num("span").unwrap() as u64).collect()
    }

    /// The strict-`>` rule at the nanosecond: a span that closes exactly
    /// at `open + threshold` never fires; one still open at `+1 ns` fires
    /// then, whether it closes a nanosecond later or never.
    #[test]
    fn a_stall_fires_one_nanosecond_past_the_threshold() {
        let (mut sim, _) = setup(Policy::BestBandwidth);
        let threshold = SimDuration::from_secs(10);
        sim.world.rm.enable_live_analysis(threshold);
        sim.run_until(SimTime::from_secs(1));
        let opened = sim.now();
        let on_time = open_watched(&mut sim, Phase::Transfer);
        let late = open_watched(&mut sim, Phase::Stage);
        let stuck = open_watched(&mut sim, Phase::Transfer);
        let at = |ns: u64| SimTime((opened + threshold).as_nanos() + ns);
        close_at(&mut sim, on_time, Phase::Transfer, at(0));
        close_at(&mut sim, late, Phase::Stage, at(2));
        // Two span ends and the one wake.
        assert_eq!(sim.pending_events(), 3);

        sim.run_until(at(0));
        assert!(fired_spans(&sim.world.rm).is_empty());
        sim.run_until(at(1));
        let rm = &sim.world.rm;
        assert_eq!(fired_spans(rm), [late.0, stuck.0]);
        assert!(rm.log.named("obs.stall").all(|e| e.time == at(1)));
        assert!(rm.stall_watch.is_empty());
        sim.run_until(SimTime::from_secs(60));
        let rm = &sim.world.rm;
        assert_eq!(fired_spans(rm), [late.0, stuck.0]);
        let ages = rm.log.named("obs.stall").map(|e| e.get_num("stalled_s"));
        assert!(ages.eq([Some(10.000_000_001); 2]));
        assert_eq!(sim.pending_events(), 0);
    }

    /// Spans opened in the same instant share a deadline and fire in the
    /// order they were opened and watched, by one wake; spans opened later
    /// wait for the wake it re-arms.
    #[test]
    fn spans_opened_in_one_instant_fire_in_open_order() {
        let (mut sim, _) = setup(Policy::BestBandwidth);
        sim.world.rm.enable_live_analysis(SimDuration::from_secs(5));
        let ctx = TraceCtx::request(0);
        let phases = [Phase::Stage, Phase::Transfer, Phase::Prestage];
        let spans: Vec<SpanId> = phases
            .iter()
            .map(|&p| sim.world.rm.log.span_start(&ctx, SimTime::ZERO, p, None))
            .collect();
        // Watched in the reverse of the order their ids were drawn.
        for (&span, &phase) in spans.iter().zip(&phases).rev() {
            arm_stall_probe(&mut sim, &ctx, span, phase);
        }
        sim.run_until(SimTime::from_secs(2));
        let later = open_watched(&mut sim, Phase::Verify);
        assert_eq!(sim.pending_events(), 1);
        sim.run_until(SimTime::from_secs(6));
        let order: Vec<u64> = spans.iter().rev().map(|s| s.0).collect();
        assert_eq!(fired_spans(&sim.world.rm), order);
        assert_eq!(sim.pending_events(), 1);
        sim.run_until(SimTime::from_secs(7));
        assert_eq!(fired_spans(&sim.world.rm).len(), 3);
        sim.run_until(SimTime::from_secs(7) + SimDuration::from_nanos(1));
        let rm = &sim.world.rm;
        assert_eq!(fired_spans(rm)[3], later.0);
        let fired: Vec<Option<Value>> = rm.log.named("obs.stall").map(|e| e.get("phase")).collect();
        let want = [
            Phase::Prestage,
            Phase::Transfer,
            Phase::Stage,
            Phase::Verify,
        ];
        assert_eq!(fired, want.map(|p| Some(Value::from(p.as_str()))));
        assert_eq!(sim.pending_events(), 0);
    }

    /// The manager is a request's only owner, so it is gone the moment its
    /// callback has fired — while its monitor tick is still queued. That
    /// tick still fires and is still counted, as it always was: the tick
    /// total is the parent commit's for this run.
    #[test]
    fn finished_requests_are_dropped_at_finish() {
        let (mut sim, client) = setup(Policy::BestBandwidth);
        let id = submit_files(&mut sim, client, &["jan.esg"]);
        run_to(&mut sim, |s| !s.world.outcomes.is_empty());
        assert!(sim.world.rm.status(id).is_none());
        assert!(sim.world.rm.requests.is_empty() && sim.world.rm.tenancy.live.is_empty());
        let at_finish = sim.world.rm.monitor_ticks();
        assert_eq!(sim.pending_events(), 1, "the retiring tick is still queued");
        assert_eq!(sim.live_ticks(MONITOR_TICK), 1);
        sim.run();
        assert_eq!(sim.world.rm.monitor_ticks(), at_finish + 1);
        assert_eq!(sim.world.rm.monitor_ticks(), 1);
        assert_eq!(sim.live_ticks(MONITOR_TICK), 0);
    }

    /// A live request with nothing in flight costs no monitor events: its
    /// monitor retires at the next tick after the disk file lands while the
    /// tape file is still staging.
    #[test]
    fn monitor_retires_while_nothing_is_in_flight() {
        let (mut sim, client) = setup(Policy::BestBandwidth);
        add_tape_only_file(&mut sim.world.rm, "deep.esg", 20_000_000);
        let id = submit_files(&mut sim, client, &["jan.esg", "deep.esg"]);
        let mut retired_while_live = false;
        while sim.world.outcomes.is_empty() {
            assert!(
                sim.now() < SimTime::from_secs(600),
                "request never finished"
            );
            let next = sim.now() + SimDuration::from_secs(1);
            sim.run_until(next);
            let idle = sim
                .world
                .rm
                .requests
                .get(&id)
                .is_some_and(|r| r.live.is_empty());
            retired_while_live |= idle && sim.live_ticks(MONITOR_TICK) == 0;
        }
        assert!(
            retired_while_live,
            "the monitor ticked through an idle spell"
        );
    }

    proptest::proptest! {
        /// Nothing outlives a request. Random request mixes on the
        /// three-site world under random outages: the monitor ticks, backoff
        /// and deferral wakes still queued when a request finishes find it
        /// gone.
        #[test]
        fn nothing_outlives_a_request(
            requests in proptest::collection::vec((0u64..20_000, 1usize..6), 1..5),
            outages in proptest::collection::vec((0usize..3, 0u64..40_000, 1_000u64..30_000), 0..3),
        ) {
            use esg_simnet::prelude::{inject, Fault, FaultKind};
            const FILES: [&str; 5] = ["jan.esg", "feb.esg", "mar.esg", "apr.esg", "deep.esg"];
            const SITES: [&str; 3] = ["fast.llnl.gov", "slow.isi.edu", "hpss.lbl.gov"];
            let (mut sim, client) = setup(Policy::BestBandwidth);
            {
                let rm = &mut sim.world.rm;
                for (i, f) in FILES[1..4].iter().enumerate() {
                    let size = 4_000_000 * (i as u64 + 1);
                    rm.catalog.add_logical_file("co2", f, size).unwrap();
                    rm.catalog.add_file_to_location("co2", "llnl", f).unwrap();
                    if i > 0 {
                        rm.catalog.add_file_to_location("co2", "isi", f).unwrap();
                    }
                }
                add_tape_only_file(rm, "deep.esg", 20_000_000);
                rm.enable_live_analysis(SimDuration::from_secs(30));
            }
            for &(site, at, len) in &outages {
                let at = SimTime::ZERO + SimDuration::from_millis(at);
                let node = FaultKind::NodeDown(sim.world.rm.hosts[SITES[site]]);
                inject(&mut sim, Fault::new(at, SimDuration::from_millis(len), node));
            }
            // Same-instant events fire in the order they were scheduled, so
            // scheduling the submits in time order makes ids predictable.
            let mut order: Vec<usize> = (0..requests.len()).collect();
            order.sort_by_key(|&i| requests[i].0);
            for (id, &i) in order.iter().enumerate() {
                let (at, n_files) = requests[i];
                let at = SimTime::ZERO + SimDuration::from_millis(at);
                let names: Vec<&str> = (0..n_files).map(|k| FILES[(i + k) % 5]).collect();
                sim.schedule_at(at, move |s| {
                    assert_eq!(submit_files(s, client, &names), id as u64);
                });
            }
            sim.run_until(SimTime::from_secs(3600));

            let rm = &sim.world.rm;
            proptest::prop_assert_eq!(sim.world.outcomes.len(), requests.len());
            proptest::prop_assert!(rm.live_requests().is_empty());
            proptest::prop_assert!(rm.tenancy.live.is_empty(), "a tenant never retired");
            proptest::prop_assert_eq!(rm.inflight().total(), 0);
            proptest::prop_assert_eq!(rm.live().unwrap().open_count(), 0);
            proptest::prop_assert_eq!(sim.live_ticks(MONITOR_TICK), 0, "a monitor outlived its request");
            let set = esg_netlogger::LifelineSet::from_log(&rm.log);
            proptest::prop_assert!(set.orphans.is_empty(), "orphans: {:?}", set.orphans);
            for l in &set.lifelines {
                proptest::prop_assert!(l.is_complete(), "phases do not tile {}", l.file);
            }
        }
    }

    #[test]
    fn rate_threshold_triggers_failover() {
        let (mut sim, client) = setup(Policy::BestBandwidth);
        sim.world.rm.min_rate = 6e6; // above the slow site's 5 MB/s link
        sim.world.rm.grace = SimDuration::from_secs(5);
        // Force selection of the slow site by excluding fast from catalog.
        sim.world
            .rm
            .catalog
            .remove_file_from_location("co2", "llnl", "jan.esg")
            .unwrap();
        submit_request(
            &mut sim,
            client,
            vec![("co2".into(), "jan.esg".into())],
            |s, o| s.world.outcomes.push(o),
        );
        // Re-add the fast replica shortly after: the plugin should switch.
        sim.schedule(SimDuration::from_secs(2), |s| {
            s.world
                .rm
                .catalog
                .add_file_to_location("co2", "llnl", "jan.esg")
                .unwrap();
        });
        sim.run_until(SimTime::from_secs(600));
        assert_eq!(sim.world.outcomes.len(), 1);
        let o = &sim.world.outcomes[0];
        assert_eq!(o.files[0].replica_host.as_deref(), Some("fast.llnl.gov"));
        // Restart marker meant we did not re-download everything: time is
        // far below the slow site's full 10 s... (50 MB at 0.625 MB/s).
        let dt = o.finished.since(o.started).as_secs_f64();
        assert!(dt < 60.0, "{dt}");
        // The resumed attempt must have announced its restart offset.
        let marker = sim
            .world
            .rm
            .log
            .named("rm.failover.restart_marker")
            .next()
            .expect("restart marker event");
        assert!(marker.get_num("offset").unwrap() > 0.0);
    }

    #[test]
    fn status_snapshot_shows_progress() {
        let (mut sim, client) = setup(Policy::BestBandwidth);
        // 500 MB from the fast site outlasts the first 3 s monitor poll.
        let rm = &mut sim.world.rm;
        rm.catalog
            .add_logical_file("co2", "big.esg", 500_000_000)
            .unwrap();
        rm.catalog
            .add_file_to_location("co2", "llnl", "big.esg")
            .unwrap();
        let id = submit_request(
            &mut sim,
            client,
            vec![("co2".into(), "big.esg".into())],
            |s, o| s.world.outcomes.push(o),
        );
        sim.run_until(SimTime::from_secs_f64(3.5));
        let status = sim.world.rm.status(id).unwrap();
        assert_eq!(status.len(), 1);
        assert!(status[0].bytes_done > 0, "monitor should have polled");
        assert!(!status[0].done);
        assert!(status[0].fraction() > 0.0 && status[0].fraction() < 1.0);
        sim.run();
        assert!(sim.world.rm.status(id).is_none(), "finished requests drop");
    }

    #[test]
    fn empty_request_completes_immediately() {
        let (mut sim, client) = setup(Policy::BestBandwidth);
        submit_request(&mut sim, client, vec![], |s, o| s.world.outcomes.push(o));
        sim.run();
        assert_eq!(sim.world.outcomes.len(), 1);
        assert_eq!(sim.world.outcomes[0].total_bytes, 0);
    }

    #[test]
    fn zero_size_file_completes() {
        let (mut sim, client) = setup(Policy::BestBandwidth);
        {
            let rm = &mut sim.world.rm;
            rm.catalog.add_logical_file("co2", "empty.esg", 0).unwrap();
            rm.catalog
                .add_file_to_location("co2", "llnl", "empty.esg")
                .unwrap();
        }
        submit_request(
            &mut sim,
            client,
            vec![("co2".into(), "empty.esg".into())],
            |s, o| s.world.outcomes.push(o),
        );
        sim.run();
        assert_eq!(sim.world.outcomes.len(), 1, "zero-size file must finish");
        let f = &sim.world.outcomes[0].files[0];
        assert!(f.done);
        assert!(!f.failed);
        assert_eq!(f.bytes_done, 0);
        assert_eq!(f.fraction(), 1.0);
    }

    #[test]
    fn unknown_file_stays_pending() {
        let (mut sim, client) = setup(Policy::BestBandwidth);
        submit_request(
            &mut sim,
            client,
            vec![("co2".into(), "no-such.esg".into())],
            |s, o| s.world.outcomes.push(o),
        );
        sim.run();
        // A file the catalog has never heard of must not be "completed"
        // just because its unknown size reads as zero.
        assert!(sim.world.outcomes.is_empty());
    }

    /// Submit one request for `jan.esg` per breaker strike: with the fast
    /// site down, each first attempt fails to route there, together
    /// tripping its breaker, and each file finishes from the slow site.
    fn trip_fast_site(sim: &mut Sim<World>, client: NodeId) {
        for _ in 0..BREAKER_THRESHOLD {
            submit_files(sim, client, &["jan.esg"]);
        }
    }

    #[test]
    fn breaker_opens_and_blocks_host() {
        let (mut sim, client) = setup(Policy::BestBandwidth);
        // Fast site is dead before anything starts.
        let fast = sim.world.rm.hosts["fast.llnl.gov"];
        sim.net.set_node_up(fast, false);
        trip_fast_site(&mut sim, client);
        sim.run_until(SimTime::from_secs(300));
        assert_eq!(sim.world.outcomes.len(), BREAKER_THRESHOLD as usize);
        for o in &sim.world.outcomes {
            assert!(o.files[0].done);
            assert_eq!(o.files[0].replica_host.as_deref(), Some("slow.isi.edu"));
        }
        assert!(matches!(
            sim.world.rm.breaker_state("fast.llnl.gov"),
            Some(BreakerState::Open { .. })
        ));
        let open_time = sim
            .world
            .rm
            .log
            .named("rm.breaker.open")
            .next()
            .expect("breaker must have opened")
            .time;
        // While the breaker is open, no selection touches the dead host.
        let picked_fast_after_open = sim
            .world
            .rm
            .log
            .named("rm.replica.selected")
            .filter(|e| e.time > open_time)
            .any(|e| e.get("host").map(|v| v.to_string()) == Some("fast.llnl.gov".into()));
        assert!(!picked_fast_after_open, "open breaker must block the host");
    }

    #[test]
    fn breaker_half_open_probe_readmits_recovered_host() {
        let (mut sim, client) = setup(Policy::BestBandwidth);
        let fast = sim.world.rm.hosts["fast.llnl.gov"];
        sim.net.set_node_up(fast, false);
        // The first requests trip the breaker and complete from slow.
        trip_fast_site(&mut sim, client);
        sim.run_until(SimTime::from_secs(120));
        let tripping = BREAKER_THRESHOLD as usize;
        assert_eq!(sim.world.outcomes.len(), tripping);
        // Host recovers; after the cooldown a new request probes it.
        sim.net.set_node_up(fast, true);
        sim.schedule(SimDuration::from_secs(60), move |s| {
            submit_request(
                s,
                client,
                vec![("co2".into(), "jan.esg".into())],
                |s2, o| s2.world.outcomes.push(o),
            );
        });
        sim.run_until(SimTime::from_secs(400));
        assert_eq!(sim.world.outcomes.len(), tripping + 1);
        let o = &sim.world.outcomes[tripping];
        assert!(o.files[0].done);
        assert_eq!(
            o.files[0].replica_host.as_deref(),
            Some("fast.llnl.gov"),
            "recovered host must be readmitted via the half-open probe"
        );
        assert!(sim
            .world
            .rm
            .log
            .named("rm.breaker.half_open")
            .next()
            .is_some());
        assert!(sim.world.rm.log.named("rm.breaker.close").next().is_some());
        assert_eq!(
            sim.world.rm.breaker_state("fast.llnl.gov"),
            Some(BreakerState::Closed)
        );
    }

    #[test]
    fn all_replicas_down_requeues_with_backoff_until_heal() {
        let (mut sim, client) = setup(Policy::BestBandwidth);
        // Both replicas dead at submit time: the file must wait, not fail.
        let fast = sim.world.rm.hosts["fast.llnl.gov"];
        let slow = sim.world.rm.hosts["slow.isi.edu"];
        sim.net.set_node_up(fast, false);
        sim.net.set_node_up(slow, false);
        submit_request(
            &mut sim,
            client,
            vec![("co2".into(), "jan.esg".into())],
            |s, o| s.world.outcomes.push(o),
        );
        // Heal the fast site well after both breakers have tripped.
        sim.schedule(SimDuration::from_secs(90), move |s| {
            s.net.set_node_up(fast, true);
        });
        sim.run_until(SimTime::from_secs(1200));
        assert_eq!(
            sim.world.outcomes.len(),
            1,
            "request must complete after heal"
        );
        let o = &sim.world.outcomes[0];
        assert!(o.files[0].done);
        assert!(!o.files[0].failed);
        assert_eq!(o.files[0].bytes_done, o.files[0].size);
        assert!(
            sim.world.rm.log.named("rm.retry.backoff").next().is_some(),
            "degraded file must requeue through the retry policy"
        );
    }

    fn register_digest(rm: &mut RequestManager, collection: &str, name: &str, size: u64) {
        let key = format!("{collection}/{name}");
        let hex = esg_storage::file_digest_hex(&key, size);
        rm.catalog.set_file_digest(collection, name, &hex).unwrap();
    }

    #[test]
    fn clean_transfer_verifies_and_completes() {
        let (mut sim, client) = setup(Policy::BestBandwidth);
        register_digest(&mut sim.world.rm, "co2", "jan.esg", 50_000_000);
        submit_request(
            &mut sim,
            client,
            vec![("co2".into(), "jan.esg".into())],
            |s, o| s.world.outcomes.push(o),
        );
        sim.run();
        let o = &sim.world.outcomes[0];
        assert!(o.files[0].done && !o.files[0].failed);
        let v = sim
            .world
            .rm
            .log
            .named("integrity.file.verified")
            .next()
            .expect("clean delivery must log verification");
        assert_eq!(v.get_num("repair_bytes"), Some(0.0));
        assert!(sim
            .world
            .rm
            .log
            .named("integrity.block.mismatch")
            .next()
            .is_none());
    }

    #[test]
    fn corrupt_block_is_repaired_from_alternate_replica() {
        let (mut sim, client) = setup(Policy::BestBandwidth);
        register_digest(&mut sim.world.rm, "co2", "jan.esg", 50_000_000);
        // Block 3 is silently corrupt at the fast (preferred) site.
        sim.world
            .rm
            .corrupt_at_rest("fast.llnl.gov", "jan.esg", 3, 99, SimTime::ZERO);
        submit_request(
            &mut sim,
            client,
            vec![("co2".into(), "jan.esg".into())],
            |s, o| s.world.outcomes.push(o),
        );
        sim.run();
        let o = &sim.world.outcomes[0];
        assert!(o.files[0].done && !o.files[0].failed);
        let m = sim
            .world
            .rm
            .log
            .named("integrity.block.mismatch")
            .next()
            .expect("mismatch must be logged");
        assert_eq!(m.get_num("block"), Some(3.0));
        assert_eq!(
            m.get("host").map(|v| v.to_string()).unwrap(),
            "fast.llnl.gov"
        );
        let r = sim
            .world
            .rm
            .log
            .named("integrity.repair.eret")
            .next()
            .expect("repair must be logged");
        // Repair fetched one block, from the replica that was NOT blamed.
        assert_eq!(r.get_num("bytes"), Some(BLOCK_SIZE as f64));
        assert_eq!(
            r.get("host").map(|v| v.to_string()).unwrap(),
            "slow.isi.edu"
        );
        let v = sim
            .world
            .rm
            .log
            .named("integrity.file.verified")
            .next()
            .expect("file must end verified");
        assert_eq!(v.get_num("repair_bytes"), Some(BLOCK_SIZE as f64));
        assert_eq!(o.files[0].attempts, 1, "repairs are not new attempts");
    }

    /// Regression (restart-marker banking): bytes banked by a failover
    /// restart marker must not complete a file without digest
    /// verification. The preferred site serves a corrupt prefix and then
    /// dies; the banked prefix is only trusted after verification catches
    /// and repairs the corrupt block.
    #[test]
    fn failover_banked_prefix_is_verified_not_trusted() {
        let (mut sim, client) = setup(Policy::BestBandwidth);
        register_digest(&mut sim.world.rm, "co2", "jan.esg", 50_000_000);
        sim.world
            .rm
            .corrupt_at_rest("fast.llnl.gov", "jan.esg", 0, 7, SimTime::ZERO);
        submit_request(
            &mut sim,
            client,
            vec![("co2".into(), "jan.esg".into())],
            |s, o| s.world.outcomes.push(o),
        );
        // Fast site dies mid-transfer: the monitor banks the (corrupt)
        // prefix via the restart marker and fails over to the slow site.
        let fast = sim.world.rm.hosts["fast.llnl.gov"];
        sim.schedule(SimDuration::from_millis(1200), move |s| {
            s.net.set_node_up(fast, false);
        });
        sim.run_until(SimTime::from_secs(600));
        assert_eq!(sim.world.outcomes.len(), 1);
        let o = &sim.world.outcomes[0];
        assert!(o.files[0].done && !o.files[0].failed);
        assert!(o.files[0].attempts >= 2, "failover must have happened");
        // The corrupt banked block was caught and repaired (from the
        // surviving replica — the dead one cannot serve the repair).
        let m = sim
            .world
            .rm
            .log
            .named("integrity.block.mismatch")
            .next()
            .expect("banked corrupt prefix must be detected");
        assert_eq!(m.get_num("block"), Some(0.0));
        let r = sim
            .world
            .rm
            .log
            .named("integrity.repair.eret")
            .next()
            .expect("repair must run");
        assert_eq!(
            r.get("host").map(|v| v.to_string()).unwrap(),
            "slow.isi.edu"
        );
        // Completion strictly follows detection: never complete-then-check.
        let done_t = sim
            .world
            .rm
            .log
            .named("rm.file.complete")
            .next()
            .unwrap()
            .time;
        assert!(m.time <= done_t, "verification must precede completion");
        assert!(sim
            .world
            .rm
            .log
            .named("integrity.file.verified")
            .next()
            .is_some());
    }

    #[test]
    fn repeated_corruption_quarantines_then_rehabilitates_replica() {
        let (mut sim, client) = setup(Policy::BestBandwidth);
        sim.world.rm.integrity.quarantine_threshold = 1;
        register_digest(&mut sim.world.rm, "co2", "jan.esg", 50_000_000);
        sim.world
            .rm
            .corrupt_at_rest("fast.llnl.gov", "jan.esg", 5, 11, SimTime::ZERO);
        submit_request(
            &mut sim,
            client,
            vec![("co2".into(), "jan.esg".into())],
            |s, o| s.world.outcomes.push(o),
        );
        sim.run_until(SimTime::from_secs(60));
        assert_eq!(sim.world.outcomes.len(), 1, "first request repaired");
        assert!(sim
            .world
            .rm
            .log
            .named("integrity.replica.quarantine")
            .next()
            .is_some());
        assert!(sim
            .world
            .rm
            .integrity
            .is_quarantined("co2", "fast.llnl.gov"));
        // While quarantined, selection avoids the (faster) suspect host.
        submit_request(
            &mut sim,
            client,
            vec![("co2".into(), "jan.esg".into())],
            |s, o| s.world.outcomes.push(o),
        );
        sim.run_until(SimTime::from_secs(120));
        assert_eq!(sim.world.outcomes.len(), 2);
        assert_eq!(
            sim.world.outcomes[1].files[0].replica_host.as_deref(),
            Some("slow.isi.edu"),
            "suspect replica must be demoted"
        );
        // Background re-verification rehabilitates the host and scrubs its
        // store; afterwards it is selected (and serves clean data) again.
        sim.run();
        assert!(sim
            .world
            .rm
            .log
            .named("integrity.replica.rehabilitated")
            .next()
            .is_some());
        assert!(!sim
            .world
            .rm
            .integrity
            .is_quarantined("co2", "fast.llnl.gov"));
        submit_request(
            &mut sim,
            client,
            vec![("co2".into(), "jan.esg".into())],
            |s, o| s.world.outcomes.push(o),
        );
        sim.run();
        assert_eq!(sim.world.outcomes.len(), 3);
        let f = &sim.world.outcomes[2].files[0];
        assert!(f.done);
        assert_eq!(f.replica_host.as_deref(), Some("fast.llnl.gov"));
        // Third delivery needed no repairs: the rehab scrubbed the store.
        let repairs: Vec<_> = sim.world.rm.log.named("integrity.repair.eret").collect();
        assert_eq!(repairs.len(), 1, "only the first delivery needed repair");
    }

    #[test]
    fn wire_corruption_is_detected_and_repaired() {
        use esg_simnet::prelude::{inject, Fault, FaultKind};
        let (mut sim, client) = setup(Policy::BestBandwidth);
        register_digest(&mut sim.world.rm, "co2", "jan.esg", 50_000_000);
        let fast = sim.world.rm.hosts["fast.llnl.gov"];
        inject(
            &mut sim,
            Fault::new(
                SimTime::ZERO,
                SimDuration::from_secs(60),
                FaultKind::WireCorrupt(fast),
            ),
        );
        submit_request(
            &mut sim,
            client,
            vec![("co2".into(), "jan.esg".into())],
            |s, o| s.world.outcomes.push(o),
        );
        sim.run_until(SimTime::from_secs(600));
        assert_eq!(sim.world.outcomes.len(), 1);
        let o = &sim.world.outcomes[0];
        assert!(o.files[0].done && !o.files[0].failed);
        let mismatches: Vec<_> = sim.world.rm.log.named("integrity.block.mismatch").collect();
        assert!(
            !mismatches.is_empty() && mismatches.len() < 48,
            "1/16 sampling over 48 blocks should corrupt some, not all: {}",
            mismatches.len()
        );
        let repaired: f64 = sim
            .world
            .rm
            .log
            .named("integrity.repair.eret")
            .filter_map(|e| e.get_num("bytes"))
            .sum();
        assert!(
            repaired > 0.0 && repaired < 50_000_000.0,
            "repair traffic must be partial: {repaired}"
        );
        assert!(sim
            .world
            .rm
            .log
            .named("integrity.file.verified")
            .next()
            .is_some());
    }

    #[test]
    fn attempt_cap_fails_file() {
        let (mut sim, client) = setup(Policy::BestBandwidth);
        sim.world.rm.retry.max_attempts = 3;
        sim.world.rm.retry.base = SimDuration::from_secs(1);
        let fast = sim.world.rm.hosts["fast.llnl.gov"];
        let slow = sim.world.rm.hosts["slow.isi.edu"];
        sim.net.set_node_up(fast, false);
        sim.net.set_node_up(slow, false);
        submit_request(
            &mut sim,
            client,
            vec![("co2".into(), "jan.esg".into())],
            |s, o| s.world.outcomes.push(o),
        );
        sim.run_until(SimTime::from_secs(600));
        assert_eq!(sim.world.outcomes.len(), 1, "capped request must settle");
        let f = &sim.world.outcomes[0].files[0];
        assert!(f.failed);
        assert!(!f.done);
        assert_eq!(f.attempts, 3);
        assert!(sim.world.rm.log.named("rm.file.failed").next().is_some());
    }

    /// Two hosts with identical links and forecasts, `n` files registered
    /// at both.
    fn setup_equal_pair(n_files: usize) -> (Sim<World>, NodeId, Vec<String>) {
        let mut topo = Topology::new();
        let core = topo.add_node(Node::router("core"));
        let client = topo.add_node(Node::host("client"));
        topo.add_link(client, core, 1e9, SimDuration::from_millis(2));
        let a = topo.add_node(Node::host("a.llnl.gov"));
        topo.add_link(a, core, 50e6, SimDuration::from_millis(5));
        let b = topo.add_node(Node::host("b.anl.gov"));
        topo.add_link(b, core, 50e6, SimDuration::from_millis(5));

        let mut rm = RequestManager::new(Policy::BestBandwidth, 7);
        rm.add_host("a.llnl.gov", a);
        rm.add_host("b.anl.gov", b);
        rm.spread_sites = true;
        rm.catalog.create_collection("co2").unwrap();
        let names: Vec<String> = (0..n_files).map(|i| format!("f{i:02}.esg")).collect();
        for name in &names {
            rm.catalog
                .add_logical_file("co2", name, 20_000_000)
                .unwrap();
        }
        let refs: Vec<&str> = names.iter().map(|s| s.as_str()).collect();
        rm.catalog
            .register_location("co2", "llnl", &GridUrl::new("a.llnl.gov", "/data"), &refs)
            .unwrap();
        rm.catalog
            .register_location("co2", "anl", &GridUrl::new("b.anl.gov", "/data"), &refs)
            .unwrap();

        let mut world = World {
            rm,
            gridftp: GridFtpSim::new(),
            nws: NwsRegistry::new(),
            outcomes: Vec::new(),
        };
        world.nws.observe_bandwidth(a, client, SimTime::ZERO, 50e6);
        world.nws.observe_bandwidth(b, client, SimTime::ZERO, 50e6);
        let sim = Sim::new(topo, world);
        (sim, client, names)
    }

    #[test]
    fn concurrent_requests_spread_across_equal_replicas() {
        // Regression for the per-request host_load bug: with the load
        // discount scoped to one request, every selection that runs with
        // no sibling in flight ties onto the same first host, so two
        // concurrent 4-file requests stack all eight pulls on one site.
        // The manager-wide ledger makes each selection see every live
        // pull. Admission cap 1 serializes each request's files, which is
        // exactly the shape where per-request counting saw an empty map.
        let (mut sim, client, names) = setup_equal_pair(4);
        sim.world.rm.scheduler.max_active_per_request = 1;
        let files: Vec<(String, String)> = names
            .iter()
            .map(|n| ("co2".to_string(), n.clone()))
            .collect();
        let f2 = files.clone();
        submit_request(&mut sim, client, files, |s, o| s.world.outcomes.push(o));
        submit_request(&mut sim, client, f2, |s, o| s.world.outcomes.push(o));
        sim.run();
        assert_eq!(sim.world.outcomes.len(), 2);
        let mut per_host: HashMap<String, usize> = HashMap::new();
        for o in &sim.world.outcomes {
            for f in &o.files {
                assert!(f.done);
                *per_host.entry(f.replica_host.clone().unwrap()).or_default() += 1;
            }
        }
        let a = per_host.get("a.llnl.gov").copied().unwrap_or(0);
        let b = per_host.get("b.anl.gov").copied().unwrap_or(0);
        assert_eq!(a + b, 8);
        assert!(
            a >= 3 && b >= 3,
            "concurrent requests must split over equal replicas, got a={a} b={b}"
        );
    }

    #[test]
    fn admission_cap_limits_active_files_per_request() {
        let (mut sim, client, names) = setup_equal_pair(12);
        sim.world.rm.scheduler.max_active_per_request = 3;
        let files: Vec<(String, String)> = names
            .iter()
            .map(|n| ("co2".to_string(), n.clone()))
            .collect();
        submit_request(&mut sim, client, files, |s, o| s.world.outcomes.push(o));
        sim.run();
        assert_eq!(sim.world.outcomes.len(), 1);
        assert!(sim.world.outcomes[0].files.iter().all(|f| f.done));
        let stats = sim.world.rm.sched_stats();
        assert_eq!(stats.admitted, 12);
        assert!(
            stats.peak_active_per_request <= 3,
            "admission cap exceeded: {}",
            stats.peak_active_per_request
        );
    }

    #[test]
    fn host_cap_is_never_exceeded_under_contention() {
        // Soak-style invariant: with the per-host in-flight cap of 8 and
        // six 4-file requests hammering two hosts, the attempt-count
        // high-water mark must reach the cap and never pass it — overflow
        // demand is deferred (capacity wait), not failed.
        let (mut sim, client, names) = setup_equal_pair(4);
        let files: Vec<(String, String)> = names
            .iter()
            .map(|n| ("co2".to_string(), n.clone()))
            .collect();
        for _ in 0..6 {
            let fs = files.clone();
            submit_request(&mut sim, client, fs, |s, o| s.world.outcomes.push(o));
        }
        sim.run();
        assert_eq!(sim.world.outcomes.len(), 6);
        for o in &sim.world.outcomes {
            assert!(o.files.iter().all(|f| f.done && !f.failed));
        }
        let rm = &sim.world.rm;
        assert_eq!(
            rm.inflight().peak_attempts(),
            MAX_INFLIGHT_PER_HOST,
            "per-host cap violated or never reached"
        );
        assert!(
            rm.sched_stats().deferred > 0,
            "24 admitted files over 2 hosts at cap 8 must defer some selections"
        );
        assert_eq!(rm.inflight().total(), 0, "ledger must drain");
        assert!(rm.log.named("rm.sched.defer").next().is_some());
    }

    #[test]
    fn monitor_coalesces_to_one_tick_per_poll_interval() {
        // A 32-file request must cost ~one monitor event per poll
        // interval, not 32 — the per-request tick snapshots every live
        // transfer at once.
        let (mut sim, client, names) = setup_equal_pair(32);
        sim.world.rm.scheduler.max_active_per_request = 8;
        let files: Vec<(String, String)> = names
            .iter()
            .map(|n| ("co2".to_string(), n.clone()))
            .collect();
        submit_request(&mut sim, client, files, |s, o| s.world.outcomes.push(o));
        sim.run();
        assert_eq!(sim.world.outcomes.len(), 1);
        let o = &sim.world.outcomes[0];
        assert!(o.files.iter().all(|f| f.done));
        let dt = o.finished.since(o.started).as_secs_f64();
        let poll = POLL.as_secs_f64();
        let ticks = sim.world.rm.monitor_ticks();
        // One tick per interval, plus slack for retire/re-arm cycles at
        // transfer boundaries. A per-file monitor would be ~an order of
        // magnitude above this bound.
        let budget = (dt / poll).ceil() as u64 + 4;
        assert!(
            ticks <= budget,
            "monitor not coalesced: {ticks} ticks over {dt:.1}s (budget {budget})"
        );
        assert!(ticks >= 1, "monitor must actually run");
    }

    #[test]
    fn prestage_overlaps_tape_staging_with_warm_transfers() {
        // Two warm files ahead of two cold tape-only files of the same
        // size (so shortest-first keeps submit order), admission cap 2: the
        // cold stages are kicked off at submit, so mount/seek/stream
        // (~65 s) runs while the warm transfers (~20 s) move. Pipelined
        // completion ≈ max(stage, warm) + cold transfer (~20 s); serializing
        // the stage behind the warm files would pass 105 s.
        let (mut sim, client) = setup(Policy::BestBandwidth);
        {
            let rm = &mut sim.world.rm;
            rm.scheduler.max_active_per_request = 2;
            for f in ["warm1.esg", "warm2.esg", "cold1.esg", "cold2.esg"] {
                rm.catalog.add_logical_file("co2", f, 500_000_000).unwrap();
            }
            for f in ["warm1.esg", "warm2.esg"] {
                rm.catalog.add_file_to_location("co2", "llnl", f).unwrap();
            }
            rm.catalog
                .register_location(
                    "co2",
                    "lbl",
                    &GridUrl::new("hpss.lbl.gov", "/hpss"),
                    &["cold1.esg", "cold2.esg"],
                )
                .unwrap();
            rm.add_hrm(
                "hpss.lbl.gov",
                Hrm::new(
                    TapeParams {
                        drives: 2,
                        mount: SimDuration::from_secs(40),
                        seek: SimDuration::from_secs(20),
                        rate: 100e6,
                    },
                    1 << 34,
                ),
            );
        }
        submit_request(
            &mut sim,
            client,
            vec![
                ("co2".into(), "warm1.esg".into()),
                ("co2".into(), "warm2.esg".into()),
                ("co2".into(), "cold1.esg".into()),
                ("co2".into(), "cold2.esg".into()),
            ],
            |s, o| s.world.outcomes.push(o),
        );
        sim.run();
        assert_eq!(sim.world.outcomes.len(), 1);
        let o = &sim.world.outcomes[0];
        assert!(o.files.iter().all(|f| f.done));
        assert_eq!(sim.world.rm.sched_stats().prestaged, 2);
        assert!(sim.world.rm.log.named("rm.prestage").next().is_some());
        let dt = o.finished.since(o.started).as_secs_f64();
        // Stage floor: the tape path alone takes 40+20+5 = 65 s.
        assert!(dt > 65.0, "tape stage must bound completion: {dt}");
        assert!(
            dt < 95.0,
            "stage must overlap warm transfers (serial sum > 105 s): {dt}"
        );
    }

    #[test]
    fn scheduler_off_restores_start_all_behaviour() {
        let (mut sim, client, names) = setup_equal_pair(6);
        sim.world.rm.scheduler.enabled = false;
        let files: Vec<(String, String)> = names
            .iter()
            .map(|n| ("co2".to_string(), n.clone()))
            .collect();
        submit_request(&mut sim, client, files, |s, o| s.world.outcomes.push(o));
        sim.run();
        assert_eq!(sim.world.outcomes.len(), 1);
        assert!(sim.world.outcomes[0].files.iter().all(|f| f.done));
        let stats = sim.world.rm.sched_stats();
        assert_eq!(stats.admitted, 0, "no admission bookkeeping when off");
        assert_eq!(stats.deferred, 0);
        assert_eq!(stats.prestaged, 0);
        assert_eq!(stats.tuned, 0, "auto-tune gated behind the scheduler");
        assert_eq!(sim.world.rm.inflight().total(), 0, "ledger still drains");
    }

    #[test]
    fn tune_path_event_logged_for_every_attempt() {
        let (mut sim, client) = setup(Policy::BestBandwidth);
        // Give the fast path a latency observation so the BDP rule has
        // both inputs and actually fires.
        let fast = sim.world.rm.hosts["fast.llnl.gov"];
        sim.world.nws.observe_latency(fast, client, 0.014);
        submit_request(
            &mut sim,
            client,
            vec![("co2".into(), "jan.esg".into())],
            |s, o| s.world.outcomes.push(o),
        );
        sim.run();
        assert_eq!(sim.world.outcomes.len(), 1);
        let tunes: Vec<_> = sim.world.rm.log.named("rm.tune.path").collect();
        assert_eq!(tunes.len(), 1, "one tuning decision per attempt");
        let e = &tunes[0];
        assert!(e.get_num("streams").is_some());
        assert!(e.get_num("window").unwrap() > 0.0);
        assert!(e.get_num("fc_bw").unwrap() > 0.0);
        assert!(e.get_num("fc_rtt_s").unwrap() > 0.0);
        assert_eq!(sim.world.rm.sched_stats().tuned, 1);
        // BDP = 50e6 × 0.014 × 2 = 1.4 MB → one stream, 1.4 MB window.
        let w = e.get_num("window").unwrap();
        assert!(
            (1.3e6..1.5e6).contains(&w),
            "window should track the headroomed BDP: {w}"
        );
    }

    #[test]
    fn shortest_first_delivers_small_files_before_large() {
        let (mut sim, client) = setup(Policy::BestBandwidth);
        {
            let rm = &mut sim.world.rm;
            rm.scheduler.max_active_per_request = 1;
            rm.catalog
                .add_logical_file("co2", "tiny.esg", 1_000_000)
                .unwrap();
            rm.catalog
                .add_file_to_location("co2", "llnl", "tiny.esg")
                .unwrap();
        }
        // Submit the 50 MB file first, the 1 MB file second: SFF must
        // reorder so the small file is not starved behind the big one.
        submit_request(
            &mut sim,
            client,
            vec![
                ("co2".into(), "jan.esg".into()),
                ("co2".into(), "tiny.esg".into()),
            ],
            |s, o| s.world.outcomes.push(o),
        );
        sim.run();
        let first_complete =
            sim.world
                .rm
                .log
                .named("rm.file.complete")
                .next()
                .and_then(|e| match e.get("file") {
                    Some(esg_netlogger::Value::Str(s)) => Some(s),
                    _ => None,
                });
        assert_eq!(first_complete.as_deref(), Some("tiny.esg"));
    }
}
