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
//! Each transition of that lifecycle exists once (the table is DESIGN.md
//! "Per-file lifecycle"): `commit_pull` takes the breaker admission and
//! the ledger entry; `launch_pull` is the only caller of `start_transfer`,
//! an attempt at a file's tail and an ERET repair of its corrupt blocks
//! being the same ranged get; `pull_failed` is the failure epilogue,
//! `defer` the capacity wait, and `settle_file` the only place a file's
//! holdings are given back, whether it ends done, failed or cancelled.
//!
//! The manager owns every live request (and campaign) outright. A file is
//! addressed by a `Copy` `FileId`; functions take `(sim, FileId)` and look
//! the request up, scheduled closures capture ids and the data of their own
//! event, and **a wake that finds its request gone returns** — so a request
//! that was finished or cancelled is freed on the spot and nothing scheduled
//! for it can act on it. The submitter's callback is stored with the request
//! as a type-erased `Completion`.

use crate::integrity::{verify_blocks, IntegrityManager, SegRecord, SegmentView};
use crate::reliability::{BreakerState, BreakerTransition, CircuitBreaker, RetryPolicy};
use crate::scheduler::{
    bdp_tuning, order_queue, HostLedger, SchedStats, SchedulerConfig, TenantTable, DEFAULT_TENANT,
    DEFER_RETRY,
};
use esg_gridftp::simxfer::{
    cancel_transfer, start_transfer, transfer_bytes, transfer_rate, transfer_stalled, HasGridFtp,
    TransferError, TransferHandle, TransferSpec,
};
use esg_gridftp::{repair_ranges, RangeSet};
use esg_netlogger::{LogEvent, MetricsRegistry, Phase, SpanId, Text, TraceCtx, TracedLog, Value};
use esg_nws::HasNws;
use esg_replica::{PathEstimate, Policy, Replica, ReplicaCatalog, ReplicaSelector};
use esg_simnet::{profile, Completion, NodeId, Sim, SimDuration, SimTime};
use esg_storage::{blocks_overlapping, Hrm, StageOutcome, BLOCK_SIZE};

use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::{BTreeSet, HashMap, VecDeque};
use std::ops::ControlFlow;

/// CORBA call latency between the client and the RM.
const RPC_LATENCY: SimDuration = SimDuration::from_millis(2);

/// World bound shared by all request-manager operations.
pub trait RmWorld: HasGridFtp + HasNws + HasReqMan + 'static {}
impl<W: HasGridFtp + HasNws + HasReqMan + 'static> RmWorld for W {}

/// World access to the manager.
pub trait HasReqMan {
    fn reqman(&mut self) -> &mut RequestManager;
}

/// Per-file transfer tuning the RM applies.
#[derive(Debug, Clone, Copy)]
pub struct TransferTuning {
    /// Parallel streams per transfer.
    pub streams: u32,
    /// TCP buffer per stream.
    pub window: f64,
    /// Use data-channel caching.
    pub channel_cache: bool,
}

impl Default for TransferTuning {
    fn default() -> Self {
        TransferTuning {
            streams: 4,
            window: (1u64 << 20) as f64,
            channel_cache: false,
        }
    }
}

impl TransferTuning {
    /// The GridFTP get of `bytes` from `src` to `dst` under this tuning.
    pub fn spec(&self, src: NodeId, dst: NodeId, bytes: u64) -> TransferSpec {
        let mut spec = TransferSpec::new(src, dst, bytes)
            .streams(self.streams)
            .window(self.window);
        spec.channel_cache = self.channel_cache;
        spec
    }
}

/// Status of one file within a request.
#[derive(Debug, Clone, PartialEq)]
pub struct FileStatus {
    pub collection: String,
    pub name: String,
    pub size: u64,
    pub bytes_done: u64,
    pub replica_host: Option<String>,
    pub attempts: u32,
    pub done: bool,
    /// Gave up: the retry policy's `max_attempts` cap was reached.
    pub failed: bool,
    /// Waiting on HRM tape staging until this time.
    pub staging_until: Option<SimTime>,
}

impl FileStatus {
    pub fn fraction(&self) -> f64 {
        if self.size == 0 {
            1.0
        } else {
            self.bytes_done as f64 / self.size as f64
        }
    }
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

/// What a pull fetches. In GridFTP a restart and a partial (ERET) retrieval
/// are the same ranged get; the kinds differ in what the RM does around it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum PullKind {
    /// A counted attempt at the file's undelivered tail `[base, size)`.
    Attempt,
    /// An ERET re-fetch of corrupt blocks of a fully delivered file: not an
    /// attempt, exempt from the per-host cap, and banks no restart marker.
    Repair,
}

/// The one live GridFTP transfer of a file.
#[derive(Clone, Copy)]
struct LivePull {
    handle: TransferHandle,
    kind: PullKind,
    started: SimTime,
    /// `status.bytes_done` when the pull started; the monitor adds the live
    /// transfer's progress on top. A repair starts from a fully delivered
    /// file, so its progress never counts as new delivery.
    base: u64,
    /// Transfer sequence number — the wire-corruption sampling key.
    seq: u64,
    src: NodeId,
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
struct TraceNames(HashMap<String, Text>);

impl TraceNames {
    fn get(&mut self, name: &str) -> Text {
        if let Some(text) = self.0.get(name) {
            return text.clone();
        }
        let text = Text::shared(name);
        self.0.insert(name.to_string(), text.clone());
        text
    }
}

struct FileWork {
    status: FileStatus,
    /// Present from a successful `start_transfer` until the pull ends
    /// (delivered, failed, cancelled by the monitor, or the file settles).
    pull: Option<LivePull>,
    /// Hosts already tried and failed in the current selection round.
    /// Cleared whenever the round runs dry — long-term memory of host
    /// health lives in the manager's circuit breakers instead.
    excluded_hosts: Vec<String>,
    /// The catalog knows this logical file (size lookup succeeded).
    known: bool,
    /// Provenance of every banked byte range, for post-delivery digest
    /// verification. Cleared when a repair escalates to a full re-fetch.
    segments: Vec<SegRecord>,
    /// Block-granular repair rounds consumed since the last full fetch.
    repair_rounds: u32,
    /// Total bytes re-fetched by ERET repairs (reporting; never reset).
    repair_bytes: u64,
    /// Manager-wide ledger entry owned by the current pull, held from
    /// selection commit (so through tape staging and transfer set-up, before
    /// `pull` exists) to the end of the pull.
    ledger_host: Option<(String, PullKind)>,
    /// The file holds one of its request's admission slots.
    admitted: bool,
    /// Root `Phase::File` span of this file's lifeline (NONE until the
    /// request's RPC lands, and again after the file settles).
    trace_root: SpanId,
    /// The currently open phase span: `(id, phase, opened_at)`. Invariant:
    /// while `trace_root` is live exactly one phase span is open, and
    /// transitions close + open at the same instant — so a settled file's
    /// phase durations tile its makespan exactly.
    trace_phase: Option<(SpanId, Phase, SimTime)>,
    /// When the root span opened (for the makespan histogram).
    trace_opened: SimTime,
    /// `status.name` as the trace stores it: built once here, shared by
    /// every event of this file's lifeline.
    trace_name: Text,
}

impl FileWork {
    fn settled(&self) -> bool {
        self.status.done || self.status.failed
    }
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
    /// Indices with a live pull (`pull.is_some()` and not settled) — the
    /// monitor tick's working set. A `BTreeSet` so
    /// iteration is in ascending index order, which the pinned traces
    /// depend on.
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
    /// from its current status. Called after every mutation of
    /// `pull` / `bytes_done` / `done` / `failed`; O(log files).
    fn sync_file(&mut self, idx: usize) {
        let fw = &self.files[idx];
        if fw.pull.is_some() && !fw.settled() {
            self.live.insert(idx);
        } else {
            self.live.remove(&idx);
        }
        if fw.status.bytes_done > 0 && !fw.status.done {
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
    /// Transfer tuning.
    pub tuning: TransferTuning,
    /// Monitor poll interval ("every few seconds").
    pub poll: SimDuration,
    /// Reliability plugin: restart when rate drops below this (bytes/sec).
    /// Zero disables the rate check (stalls are always handled).
    pub min_rate: f64,
    /// Grace period before the rate check applies (slow start).
    pub grace: SimDuration,
    /// Backoff schedule, attempt cap and per-attempt timeout for requeues.
    pub retry: RetryPolicy,
    /// Consecutive failures that trip a host's circuit breaker.
    pub breaker_threshold: u32,
    /// How long a tripped breaker blocks its host before a probe.
    pub breaker_cooldown: SimDuration,
    /// Live stall detection threshold. When set (via
    /// [`enable_live_analysis`](Self::enable_live_analysis)), every phase
    /// and prestage span arms a probe that fires `obs.stall` *at detection
    /// time* — the streaming counterpart of the offline
    /// [`LifelineSet::detect_stalls`](esg_netlogger::LifelineSet::detect_stalls)
    /// pass. `None` (the default) emits nothing, keeping golden traces
    /// byte-identical.
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
    /// Multi-tenant weighted fair-share table (weights, quotas,
    /// starvation window). Inert by default.
    pub tenants: TenantTable,
    /// Manager-wide in-flight pulls per source host (all requests).
    inflight: HostLedger,
    breakers: HashMap<String, CircuitBreaker>,
    /// The host and tenant names trace events carry, each built once.
    names: TraceNames,
    rng: StdRng,
    /// Every live request, by id (ids are never reused). The manager is the
    /// only owner: what leaves this map is gone.
    requests: HashMap<u64, RequestState>,
    /// Live request count per tenant — defines the *active* tenant set
    /// whose weights split the fair-share budget.
    tenant_live: HashMap<String, usize>,
    /// Last instant each tenant made admission progress (ledger acquire),
    /// the reference point for starvation detection.
    tenant_progress: HashMap<String, SimTime>,
    /// Last `rm.campaign.starved` emission per tenant (rate limiting).
    tenant_starved_at: HashMap<String, SimTime>,
    /// Bumped whenever the *active tenant set* changes (a tenant's first
    /// live request arrives or its last one retires) — one half of the
    /// active-weight cache key.
    tenant_epoch: u64,
    /// Cached active-weight sum for the fair-share limit:
    /// `((tenant_epoch, table_epoch, default_weight), weight)`. Valid
    /// while neither the active tenant set nor the tenant table changed,
    /// so the admission path skips the per-event tenant scan.
    active_weight_cache: Option<((u64, u64, u32), u64)>,
    /// Live campaign state, keyed by campaign id (see `campaign.rs`).
    pub(crate) campaigns: HashMap<u64, crate::campaign::CampaignState>,
    pub(crate) campaign_seq: u64,
    next_id: u64,
    xfer_seq: u64,
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
            tuning: TransferTuning::default(),
            poll: SimDuration::from_secs(3),
            min_rate: 0.0,
            grace: SimDuration::from_secs(10),
            retry: RetryPolicy::default(),
            breaker_threshold: 3,
            breaker_cooldown: SimDuration::from_secs(60),
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
            tenant_live: HashMap::new(),
            tenant_progress: HashMap::new(),
            tenant_starved_at: HashMap::new(),
            tenant_epoch: 0,
            active_weight_cache: None,
            campaigns: HashMap::new(),
            campaign_seq: 0,
            next_id: 0,
            xfer_seq: 0,
        }
    }

    /// Register a storage host.
    pub fn add_host(&mut self, name: impl Into<String>, node: NodeId) {
        self.hosts.insert(name.into(), node);
    }

    /// Turn on the streaming observability plane: attach the online
    /// lifeline analyzer to the trace log (replaying anything already
    /// emitted, so mid-run activation is complete) and arm live stall
    /// detection at `threshold`. From here on every phase/prestage span
    /// schedules a probe that fires `obs.stall` the instant the span has
    /// been open longer than the threshold — the same strict-`>` rule the
    /// offline detector applies post-hoc — and each firing bumps the
    /// `obs.stalls` counter plus the per-phase `obs.stall.<phase>_s`
    /// histogram in the metrics registry.
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
        Some(req.files.iter().map(|f| f.status.clone()).collect())
    }

    /// All live request ids.
    pub fn live_requests(&self) -> Vec<u64> {
        let mut v: Vec<u64> = self.requests.keys().copied().collect();
        v.sort_unstable();
        v
    }

    /// Current breaker state for a host, if one has been created.
    pub fn breaker_state(&self, host: &str) -> Option<BreakerState> {
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

    /// Retire one live request for `tenant`, dropping its bookkeeping
    /// when the last one goes so an idle tenant stops diluting shares.
    fn tenant_retire(&mut self, tenant: &str) {
        if let Some(n) = self.tenant_live.get_mut(tenant) {
            *n = n.saturating_sub(1);
            if *n == 0 {
                self.tenant_live.remove(tenant);
                self.tenant_progress.remove(tenant);
                self.tenant_starved_at.remove(tenant);
                self.tenant_epoch += 1;
            }
        }
    }

    /// Sum of active tenants' weights — the denominator of the fair-share
    /// split. O(active tenants).
    fn active_weight_scan(&self) -> u64 {
        self.tenant_live
            .iter()
            .filter(|(_, n)| **n > 0)
            .map(|(t, _)| self.tenants.weight(t) as u64)
            .sum()
    }

    /// The active-weight sum [`TenantTable::limit`] splits the budget by —
    /// a tenant's in-flight ceiling right now is its weighted share over the
    /// *active* tenant set, clipped by any hard quota (`usize::MAX` when
    /// fair sharing is disabled). Served from a cache invalidated by
    /// tenant-set / table epochs, so the admission hot path rescans only
    /// when a tenant activates/retires or a weight changes.
    fn active_weight_cached(&mut self) -> u64 {
        let key = (
            self.tenant_epoch,
            self.tenants.epoch(),
            self.tenants.default_weight,
        );
        match self.active_weight_cache {
            Some((k, w)) if k == key => w,
            _ => {
                let w = self.active_weight_scan();
                self.active_weight_cache = Some((key, w));
                w
            }
        }
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
                    let fw = &st.files[i];
                    (fw.status.name.clone(), fw.status.bytes_done)
                })
                .collect(),
        )
    }

    fn breaker_entry(&mut self, host: &str) -> &mut CircuitBreaker {
        let (threshold, cooldown) = (self.breaker_threshold, self.breaker_cooldown);
        self.breakers
            .entry(host.to_string())
            .or_insert_with(|| CircuitBreaker::new(threshold, cooldown))
    }

    /// Non-committal check used when filtering replica candidates.
    pub(crate) fn breaker_would_admit(&self, host: &str, now: SimTime) -> bool {
        self.breakers.get(host).is_none_or(|b| b.would_admit(now))
    }

    /// Commit an admission for `host` (may consume the half-open probe
    /// slot). Logs the open → half-open transition.
    pub(crate) fn breaker_admit(&mut self, host: &str, now: SimTime) {
        let tr = self.breaker_entry(host).admits(now).1;
        self.log_breaker(host, tr, now);
    }

    pub(crate) fn breaker_failure(&mut self, host: &str, now: SimTime) {
        let tr = self.breaker_entry(host).record_failure(now);
        self.log_breaker(host, tr, now);
    }

    pub(crate) fn breaker_success(&mut self, host: &str, now: SimTime) {
        let tr = self.breaker_entry(host).record_success();
        self.log_breaker(host, tr, now);
    }

    /// Free an admitted probe without judging the host (global outages).
    pub(crate) fn breaker_release(&mut self, host: &str) {
        if let Some(b) = self.breakers.get_mut(host) {
            b.release();
        }
    }

    fn log_breaker(&mut self, host: &str, tr: Option<BreakerTransition>, now: SimTime) {
        let name = match tr {
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

    fn next_backoff(&mut self, attempt: u32) -> SimDuration {
        self.retry.backoff(attempt, &mut self.rng)
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

/// Arm a live stall probe for a freshly-opened phase/prestage span: one
/// scheduled check at `open + threshold + 1 ns`. If the span is still open
/// when the probe fires, the stall is real under the offline detector's
/// strict-`>` rule (a span that closed with duration exactly equal to the
/// threshold is *not* a stall, and the +1 ns makes the probe see it
/// closed), so the probe emits `obs.stall` at detection time and feeds the
/// metrics registry. No-op unless `stall_threshold` is set.
fn arm_stall_probe<W: RmWorld>(sim: &mut Sim<W>, ctx: TraceCtx, span: SpanId, phase: Phase) {
    let Some(threshold) = sim.world.reqman().stall_threshold else {
        return;
    };
    let opened = sim.now();
    let probe_at = SimTime((opened + threshold).as_nanos() + 1);
    sim.schedule_at(probe_at, move |s| {
        let now = s.now();
        let rm = s.world.reqman();
        let open = rm.log.live().is_some_and(|l| l.is_open(span.0));
        if !open {
            return;
        }
        let age = now.since(opened).as_secs_f64();
        rm.metrics.counter_add("obs.stalls", 1);
        rm.metrics.observe(phase.stall_metric(), age);
        rm.log.emit(
            &ctx,
            LogEvent::new(now, "obs.stall")
                .field("span", span.0)
                .field("phase", phase.as_str())
                .field("stalled_s", age)
                .field("open", 1u64),
        );
        if let Some(live) = rm.log.live_mut() {
            live.note_stall_fired();
        }
    });
}

/// The causal coordinates of file `idx` of `req`, for event emission.
fn file_ctx(req: &RequestState, idx: usize) -> TraceCtx {
    let fw = &req.files[idx];
    TraceCtx::request(req.id)
        .with_file(fw.trace_name.clone())
        .with_attempt(fw.status.attempts)
}

/// Open the root `Phase::File` span for `f`. Idempotent.
fn open_file_span<W: RmWorld>(sim: &mut Sim<W>, f: FileId) {
    let now = sim.now();
    let rm = sim.world.reqman();
    let Some(req) = rm.requests.get_mut(&f.request) else {
        return;
    };
    if !req.files[f.idx].trace_root.is_none() {
        return;
    }
    let ctx = file_ctx(req, f.idx);
    let fw = &mut req.files[f.idx];
    fw.trace_root = rm.log.span_start(&ctx, now, Phase::File, None);
    fw.trace_opened = now;
}

/// Transition file `f` into `phase`: close the currently open phase span
/// and open the new one at the same instant, so the root span stays tiled.
/// `extra` fields attach to the *closing* span (e.g. the bytes a transfer
/// attempt banked). Re-entering the open phase is a no-op (deferral loops)
/// and discards `extra`.
fn enter_phase<W: RmWorld>(
    sim: &mut Sim<W>,
    f: FileId,
    phase: Phase,
    extra: Option<(&'static str, Value)>,
) {
    let now = sim.now();
    let rm = sim.world.reqman();
    let Some(req) = rm.requests.get_mut(&f.request) else {
        return;
    };
    let (root, open) = (req.files[f.idx].trace_root, req.files[f.idx].trace_phase);
    if root.is_none() || open.is_some_and(|(_, p, _)| p == phase) {
        return;
    }
    let ctx = file_ctx(req, f.idx);
    if let Some((sid, p, opened)) = open {
        rm.log.span_end(&ctx, now, sid, p, extra);
        rm.metrics
            .observe(p.metric(), now.since(opened).as_secs_f64());
    }
    let sid = rm.log.span_start(&ctx, now, phase, Some(root));
    req.files[f.idx].trace_phase = Some((sid, phase, now));
    arm_stall_probe(sim, ctx, sid, phase);
}

/// Close file `f`'s open phase span and its root span with a terminal
/// `status` (`done` / `failed` / `cancelled`). Idempotent: the root id is
/// cleared.
fn close_file_span<W: RmWorld>(sim: &mut Sim<W>, f: FileId, status: &'static str) {
    let now = sim.now();
    let rm = sim.world.reqman();
    let Some(req) = rm.requests.get_mut(&f.request) else {
        return;
    };
    let fw = &mut req.files[f.idx];
    let root = std::mem::replace(&mut fw.trace_root, SpanId::NONE);
    let (open, opened_at) = (fw.trace_phase.take(), fw.trace_opened);
    if root.is_none() {
        return;
    }
    let ctx = file_ctx(req, f.idx);
    if let Some((sid, p, phase_opened)) = open {
        rm.log.span_end(&ctx, now, sid, p, None);
        rm.metrics
            .observe(p.metric(), now.since(phase_opened).as_secs_f64());
    }
    rm.log
        .span_end(&ctx, now, root, Phase::File, [("status", status.into())]);
    rm.metrics
        .observe("rm.file.makespan_s", now.since(opened_at).as_secs_f64());
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
    let live = rm.tenant_live.entry(tenant.to_string()).or_insert(0);
    *live += 1;
    if *live == 1 {
        // Fresh activation: starvation is measured from this submit until
        // the tenant first acquires a ledger slot. The active tenant set
        // changed, so the fair-share weight cache must recompute.
        rm.tenant_progress.insert(tenant.to_string(), now);
        rm.tenant_epoch += 1;
    }

    let mut work = Vec::new();
    for (collection, name) in files {
        let size = rm.catalog.file_size(&collection, &name).ok();
        let trace_name = Text::from(name.clone());
        work.push(FileWork {
            status: FileStatus {
                collection,
                name,
                size: size.unwrap_or(0),
                bytes_done: 0,
                replica_host: None,
                attempts: 0,
                done: false,
                failed: false,
                staging_until: None,
            },
            pull: None,
            excluded_hosts: Vec::new(),
            known: size.is_some(),
            segments: Vec::new(),
            repair_rounds: 0,
            repair_bytes: 0,
            ledger_host: None,
            admitted: false,
            trace_root: SpanId::NONE,
            trace_phase: None,
            trace_opened: SimTime::ZERO,
            trace_name,
        });
    }
    let n_files = work.len();
    let total_size = work.iter().map(|f| f.status.size).sum();
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
            finish_request(s, id);
            return;
        }
        // Every file's lifeline opens when the RPC lands; files then sit in
        // the Queue phase until their worker picks them up (zero-length for
        // immediately-admitted files, the real wait for queued ones).
        for idx in 0..n_files {
            let f = FileId { request: id, idx };
            open_file_span(s, f);
            enter_phase(s, f, Phase::Queue, None);
        }
        if sched.enabled {
            prestage_cold_files(s, id);
            let Some(req) = s.world.reqman().requests.get_mut(&id) else {
                return;
            };
            let sizes: Vec<u64> = req.files.iter().map(|f| f.status.size).collect();
            req.queue = VecDeque::from(order_queue(sched.policy, &sizes));
            pump_request(s, id);
        } else {
            for idx in 0..n_files {
                start_file_worker(s, FileId { request: id, idx });
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
        req.files[idx].admitted = true;
        rm.metrics.counter_add(SchedStats::ADMITTED, 1);
        rm.metrics
            .gauge_max(SchedStats::PEAK_ACTIVE, req.active as f64);
        start_file_worker(sim, FileId { request: id, idx });
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
    let mut plan: HashMap<String, Vec<String>> = HashMap::new();
    for f in &req.files {
        let (name, size) = (&f.status.name, f.status.size);
        let replicas = rm
            .catalog
            .lookup_replicas(&f.status.collection, name)
            .unwrap_or_default();
        if replicas.is_empty() || replicas.iter().any(|r| !rm.hrms.contains_key(&r.host)) {
            continue;
        }
        for r in &replicas {
            let Some(hrm) = rm.hrms.get_mut(&r.host) else {
                continue;
            };
            if hrm.catalog.size_of(name).is_none() {
                hrm.catalog.register(name, size);
            }
            if !hrm.resident(name, now) {
                plan.entry(r.host.clone()).or_default().push(name.clone());
            }
        }
    }
    let mut by_host: Vec<(String, Vec<String>)> = plan.into_iter().collect();
    by_host.sort();
    let ctx = TraceCtx::request(id);
    for (host, names) in by_host {
        let rm = sim.world.reqman();
        let Some(hrm) = rm.hrms.get_mut(&host) else {
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
        let host = rm.names.get(&host);
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
        arm_stall_probe(sim, ctx.clone(), span, Phase::Prestage);
    }
}

/// Commit file `f` to a pull of `kind` from `host`: consume the breaker's
/// admission (maybe its half-open probe slot), count an attempt, and take
/// the manager-wide ledger entry through which every other selection round
/// sees the pull occupy the host until it ends.
fn commit_pull<W: RmWorld>(sim: &mut Sim<W>, f: FileId, host: &str, kind: PullKind) {
    // A stale entry here would double-count; release defensively first.
    ledger_release(sim, f);
    let now = sim.now();
    let rm = sim.world.reqman();
    rm.breaker_admit(host, now);
    let Some(req) = rm.requests.get_mut(&f.request) else {
        return;
    };
    let fw = &mut req.files[f.idx];
    fw.status.replica_host = Some(host.to_string());
    if kind == PullKind::Attempt {
        fw.status.attempts += 1;
    }
    fw.ledger_host = Some((host.to_string(), kind));
    rm.inflight
        .acquire(host, &req.tenant, kind == PullKind::Attempt);
    // Admission progress: the reference point for starvation detection.
    rm.tenant_progress.insert(req.tenant.clone(), now);
}

/// Release `f`'s ledger entry if it still owns one, and with it the
/// half-open probe slot the pull may hold on that host — without judging
/// the host; the pull ends that blame or clear it say so themselves.
/// Idempotent, so a pull's end and the file's settling may each call it.
fn ledger_release<W: RmWorld>(sim: &mut Sim<W>, f: FileId) {
    let rm = sim.world.reqman();
    let Some(req) = rm.requests.get_mut(&f.request) else {
        return;
    };
    if let Some((host, kind)) = req.files[f.idx].ledger_host.take() {
        rm.inflight
            .release(&host, &req.tenant, kind == PullKind::Attempt);
        rm.breaker_release(&host);
    }
}

/// Starvation detection: when a deferred tenant has made no admission
/// progress for the configured window, emit `rm.campaign.starved` (at
/// most once per window per tenant) and bump the matching counter —
/// the fairness layer's observable distress signal.
fn note_tenant_starvation(rm: &mut RequestManager, tenant: &str, now: SimTime) {
    let window = rm.tenants.starvation_after;
    if window.is_zero() {
        return;
    }
    let last_progress = rm.tenant_progress.get(tenant).copied().unwrap_or(now);
    let waited = now.since(last_progress);
    if waited < window {
        return;
    }
    if let Some(last_emit) = rm.tenant_starved_at.get(tenant) {
        if now.since(*last_emit) < window {
            return;
        }
    }
    rm.tenant_starved_at.insert(tenant.to_string(), now);
    rm.metrics.counter_add("rm.campaign.starved", 1);
    rm.log.emit(
        &TraceCtx::system(),
        LogEvent::new(now, "rm.campaign.starved")
            .field("tenant", rm.names.get(tenant))
            .field("waited_s", waited.as_secs_f64()),
    );
}

/// Every file has settled: the request leaves the manager — and, the
/// manager being its only owner, is freed here — and its submitter hears.
fn finish_request<W: RmWorld>(sim: &mut Sim<W>, id: u64) {
    let now = sim.now();
    let rm = sim.world.reqman();
    let Some(req) = rm.requests.remove(&id) else {
        return;
    };
    rm.tenant_retire(&req.tenant);
    rm.metrics.counter_add("rm.requests.completed", 1);
    rm.log.emit(
        &TraceCtx::request(id),
        LogEvent::new(now, "rm.request.complete").field("bytes", req.total_size),
    );
    // Moved into a buffer of their own size: `collect` would hand the
    // submitter the three-times-larger `FileWork` allocation to keep.
    let mut files = Vec::with_capacity(req.files.len());
    files.extend(req.files.into_iter().map(|f| f.status));
    let outcome = RequestOutcome {
        id,
        started: req.started,
        finished: now,
        files,
        total_bytes: req.total_size,
    };
    req.on_complete.call(sim, outcome);
}

/// Cancel a live request: every unsettled file is settled as
/// [`Settled::Cancelled`] and the request is removed without firing its
/// completion callback. Returns `false` when the id is not live.
///
/// Whatever is still scheduled for the request — its RPC, a backoff or
/// deferral wake, a staged start, a monitor tick — finds it gone and returns.
pub fn cancel_request<W: RmWorld>(sim: &mut Sim<W>, id: u64) -> bool {
    let Some(n_files) = sim.world.reqman().requests.get(&id).map(|r| r.files.len()) else {
        return false;
    };
    for idx in 0..n_files {
        settle_file(sim, FileId { request: id, idx }, Settled::Cancelled);
    }
    let now = sim.now();
    let rm = sim.world.reqman();
    if let Some(req) = rm.requests.remove(&id) {
        rm.tenant_retire(&req.tenant);
    }
    rm.metrics.counter_add("rm.requests.cancelled", 1);
    rm.log.emit(
        &TraceCtx::request(id),
        LogEvent::new(now, "rm.request.cancel"),
    );
    true
}

/// How a file leaves its request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Settled {
    /// Delivered (and digest-verified when the catalog pins a digest).
    Done,
    /// Given up: the retry policy's attempt cap is exhausted.
    Failed,
    /// Its request was cancelled: nothing is counted, no callback fires.
    Cancelled,
}

/// The one terminal transition of a file: give back everything it holds —
/// live pull, ledger entry, admission slot, index-set membership, its
/// share of `remaining`, its spans — then report the outcome and finish
/// the request or admit the next queued file. Idempotent: settling a
/// settled file is a no-op, so stragglers (a late monitor tick, a backoff
/// wake, a completion racing the monitor) are harmless.
fn settle_file<W: RmWorld>(sim: &mut Sim<W>, f: FileId, how: Settled) {
    let _rm_scope = profile::scope(profile::RM);
    let Some(req) = sim.world.reqman().requests.get_mut(&f.request) else {
        return;
    };
    let fw = &mut req.files[f.idx];
    if fw.settled() {
        return;
    }
    if how == Settled::Done {
        fw.status.bytes_done = fw.status.size;
        fw.status.done = true;
    } else {
        fw.status.failed = true;
    }
    let pull = fw.pull.take();
    let was_admitted = std::mem::take(&mut fw.admitted);
    let attempts = fw.status.attempts;
    if was_admitted {
        req.active -= 1;
    }
    // A cancelled file keeps its share of `remaining`, so
    // `finish_request` can never fire for its request afterwards.
    if how != Settled::Cancelled {
        req.remaining -= 1;
    }
    req.sync_file(f.idx);
    let finished_all = req.remaining == 0;
    let mut ctx = file_ctx(req, f.idx);
    if how == Settled::Failed {
        // The file failed, not one of its attempts: no attempt in its ctx.
        ctx.attempt = None;
    }
    if let Some(pull) = pull {
        cancel_transfer(sim, pull.handle);
    }
    ledger_release(sim, f);
    let status = match how {
        Settled::Done => "done",
        Settled::Failed => "failed",
        Settled::Cancelled => "cancelled",
    };
    close_file_span(sim, f, status);
    let now = sim.now();
    let (counter, event) = match how {
        Settled::Done => ("rm.files.completed", LogEvent::new(now, "rm.file.complete")),
        Settled::Failed => (
            "rm.files.failed",
            LogEvent::new(now, "rm.file.failed").field("attempts", attempts as u64),
        ),
        Settled::Cancelled => return,
    };
    let rm = sim.world.reqman();
    rm.metrics.counter_add(counter, 1);
    rm.log.emit(&ctx, event);
    if finished_all {
        finish_request(sim, f.request);
    } else if was_admitted {
        pump_request(sim, f.request);
    }
}

/// Requeue a file worker after a policy-determined backoff.
fn requeue_with_backoff<W: RmWorld>(sim: &mut Sim<W>, f: FileId) {
    let now = sim.now();
    let rm = sim.world.reqman();
    let Some(req) = rm.requests.get(&f.request) else {
        return;
    };
    let (ctx, attempts) = (file_ctx(req, f.idx), req.files[f.idx].status.attempts);
    let delay = rm.next_backoff(attempts);
    // The wait itself is part of the lifeline: the file sits in Backoff
    // until the worker relaunches.
    enter_phase(sim, f, Phase::Backoff, None);
    let rm = sim.world.reqman();
    rm.metrics.counter_add("rm.retries", 1);
    rm.log.emit(
        &ctx,
        LogEvent::new(now, "rm.retry.backoff").field("delay_s", delay.as_secs_f64()),
    );
    sim.schedule(delay, move |s| start_file_worker(s, f));
}

/// Steps 1–3 of the worker for file `f`: replicas → NWS estimates →
/// selection, passing over the `excluded` hosts. Returns the choice, the
/// number of catalog replicas before exclusion/breaker filtering (so the
/// caller can tell "nothing registered" / unsatisfiable from "everything
/// currently unavailable" / requeue and wait), and a
/// `deferred` flag set when healthy candidates exist but every one is at
/// the per-host in-flight cap — a capacity wait, not a failure.
/// Host loads are read straight from the manager-wide in-flight ledger —
/// O(1) per candidate — by both the spread planner's load discount and the
/// cap filter (`host_cap == 0` disables the cap — repairs bypass it). The
/// per-lookup cost is recorded under `rm.select.ledger_lookups`.
fn select_replica<W: RmWorld>(
    sim: &mut Sim<W>,
    f: FileId,
    excluded: &[String],
    host_cap: usize,
) -> (Option<(Replica, NodeId)>, usize, bool) {
    // Gather candidates and estimates first (immutable catalog reads),
    // then run the stateful selector.
    let now = sim.now();
    let rm = sim.world.reqman();
    let Some(req) = rm.requests.get(&f.request) else {
        return (None, 0, false);
    };
    let (client, file) = (req.client, &req.files[f.idx].status);
    let registered = rm
        .catalog
        .lookup_replicas(&file.collection, &file.name)
        .unwrap_or_default();
    let candidates = registered.len();
    let mut replicas: Vec<Replica> = registered
        .into_iter()
        .filter(|r| !excluded.contains(&r.host) && rm.breaker_would_admit(&r.host, now))
        .collect();
    // Quarantine demotion: while any trusted candidate remains, suspect
    // replicas drop out of the round entirely. (The selector demotes too,
    // but the spread planner bypasses it, so filter here as well.)
    if replicas.iter().any(|r| !r.suspect) {
        replicas.retain(|r| !r.suspect);
    }
    if replicas.is_empty() {
        return (None, candidates, false);
    }
    // Admission: drop hosts already serving `host_cap` pulls. If that
    // empties a non-empty healthy set, the caller should wait for
    // capacity rather than burn an attempt.
    if host_cap > 0 {
        rm.metrics
            .counter_add("rm.select.ledger_lookups", replicas.len() as u64);
        let inflight = &rm.inflight;
        replicas.retain(|r| inflight.load(&r.host) < host_cap);
        if replicas.is_empty() {
            return (None, candidates, true);
        }
    }
    let nodes: Vec<Option<NodeId>> = replicas
        .iter()
        .map(|r| rm.hosts.get(&r.host).copied())
        .collect();
    let mut estimates = Vec::with_capacity(replicas.len());
    for node in &nodes {
        let est = match node {
            Some(n) => {
                let nws = sim.world.nws();
                PathEstimate {
                    bandwidth: nws.forecast_bandwidth(*n, client),
                    latency: nws.forecast_latency(*n, client),
                }
            }
            None => PathEstimate::unknown(),
        };
        estimates.push(est);
    }
    let rm = sim.world.reqman();
    let idx = if rm.spread_sites {
        rm.metrics
            .counter_add("rm.select.ledger_lookups", replicas.len() as u64);
        let inflight = &rm.inflight;
        crate::planner::plan_spread(&replicas, &estimates, |h| inflight.load(h))
    } else {
        rm.selector.select(&replicas, &estimates)
    };
    let choice = idx.and_then(|i| nodes[i].map(|n| (replicas[i].clone(), n)));
    (choice, candidates, false)
}

/// Resolve the transfer tuning for one pull on `src → client` and log the
/// decision (`rm.tune.path`) so parameter sweeps stay explainable. Under
/// the scheduler, streams and window come from the NWS BDP forecast via
/// [`bdp_tuning`] (the manager's fixed defaults on a cold NWS path) and
/// data channels are cached, so repeat pulls from a host bank and reuse
/// them (`gridftp.cache_hits`); with it off the fixed defaults apply.
fn resolve_tuning<W: RmWorld>(
    sim: &mut Sim<W>,
    client: NodeId,
    src_node: NodeId,
    host: &str,
    ctx: &TraceCtx,
) -> TransferTuning {
    let (bw, rtt) = {
        let nws = sim.world.nws();
        (
            nws.forecast_bandwidth(src_node, client),
            nws.forecast_latency(src_node, client),
        )
    };
    let now = sim.now();
    let rm = sim.world.reqman();
    let (tuning, tuned) = if rm.scheduler.enabled {
        let mut base = rm.tuning;
        base.channel_cache = true;
        bdp_tuning(base, bw, rtt)
    } else {
        (rm.tuning, false)
    };
    if tuned {
        rm.metrics.counter_add(SchedStats::TUNED, 1);
    }
    rm.log.emit(
        ctx,
        LogEvent::new(now, "rm.tune.path")
            .field("host", rm.names.get(host))
            .field("streams", tuning.streams as u64)
            .field("window", tuning.window)
            .field("cached", tuning.channel_cache as u64)
            .field("fc_bw", bw.unwrap_or(-1.0))
            .field("fc_rtt_s", rtt.unwrap_or(-1.0))
            .field("source", if tuned { "bdp" } else { "default" }),
    );
    tuning
}

/// Postpone file `f`'s selection round by [`DEFER_RETRY`]: its tenant is
/// at its fair share (`by_tenant`), or every healthy candidate is at its
/// per-host cap. A capacity wait, not a failure — no attempt consumed, no
/// backoff growth, admission slot kept. The one point where a tenant's
/// demand is visibly postponed, so starvation detection lives here.
fn defer<W: RmWorld>(sim: &mut Sim<W>, f: FileId, by_tenant: bool) {
    let now = sim.now();
    let rm = sim.world.reqman();
    let Some(req) = rm.requests.get(&f.request) else {
        return;
    };
    let (tenant, ctx) = (rm.names.get(&req.tenant), file_ctx(req, f.idx));
    note_tenant_starvation(rm, &tenant, now);
    let mut event = LogEvent::new(now, "rm.sched.defer");
    let counter = if by_tenant {
        event = event.field("reason", "tenant").field("tenant", tenant);
        SchedStats::TENANT_DEFERRED
    } else {
        SchedStats::DEFERRED
    };
    rm.metrics.counter_add(counter, 1);
    rm.log
        .emit(&ctx, event.field("delay_s", DEFER_RETRY.as_secs_f64()));
    sim.schedule(DEFER_RETRY, move |s| start_file_worker(s, f));
}

/// Launch (or relaunch) the worker for one file of a request.
fn start_file_worker<W: RmWorld>(sim: &mut Sim<W>, f: FileId) {
    let _rm_scope = profile::scope(profile::RM);
    let rm = sim.world.reqman();
    let Some(req) = rm.requests.get(&f.request) else {
        return;
    };
    let fw = &req.files[f.idx];
    if fw.settled() {
        return;
    }
    // Zero-size files (and files whose bytes all arrived before a restart)
    // have nothing left to transfer — but "all bytes present" is not "all
    // bytes correct": route through digest verification, which completes
    // the file only when the received blocks match the catalog's
    // expectation (and plans repairs otherwise). Banked restart-marker
    // ranges therefore never complete a file unverified.
    if fw.known && fw.status.bytes_done >= fw.status.size {
        verify_and_finish(sim, f);
        return;
    }
    if rm.retry.exhausted(fw.status.attempts) {
        settle_file(sim, f, Settled::Failed);
        return;
    }
    let (client, excluded) = (req.client, fw.excluded_hosts.clone());
    // The worker owns the file now: selection (and any capacity deferral)
    // is the current lifeline phase. Re-entry from a deferral loop is a
    // no-op — the Select span keeps accumulating the wait.
    enter_phase(sim, f, Phase::Select, None);

    // Multi-tenant weighted fair sharing: a tenant at its share of the
    // global budget waits for capacity exactly like the per-host cap.
    // Loads for that cap come from the manager-wide ledger inside
    // `select_replica`, so the spread planner sees what every request (not
    // just this one) is doing. Neither applies with the scheduler off.
    let rm = sim.world.reqman();
    let host_cap = if rm.scheduler.enabled {
        let active_weight = rm.active_weight_cached();
        let Some(req) = rm.requests.get(&f.request) else {
            return;
        };
        if rm.inflight.tenant_load(&req.tenant) >= rm.tenants.limit(&req.tenant, active_weight) {
            defer(sim, f, true);
            return;
        }
        rm.scheduler.max_inflight_per_host
    } else {
        0
    };
    let (choice, candidates, deferred) = select_replica(sim, f, &excluded, host_cap);
    let Some((replica, src_node)) = choice else {
        if deferred {
            // A tenant can starve behind host caps as well as its share.
            defer(sim, f, false);
            return;
        }
        if candidates == 0 && excluded.is_empty() {
            // Nothing registered anywhere: the file is unsatisfiable;
            // leave it pending forever (caller sees no completion),
            // mirroring a catalog misconfiguration.
            return;
        }
        // Replicas exist but every one is excluded or breaker-blocked:
        // graceful degradation. Clear the round's exclusions and requeue
        // with backoff — breakers keep the long-term memory, and their
        // cooldowns decide when a downed host gets probed again.
        if let Some(req) = sim.world.reqman().requests.get_mut(&f.request) {
            req.files[f.idx].excluded_hosts.clear();
        }
        requeue_with_backoff(sim, f);
        return;
    };

    let now = sim.now();
    commit_pull(sim, f, &replica.host, PullKind::Attempt);
    let rm = sim.world.reqman();
    let host = rm.names.get(&replica.host);
    let Some(req) = rm.requests.get_mut(&f.request) else {
        return;
    };
    // The attempt counter just advanced: every event of this attempt
    // (selection, staging, tuning, restart marker) carries the new number.
    let ctx = file_ctx(req, f.idx);
    rm.log.emit(
        &ctx,
        LogEvent::new(now, "rm.replica.selected").field("host", host.clone()),
    );

    // HRM staging when the site is tape-backed.
    let status = &mut req.files[f.idx].status;
    let mut stage = (SimDuration::ZERO, SimDuration::ZERO);
    if let Some(hrm) = rm.hrms.get_mut(&replica.host) {
        // Register unseen files lazily so the HRM can price them.
        if hrm.catalog.size_of(&status.name).is_none() {
            hrm.catalog.register(&status.name, status.size);
        }
        if let Ok(StageOutcome::Staged {
            ready,
            queued_behind,
        }) = hrm.request_file(&status.name, now)
        {
            stage = (ready.since(now), queued_behind);
        }
    }
    let (stage_delay, stage_queued) = stage;
    if !stage_delay.is_zero() {
        status.staging_until = Some(now + stage_delay);
        // Attach the HRM's cost decomposition so lifeline analysis can
        // split drive-queueing from mount/seek/stream latency.
        let (mount_s, seek_s, stream_s) = rm
            .hrms
            .get(&replica.host)
            .and_then(|h| h.stage_cost(&status.name))
            .unwrap_or((0.0, 0.0, 0.0));
        enter_phase(sim, f, Phase::Stage, None);
        sim.world.reqman().log.emit(
            &ctx,
            LogEvent::new(now, "rm.hrm.staging")
                .field("host", host)
                .field("ready_in_s", stage_delay.as_secs_f64())
                .field("queued_s", stage_queued.as_secs_f64())
                .field("mount_s", mount_s)
                .field("seek_s", seek_s)
                .field("stream_s", stream_s),
        );
    }

    let tuning = resolve_tuning(sim, client, src_node, &replica.host, &ctx);
    sim.schedule(stage_delay, move |s| {
        // Read the resume point at the moment the transfer actually
        // starts, so the restart marker and the requested byte range are
        // computed from the same snapshot.
        let now = s.now();
        let rm = s.world.reqman();
        let Some(req) = rm.requests.get_mut(&f.request) else {
            return;
        };
        let fw = &mut req.files[f.idx];
        if fw.settled() {
            return;
        }
        fw.status.staging_until = None;
        let (base, size) = (fw.status.bytes_done, fw.status.size);
        if base > 0 {
            rm.log.emit(
                &file_ctx(req, f.idx),
                LogEvent::new(now, "rm.failover.restart_marker").field("offset", base),
            );
        }
        let mut tail = RangeSet::new();
        tail.insert(base, size);
        launch_pull(s, f, src_node, tail, tuning);
    });
}

/// Start the GridFTP get of `ranges` from `src` for the pull file `f`
/// has committed to (its ledger entry names the host and the kind) and see
/// it through. On start the [`LivePull`] is recorded and the monitor armed;
/// an attempt enters `Phase::Transfer` here, a repair opened `Phase::Repair`
/// before it chose a tuning. On delivery the ranges are banked and the file
/// goes to verification; any failure, before or after the start, goes to
/// [`pull_failed`].
fn launch_pull<W: RmWorld>(
    sim: &mut Sim<W>,
    f: FileId,
    src: NodeId,
    ranges: RangeSet,
    tuning: TransferTuning,
) {
    let t0 = sim.now();
    let rm = sim.world.reqman();
    let Some(req) = rm.requests.get(&f.request) else {
        return;
    };
    let fw = &req.files[f.idx];
    // No entry, no pull: the file settled since it committed.
    let Some((host, kind)) = fw.ledger_host.clone() else {
        return;
    };
    let (client, base) = (req.client, fw.status.bytes_done);
    let bytes = ranges.total();
    rm.xfer_seq += 1;
    let seq = rm.xfer_seq;
    let host2 = host.clone();
    let started = start_transfer(
        sim,
        tuning.spec(src, client, bytes),
        move |s, result| match result {
            Ok(_) => {
                let now = s.now();
                s.world.reqman().breaker_success(&host2, now);
                ledger_release(s, f);
                let Some(req) = s.world.reqman().requests.get_mut(&f.request) else {
                    return;
                };
                let fw = &mut req.files[f.idx];
                if fw.settled() {
                    return;
                }
                // Bank the delivered ranges with their provenance so
                // verification can reconstruct what was received; a
                // repair's are the newest writes and overwrite the
                // corrupt ones on re-verification.
                for (start, end) in ranges.iter() {
                    fw.segments.push(SegRecord {
                        host: host2.clone(),
                        node: src,
                        start,
                        end,
                        t0,
                        t1: now,
                        seq,
                    });
                }
                fw.status.bytes_done = fw.status.size;
                fw.pull = None;
                req.sync_file(f.idx);
                // Close the Transfer/Repair span crediting this pull's
                // bytes; attempt deltas telescope, so a file's Transfer
                // spans sum to its size.
                enter_phase(s, f, Phase::Verify, Some(("bytes", bytes.into())));
                verify_and_finish(s, f);
            }
            // The monitor cancelled this pull and already restarted the
            // worker; nothing to do here.
            Err(TransferError::Cancelled) => {}
            Err(e) => pull_failed(s, f, kind, &host2, e),
        },
    );
    match started {
        Ok(handle) => {
            let rm = sim.world.reqman();
            let poll = rm.poll;
            let Some(req) = rm.requests.get_mut(&f.request) else {
                return;
            };
            req.files[f.idx].pull = Some(LivePull {
                handle,
                kind,
                started: t0,
                base,
                seq,
                src,
            });
            req.sync_file(f.idx);
            let arm_monitor = !std::mem::replace(&mut req.monitor_active, true);
            if kind == PullKind::Attempt {
                enter_phase(sim, f, Phase::Transfer, None);
            }
            if arm_monitor {
                let id = f.request;
                sim.every(poll, MONITOR_TICK, move |s| monitor_tick(s, id));
            }
        }
        Err(e) => pull_failed(sim, f, kind, &host, e),
    }
}

/// A pull could not start, or failed after starting: give back its ledger
/// entry (and probe slot) and its handle, then requeue the worker through
/// the retry policy. An unreachable source counts against its breaker —
/// and, for an attempt, is excluded so this round's selection moves on (a
/// repair re-plans from the verifier's blame list instead). A name-service
/// outage is global and heals, so no host is blamed.
fn pull_failed<W: RmWorld>(
    sim: &mut Sim<W>,
    f: FileId,
    kind: PullKind,
    host: &str,
    err: TransferError,
) {
    let now = sim.now();
    ledger_release(sim, f);
    let unreachable = matches!(err, TransferError::NoRoute { .. });
    let rm = sim.world.reqman();
    let Some(req) = rm.requests.get_mut(&f.request) else {
        return;
    };
    let fw = &mut req.files[f.idx];
    // The handle is dead: the monitor must not poll it.
    fw.pull = None;
    if unreachable && kind == PullKind::Attempt {
        fw.excluded_hosts.push(host.to_string());
    }
    req.sync_file(f.idx);
    if unreachable {
        rm.breaker_failure(host, now);
    }
    requeue_with_backoff(sim, f);
}

/// The [`Sim::every`] label of the per-request monitor ticks.
const MONITOR_TICK: &str = "rm.monitor";

/// The per-request monitor, armed by the request's first transfer start:
/// poll every live transfer "every few seconds", update the visible
/// progress snapshot, and apply the reliability plugin to each one. One
/// tick per poll interval snapshots every live transfer of the request —
/// O(files) work once per interval instead of one timer per file — and the
/// tick retires when the request has nothing in flight, so an idle or
/// forever-pending request costs no events.
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
        poll_file(sim, FileId { request: id, idx });
    }
    ControlFlow::Continue(())
}

/// One file's share of the monitor tick: progress update plus the
/// reliability plugin (stall / minimum-rate / attempt-timeout failover).
fn poll_file<W: RmWorld>(sim: &mut Sim<W>, f: FileId) {
    let req = sim.world.reqman().requests.get(&f.request);
    // The pull may have ended earlier this tick.
    let Some(pull) = req.and_then(|r| r.files[f.idx].pull) else {
        return;
    };
    let handle = pull.handle;
    // The per-transfer polling wall: three linear scans of the shared
    // network layer per live file per tick. Attributed to `net_poll` so the
    // rm_profile scenario can size it against everything else.
    let (bytes, stalled, rate) = {
        let _poll = profile::scope(profile::NET_POLL);
        profile::count("net_poll.calls", 3);
        (
            transfer_bytes(sim, handle),
            transfer_stalled(sim, handle),
            transfer_rate(sim, handle),
        )
    };
    let age = sim.now().since(pull.started);
    let rm = sim.world.reqman();
    let Some(req) = rm.requests.get_mut(&f.request) else {
        return;
    };
    // Update the visible progress (the "file size at the local site").
    let status = &mut req.files[f.idx].status;
    status.bytes_done = status.bytes_done.max((pull.base + bytes).min(status.size));
    req.sync_file(f.idx);
    let too_slow = rm.min_rate > 0.0 && age > rm.grace && rate < rm.min_rate;
    let timed_out = !rm.retry.attempt_timeout.is_zero() && age > rm.retry.attempt_timeout;
    if !(stalled || too_slow || timed_out) {
        return;
    }
    // Reliability plugin: abandon this replica, bank the restart marker,
    // try an alternate.
    let marker = cancel_transfer(sim, handle);
    let now = sim.now();
    let Some(req) = sim.world.reqman().requests.get_mut(&f.request) else {
        return;
    };
    let ctx = file_ctx(req, f.idx);
    let fw = &mut req.files[f.idx];
    let host = fw.status.replica_host.clone().unwrap_or_default();
    let banked = (pull.base + marker).min(fw.status.size);
    // A repair's marker is synthetic: it banks nothing and its span closes
    // with 0 bytes.
    let delta = match pull.kind {
        PullKind::Attempt => banked.saturating_sub(pull.base),
        PullKind::Repair => 0,
    };
    // Bank the partial range with its provenance — it still gets
    // digest-verified before the file can complete.
    if delta > 0 {
        fw.segments.push(SegRecord {
            host: host.clone(),
            node: pull.src,
            start: pull.base,
            end: banked,
            t0: pull.started,
            t1: now,
            seq: pull.seq,
        });
    }
    fw.status.bytes_done = fw.status.bytes_done.max(banked);
    fw.pull = None;
    fw.excluded_hosts.push(host.clone());
    req.sync_file(f.idx);
    ledger_release(sim, f);
    let rm = sim.world.reqman();
    rm.breaker_failure(&host, now);
    rm.metrics.counter_add("rm.failovers", 1);
    rm.log.emit(
        &ctx,
        LogEvent::new(now, "rm.reliability.failover")
            .field("from", rm.names.get(&host))
            .field("stalled", if stalled { 1u64 } else { 0u64 })
            .field("timeout", if timed_out { 1u64 } else { 0u64 })
            .field("rate", rate),
    );
    // Close the Transfer/Repair span with whatever bytes were banked; the
    // worker re-enters Select on restart.
    enter_phase(sim, f, Phase::Select, Some(("bytes", delta.into())));
    start_file_worker(sim, f);
}

/// All bytes of a file have landed: verify the received blocks against the
/// catalog's expected digest before declaring it complete. Mismatches go
/// to block-granular ERET repair (bounded rounds), then escalate to a full
/// re-fetch; repeatedly-blamed replicas are quarantined. Files without a
/// registered digest complete under legacy (trusting) semantics.
fn verify_and_finish<W: RmWorld>(sim: &mut Sim<W>, f: FileId) {
    let _rm_scope = profile::scope(profile::RM);
    // Whether a wire fault overlapped a segment is the simulator's to
    // answer, so the windows are copied out before the manager is borrowed
    // for everything else.
    let windows: Vec<(NodeId, SimTime, SimTime)> = match sim.world.reqman().requests.get(&f.request)
    {
        Some(req) if !req.files[f.idx].settled() => {
            let segments = &req.files[f.idx].segments;
            segments.iter().map(|sg| (sg.node, sg.t0, sg.t1)).collect()
        }
        _ => return,
    };
    // Re-entrant verifies (post-repair, post-requeue) land in the same
    // open Verify span; the transition is a no-op if already there.
    enter_phase(sim, f, Phase::Verify, None);
    let wire: Vec<bool> = windows
        .iter()
        .map(|&(node, t0, t1)| sim.wire_corrupt_during(node, t0, t1))
        .collect();
    let now = sim.now();
    let rm = sim.world.reqman();
    let Some(req) = rm.requests.get(&f.request) else {
        return;
    };
    let (ctx, client, fw) = (file_ctx(req, f.idx), req.client, &req.files[f.idx]);
    let (collection, name, size) = (&fw.status.collection, &fw.status.name, fw.status.size);
    let Some(expected_hex) = rm.catalog.file_digest(collection, name) else {
        settle_file(sim, f, Settled::Done);
        return;
    };
    // Resolve each segment's integrity context: the wire-fault overlap
    // above, then at-rest flips from the serving site's store.
    let views: Vec<SegmentView> = fw
        .segments
        .iter()
        .zip(&wire)
        .map(|(sg, &wire_active)| {
            let span = blocks_overlapping(sg.start, sg.end.min(size));
            SegmentView {
                host: sg.host.clone(),
                start: sg.start,
                end: sg.end,
                seq: sg.seq,
                wire_active,
                at_rest: rm
                    .at_rest_flips(&sg.host, name, sg.t1)
                    .into_iter()
                    .filter(|(b, _)| span.contains(b))
                    .collect(),
            }
        })
        .collect();
    let key = format!("{collection}/{name}");
    let report = verify_blocks(&key, size, rm.integrity.wire_rate_denom, &views);
    if report.is_clean() && report.received_hex == expected_hex {
        rm.metrics.counter_add("rm.integrity.verified", 1);
        rm.log.emit(
            &ctx,
            LogEvent::new(now, "integrity.file.verified")
                .field("digest", report.received_hex)
                .field("repair_rounds", fw.repair_rounds as u64)
                .field("repair_bytes", fw.repair_bytes),
        );
        settle_file(sim, f, Settled::Done);
        return;
    }

    let blocks = report.corrupt_blocks();
    let blamed = report.blamed_hosts();
    for (b, h) in &report.corrupt {
        rm.metrics.counter_add("rm.integrity.block_mismatches", 1);
        rm.log.emit(
            &ctx,
            LogEvent::new(now, "integrity.block.mismatch")
                .field("block", *b)
                .field("host", rm.names.get(h)),
        );
    }
    // Incident accounting and quarantine — once per blamed host per verify
    // round, in sorted host order for deterministic logs.
    let mut quarantined = Vec::new();
    for host in blamed.iter().filter(|h| !h.is_empty()) {
        let count = rm.integrity.record_incident(collection, host);
        if rm.integrity.quarantine_if_due(collection, host) {
            let _ = rm.catalog.set_host_suspect(collection, host, true);
            rm.metrics.counter_add("rm.integrity.quarantines", 1);
            rm.log.emit(
                &ctx,
                LogEvent::new(now, "integrity.replica.quarantine")
                    .field("collection", collection.clone())
                    .field("host", rm.names.get(host))
                    .field("incidents", count as u64),
            );
            quarantined.push((collection.clone(), host.clone()));
        }
    }
    let reverify_after = rm.integrity.reverify_after;
    let escalate = fw.repair_rounds >= rm.integrity.max_repair_rounds || blocks.is_empty();
    for (c, h) in quarantined {
        sim.schedule(reverify_after, move |s| rehabilitate_replica(s, c, h));
    }
    if escalate {
        // Repair budget exhausted (or an unattributable whole-file
        // mismatch): escalate to a full re-fetch, preferring hosts that
        // were not blamed. The retry policy's attempt cap still bounds the
        // file — it fails loudly rather than completing corrupt.
        let rm = sim.world.reqman();
        let Some(req) = rm.requests.get_mut(&f.request) else {
            return;
        };
        let fw = &mut req.files[f.idx];
        fw.status.bytes_done = 0;
        fw.segments.clear();
        fw.repair_rounds = 0;
        fw.excluded_hosts = blamed;
        req.sync_file(f.idx);
        rm.metrics.counter_add("rm.integrity.escalations", 1);
        rm.log.emit(
            &ctx,
            LogEvent::new(now, "integrity.repair.escalate").field("blocks", blocks.len() as u64),
        );
        requeue_with_backoff(sim, f);
        return;
    }
    // Block-granular repair: re-fetch only the corrupt byte ranges via
    // ERET. Repairs see the manager-wide load (for the spread discount) but
    // bypass the per-host cap (`host_cap == 0`): a small ERET fetch must
    // not starve behind bulk admission, and it still counts in the ledger
    // once committed.
    //
    // Prefer an alternate over any blamed host; fall back to the full
    // candidate set when no alternate exists (a bad copy the verifier can
    // catch again beats no copy).
    let ranges = repair_ranges(&blocks, size, BLOCK_SIZE);
    let bytes = ranges.total();
    let (mut choice, _, _) = select_replica(sim, f, &blamed, 0);
    if choice.is_none() {
        choice = select_replica(sim, f, &[], 0).0;
    }
    let Some((replica, src_node)) = choice else {
        // No source reachable right now: back off; the worker re-verifies
        // and re-plans the repair when it wakes.
        requeue_with_backoff(sim, f);
        return;
    };
    commit_pull(sim, f, &replica.host, PullKind::Repair);
    let Some(req) = sim.world.reqman().requests.get_mut(&f.request) else {
        return;
    };
    let fw = &mut req.files[f.idx];
    fw.repair_rounds += 1;
    fw.repair_bytes += bytes;
    let round = fw.repair_rounds;
    enter_phase(sim, f, Phase::Repair, None);
    let rm = sim.world.reqman();
    rm.metrics.counter_add("rm.integrity.repairs", 1);
    rm.log.emit(
        &ctx,
        LogEvent::new(now, "integrity.repair.eret")
            .field("host", rm.names.get(&replica.host))
            .field("bytes", bytes)
            .field("spans", ranges.span_count() as u64)
            .field("round", round as u64),
    );
    let tuning = resolve_tuning(sim, client, src_node, &replica.host, &ctx);
    launch_pull(sim, f, src_node, ranges, tuning);
}

/// Background re-verification of a quarantined replica: the site restores
/// its copies from an authoritative source, the catalog mark is cleared,
/// and selection readmits the host.
fn rehabilitate_replica<W: RmWorld>(sim: &mut Sim<W>, collection: String, host: String) {
    let now = sim.now();
    let rm = sim.world.reqman();
    if !rm.integrity.rehabilitate(&collection, &host) {
        return;
    }
    if let Some(hrm) = rm.hrms.get_mut(&host) {
        hrm.store.scrub();
    }
    if let Some(store) = rm.integrity.stores.get_mut(&host) {
        store.scrub();
    }
    let _ = rm.catalog.set_host_suspect(&collection, &host, false);
    rm.metrics.counter_add("rm.integrity.rehabilitations", 1);
    rm.log.emit(
        &TraceCtx::system(),
        LogEvent::new(now, "integrity.replica.rehabilitated")
            .field("collection", collection)
            .field("host", rm.names.get(&host)),
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheduler::AdmissionPolicy;
    use esg_gridftp::simxfer::GridFtpSim;
    use esg_gridftp::GridUrl;
    use esg_nws::NwsRegistry;
    use esg_simnet::{Node, Topology};
    use esg_storage::TapeParams;

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
    /// unreachable source or a name-service outage, end in `pull_failed`.
    /// The engine never reports a name-service outage after a start, so
    /// that corner hands the error to `pull_failed` directly.
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
            sim.world.rm.breaker_threshold = 1;
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
            let id = submit_files(&mut sim, client, &["jan.esg"]);
            let file = FileId {
                request: id,
                idx: 0,
            };
            let live = |s: &Sim<World>| s.world.rm.requests[&id].files[0].pull;
            // Run to the moment the fault must be in place: inside the
            // pull's set-up window, or before the pull launches (a repair
            // launches the instant its attempt delivers).
            if after_start {
                run_to(&mut sim, |s| live(s).is_some_and(|p| p.kind == kind));
            } else if kind == PullKind::Repair {
                run_to(&mut sim, |s| live(s).is_some());
            }
            if unreachable {
                sim.net.set_node_up(node, false);
            } else if after_start {
                let pull = live(&sim).unwrap();
                cancel_transfer(&mut sim, pull.handle);
                let err = TransferError::NameServiceDown;
                pull_failed(&mut sim, file, kind, host, err);
            } else {
                sim.net_set_name_service(false);
            }
            run_to(&mut sim, |s| s.world.rm.metrics.counter("rm.retries") > 0);

            let now = sim.now();
            let rm = &sim.world.rm;
            {
                let st = &rm.requests[&id];
                let fw = &st.files[0];
                assert!(fw.pull.is_none() && st.live.is_empty(), "{case}");
                assert!(fw.ledger_host.is_none(), "{case}");
                let excluded = fw.excluded_hosts.iter().any(|h| h == host);
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

    /// `settle_file` is the one place a file's holdings are given back.
    /// File 0 of a two-file, one-slot request is settled each way while it
    /// holds everything a file can hold: a slot, a ledger entry, a live
    /// pull, banked progress and open spans.
    #[test]
    fn settling_gives_back_everything_the_file_holds() {
        for how in [Settled::Done, Settled::Failed, Settled::Cancelled] {
            let (mut sim, client) = setup(Policy::BestBandwidth);
            {
                let rm = &mut sim.world.rm;
                rm.poll = SimDuration::from_millis(100);
                rm.scheduler.policy = AdmissionPolicy::Fifo;
                rm.scheduler.max_active_per_request = 1;
                let cat = &mut rm.catalog;
                cat.add_logical_file("co2", "feb.esg", 1_000_000).unwrap();
                cat.add_file_to_location("co2", "llnl", "feb.esg").unwrap();
            }
            let id = submit_files(&mut sim, client, &["jan.esg", "feb.esg"]);
            let file = FileId {
                request: id,
                idx: 0,
            };
            run_to(&mut sim, |s| s.world.rm.requests[&id].progress.contains(&0));
            let handle = {
                let st = &sim.world.rm.requests[&id];
                assert!(st.live.contains(&0) && st.files[0].admitted);
                assert_eq!((st.active, st.remaining), (1, 2));
                st.files[0].pull.unwrap().handle
            };
            assert_eq!(sim.world.rm.inflight().total(), 1);

            settle_file(&mut sim, file, how);
            // Idempotent: a second verdict on a settled file is ignored.
            settle_file(&mut sim, file, Settled::Failed);

            let counted = (how != Settled::Cancelled) as usize;
            {
                let st = &sim.world.rm.requests[&id];
                let fw = &st.files[0];
                assert!(fw.pull.is_none() && !fw.admitted && fw.ledger_host.is_none());
                assert!(fw.trace_root.is_none() && fw.trace_phase.is_none());
                assert_eq!(fw.status.done, how == Settled::Done);
                assert_eq!(fw.status.failed, how != Settled::Done);
                assert!(!st.live.contains(&0));
                // Banked bytes of an undelivered file stay journal-worthy.
                assert_eq!(st.progress.contains(&0), how != Settled::Done);
                assert_eq!(st.remaining, 2 - counted);
                // The freed slot went to file 1 — unless nothing is pumped.
                assert_eq!((st.active, st.files[1].admitted), (counted, counted == 1));
            }
            assert_eq!(transfer_bytes(&mut sim, handle), 0, "pull not cancelled");
            let rm = &sim.world.rm;
            assert_eq!(rm.inflight().load("fast.llnl.gov"), counted);
            let done = (how == Settled::Done) as u64;
            assert_eq!(rm.metrics.counter("rm.files.completed"), done);
            assert_eq!(rm.metrics.counter("rm.files.failed"), counted as u64 - done);
            let set = esg_netlogger::LifelineSet::from_log(&rm.log);
            let l = set.lifeline(id, "jan.esg").unwrap();
            let status = ["done", "failed", "cancelled"][how as usize];
            assert!(l.is_complete() && l.status() == Some(status));

            sim.run_until(SimTime::from_secs(300));
            assert_eq!(sim.world.outcomes.len(), counted);
            assert_eq!(sim.world.rm.inflight().total(), 0);
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

    /// Regression: the RPC closure never asked whether its request still
    /// existed, so a request cancelled inside the RPC window was admitted,
    /// opened spans nothing would close, tripped the stall probe and (second
    /// case) had tape mounted for it.
    #[test]
    fn cancel_before_the_rpc_lands_leaves_nothing_behind() {
        for name in ["jan.esg", "deep.esg"] {
            let (mut sim, client) = setup(Policy::BestBandwidth);
            add_tape_only_file(&mut sim.world.rm, "deep.esg", 20_000_000);
            sim.world
                .rm
                .enable_live_analysis(SimDuration::from_secs(30));
            let id = submit_files(&mut sim, client, &[name]);
            assert!(cancel_request(&mut sim, id));
            sim.run_until(SimTime::from_secs(600));
            let rm = &sim.world.rm;
            assert!(rm.live_requests().is_empty() && sim.world.outcomes.is_empty());
            assert_eq!(rm.live().unwrap().open_count(), 0, "{name}: open spans");
            let stats = rm.sched_stats();
            assert_eq!((stats.admitted, stats.prestaged), (0, 0), "{name}");
            assert_eq!(rm.log.named("obs.stall").count(), 0, "{name}");
            assert_eq!(rm.log.named("span.start").count(), 0, "{name}");
            assert_eq!(sim.world.gridftp.transfers_started, 0, "{name}");
        }
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
        assert!(sim.world.rm.requests.is_empty() && sim.world.rm.tenant_live.is_empty());
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
        /// Nothing outlives a request, however it leaves. Random request
        /// mixes on the three-site world under random outages; a random
        /// subset is cancelled at the submit instant, at the RPC's instant
        /// just ahead of it, or any time later.
        #[test]
        fn nothing_outlives_a_request(
            requests in proptest::collection::vec(
                (0u64..20_000, 1usize..6, 0u8..5, 3u64..60_000),
                1..5,
            ),
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
                let (at, n_files, mode, later) = requests[i];
                let at = SimTime::ZERO + SimDuration::from_millis(at);
                let cancel = move |s: &mut Sim<World>| {
                    cancel_request(s, id as u64);
                };
                if mode == 3 {
                    // Scheduled before the submit: fires ahead of its RPC.
                    sim.schedule_at(at + RPC_LATENCY, cancel);
                }
                let names: Vec<&str> = (0..n_files).map(|k| FILES[(i + k) % 5]).collect();
                sim.schedule_at(at, move |s| {
                    assert_eq!(submit_files(s, client, &names), id as u64);
                });
                match mode {
                    2 => sim.schedule_at(at, cancel),
                    4 => sim.schedule_at(at + SimDuration::from_millis(later), cancel),
                    _ => {}
                }
            }
            sim.run_until(SimTime::from_secs(3600));

            let rm = &sim.world.rm;
            let cancelled = rm.metrics.counter("rm.requests.cancelled") as usize;
            proptest::prop_assert_eq!(sim.world.outcomes.len() + cancelled, requests.len());
            proptest::prop_assert!(rm.live_requests().is_empty());
            proptest::prop_assert!(rm.tenant_live.is_empty(), "a tenant never retired");
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
        sim.world.rm.poll = SimDuration::from_millis(100);
        // Setup (handshake + auth compute) takes ~0.85 s before data moves.
        let id = submit_request(
            &mut sim,
            client,
            vec![("co2".into(), "jan.esg".into())],
            |s, o| s.world.outcomes.push(o),
        );
        sim.run_until(SimTime::from_secs_f64(1.4));
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

    #[test]
    fn breaker_opens_and_blocks_host() {
        let (mut sim, client) = setup(Policy::BestBandwidth);
        sim.world.rm.breaker_threshold = 1;
        sim.world.rm.breaker_cooldown = SimDuration::from_secs(1000);
        // Fast site is dead before anything starts: the first attempt
        // fails to route, trips the breaker, and the file finishes from
        // the slow site.
        let fast = sim.world.rm.hosts["fast.llnl.gov"];
        sim.net.set_node_up(fast, false);
        submit_request(
            &mut sim,
            client,
            vec![("co2".into(), "jan.esg".into())],
            |s, o| s.world.outcomes.push(o),
        );
        sim.run_until(SimTime::from_secs(300));
        assert_eq!(sim.world.outcomes.len(), 1);
        let o = &sim.world.outcomes[0];
        assert!(o.files[0].done);
        assert_eq!(o.files[0].replica_host.as_deref(), Some("slow.isi.edu"));
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
        sim.world.rm.breaker_threshold = 1;
        sim.world.rm.breaker_cooldown = SimDuration::from_secs(30);
        let fast = sim.world.rm.hosts["fast.llnl.gov"];
        sim.net.set_node_up(fast, false);
        // First request trips the breaker and completes from slow.
        submit_request(
            &mut sim,
            client,
            vec![("co2".into(), "jan.esg".into())],
            |s, o| s.world.outcomes.push(o),
        );
        sim.run_until(SimTime::from_secs(120));
        assert_eq!(sim.world.outcomes.len(), 1);
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
        assert_eq!(sim.world.outcomes.len(), 2);
        let o = &sim.world.outcomes[1];
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
        sim.world.rm.breaker_threshold = 1;
        sim.world.rm.breaker_cooldown = SimDuration::from_secs(20);
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
        sim.world.rm.integrity.reverify_after = SimDuration::from_secs(200);
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
        sim.world.rm.integrity.wire_rate_denom = 4;
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
            "1/4 sampling over 48 blocks should corrupt some, not all: {}",
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
        sim.world.rm.retry.max_backoff = SimDuration::from_secs(4);
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
        // Soak-style invariant: with a per-host in-flight cap of 2 and
        // three 4-file requests hammering two hosts, the attempt-count
        // high-water mark must never pass the cap — overflow demand is
        // deferred (capacity wait), not failed.
        let (mut sim, client, names) = setup_equal_pair(4);
        sim.world.rm.scheduler.max_inflight_per_host = 2;
        let files: Vec<(String, String)> = names
            .iter()
            .map(|n| ("co2".to_string(), n.clone()))
            .collect();
        for _ in 0..3 {
            let fs = files.clone();
            submit_request(&mut sim, client, fs, |s, o| s.world.outcomes.push(o));
        }
        sim.run();
        assert_eq!(sim.world.outcomes.len(), 3);
        for o in &sim.world.outcomes {
            assert!(o.files.iter().all(|f| f.done && !f.failed));
        }
        let rm = &sim.world.rm;
        assert!(
            rm.inflight().peak_attempts() <= 2,
            "per-host cap violated: peak {}",
            rm.inflight().peak_attempts()
        );
        assert!(
            rm.sched_stats().deferred > 0,
            "12 files over 2 hosts at cap 2 must defer some selections"
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
        let poll = sim.world.rm.poll.as_secs_f64();
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
        // Two big warm files ahead of two cold tape-only files, admission
        // cap 2, FIFO order: the cold stages are kicked off at submit, so
        // mount/seek/stream (~62 s) runs while the warm transfers (~40 s)
        // move. Pipelined completion ≈ max(stage, warm) + cold transfer;
        // serializing the stage behind the warm files would pass 100 s.
        let (mut sim, client) = setup(Policy::BestBandwidth);
        {
            let rm = &mut sim.world.rm;
            rm.scheduler.policy = AdmissionPolicy::Fifo;
            rm.scheduler.max_active_per_request = 2;
            for f in ["warm1.esg", "warm2.esg"] {
                rm.catalog
                    .add_logical_file("co2", f, 1_000_000_000)
                    .unwrap();
                rm.catalog.add_file_to_location("co2", "llnl", f).unwrap();
            }
            for f in ["cold1.esg", "cold2.esg"] {
                rm.catalog.add_logical_file("co2", f, 20_000_000).unwrap();
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
                        rate: 10e6,
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
        // Stage floor: the tape path alone takes 40+20+2 = 62 s.
        assert!(dt > 60.0, "tape stage must bound completion: {dt}");
        assert!(
            dt < 85.0,
            "stage must overlap warm transfers (serial sum > 100 s): {dt}"
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
