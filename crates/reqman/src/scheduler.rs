//! The pipelined transfer scheduler.
//!
//! The paper's Request Manager "plan\[s\] concurrent file transfers to
//! maximize the number of different sites from which files are obtained"
//! (§4), negotiates TCP buffers per path, and leans on HRM to stage tape
//! files ahead of the WAN transfer. The seed RM fired every file worker
//! simultaneously with fixed tuning: a 40-file request opened 40 transfers
//! into one client NIC, each crawling through slow start at 1/40th of the
//! access rate, tripping the reliability plugin's minimum-rate check and
//! thrashing through failovers. This module is the scheduling layer that
//! replaces that loop:
//!
//! * **Admission control** — a per-request ready queue ordered by an
//!   [`AdmissionPolicy`], released under a per-request in-flight
//!   cap, plus a per-source-host cap backed by the manager-wide
//!   [`HostLedger`], so small files are not starved behind multi-GB
//!   transfers and no host (or the client NIC) is oversubscribed.
//! * **BDP tuning** — per-path `TransferTuning` derived from the NWS
//!   bandwidth×RTT product (the paper's "Buffer size = Bandwidth ×
//!   Latency" rule) instead of fixed defaults; see [`bdp_tuning`].
//! * **Stage/transfer pipelining** — cold tape-only files are prestaged at
//!   submit time so HRM mount/seek/stream latency overlaps the WAN
//!   transfers of warm files instead of serializing behind admission.
//! * **Cross-request load** — the [`HostLedger`] counts in-flight pulls
//!   across *all* requests, so `plan_spread`'s load discount sees what
//!   concurrent users are doing and spreads them over replicas.

use esg_gridftp::simxfer::TransferSpec;
use esg_simnet::{NodeId, SimDuration, SimTime};
use std::collections::HashMap;

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

/// Order in which a request's ready queue is released by admission. One
/// order is in use; [`order_queue`] takes it by name.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdmissionPolicy {
    /// Smallest file first: minimizes mean file sojourn, and small files
    /// are exactly the ones a multi-GB neighbour would starve.
    ShortestFirst,
}

/// Scheduler configuration living inside the request manager. Everything
/// else has one value in use: the constants below, and shortest-first
/// admission, BDP tuning, cached data channels and tape prestaging are
/// simply what the scheduler does.
#[derive(Debug, Clone, Copy)]
pub struct SchedulerConfig {
    /// Master switch: `false` restores the seed "start all N workers at
    /// once" behaviour with fixed tuning (the A12 ablation baseline).
    pub enabled: bool,
    /// In-flight file cap per request (admission slots).
    pub max_active_per_request: usize,
}

impl Default for SchedulerConfig {
    fn default() -> Self {
        SchedulerConfig {
            enabled: true,
            max_active_per_request: 4,
        }
    }
}

/// In-flight transfer cap per source host across all requests, checked
/// against the manager-wide [`HostLedger`]; block-repair fetches bypass the
/// cap but still count in the ledger.
pub(crate) const MAX_INFLIGHT_PER_HOST: usize = 8;

/// Wait before re-running a selection round that found its tenant at its
/// share or every candidate replica at its host cap. A capacity wait, not
/// a failure: it consumes no attempt.
pub const DEFER_RETRY: SimDuration = SimDuration::from_secs(1);
/// Clamp floor for the auto-tuned per-stream window (256 KiB).
pub const WINDOW_MIN: f64 = (256u64 << 10) as f64;
/// Clamp ceiling for the auto-tuned per-stream window (4 MiB).
pub const WINDOW_MAX: f64 = (4u64 << 20) as f64;
/// Ceiling on auto-tuned parallel streams.
pub const MAX_STREAMS: u32 = 8;
/// BDP multiplier. NWS forecasts *achieved* throughput, not capacity;
/// sizing the window at exactly forecast×RTT would cap the new transfer at
/// the previously observed rate (a self-fulfilling underestimate), so the
/// window gets headroom to discover more.
pub const BDP_HEADROOM: f64 = 2.0;

/// Manager-wide in-flight transfer counts per source host.
///
/// An entry covers the span from replica-selection commit to the end of
/// the attempt (completion, cancellation, or failure), which is exactly
/// the window in which the pull occupies the host. Both normal attempts
/// and ERET block repairs are counted — the spread planner should see
/// every live pull — but only attempts update the admission peak gauge,
/// because only attempts are subject to the cap.
#[derive(Debug, Default)]
pub struct HostLedger {
    /// Interning table: host name → dense id. Hosts are never un-interned
    /// (the testbed has a handful), so every count lives in a flat vector
    /// and acquire/release after first sight allocate nothing.
    host_ids: HashMap<String, usize>,
    hosts: Vec<String>,
    counts: Vec<usize>,
    attempts: Vec<usize>,
    total: usize,
    /// Highest simultaneous *attempt* count observed on any single host
    /// (soak tests assert this never exceeds the per-host cap).
    peak_attempts: usize,
    /// In-flight pulls per tenant, across all hosts — the quantity the
    /// weighted fair-share admission check compares against a tenant's
    /// share of the global budget. Interned like hosts.
    tenant_ids: HashMap<String, usize>,
    tenants: Vec<String>,
    tenant_counts: Vec<usize>,
}

impl HostLedger {
    fn host_id(&mut self, host: &str) -> usize {
        match self.host_ids.get(host) {
            Some(&id) => id,
            None => {
                let id = self.hosts.len();
                self.hosts.push(host.to_string());
                self.host_ids.insert(host.to_string(), id);
                self.counts.push(0);
                self.attempts.push(0);
                id
            }
        }
    }

    fn tenant_id(&mut self, tenant: &str) -> usize {
        match self.tenant_ids.get(tenant) {
            Some(&id) => id,
            None => {
                let id = self.tenants.len();
                self.tenants.push(tenant.to_string());
                self.tenant_ids.insert(tenant.to_string(), id);
                self.tenant_counts.push(0);
                id
            }
        }
    }

    /// In-flight pulls from `host` right now.
    pub fn load(&self, host: &str) -> usize {
        self.host_ids.get(host).map_or(0, |&id| self.counts[id])
    }

    /// Total in-flight pulls across all hosts.
    pub fn total(&self) -> usize {
        self.total
    }

    /// In-flight pulls owned by `tenant` right now.
    pub fn tenant_load(&self, tenant: &str) -> usize {
        self.tenant_ids
            .get(tenant)
            .map_or(0, |&id| self.tenant_counts[id])
    }

    /// Highest simultaneous attempt count seen on any host.
    pub fn peak_attempts(&self) -> usize {
        self.peak_attempts
    }

    /// Record a pull starting from `host` on behalf of `tenant`.
    /// `is_attempt` distinguishes cap-governed attempts from cap-exempt
    /// repairs.
    pub fn acquire(&mut self, host: &str, tenant: &str, is_attempt: bool) {
        let hid = self.host_id(host);
        let tid = self.tenant_id(tenant);
        self.counts[hid] += 1;
        self.tenant_counts[tid] += 1;
        self.total += 1;
        if is_attempt {
            self.attempts[hid] += 1;
            self.peak_attempts = self.peak_attempts.max(self.attempts[hid]);
        }
    }

    /// Record a pull from `host` on behalf of `tenant` ending.
    pub fn release(&mut self, host: &str, tenant: &str, is_attempt: bool) {
        let hid = self.host_ids.get(host).copied();
        if let Some(hid) = hid {
            if self.counts[hid] > 0 {
                self.counts[hid] -= 1;
                self.total -= 1;
                // Tenant bookkeeping only moves when the host count was
                // real: a double release (cancel racing an attempt-end
                // path) must leave both untouched, not drive the tenant
                // negative.
                if let Some(&tid) = self.tenant_ids.get(tenant) {
                    if self.tenant_counts[tid] > 0 {
                        self.tenant_counts[tid] -= 1;
                    }
                }
            }
            if is_attempt && self.attempts[hid] > 0 {
                self.attempts[hid] -= 1;
            }
        }
    }
}

/// The tenant a request belongs to when none is named: interactive
/// traffic submitted through the plain [`submit_request`] path.
///
/// [`submit_request`]: crate::manager::submit_request
pub const DEFAULT_TENANT: &str = "interactive";

/// A tenant whose queued work has made no admission progress for this long
/// is starved: the next deferral emits `rm.campaign.starved` (rate-limited
/// to once per window).
pub(crate) const STARVATION_AFTER: SimDuration = SimDuration::from_secs(120);

/// Multi-tenant weighted fair-share configuration.
///
/// Lives on the request manager (not inside the `Copy`
/// [`SchedulerConfig`]) because it owns per-tenant maps. With
/// `budget == 0` and no quotas the table is inert and the scheduler
/// behaves exactly as before this layer existed. A tenant without an
/// explicit weight weighs 1.
#[derive(Debug, Clone, Default)]
pub struct TenantTable {
    /// Global concurrent-pull budget divided among *active* tenants
    /// (those with live requests) in proportion to weight. `0` disables
    /// weighted sharing entirely.
    pub budget: usize,
    weights: HashMap<String, u32>,
    quotas: HashMap<String, usize>,
    /// Bumped on every weight/quota edit so the manager's cached
    /// active-weight sum knows when to recompute.
    epoch: u64,
}

impl TenantTable {
    pub fn set_weight(&mut self, tenant: &str, weight: u32) {
        self.weights.insert(tenant.to_string(), weight.max(1));
        self.epoch += 1;
    }

    /// Hard per-tenant in-flight ceiling, applied on top of the weighted
    /// share (`0` = none).
    pub fn set_quota(&mut self, tenant: &str, quota: usize) {
        self.quotas.insert(tenant.to_string(), quota);
        self.epoch += 1;
    }

    /// Configuration generation: changes whenever a weight or quota is
    /// edited. Cache keys derived from this table must include it.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    pub fn weight(&self, tenant: &str) -> u32 {
        self.weights.get(tenant).copied().unwrap_or(1)
    }

    pub fn quota(&self, tenant: &str) -> usize {
        self.quotas.get(tenant).copied().unwrap_or(0)
    }

    /// The in-flight ceiling for `tenant` given the total weight of the
    /// currently active tenants. Work-conserving: an active tenant always
    /// gets at least one slot, and capacity left idle by inactive tenants
    /// is redistributed (shares are computed over *active* weight only).
    pub fn limit(&self, tenant: &str, active_weight: u64) -> usize {
        let share = if self.budget == 0 {
            0
        } else {
            let w = self.weight(tenant) as u64;
            match ((self.budget as u64) * w).checked_div(active_weight) {
                None => self.budget,
                Some(s) => (s as usize).max(1),
            }
        };
        match (share, self.quota(tenant)) {
            (0, 0) => usize::MAX,
            (0, q) => q,
            (s, 0) => s,
            (s, q) => s.min(q),
        }
    }
}

/// The live side of fair sharing: which tenants have live requests (the
/// *active* set whose weights split the budget), when each last made
/// admission progress, and when each was last reported starved.
#[derive(Debug, Default)]
pub(crate) struct Tenancy {
    /// Live request count per tenant.
    pub live: HashMap<String, usize>,
    /// Last instant each tenant made admission progress (ledger acquire),
    /// the reference point for starvation detection.
    progress: HashMap<String, SimTime>,
    /// Last `rm.campaign.starved` emission per tenant (rate limiting).
    starved_at: HashMap<String, SimTime>,
    /// Bumped whenever the active set changes — one half of the
    /// active-weight cache key.
    epoch: u64,
    /// Cached active-weight sum: `((epoch, table epoch), weight)`. Valid
    /// while neither the active set nor the table changed, so the admission
    /// path skips the per-event tenant scan.
    weight_cache: Option<((u64, u64), u64)>,
}

impl Tenancy {
    /// One more live request for `tenant`. A fresh activation starts its
    /// starvation clock.
    pub fn activate(&mut self, tenant: &str, now: SimTime) {
        let live = self.live.entry(tenant.to_string()).or_insert(0);
        *live += 1;
        if *live == 1 {
            self.progress.insert(tenant.to_string(), now);
            self.epoch += 1;
        }
    }

    /// Retire one live request for `tenant`, dropping its bookkeeping
    /// when the last one goes so an idle tenant stops diluting shares.
    pub fn retire(&mut self, tenant: &str) {
        if let Some(n) = self.live.get_mut(tenant) {
            *n = n.saturating_sub(1);
            if *n == 0 {
                self.live.remove(tenant);
                self.progress.remove(tenant);
                self.starved_at.remove(tenant);
                self.epoch += 1;
            }
        }
    }

    /// `tenant` took a ledger entry at `now`.
    pub fn progressed(&mut self, tenant: &str, now: SimTime) {
        self.progress.insert(tenant.to_string(), now);
    }

    /// The active-weight sum [`TenantTable::limit`] splits the budget by,
    /// recomputed only when a tenant activates/retires or `table` changes.
    pub fn active_weight(&mut self, table: &TenantTable) -> u64 {
        let key = (self.epoch, table.epoch());
        match self.weight_cache {
            Some((k, w)) if k == key => w,
            _ => {
                let live = self.live.iter().filter(|(_, n)| **n > 0);
                let w = live.map(|(t, _)| table.weight(t) as u64).sum();
                self.weight_cache = Some((key, w));
                w
            }
        }
    }

    /// A deferred `tenant` that has made no admission progress for
    /// [`STARVATION_AFTER`] is starved: how long it waited, at most once per
    /// window.
    pub fn starved(&mut self, tenant: &str, now: SimTime) -> Option<SimDuration> {
        let waited = now.since(self.progress.get(tenant).copied().unwrap_or(now));
        let reported = self.starved_at.get(tenant);
        let window = STARVATION_AFTER;
        if waited < window || reported.is_some_and(|&at| now.since(at) < window) {
            return None;
        }
        self.starved_at.insert(tenant.to_string(), now);
        Some(waited)
    }
}

/// Scheduler observability counters.
#[derive(Debug, Default, Clone, Copy)]
pub struct SchedStats {
    /// Files released from a ready queue into a worker.
    pub admitted: u64,
    /// Selection rounds postponed because every candidate was at its
    /// host cap (capacity waits, not failures).
    pub deferred: u64,
    /// Selection rounds postponed because the owning tenant was at its
    /// weighted fair share (or hard quota) of the global budget.
    pub tenant_deferred: u64,
    /// Cold tape files prestaged at submit time.
    pub prestaged: u64,
    /// Transfers launched with BDP-derived tuning (vs. defaults).
    pub tuned: u64,
    /// Highest simultaneous admitted-file count in any single request.
    pub peak_active_per_request: usize,
}

impl SchedStats {
    /// Registry names backing each field. The request manager counts
    /// directly into its `MetricsRegistry`; this struct is a typed view.
    pub const ADMITTED: &'static str = "rm.sched.admitted";
    pub const DEFERRED: &'static str = "rm.sched.deferred";
    pub const TENANT_DEFERRED: &'static str = "rm.sched.tenant_deferred";
    pub const PRESTAGED: &'static str = "rm.sched.prestaged";
    pub const TUNED: &'static str = "rm.sched.tuned";
    pub const PEAK_ACTIVE: &'static str = "rm.sched.peak_active_per_request";

    /// Materialise the view from a metrics registry snapshot.
    pub fn from_registry(reg: &esg_netlogger::MetricsRegistry) -> Self {
        SchedStats {
            admitted: reg.counter(Self::ADMITTED),
            deferred: reg.counter(Self::DEFERRED),
            tenant_deferred: reg.counter(Self::TENANT_DEFERRED),
            prestaged: reg.counter(Self::PRESTAGED),
            tuned: reg.counter(Self::TUNED),
            peak_active_per_request: reg.gauge(Self::PEAK_ACTIVE) as usize,
        }
    }
}

/// Order a request's file indices into its ready queue.
///
/// `sizes[i]` is the catalog size of file `i`. Ties preserve submit order, which keeps the schedule a pure function of the request.
pub fn order_queue(policy: AdmissionPolicy, sizes: &[u64]) -> Vec<usize> {
    let AdmissionPolicy::ShortestFirst = policy;
    let mut idx: Vec<usize> = (0..sizes.len()).collect();
    idx.sort_by_key(|&i| (sizes[i], i));
    idx
}

/// Derive per-path transfer tuning from NWS forecasts.
///
/// The paper's operating rule was "Buffer size in KB = Bandwidth (Mb/s) ×
/// Latency (ms) × 1024/1000/8" — the bandwidth-delay product. Given a
/// bandwidth forecast (bytes/sec) and an RTT forecast (seconds) for the
/// chosen path:
///
/// * `bdp = bandwidth × rtt × BDP_HEADROOM`
/// * `streams = clamp(ceil(bdp / WINDOW_MAX), 1, MAX_STREAMS)` — only
///   paths whose BDP exceeds one clamped window get extra streams;
/// * `window = clamp(bdp / streams, WINDOW_MIN, WINDOW_MAX)`.
///
/// Data channels are cached either way. Returns `(tuning, true)` when a
/// forecast-driven decision was made, or `(defaults, false)` when either
/// forecast is missing (cold NWS path) and the fixed defaults apply.
pub fn bdp_tuning(bandwidth: Option<f64>, rtt: Option<f64>) -> (TransferTuning, bool) {
    let base = TransferTuning {
        channel_cache: true,
        ..TransferTuning::default()
    };
    let (Some(bw), Some(rtt)) = (bandwidth, rtt) else {
        return (base, false);
    };
    // Degenerate forecasts (zero, negative, NaN) fall back to defaults.
    let healthy = bw > 0.0 && rtt > 0.0;
    if !healthy {
        return (base, false);
    }
    let bdp = bw * rtt * BDP_HEADROOM;
    let streams = ((bdp / WINDOW_MAX).ceil() as u32).clamp(1, MAX_STREAMS);
    let window = (bdp / streams as f64).clamp(WINDOW_MIN, WINDOW_MAX);
    (
        TransferTuning {
            streams,
            window,
            ..base
        },
        true,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn equal_sizes_keep_submit_order() {
        let order = order_queue(AdmissionPolicy::ShortestFirst, &[10, 10, 10]);
        assert_eq!(order, [0, 1, 2]);
    }

    #[test]
    fn shortest_first_sorts_by_size_stable() {
        assert_eq!(
            order_queue(AdmissionPolicy::ShortestFirst, &[30, 10, 20, 10]),
            [1, 3, 2, 0]
        );
    }

    #[test]
    fn empty_queue_is_empty() {
        assert!(order_queue(AdmissionPolicy::ShortestFirst, &[]).is_empty());
    }

    #[test]
    fn ledger_tracks_loads_and_peak() {
        let mut l = HostLedger::default();
        l.acquire("a", "t1", true);
        l.acquire("a", "t1", true);
        l.acquire("b", "t2", false); // repair: counted, not peak-tracked
        assert_eq!(l.load("a"), 2);
        assert_eq!(l.load("b"), 1);
        assert_eq!(l.total(), 3);
        assert_eq!(l.tenant_load("t1"), 2);
        assert_eq!(l.tenant_load("t2"), 1);
        assert_eq!(l.peak_attempts(), 2);
        l.release("a", "t1", true);
        l.release("a", "t1", true);
        l.release("b", "t2", false);
        assert_eq!(l.total(), 0);
        assert_eq!(l.load("a"), 0);
        assert_eq!(l.tenant_load("t1"), 0);
        assert_eq!(l.peak_attempts(), 2, "peak is a high-water mark");
    }

    #[test]
    fn ledger_release_of_unknown_host_is_noop() {
        let mut l = HostLedger::default();
        l.release("ghost", "t1", true);
        assert_eq!(l.total(), 0);
        assert_eq!(l.tenant_load("t1"), 0);
    }

    #[test]
    fn ledger_double_release_leaves_tenant_counts_consistent() {
        let mut l = HostLedger::default();
        l.acquire("a", "t1", true);
        l.release("a", "t1", true);
        // A second release of the same pull (the cancel-vs-attempt-end
        // race the manager's idempotent ledger_host guard prevents) must
        // be a no-op at this layer too.
        l.release("a", "t1", true);
        assert_eq!(l.total(), 0);
        assert_eq!(l.load("a"), 0);
        assert_eq!(l.tenant_load("t1"), 0);
    }

    #[test]
    fn tenant_limits_follow_weights_and_quotas() {
        let mut t = TenantTable::default();
        // Inert by default: no budget, no quota.
        assert_eq!(t.limit("any", 0), usize::MAX);
        t.budget = 12;
        t.set_weight("bulk", 1);
        t.set_weight("fg", 4);
        // Active weight 5 (interactive absent): bulk 12*1/5=2, fg 12*4/5=9.
        assert_eq!(t.limit("bulk", 5), 2);
        assert_eq!(t.limit("fg", 5), 9);
        // Alone, an active tenant gets the full budget (work conserving).
        assert_eq!(t.limit("bulk", 1), 12);
        // A hard quota clips the share; a share clips a generous quota.
        t.set_quota("bulk", 1);
        assert_eq!(t.limit("bulk", 5), 1);
        t.set_quota("fg", 100);
        assert_eq!(t.limit("fg", 5), 9);
        // Even a tiny weight yields at least one slot.
        t.set_weight("spec", 1);
        assert_eq!(t.limit("spec", 1000), 1);
        // Quota alone (no budget) is a plain ceiling.
        t.budget = 0;
        assert_eq!(t.limit("bulk", 5), 1);
    }

    #[test]
    fn bdp_tuning_falls_back_without_forecasts() {
        let (t, tuned) = bdp_tuning(None, Some(0.01));
        assert!(!tuned);
        assert_eq!(t.streams, TransferTuning::default().streams);
        let (_, tuned) = bdp_tuning(Some(1e7), None);
        assert!(!tuned);
        let (_, tuned) = bdp_tuning(Some(0.0), Some(0.01));
        assert!(!tuned, "degenerate forecasts fall back");
    }

    #[test]
    fn bdp_tuning_small_path_gets_one_stream() {
        // 10 MB/s × 10 ms × 2 headroom = 200 KB BDP: one stream, floor
        // window.
        let (t, tuned) = bdp_tuning(Some(10e6), Some(0.010));
        assert!(tuned);
        assert_eq!(t.streams, 1);
        assert_eq!(t.window, WINDOW_MIN);
    }

    #[test]
    fn bdp_tuning_long_fat_path_gets_streams_and_capped_window() {
        // 150 MB/s × 80 ms × 2 = 24 MB BDP: ceil(24e6/4MiB) = 6 streams,
        // each window bdp/6 = 4.0 MB (just inside the 4 MiB ceiling).
        let (t, tuned) = bdp_tuning(Some(150e6), Some(0.080));
        assert!(tuned);
        assert_eq!(t.streams, 6);
        assert_eq!(t.window, 24e6 / 6.0);
        assert!(t.window <= WINDOW_MAX);
    }

    #[test]
    fn bdp_tuning_respects_stream_ceiling() {
        // 1 GB/s × 200 ms × 2 = 400 MB BDP: 96 full windows' worth.
        let (t, _) = bdp_tuning(Some(1e9), Some(0.2));
        assert_eq!(t.streams, MAX_STREAMS);
        assert_eq!(t.window, WINDOW_MAX);
    }

    #[test]
    fn bdp_tuning_window_times_streams_covers_bdp_when_unclamped() {
        let bw = 60e6;
        let rtt = 0.05;
        let (t, _) = bdp_tuning(Some(bw), Some(rtt));
        let bdp = bw * rtt * BDP_HEADROOM;
        assert!(
            t.streams as f64 * t.window >= bdp - 1.0,
            "aggregate window {} must cover the headroomed BDP {bdp}",
            t.streams as f64 * t.window
        );
    }

    #[test]
    fn bdp_tuning_caches_data_channels() {
        let (tuned, _) = bdp_tuning(Some(50e6), Some(0.02));
        let (cold, _) = bdp_tuning(None, None);
        assert!(tuned.channel_cache && cold.channel_cache);
    }
}
