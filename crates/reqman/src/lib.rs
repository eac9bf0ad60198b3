//! # esg-reqman — the Request Manager
//!
//! The collective-layer broker of the ESG prototype (LBNL): accepts
//! multi-file requests from the CDAT client over a (simulated) CORBA hop,
//! runs one worker per file — replica lookup, NWS consultation, replica
//! selection, HRM tape staging, GridFTP initiation — monitors each transfer
//! by polling delivered bytes "every few seconds", and applies the §7
//! reliability plugin (failover to an alternate replica, resuming from the
//! bytes already delivered).
//!
//! * [`manager`] — the RM itself, sole owner of every live request and
//!   campaign (scheduled work carries ids; a wake that finds its request
//!   gone returns), and the driver of the per-file lifecycle, whose
//!   transitions are one pure step function (`lifecycle.rs`).
//! * [`scheduler`] — pipelined transfer scheduling: admission control,
//!   BDP tuning, the cross-request ledger, the live tenant set, and the
//!   four settings it has.
//! * [`monitor`] — the Figure 4 dynamic transfer monitor rendering.
//! * [`reliability`] — retry/backoff policy and per-host circuit breakers.
//! * [`integrity`] — post-delivery block digest verification, ERET block
//!   repair planning and replica quarantine.
//! * [`campaign`] — fault-tolerant replication campaigns, the one way to
//!   copy a collection: batched rounds driven through the scheduler,
//!   durable checkpoint/resume, and multi-tenant fair sharing with the
//!   interactive workload. Its driver; the checkpoint codec and the
//!   campaign's arithmetic are plain data in `checkpoint.rs`.

pub mod campaign;
mod checkpoint;
pub mod integrity;
mod lifecycle;
pub mod manager;
pub mod monitor;
pub mod planner;
pub mod reliability;
pub mod scheduler;

pub use campaign::{cancel_campaign, start_campaign, CampaignOutcome, CampaignSpec};
pub use integrity::{verify_blocks, IntegrityManager, SegRecord, SegmentView, VerifyReport};
pub use manager::{
    cancel_request, submit_request, submit_request_for_tenant, FileStatus, HasReqMan,
    RequestManager, RequestOutcome, RmWorld, TransferTuning,
};
pub use monitor::render_monitor;
pub use planner::plan_spread;
pub use reliability::{BreakerState, BreakerTransition, CircuitBreaker, RetryPolicy};
pub use scheduler::{
    bdp_tuning, order_queue, AdmissionPolicy, HostLedger, SchedStats, SchedulerConfig, TenantTable,
    DEFAULT_TENANT,
};
