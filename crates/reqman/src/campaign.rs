//! Replication campaigns: fault-tolerant bulk dataset→site copies.
//!
//! A [`CampaignSpec`] names a collection and a target host; the
//! orchestrator decomposes the copy into batched rounds, drives each round
//! through the ordinary request pipeline ([`submit_request_for_tenant`])
//! so campaign pulls share the scheduler's admission caps, the host
//! ledger, the circuit breakers and the integrity layer with interactive
//! traffic, and journals per-file progress to a durable checkpoint so an
//! interrupted campaign resumes without re-transferring any verified
//! bytes.
//!
//! This module is the driver: it makes the simulator, catalog, trace,
//! metrics and journal calls. What they compute from — the checkpoint
//! codec, the resume plan, a round's settle, the marker lines and the
//! outcome — is plain data in `checkpoint.rs`, which also documents the
//! journal format.
//!
//! A live campaign is owned by the manager's `campaigns` map and addressed
//! by its id: the round callback and the marker / recorder ticks capture
//! the id, and one that finds its campaign completed returns.

use crate::checkpoint::{self, complete_line, header_line, resume_line, spec_sha, Progress};
use crate::manager::{submit_request_for_tenant, RequestOutcome, RmWorld};
use esg_gridftp::GridUrl;
use esg_netlogger::{FlightRecorder, Journal, LogEvent, MetricsRegistry, Phase, SpanId, TraceCtx};
use esg_simnet::{profile, Completion, NodeId, Sim, SimDuration, SimTime};

use std::ops::ControlFlow;
use std::path::PathBuf;

/// What to replicate, where to, and how.
#[derive(Debug, Clone)]
pub struct CampaignSpec {
    /// Campaign name — also the fair-share tenant its rounds bill to.
    pub name: String,
    /// Logical collection to replicate (every file of it).
    pub collection: String,
    /// Destination host (must be registered with the RM).
    pub target_host: String,
    /// Replica-catalog location name registered at the target.
    pub location_name: String,
    /// Files per round. Each round is one multi-file request, so the
    /// scheduler's per-request admission cap pipelines within a round and
    /// the checkpoint settles at round grain.
    pub batch_files: usize,
    /// Checkpoint journal path; `None` disables durability.
    pub checkpoint: Option<PathBuf>,
    /// How often the marker tick snapshots mid-transfer progress into the
    /// journal. Zero disables markers (settled lines still written).
    pub checkpoint_every: SimDuration,
    /// Metrics flight-recorder tape path; `None` disables recording. When
    /// set, the campaign appends one delta-encoded [`FlightRecorder`]
    /// JSONL snapshot of the RM's registry at start, every
    /// [`recorder_every`](CampaignSpec::recorder_every), and at completion
    /// — a byte-stable record of how the run's metrics evolved.
    pub recorder: Option<PathBuf>,
    /// Sim-time cadence of flight-recorder snapshots. Zero disables the
    /// periodic tick (the start/complete snapshots still land).
    pub recorder_every: SimDuration,
}

impl CampaignSpec {
    pub fn new(
        name: impl Into<String>,
        collection: impl Into<String>,
        target_host: impl Into<String>,
    ) -> CampaignSpec {
        let name = name.into();
        CampaignSpec {
            location_name: format!("{name}-replica"),
            name,
            collection: collection.into(),
            target_host: target_host.into(),
            batch_files: 4,
            checkpoint: None,
            checkpoint_every: SimDuration::from_secs(30),
            recorder: None,
            recorder_every: SimDuration::from_secs(10),
        }
    }
}

/// Final accounting delivered to the campaign's completion callback.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignOutcome {
    pub id: u64,
    pub name: String,
    pub collection: String,
    pub target_host: String,
    /// Files in the collection when the campaign started.
    pub files_total: usize,
    /// Files transferred (and verified) by *this* run.
    pub files_delivered: usize,
    /// Files that exhausted their retries this run.
    pub files_failed: usize,
    /// Files skipped because the checkpoint proved them already delivered.
    pub files_skipped: usize,
    /// Bytes moved by this run.
    pub bytes_transferred: u64,
    /// Bytes *not* moved because the checkpoint vouched for them.
    pub bytes_skipped: u64,
    /// Rounds driven this run.
    pub rounds: usize,
    /// A valid checkpoint was loaded at start.
    pub resumed: bool,
    /// sha256 over the sorted delivered-file manifest — the
    /// resume-equivalence witness.
    pub manifest_sha256: String,
    pub started: SimTime,
    pub finished: SimTime,
}

/// A live campaign. The manager's `campaigns` map is its only owner: a
/// campaign that completed is gone, and whatever is still scheduled for it
/// finds nothing and returns.
pub(crate) struct CampaignState {
    spec: CampaignSpec,
    target_node: NodeId,
    progress: Progress,
    current_request: Option<u64>,
    started: SimTime,
    span: SpanId,
    /// The checkpoint journal, opened once at campaign start. `None` when
    /// no checkpoint is configured or it could not be opened — decided
    /// once, so a path that turns writable mid-run never starts a
    /// header-less journal.
    checkpoint: Option<Journal>,
    /// The flight-recorder tape, emptied at campaign start; `None` when
    /// none is configured or it could not be opened.
    tape: Option<Journal>,
    /// Delta state of the metrics flight recorder when a tape is
    /// configured, whether or not its writes land.
    recorder: Option<FlightRecorder>,
    /// The submitter's callback, fired by `complete_campaign`.
    on_complete: Completion,
}

/// Append checkpoint lines. Returns durability: `false` with no open
/// journal or a failed write.
fn journal(checkpoint: &mut Option<Journal>, lines: &[String]) -> bool {
    let Some(j) = checkpoint else {
        return false;
    };
    let _j = profile::scope(profile::JOURNAL);
    profile::count("journal.lines", lines.len() as u64);
    j.append(lines).is_ok()
}

// ---------------------------------------------------------------------------
// Orchestration

/// Start a replication campaign. Returns the campaign id; `on_complete`
/// fires once, when the final round settles.
pub fn start_campaign<W: RmWorld>(
    sim: &mut Sim<W>,
    spec: CampaignSpec,
    on_complete: impl FnOnce(&mut Sim<W>, CampaignOutcome) + 'static,
) -> u64 {
    let now = sim.now();
    let rm = sim.world.reqman();
    rm.campaign_seq += 1;
    let id = rm.campaign_seq;
    let ctx = TraceCtx::system();

    let target_node = rm.hosts.get(&spec.target_host).copied();
    let mut files: Vec<(String, u64)> = rm
        .catalog
        .logical_files(&spec.collection)
        .unwrap_or_default()
        .into_iter()
        .map(|f| {
            let size = rm.catalog.file_size(&spec.collection, &f).unwrap_or(0);
            (f, size)
        })
        .collect();
    files.sort();

    rm.metrics.counter_add("rm.campaign.started", 1);
    rm.log.emit(
        &ctx,
        LogEvent::new(now, "rm.campaign.start")
            .field("campaign", id)
            .field("name", spec.name.clone())
            .field("collection", spec.collection.clone())
            .field("target", spec.target_host.clone())
            .field("files", files.len() as u64),
    );

    // An unknown target is a configuration error, not a retryable fault:
    // fail the whole campaign immediately.
    let Some(target_node) = target_node else {
        rm.metrics.counter_add("rm.campaign.failed", 1);
        rm.log.emit(
            &ctx,
            LogEvent::new(now, "rm.campaign.complete")
                .field("campaign", id)
                .field("status", "failed")
                .field("reason", "unknown_target"),
        );
        let outcome = Progress::plan(&files, None, 1).outcome(id, &spec, now, now);
        sim.schedule(SimDuration::from_secs(0), move |s| on_complete(s, outcome));
        return id;
    };

    // One open per journal. A checkpoint whose lines vouch for the spec is
    // resumed from; any other is reset to a fresh header.
    let sha = spec_sha(&spec, &files);
    let mut loaded = None;
    let mut checkpoint = spec.checkpoint.as_ref().and_then(|path| {
        let existed = path.exists();
        let (mut j, lines) = Journal::open(path).ok()?;
        loaded = checkpoint::load(&lines, &sha);
        if loaded.is_none() {
            if existed {
                rm.metrics.counter_add("rm.campaign.fresh_start", 1);
            }
            let _ = j.reset(&[header_line(&sha, &spec, files.len())]);
        }
        Some(j)
    });
    // A configured tape starts empty each run: the recorder's first
    // snapshot is the full flattened state, so nothing is lost.
    let tape = spec.recorder.as_ref().and_then(|path| {
        let (mut j, _) = Journal::open(path).ok()?;
        j.reset(&[] as &[String]).ok()?;
        Some(j)
    });
    let recorder = spec.recorder.is_some().then(FlightRecorder::new);
    let progress = Progress::plan(&files, loaded, spec.batch_files.max(1));

    // The target location exists from the first round; settled files are
    // re-registered so a resumed catalog converges with an uninterrupted
    // one.
    let base = GridUrl::new(
        spec.target_host.clone(),
        format!("/replicas/{}", spec.collection),
    );
    let _ = rm
        .catalog
        .register_location(&spec.collection, &spec.location_name, &base, &[]);
    for name in progress.settled.keys() {
        let _ = rm
            .catalog
            .add_file_to_location(&spec.collection, &spec.location_name, name);
    }

    if progress.resumed {
        let (skipped, bytes) = (progress.files_skipped, progress.bytes_skipped);
        rm.metrics.counter_add("rm.campaign.resumed", 1);
        rm.metrics.counter_add("rm.campaign.bytes_skipped", bytes);
        rm.log.emit(
            &ctx,
            LogEvent::new(now, "rm.campaign.resume")
                .field("campaign", id)
                .field("skipped", skipped as u64)
                .field("bytes_skipped", bytes),
        );
        journal(&mut checkpoint, &[resume_line(skipped, bytes)]);
    }

    let span = rm.log.span_start(&ctx, now, Phase::Campaign, None);
    let mut camp = CampaignState {
        spec,
        target_node,
        progress,
        current_request: None,
        started: now,
        span,
        checkpoint,
        tape,
        recorder,
        on_complete: Completion::new(on_complete),
    };
    if camp.progress.rounds.is_empty() {
        rm.campaigns.insert(id, camp);
        complete_campaign(sim, id);
    } else {
        record_snapshot(&mut camp, &mut rm.metrics, now);
        rm.campaigns.insert(id, camp);
        launch_round(sim, id);
        arm_ticks(sim, id);
    }
    id
}
fn launch_round<W: RmWorld>(sim: &mut Sim<W>, id: u64) {
    let now = sim.now();
    let rm = sim.world.reqman();
    let Some(c) = rm.campaigns.get(&id) else {
        return;
    };
    let req_files: Vec<(String, String)> = c.progress.rounds[c.progress.round_idx]
        .iter()
        .map(|f| (c.spec.collection.clone(), f.clone()))
        .collect();
    let (tenant, target_node) = (c.spec.name.clone(), c.target_node);
    rm.metrics.counter_add("rm.campaign.rounds", 1);
    rm.log.emit(
        &TraceCtx::system(),
        LogEvent::new(now, "rm.campaign.round")
            .field("campaign", id)
            .field("round", c.progress.round_idx as u64)
            .field("files", req_files.len() as u64),
    );
    let req = submit_request_for_tenant(sim, target_node, req_files, &tenant, move |s, o| {
        round_done(s, id, o)
    });
    if let Some(c) = sim.world.reqman().campaigns.get_mut(&id) {
        c.current_request = Some(req);
    }
}

fn round_done<W: RmWorld>(sim: &mut Sim<W>, id: u64, outcome: RequestOutcome) {
    let now = sim.now();
    let rm = sim.world.reqman();
    let Some(c) = rm.campaigns.get_mut(&id) else {
        return;
    };
    for fs in outcome.files.iter().filter(|fs| fs.done) {
        let _ =
            rm.catalog
                .add_file_to_location(&c.spec.collection, &c.spec.location_name, &fs.name);
    }
    let settle = c.progress.settle(outcome.files, |name| {
        rm.catalog
            .file_digest(&c.spec.collection, name)
            .map(str::to_owned)
    });
    rm.metrics
        .counter_add("rm.campaign.files_delivered", settle.delivered);
    rm.metrics
        .counter_add("rm.campaign.files_failed", settle.failed);
    rm.metrics
        .counter_add("rm.campaign.bytes_transferred", settle.bytes);
    let checkpointed = journal(&mut c.checkpoint, &settle.lines);
    rm.metrics.counter_add("rm.campaign.checkpoints", 1);
    rm.log.emit(
        &TraceCtx::system(),
        LogEvent::new(now, "rm.campaign.checkpoint")
            .field("campaign", id)
            .field("round", settle.round)
            .field("settled", c.progress.settled.len() as u64)
            .field("durable", u64::from(checkpointed)),
    );
    c.current_request = None;
    if c.progress.round_idx < c.progress.rounds.len() {
        launch_round(sim, id);
    } else {
        complete_campaign(sim, id);
    }
}

/// The final round settled (or there was nothing to move): the campaign
/// leaves the manager and its submitter hears.
fn complete_campaign<W: RmWorld>(sim: &mut Sim<W>, id: u64) {
    let now = sim.now();
    let rm = sim.world.reqman();
    let Some(mut c) = rm.campaigns.remove(&id) else {
        return;
    };
    let outcome = c.progress.outcome(id, &c.spec, c.started, now);
    journal(
        &mut c.checkpoint,
        &[complete_line(&outcome.manifest_sha256)],
    );
    let ctx = TraceCtx::system();
    rm.metrics.counter_add("rm.campaign.completed", 1);
    rm.log.span_end(
        &ctx,
        now,
        c.span,
        Phase::Campaign,
        [
            ("campaign", id.into()),
            ("status", "complete".into()),
            ("bytes", outcome.bytes_transferred.into()),
        ],
    );
    rm.log.emit(
        &ctx,
        LogEvent::new(now, "rm.campaign.complete")
            .field("campaign", id)
            .field("delivered", outcome.files_delivered as u64)
            .field("failed", outcome.files_failed as u64)
            .field("skipped", outcome.files_skipped as u64)
            .field("rounds", outcome.rounds as u64)
            .field("manifest", outcome.manifest_sha256.clone()),
    );
    // The tape's last line holds the completion counters.
    record_snapshot(&mut c, &mut rm.metrics, now);
    c.on_complete.call(sim, outcome);
}

// ---------------------------------------------------------------------------
// Flight recorder

/// Capture one flight-recorder snapshot of the RM registry and append it
/// to the campaign's tape. No-op without a configured recorder.
fn record_snapshot(c: &mut CampaignState, metrics: &mut MetricsRegistry, now: SimTime) {
    let Some(rec) = &mut c.recorder else {
        return;
    };
    let line = rec.snapshot(now, metrics).to_string();
    {
        let _j = profile::scope(profile::JOURNAL);
        profile::count("journal.recorder_lines", 1);
        if let Some(tape) = &mut c.tape {
            let _ = tape.append(&[line]);
        }
    }
    metrics.counter_add("rm.campaign.recorder_snapshots", 1);
}

// ---------------------------------------------------------------------------
// Marker and flight-recorder ticks

/// [`Sim::every`] labels of a campaign's marker and flight-recorder ticks.
const MARKER_TICK: &str = "rm.campaign.markers";
const RECORDER_TICK: &str = "rm.campaign.recorder";

/// Arm the campaign's configured ticks, if it is still live (its first
/// round can settle, and the campaign complete, inside `launch_round`).
/// Each tick stops at its first run after the campaign leaves the manager.
fn arm_ticks<W: RmWorld>(sim: &mut Sim<W>, id: u64) {
    let Some(c) = sim.world.reqman().campaigns.get(&id) else {
        return;
    };
    let period = |on: bool, every: SimDuration| (on && !every.is_zero()).then_some(every);
    let markers = period(c.spec.checkpoint.is_some(), c.spec.checkpoint_every);
    let recorder = period(c.recorder.is_some(), c.spec.recorder_every);
    if let Some(every) = markers {
        sim.every(every, MARKER_TICK, move |s| marker_tick(s, id));
    }
    if let Some(every) = recorder {
        sim.every(every, RECORDER_TICK, move |s| {
            let now = s.now();
            let rm = s.world.reqman();
            let Some(c) = rm.campaigns.get_mut(&id) else {
                return ControlFlow::Break(());
            };
            record_snapshot(c, &mut rm.metrics, now);
            ControlFlow::Continue(())
        });
    }
}

/// Periodic durability snapshot: journal a `marker` line for every
/// in-flight file whose delivered byte count grew since the last tick.
/// Markers are forensic — resume is file-grained — but they bound how much
/// progress a post-crash observer can be blind to.
fn marker_tick<W: RmWorld>(sim: &mut Sim<W>, id: u64) -> ControlFlow<()> {
    let now = sim.now();
    let rm = sim.world.reqman();
    let Some(c) = rm.campaigns.get(&id) else {
        return ControlFlow::Break(());
    };
    // Only the files with banked unfinished bytes, from the request's
    // incremental progress set.
    let banked = c.current_request.and_then(|req| rm.marker_progress(req));
    let Some(c) = rm.campaigns.get_mut(&id) else {
        return ControlFlow::Break(());
    };
    let lines = c.progress.markers(banked.unwrap_or_default());
    if !lines.is_empty() {
        journal(&mut c.checkpoint, &lines);
        let n = lines.len() as u64;
        rm.metrics.counter_add("rm.campaign.markers", n);
        rm.log.emit(
            &TraceCtx::system(),
            LogEvent::new(now, "rm.campaign.checkpoint")
                .field("campaign", id)
                .field("markers", n),
        );
    }
    ControlFlow::Continue(())
}

// ---------------------------------------------------------------------------

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checkpoint::{dec, enc, settled_fact, settled_line, Settled};
    use crate::manager::{submit_request, HasReqMan, RequestManager};
    use crate::reliability::BreakerState;
    use esg_gridftp::simxfer::{GridFtpSim, HasGridFtp};
    use esg_nws::{HasNws, NwsRegistry};
    use esg_replica::Policy;
    use esg_simnet::{Node, Topology};
    use std::collections::BTreeMap;
    use std::path::Path;

    struct World {
        rm: RequestManager,
        gridftp: GridFtpSim,
        nws: NwsRegistry,
        outcomes: Vec<CampaignOutcome>,
        requests: Vec<RequestOutcome>,
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

    const FILES: usize = 6;
    const FILE_BYTES: u64 = 50_000_000;

    /// Two source sites and one archive target. The target's 10 MB/s link
    /// is the bottleneck, so a round of two 50 MB files takes ≈10 s and
    /// the full six-file campaign ≈30 s — slow enough that `run_until`
    /// can interrupt it mid-flight.
    fn setup() -> (Sim<World>, NodeId) {
        let mut topo = Topology::new();
        let core = topo.add_node(Node::router("core"));
        let src_a = topo.add_node(Node::host("pcmdi.llnl.gov"));
        topo.add_link(src_a, core, 10e6, SimDuration::from_millis(5));
        let src_b = topo.add_node(Node::host("jupiter.isi.edu"));
        topo.add_link(src_b, core, 10e6, SimDuration::from_millis(10));
        let target = topo.add_node(Node::host("archive.ucar.edu"));
        topo.add_link(target, core, 10e6, SimDuration::from_millis(5));

        let mut rm = RequestManager::new(Policy::BestBandwidth, 7);
        rm.add_host("pcmdi.llnl.gov", src_a);
        rm.add_host("jupiter.isi.edu", src_b);
        rm.add_host("archive.ucar.edu", target);
        rm.catalog.create_collection("pcm").unwrap();
        for i in 0..FILES {
            let name = format!("pcm.run1.f{i:03}");
            rm.catalog
                .add_logical_file("pcm", &name, FILE_BYTES)
                .unwrap();
            let key = format!("pcm/{name}");
            let hexd = esg_storage::file_digest_hex(&key, FILE_BYTES);
            rm.catalog.set_file_digest("pcm", &name, &hexd).unwrap();
        }
        let names: Vec<String> = (0..FILES).map(|i| format!("pcm.run1.f{i:03}")).collect();
        let refs: Vec<&str> = names.iter().map(|s| s.as_str()).collect();
        rm.catalog
            .register_location(
                "pcm",
                "llnl",
                &GridUrl::new("pcmdi.llnl.gov", "/data"),
                &refs,
            )
            .unwrap();
        rm.catalog
            .register_location(
                "pcm",
                "isi",
                &GridUrl::new("jupiter.isi.edu", "/data"),
                &refs,
            )
            .unwrap();

        let mut world = World {
            rm,
            gridftp: GridFtpSim::new(),
            nws: NwsRegistry::new(),
            outcomes: Vec::new(),
            requests: Vec::new(),
        };
        world
            .nws
            .observe_bandwidth(src_a, target, SimTime::ZERO, 10e6);
        world
            .nws
            .observe_bandwidth(src_b, target, SimTime::ZERO, 8e6);
        (Sim::new(topo, world), target)
    }

    fn tmp_checkpoint(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("esg-campaign-tests");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("{tag}-{}.ckpt", std::process::id()));
        let _ = std::fs::remove_file(&path);
        path
    }

    /// The settled facts a checkpoint file vouches for under `spec_sha`.
    fn load_checkpoint(path: &Path, spec_sha: &str) -> Option<BTreeMap<String, Settled>> {
        checkpoint::load(&esg_netlogger::journal::read_lines(path).ok()?, spec_sha)
    }

    fn spec_with(tag: &str, checkpoint: Option<PathBuf>) -> CampaignSpec {
        let mut spec = CampaignSpec::new(tag, "pcm", "archive.ucar.edu");
        spec.batch_files = 2;
        spec.checkpoint = checkpoint;
        spec.checkpoint_every = SimDuration::from_secs(5);
        spec
    }

    #[test]
    fn campaign_completes_and_registers_target_replicas() {
        let (mut sim, _target) = setup();
        start_campaign(&mut sim, spec_with("mirror", None), |s, o| {
            s.world.outcomes.push(o)
        });
        sim.run();
        assert_eq!(sim.world.outcomes.len(), 1);
        let o = &sim.world.outcomes[0];
        assert_eq!(o.files_total, FILES);
        assert_eq!(o.files_delivered, FILES);
        assert_eq!(o.files_failed, 0);
        assert_eq!(o.files_skipped, 0);
        assert_eq!(o.bytes_transferred, FILES as u64 * FILE_BYTES);
        assert_eq!(o.rounds, FILES / 2);
        assert!(!o.resumed);
        assert_eq!(o.manifest_sha256.len(), 64);
        // Every file is now registered at the target location.
        for i in 0..FILES {
            let name = format!("pcm.run1.f{i:03}");
            let replicas = sim.world.rm.catalog.lookup_replicas("pcm", &name).unwrap();
            assert!(
                replicas.iter().any(|r| r.host == "archive.ucar.edu"),
                "{name} must be registered at the target"
            );
        }
        // The campaign's root span closed and its lifecycle events fired.
        assert!(sim.world.rm.campaigns.is_empty());
        assert_eq!(sim.world.rm.metrics.counter("rm.campaign.completed"), 1);
        assert_eq!(
            sim.world.rm.metrics.counter("rm.campaign.rounds"),
            (FILES / 2) as u64
        );
        assert!(sim.world.rm.log.named("rm.campaign.start").next().is_some());
        assert!(sim
            .world
            .rm
            .log
            .named("rm.campaign.complete")
            .next()
            .is_some());
    }

    #[test]
    fn completed_checkpoint_resumes_with_zero_retransfer() {
        let ckpt = tmp_checkpoint("resume-full");
        let manifest_a;
        {
            let (mut sim, _) = setup();
            start_campaign(&mut sim, spec_with("mirror", Some(ckpt.clone())), |s, o| {
                s.world.outcomes.push(o)
            });
            sim.run();
            manifest_a = sim.world.outcomes[0].manifest_sha256.clone();
        }
        // A fresh simulation (fresh RM, fresh catalog) resuming from the
        // journal: every file is vouched for, so nothing moves.
        let (mut sim, _) = setup();
        start_campaign(&mut sim, spec_with("mirror", Some(ckpt.clone())), |s, o| {
            s.world.outcomes.push(o)
        });
        sim.run();
        let o = &sim.world.outcomes[0];
        assert!(o.resumed);
        assert_eq!(o.files_skipped, FILES);
        assert_eq!(o.files_delivered, 0);
        assert_eq!(
            o.bytes_transferred, 0,
            "verified bytes must not re-transfer"
        );
        assert_eq!(o.bytes_skipped, FILES as u64 * FILE_BYTES);
        assert_eq!(o.manifest_sha256, manifest_a, "resume-equivalence");
        assert_eq!(
            sim.world.rm.metrics.counter("rm.campaign.bytes_skipped"),
            FILES as u64 * FILE_BYTES
        );
        // Skipped files still converge the catalog.
        let replicas = sim
            .world
            .rm
            .catalog
            .lookup_replicas("pcm", "pcm.run1.f000")
            .unwrap();
        assert!(replicas.iter().any(|r| r.host == "archive.ucar.edu"));
        let _ = std::fs::remove_file(&ckpt);
    }

    #[test]
    fn interrupted_campaign_resumes_without_retransferring_settled_bytes() {
        let ckpt = tmp_checkpoint("resume-partial");
        // Uninterrupted baseline manifest.
        let manifest_baseline = {
            let (mut sim, _) = setup();
            start_campaign(&mut sim, spec_with("mirror", None), |s, o| {
                s.world.outcomes.push(o)
            });
            sim.run();
            sim.world.outcomes[0].manifest_sha256.clone()
        };
        // Interrupted run: stop the world mid-campaign (the "crash").
        {
            let (mut sim, _) = setup();
            start_campaign(&mut sim, spec_with("mirror", Some(ckpt.clone())), |s, o| {
                s.world.outcomes.push(o)
            });
            sim.run_until(SimTime::from_secs(15));
            assert!(
                sim.world.outcomes.is_empty(),
                "campaign must still be in flight at the interruption point"
            );
        }
        // Resume in a fresh world.
        let (mut sim, _) = setup();
        start_campaign(&mut sim, spec_with("mirror", Some(ckpt.clone())), |s, o| {
            s.world.outcomes.push(o)
        });
        sim.run();
        let o = &sim.world.outcomes[0];
        assert!(o.resumed);
        assert!(
            o.files_skipped >= 1 && o.files_skipped < FILES,
            "interruption must land mid-campaign (skipped {})",
            o.files_skipped
        );
        assert_eq!(o.files_skipped + o.files_delivered, FILES);
        assert_eq!(
            o.bytes_skipped + o.bytes_transferred,
            FILES as u64 * FILE_BYTES,
            "every byte is accounted to exactly one run"
        );
        assert_eq!(
            o.manifest_sha256, manifest_baseline,
            "resumed manifest must match the uninterrupted baseline"
        );
        let journal = std::fs::read_to_string(&ckpt).unwrap();
        assert!(journal.contains("\nresume "));
        assert!(journal.contains("complete manifest="));
        let _ = std::fs::remove_file(&ckpt);
    }

    /// Satellite: campaign and interactive traffic share one breaker per
    /// host — after campaign failures trip a source, an interactive
    /// request sees the breaker half-open (probe), not closed.
    #[test]
    fn campaign_trips_breaker_shared_with_interactive() {
        let (mut sim, target) = setup();
        {
            let rm = &mut sim.world.rm;
            // Leave only one replica per file so failover cannot dodge the
            // downed host.
            for i in 0..FILES {
                let name = format!("pcm.run1.f{i:03}");
                rm.catalog
                    .remove_file_from_location("pcm", "isi", &name)
                    .unwrap();
            }
        }
        // The sole source goes down before anything moves.
        let node = sim.world.rm.hosts["pcmdi.llnl.gov"];
        sim.net.set_node_up(node, false);
        start_campaign(&mut sim, spec_with("mirror", None), |s, o| {
            s.world.outcomes.push(o)
        });
        sim.run_until(SimTime::from_secs(25));
        assert!(
            matches!(
                sim.world.rm.breaker_state("pcmdi.llnl.gov"),
                Some(BreakerState::Open { .. })
            ),
            "campaign failures must trip the shared breaker, got {:?}",
            sim.world.rm.breaker_state("pcmdi.llnl.gov")
        );
        // Past the cooldown the host is back, and the campaign's retries
        // and an interactive request go through the *same* breaker: the
        // half-open transition must be observable before a probe's success
        // closes it.
        sim.net.set_node_up(node, true);
        let half_open_before = sim.world.rm.log.named("rm.breaker.half_open").count();
        sim.run_until(SimTime::from_secs(80));
        submit_request(
            &mut sim,
            target,
            vec![("pcm".into(), "pcm.run1.f000".into())],
            |s, o| s.world.requests.push(o),
        );
        sim.run();
        assert_eq!(sim.world.requests.len(), 1);
        assert!(sim.world.requests[0].files[0].done);
        assert!(
            sim.world.rm.log.named("rm.breaker.half_open").count() > half_open_before,
            "interactive probe must pass through the campaign-tripped breaker's half-open state"
        );
    }

    /// Fair-share gate: a campaign whose tenant quota is 1 can only hold
    /// one ledger slot; the rest of its round defers, and once the wait
    /// exceeds the 120 s starvation window the distress signal fires. The
    /// archive's link (the setup's third) is throttled to 0.25 MB/s, so
    /// each 50 MB pull holds that slot for 200 s.
    #[test]
    fn tenant_quota_defers_campaign_and_reports_starvation() {
        let (mut sim, _) = setup();
        sim.net.set_link_capacity(esg_simnet::LinkId(2), 0.25e6);
        {
            let rm = &mut sim.world.rm;
            rm.tenants.budget = 2;
            rm.tenants.set_quota("mirror", 1);
        }
        let mut spec = spec_with("mirror", None);
        spec.batch_files = FILES; // one big round: max pressure on the quota
        start_campaign(&mut sim, spec, |s, o| s.world.outcomes.push(o));
        sim.run();
        let o = &sim.world.outcomes[0];
        assert_eq!(o.files_delivered, FILES);
        let stats = sim.world.rm.sched_stats();
        assert!(
            stats.tenant_deferred > 0,
            "quota must defer the over-subscribed round"
        );
        assert!(
            sim.world.rm.metrics.counter("rm.campaign.starved") > 0,
            "starvation window must trip while the quota throttles the round"
        );
        assert!(sim
            .world
            .rm
            .log
            .named("rm.campaign.starved")
            .next()
            .is_some());
    }

    #[test]
    fn torn_checkpoint_tail_is_dropped_and_healed() {
        let ckpt = tmp_checkpoint("torn");
        let spec = spec_with("mirror", Some(ckpt.clone()));
        let (sim, _) = setup();
        let files: Vec<(String, u64)> = (0..FILES)
            .map(|i| (format!("pcm.run1.f{i:03}"), FILE_BYTES))
            .collect();
        let sha = spec_sha(&spec, &files);
        drop(sim);
        std::fs::write(
            &ckpt,
            format!(
                "campaign v1 spec={sha} name=mirror collection=pcm target=archive.ucar.edu files={FILES}\n\
                 settled file=pcm.run1.f000 size={FILE_BYTES} digest=- status=done round=0\n\
                 settled file=pcm.run1.f001 si",
            ),
        )
        .unwrap();
        // The torn tail is not a fact.
        let cp = load_checkpoint(&ckpt, &sha).expect("journal must load");
        assert_eq!(cp.len(), 1);
        assert!(cp["pcm.run1.f000"].done);
        // Opening the journal heals the tear before anything is appended.
        Journal::open(&ckpt)
            .unwrap()
            .0
            .append(&["resume skipped=1 bytes=0"])
            .unwrap();
        let raw = std::fs::read_to_string(&ckpt).unwrap();
        assert!(!raw.contains("f001 si"), "torn fragment must be truncated");
        assert!(raw.ends_with("resume skipped=1 bytes=0\n"));
        // And a resumed campaign trusts exactly the surviving fact.
        let (mut sim, _) = setup();
        start_campaign(&mut sim, spec, |s, o| s.world.outcomes.push(o));
        sim.run();
        let o = &sim.world.outcomes[0];
        assert!(o.resumed);
        assert_eq!(o.files_skipped, 1);
        assert_eq!(o.files_delivered, FILES - 1);
        let _ = std::fs::remove_file(&ckpt);
    }

    #[test]
    fn mismatched_checkpoint_restarts_fresh() {
        let ckpt = tmp_checkpoint("mismatch");
        std::fs::write(
            &ckpt,
            format!(
                "campaign v1 spec={} name=mirror collection=pcm target=archive.ucar.edu files=6\n\
                 settled file=pcm.run1.f000 size={FILE_BYTES} digest=- status=done round=0\n",
                esg_gsi::hex(&esg_gsi::sha256(b"some other spec")),
            ),
        )
        .unwrap();
        let (mut sim, _) = setup();
        start_campaign(&mut sim, spec_with("mirror", Some(ckpt.clone())), |s, o| {
            s.world.outcomes.push(o)
        });
        sim.run();
        let o = &sim.world.outcomes[0];
        assert!(!o.resumed, "a stale checkpoint must not be trusted");
        assert_eq!(o.files_skipped, 0);
        assert_eq!(o.files_delivered, FILES);
        assert_eq!(sim.world.rm.metrics.counter("rm.campaign.fresh_start"), 1);
        // The journal was rewritten under the live spec.
        let raw = std::fs::read_to_string(&ckpt).unwrap();
        let files: Vec<(String, u64)> = (0..FILES)
            .map(|i| (format!("pcm.run1.f{i:03}"), FILE_BYTES))
            .collect();
        assert!(raw.starts_with(&format!(
            "campaign v1 spec={}",
            spec_sha(&spec_with("mirror", Some(ckpt.clone())), &files)
        )));
        let _ = std::fs::remove_file(&ckpt);
    }

    #[test]
    fn failed_status_checkpoint_entries_are_retried() {
        let ckpt = tmp_checkpoint("retry-failed");
        let spec = spec_with("mirror", Some(ckpt.clone()));
        let files: Vec<(String, u64)> = (0..FILES)
            .map(|i| (format!("pcm.run1.f{i:03}"), FILE_BYTES))
            .collect();
        let sha = spec_sha(&spec, &files);
        std::fs::write(
            &ckpt,
            format!(
                "campaign v1 spec={sha} name=mirror collection=pcm target=archive.ucar.edu files={FILES}\n\
                 settled file=pcm.run1.f000 size={FILE_BYTES} digest=- status=done round=0\n\
                 settled file=pcm.run1.f001 size={FILE_BYTES} digest=- status=failed round=0\n",
            ),
        )
        .unwrap();
        let (mut sim, _) = setup();
        start_campaign(&mut sim, spec, |s, o| s.world.outcomes.push(o));
        sim.run();
        let o = &sim.world.outcomes[0];
        assert!(o.resumed);
        assert_eq!(o.files_skipped, 1, "only the done entry is vouched for");
        assert_eq!(o.files_delivered, FILES - 1, "the failed entry is retried");
        assert_eq!(o.files_failed, 0);
        let _ = std::fs::remove_file(&ckpt);
    }

    #[test]
    fn unopenable_checkpoint_runs_to_completion_without_durability() {
        // Whether the journal exists is decided once, at campaign start:
        // a checkpoint path in a missing directory never becomes a file,
        // the campaign still delivers everything, and every round says
        // its checkpoint was not durable.
        let dir = std::env::temp_dir().join(format!("esg-campaign-nodir-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let ckpt = dir.join("mirror.ckpt");
        let (mut sim, _) = setup();
        start_campaign(&mut sim, spec_with("mirror", Some(ckpt.clone())), |s, o| {
            s.world.outcomes.push(o)
        });
        // The directory appearing mid-run must not start a header-less
        // journal.
        sim.schedule_at(SimTime::from_secs(1), {
            let dir = dir.clone();
            move |_| std::fs::create_dir_all(&dir).unwrap()
        });
        sim.run();
        let o = &sim.world.outcomes[0];
        assert_eq!(o.files_delivered, FILES);
        assert_eq!(o.rounds, FILES / 2);
        let durable: Vec<f64> = sim
            .world
            .rm
            .log
            .named("rm.campaign.checkpoint")
            .filter_map(|e| e.get_num("durable"))
            .collect();
        assert_eq!(durable, vec![0.0; FILES / 2]);
        assert!(dir.exists(), "the mid-run mkdir must have fired");
        assert!(!ckpt.exists(), "no journal may be created");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn unknown_target_fails_the_campaign_immediately() {
        let (mut sim, _) = setup();
        let spec = CampaignSpec::new("mirror", "pcm", "nowhere.example.org");
        start_campaign(&mut sim, spec, |s, o| s.world.outcomes.push(o));
        sim.run();
        let o = &sim.world.outcomes[0];
        assert_eq!(o.files_failed, FILES);
        assert_eq!(o.files_delivered, 0);
        assert!(sim.world.rm.campaigns.is_empty());
    }

    #[test]
    fn campaign_writes_byte_stable_flight_tape() {
        let run = |tag: &str| {
            let tape = tmp_checkpoint(tag);
            let (mut sim, _) = setup();
            let mut spec = spec_with("mirror", None);
            spec.recorder = Some(tape.clone());
            spec.recorder_every = SimDuration::from_secs(5);
            start_campaign(&mut sim, spec, |s, o| s.world.outcomes.push(o));
            sim.run();
            let raw = std::fs::read_to_string(&tape).unwrap();
            let _ = std::fs::remove_file(&tape);
            (
                raw,
                sim.world
                    .rm
                    .metrics
                    .counter("rm.campaign.recorder_snapshots"),
            )
        };
        let (raw, snapshots) = run("tape-a");
        let lines: Vec<&str> = raw.lines().collect();
        // Start snapshot + periodic ticks over the ~30 s run + completion.
        assert!(lines.len() >= 4, "tape too short:\n{raw}");
        assert_eq!(snapshots, lines.len() as u64);
        // First line is the full state at campaign start...
        assert!(lines[0].starts_with("{\"t\": "), "{}", lines[0]);
        assert!(lines[0].contains("\"rm.campaign.started\": 1"));
        // ...later lines are deltas: keys that never change stop appearing.
        assert_eq!(
            lines
                .iter()
                .filter(|l| l.contains("rm.campaign.started"))
                .count(),
            1,
            "unchanged keys must be delta-elided:\n{raw}"
        );
        // The last line carries the completion counters.
        assert!(
            lines
                .last()
                .unwrap()
                .contains("\"rm.campaign.completed\": 1"),
            "{raw}"
        );
        // Same seed, same spec → byte-identical tape.
        let (raw2, _) = run("tape-b");
        assert_eq!(raw, raw2, "flight tape must be byte-stable");
    }

    /// The marker and recorder ticks run while their campaign is live and
    /// stop after it completes.
    #[test]
    fn campaign_ticks_end_with_their_campaign() {
        let ckpt = tmp_checkpoint("ticks");
        let tape = tmp_checkpoint("ticks-tape");
        let (mut sim, _) = setup();
        let mut spec = spec_with("mirror", Some(ckpt.clone()));
        spec.recorder = Some(tape.clone());
        start_campaign(&mut sim, spec, |s, o| s.world.outcomes.push(o));
        sim.run_until(SimTime::from_secs(5));
        let live = |s: &Sim<World>| (s.live_ticks(MARKER_TICK), s.live_ticks(RECORDER_TICK));
        assert_eq!(live(&sim), (1, 1));
        sim.run();
        assert_eq!(sim.world.outcomes.len(), 1);
        assert_eq!(live(&sim), (0, 0));
        let _ = std::fs::remove_file(&ckpt);
        let _ = std::fs::remove_file(&tape);
    }

    #[test]
    fn field_encoding_round_trips() {
        let fact = Settled {
            size: 7,
            digest: None,
            done: true,
            round: 0,
        };
        for s in [
            "plain",
            "with space",
            "a=b",
            "50%",
            "nl\nend",
            "%20",
            "données 2001.nc",
            "%€x",
            "€%",
            "%+5",
            "x\ty.nc",
            "cr\rlf",
            "nbsp\u{a0}em\u{2003}ls\u{2028}",
        ] {
            assert_eq!(dec(&enc(s)).as_deref(), Some(s), "{s:?}");
            let line = settled_line(s, &fact);
            assert_eq!(
                settled_fact(&line),
                Some((s.to_string(), fact.clone())),
                "{line:?}"
            );
        }
        // Space and newline keep their escapes, so older journals, spec
        // hashes and manifests read the same bytes.
        assert_eq!(enc("a b\nc\td"), "a%20b%0Ac%09d");
        // The journal is on-disk input: only `%` and two hex digits is an
        // escape (a sign is not a digit, a multi-byte character is not two
        // bytes to slice), and bytes that are not UTF-8 are no field at all.
        for raw in ["%€x", "%+5", "%", "%2", "%zz€"] {
            assert_eq!(dec(raw).as_deref(), Some(raw), "{raw:?}");
        }
        assert_eq!(dec("donn%C3%A9es").as_deref(), Some("données"));
        assert_eq!(dec("%C3"), None);
    }

    /// A journal line whose file name does not decode is dropped like any
    /// other malformed line; the lines around it still count.
    #[test]
    fn undecodable_journal_line_is_skipped_not_fatal() {
        let ckpt = tmp_checkpoint("hostile");
        std::fs::write(
            &ckpt,
            format!(
                "campaign v1 spec=x name=mirror collection=pcm target=t files=2\n\
                 settled file=%€x size=1 digest=- status=done round=0\n\
                 settled file=%FF size=1 digest=- status=done round=0\n\
                 settled file=ok size={FILE_BYTES} digest=- status=done round=0\n",
            ),
        )
        .unwrap();
        let cp = load_checkpoint(&ckpt, "x").expect("journal must load");
        let names: Vec<&str> = cp.keys().map(String::as_str).collect();
        assert_eq!(names, ["%€x", "ok"]);
        let _ = std::fs::remove_file(&ckpt);
    }

    #[test]
    fn non_ascii_names_are_skipped_on_resume() {
        let ckpt = tmp_checkpoint("resume-utf8");
        let run = || {
            let (mut sim, _) = setup();
            let cat = &mut sim.world.rm.catalog;
            cat.add_logical_file("pcm", "données 2001.nc", FILE_BYTES)
                .unwrap();
            cat.add_file_to_location("pcm", "llnl", "données 2001.nc")
                .unwrap();
            start_campaign(&mut sim, spec_with("mirror", Some(ckpt.clone())), |s, o| {
                s.world.outcomes.push(o)
            });
            sim.run();
            sim.world.outcomes.remove(0)
        };
        let first = run();
        assert_eq!(first.files_delivered, FILES + 1);
        let resumed = run();
        assert!(resumed.resumed);
        assert_eq!(resumed.files_skipped, resumed.files_total);
        assert_eq!(resumed.bytes_transferred, 0, "a verified file moved again");
        assert_eq!(resumed.manifest_sha256, first.manifest_sha256);
        let _ = std::fs::remove_file(&ckpt);
    }

    /// A tab, carriage return or other Unicode space in a name is escaped
    /// like a space: the resumed campaign reads back the same name and
    /// moves nothing again.
    #[test]
    fn whitespace_in_a_name_is_skipped_on_resume() {
        let ckpt = tmp_checkpoint("resume-whitespace");
        let run = || {
            let (mut sim, _) = setup();
            let cat = &mut sim.world.rm.catalog;
            for name in ["x\ty.nc", "r\rn.nc", "em\u{2003}sp.nc"] {
                cat.add_logical_file("pcm", name, FILE_BYTES).unwrap();
                cat.add_file_to_location("pcm", "llnl", name).unwrap();
            }
            start_campaign(&mut sim, spec_with("mirror", Some(ckpt.clone())), |s, o| {
                s.world.outcomes.push(o)
            });
            sim.run();
            sim.world.outcomes.remove(0)
        };
        let first = run();
        assert_eq!(first.files_delivered, FILES + 3);
        let resumed = run();
        assert!(resumed.resumed);
        assert_eq!(resumed.files_skipped, resumed.files_total);
        assert_eq!(resumed.bytes_transferred, 0, "a verified file moved again");
        assert_eq!(resumed.manifest_sha256, first.manifest_sha256);
        let _ = std::fs::remove_file(&ckpt);
    }

    /// Crash points at every write boundary of the checkpoint: a finished
    /// campaign's journal, cut at every line boundary, halfway through every
    /// line and just before every line's `\n`, resumes to the uninterrupted
    /// manifest, accounts every byte to exactly one run, and skips exactly
    /// the `done` facts the cut kept.
    #[test]
    fn every_checkpoint_cut_resumes_to_the_uninterrupted_manifest() {
        let ckpt = tmp_checkpoint("cuts");
        let run = || {
            let (mut sim, _) = setup();
            start_campaign(&mut sim, spec_with("mirror", Some(ckpt.clone())), |s, o| {
                s.world.outcomes.push(o)
            });
            sim.run();
            sim.world.outcomes.remove(0)
        };
        // The names of the `done` files among `lines`' settled facts.
        let done = |lines: &str| -> Vec<String> {
            let mut names: Vec<String> = lines
                .lines()
                .filter(|l| l.starts_with("settled ") && l.contains(" status=done "))
                .filter_map(|l| l.split(' ').find_map(|t| t.strip_prefix("file=")))
                .map(str::to_string)
                .collect();
            names.sort();
            names
        };
        let full = run();
        let bytes = std::fs::read_to_string(&ckpt).unwrap();
        let ends: Vec<usize> = bytes.match_indices('\n').map(|(i, _)| i + 1).collect();
        assert!(ends.len() > 8, "too few lines to cut:\n{bytes}");
        let mut cuts = vec![0];
        for (k, &end) in ends.iter().enumerate() {
            let start = if k == 0 { 0 } else { ends[k - 1] };
            cuts.extend([start + (end - start) / 2, end - 1, end]);
        }
        let all: Vec<String> = (0..FILES).map(|i| format!("pcm.run1.f{i:03}")).collect();
        for cut in cuts {
            std::fs::write(&ckpt, &bytes[..cut]).unwrap();
            // What the cut keeps: its complete lines, if the header is one.
            let kept_len = bytes[..cut].rfind('\n').map_or(0, |i| i + 1);
            let vouched = kept_len >= ends[0];
            let kept = if vouched {
                done(&bytes[..kept_len])
            } else {
                Vec::new()
            };
            let o = run();
            assert_eq!(o.manifest_sha256, full.manifest_sha256, "cut at {cut}");
            assert_eq!(
                o.bytes_skipped + o.bytes_transferred,
                FILES as u64 * FILE_BYTES,
                "cut at {cut}"
            );
            assert_eq!(o.resumed, vouched, "cut at {cut}");
            // The files this run moved are the settled lines it appended.
            let after = std::fs::read_to_string(&ckpt).unwrap();
            let moved = done(&after[if vouched { kept_len } else { 0 }..]);
            let skipped: Vec<String> = all.iter().filter(|n| !moved.contains(n)).cloned().collect();
            assert_eq!(skipped, kept, "cut at {cut}");
            assert_eq!(o.files_skipped, kept.len(), "cut at {cut}");
        }
        let _ = std::fs::remove_file(&ckpt);
    }

    #[test]
    fn empty_collection_campaign_completes_immediately() {
        let (mut sim, _) = setup();
        sim.world.rm.catalog.create_collection("void").unwrap();
        let spec = CampaignSpec::new("mirror", "void", "archive.ucar.edu");
        start_campaign(&mut sim, spec, |s, o| s.world.outcomes.push(o));
        assert_eq!(sim.world.outcomes.len(), 1, "fires without running");
        let o = &sim.world.outcomes[0];
        assert_eq!((o.files_total, o.rounds, o.bytes_transferred), (0, 0, 0));
        assert_eq!(o.finished, o.started);
        let rm = &sim.world.rm;
        assert!(rm.campaigns.is_empty() && rm.live_requests().is_empty());
        let set = esg_netlogger::LifelineSet::from_log(&rm.log);
        assert_eq!(set.campaigns.len(), 1);
        assert_eq!(set.campaigns[0].end, Some(o.finished), "span left open");
    }
}
