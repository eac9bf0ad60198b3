//! Property tests for campaign checkpoint/resume: under a random fault
//! schedule and a random interruption point, a resumed campaign must be
//! indistinguishable from one that never stopped — same manifest, every
//! file accounted delivered-or-skipped, and zero re-transfer of
//! checkpoint-vouched bytes. The uninterrupted run itself must be
//! bit-deterministic (trace sha256) so the reference is trustworthy.
//!
//! Case count is `PROPTEST_CASES`-bounded (default 96); each case runs
//! four small sims (two full, one interrupted, one resumed).

use esg::core::esg_testbed;
use esg::reqman::{start_campaign, CampaignOutcome, CampaignSpec};
use esg::simnet::prelude::{inject_all, Fault, FaultKind};
use esg::simnet::{SimDuration, SimTime};
use proptest::prelude::*;
use std::cell::RefCell;
use std::path::{Path, PathBuf};
use std::rc::Rc;
use std::sync::atomic::{AtomicUsize, Ordering};

const DS: &str = "pcm_prop.b06";
const FILES: usize = 6;
const FILE_BYTES: u64 = 8_000_000;

static CASE: AtomicUsize = AtomicUsize::new(0);

fn ckpt_path(tag: &str, case: usize) -> PathBuf {
    std::env::temp_dir().join(format!(
        "esg-campaign-prop-{}-{case}-{tag}.ckpt",
        std::process::id()
    ))
}

struct RunResult {
    outcome: CampaignOutcome,
    trace_sha: String,
}

/// One campaign sim: dataset at sites 1 and 3, replicated to site 4,
/// faults only ever hit site 1 so a clean source always survives.
/// `until` stops the sim early (the interrupted run); completed runs
/// return their outcome.
fn run_campaign(
    seed: u64,
    faults: &[(u64, u64)],
    ckpt: &Path,
    until: Option<SimTime>,
) -> (Option<RunResult>, u64) {
    let mut tb = esg_testbed(seed);
    tb.publish_dataset(DS, 24, 4, 2_000_000, &[1, 3]);
    let collection = tb.sim.world.metadata.collection_of(DS).unwrap();
    tb.start_nws(SimDuration::from_secs(25));
    tb.sim.run_until(SimTime::from_secs(100));

    let schedule: Vec<Fault> = faults
        .iter()
        .map(|&(at, dur)| {
            Fault::new(
                SimTime::from_secs(at),
                SimDuration::from_secs(dur),
                FaultKind::NodeDown(tb.sites[1].node),
            )
        })
        .collect();
    inject_all(&mut tb.sim, &schedule);

    let target = tb.sites[4].host.clone();
    let mut spec = CampaignSpec::new("prop-camp", collection, target);
    spec.batch_files = 2;
    spec.checkpoint = Some(ckpt.to_path_buf());
    spec.checkpoint_every = SimDuration::from_secs(5);
    let done: Rc<RefCell<Option<CampaignOutcome>>> = Rc::new(RefCell::new(None));
    let sink = Rc::clone(&done);
    tb.sim.schedule_at(SimTime::from_secs(105), move |sim| {
        start_campaign(sim, spec, move |_, o| *sink.borrow_mut() = Some(o));
    });

    tb.sim.run_until(until.unwrap_or(SimTime::from_secs(700)));

    let bytes = tb
        .sim
        .world
        .rm
        .metrics
        .counter("rm.campaign.bytes_transferred");
    let result = done.borrow_mut().take();
    if result.is_some() {
        // A completed campaign leaves nothing behind in the manager.
        let rm = &tb.sim.world.rm;
        assert!(
            rm.live_requests().is_empty(),
            "a round outlived its campaign"
        );
        assert_eq!(rm.inflight().total(), 0, "ledger entries leaked");
        let set = esg::netlogger::LifelineSet::from_log(&rm.log);
        assert!(set.orphans.is_empty() && set.lifelines.iter().all(|l| l.is_complete()));
    }
    let result = result.map(|outcome| RunResult {
        trace_sha: {
            let ulm = tb.sim.world.rm.log.to_ulm();
            format!("{:x?}", esg::gsi::sha256(ulm.as_bytes()))
        },
        outcome,
    });
    (result, bytes)
}

proptest! {
    /// Resume equivalence: for any fault schedule on the flaky source and
    /// any interruption point, interrupted + resumed == uninterrupted.
    #[test]
    fn checkpoint_resume_is_equivalence_preserving(
        seed in 0u64..500,
        interrupt_ds in 1051u64..1650,
        faults in prop::collection::vec((102u64..170, 5u64..25), 0..4),
    ) {
        let case = CASE.fetch_add(1, Ordering::Relaxed);
        let full_a = ckpt_path("full-a", case);
        let full_b = ckpt_path("full-b", case);
        let resume = ckpt_path("resume", case);
        for p in [&full_a, &full_b, &resume] {
            let _ = std::fs::remove_file(p);
        }

        // Two uninterrupted runs: the reference must be deterministic.
        let (ra, bytes_a) = run_campaign(seed, &faults, &full_a, None);
        let (rb, _) = run_campaign(seed, &faults, &full_b, None);
        let ra = ra.expect("uninterrupted campaign completes");
        let rb = rb.expect("uninterrupted campaign completes");
        prop_assert_eq!(&ra.trace_sha, &rb.trace_sha, "full-run trace not deterministic");
        prop_assert_eq!(&ra.outcome.manifest_sha256, &rb.outcome.manifest_sha256);
        prop_assert_eq!(ra.outcome.files_delivered, FILES);
        prop_assert_eq!(ra.outcome.files_failed, 0);
        prop_assert_eq!(bytes_a, FILES as u64 * FILE_BYTES);

        // Interrupt mid-flight (or even post-completion — both must
        // resume cleanly), then finish in a fresh sim.
        let interrupt = SimTime::from_secs_f64(interrupt_ds as f64 / 10.0);
        let (_, bytes_interrupted) = run_campaign(seed, &faults, &resume, Some(interrupt));
        let (rc, bytes_resumed) = run_campaign(seed, &faults, &resume, None);
        let rc = rc.expect("resumed campaign completes");

        prop_assert!(rc.outcome.resumed, "resume run must load the checkpoint");
        prop_assert_eq!(
            &rc.outcome.manifest_sha256, &ra.outcome.manifest_sha256,
            "resumed manifest diverged from the uninterrupted reference"
        );
        prop_assert_eq!(rc.outcome.files_failed, 0);
        prop_assert_eq!(
            rc.outcome.files_skipped + rc.outcome.files_delivered, FILES,
            "every file must be accounted delivered-or-skipped"
        );
        // Zero re-transfer of vouched bytes: what the interrupted run
        // banked plus what the resume moved is exactly the total.
        prop_assert_eq!(
            bytes_interrupted + bytes_resumed, FILES as u64 * FILE_BYTES,
            "checkpoint-vouched bytes were re-transferred"
        );
        prop_assert_eq!(rc.outcome.bytes_skipped, bytes_interrupted);

        for p in [&full_a, &full_b, &resume] {
            let _ = std::fs::remove_file(p);
        }
    }
}
