//! `campaign_round`: one replication campaign of n single-step 1 MB files
//! driven through the request manager in a single round, at a small n and
//! at 4× that n, so the per-file cost and its growth are both numbers.

use super::{add_profile, add_world, profiled, Ctx, Laps, Rep};
use esg_lab::sha_hex;
use esg_reqman::{start_campaign, CampaignOutcome, CampaignSpec};
use esg_simnet::{SimDuration, SimTime};
use esg_storage::file_digest_hex;
use std::cell::RefCell;
use std::rc::Rc;
use std::time::Instant;

const DS: &str = "pcm_bench.b06";
const BYTES_PER_FILE: u64 = 1_000_000;
/// Source replicas at two OC-12 sites; destination behind an OC-3.
const SOURCE_SITES: [usize; 2] = [1, 3];
const TARGET_SITE: usize = 4;
const MAX_ACTIVE: usize = 24;
/// Simulated seconds per timed slice.
const SLICE_SIM_S: u64 = 2;

/// `(small, big)` files per round. The big point is sized so one rep fits
/// several times into a run; see the README for the sizing table.
pub fn sizes(quick: bool) -> (usize, usize) {
    if quick {
        (100, 400)
    } else {
        (500, 2000)
    }
}

struct Round {
    setup_s: f64,
    /// The round's slices within the rep.
    slices: std::ops::Range<usize>,
    outcome: Option<CampaignOutcome>,
    trace_sha: String,
}

fn round(ctx: &Ctx, n: usize, rep: &mut Rep) -> Round {
    let t = Instant::now();
    let mut tb = esg_core::esg_testbed(ctx.seed);
    tb.publish_dataset(DS, n, 1, BYTES_PER_FILE, &SOURCE_SITES);
    tb.sim.world.rm.scheduler.max_active_per_request = MAX_ACTIVE;
    tb.start_nws(SimDuration::from_secs(25));
    tb.sim.run_until(SimTime::from_secs(100));

    let coll = tb
        .sim
        .world
        .metadata
        .collection_of(DS)
        .expect("dataset was just published");
    let ckpt = ctx.dir.join(format!("campaign-{n}.ckpt"));
    let _ = std::fs::remove_file(&ckpt);
    let mut spec = CampaignSpec::new("bench", coll.clone(), tb.sites[TARGET_SITE].host.clone());
    spec.batch_files = n;
    spec.checkpoint = Some(ckpt.clone());
    spec.checkpoint_every = SimDuration::from_secs(1);
    let outcome: Rc<RefCell<Option<CampaignOutcome>>> = Rc::new(RefCell::new(None));
    let sink = Rc::clone(&outcome);
    tb.sim.schedule_at(SimTime::from_secs(105), move |sim| {
        start_campaign(sim, spec, move |_, o| *sink.borrow_mut() = Some(o));
    });
    let setup_s = t.elapsed().as_secs_f64();

    // Run to the campaign's last settle, not to a fixed horizon: NWS
    // sensors probe forever and would pad the wall with work no file needs.
    let first_slice = rep.slices.len();
    let report = profiled(ctx.traced, || {
        let mut laps = Laps::start();
        let mut until = 106;
        while outcome.borrow().is_none() && until < 20_000 {
            tb.sim.run_until(SimTime::from_secs(until));
            laps.lap(rep);
            until += SLICE_SIM_S;
        }
    });
    let slices = first_slice..rep.slices.len();
    let _ = std::fs::remove_file(&ckpt);
    let outcome = outcome.borrow_mut().take();

    // Output checks: every file delivered and verified, byte conservation,
    // and the manifest recomputed here from (name, size, digest).
    let delivered = outcome.as_ref().map_or(0, |o| o.files_delivered);
    for i in 0..n {
        rep.check(i < delivered, || {
            format!("campaign n={n}: {delivered} files delivered")
        });
    }
    let m = &tb.sim.world.rm.metrics;
    rep.check(
        m.counter("rm.files.completed") == m.counter("rm.integrity.verified"),
        || format!("campaign n={n}: completed != integrity-verified"),
    );
    if let Some(o) = &outcome {
        rep.check(
            o.bytes_transferred + o.bytes_skipped == n as u64 * BYTES_PER_FILE,
            || format!("campaign n={n}: {} bytes moved", o.bytes_transferred),
        );
        let mut files: Vec<_> = tb
            .sim
            .world
            .metadata
            .all_files(DS)
            .expect("dataset was just published")
            .iter()
            .map(|f| (f.name.clone(), f.size))
            .collect();
        files.sort();
        let manifest: String = files
            .iter()
            .map(|(name, size)| {
                let digest = file_digest_hex(&format!("{coll}/{name}"), *size);
                format!("file={name} size={size} digest={digest}\n")
            })
            .collect();
        rep.check(sha_hex(&manifest) == o.manifest_sha256, || {
            format!("campaign n={n}: manifest differs from the recomputed one")
        });
    }

    if let Some(report) = report {
        rep.add(
            "reqman.journal.lines",
            report.count_of("journal.lines") as f64,
        );
        add_profile(rep, report);
        add_world(rep, &tb.sim);
    }
    Round {
        setup_s,
        slices,
        outcome,
        trace_sha: sha_hex(&tb.sim.world.rm.log.to_ulm()),
    }
}

/// (wall per file at 4n) / (wall per file at n) from a run's per-slice
/// seconds; 1.0 = linear. `None` for reps of other workloads.
pub fn scaling_ratio(slice_s: &[f64], rep: &Rep) -> Option<f64> {
    let split = *rep.values.get("small_round_slices")? as usize;
    let n_big = rep.files as f64;
    let n_small = rep.values.get("files_total")? - n_big;
    let (small, big) = slice_s.split_at(split);
    Some((big.iter().sum::<f64>() / n_big) / (small.iter().sum::<f64>() / n_small))
}

pub fn rep(ctx: &Ctx) -> Rep {
    let (n_small, n_big) = sizes(ctx.quick);
    let mut rep = Rep::default();
    let small = round(ctx, n_small, &mut rep);
    let big = round(ctx, n_big, &mut rep);

    rep.setup_s = small.setup_s + big.setup_s;
    rep.files = n_big as u64;
    rep.files_slices = Some(big.slices);
    rep.set("files_total", (n_small + n_big) as f64);
    rep.set("small_round_slices", small.slices.end as f64);
    if let Some(o) = &big.outcome {
        let makespan = (o.finished - o.started).as_secs_f64();
        rep.set("sim.makespan_s", makespan);
        rep.set(
            "sim.goodput_mbps",
            o.bytes_transferred as f64 * 8.0 / 1e6 / makespan,
        );
    }
    rep.sim_digest = Some(sha_hex(&format!("{}{}", small.trace_sha, big.trace_sha)));
    rep
}
