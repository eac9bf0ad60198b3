//! Campaign soak executor: two replication campaigns and an interactive
//! tenant share the testbed under rolling faults.
//!
//! Each `contended` trial runs the three-sim resume protocol:
//!
//! 1. **full** — campaigns + interactive workload run uninterrupted to
//!    the horizon; this fixes the reference manifests and the fairness
//!    numerator.
//! 2. **interrupted** — the *same* construction (checkpoints journal to
//!    fresh paths) is abandoned at `interrupt_s`, mid-campaign.
//! 3. **resume** — a fresh sim with the same seed loads the interrupted
//!    checkpoints and finishes the campaigns.
//!
//! The gates then hold resume to the uninterrupted reference: bit-equal
//! manifests, every file accounted delivered-or-skipped, and zero
//! re-transfer of checkpoint-vouched bytes (`interrupted + resumed
//! campaign bytes == full-run campaign bytes`). The `solo` variant runs
//! the identical interactive workload and fault schedule with no
//! campaigns at all — the denominator for the declared fairness bound on
//! interactive p95 makespan.

use super::TrialCtx;
use crate::journal::{MetricValue, MetricValue::Num, TrialRecord};
use esg_reqman::{start_campaign, submit_request, CampaignOutcome, CampaignSpec, DEFAULT_TENANT};
use esg_simnet::prelude::inject_all;
use esg_simnet::{SimDuration, SimTime};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;
use std::path::PathBuf;

/// Campaign source datasets (both replicated at sites 1–3, so the two
/// campaigns compete for the same source hosts) and the interactive
/// tenant's dataset.
const CAMP_DS: [&str; 2] = ["pcm_campa.b06", "pcm_campb.b06"];
/// Campaign destination sites (OC-3 access links: slow enough that a
/// campaign occupies a meaningful window).
const CAMP_TARGET_SITE: [usize; 2] = [4, 5];
const INTER_DS: &str = "pcm_inter.b06";

/// Per-run summary pulled out of a finished (or abandoned) sim.
struct RunStats {
    interactive_done: usize,
    interactive_p95_s: f64,
    /// campaign name -> outcome.
    campaigns: BTreeMap<String, CampaignOutcome>,
    campaign_bytes: u64,
    starved: u64,
    checkpoints: u64,
    trace_sha256: String,
}

/// Construct one sim: testbed, datasets, tenant table, fault schedule,
/// interactive workload, and `campaigns` replication campaigns whose
/// checkpoints journal to `ckpts`. Identical inputs build identical
/// sims — the interrupted run is the full run stopped early.
fn build(
    ctx: &TrialCtx,
    campaigns: usize,
    ckpts: &[PathBuf],
) -> Result<esg_core::EsgTestbed, String> {
    let p = &ctx.params;
    let steps = p.usize("campaign_steps", 96)?;
    let spf = p.usize("steps_per_file", 4)?;
    let bps = p.u64("bytes_per_step", 8_000_000)?;
    let batch = p.usize("batch_files", 6)?;
    let n_inter = p.usize("interactive_requests", 16)?;
    let budget = p.usize("budget", 12)?;
    let inter_weight = p.u64("interactive_weight", 6)? as u32;
    let quota = p.usize("campaign_quota", 4)?;
    let ckpt_every = p.u64("checkpoint_every_s", 20)?;

    let mut tb = esg_core::esg_testbed(ctx.seed);
    for ds in CAMP_DS {
        tb.publish_dataset(ds, steps, spf, bps, &[1, 2, 3]);
    }
    tb.publish_dataset(INTER_DS, 24, 4, 2_000_000, &[1, 2, 3, 4, 5]);

    // Weighted fair sharing: the interactive tenant outweighs each
    // campaign, and a per-campaign quota caps its concurrent pulls.
    let rm = &mut tb.sim.world.rm;
    rm.tenants.budget = budget;
    rm.tenants.set_weight(DEFAULT_TENANT, inter_weight);
    for i in 0..campaigns {
        rm.tenants.set_weight(&campaign_name(i), 1);
        rm.tenants.set_quota(&campaign_name(i), quota);
    }

    tb.start_nws(SimDuration::from_secs(25));
    tb.sim.run_until(SimTime::from_secs(100));

    let faults = super::spec_faults(&ctx.spec.faults, &tb.sites)?;
    inject_all(&mut tb.sim, &faults);

    // Interactive workload: identical RNG stream in every run and
    // variant (campaign construction draws nothing from it).
    let collection = tb
        .sim
        .world
        .metadata
        .collection_of(INTER_DS)
        .map_err(|e| format!("collection_of: {e}"))?;
    let names: Vec<(String, String)> = tb
        .sim
        .world
        .metadata
        .all_files(INTER_DS)
        .map_err(|e| format!("all_files: {e}"))?
        .iter()
        .map(|f| (collection.clone(), f.name.clone()))
        .collect();
    let mut rng = StdRng::seed_from_u64(ctx.seed ^ 0xCA4A_16B5_0DD5_EED5);
    let client = tb.client;
    for _ in 0..n_inter {
        let at = SimTime::from_secs(rng.gen_range(120u64..820));
        let k = rng.gen_range(1usize..=2);
        let files: Vec<_> = (0..k)
            .map(|_| names[rng.gen_range(0usize..names.len())].clone())
            .collect();
        tb.sim.schedule_at(at, move |sim| {
            submit_request(sim, client, files, |s, o| s.world.outcomes.push(o));
        });
    }

    for i in 0..campaigns {
        let coll = tb
            .sim
            .world
            .metadata
            .collection_of(CAMP_DS[i])
            .map_err(|e| format!("collection_of: {e}"))?;
        let target = tb.sites[CAMP_TARGET_SITE[i]].host.clone();
        let mut spec = CampaignSpec::new(campaign_name(i), coll, target);
        spec.batch_files = batch;
        spec.checkpoint = Some(ckpts[i].clone());
        spec.checkpoint_every = SimDuration::from_secs(ckpt_every);
        tb.sim
            .schedule_at(SimTime::from_secs(105 + 5 * i as u64), move |sim| {
                start_campaign(sim, spec, |s, o| s.world.campaigns.push(o));
            });
    }

    Ok(tb)
}

fn campaign_name(i: usize) -> String {
    format!("camp-{}", (b'a' + i as u8) as char)
}

/// p95 of completed interactive request makespans (seconds).
fn p95(makespans: &mut [f64]) -> f64 {
    if makespans.is_empty() {
        return 0.0;
    }
    makespans.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let idx = ((makespans.len() as f64) * 0.95).ceil() as usize;
    makespans[idx.saturating_sub(1).min(makespans.len() - 1)]
}

fn harvest(tb: &esg_core::EsgTestbed) -> RunStats {
    let world = &tb.sim.world;
    let mut makespans: Vec<f64> = world
        .outcomes
        .iter()
        .filter(|o| o.files.iter().all(|f| f.done && f.bytes_done == f.size))
        .map(|o| (o.finished - o.started).as_secs_f64())
        .collect();
    let campaigns: BTreeMap<String, CampaignOutcome> = world
        .campaigns
        .iter()
        .map(|o| (o.name.clone(), o.clone()))
        .collect();
    RunStats {
        interactive_done: makespans.len(),
        interactive_p95_s: p95(&mut makespans),
        campaigns,
        campaign_bytes: world.rm.metrics.counter("rm.campaign.bytes_transferred"),
        starved: world.rm.metrics.counter("rm.campaign.starved"),
        checkpoints: world.rm.metrics.counter("rm.campaign.checkpoints"),
        trace_sha256: crate::sha_hex(&world.rm.log.to_ulm()),
    }
}

pub fn run(ctx: &TrialCtx) -> Result<TrialRecord, String> {
    let p = &ctx.params;
    let n_campaigns = p.usize("campaigns", 2)?;
    let horizon = SimTime::from_secs(p.u64("horizon_s", 2400)?);
    let interrupt = SimTime::from_secs(p.u64("interrupt_s", 240)?);
    let n_inter = p.usize("interactive_requests", 16)?;

    let ckpt_path = |tag: &str, i: usize| {
        std::env::temp_dir().join(format!(
            "esg-lab-{}-{}-s{}-r{}-{tag}-{i}.ckpt",
            ctx.spec.name,
            ctx.variant,
            ctx.seed,
            ctx.rep,
            i = i
        ))
    };
    let fresh = |tag: &str| -> Vec<PathBuf> {
        (0..2)
            .map(|i| {
                let p = ckpt_path(tag, i);
                let _ = std::fs::remove_file(&p);
                p
            })
            .collect()
    };

    let wall = std::time::Instant::now();

    // Run 1 (or the only run, for `solo`): uninterrupted to the horizon.
    let full_ckpts = fresh("full");
    let mut full = build(ctx, n_campaigns, &full_ckpts)?;
    full.sim.run_until(horizon);
    let full_stats = harvest(&full);
    let wall_full = wall.elapsed().as_secs_f64() * 1e3;
    drop(full);

    let mut metrics = vec![
        ("campaigns".into(), Num(n_campaigns as f64)),
        ("interactive_requests".into(), Num(n_inter as f64)),
        (
            "interactive_done".into(),
            Num(full_stats.interactive_done as f64),
        ),
        (
            "interactive_p95_s".into(),
            Num((full_stats.interactive_p95_s * 1e6).round() / 1e6),
        ),
        (
            "trace_sha256".into(),
            MetricValue::Str(full_stats.trace_sha256.clone()),
        ),
    ];
    let mut timing = vec![("wall_ms_full".into(), wall_full)];

    if n_campaigns > 0 {
        let files_total: usize = full_stats.campaigns.values().map(|o| o.files_total).sum();
        let full_delivered: usize = full_stats
            .campaigns
            .values()
            .map(|o| o.files_delivered)
            .sum();

        // Run 2: identical construction, abandoned mid-campaign. Its
        // checkpoints are the only state the resume run may consult.
        let res_ckpts = fresh("res");
        let mut interrupted = build(ctx, n_campaigns, &res_ckpts)?;
        interrupted.sim.run_until(interrupt);
        let bytes_interrupted = interrupted
            .sim
            .world
            .rm
            .metrics
            .counter("rm.campaign.bytes_transferred");
        drop(interrupted);

        // Run 3: fresh sim, same seed, resumes from the torn checkpoints.
        let mut resumed = build(ctx, n_campaigns, &res_ckpts)?;
        resumed.sim.run_until(horizon);
        let res_stats = harvest(&resumed);
        drop(resumed);

        let manifests_match = full_stats.campaigns.len() == n_campaigns
            && res_stats.campaigns.len() == n_campaigns
            && full_stats.campaigns.iter().all(|(name, full_o)| {
                res_stats
                    .campaigns
                    .get(name)
                    .is_some_and(|r| r.manifest_sha256 == full_o.manifest_sha256)
            });
        let all_resumed = res_stats.campaigns.values().all(|o| o.resumed);
        let res_skipped: usize = res_stats.campaigns.values().map(|o| o.files_skipped).sum();
        let res_delivered: usize = res_stats
            .campaigns
            .values()
            .map(|o| o.files_delivered)
            .sum();
        let res_accounted = res_skipped + res_delivered;
        // Zero re-transfer of vouched bytes: what the interrupted run
        // banked plus what the resume moved must equal the uninterrupted
        // total — any double-pull of a settled file shows up positive.
        let retransferred = (bytes_interrupted + res_stats.campaign_bytes) as f64
            - full_stats.campaign_bytes as f64;

        metrics.extend([
            ("campaign_files_total".into(), Num(files_total as f64)),
            ("full_files_delivered".into(), Num(full_delivered as f64)),
            (
                "full_campaign_bytes".into(),
                Num(full_stats.campaign_bytes as f64),
            ),
            (
                "full_checkpoints".into(),
                Num(full_stats.checkpoints as f64),
            ),
            ("starved_events".into(), Num(full_stats.starved as f64)),
            (
                "resume_manifest_match".into(),
                Num(if manifests_match && all_resumed {
                    1.0
                } else {
                    0.0
                }),
            ),
            ("resume_files_skipped".into(), Num(res_skipped as f64)),
            ("resume_files_delivered".into(), Num(res_delivered as f64)),
            ("resume_files_accounted".into(), Num(res_accounted as f64)),
            (
                "resume_bytes_interrupted".into(),
                Num(bytes_interrupted as f64),
            ),
            (
                "resume_bytes_transferred".into(),
                Num(res_stats.campaign_bytes as f64),
            ),
            ("resume_retransferred_bytes".into(), Num(retransferred)),
        ]);
        timing.push((
            "wall_ms_resume".into(),
            wall.elapsed().as_secs_f64() * 1e3 - wall_full,
        ));

        for path in full_ckpts.iter().chain(res_ckpts.iter()) {
            let _ = std::fs::remove_file(path);
        }
    }

    Ok(TrialRecord {
        key: ctx.key(),
        metrics,
        timing,
        aux: vec![],
    })
}
