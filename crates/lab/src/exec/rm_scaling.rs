//! `rm_scaling` executor: one trial = one point of the A16
//! files-per-round scaling curve — a replication campaign of `n`
//! single-step files in one round through the request manager.
//!
//! Wall clock is measured around the single `run_until` that drives the
//! campaign, best-of-`repeats`. The legacy O(N)-rescan arm this curve
//! used to race against was removed once its bitwise equivalence was on
//! record (EXPERIMENTS.md A16); each point's trace and manifest sha256
//! are pinned in the committed `BENCH_rm_scaling.json`.

use super::campaign_round::CampaignRound;
use super::TrialCtx;
use crate::journal::{MetricValue, MetricValue::Num, TrialRecord};
use esg_reqman::CampaignOutcome;

/// The campaign's source dataset.
const DS: &str = "pcm_rmscale.b06";

struct RunStats {
    wall_ms: f64,
    outcome: CampaignOutcome,
    trace_sha256: String,
}

fn run_once(ctx: &TrialCtx) -> Result<RunStats, String> {
    let mut round = CampaignRound::prepare(ctx, DS, "rm-scale", "run", 100)?;
    round.launch(ctx)?;

    let wall = std::time::Instant::now();
    round.tb.sim.run_until(round.horizon);
    let wall_ms = wall.elapsed().as_secs_f64() * 1e3;

    Ok(RunStats {
        wall_ms,
        outcome: round.finish()?,
        trace_sha256: crate::sha_hex(&round.tb.sim.world.rm.log.to_ulm()),
    })
}

pub fn run(ctx: &TrialCtx) -> Result<TrialRecord, String> {
    let repeats = ctx.params.usize("repeats", 1)?;

    // Best-of-N wall: the sims are deterministic, so every repeat
    // harvests identical stats and only the timing tightens.
    let mut best = run_once(ctx)?;
    for _ in 1..repeats {
        let r = run_once(ctx)?;
        if r.trace_sha256 != best.trace_sha256 {
            return Err("repeat run produced a different trace".into());
        }
        best.wall_ms = best.wall_ms.min(r.wall_ms);
    }
    let o = &best.outcome;
    let metrics = vec![
        ("n".into(), Num(o.files_total as f64)),
        ("files_total".into(), Num(o.files_total as f64)),
        ("files_delivered".into(), Num(o.files_delivered as f64)),
        ("rounds".into(), Num(o.rounds as f64)),
        ("trace_sha256".into(), MetricValue::Str(best.trace_sha256)),
        (
            "manifest_sha256".into(),
            MetricValue::Str(o.manifest_sha256.clone()),
        ),
    ];
    Ok(TrialRecord {
        key: ctx.key(),
        metrics,
        timing: vec![("wall_ms".into(), best.wall_ms)],
        aux: vec![],
    })
}
