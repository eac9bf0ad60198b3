//! `request_pipeline` executor (A12): one trial = one arm of the
//! pipelined-transfer-scheduler comparison on the shared mixed hot/cold
//! workload. The spec's `scheduler`/`legacy` variants replace the old
//! bin's two back-to-back `run()` calls; the cross-arm asserts became
//! declared gates (delivery equivalence, verified==complete, host cap,
//! makespan speedup floor).

use super::{mixed, TrialCtx};
use crate::journal::{MetricValue, MetricValue::Num, TrialRecord};
use std::fmt::Write as _;

pub const DISK_DS: &str = "pcm_pipe.disk";
pub const TAPE_DS: &str = "pcm_pipe.tape";

pub fn run(ctx: &TrialCtx) -> Result<TrialRecord, String> {
    let p = &ctx.params;
    let n_requests = p.usize("requests", 6)?;
    let min_rate = p.f64("min_rate", mixed::DEFAULT_MIN_RATE)?;
    let mode = p.str("mode", "scheduler")?.to_string();
    let scheduler_on = match mode.as_str() {
        "scheduler" => true,
        "legacy" => false,
        other => return Err(format!("mode must be scheduler|legacy, got '{other}'")),
    };

    let run = mixed::run_mixed(
        ctx.seed,
        &mixed::MixedConfig {
            disk_ds: DISK_DS,
            tape_ds: TAPE_DS,
            scheduler_on: Some(scheduler_on),
            min_rate,
            n_requests,
        },
        &ctx.spec.faults,
    )?;
    let tb = &run.tb;

    let outcomes = &tb.sim.world.outcomes;
    let first_start = outcomes
        .iter()
        .map(|o| o.started)
        .min()
        .ok_or("no outcomes")?;
    let last_finish = outcomes
        .iter()
        .map(|o| o.finished)
        .max()
        .ok_or("no outcomes")?;
    let makespan = last_finish.since(first_start).as_secs_f64();
    let bytes: u64 = outcomes
        .iter()
        .flat_map(|o| o.files.iter())
        .map(|f| f.bytes_done)
        .sum();
    let mean_sojourn = outcomes
        .iter()
        .map(|o| o.finished.since(o.started).as_secs_f64())
        .sum::<f64>()
        / n_requests as f64;

    // (request id, file name, size, bytes_done, done) in sorted order —
    // its digest is what the cross-arm equivalence gate compares.
    let mut deliveries: Vec<(u64, String, u64, u64, bool)> = outcomes
        .iter()
        .flat_map(|o| {
            o.files
                .iter()
                .map(move |f| (o.id, f.name.clone(), f.size, f.bytes_done, f.done))
        })
        .collect();
    deliveries.sort();
    let all_delivered = deliveries
        .iter()
        .all(|(_, _, size, done_b, done)| *done && done_b == size);
    let mut manifest = String::new();
    for (id, name, size, done_b, done) in &deliveries {
        writeln!(manifest, "{id} {name} {size} {done_b} {done}").unwrap();
    }

    let rm = &tb.sim.world.rm;
    let count = |name: &str| rm.log.named(name).count();
    let completes = count("rm.file.complete");
    let verified = count("integrity.file.verified");
    let failovers = count("rm.reliability.failover");
    let defers = count("rm.sched.defer");
    let prestaged = rm.sched_stats().prestaged;
    let tuned = rm.sched_stats().tuned;
    let peak_host_inflight = rm.inflight().peak_attempts();
    let agg_mbps = bytes as f64 / makespan.max(1e-9) / 1e6;
    let trace_sha = crate::sha_hex(&rm.log.to_ulm());

    Ok(TrialRecord {
        key: ctx.key(),
        metrics: vec![
            ("mode".into(), MetricValue::Str(mode)),
            ("requests".into(), Num(n_requests as f64)),
            ("requests_done".into(), Num(outcomes.len() as f64)),
            ("files_delivered".into(), Num(deliveries.len() as f64)),
            ("all_delivered".into(), Num(all_delivered as u64 as f64)),
            ("makespan_s".into(), Num(makespan)),
            ("aggregate_mb_s".into(), Num(agg_mbps)),
            ("mean_sojourn_s".into(), Num(mean_sojourn)),
            ("bytes_delivered".into(), Num(bytes as f64)),
            ("files_complete".into(), Num(completes as f64)),
            ("files_verified".into(), Num(verified as f64)),
            ("failovers".into(), Num(failovers as f64)),
            ("defers".into(), Num(defers as f64)),
            ("prestaged".into(), Num(prestaged as f64)),
            ("tuned".into(), Num(tuned as f64)),
            ("peak_host_inflight".into(), Num(peak_host_inflight as f64)),
            (
                "deliveries_sha256".into(),
                MetricValue::Str(crate::sha_hex(&manifest)),
            ),
            ("trace_sha256".into(), MetricValue::Str(trace_sha)),
        ],
        timing: vec![("wall_ms".into(), run.wall.as_secs_f64() * 1e3)],
        aux: vec![],
    })
}
