//! `request_pipeline` executor (A12): one trial = one arm of the
//! pipelined-transfer-scheduler comparison on the shared mixed hot/cold
//! workload. The spec's `scheduler`/`legacy` variants replace the old
//! bin's two back-to-back `run()` calls; the cross-arm asserts became
//! declared gates (delivery equivalence, verified==complete, host cap,
//! makespan speedup floor).

use super::{bytes_delivered, mixed, put, put_counts, put_str, TrialCtx};
use crate::journal::TrialRecord;
use std::fmt::Write as _;

pub const DISK_DS: &str = "pcm_pipe.disk";
pub const TAPE_DS: &str = "pcm_pipe.tape";

/// `(metric, trace event)` rows each arm counts.
const COUNTS: [(&str, &str); 4] = [
    ("files_complete", "rm.file.complete"),
    ("files_verified", "integrity.file.verified"),
    ("failovers", "rm.reliability.failover"),
    ("defers", "rm.sched.defer"),
];

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
    let bytes = bytes_delivered(outcomes);
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
    let agg_mbps = bytes as f64 / makespan.max(1e-9) / 1e6;

    let mut rec = ctx.record();
    put_str(&mut rec, "mode", mode);
    put(&mut rec, "requests", n_requests as f64);
    put(&mut rec, "requests_done", outcomes.len() as f64);
    put(&mut rec, "files_delivered", deliveries.len() as f64);
    put(&mut rec, "all_delivered", f64::from(all_delivered));
    put(&mut rec, "makespan_s", makespan);
    put(&mut rec, "aggregate_mb_s", agg_mbps);
    put(&mut rec, "mean_sojourn_s", mean_sojourn);
    put(&mut rec, "bytes_delivered", bytes as f64);
    put_counts(&mut rec, &rm.log, &COUNTS);
    put(&mut rec, "prestaged", rm.sched_stats().prestaged as f64);
    put(&mut rec, "tuned", rm.sched_stats().tuned as f64);
    let peak_host_inflight = rm.inflight().peak_attempts();
    put(&mut rec, "peak_host_inflight", peak_host_inflight as f64);
    put_str(&mut rec, "deliveries_sha256", crate::sha_hex(&manifest));
    put_str(&mut rec, "trace_sha256", crate::sha_hex(&rm.log.to_ulm()));
    rec.timing
        .push(("wall_ms".into(), run.wall.as_secs_f64() * 1e3));
    Ok(rec)
}
