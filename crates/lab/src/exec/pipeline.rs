//! `request_pipeline` executor (A12): one trial = one arm of the
//! pipelined-transfer-scheduler comparison on the shared mixed hot/cold
//! workload. The spec's `scheduler`/`legacy` variants replace the old
//! bin's two back-to-back `run()` calls; the cross-arm asserts became
//! declared gates (delivery equivalence, verified==complete, host cap,
//! makespan speedup floor).

use super::{mixed, TrialCtx};
use crate::gate::Baseline;
use crate::journal::{AuxFile, MetricValue, MetricValue::Num, TrialRecord};
use crate::json::Json;
use crate::spec::ScenarioSpec;
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

    // The old bin's per-variant JSON object, byte-for-byte.
    let mut fragment = String::new();
    write!(
        fragment,
        concat!(
            "{{\"mode\": \"{}\", \"makespan_s\": {:.3}, \"aggregate_mb_s\": {:.3}, ",
            "\"mean_sojourn_s\": {:.3}, \"files_complete\": {}, \"files_verified\": {}, ",
            "\"failovers\": {}, \"defers\": {}, \"prestaged\": {}, \"tuned\": {}, ",
            "\"peak_host_inflight\": {}}}"
        ),
        mode,
        makespan,
        agg_mbps,
        mean_sojourn,
        completes,
        verified,
        failovers,
        defers,
        prestaged,
        tuned,
        peak_host_inflight,
    )
    .unwrap();

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
        fragment: Some(fragment),
        aux: Vec::<AuxFile>::new(),
    })
}

fn find<'a>(rows: &'a [TrialRecord], variant: &str) -> Option<&'a TrialRecord> {
    rows.iter().find(|r| r.key.variant == variant)
}

/// `BENCH_request_pipeline.json`, byte-format-identical to the old bin:
/// scheduler variant first, then legacy, then the makespan speedup and
/// the scheduler arm's trace digest.
pub fn assemble(spec: &ScenarioSpec, rows: &[TrialRecord]) -> Option<String> {
    let sched = find(rows, "scheduler")?;
    let legacy = find(rows, "legacy")?;
    let speedup = legacy.value("makespan_s")? / sched.value("makespan_s")?.max(1e-9);
    let trace_sha = match sched.metric("trace_sha256")? {
        MetricValue::Str(s) => s.clone(),
        _ => return None,
    };
    Some(format!(
        concat!(
            "{{\n  \"bench\": \"request_pipeline\",\n  \"seed\": {},\n",
            "  \"requests\": {},\n  \"files_per_request\": 18,\n",
            "  \"min_rate_mb_s\": {:.1},\n  \"variants\": [\n    {},\n    {}\n  ],\n",
            "  \"speedup_makespan\": {:.2},\n  \"equivalent\": true,\n",
            "  \"trace_sha256\": \"{}\"\n}}\n"
        ),
        spec.seeds.first().copied().unwrap_or(23),
        spec.params.u64("requests", 6).ok()?,
        spec.params.f64("min_rate", mixed::DEFAULT_MIN_RATE).ok()? / 1e6,
        sched.fragment.as_deref()?,
        legacy.fragment.as_deref()?,
        speedup,
        trace_sha,
    ))
}

/// Baseline from the committed artifact: per-variant deterministic
/// makespan/throughput (keyed by the variant's `mode`).
pub fn baseline(artifact: &Json) -> Result<Baseline, String> {
    let variants = artifact
        .get("variants")
        .and_then(Json::as_arr)
        .ok_or("baseline has no variants array")?;
    let mut out = Baseline::new();
    for v in variants {
        let mode = v
            .get("mode")
            .and_then(Json::as_str)
            .ok_or("baseline variant has no mode")?;
        let mut m = std::collections::BTreeMap::new();
        for key in ["makespan_s", "aggregate_mb_s", "mean_sojourn_s"] {
            if let Some(val) = v.get(key).and_then(Json::as_f64) {
                m.insert(key.to_string(), val);
            }
        }
        out.insert(mode.to_string(), m);
    }
    Ok(out)
}
