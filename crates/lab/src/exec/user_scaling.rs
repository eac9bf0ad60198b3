//! `user_scaling` executor: one trial = one point of the A10/A14 flow
//! scaling curve — the seeded workload checked against the from-scratch
//! oracle by in-run probes (`scaling::run_curve_point`).

use super::TrialCtx;
use crate::journal::{MetricValue, MetricValue::Num, TrialRecord};
use crate::scaling::run_curve_point;

pub fn run(ctx: &TrialCtx) -> Result<TrialRecord, String> {
    let p = &ctx.params;
    let n = p.usize("n", 1200)?;
    let regions = p.usize("regions", 32)?;
    let oracle_probes = p.usize("oracle_probes", 8)?;
    let repeats = p.usize("repeats", 3)?;
    if !ctx.spec.faults.is_empty() {
        return Err("user_scaling does not take a spec fault schedule".into());
    }

    // run_curve_point panics on any divergence; reaching the return means
    // every oracle probe matched bitwise and every repeat was identical.
    let point = run_curve_point(n, regions, ctx.seed, oracle_probes, repeats);
    let trace_sha256 = crate::sha_hex(&point.trace_ulm);

    let metrics = vec![
        ("n".to_string(), Num(n as f64)),
        ("regions".to_string(), Num(regions as f64)),
        ("equivalent".to_string(), Num(1.0)),
        (
            "oracle_probes".to_string(),
            Num(point.oracle_probes_run as f64),
        ),
        (
            "recompute_passes".to_string(),
            Num(point.stats.recompute_passes as f64),
        ),
        (
            "components_solved".to_string(),
            Num(point.stats.components_solved as f64),
        ),
        (
            "flow_solves".to_string(),
            Num(point.stats.flow_solves as f64),
        ),
        (
            "rate_changes".to_string(),
            Num(point.stats.rate_changes as f64),
        ),
        (
            "peak_concurrent_flows".to_string(),
            Num(point.peak_concurrent as f64),
        ),
        ("trace_sha256".to_string(), MetricValue::Str(trace_sha256)),
    ];

    let timing = vec![
        ("wall_ms".to_string(), point.wall.as_secs_f64() * 1e3),
        (
            "peak_rss_kb".to_string(),
            point.peak_rss_kb.unwrap_or(0) as f64,
        ),
    ];

    Ok(TrialRecord {
        key: ctx.key(),
        metrics,
        timing,
        aux: vec![],
    })
}
