//! `user_scaling` executor: one trial = one point of the A10/A14 flow
//! scaling curve — the seeded workload checked against the from-scratch
//! oracle by in-run probes (`scaling::run_curve_point`).

use super::{put, put_str, TrialCtx};
use crate::journal::TrialRecord;
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

    let stats = &point.stats;
    let mut rec = ctx.record();
    put(&mut rec, "n", n as f64);
    put(&mut rec, "regions", regions as f64);
    put(&mut rec, "equivalent", 1.0);
    put(&mut rec, "oracle_probes", point.oracle_probes_run as f64);
    put(&mut rec, "recompute_passes", stats.recompute_passes as f64);
    put(
        &mut rec,
        "components_solved",
        stats.components_solved as f64,
    );
    put(&mut rec, "flow_solves", stats.flow_solves as f64);
    put(&mut rec, "rate_changes", stats.rate_changes as f64);
    put(
        &mut rec,
        "peak_concurrent_flows",
        point.peak_concurrent as f64,
    );
    put_str(&mut rec, "trace_sha256", trace_sha256);
    rec.timing.extend([
        ("wall_ms".into(), point.wall.as_secs_f64() * 1e3),
        ("peak_rss_kb".into(), point.peak_rss_kb.unwrap_or(0) as f64),
    ]);
    Ok(rec)
}
