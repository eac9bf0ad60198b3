//! `lifeline` executor (A13): causal tracing and Figure-8 lifeline
//! reconstruction over the shared mixed hot/cold workload. The old
//! bin's fail-fast asserts became counted metrics the spec gates on
//! (lifelines complete == lifelines, tiling gap <= 1e-6, transfer spans
//! cover every byte, one critical path per request, ULM round-trip
//! identical). The analysis the old bin printed — per-phase totals, each
//! request's critical path and the whole metrics-registry snapshot — is
//! metrics of the record, and the raw ULM trace is journaled as an
//! auxiliary file by path + sha256.

use super::{mixed, put, put_str, TrialCtx};
use crate::journal::{AuxFile, TrialRecord};
use esg_netlogger::{LifelineSet, NetLog};
use std::collections::BTreeMap;

pub const DISK_DS: &str = "pcm_life.disk";
pub const TAPE_DS: &str = "pcm_life.tape";

pub fn run(ctx: &TrialCtx) -> Result<TrialRecord, String> {
    let p = &ctx.params;
    let n_requests = p.usize("requests", 6)?;
    let min_rate = p.f64("min_rate", mixed::DEFAULT_MIN_RATE)?;
    let stall_s = p.f64("stall_threshold_s", 120.0)?;
    let artifact = ctx
        .spec
        .artifact
        .clone()
        .unwrap_or_else(|| "BENCH_lifeline.json".into());
    let trace_path = artifact.replace(".json", "_trace.ulm");

    let mut run = mixed::run_mixed(
        ctx.seed,
        &mixed::MixedConfig {
            disk_ds: DISK_DS,
            tape_ds: TAPE_DS,
            scheduler_on: None,
            min_rate,
            n_requests,
        },
        &ctx.spec.faults,
    )?;
    let outcomes = std::mem::take(&mut run.tb.sim.world.outcomes);
    let tb = &mut run.tb;

    // ULM round-trip: export -> parse -> export must be byte-identical,
    // and the analysis runs on the *parsed* trace like the paper's
    // offline pipeline did.
    let ulm = tb.sim.world.rm.log.to_ulm();
    let parsed = NetLog::from_ulm(&ulm).map_err(|e| format!("trace does not parse back: {e}"))?;
    let roundtrip_identical = parsed.to_ulm() == ulm;

    let set = LifelineSet::from_log(&parsed);
    let mut max_gap = 0.0f64;
    let mut delivered_bytes = 0u64;
    let mut span_bytes = 0u64;
    let mut n_files = 0usize;
    let mut files_delivered = 0usize;
    let mut files_with_lifeline = 0usize;
    let mut files_bytes_exact = 0usize;
    let mut files_status_done = 0usize;
    for o in &outcomes {
        for f in &o.files {
            n_files += 1;
            if !f.done {
                continue;
            }
            files_delivered += 1;
            delivered_bytes += f.size;
            let Some(l) = set.lifeline(o.id, &f.name) else {
                continue;
            };
            files_with_lifeline += 1;
            max_gap = max_gap.max(l.tiling_gap_s().unwrap_or(f64::INFINITY));
            span_bytes += l.transfer_bytes();
            if l.transfer_bytes() == f.size {
                files_bytes_exact += 1;
            }
            if l.status() == Some("done") {
                files_status_done += 1;
            }
        }
    }
    let complete = set.lifelines.iter().filter(|l| l.is_complete()).count();
    let cps = set.critical_paths();
    let stalls = set.detect_stalls(stall_s);

    let mut phase_totals: BTreeMap<&'static str, f64> = BTreeMap::new();
    for l in &set.lifelines {
        for (ph, d) in l.phase_totals() {
            *phase_totals.entry(ph).or_insert(0.0) += d;
        }
    }

    // Unified metrics snapshot: RM + allocator + GridFTP + integrity.
    let mut reg = tb.sim.world.rm.metrics.clone();
    reg.import_alloc(&tb.sim.net.alloc_stats());
    tb.sim.world.gridftp.export_metrics(&mut reg);
    tb.sim.world.rm.integrity.export_metrics(&mut reg);

    let trace_sha = crate::sha_hex(&ulm);
    std::fs::write(&trace_path, &ulm).map_err(|e| format!("write {trace_path}: {e}"))?;

    let mut rec = ctx.record();
    put(&mut rec, "requests", n_requests as f64);
    put(&mut rec, "requests_done", outcomes.len() as f64);
    put(&mut rec, "files", n_files as f64);
    put(&mut rec, "files_delivered", files_delivered as f64);
    put(&mut rec, "files_with_lifeline", files_with_lifeline as f64);
    put(&mut rec, "files_bytes_exact", files_bytes_exact as f64);
    put(&mut rec, "files_status_done", files_status_done as f64);
    put(&mut rec, "lifelines", set.lifelines.len() as f64);
    put(&mut rec, "lifelines_complete", complete as f64);
    put(&mut rec, "orphans", set.orphans.len() as f64);
    put(&mut rec, "max_tiling_gap_s", max_gap);
    put(&mut rec, "delivered_bytes", delivered_bytes as f64);
    put(&mut rec, "transfer_span_bytes", span_bytes as f64);
    put(
        &mut rec,
        "roundtrip_identical",
        f64::from(roundtrip_identical),
    );
    put(&mut rec, "critical_paths", cps.len() as f64);
    put(&mut rec, "stalls", stalls.len() as f64);
    let open = stalls.iter().filter(|s| s.open).count();
    put(&mut rec, "stalls_open", open as f64);
    put_str(&mut rec, "trace_sha256", trace_sha.clone());
    for (ph, d) in phase_totals {
        put(&mut rec, &format!("phase_total_s.{ph}"), d);
    }
    for cp in &cps {
        let at = format!("critical_path.{}", cp.request);
        put_str(&mut rec, &format!("{at}.file"), cp.file.to_string());
        put(&mut rec, &format!("{at}.makespan_s"), cp.makespan_s);
    }
    // The whole registry snapshot rides along under a `reg.` prefix, so
    // gates can target the unified snapshot directly.
    for (k, v) in reg.flat() {
        put(&mut rec, &format!("reg.{k}"), v);
    }
    rec.timing
        .push(("wall_ms".into(), run.wall.as_secs_f64() * 1e3));
    rec.aux.push(AuxFile {
        path: trace_path,
        sha256: trace_sha,
    });
    Ok(rec)
}
