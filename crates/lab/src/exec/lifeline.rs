//! `lifeline` executor (A13): causal tracing and Figure-8 lifeline
//! reconstruction over the shared mixed hot/cold workload. The old
//! bin's fail-fast asserts became counted metrics the spec gates on
//! (lifelines complete == lifelines, tiling gap <= 1e-6, transfer spans
//! cover every byte, one critical path per request, ULM round-trip
//! identical). The analysis the old bin printed — per-phase totals, each
//! request's critical path and the whole metrics-registry snapshot — is
//! metrics of the record, and the raw ULM trace is journaled as an
//! auxiliary file by path + sha256.

use super::{mixed, TrialCtx};
use crate::journal::{AuxFile, MetricValue, MetricValue::Num, TrialRecord};
use esg_netlogger::{LifelineSet, MetricsRegistry, NetLog};
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

    let mut metrics = vec![
        ("requests".into(), Num(n_requests as f64)),
        ("requests_done".into(), Num(outcomes.len() as f64)),
        ("files".into(), Num(n_files as f64)),
        ("files_delivered".into(), Num(files_delivered as f64)),
        (
            "files_with_lifeline".into(),
            Num(files_with_lifeline as f64),
        ),
        ("files_bytes_exact".into(), Num(files_bytes_exact as f64)),
        ("files_status_done".into(), Num(files_status_done as f64)),
        ("lifelines".into(), Num(set.lifelines.len() as f64)),
        ("lifelines_complete".into(), Num(complete as f64)),
        ("orphans".into(), Num(set.orphans.len() as f64)),
        ("max_tiling_gap_s".into(), Num(max_gap)),
        ("delivered_bytes".into(), Num(delivered_bytes as f64)),
        ("transfer_span_bytes".into(), Num(span_bytes as f64)),
        (
            "roundtrip_identical".into(),
            Num(roundtrip_identical as u64 as f64),
        ),
        ("critical_paths".into(), Num(cps.len() as f64)),
        ("stalls".into(), Num(stalls.len() as f64)),
        (
            "stalls_open".into(),
            Num(stalls.iter().filter(|s| s.open).count() as f64),
        ),
        ("trace_sha256".into(), MetricValue::Str(trace_sha.clone())),
    ];
    for (ph, d) in phase_totals {
        metrics.push((format!("phase_total_s.{ph}"), Num(d)));
    }
    for cp in &cps {
        let at = format!("critical_path.{}", cp.request);
        metrics.push((format!("{at}.file"), MetricValue::Str(cp.file.to_string())));
        metrics.push((format!("{at}.makespan_s"), Num(cp.makespan_s)));
    }
    // The whole registry snapshot rides along under a `reg.` prefix, so
    // gates can target the unified snapshot directly.
    metrics.extend(registry_metrics(&reg));

    Ok(TrialRecord {
        key: ctx.key(),
        metrics,
        timing: vec![("wall_ms".into(), run.wall.as_secs_f64() * 1e3)],
        aux: vec![AuxFile {
            path: trace_path,
            sha256: trace_sha,
        }],
    })
}

/// Every counter and gauge of `reg` by name, and every histogram's count,
/// sum, min, max, p50 and p99 as `<name>.<field>`, each under `reg.`.
fn registry_metrics(reg: &MetricsRegistry) -> Vec<(String, MetricValue)> {
    let mut out: Vec<(String, f64)> = reg.counters().map(|(k, v)| (k.into(), v as f64)).collect();
    out.extend(reg.gauges().map(|(k, v)| (k.into(), v)));
    for (k, h) in reg.histograms() {
        out.extend([
            (format!("{k}.count"), h.count() as f64),
            (format!("{k}.sum"), h.sum()),
            (format!("{k}.min"), h.min().unwrap_or(0.0)),
            (format!("{k}.max"), h.max().unwrap_or(0.0)),
            (format!("{k}.p50"), h.quantile(0.5).unwrap_or(0.0)),
            (format!("{k}.p99"), h.quantile(0.99).unwrap_or(0.0)),
        ]);
    }
    out.into_iter()
        .map(|(k, v)| (format!("reg.{k}"), Num(v)))
        .collect()
}
