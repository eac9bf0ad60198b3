//! `lifeline` executor (A13): causal tracing and Figure-8 lifeline
//! reconstruction over the shared mixed hot/cold workload. The old
//! bin's fail-fast asserts became counted metrics the spec gates on
//! (lifelines complete == lifelines, tiling gap <= 1e-6, transfer spans
//! cover every byte, one critical path per request, ULM round-trip
//! identical); the full `BENCH_lifeline.json` body is produced here as
//! the trial fragment, and the raw ULM trace is journaled as an
//! auxiliary file by path + sha256.

use super::{mixed, TrialCtx};
use crate::journal::{AuxFile, MetricValue, MetricValue::Num, TrialRecord};
use esg_netlogger::{LifelineSet, NetLog};
use std::collections::BTreeMap;
use std::fmt::Write as _;

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

    // The whole committed artifact body is this trial's fragment,
    // byte-format-identical to the old bin.
    let mut json = String::new();
    write!(
        json,
        concat!(
            "{{\n  \"bench\": \"lifeline\",\n  \"seed\": {},\n  \"requests\": {},\n",
            "  \"files\": {},\n  \"lifelines\": {},\n  \"complete\": {},\n",
            "  \"orphans\": {},\n  \"max_tiling_gap_s\": {:.3e},\n",
            "  \"delivered_bytes\": {},\n  \"transfer_span_bytes\": {},\n",
            "  \"roundtrip_identical\": true,\n  \"stall_threshold_s\": {:.0},\n",
            "  \"stalls\": {},\n  \"trace_sha256\": \"{}\",\n"
        ),
        ctx.seed,
        n_requests,
        files_delivered,
        set.lifelines.len(),
        complete,
        set.orphans.len(),
        max_gap,
        delivered_bytes,
        span_bytes,
        stall_s,
        stalls.len(),
        trace_sha,
    )
    .unwrap();
    json.push_str("  \"phase_totals_s\": {");
    for (i, (ph, d)) in phase_totals.iter().enumerate() {
        if i > 0 {
            json.push_str(", ");
        }
        write!(json, "\"{ph}\": {d:.3}").unwrap();
    }
    json.push_str("},\n  \"critical_paths\": [\n");
    for (i, cp) in cps.iter().enumerate() {
        writeln!(
            json,
            "    {{\"request\": {}, \"file\": \"{}\", \"makespan_s\": {:.3}}}{}",
            cp.request,
            cp.file,
            cp.makespan_s,
            if i + 1 < cps.len() { "," } else { "" }
        )
        .unwrap();
    }
    json.push_str("  ],\n  \"metrics\": ");
    json.push_str(&reg.to_json());
    json.push_str("\n}\n");

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
    // Spec-declared registry metrics ride along under a `reg.` prefix, so
    // gates can target the unified snapshot directly.
    for name in &ctx.spec.metrics {
        if let Some(v) = reg.value(name) {
            metrics.push((format!("reg.{name}"), Num(v)));
        }
    }

    Ok(TrialRecord {
        key: ctx.key(),
        metrics,
        timing: vec![("wall_ms".into(), run.wall.as_secs_f64() * 1e3)],
        fragment: Some(json),
        aux: vec![AuxFile {
            path: trace_path,
            sha256: trace_sha,
        }],
    })
}

/// The lifeline artifact is the (single) trial's fragment verbatim.
pub fn assemble(rows: &[TrialRecord]) -> Option<String> {
    rows.first().and_then(|r| r.fragment.clone())
}
