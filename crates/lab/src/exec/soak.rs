//! Soak executors (faults + corruption): randomized adversity against
//! the request manager's reliability and integrity layers.
//!
//! Trace-parity warning: these reproduce the pre-migration soak bins
//! *draw-for-draw*.

use super::{put, put_counts, put_deliveries, put_str, random_requests, TrialCtx};
use crate::journal::{AuxFile, TrialRecord};
use esg_simnet::prelude::{inject_all, Fault, FaultKind};
use esg_simnet::{SimDuration, SimTime};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::{HashMap, HashSet};

const FAULTS_DS: &str = "pcm_soak.b06";
const INTG_DS: &str = "pcm_intg.b06";
const INTG_FILE_SIZE: u64 = 8_000_000;

/// `(metric, trace event)` rows `soak_faults` counts.
const FAULT_COUNTS: [(&str, &str); 8] = [
    ("transfer_attempts", "rm.replica.selected"),
    ("retry_backoffs", "rm.retry.backoff"),
    ("failovers", "rm.reliability.failover"),
    ("restart_markers", "rm.failover.restart_marker"),
    ("breaker_opens", "rm.breaker.open"),
    ("breaker_half_opens", "rm.breaker.half_open"),
    ("breaker_closes", "rm.breaker.close"),
    ("files_failed", "rm.file.failed"),
];

/// `(metric, trace event)` rows `soak_corruption` counts.
const CORRUPTION_COUNTS: [(&str, &str); 8] = [
    ("files_verified", "integrity.file.verified"),
    ("rm_completes", "rm.file.complete"),
    ("block_mismatches", "integrity.block.mismatch"),
    ("eret_repairs", "integrity.repair.eret"),
    ("escalations", "integrity.repair.escalate"),
    ("quarantines", "integrity.replica.quarantine"),
    ("rehabilitations", "integrity.replica.rehabilitated"),
    ("files_failed", "rm.file.failed"),
];

pub fn run_faults(ctx: &TrialCtx) -> Result<TrialRecord, String> {
    let p = &ctx.params;
    let n_requests = p.usize("requests", 200)?;
    let seed = ctx.seed;

    let mut tb = esg_core::esg_testbed(seed);
    tb.publish_dataset(FAULTS_DS, 24, 4, 2_000_000, &[1, 2, 3, 4, 5]);
    let names = tb
        .sim
        .world
        .metadata
        .request_files(FAULTS_DS)
        .map_err(|e| format!("request_files: {e}"))?;
    tb.start_nws(SimDuration::from_secs(25));
    tb.sim.run_until(SimTime::from_secs(100));

    let mut rng = StdRng::seed_from_u64(seed ^ 0xD1CE_5EED_0BAD_F00D);

    let mut faults = Vec::new();
    for _ in 0..24 {
        let at = SimTime::from_secs(rng.gen_range(120u64..1200));
        let duration = SimDuration::from_secs(rng.gen_range(5u64..90));
        let kind = if rng.gen_bool(0.3) {
            FaultKind::NameServiceDown
        } else {
            FaultKind::NodeDown(tb.sites[rng.gen_range(1usize..6)].node)
        };
        faults.push(Fault::new(at, duration, kind));
    }
    faults.extend(super::spec_faults(&ctx.spec.faults, &tb.sites)?);
    let n_faults = faults.len();
    inject_all(&mut tb.sim, &faults);

    random_requests(&mut tb, &mut rng, &names, n_requests, 100..1300, 3);

    let wall = std::time::Instant::now();
    tb.sim.run_until(SimTime::from_secs(3600));
    let wall = wall.elapsed();

    let outcomes = &tb.sim.world.outcomes;
    let log = &tb.sim.world.rm.log;
    let mut rec = ctx.record();
    put(&mut rec, "requests", n_requests as f64);
    put(&mut rec, "requests_done", outcomes.len() as f64);
    put(&mut rec, "faults_injected", n_faults as f64);
    put_deliveries(&mut rec, outcomes);
    put_counts(&mut rec, log, &FAULT_COUNTS);
    put_str(&mut rec, "trace_sha256", crate::sha_hex(&log.to_ulm()));
    rec.timing
        .push(("wall_ms".into(), wall.as_secs_f64() * 1e3));
    Ok(rec)
}

pub fn run_corruption(ctx: &TrialCtx) -> Result<TrialRecord, String> {
    let p = &ctx.params;
    let n_requests = p.usize("requests", 120)?;
    let trace_path = p.str("trace_path", "SOAK_corruption.ulm")?.to_string();
    let seed = ctx.seed;

    let mut tb = esg_core::esg_testbed(seed);
    tb.sim
        .world
        .rm
        .hrms
        .get_mut("hpss.lbl.gov")
        .ok_or("hpss.lbl.gov HRM missing from testbed")?
        .enable_tape_errors(3, seed);
    tb.sim.world.rm.integrity.quarantine_threshold = 1;
    tb.publish_dataset(INTG_DS, 24, 4, 2_000_000, &[0, 1, 2, 3, 4, 5]);
    let names = tb
        .sim
        .world
        .metadata
        .request_files(INTG_DS)
        .map_err(|e| format!("request_files: {e}"))?;
    tb.start_nws(SimDuration::from_secs(25));
    tb.sim.run_until(SimTime::from_secs(100));

    let mut rng = StdRng::seed_from_u64(seed ^ 0x0BAD_B10C_C0DE_C0DE);

    // At-rest block flips on the disk sites, capped at three of the five
    // disk replicas per file so a clean repair source always survives.
    let mut corrupted: HashMap<String, HashSet<usize>> = HashMap::new();
    let mut flips = 0usize;
    for _ in 0..30 {
        let si = rng.gen_range(1usize..6);
        let (_, name) = names[rng.gen_range(0usize..names.len())].clone();
        let hit_sites = corrupted.entry(name.clone()).or_default();
        if !hit_sites.contains(&si) && hit_sites.len() >= 3 {
            continue;
        }
        hit_sites.insert(si);
        let host = tb.sites[si].host.clone();
        let block = rng.gen_range(0u64..INTG_FILE_SIZE.div_ceil(1 << 20));
        let nonce = rng.gen::<u64>() | 1;
        let at = SimTime::from_secs(rng.gen_range(50u64..1200));
        flips += 1;
        tb.sim.schedule_at(at, move |sim| {
            sim.world.rm.corrupt_at_rest(&host, &name, block, nonce, at);
        });
    }

    // In-flight corruption windows at the storage sites.
    let mut faults = Vec::new();
    for _ in 0..8 {
        let at = SimTime::from_secs(rng.gen_range(120u64..1200));
        let duration = SimDuration::from_secs(rng.gen_range(10u64..60));
        let site = rng.gen_range(1usize..6);
        faults.push(Fault::new(
            at,
            duration,
            FaultKind::WireCorrupt(tb.sites[site].node),
        ));
    }
    let wire_windows = faults.len();
    faults.extend(super::spec_faults(&ctx.spec.faults, &tb.sites)?);
    inject_all(&mut tb.sim, &faults);

    random_requests(&mut tb, &mut rng, &names, n_requests, 100..1300, 2);

    let wall = std::time::Instant::now();
    tb.sim.run_until(SimTime::from_secs(3600));
    let wall = wall.elapsed();

    let outcomes = &tb.sim.world.outcomes;
    let log = &tb.sim.world.rm.log;
    let repair_bytes: f64 = log
        .named("integrity.repair.eret")
        .filter_map(|e| e.get_num("bytes"))
        .sum();

    let trace = log.to_ulm();
    let trace_sha = crate::sha_hex(&trace);
    std::fs::write(&trace_path, &trace).map_err(|e| format!("write {trace_path}: {e}"))?;

    let mut rec = ctx.record();
    put(&mut rec, "requests", n_requests as f64);
    put(&mut rec, "requests_done", outcomes.len() as f64);
    put(&mut rec, "at_rest_flips", flips as f64);
    put(&mut rec, "wire_windows", wire_windows as f64);
    put_deliveries(&mut rec, outcomes);
    put_counts(&mut rec, log, &CORRUPTION_COUNTS);
    put(&mut rec, "repair_bytes", repair_bytes);
    put(&mut rec, "trace_events", log.len() as f64);
    put_str(&mut rec, "trace_sha256", trace_sha.clone());
    rec.timing
        .push(("wall_ms".into(), wall.as_secs_f64() * 1e3));
    rec.aux.push(AuxFile {
        path: trace_path,
        sha256: trace_sha,
    });
    Ok(rec)
}
