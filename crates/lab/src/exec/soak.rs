//! Soak executors (faults + corruption): randomized adversity against
//! the request manager's reliability and integrity layers.
//!
//! Trace-parity warning: these reproduce the pre-migration soak bins
//! *draw-for-draw*.

use super::TrialCtx;
use crate::journal::{AuxFile, MetricValue, MetricValue::Num, TrialRecord};
use esg_reqman::submit_request;
use esg_simnet::prelude::{inject_all, Fault, FaultKind};
use esg_simnet::{SimDuration, SimTime};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::{HashMap, HashSet};

const FAULTS_DS: &str = "pcm_soak.b06";
const INTG_DS: &str = "pcm_intg.b06";
const INTG_FILE_SIZE: u64 = 8_000_000;

pub fn run_faults(ctx: &TrialCtx) -> Result<TrialRecord, String> {
    let p = &ctx.params;
    let n_requests = p.usize("requests", 200)?;
    let seed = ctx.seed;

    let mut tb = esg_core::esg_testbed(seed);
    tb.publish_dataset(FAULTS_DS, 24, 4, 2_000_000, &[1, 2, 3, 4, 5]);
    let collection = tb
        .sim
        .world
        .metadata
        .collection_of(FAULTS_DS)
        .map_err(|e| format!("collection_of: {e}"))?;
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

    let names: Vec<(String, String)> = tb
        .sim
        .world
        .metadata
        .all_files(FAULTS_DS)
        .map_err(|e| format!("all_files: {e}"))?
        .iter()
        .map(|f| (collection.clone(), f.name.clone()))
        .collect();

    let client = tb.client;
    for _ in 0..n_requests {
        let at = SimTime::from_secs(rng.gen_range(100u64..1300));
        let k = rng.gen_range(1usize..=3);
        let files: Vec<_> = (0..k)
            .map(|_| names[rng.gen_range(0usize..names.len())].clone())
            .collect();
        tb.sim.schedule_at(at, move |sim| {
            submit_request(sim, client, files, |s, o| s.world.outcomes.push(o));
        });
    }

    let wall = std::time::Instant::now();
    tb.sim.run_until(SimTime::from_secs(3600));
    let wall = wall.elapsed();

    let outcomes = &tb.sim.world.outcomes;
    let log = &tb.sim.world.rm.log;
    let count = |name: &str| log.named(name).count();
    let files: usize = outcomes.iter().map(|o| o.files.len()).sum();
    let complete = outcomes
        .iter()
        .flat_map(|o| o.files.iter())
        .filter(|f| f.done && f.bytes_done == f.size)
        .count();
    let bytes: u64 = outcomes
        .iter()
        .flat_map(|o| o.files.iter())
        .map(|f| f.bytes_done)
        .sum();

    Ok(TrialRecord {
        key: ctx.key(),
        metrics: vec![
            ("requests".into(), Num(n_requests as f64)),
            ("requests_done".into(), Num(outcomes.len() as f64)),
            ("faults_injected".into(), Num(n_faults as f64)),
            ("files".into(), Num(files as f64)),
            ("files_complete".into(), Num(complete as f64)),
            ("bytes_delivered".into(), Num(bytes as f64)),
            (
                "transfer_attempts".into(),
                Num(count("rm.replica.selected") as f64),
            ),
            (
                "retry_backoffs".into(),
                Num(count("rm.retry.backoff") as f64),
            ),
            (
                "failovers".into(),
                Num(count("rm.reliability.failover") as f64),
            ),
            (
                "restart_markers".into(),
                Num(count("rm.failover.restart_marker") as f64),
            ),
            ("breaker_opens".into(), Num(count("rm.breaker.open") as f64)),
            (
                "breaker_half_opens".into(),
                Num(count("rm.breaker.half_open") as f64),
            ),
            (
                "breaker_closes".into(),
                Num(count("rm.breaker.close") as f64),
            ),
            ("files_failed".into(), Num(count("rm.file.failed") as f64)),
            (
                "trace_sha256".into(),
                MetricValue::Str(crate::sha_hex(&log.to_ulm())),
            ),
        ],
        timing: vec![("wall_ms".into(), wall.as_secs_f64() * 1e3)],
        aux: Vec::<AuxFile>::new(),
    })
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
    let collection = tb
        .sim
        .world
        .metadata
        .collection_of(INTG_DS)
        .map_err(|e| format!("collection_of: {e}"))?;
    tb.start_nws(SimDuration::from_secs(25));
    tb.sim.run_until(SimTime::from_secs(100));

    let names: Vec<(String, String)> = tb
        .sim
        .world
        .metadata
        .all_files(INTG_DS)
        .map_err(|e| format!("all_files: {e}"))?
        .iter()
        .map(|f| (collection.clone(), f.name.clone()))
        .collect();

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

    let client = tb.client;
    for _ in 0..n_requests {
        let at = SimTime::from_secs(rng.gen_range(100u64..1300));
        let k = rng.gen_range(1usize..=2);
        let files: Vec<_> = (0..k)
            .map(|_| names[rng.gen_range(0usize..names.len())].clone())
            .collect();
        tb.sim.schedule_at(at, move |sim| {
            submit_request(sim, client, files, |s, o| s.world.outcomes.push(o));
        });
    }

    let wall = std::time::Instant::now();
    tb.sim.run_until(SimTime::from_secs(3600));
    let wall = wall.elapsed();

    let outcomes = &tb.sim.world.outcomes;
    let log = &tb.sim.world.rm.log;
    let count = |name: &str| log.named(name).count();
    let files: usize = outcomes.iter().map(|o| o.files.len()).sum();
    let complete = outcomes
        .iter()
        .flat_map(|o| o.files.iter())
        .filter(|f| f.done && f.bytes_done == f.size)
        .count();
    let bytes: u64 = outcomes
        .iter()
        .flat_map(|o| o.files.iter())
        .map(|f| f.bytes_done)
        .sum();
    let repair_bytes: f64 = log
        .named("integrity.repair.eret")
        .filter_map(|e| e.get_num("bytes"))
        .sum();

    let trace = log.to_ulm();
    let trace_sha = crate::sha_hex(&trace);
    std::fs::write(&trace_path, &trace).map_err(|e| format!("write {trace_path}: {e}"))?;

    Ok(TrialRecord {
        key: ctx.key(),
        metrics: vec![
            ("requests".into(), Num(n_requests as f64)),
            ("requests_done".into(), Num(outcomes.len() as f64)),
            ("at_rest_flips".into(), Num(flips as f64)),
            ("wire_windows".into(), Num(wire_windows as f64)),
            ("files".into(), Num(files as f64)),
            ("files_complete".into(), Num(complete as f64)),
            ("bytes_delivered".into(), Num(bytes as f64)),
            (
                "files_verified".into(),
                Num(count("integrity.file.verified") as f64),
            ),
            ("rm_completes".into(), Num(count("rm.file.complete") as f64)),
            (
                "block_mismatches".into(),
                Num(count("integrity.block.mismatch") as f64),
            ),
            (
                "eret_repairs".into(),
                Num(count("integrity.repair.eret") as f64),
            ),
            ("repair_bytes".into(), Num(repair_bytes)),
            (
                "escalations".into(),
                Num(count("integrity.repair.escalate") as f64),
            ),
            (
                "quarantines".into(),
                Num(count("integrity.replica.quarantine") as f64),
            ),
            (
                "rehabilitations".into(),
                Num(count("integrity.replica.rehabilitated") as f64),
            ),
            ("files_failed".into(), Num(count("rm.file.failed") as f64)),
            ("trace_events".into(), Num(log.len() as f64)),
            ("trace_sha256".into(), MetricValue::Str(trace_sha.clone())),
        ],
        timing: vec![("wall_ms".into(), wall.as_secs_f64() * 1e3)],
        aux: vec![AuxFile {
            path: trace_path,
            sha256: trace_sha,
        }],
    })
}
