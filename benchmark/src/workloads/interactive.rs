//! `interactive_faults`: many small requests against a faulty grid, with
//! the observability plane on — the request manager used the other way
//! from `campaign_round`.
//!
//! One rep runs several independent worlds (seeds derived from the
//! workload seed) so the fault lottery of any single world averages out.

use super::{add_profile, add_world, profiled, Ctx, Laps, Rep};
use crate::stats;
use esg_lab::sha_hex;
use esg_reqman::submit_request;
use esg_simnet::prelude::{inject_all, Fault, FaultKind};
use esg_simnet::{SimDuration, SimTime};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::{HashMap, HashSet};
use std::time::Instant;

const DS_DISK: &str = "pcm_disk.b06";
const DS_TAPE: &str = "pcm_tape.b06";
/// 24 steps in files of 4: six 8 MB files per dataset.
const STEPS: usize = 24;
const STEPS_PER_FILE: usize = 4;
const BYTES_PER_STEP: u64 = 2_000_000;
const FILE_BLOCKS: u64 = (STEPS_PER_FILE as u64 * BYTES_PER_STEP).div_ceil(1 << 20);
const FILES_PER_DATASET: usize = STEPS / STEPS_PER_FILE;
/// Sites 1..=5 are disk servers; site 0 is HPSS behind the HRM.
const DISK_SITES: [usize; 5] = [1, 2, 3, 4, 5];
const TAPE_SITE: usize = 0;
const ARRIVAL_WINDOW_MS: u64 = 1_200_000;
const STALL_THRESHOLD_S: u64 = 30;
/// Simulated seconds per timed slice.
const SLICE_SIM_S: u64 = 25;

/// `(worlds, requests per world)`. 2400 requests log about 94 k events:
/// clear of 131 072, where the trace's backing vector doubles and peak RSS
/// jumps by 20 MB for the seeds that cross it.
pub fn sizes(quick: bool) -> (usize, usize) {
    if quick {
        (1, 400)
    } else {
        (4, 2400)
    }
}

#[derive(Debug, Clone, PartialEq)]
pub enum PlannedFault {
    NodeDown { site: usize },
    NameServiceDown,
    WireCorrupt { site: usize },
}

/// Everything one world is fed, as plain data: a pure function of the
/// world seed.
#[derive(Debug, Clone, PartialEq)]
pub struct Plan {
    /// `(at_s, for_s, kind)`.
    pub faults: Vec<(u64, u64, PlannedFault)>,
    /// `(at_s, site, file index in the disk dataset, block, nonce)`.
    pub flips: Vec<(u64, usize, usize, u64, u64)>,
    /// `(arrival in ms after t = 100 s, file indices)`; indices below
    /// `FILES_PER_DATASET` are disk files, the rest tape files.
    pub requests: Vec<(u64, Vec<usize>)>,
}

pub fn plan(world_seed: u64, requests: usize) -> Plan {
    let mut rng = StdRng::seed_from_u64(world_seed ^ 0xD1CE_5EED_0BAD_F00D);
    let mut faults = Vec::new();
    // The kinds are stratified — every world gets exactly 7 name-service
    // outages and 17 node outages, when and where is the seed's — because a
    // name-service outage stalls every site at once and their count would
    // otherwise decide a world's work.
    for i in 0..24 {
        let at = rng.gen_range(120u64..1200);
        let dur = rng.gen_range(5u64..90);
        let kind = if i < 7 {
            PlannedFault::NameServiceDown
        } else {
            PlannedFault::NodeDown {
                site: rng.gen_range(1usize..6),
            }
        };
        faults.push((at, dur, kind));
    }
    for _ in 0..8 {
        let at = rng.gen_range(120u64..1200);
        let dur = rng.gen_range(10u64..60);
        let site = rng.gen_range(1usize..6);
        faults.push((at, dur, PlannedFault::WireCorrupt { site }));
    }
    // At-rest flips hit at most three of a file's five disk replicas, so a
    // clean repair source always survives and no request can fail.
    let mut hit: HashMap<usize, HashSet<usize>> = HashMap::new();
    let mut flips = Vec::new();
    for _ in 0..30 {
        let site = rng.gen_range(1usize..6);
        let file = rng.gen_range(0usize..FILES_PER_DATASET);
        let block = rng.gen_range(0u64..FILE_BLOCKS);
        let nonce = rng.gen::<u64>() | 1;
        let at = rng.gen_range(50u64..1200);
        let sites = hit.entry(file).or_default();
        if !sites.contains(&site) && sites.len() >= 3 {
            continue;
        }
        sites.insert(site);
        flips.push((at, site, file, block, nonce));
    }
    let requests = (0..requests)
        .map(|_| {
            let at_ms = rng.gen_range(0u64..ARRIVAL_WINDOW_MS);
            let k = rng.gen_range(1usize..=3);
            let files = (0..k)
                .map(|_| rng.gen_range(0usize..2 * FILES_PER_DATASET))
                .collect();
            (at_ms, files)
        })
        .collect();
    Plan {
        faults,
        flips,
        requests,
    }
}

/// Seeds of the rep's worlds, derived from the workload seed.
pub fn world_seeds(seed: u64, worlds: usize) -> Vec<u64> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x1A7E_AC71_5EED);
    (0..worlds).map(|_| rng.gen()).collect()
}

struct WorldResult {
    setup_s: f64,
    files: u64,
    bytes: u64,
    makespan_s: f64,
    sojourns_s: Vec<f64>,
    outcome_sha: String,
}

/// sha256 over the world's completion list (request, start, finish, and
/// each file's replica, attempts and bytes), the metrics registry and the
/// trace length. Rendering and hashing the full ULM trace of 100 k events
/// would cost a third of a rep; this moves with any change in behaviour.
fn outcome_digest(sim: &esg_core::EsgSim) -> String {
    let mut text = format!(
        "events={}\n{}\n",
        sim.world.rm.log.len(),
        sim.world.rm.metrics.to_json()
    );
    for o in &sim.world.outcomes {
        text.push_str(&format!(
            "request={} start={} finish={}",
            o.id,
            o.started.as_nanos(),
            o.finished.as_nanos()
        ));
        for f in &o.files {
            text.push_str(&format!(
                " {}:{}:{}:{}",
                f.name,
                f.replica_host.as_deref().unwrap_or("-"),
                f.attempts,
                f.bytes_done
            ));
        }
        text.push('\n');
    }
    sha_hex(&text)
}

fn world(ctx: &Ctx, world_seed: u64, n_requests: usize, rep: &mut Rep) -> WorldResult {
    let t = Instant::now();
    let plan = plan(world_seed, n_requests);
    let mut tb = esg_core::esg_testbed(world_seed);
    tb.publish_dataset(DS_DISK, STEPS, STEPS_PER_FILE, BYTES_PER_STEP, &DISK_SITES);
    tb.publish_dataset(DS_TAPE, STEPS, STEPS_PER_FILE, BYTES_PER_STEP, &[TAPE_SITE]);
    tb.sim
        .world
        .rm
        .enable_live_analysis(SimDuration::from_secs(STALL_THRESHOLD_S));
    tb.start_nws(SimDuration::from_secs(25));
    tb.sim.run_until(SimTime::from_secs(100));

    let mut names: Vec<(String, String)> = Vec::new();
    for ds in [DS_DISK, DS_TAPE] {
        let md = &tb.sim.world.metadata;
        let coll = md.collection_of(ds).expect("dataset was just published");
        let files = md.all_files(ds).expect("dataset was just published");
        names.extend(files.iter().map(|f| (coll.clone(), f.name.clone())));
    }

    let faults: Vec<Fault> = plan
        .faults
        .iter()
        .map(|(at, dur, kind)| {
            let kind = match kind {
                PlannedFault::NodeDown { site } => FaultKind::NodeDown(tb.sites[*site].node),
                PlannedFault::NameServiceDown => FaultKind::NameServiceDown,
                PlannedFault::WireCorrupt { site } => FaultKind::WireCorrupt(tb.sites[*site].node),
            };
            Fault::new(SimTime::from_secs(*at), SimDuration::from_secs(*dur), kind)
        })
        .collect();
    inject_all(&mut tb.sim, &faults);
    for &(at, site, file, block, nonce) in &plan.flips {
        let host = tb.sites[site].host.clone();
        let name = names[file].1.clone();
        let at = SimTime::from_secs(at);
        tb.sim.schedule_at(at, move |sim| {
            sim.world.rm.corrupt_at_rest(&host, &name, block, nonce, at);
        });
    }
    let client = tb.client;
    for (at_ms, files) in &plan.requests {
        let at = SimTime::from_secs(100) + SimDuration::from_millis(*at_ms);
        let files: Vec<_> = files.iter().map(|&i| names[i].clone()).collect();
        tb.sim.schedule_at(at, move |sim| {
            submit_request(sim, client, files, |s, o| s.world.outcomes.push(o));
        });
    }
    let setup_s = t.elapsed().as_secs_f64();

    let report = profiled(ctx.traced, || {
        let mut laps = Laps::start();
        let mut until = 100 + SLICE_SIM_S;
        while tb.sim.world.outcomes.len() < n_requests && until <= 7200 {
            tb.sim.run_until(SimTime::from_secs(until));
            laps.lap(rep);
            until += SLICE_SIM_S;
        }
    });

    let outcomes = &tb.sim.world.outcomes;
    let requested: u64 = plan.requests.iter().map(|(_, f)| f.len() as u64).sum();
    let mut files = 0u64;
    let mut bytes = 0u64;
    for f in outcomes.iter().flat_map(|o| o.files.iter()) {
        let ok = f.done && !f.failed && f.bytes_done == f.size;
        rep.check(ok, || {
            format!(
                "world {world_seed:#x}: {} delivered {}/{} bytes",
                f.name, f.bytes_done, f.size
            )
        });
        if ok {
            files += 1;
            bytes += f.size;
        }
    }
    let settled: u64 = outcomes.iter().map(|o| o.files.len() as u64).sum();
    for _ in settled..requested {
        rep.check(false, || {
            format!("world {world_seed:#x}: a request never settled")
        });
    }
    let m = &tb.sim.world.rm.metrics;
    rep.check(
        m.counter("rm.files.completed") == m.counter("rm.integrity.verified"),
        || format!("world {world_seed:#x}: completed != integrity-verified"),
    );

    let first = outcomes.iter().map(|o| o.started).min();
    let last = outcomes.iter().map(|o| o.finished).max();
    let makespan_s = match (first, last) {
        (Some(a), Some(b)) => (b - a).as_secs_f64(),
        _ => 0.0,
    };
    let sojourns_s = outcomes
        .iter()
        .map(|o| (o.finished - o.started).as_secs_f64())
        .collect();
    if let Some(report) = report {
        add_profile(rep, report);
        add_world(rep, &tb.sim);
    }
    WorldResult {
        setup_s,
        files,
        bytes,
        makespan_s,
        sojourns_s,
        outcome_sha: outcome_digest(&tb.sim),
    }
}

pub fn rep(ctx: &Ctx) -> Rep {
    let (worlds, requests) = sizes(ctx.quick);
    let mut rep = Rep::default();
    let mut sojourns = Vec::new();
    let mut digest = String::new();
    let (mut bytes, mut makespan) = (0u64, 0.0f64);
    for ws in world_seeds(ctx.seed, worlds) {
        let w = world(ctx, ws, requests, &mut rep);
        rep.setup_s += w.setup_s;
        rep.files += w.files;
        bytes += w.bytes;
        makespan += w.makespan_s;
        sojourns.extend(w.sojourns_s);
        digest.push_str(&w.outcome_sha);
    }
    rep.set("files_total", rep.files as f64);
    // Worlds are independent grids: makespans add (as if run back to
    // back), and goodput is payload over that total.
    rep.set("sim.makespan_s", makespan);
    if makespan > 0.0 {
        rep.set("sim.goodput_mbps", bytes as f64 * 8.0 / 1e6 / makespan);
    }
    if !sojourns.is_empty() {
        rep.set("sim.p50_sojourn_s", stats::percentile(&sojourns, 50.0));
        rep.set("sim.p95_sojourn_s", stats::percentile(&sojourns, 95.0));
        if let Some(pct) = stats::highest_supported_percentile(sojourns.len()) {
            rep.set("sim.tail_pct", pct);
            rep.set("sim.tail_sojourn_s", stats::percentile(&sojourns, pct));
        }
    }
    rep.sim_digest = Some(sha_hex(&digest));
    rep
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_is_a_pure_function_of_the_seed() {
        assert_eq!(plan(17, 200), plan(17, 200));
        assert_ne!(plan(17, 200).requests, plan(18, 200).requests);
        assert_ne!(plan(17, 200).faults, plan(18, 200).faults);
        assert_eq!(world_seeds(17, 6), world_seeds(17, 6));
        assert_ne!(world_seeds(17, 6), world_seeds(18, 6));
    }

    #[test]
    fn plan_keeps_a_clean_repair_source_for_every_file() {
        for seed in 0..50 {
            let p = plan(seed, 10);
            let mut hit: HashMap<usize, HashSet<usize>> = HashMap::new();
            for &(_, site, file, block, _) in &p.flips {
                assert!(DISK_SITES.contains(&site) && block < FILE_BLOCKS);
                hit.entry(file).or_default().insert(site);
            }
            assert!(hit.values().all(|sites| sites.len() <= 3));
            assert!(p
                .requests
                .iter()
                .all(|(at, files)| *at < ARRIVAL_WINDOW_MS && (1..=3).contains(&files.len())));
        }
    }
}
