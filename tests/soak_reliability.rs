//! Fault-injection soak for the request manager's reliability layer.
//!
//! Hundreds of requests are pushed through the Figure 1 testbed while a
//! randomized (but seeded) schedule of site outages and name-service
//! failures plays out. The reliability layer — retry/backoff, per-host
//! circuit breakers, restart-marker failover — must carry every request
//! to completion with exact byte accounting, and the whole run must be
//! bit-for-bit reproducible per seed.

use esg::core::esg_testbed;
use esg::reqman::{submit_request, RequestOutcome};
use esg::simnet::prelude::{inject_all, Fault, FaultKind};
use esg::simnet::{SimDuration, SimTime};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const DATASET: &str = "pcm_soak.b06";
const ZERO_FILE: &str = "empty_epoch.nc";

struct SoakResult {
    outcomes: Vec<RequestOutcome>,
    trace: String,
    /// What the manager still holds at the horizon: live requests, ledger
    /// entries, lifelines left open or untiled.
    leftovers: (usize, usize, usize),
}

/// Build the testbed, publish a replicated dataset (plus one zero-size
/// logical file), inject a seeded fault schedule, submit `n_requests`
/// randomized requests, and run to quiescence.
fn run_soak(seed: u64, n_requests: usize) -> SoakResult {
    let mut tb = esg_testbed(seed);
    // 24 steps, 4 per file, 2 MB per step -> six 8 MB chunks replicated at
    // every disk-backed site (tape stays out: this soak stresses the
    // network reliability path, not HRM staging).
    tb.publish_dataset(DATASET, 24, 4, 2_000_000, &[1, 2, 3, 4, 5]);
    let collection = tb.sim.world.metadata.collection_of(DATASET).unwrap();

    // A zero-size logical file rides along in some requests: it must
    // complete without ever needing a transfer.
    tb.sim
        .world
        .rm
        .catalog
        .add_logical_file(&collection, ZERO_FILE, 0)
        .unwrap();
    let host = tb.sites[1].host.clone();
    tb.sim
        .world
        .rm
        .catalog
        .add_file_to_location(&collection, &host, ZERO_FILE)
        .unwrap();

    tb.start_nws(SimDuration::from_secs(25));
    tb.sim.run_until(SimTime::from_secs(100));

    let mut names = tb.sim.world.metadata.request_files(DATASET).unwrap();
    names.push((collection.clone(), ZERO_FILE.to_string()));

    // The harness RNG is decorrelated from the testbed seed so changing
    // one does not silently reuse the other's stream.
    let mut rng = StdRng::seed_from_u64(seed ^ 0xD1CE_5EED_0BAD_F00D);

    // Fault schedule: bounded node outages at storage sites plus
    // name-service blackouts. Everything heals by ~1290 s, so the system
    // always has a path back to done.
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
    inject_all(&mut tb.sim, &faults);

    // Randomized submissions: 1-3 files each, overlapping the fault window.
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

    // NWS sensors probe forever, so run to a horizon rather than empty
    // queue. Worst case: last fault ends ~1290 s, retry backoff caps at
    // 60 s, breaker cooldown 60 s — 3600 s is a generous ceiling.
    tb.sim.run_until(SimTime::from_secs(3600));

    let rm = &tb.sim.world.rm;
    let set = esg::netlogger::LifelineSet::from_log(&rm.log);
    let untiled = set.lifelines.iter().filter(|l| !l.is_complete()).count();
    SoakResult {
        leftovers: (
            rm.live_requests().len(),
            rm.inflight().total(),
            set.orphans.len() + untiled,
        ),
        trace: rm.log.to_ulm(),
        outcomes: std::mem::take(&mut tb.sim.world.outcomes),
    }
}

fn assert_all_complete(r: &SoakResult, expected: usize, ctx: &str) {
    assert_eq!(
        r.outcomes.len(),
        expected,
        "{ctx}: every request must finish"
    );
    for o in &r.outcomes {
        for f in &o.files {
            assert!(
                f.done && !f.failed,
                "{ctx}: request {} file {} not delivered (attempts {})",
                o.id,
                f.name,
                f.attempts
            );
            assert_eq!(
                f.bytes_done, f.size,
                "{ctx}: request {} file {} byte accounting off",
                o.id, f.name
            );
        }
    }
}

#[test]
fn soak_200_requests_all_complete_under_faults() {
    let r = run_soak(11, 200);
    assert_all_complete(&r, 200, "soak(11, 200)");
    assert_eq!(r.leftovers, (0, 0, 0), "the manager is not quiescent");

    // The faults actually bit: the reliability layer engaged.
    assert!(
        r.trace.contains("rm.retry.backoff"),
        "no backoff events — fault schedule never exercised retries"
    );
    assert!(
        r.trace.contains("rm.breaker.open"),
        "no breaker trips — fault schedule never exercised the breakers"
    );
    assert!(
        r.trace.contains("rm.breaker.close"),
        "breakers never readmitted a recovered host"
    );

    // Restart markers only ever bank strictly-partial progress.
    let max_size = r
        .outcomes
        .iter()
        .flat_map(|o| o.files.iter().map(|f| f.size))
        .max()
        .unwrap() as f64;
    for line in r
        .trace
        .lines()
        .filter(|l| l.contains("rm.failover.restart_marker"))
    {
        let off: f64 = line
            .split_whitespace()
            .find_map(|kv| kv.strip_prefix("offset="))
            .and_then(|v| v.parse().ok())
            .expect("restart marker event carries offset");
        assert!(off > 0.0 && off < max_size, "bad restart offset: {line}");
    }

    // The zero-size file appeared and completed with zero bytes moved.
    let zero = r
        .outcomes
        .iter()
        .flat_map(|o| o.files.iter())
        .find(|f| f.name == ZERO_FILE)
        .expect("soak schedule should have requested the zero-size file");
    assert!(zero.done && zero.size == 0 && zero.bytes_done == 0);
}

#[test]
fn same_seed_soaks_produce_identical_netlogger_traces() {
    let a = run_soak(7, 60);
    let b = run_soak(7, 60);
    assert!(!a.trace.is_empty());
    assert_eq!(
        a.trace, b.trace,
        "same-seed soaks must replay the exact same event stream"
    );
    assert_all_complete(&a, 60, "soak(7, 60)");
}

/// Satellite property: byte accounting survives failover across seeds.
/// Every file in every outcome lands with `bytes_done == size` even when
/// its transfer was cancelled and resumed from a restart marker.
#[test]
fn bytes_conserved_across_failover_for_many_seeds() {
    for seed in [1u64, 2, 3] {
        let r = run_soak(seed, 40);
        assert_all_complete(&r, 40, &format!("soak({seed}, 40)"));
    }
}
