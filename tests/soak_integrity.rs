//! Corruption-injection soak for the end-to-end integrity layer.
//!
//! Requests are pushed through the Figure 1 testbed while a randomized
//! (but seeded) schedule of silent corruption plays out: at-rest block
//! flips on disk caches, tape-read errors during HRM cold stages, and
//! in-flight wire corruption windows. The integrity layer — post-delivery
//! block digest verification, ERET partial-range repair from an alternate
//! replica, quarantine of repeat offenders — must carry every request to
//! a *bit-exact* completion: no file is ever delivered without its digest
//! verifying clean, and repair traffic stays a fraction of a full
//! re-transfer. The whole run must be reproducible per seed.

use esg::core::esg_testbed;
use esg::reqman::{submit_request, RequestOutcome};
use esg::simnet::prelude::{inject_all, Fault, FaultKind};
use esg::simnet::{SimDuration, SimTime};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::{HashMap, HashSet};

const DATASET: &str = "pcm_intg.b06";
/// 24 steps, 4 per file, 2 MB per step → six 8 MB chunks of 8 blocks each.
const FILE_SIZE: u64 = 8_000_000;

struct SoakResult {
    outcomes: Vec<RequestOutcome>,
    trace: String,
}

fn count(trace: &str, event: &str) -> usize {
    let needle = format!("EVNT={event} ");
    trace.lines().filter(|l| l.contains(&needle)).count()
}

/// Build the testbed, publish a replicated dataset at every site
/// (including the tape-backed one), inject a seeded corruption schedule,
/// submit `n_requests` randomized requests, and run to quiescence.
fn run_soak(seed: u64, n_requests: usize) -> SoakResult {
    let mut tb = esg_testbed(seed);
    // Silent tape-read errors: roughly one in three cold stages at the
    // HPSS site corrupts one block of the staged file.
    tb.sim
        .world
        .rm
        .hrms
        .get_mut("hpss.lbl.gov")
        .unwrap()
        .enable_tape_errors(3, seed);
    // One bad verify round is enough to quarantine a replica, so the soak
    // exercises the full quarantine → rehabilitation cycle.
    tb.sim.world.rm.integrity.quarantine_threshold = 1;
    tb.publish_dataset(DATASET, 24, 4, 2_000_000, &[0, 1, 2, 3, 4, 5]);

    tb.start_nws(SimDuration::from_secs(25));
    tb.sim.run_until(SimTime::from_secs(100));

    let names = tb.sim.world.metadata.request_files(DATASET).unwrap();

    // The harness RNG is decorrelated from the testbed seed so changing
    // one does not silently reuse the other's stream.
    let mut rng = StdRng::seed_from_u64(seed ^ 0x0BAD_B10C_C0DE_C0DE);

    // At-rest corruption schedule on the disk sites. Capped at three of
    // the five disk replicas per file so verification always has a clean
    // replica to repair from (the repair path prefers non-blamed hosts).
    let mut corrupted: HashMap<String, HashSet<usize>> = HashMap::new();
    for _ in 0..30 {
        let si = rng.gen_range(1usize..6);
        let (_, name) = names[rng.gen_range(0usize..names.len())].clone();
        let hit_sites = corrupted.entry(name.clone()).or_default();
        if !hit_sites.contains(&si) && hit_sites.len() >= 3 {
            continue;
        }
        hit_sites.insert(si);
        let host = tb.sites[si].host.clone();
        let block = rng.gen_range(0u64..FILE_SIZE.div_ceil(1 << 20));
        let nonce = rng.gen::<u64>() | 1;
        let at = SimTime::from_secs(rng.gen_range(50u64..1200));
        tb.sim.schedule_at(at, move |sim| {
            sim.world.rm.corrupt_at_rest(&host, &name, block, nonce, at);
        });
    }

    // In-flight corruption: windows during which frames sourced at one
    // site are silently flipped on the wire.
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
    inject_all(&mut tb.sim, &faults);

    // Randomized submissions overlapping the corruption window.
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

    // Rehabilitation re-verifies quarantined hosts 300 s after the trip;
    // 3600 s covers the last possible trip plus retry backoff headroom.
    tb.sim.run_until(SimTime::from_secs(3600));

    SoakResult {
        outcomes: std::mem::take(&mut tb.sim.world.outcomes),
        trace: tb.sim.world.rm.log.to_ulm(),
    }
}

fn assert_bit_exact(r: &SoakResult, expected: usize, ctx: &str) {
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
    // The load-bearing integrity property: NOTHING completes without a
    // clean verification. Every `rm.file.complete` is paired with exactly
    // one `integrity.file.verified` — a corrupt delivery can only be
    // repaired-then-verified or failed loudly, never silently completed.
    let completes = count(&r.trace, "rm.file.complete");
    let verified = count(&r.trace, "integrity.file.verified");
    assert_eq!(
        verified, completes,
        "{ctx}: every completion must be digest-verified"
    );
}

#[test]
fn soak_120_requests_all_bit_exact_under_corruption() {
    let r = run_soak(13, 120);
    assert_bit_exact(&r, 120, "soak(13, 120)");

    // The corruption schedule actually bit, and repair engaged.
    let mismatches = count(&r.trace, "integrity.block.mismatch");
    let repairs = count(&r.trace, "integrity.repair.eret");
    assert!(mismatches > 0, "corruption schedule never detected");
    assert!(repairs > 0, "mismatches never drove a repair");

    // Repairs are partial-range re-fetches: each moves strictly less than
    // a full file, and the total repair traffic is a fraction of the
    // payload actually delivered.
    let mut repair_bytes = 0.0f64;
    for line in r
        .trace
        .lines()
        .filter(|l| l.contains("EVNT=integrity.repair.eret "))
    {
        let bytes: f64 = line
            .split_whitespace()
            .find_map(|kv| kv.strip_prefix("bytes="))
            .and_then(|v| v.parse().ok())
            .expect("repair event carries bytes");
        assert!(
            bytes > 0.0 && bytes < FILE_SIZE as f64,
            "repair must move a partial range: {line}"
        );
        repair_bytes += bytes;
    }
    let delivered: u64 = r
        .outcomes
        .iter()
        .flat_map(|o| o.files.iter().map(|f| f.size))
        .sum();
    assert!(
        repair_bytes < 0.5 * delivered as f64,
        "repair traffic {repair_bytes} should be a fraction of {delivered} delivered"
    );

    // Repeat offenders were quarantined, and every quarantine was followed
    // by background re-verification rehabilitating the replica.
    let quarantines = count(&r.trace, "integrity.replica.quarantine");
    let rehabs = count(&r.trace, "integrity.replica.rehabilitated");
    assert!(quarantines > 0, "threshold-1 soak must trip quarantine");
    assert_eq!(rehabs, quarantines, "every quarantine must rehabilitate");
}

#[test]
fn same_seed_corruption_soaks_produce_identical_traces() {
    let a = run_soak(7, 40);
    let b = run_soak(7, 40);
    assert!(!a.trace.is_empty());
    assert_eq!(
        a.trace, b.trace,
        "same-seed soaks must replay the exact same event stream"
    );
    assert_bit_exact(&a, 40, "soak(7, 40)");
}

#[test]
fn bit_exactness_holds_across_seeds() {
    for seed in [1u64, 2, 3] {
        let r = run_soak(seed, 30);
        assert_bit_exact(&r, 30, &format!("soak({seed}, 30)"));
    }
}
