//! Shared builder for the A12/A13 mixed hot/cold workload: sixteen
//! replicated disk files plus two tape-only files per request on the
//! Figure 1 testbed, under a minimum-rate reliability floor and a
//! 4-drive HPSS robot. `request_pipeline` and `lifeline` both replay
//! exactly this world; factoring it here keeps the two executors
//! operation-for-operation identical to their pre-migration bins (which
//! had duplicated this block verbatim).

use crate::spec::FaultSpec;
use esg_core::{esg_testbed, EsgTestbed};
use esg_reqman::submit_request;
use esg_simnet::prelude::inject_all;
use esg_simnet::{SimDuration, SimTime};
use esg_storage::{Hrm, TapeParams};

/// Disk files: 24 x 40 MB replicated at LLNL, ISI, ANL.
pub const DISK_STEPS: usize = 96;
pub const DISK_SPF: usize = 4;
pub const DISK_BPS: u64 = 10_000_000;
/// Tape files: 8 x 30 MB, HPSS only (cold until staged).
pub const TAPE_STEPS: usize = 16;
pub const TAPE_SPF: usize = 2;
pub const TAPE_BPS: u64 = 15_000_000;
/// Reliability floor: flows slower than this (after grace) fail over.
pub const DEFAULT_MIN_RATE: f64 = 2.6e6;
/// Sim horizon; every request must complete by here.
pub const HORIZON_S: u64 = 3600;

pub struct MixedConfig<'a> {
    pub disk_ds: &'a str,
    pub tape_ds: &'a str,
    /// `Some(on)` sets `rm.scheduler.enabled` before the run (the A12
    /// arms); `None` leaves the testbed default untouched (A13).
    pub scheduler_on: Option<bool>,
    pub min_rate: f64,
    pub n_requests: usize,
}

pub struct MixedRun {
    pub tb: EsgTestbed,
    /// Wall clock of the main `run_until(HORIZON)` only, like the bins.
    pub wall: std::time::Duration,
}

pub fn run_mixed(
    seed: u64,
    cfg: &MixedConfig,
    fault_specs: &[FaultSpec],
) -> Result<MixedRun, String> {
    let mut tb = esg_testbed(seed);
    if let Some(on) = cfg.scheduler_on {
        tb.sim.world.rm.scheduler.enabled = on;
    }
    tb.sim.world.rm.min_rate = cfg.min_rate;
    tb.sim.world.rm.grace = SimDuration::from_secs(6);
    tb.sim.world.rm.retry.base = SimDuration::from_secs(6);
    // Faster robot than the HPSS default so the staging pipeline, not the
    // tape mount queue, shapes the cold half of the workload.
    tb.sim.world.rm.add_hrm(
        "hpss.lbl.gov",
        Hrm::new(
            TapeParams {
                drives: 4,
                mount: SimDuration::from_secs(10),
                seek: SimDuration::from_secs(5),
                rate: 25e6,
            },
            1 << 38,
        ),
    );
    tb.publish_dataset(cfg.disk_ds, DISK_STEPS, DISK_SPF, DISK_BPS, &[1, 2, 3]);
    tb.publish_dataset(cfg.tape_ds, TAPE_STEPS, TAPE_SPF, TAPE_BPS, &[0]);
    tb.start_nws(SimDuration::from_secs(25));
    tb.sim.run_until(SimTime::from_secs(100));
    if !fault_specs.is_empty() {
        let faults = super::spec_faults(fault_specs, &tb.sites)?;
        inject_all(&mut tb.sim, &faults);
    }

    let md = &tb.sim.world.metadata;
    let disk = md
        .request_files(cfg.disk_ds)
        .map_err(|e| format!("request_files(disk): {e}"))?;
    let tape = md
        .request_files(cfg.tape_ds)
        .map_err(|e| format!("request_files(tape): {e}"))?;

    // Request r: sixteen disk files + two tape files, deterministic picks,
    // submitted two seconds apart.
    let client = tb.client;
    for r in 0..cfg.n_requests {
        let mut files: Vec<(String, String)> = (0..16)
            .map(|k| disk[(r * 16 + k) % disk.len()].clone())
            .collect();
        files.extend((0..2).map(|k| tape[(r * 2 + k) % tape.len()].clone()));
        let at = SimTime::from_secs(100 + 2 * r as u64);
        tb.sim.schedule_at(at, move |sim| {
            submit_request(sim, client, files, |s, o| s.world.outcomes.push(o));
        });
    }

    let wall = std::time::Instant::now();
    tb.sim.run_until(SimTime::from_secs(HORIZON_S));
    let wall = wall.elapsed();

    if tb.sim.world.outcomes.len() != cfg.n_requests {
        return Err(format!(
            "{} of {} requests finished by the horizon",
            tb.sim.world.outcomes.len(),
            cfg.n_requests
        ));
    }
    Ok(MixedRun { tb, wall })
}
