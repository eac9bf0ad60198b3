//! `striped_wan`: the paper's Table 1, exactly as `esg_core::run_table1`
//! runs it — kernel event dispatch, the simulated GridFTP engine's
//! callbacks and bandwidth metering. The one workload with a paper
//! reference, so simulated accuracy is reported beside speed. The
//! configuration is the paper's, so the seed changes nothing here.

use super::{add_profile, profiled, Ctx, Laps, Rep};
use esg_core::{run_table1, sc2000_scinet, Sc2000Config, Table1Config};
use esg_lab::sha_hex;
use esg_simnet::SimDuration;
use std::time::Instant;

/// The paper's Table 1 (SC'00, striped GridFTP Dallas → LBNL).
const PAPER_PEAK_GBPS: f64 = 1.55;
const PAPER_SUSTAINED_MBPS: f64 = 512.9;

/// `run_table1` builds its testbed internally, so there is no separable
/// set-up to time; this many constructions of that same testbed stand in
/// for it (one takes microseconds — too short to compare between runs).
const SETUP_BUILDS: usize = 256;

pub fn minutes(quick: bool) -> u64 {
    if quick {
        10
    } else {
        60
    }
}

pub fn rep(ctx: &Ctx) -> Rep {
    let mut rep = Rep::default();
    let cfg = Table1Config {
        duration: SimDuration::from_mins(minutes(ctx.quick)),
        ..Table1Config::default()
    };

    let t = Instant::now();
    for _ in 0..SETUP_BUILDS {
        std::hint::black_box(sc2000_scinet(std::hint::black_box(Sc2000Config::default())));
    }
    rep.setup_s = t.elapsed().as_secs_f64();

    // `run_table1` is one call: one slice.
    let mut results = None;
    let report = profiled(ctx.traced, || {
        let mut laps = Laps::start();
        results = Some(run_table1(cfg));
        laps.lap(&mut rep);
    });
    let r = results.expect("run_table1 returned");
    rep.files = r.transfers_completed;
    rep.set("files_total", r.transfers_completed as f64);

    // The paper's shape claims, as the lab's table1 gates state them.
    let sustained_gbps = r.sustained_mbps / 1e3;
    rep.check(r.transfers_completed > 0, || "no transfer completed".into());
    rep.check(r.max_streams_total == 32, || {
        format!("{} streams, not 8 x 4", r.max_streams_total)
    });
    rep.check(
        r.peak_0_1s_gbps >= r.peak_5s_gbps && r.peak_5s_gbps >= sustained_gbps,
        || "peak(0.1 s) >= peak(5 s) >= sustained does not hold".into(),
    );
    rep.check(r.peak_0_1s_gbps <= PAPER_PEAK_GBPS * 1.001, || {
        format!("peak {} Gb/s above the OC-48 share", r.peak_0_1s_gbps)
    });
    let expect_gbytes = r.sustained_mbps * 1e6 / 8.0 * cfg.duration.as_secs_f64() / 1e9;
    rep.check(
        (r.total_gbytes - expect_gbytes).abs() <= 1e-6 * expect_gbytes,
        || {
            format!(
                "{} GB moved, sustained rate implies {expect_gbytes}",
                r.total_gbytes
            )
        },
    );

    rep.set("sim.goodput_mbps", r.sustained_mbps);
    rep.set(
        "gridftp.sim.transfers_completed",
        r.transfers_completed as f64,
    );
    rep.set("model.table1.peak_0_1s_gbps", r.peak_0_1s_gbps);
    rep.set("model.table1.peak_5s_gbps", r.peak_5s_gbps);
    rep.set("model.table1.sustained_mbps", r.sustained_mbps);
    rep.set("model.table1.total_gbytes", r.total_gbytes);
    rep.set(
        "model.table1.peak_err_pct",
        (r.peak_0_1s_gbps / PAPER_PEAK_GBPS - 1.0) * 100.0,
    );
    rep.set(
        "model.table1.sustained_err_pct",
        (r.sustained_mbps / PAPER_SUSTAINED_MBPS - 1.0) * 100.0,
    );
    rep.sim_digest = Some(sha_hex(&format!("{r:?}")));
    if let Some(report) = report {
        add_profile(&mut rep, report);
    }
    rep
}
