//! The paper's evaluation as lab kinds: Table 1, Figure 8, the A1–A9
//! sweeps and ablations, the B1 related-work baselines and the E1
//! subsetting extension. Each kind reads its spec params, calls its
//! `esg_core::experiments` runner once and turns the result into table
//! metrics; a sweep is one variant per point, and each shape claim is a
//! gate in the scenario file. The simulations are deterministic for a
//! given configuration — the seed only labels the trial, except in E1,
//! where it seeds the synthetic climate data.

use super::{put, put_str, TrialCtx};
use crate::journal::{AuxFile, TrialRecord};
use esg_core::experiments::{
    ablation_channel_caching, ablation_cpu_model, baseline_comparison, hrm_staging_comparison,
    nws_forecast_accuracy, planner_spread_comparison, replica_policy_comparison, run_fig8,
    run_table1, subsetting_comparison, sweep_buffer_size, sweep_parallel_streams, Table1Config,
    SWEEP_LINK_MBPS,
};
use esg_simnet::SimDuration;
use std::fmt::Write as _;

type Kind = fn(&TrialCtx, &mut TrialRecord) -> Result<(), String>;

/// Run the trial if its kind is one of the paper's; `None` otherwise.
pub fn run(ctx: &TrialCtx) -> Option<Result<TrialRecord, String>> {
    let kind: Kind = match ctx.spec.kind.as_str() {
        "table1" => table1,
        "fig8" => fig8,
        "sweep_parallel" => sweep_parallel,
        "sweep_buffer" => sweep_buffer,
        "sweep_stripes" => sweep_stripes,
        "ablation_caching" => ablation_caching,
        "ablation_cpu" => ablation_cpu,
        "replica_policies" => replica_policies,
        "hrm_staging" => hrm_staging,
        "planner_spread" => planner_spread,
        "nws_accuracy" => nws_accuracy,
        "baselines" => baselines,
        "extension_subsetting" => extension_subsetting,
        _ => return None,
    };
    let mut rec = ctx.record();
    let wall = std::time::Instant::now();
    let result = kind(ctx, &mut rec);
    rec.timing
        .push(("wall_ms".into(), wall.elapsed().as_secs_f64() * 1e3));
    Some(result.map(|()| rec))
}

/// One metric per named row, e.g. `"tape cold (HRM stage)"` with unit
/// `s` becomes `tape_cold_s`.
fn put_rows(rec: &mut TrialRecord, rows: &[(&str, f64)], unit: &str) {
    for &(name, v) in rows {
        let head = name.split(" (").next().unwrap_or(name);
        let words: Vec<&str> = head
            .split(|c: char| !c.is_ascii_alphanumeric())
            .filter(|w| !w.is_empty())
            .collect();
        put(rec, &format!("{}_{unit}", words.join("_")), v);
    }
}

fn to_u32(v: u64, key: &str) -> Result<u32, String> {
    u32::try_from(v).map_err(|_| format!("param '{key}' is {v}, expected at most {}", u32::MAX))
}

/// T1: the SC'00 striped wide-area transfer.
fn table1(ctx: &TrialCtx, rec: &mut TrialRecord) -> Result<(), String> {
    let p = &ctx.params;
    let minutes = p.u64("minutes", 60)?;
    let r = run_table1(Table1Config {
        duration: SimDuration::from_mins(minutes),
        ..Table1Config::default()
    });
    put(rec, "minutes", minutes as f64);
    put(
        rec,
        "striped_servers_source",
        r.striped_servers_source as f64,
    );
    put(
        rec,
        "striped_servers_destination",
        r.striped_servers_destination as f64,
    );
    put(
        rec,
        "max_streams_per_server",
        r.max_streams_per_server as f64,
    );
    put(rec, "max_streams_total", r.max_streams_total as f64);
    let e4 = |v: f64| (v * 1e4).round() / 1e4;
    let tenths = (r.sustained_mbps * 10.0).round();
    put(rec, "peak_0_1s_gbps", e4(r.peak_0_1s_gbps));
    put(rec, "peak_5s_gbps", e4(r.peak_5s_gbps));
    put(rec, "sustained_gbps", tenths / 1e4);
    put(rec, "sustained_mbps", tenths / 10.0);
    put(rec, "total_gbytes", (r.total_gbytes * 10.0).round() / 10.0);
    put(rec, "transfers_completed", r.transfers_completed as f64);
    Ok(())
}

/// F8: the 14-hour reliability run; the series is written as a CSV aux
/// file (`csv_path`).
fn fig8(ctx: &TrialCtx, rec: &mut TrialRecord) -> Result<(), String> {
    let p = &ctx.params;
    let hours = p.u64("hours", 14)?;
    let csv_path = p.str("csv_path", "fig8_series.csv")?;
    let r = run_fig8(SimDuration::from_hours(hours));
    let mut csv = String::from("time_s,rate_mbps\n");
    for &(t, mbps) in &r.series {
        writeln!(csv, "{t:.0},{mbps:.2}").unwrap();
    }
    std::fs::write(csv_path, &csv).map_err(|e| format!("write {csv_path}: {e}"))?;
    let sha256 = crate::sha_hex(&csv);
    put(rec, "hours", hours as f64);
    put(rec, "plateau_mbps", r.plateau_mbps);
    put(rec, "mean_mbps", r.mean_mbps);
    put(rec, "total_gbytes", r.total_gbytes);
    put(rec, "transfers_completed", r.transfers_completed as f64);
    put(rec, "restarts", r.restarts as f64);
    put(rec, "dead_bins", r.dead_bins as f64);
    put_str(rec, "series_sha256", sha256.clone());
    rec.aux.push(AuxFile {
        path: csv_path.into(),
        sha256,
    });
    Ok(())
}

/// A1: one parallel-stream count on the lossy sweep pair.
fn sweep_parallel(ctx: &TrialCtx, rec: &mut TrialRecord) -> Result<(), String> {
    let streams = to_u32(ctx.params.u64("streams", 4)?, "streams")?;
    let mbps = sweep_parallel_streams(streams);
    put(rec, "streams", streams as f64);
    put(rec, "mbps", mbps);
    put(rec, "link_mbps", SWEEP_LINK_MBPS);
    Ok(())
}

/// A2: one TCP buffer size on the lossless long-fat sweep pair.
fn sweep_buffer(ctx: &TrialCtx, rec: &mut TrialRecord) -> Result<(), String> {
    let window = ctx.params.u64("window_bytes", 1 << 20)?;
    let mbps = sweep_buffer_size(window);
    put(rec, "window_bytes", window as f64);
    put(rec, "mbps", mbps);
    put(rec, "link_mbps", SWEEP_LINK_MBPS);
    Ok(())
}

/// A3: one stripe width on the SC'00 testbed.
fn sweep_stripes(ctx: &TrialCtx, rec: &mut TrialRecord) -> Result<(), String> {
    let servers = ctx.params.usize("servers", 8)?;
    let mbps = esg_core::experiments::sweep_stripes(servers);
    put(rec, "servers", servers as f64);
    put(rec, "mbps", mbps);
    Ok(())
}

/// A4: consecutive files with and without data-channel caching.
fn ablation_caching(ctx: &TrialCtx, rec: &mut TrialRecord) -> Result<(), String> {
    let p = &ctx.params;
    let files = to_u32(p.u64("files", 6)?, "files")?;
    let file_bytes = p.u64("file_bytes", 5_000_000)?;
    let (uncached, cached) = ablation_channel_caching(files, file_bytes);
    put(rec, "files", files as f64);
    put(rec, "file_bytes", file_bytes as f64);
    put(rec, "uncached_s_per_file", uncached);
    put(rec, "cached_s_per_file", cached);
    put(rec, "saved_frac", 1.0 - cached / uncached);
    Ok(())
}

/// A5: interrupt coalescing and jumbo frames on a CPU-bound host.
fn ablation_cpu(_: &TrialCtx, rec: &mut TrialRecord) -> Result<(), String> {
    put_rows(rec, &ablation_cpu_model(), "mbps");
    Ok(())
}

/// A6: mean single-file request time per replica selection policy.
fn replica_policies(ctx: &TrialCtx, rec: &mut TrialRecord) -> Result<(), String> {
    let requests = to_u32(ctx.params.u64("requests", 6)?, "requests")?;
    put(rec, "requests", requests as f64);
    put_rows(rec, &replica_policy_comparison(requests), "s");
    Ok(())
}

/// A7: request latency per storage tier.
fn hrm_staging(_: &TrialCtx, rec: &mut TrialRecord) -> Result<(), String> {
    put_rows(rec, &hrm_staging_comparison(), "s");
    Ok(())
}

/// A8: an 8-file request with and without the spread planner.
fn planner_spread(_: &TrialCtx, rec: &mut TrialRecord) -> Result<(), String> {
    let (no_spread, spread) = planner_spread_comparison();
    put(rec, "no_spread_s", no_spread);
    put(rec, "spread_s", spread);
    Ok(())
}

/// A9: one-step-ahead forecast MAE per forecaster, in Mb/s, with the
/// adaptive mixture's rank (1 = best of all) and the best single method.
fn nws_accuracy(_: &TrialCtx, rec: &mut TrialRecord) -> Result<(), String> {
    let rows: Vec<(&str, f64)> = nws_forecast_accuracy()
        .into_iter()
        .map(|(name, mae)| (name, mae * 8.0 / 1e6))
        .collect();
    let adaptive = rows
        .iter()
        .find(|(name, _)| *name == "nws-adaptive")
        .ok_or("no nws-adaptive row")?
        .1;
    let best_single = rows
        .iter()
        .filter(|(name, _)| *name != "nws-adaptive")
        .map(|&(_, mae)| mae)
        .fold(f64::INFINITY, f64::min);
    let rank = 1 + rows.iter().filter(|r| r.1 < adaptive).count();
    put_rows(rec, &rows, "mae_mbps");
    put(rec, "best_single_mae_mbps", best_single);
    put(rec, "adaptive_rank", rank as f64);
    Ok(())
}

/// B1: 2 GB over a lossy WAN with a mid-transfer outage.
fn baselines(_: &TrialCtx, rec: &mut TrialRecord) -> Result<(), String> {
    put_rows(rec, &baseline_comparison(), "s");
    Ok(())
}

/// E1: one server-side subset request on the real loopback server, next
/// to the whole file it was cut from.
fn extension_subsetting(ctx: &TrialCtx, rec: &mut TrialRecord) -> Result<(), String> {
    let p = &ctx.params;
    let r = subsetting_comparison(
        esg_core::standard_synth(p.usize("time_steps", 240)?, ctx.seed),
        p.usize("steps_per_file", 240)?,
        p.str("variable", "tas")?,
        p.usize("t0", 0)?,
        p.usize("t1", 28)?,
    )?;
    put(rec, "file_bytes", r.file_bytes as f64);
    put(rec, "whole_bytes", r.whole_bytes as f64);
    put(rec, "subset_bytes", r.subset_bytes as f64);
    let pct = r.subset_bytes as f64 / r.file_bytes as f64 * 100.0;
    put(rec, "subset_pct", pct);
    rec.timing
        .push(("whole_file_ms".into(), r.whole_wall.as_secs_f64() * 1e3));
    Ok(())
}
