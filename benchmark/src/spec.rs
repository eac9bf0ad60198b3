//! The benchmark's contract as data: workload names and reasons, metric
//! names, units, directions and bounds. `BENCHMARK.json` at the repository
//! root is this module rendered (`--print-benchmark-json`); a unit test
//! holds the two together.

use esg_lab::json::Json;

/// Seconds one driver run measures for (`BENCHMARK.json` `run_seconds`).
pub const RUN_SECONDS: u64 = 16;

/// `(name, why)`.
pub const WORKLOADS: &[(&str, &str)] = &[
    (
        "campaign_round",
        "request-manager dominated: one campaign round at n files and at 4n, so per-file cost and its superlinear growth are both numbers",
    ),
    (
        "interactive_faults",
        "the request manager used the other way: many small requests through retry, breaker, failover, repair and tape staging, live analysis on",
    ),
    (
        "flow_storm",
        "kernel and allocator only, staggered arrivals: many small components per pass; request-manager changes must not move it",
    ),
    (
        "flow_burst",
        "same flows quantised to 16 instants: thousands of dirty flows per pass, the only workload past the allocator's worker-pool threshold",
    ),
    (
        "striped_wan",
        "the paper's Table 1 run: kernel dispatch, simulated GridFTP callbacks and metering; model accuracy is reported beside speed",
    ),
    (
        "loopback_xfer",
        "real bytes over 127.0.0.1 through the GridFTP server, client and GSI, bypassing the simulator: bulk get/verify/put and small fresh-session gets",
    ),
];

#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

use Better::{Higher, Lower};

const fn m(name: &'static str, unit: &'static str, better: Better) -> Metric {
    Metric { name, unit, better }
}

/// End-to-end metrics with the share of the parent's median each may
/// worsen by. Every workload reports every one of them, on host time.
pub const END_TO_END: &[(Metric, f64)] = &[
    (m("wall_s", "s", Lower), 0.25),
    (m("files_per_s", "1/s", Higher), 0.25),
    (m("peak_rss_mb", "MB", Lower), 0.25),
    (m("setup_s", "s", Lower), 0.25),
];

/// Per-layer metrics, reported by the traced run. Layer = crate.module;
/// `.iso.` metrics come from isolation drivers, the rest from the traced
/// rep of the workload (0 where a workload does not reach the layer).
pub const PER_LAYER: &[Metric] = &[
    // simnet::kernel
    m("simnet.kernel.self_s", "s", Lower),
    m("simnet.kernel.events", "count", Lower),
    m("simnet.kernel.flow_callbacks", "count", Lower),
    m("simnet.kernel.ns_per_event", "ns", Lower),
    m("simnet.kernel.events_per_s", "1/s", Higher),
    m("simnet.events.self_s", "s", Lower),
    m("simnet.kernel.iso.events_per_s", "1/s", Higher),
    // simnet::flownet / allocation
    m("simnet.alloc.self_s", "s", Lower),
    m("simnet.alloc.recompute_passes", "count", Lower),
    m("simnet.alloc.components_solved", "count", Lower),
    m("simnet.alloc.flow_solves", "count", Lower),
    m("simnet.alloc.parallel_batches", "count", Higher),
    m("simnet.alloc.route_cache_hit_ratio", "ratio", Higher),
    m("simnet.alloc.ns_per_flow_solve", "ns", Lower),
    m("simnet.allocation.iso.maxmin_small_per_s", "1/s", Higher),
    m(
        "simnet.allocation.iso.maxmin_large_flows_per_s",
        "1/s",
        Higher,
    ),
    // reqman
    m("reqman.rm.self_s", "s", Lower),
    m("reqman.net_poll.self_s", "s", Lower),
    m("reqman.net_poll.calls", "count", Lower),
    m("reqman.journal.self_s", "s", Lower),
    m("reqman.journal.lines", "count", Lower),
    m("reqman.pumps", "count", Lower),
    m("reqman.monitor_ticks", "count", Lower),
    m("reqman.us_per_file", "us", Lower),
    m("reqman.scaling_ratio", "ratio", Lower),
    m("reqman.sched.admitted", "count", Lower),
    m("reqman.sched.deferred", "count", Lower),
    m("reqman.select.ledger_lookups", "count", Lower),
    m("reqman.attempts_per_file", "ratio", Lower),
    m("reqman.failovers", "count", Lower),
    m("reqman.retry.backoffs", "count", Lower),
    m("reqman.breaker.opens", "count", Lower),
    m("reqman.integrity.verified", "count", Higher),
    m("reqman.integrity.block_mismatches", "count", Lower),
    m("reqman.integrity.eret_repairs", "count", Lower),
    m("reqman.scheduler.iso.ledger_ops_per_s", "1/s", Higher),
    m(
        "reqman.scheduler.iso.order_queue_files_per_s",
        "1/s",
        Higher,
    ),
    m("reqman.integrity.iso.verify_blocks_mb_s", "MB/s", Higher),
    // netlogger
    m("netlogger.trace.events", "count", Lower),
    m("netlogger.trace.events_per_file", "ratio", Lower),
    m("netlogger.live.events_seen", "count", Lower),
    m("netlogger.live.stalls_fired", "count", Lower),
    m("netlogger.trace.iso.emit_per_s", "1/s", Higher),
    m("netlogger.trace.iso.emit_live_per_s", "1/s", Higher),
    m("netlogger.metrics.iso.counter_add_per_s", "1/s", Higher),
    m("netlogger.ulm.iso.export_mb_s", "MB/s", Higher),
    m(
        "netlogger.lifeline.iso.from_log_events_per_s",
        "1/s",
        Higher,
    ),
    // gridftp, simulated engine
    m("gridftp.sim.transfers_started", "count", Lower),
    m("gridftp.sim.transfers_completed", "count", Higher),
    m("gridftp.sim.cache_hit_ratio", "ratio", Higher),
    m("gridftp.sim.handshakes", "count", Lower),
    // gridftp, real sockets
    m("gridftp.client.get_p1_mb_s", "MB/s", Higher),
    m("gridftp.client.get_p2_mb_s", "MB/s", Higher),
    m("gridftp.client.verified_get_mb_s", "MB/s", Higher),
    m("gridftp.client.put_mb_s", "MB/s", Higher),
    m("gridftp.client.cksm_mb_s", "MB/s", Higher),
    m("gridftp.client.small_xfer_p50_ms", "ms", Lower),
    m("gridftp.client.small_xfer_p95_ms", "ms", Lower),
    m("gridftp.client.connect_ms", "ms", Lower),
    m("gridftp.client.login_gsi_ms", "ms", Lower),
    m("gridftp.client.local_sha256_share", "ratio", Lower),
    m("gridftp.eblock.iso.roundtrip_mb_s", "MB/s", Higher),
    m("gridftp.protocol.iso.parse_per_s", "1/s", Higher),
    m("gridftp.ranges.iso.inserts_per_s", "1/s", Higher),
    // gsi
    m("gsi.sha256.iso.mb_s", "MB/s", Higher),
    m("gsi.hmac.iso.mb_s", "MB/s", Higher),
    m("gsi.chacha20.iso.mb_s", "MB/s", Higher),
    m("gsi.channel.iso.seal_open_mb_s", "MB/s", Higher),
    m("gsi.handshake.iso.per_s", "1/s", Higher),
    // replica / directory / metadata / nws / storage
    m("replica.catalog.iso.lookups_per_s", "1/s", Higher),
    m("replica.selection.iso.selects_per_s", "1/s", Higher),
    m("directory.iso.searches_per_s", "1/s", Higher),
    m("metadata.iso.selects_per_s", "1/s", Higher),
    m("nws.forecast.iso.updates_per_s", "1/s", Higher),
    m("storage.hrm.iso.stages_per_s", "1/s", Higher),
    m("storage.integrity.iso.digest_mb_s", "MB/s", Higher),
    m("storage.hrm.prestaged", "count", Higher),
    m("storage.hrm.cache_hit_ratio", "ratio", Higher),
    // cdms
    m("cdms.ncio.iso.encode_mb_s", "MB/s", Higher),
    m("cdms.ncio.iso.decode_mb_s", "MB/s", Higher),
    m("cdms.hyperslab.iso.subset_mb_s", "MB/s", Higher),
    // simulated results (exact for a seed; a host-only change leaves them)
    m("sim.makespan_s", "s", Lower),
    m("sim.p95_sojourn_s", "s", Lower),
    m("sim.goodput_mbps", "Mb/s", Higher),
    // model accuracy against the paper's Table 1
    m("model.table1.peak_0_1s_gbps", "Gb/s", Higher),
    m("model.table1.peak_5s_gbps", "Gb/s", Higher),
    m("model.table1.sustained_mbps", "Mb/s", Higher),
    m("model.table1.total_gbytes", "GB", Higher),
    m("model.table1.peak_err_pct", "%", Lower),
    m("model.table1.sustained_err_pct", "%", Lower),
    // tracing itself
    m("trace.overhead_frac", "ratio", Lower),
    m("trace.attributed_frac", "ratio", Higher),
];

/// The contract's rule for names: starts with a letter or digit, then at
/// most 63 more of letters, digits, `_`, `.` and `-`.
#[cfg(test)]
pub fn valid_name(s: &str) -> bool {
    let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
    s.len() <= 64
        && s.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
        && s.chars().all(ok)
}

/// The contract's rule for units.
#[cfg(test)]
pub fn valid_unit(s: &str) -> bool {
    let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-');
    !s.is_empty() && s.len() <= 16 && s.chars().all(ok)
}

pub fn workload_names() -> impl Iterator<Item = &'static str> {
    WORKLOADS.iter().map(|(name, _)| *name)
}

fn metric_json(metric: &Metric, bound: Option<f64>) -> Json {
    let mut members = vec![
        ("name", Json::str(metric.name)),
        ("unit", Json::str(metric.unit)),
        ("better", Json::str(metric.better.as_str())),
    ];
    if let Some(b) = bound {
        members.push(("bound", Json::Float(b)));
    }
    Json::obj(members)
}

/// `BENCHMARK.json`, rendered from the tables above.
pub fn benchmark_json() -> Json {
    let strs = |v: &[&str]| Json::Arr(v.iter().map(|s| Json::str(*s)).collect());
    Json::obj(vec![
        (
            "command",
            strs(&[
                "cargo",
                "run",
                "--release",
                "--offline",
                "--quiet",
                "--manifest-path",
                "benchmark/Cargo.toml",
                "--",
            ]),
        ),
        ("paths", strs(&["benchmark"])),
        ("run_seconds", Json::Int(RUN_SECONDS as i128)),
        (
            "workloads",
            Json::Arr(
                WORKLOADS
                    .iter()
                    .map(|(name, why)| {
                        Json::obj(vec![("name", Json::str(*name)), ("why", Json::str(*why))])
                    })
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Json::Arr(
                END_TO_END
                    .iter()
                    .map(|(metric, bound)| metric_json(metric, Some(*bound)))
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Json::Arr(PER_LAYER.iter().map(|m| metric_json(m, None)).collect()),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn name_and_unit_rules() {
        for good in ["wall_s", "simnet.alloc.self_s", "a-b", "9lives", "A.b_C-1"] {
            assert!(valid_name(good), "{good}");
        }
        for bad in [
            "",
            ".x",
            "_x",
            "-x",
            "a b",
            "a/b",
            "caf\u{e9}",
            &"x".repeat(65),
        ] {
            assert!(!valid_name(bad), "{bad:?}");
        }
        assert!(valid_name(&"x".repeat(64)));
        for good in ["ms", "s", "1/s", "count", "MB/s", "%"] {
            assert!(valid_unit(good), "{good}");
        }
        for bad in ["", "files per s", &"u".repeat(17)] {
            assert!(!valid_unit(bad), "{bad:?}");
        }
    }

    #[test]
    fn tables_meet_the_contract() {
        let mut names = BTreeSet::new();
        for (name, why) in WORKLOADS {
            assert!(valid_name(name) && names.insert(*name), "{name}");
            assert!(why.len() <= 200 && !why.contains('\n'), "{name}: {why}");
        }
        assert!((2..=8).contains(&WORKLOADS.len()));
        for (metric, bound) in END_TO_END {
            assert!(valid_name(metric.name) && names.insert(metric.name));
            assert!(valid_unit(metric.unit));
            assert!(*bound > 0.0 && *bound <= 0.25);
        }
        assert!((1..=16).contains(&END_TO_END.len()));
        let (setup, bound) = END_TO_END
            .iter()
            .find(|(metric, _)| metric.name == "setup_s")
            .expect("setup_s is mandatory");
        assert!(setup.unit == "s" && setup.better == Lower);
        assert!(END_TO_END.iter().all(|(_, b)| b <= bound));
        for metric in PER_LAYER {
            assert!(
                valid_name(metric.name) && names.insert(metric.name),
                "{}",
                metric.name
            );
            assert!(valid_unit(metric.unit), "{}", metric.unit);
        }
        assert!((1..=128).contains(&PER_LAYER.len()));
        assert!((1..=60).contains(&RUN_SECONDS));
    }

    #[test]
    fn benchmark_json_at_the_root_is_this_module_rendered() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        assert!(text.len() <= 64 << 10);
        let on_disk = Json::parse(&text).expect("BENCHMARK.json parses");
        assert_eq!(
            on_disk,
            benchmark_json(),
            "regenerate with `--print-benchmark-json`"
        );
    }
}
