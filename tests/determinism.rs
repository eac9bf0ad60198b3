//! Reproducibility: every experiment is a pure function of its seed and
//! configuration — the property that makes the benchmark harness's numbers
//! meaningful.
//!
//! The `*_executor_holds_its_pin` tests run scenario-lab executors through
//! `run_trial` at reduced scale. Each constant is the sha256 the
//! pre-migration bench bin and its executor both produced, recorded at
//! the last commit (`6d6bfc7`) that held inline copies of the bins; if an
//! executor drifts from its bin ancestry, this is the tripwire.

use esg::core::{run_fig8, run_table1, run_table1_metered, Table1Config};
use esg::netlogger::BandwidthMeter;
use esg::simnet::SimDuration;
use esg_lab::exec::{run_trial, TrialCtx};
use esg_lab::journal::{MetricValue, TrialRecord};
use esg_lab::json::Json;
use esg_lab::spec::{Params, ScenarioSpec};

/// The 3-minute Table 1 run both Table 1 tests use.
fn short_table1() -> Table1Config {
    Table1Config {
        duration: SimDuration::from_mins(3),
        ..Table1Config::default()
    }
}

#[test]
fn table1_runs_are_bit_identical() {
    let cfg = short_table1();
    let a = run_table1(cfg);
    let b = run_table1(cfg);
    assert_eq!(a.peak_0_1s_gbps.to_bits(), b.peak_0_1s_gbps.to_bits());
    assert_eq!(a.peak_5s_gbps.to_bits(), b.peak_5s_gbps.to_bits());
    assert_eq!(a.sustained_mbps.to_bits(), b.sustained_mbps.to_bits());
    assert_eq!(a.total_gbytes.to_bits(), b.total_gbytes.to_bits());
    assert_eq!(a.transfers_completed, b.transfers_completed);
}

/// `short_table1`'s results as bits: peak over 0.1 s (Gb/s), peak over
/// 5 s (Gb/s), sustained (Mb/s), total (GB), then transfers completed.
/// `table1_runs_are_bit_identical` compares two runs of one build, so a
/// drift between commits passes it; this pin does not. Regenerate with
/// `cargo test --test determinism table1_results -- --nocapture` only
/// after an intended change to the Table 1 model.
const TABLE1_PIN: [u64; 5] = [
    0x3fe9_5527_79c1_8cfe, // 0.7916448
    0x3fe9_5526_c036_a5ff, // 0.7916444544
    0x4079_5360_7230_9f04, // 405.2110464
    0x4022_3c08_004b_f79d, // 9.117248544
    24,
];

/// The sha256 of every sample of a Table 1 run's received-bytes meter:
/// each sample's time in nanoseconds, then its cumulative bytes as f64
/// bits, both little-endian. Five result numbers can hold while samples
/// between the peaks move; this cannot.
fn meter_sha(meter: &BandwidthMeter) -> String {
    let bytes: Vec<u8> = meter
        .samples()
        .iter()
        .flat_map(|&(t, b)| [t.as_nanos().to_le_bytes(), b.to_bits().to_le_bytes()])
        .flatten()
        .collect();
    esg::gsi::sha256(&bytes)
        .iter()
        .map(|b| format!("{b:02x}"))
        .collect()
}

/// `short_table1`'s meter series (see `meter_sha`). Regenerate with
/// `cargo test --test determinism table1_results -- --nocapture` only
/// after an intended change to the Table 1 model.
const TABLE1_SERIES_SHA: &str = "8e236a272c56849c4a7d899a1c2abfc0ce5de7fbe408c05d2b75f6e7bf337579";

#[test]
fn table1_results_are_pinned() {
    let (r, meter) = run_table1_metered(short_table1());
    let series_sha = meter_sha(&meter);
    println!(
        "table1: {} samples, series sha256 {series_sha}",
        meter.sample_count()
    );
    let got = [
        r.peak_0_1s_gbps.to_bits(),
        r.peak_5s_gbps.to_bits(),
        r.sustained_mbps.to_bits(),
        r.total_gbytes.to_bits(),
        r.transfers_completed,
    ];
    println!(
        "table1: {} / {} / {} / {} / {}; bits {:x?}",
        r.peak_0_1s_gbps,
        r.peak_5s_gbps,
        r.sustained_mbps,
        r.total_gbytes,
        r.transfers_completed,
        &got[..4]
    );
    assert_eq!(got, TABLE1_PIN, "pinned Table 1 results drifted");
    assert_eq!(
        series_sha, TABLE1_SERIES_SHA,
        "pinned Table 1 meter series drifted"
    );
}

/// The default one-hour run's results as bits, in `TABLE1_PIN`'s order,
/// and its meter series (see `meter_sha`): the hour the benchmark's
/// `striped_wan` workload measures. Regenerate with
/// `cargo test --release --test determinism table1_hour -- --nocapture`
/// only after an intended change to the Table 1 model.
const TABLE1_HOUR_PIN: [u64; 5] = [
    0x3ff8_cccd_7899_43de, // 1.55000064
    0x3ff0_e36f_2acf_1955, // 1.0555259392
    0x4080_664c_6e96_2c2c, // 524.7873203022223
    0x406d_84ef_fa41_82b5, // 236.154294136
    928,
];
const TABLE1_HOUR_SERIES_SHA: &str =
    "0933ec8effca9fe4d2b83581e409a136fd29bf05e59de02e05959945f79d1b25";

#[test]
#[cfg_attr(debug_assertions, ignore = "an hour of simulated time; run in release")]
fn table1_hour_is_pinned() {
    let (r, meter) = run_table1_metered(Table1Config::default());
    let series_sha = meter_sha(&meter);
    println!(
        "table1 hour: {} samples, series sha256 {series_sha}",
        meter.sample_count()
    );
    let got = [
        r.peak_0_1s_gbps.to_bits(),
        r.peak_5s_gbps.to_bits(),
        r.sustained_mbps.to_bits(),
        r.total_gbytes.to_bits(),
        r.transfers_completed,
    ];
    println!(
        "table1 hour: {} / {} / {} / {} / {}; bits {:x?}",
        r.peak_0_1s_gbps,
        r.peak_5s_gbps,
        r.sustained_mbps,
        r.total_gbytes,
        r.transfers_completed,
        &got[..4]
    );
    assert_eq!(got, TABLE1_HOUR_PIN, "pinned Table 1 hour drifted");
    assert_eq!(
        series_sha, TABLE1_HOUR_SERIES_SHA,
        "pinned Table 1 hour meter series drifted"
    );
}

/// A Table 1 run whose 16 MB partitions finish within a few watch periods:
/// a transfer can pass its `start_next_frac` and land between two of its
/// own 500 ms reads, so some chains die and the completion closure restarts
/// them, off the 500 ms grid the run started on. Its meter series (see
/// `meter_sha`) and transfer count. Regenerate with
/// `cargo test --test determinism table1_chain -- --nocapture` only after
/// an intended change to the Table 1 model.
const TABLE1_CHAIN_RESTART_PIN: (&str, u64) = (
    "ddb9eab85bf3d074f045712ea8a8ee6b40669e75299b4f9db1c7bc4d547db0c1",
    1280,
);

#[test]
fn table1_chain_restart_series_is_pinned() {
    let (r, meter) = run_table1_metered(Table1Config {
        file_bytes: 16_000_000,
        duration: SimDuration::from_mins(4),
        ..Table1Config::default()
    });
    let series_sha = meter_sha(&meter);
    println!(
        "table1 chain restarts: {} samples, series sha256 {series_sha}, {} completed",
        meter.sample_count(),
        r.transfers_completed
    );
    assert_eq!(
        (series_sha.as_str(), r.transfers_completed),
        TABLE1_CHAIN_RESTART_PIN,
        "pinned Table 1 chain-restart run drifted"
    );
}

/// A watch that reads every byte of its transfer delivered stops, and the
/// transfer stays in the sampler's set until its `226` banks the bytes: with
/// 240 ms one-way the `226` lands up to half a second after the last byte,
/// and a sampler that lost the transfer in between would read the curve
/// going backwards and the meter would drop the sample.
#[test]
fn table1_meter_drops_no_sample_when_a_watch_sees_every_byte() {
    let mut cfg = Table1Config {
        file_bytes: 16_000_000,
        duration: SimDuration::from_mins(4),
        ..Table1Config::default()
    };
    cfg.net.wan_one_way = SimDuration::from_millis(240);
    let (r, meter) = run_table1_metered(cfg);
    assert!(r.transfers_completed > 100, "{r:?}");
    assert_eq!(meter.dropped_samples(), 0, "{r:?}");
}

/// The 45-minute Figure 8 run: the sha256 of its series (each bin's start
/// and rate as little-endian f64 bits), then mean, plateau and total as
/// bits, restarts and transfers completed. Regenerate with
/// `cargo test --test determinism fig8 -- --nocapture` only after an
/// intended change to the Figure 8 model.
const FIG8_SERIES_SHA: &str = "cc514f304f796effe26d8206781a2c711efbce2b8d81407f2a000e6d7ab75bf4";
const FIG8_PIN: [u64; 5] = [
    0x4034_bfab_6562_78a2, // 20.748709045925928
    0x404c_7fcb_923a_29c7, // 56.9984
    0x401c_02c0_fc11_bc74, // 7.002689303
    1,
    3,
];

#[test]
fn fig8_series_is_bit_identical() {
    let duration = SimDuration::from_mins(45);
    let a = run_fig8(duration);
    let b = run_fig8(duration);
    assert_eq!(a.series.len(), b.series.len());
    for (x, y) in a.series.iter().zip(&b.series) {
        assert_eq!(x.0.to_bits(), y.0.to_bits());
        assert_eq!(x.1.to_bits(), y.1.to_bits());
    }
    assert_eq!(a.restarts, b.restarts);
    assert_eq!(a.transfers_completed, b.transfers_completed);

    let bytes: Vec<u8> = a
        .series
        .iter()
        .flat_map(|&(t, r)| [t.to_le_bytes(), r.to_le_bytes()])
        .flatten()
        .collect();
    let series_sha: String = esg::gsi::sha256(&bytes)
        .iter()
        .map(|b| format!("{b:02x}"))
        .collect();
    let got = [
        a.mean_mbps.to_bits(),
        a.plateau_mbps.to_bits(),
        a.total_gbytes.to_bits(),
        a.restarts,
        a.transfers_completed,
    ];
    println!(
        "fig8: {} bins, series sha256 {series_sha}; {} / {} / {} / {} / {}; bits {:x?}",
        a.series.len(),
        a.mean_mbps,
        a.plateau_mbps,
        a.total_gbytes,
        a.restarts,
        a.transfers_completed,
        &got[..3]
    );
    assert_eq!(
        series_sha, FIG8_SERIES_SHA,
        "pinned Figure 8 series drifted"
    );
    assert_eq!(got, FIG8_PIN, "pinned Figure 8 results drifted");
}

/// B1's three completion times (ftp-2001, dods-http, gridftp; seconds) as
/// bits. Regenerate with `cargo test --test determinism baselines --
/// --nocapture` only after an intended change to the B1 model.
const BASELINES_PIN: [u64; 3] = [
    0x4094_fc0c_ee14_78bc, // 1343.012626953
    0x4098_1778_b47a_d79e, // 1541.867875976
    0x4077_5674_68fb_e45f, // 373.403420433
];

#[test]
fn baselines_are_pinned() {
    let rows = esg::core::baseline_comparison();
    let got: Vec<u64> = rows.iter().map(|&(_, t)| t.to_bits()).collect();
    println!("baselines: {rows:?}; bits {got:x?}");
    assert_eq!(got, BASELINES_PIN, "pinned B1 completion times drifted");
}

#[test]
fn synthetic_climate_is_seed_stable() {
    // The generator's output feeds checksums in the loopback tests; it
    // must never drift across runs.
    let p = esg::cdms::SynthParams {
        lat_points: 16,
        lon_points: 32,
        time_steps: 4,
        hours_per_step: 6.0,
        seed: 424242,
    };
    let bytes_a = esg::cdms::to_bytes(&esg::cdms::generate("s", p));
    let bytes_b = esg::cdms::to_bytes(&esg::cdms::generate("s", p));
    assert_eq!(
        esg::gsi::sha256(&bytes_a),
        esg::gsi::sha256(&bytes_b),
        "generator must be deterministic"
    );
}

#[test]
fn end_to_end_testbed_outcomes_are_stable() {
    use esg::core::esg_testbed;
    use esg::reqman::submit_request;
    use esg::simnet::SimTime;

    let run = || -> (f64, String) {
        let mut tb = esg_testbed(5150);
        tb.publish_dataset("det_ds", 16, 8, 10_000_000, &[1, 2]);
        tb.start_nws(SimDuration::from_secs(25));
        tb.sim.run_until(SimTime::from_secs(100));
        let files = tb.sim.world.metadata.request_files("det_ds").unwrap();
        let client = tb.client;
        submit_request(&mut tb.sim, client, files, |s, o| s.world.outcomes.push(o));
        tb.sim.run_until(SimTime::from_secs(7200));
        let o = &tb.sim.world.outcomes[0];
        let hosts: Vec<String> = o
            .files
            .iter()
            .map(|f| f.replica_host.clone().unwrap_or_default())
            .collect();
        (o.finished.since(o.started).as_secs_f64(), hosts.join(","))
    };
    let (t1, h1) = run();
    let (t2, h2) = run();
    assert_eq!(t1.to_bits(), t2.to_bits());
    assert_eq!(h1, h2);
}

fn sha_hex(s: &str) -> String {
    esg::gsi::sha256(s.as_bytes())
        .iter()
        .map(|b| format!("{b:02x}"))
        .collect()
}

/// Golden trace hash for `user_scaling_trace_is_pinned` (N=64, regions=8,
/// seed=17) — the trace the pre-incremental full-recompute allocator, the
/// sequential solver and today's allocator all produced (A10/A14). If an intentional change to the workload,
/// topology or logging shifts the trace, regenerate with:
/// `cargo test user_scaling_trace -- --nocapture` and update.
const USER_SCALING_GOLDEN: &str =
    "05f2528ace6624dc347f92bb74847ce0ace90a81498e43e7fea734732c95f071";

#[test]
fn user_scaling_trace_is_pinned() {
    let run = esg_lab::scaling::run_flows(64, 8, 17, 0);
    let hex = sha_hex(&run.trace_ulm);
    println!("user_scaling trace sha256: {hex}");
    assert_eq!(
        hex, USER_SCALING_GOLDEN,
        "pinned user_scaling trace drifted"
    );
}

/// One trial of `kind` through the lab executor, on a spec holding
/// `params` and nothing else.
fn lab_trial(kind: &str, seed: u64, params: &[(&str, Json)]) -> TrialRecord {
    let spec = format!(r#"{{"name": "pin", "kind": "{kind}", "seeds": [{seed}]}}"#);
    run_trial(&TrialCtx {
        spec: &ScenarioSpec::from_json_str(&spec).unwrap(),
        params: Params::from(
            params
                .iter()
                .map(|(k, v)| (k.to_string(), v.clone()))
                .collect::<Vec<_>>(),
        ),
        variant: "base".into(),
        seed,
        rep: 0,
    })
    .unwrap()
}

fn str_metric<'a>(r: &'a TrialRecord, name: &str) -> &'a str {
    match r.metric(name) {
        Some(MetricValue::Str(s)) => s,
        other => panic!("metric {name} must be a string, got {other:?}"),
    }
}

/// The executor runs the identical (N=64, regions=8, seed=17) workload as
/// `user_scaling_trace_is_pinned`, so it must hit the same constant.
#[test]
fn user_scaling_executor_holds_its_pin() {
    let row = lab_trial(
        "user_scaling",
        17,
        &[
            ("n", Json::Int(64)),
            ("regions", Json::Int(8)),
            ("oracle_probes", Json::Int(2)),
            ("repeats", Json::Int(1)),
        ],
    );
    assert_eq!(str_metric(&row, "trace_sha256"), USER_SCALING_GOLDEN);
    assert_eq!(row.value("equivalent"), Some(1.0));
}

/// request_pipeline at seed 23, 2 requests: `(mode, trace, deliveries)`.
const PIPELINE_PINS: [(&str, &str, &str); 2] = [
    (
        "scheduler",
        "9b0369c296591af18e906a58add59e1b1729f6b3e4f4bfbe516b621cfd7df12d",
        "3a3c5b982d60e6852233cda853ed189a0c0fd7fb4f5fbdf946b3bf8f5b442d95",
    ),
    (
        "legacy",
        "a6fdb810cacdc2a44556cd909628e8ccaee0965601944f3d16ab4f8c6588bc51",
        "3a3c5b982d60e6852233cda853ed189a0c0fd7fb4f5fbdf946b3bf8f5b442d95",
    ),
];

#[test]
fn request_pipeline_executor_holds_its_pins() {
    for (mode, trace, deliveries) in PIPELINE_PINS {
        let row = lab_trial(
            "request_pipeline",
            23,
            &[
                ("requests", Json::Int(2)),
                ("min_rate", Json::Float(2.6e6)),
                ("mode", Json::str(mode)),
            ],
        );
        assert_eq!(str_metric(&row, "trace_sha256"), trace, "[{mode}]");
        assert_eq!(
            str_metric(&row, "deliveries_sha256"),
            deliveries,
            "[{mode}]"
        );
    }
}

/// soak_faults at seed 11, 12 requests, every fault class on.
const SOAK_FAULTS_TRACE: &str = "8ebbd066385e4da7419502bae59f4c0c7b3e587f3b18bedad4a2f0ad49dac3b1";

#[test]
fn soak_faults_executor_holds_its_pin() {
    let row = lab_trial("soak_faults", 11, &[("requests", Json::Int(12))]);
    assert_eq!(str_metric(&row, "trace_sha256"), SOAK_FAULTS_TRACE);
}

/// soak_corruption at seed 13, 8 requests.
const SOAK_CORRUPTION_TRACE: &str =
    "bc204566679fe001a3a21b9aab98300eed584a12e43e47162e920bbf73b45585";

#[test]
fn soak_corruption_executor_holds_its_pin() {
    let trace_path =
        std::env::temp_dir().join(format!("esg_pin_corruption_{}.ulm", std::process::id()));
    let row = lab_trial(
        "soak_corruption",
        13,
        &[
            ("requests", Json::Int(8)),
            ("trace_path", Json::str(trace_path.to_string_lossy())),
        ],
    );
    assert_eq!(str_metric(&row, "trace_sha256"), SOAK_CORRUPTION_TRACE);
    // The exported ULM file is the trace the metric hashed.
    let ulm = std::fs::read_to_string(&trace_path).unwrap();
    let _ = std::fs::remove_file(&trace_path);
    assert_eq!(sha_hex(&ulm), SOAK_CORRUPTION_TRACE);
}

/// Golden trace hash for `scheduler_pipeline_trace_is_pinned` (seed 29).
/// Regenerate with `cargo test scheduler_pipeline_trace -- --nocapture`
/// after intentional changes to the scheduler, workload or logging.
///
/// Regenerated once for the 100k-scale allocator rework: flow completion
/// instants are now exact (`anchor + remaining/rate`, no +1 ns epsilon),
/// byte progress integrates lazily but piecewise-exactly across rate
/// discontinuities, and `rm.tune.path` events carry the new data-channel
/// `cached` field. The old trace rounded completions up by a nanosecond
/// and jump-integrated across events, so every downstream timestamp
/// shifted; the new trace is still bit-stable run-to-run.
const SCHED_PIPELINE_GOLDEN: &str =
    "52cc912ddd664ac88dde92090d4890ec244cb19e5ef67e7d360390e5e4b285e3";

#[test]
fn scheduler_pipeline_trace_is_pinned() {
    use esg::core::esg_testbed;
    use esg::reqman::submit_request;
    use esg::simnet::SimTime;

    // Concurrent mixed hot/cold requests that exercise every scheduler
    // feature: admission queues, per-host caps (deferrals at the tape
    // site), prestage of queued cold files, and BDP tuning.
    let run = || -> String {
        let mut tb = esg_testbed(29);
        tb.sim.world.rm.min_rate = 2.6e6;
        tb.publish_dataset("sched_disk", 32, 4, 10_000_000, &[1, 3]);
        tb.publish_dataset("sched_tape", 8, 2, 15_000_000, &[0]);
        tb.start_nws(SimDuration::from_secs(25));
        tb.sim.run_until(SimTime::from_secs(100));
        let disk = tb.sim.world.metadata.request_files("sched_disk").unwrap();
        let tape = tb.sim.world.metadata.request_files("sched_tape").unwrap();
        let client = tb.client;
        for r in 0..2usize {
            let mut files: Vec<(String, String)> = (0..4)
                .map(|k| disk[(r * 4 + k) % disk.len()].clone())
                .collect();
            for k in 0..2 {
                files.push(tape[(r * 2 + k) % tape.len()].clone());
            }
            let at = SimTime::from_secs(100 + 2 * r as u64);
            tb.sim.schedule_at(at, move |sim| {
                submit_request(sim, client, files, |s, o| s.world.outcomes.push(o));
            });
        }
        tb.sim.run_until(SimTime::from_secs(1800));
        assert_eq!(tb.sim.world.outcomes.len(), 2, "both requests must finish");
        let rm = &tb.sim.world.rm;
        assert!(rm.sched_stats().prestaged > 0, "prestage must fire");
        assert!(rm.sched_stats().tuned > 0, "BDP tuning must fire");
        rm.log.to_ulm()
    };
    let a = run();
    let b = run();
    assert_eq!(a, b, "scheduler pipeline trace must be run-stable");
    let hex = sha_hex(&a);
    println!("scheduler pipeline trace sha256: {hex}");
    assert_eq!(hex, SCHED_PIPELINE_GOLDEN, "pinned scheduler trace drifted");
}

/// Golden trace hash for `soak_trace_is_pinned` (seed 11). Regenerate with
/// `cargo test soak_trace -- --nocapture` after intentional changes.
///
/// Regenerated once alongside `SCHED_PIPELINE_GOLDEN` for the 100k-scale
/// allocator rework (exact completion times, lazy piecewise-exact byte
/// integration, channel-cache tuning field) — see that constant's note.
const SOAK_GOLDEN: &str = "aef364ab53c4997fa698932eeedb6ea5fdbc938bc39f68a5fb869be4f0af7dad";

#[test]
fn soak_trace_is_pinned() {
    use esg::core::esg_testbed;
    use esg::reqman::submit_request;
    use esg::simnet::prelude::{inject_all, Fault, FaultKind};
    use esg::simnet::SimTime;

    // A miniature soak_faults run: seeded faults + seeded request schedule.
    let run = || -> String {
        let mut tb = esg_testbed(11);
        tb.publish_dataset("pcm_det.b06", 8, 4, 2_000_000, &[1, 2, 3]);
        tb.start_nws(SimDuration::from_secs(25));
        tb.sim.run_until(SimTime::from_secs(100));
        let site2 = tb.sites[2].node;
        let site3 = tb.sites[3].node;
        inject_all(
            &mut tb.sim,
            &[
                Fault::new(
                    SimTime::from_secs(140),
                    SimDuration::from_secs(30),
                    FaultKind::NodeDown(site2),
                ),
                Fault::new(
                    SimTime::from_secs(200),
                    SimDuration::from_secs(20),
                    FaultKind::NameServiceDown,
                ),
                Fault::new(
                    SimTime::from_secs(260),
                    SimDuration::from_secs(45),
                    FaultKind::NodeDown(site3),
                ),
            ],
        );
        let names = tb.sim.world.metadata.request_files("pcm_det.b06").unwrap();
        let client = tb.client;
        for (k, at) in [(0usize, 110u64), (1, 150), (0, 210), (1, 270)] {
            let files = vec![names[k].clone()];
            tb.sim.schedule_at(SimTime::from_secs(at), move |sim| {
                submit_request(sim, client, files, |s, o| s.world.outcomes.push(o));
            });
        }
        tb.sim.run_until(SimTime::from_secs(1800));
        assert_eq!(tb.sim.world.outcomes.len(), 4, "soak scenario must finish");
        tb.sim.world.rm.log.to_ulm()
    };

    let hex = sha_hex(&run());
    println!("soak trace sha256: {hex}");
    assert_eq!(hex, SOAK_GOLDEN, "pinned soak trace drifted");
}

/// Golden trace and delivery-manifest hashes of the n=100 `rm_scaling`
/// curve point (seed 17) — the values the legacy O(N)-rescan request
/// manager and the indexed one both produced (A16), as committed in
/// `BENCH_rm_scaling.json`.
const RM_SCALING_N100_TRACE: &str =
    "025ec9850b32404819ed33a09b9db1a80881e00a377f647af6799cf83d9bee1e";
const RM_SCALING_N100_MANIFEST: &str =
    "cb385cfe023d655675cdcca6d7a709a69be703dbee0830371d2c1542302bf165";

#[test]
fn rm_scaling_n100_trace_and_manifest_are_pinned() {
    // The CI scenario's own n100 point, through the lab executor.
    let spec = ScenarioSpec::load("rm_scaling_smoke").unwrap();
    let variant = spec
        .effective_variants()
        .into_iter()
        .find(|v| v.name == "n100")
        .unwrap();
    let record = run_trial(&TrialCtx {
        spec: &spec,
        params: spec.params.merged(&variant.overrides),
        variant: variant.name,
        seed: 17,
        rep: 0,
    })
    .unwrap();
    assert_eq!(str_metric(&record, "trace_sha256"), RM_SCALING_N100_TRACE);
    assert_eq!(
        str_metric(&record, "manifest_sha256"),
        RM_SCALING_N100_MANIFEST
    );
    assert_eq!(record.value("files_delivered"), Some(100.0));
}
