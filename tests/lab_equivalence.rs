//! Lab-executor trace pins: the scenario-lab executors were migrated
//! from the old per-experiment bench bins operation-for-operation — same
//! world construction order, same RNG streams, same event schedule. The
//! bins (and the inline copies of them this file used to carry) are
//! gone; what remains is their evidence. Each constant below is the
//! sha256 the pre-migration logic and the lab executor both produced for
//! one reduced-scale run, recorded at the last commit that still held
//! both. If an executor drifts from its bin ancestry, this is the
//! tripwire.

use esg_lab::journal::{MetricValue, TrialRecord};
use esg_lab::json::Json;
use esg_lab::runner::{run_scenario, RunOptions};
use esg_lab::sha_hex;
use esg_lab::spec::{Params, ScenarioSpec, Variant};

fn tmp_dir(tag: &str) -> std::path::PathBuf {
    let d = std::env::temp_dir().join(format!("esg_lab_equiv_{}_{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    std::fs::create_dir_all(&d).unwrap();
    d
}

/// Run one reduced-scale scenario through the full lab stack (runner +
/// journal + gates) and hand back the finished rows.
fn run_lab(
    kind: &str,
    seed: u64,
    params: Vec<(&str, Json)>,
    variants: Vec<Variant>,
) -> Vec<TrialRecord> {
    let spec = ScenarioSpec {
        name: format!("equiv_{kind}"),
        kind: kind.into(),
        description: String::new(),
        seeds: vec![seed],
        reps: 1,
        params: Params(params.into_iter().map(|(k, v)| (k.into(), v)).collect()),
        variants,
        faults: Vec::new(),
        metrics: Vec::new(),
        gates: Vec::new(),
        artifact: None,
        baseline: None,
    };
    let outcome = run_scenario(
        &spec,
        &RunOptions {
            journal_dir: tmp_dir(kind),
            fresh: true,
            max_trials: None,
            quiet: true,
        },
    )
    .unwrap();
    assert!(outcome.complete, "{kind}: lab run must complete");
    outcome.rows
}

fn str_metric<'a>(r: &'a TrialRecord, name: &str) -> &'a str {
    match r.metric(name) {
        Some(MetricValue::Str(s)) => s,
        other => panic!("metric {name} must be a string, got {other:?}"),
    }
}

/// Same constant as `USER_SCALING_GOLDEN` in tests/determinism.rs: the
/// executor runs the identical (N=64, regions=8, seed=17) workload.
const USER_SCALING_TRACE: &str = "05f2528ace6624dc347f92bb74847ce0ace90a81498e43e7fea734732c95f071";

#[test]
fn user_scaling_executor_holds_its_pin() {
    let rows = run_lab(
        "user_scaling",
        17,
        vec![
            ("n", Json::Int(64)),
            ("regions", Json::Int(8)),
            ("oracle_probes", Json::Int(2)),
            ("repeats", Json::Int(1)),
        ],
        Vec::new(),
    );
    assert_eq!(rows.len(), 1);
    assert_eq!(str_metric(&rows[0], "trace_sha256"), USER_SCALING_TRACE);
    assert_eq!(rows[0].value("equivalent"), Some(1.0));
}

/// request_pipeline at seed 23, 2 requests: `(variant, trace, deliveries)`.
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
    let mode = |m: &str| Variant {
        name: m.into(),
        overrides: Params(vec![("mode".into(), Json::str(m))]),
    };
    let rows = run_lab(
        "request_pipeline",
        23,
        vec![("requests", Json::Int(2)), ("min_rate", Json::Float(2.6e6))],
        vec![mode("scheduler"), mode("legacy")],
    );
    assert_eq!(rows.len(), 2);
    for (variant, trace, deliveries) in PIPELINE_PINS {
        let row = rows.iter().find(|r| r.key.variant == variant).unwrap();
        assert_eq!(str_metric(row, "trace_sha256"), trace, "[{variant}]");
        assert_eq!(
            str_metric(row, "deliveries_sha256"),
            deliveries,
            "[{variant}]"
        );
    }
}

/// soak_faults at seed 11, 12 requests, every fault class on.
const SOAK_FAULTS_TRACE: &str = "8ebbd066385e4da7419502bae59f4c0c7b3e587f3b18bedad4a2f0ad49dac3b1";

#[test]
fn soak_faults_executor_holds_its_pin() {
    let rows = run_lab(
        "soak_faults",
        11,
        vec![("requests", Json::Int(12)), ("mode", Json::str("all"))],
        Vec::new(),
    );
    assert_eq!(str_metric(&rows[0], "trace_sha256"), SOAK_FAULTS_TRACE);
}

/// soak_corruption at seed 13, 8 requests.
const SOAK_CORRUPTION_TRACE: &str =
    "bc204566679fe001a3a21b9aab98300eed584a12e43e47162e920bbf73b45585";

#[test]
fn soak_corruption_executor_holds_its_pin() {
    let trace_path = tmp_dir("corruption_trace").join("equiv.ulm");
    let rows = run_lab(
        "soak_corruption",
        13,
        vec![
            ("requests", Json::Int(8)),
            ("trace_path", Json::str(trace_path.to_string_lossy())),
        ],
        Vec::new(),
    );
    assert_eq!(str_metric(&rows[0], "trace_sha256"), SOAK_CORRUPTION_TRACE);
    // The exported ULM file is the trace the metric hashed.
    assert_eq!(
        sha_hex(&std::fs::read_to_string(&trace_path).unwrap()),
        SOAK_CORRUPTION_TRACE
    );
}
