//! End-to-end observability: causal tracing, lifeline reconstruction and
//! the unified metrics registry over a real testbed run.

use esg::core::esg_testbed;
use esg::netlogger::{LifelineSet, NetLog};
use esg::reqman::submit_request;
use esg::simnet::{SimDuration, SimTime};
use esg::storage::{Hrm, TapeParams};

#[path = "../crates/netlogger/tests/support/recount.rs"]
mod recount;

/// One mixed hot/cold request on the Figure 1 testbed: four replicated
/// disk files plus one tape-only file behind the HPSS HRM.
fn run_mixed(seed: u64) -> esg::core::EsgTestbed {
    run_mixed_with(seed, None)
}

/// [`run_mixed`] with the streaming observability plane optionally on:
/// `live_threshold_s` attaches the online lifeline analyzer and arms the
/// live stall probes at that threshold.
fn run_mixed_with(seed: u64, live_threshold_s: Option<u64>) -> esg::core::EsgTestbed {
    let mut tb = esg_testbed(seed);
    if let Some(t) = live_threshold_s {
        tb.sim
            .world
            .rm
            .enable_live_analysis(SimDuration::from_secs(t));
    }
    tb.sim.world.rm.add_hrm(
        "hpss.lbl.gov",
        Hrm::new(
            TapeParams {
                drives: 2,
                mount: SimDuration::from_secs(10),
                seek: SimDuration::from_secs(5),
                rate: 25e6,
            },
            1 << 38,
        ),
    );
    tb.publish_dataset("obs.disk", 16, 4, 10_000_000, &[1, 3]);
    tb.publish_dataset("obs.tape", 4, 2, 15_000_000, &[0]);
    tb.start_nws(SimDuration::from_secs(25));
    tb.sim.run_until(SimTime::from_secs(100));

    let tc = tb.sim.world.metadata.collection_of("obs.tape").unwrap();
    let mut files = tb.sim.world.metadata.request_files("obs.disk").unwrap();
    files.truncate(4);
    files.push((
        tc.clone(),
        tb.sim.world.metadata.all_files("obs.tape").unwrap()[0]
            .name
            .clone(),
    ));
    let client = tb.client;
    submit_request(&mut tb.sim, client, files, |s, o| s.world.outcomes.push(o));
    tb.sim.run_until(SimTime::from_secs(3600));
    assert_eq!(tb.sim.world.outcomes.len(), 1);
    assert!(tb.sim.world.outcomes[0].files.iter().all(|f| f.done));
    tb
}

#[test]
fn every_delivered_file_reconstructs_a_complete_lifeline() {
    let tb = run_mixed(41);
    // Reconstruct from the *parsed* trace: the offline path a NetLogger
    // consumer would take from the ULM file.
    let ulm = tb.sim.world.rm.log.to_ulm();
    let parsed = NetLog::from_ulm(&ulm).expect("trace parses");
    assert_eq!(parsed.to_ulm(), ulm, "round-trip must be byte-identical");

    let set = LifelineSet::from_log(&parsed);
    assert!(set.orphans.is_empty(), "orphans: {:?}", set.orphans);
    let o = &tb.sim.world.outcomes[0];
    assert_eq!(set.lifelines.len(), o.files.len());
    for f in &o.files {
        let l = set.lifeline(o.id, &f.name).expect("lifeline exists");
        assert!(l.is_complete(), "incomplete tiling for {}", f.name);
        assert!(l.tiling_gap_s().unwrap() < 1e-6);
        assert_eq!(l.transfer_bytes(), f.size, "byte coverage for {}", f.name);
        assert_eq!(l.status(), Some("done"));
    }
    // The tape file's lifeline carries a Stage phase; disk files do not.
    let tape = o
        .files
        .iter()
        .find(|f| f.name.contains("obs.tape"))
        .unwrap();
    let l = set.lifeline(o.id, &tape.name).unwrap();
    assert!(l.phase_totals().contains_key("stage"), "tape file staged");
    let disk = o
        .files
        .iter()
        .find(|f| f.name.contains("obs.disk"))
        .unwrap();
    let l = set.lifeline(o.id, &disk.name).unwrap();
    assert!(!l.phase_totals().contains_key("stage"));
    // One critical path for the one request, gated by a real file.
    let cps = set.critical_paths();
    assert_eq!(cps.len(), 1);
    assert!(cps[0].makespan_s > 0.0);
}

#[test]
fn span_events_carry_causal_context() {
    let tb = run_mixed(42);
    let rm = &tb.sim.world.rm;
    // Every span event names its span and phase; every file-scoped event
    // carries request and file stamped by the trace context.
    for e in rm.log.named("span.start") {
        assert!(e.has("span") && e.has("phase"), "{}", e.to_ulm());
    }
    for e in rm.log.named("rm.replica.selected") {
        assert!(
            e.has("request") && e.has("file") && e.has("attempt"),
            "{}",
            e.to_ulm()
        );
    }
    // Prestage spans are request-scoped (no file).
    let prestart = rm
        .log
        .named("span.start")
        .find(|e| matches!(e.get("phase"), Some(v) if v.to_string() == "prestage"))
        .expect("tape workload prestages");
    assert!(prestart.has("request") && !prestart.has("file"));
    // span.start/span.end pair up exactly.
    assert_eq!(
        rm.log.named("span.start").count(),
        rm.log.named("span.end").count()
    );
}

#[test]
fn metrics_registry_unifies_all_layers_and_snapshots_deterministically() {
    let tb = run_mixed(43);
    let mut reg = tb.sim.world.rm.metrics.clone();
    reg.import_alloc(&tb.sim.net.alloc_stats());
    tb.sim.world.gridftp.export_metrics(&mut reg);
    tb.sim.world.rm.integrity.export_metrics(&mut reg);

    // The registry view agrees with the typed SchedStats facade.
    let stats = tb.sim.world.rm.sched_stats();
    assert_eq!(stats.admitted, reg.counter("rm.sched.admitted"));
    assert!(stats.admitted >= 5, "five files admitted");
    assert_eq!(stats.prestaged, reg.counter("rm.sched.prestaged"));
    assert!(stats.prestaged >= 1, "the tape file prestaged");
    assert!(tb.sim.world.rm.monitor_ticks() == reg.counter("rm.monitor.ticks"));

    // Cross-layer counters landed under one interface.
    assert_eq!(reg.counter("rm.requests.completed"), 1);
    assert_eq!(reg.counter("rm.files.completed"), 5);
    assert!(reg.counter("gridftp.transfers_completed") >= 5);
    assert!(reg.counter("simnet.alloc.flow_solves") > 0);

    // Phase histograms observed every closed span; makespans are positive.
    let h = reg
        .histogram("rm.file.makespan_s")
        .expect("makespans observed");
    assert_eq!(h.count(), 5);
    assert!(h.min().unwrap() > 0.0);
    let q = reg.histogram("rm.phase.queue_s").expect("queue observed");
    assert!(q.count() >= 5);

    // Snapshots are deterministic: same registry, same JSON.
    assert_eq!(reg.to_json(), reg.clone().to_json());
    let tb2 = run_mixed(43);
    let mut reg2 = tb2.sim.world.rm.metrics.clone();
    reg2.import_alloc(&tb2.sim.net.alloc_stats());
    tb2.sim.world.gridftp.export_metrics(&mut reg2);
    tb2.sim.world.rm.integrity.export_metrics(&mut reg2);
    assert_eq!(reg.to_json(), reg2.to_json(), "same seed, same snapshot");
}

#[test]
fn stall_detector_flags_tape_staging_but_not_healthy_transfers() {
    let tb = run_mixed(44);
    let set = LifelineSet::from_log(&tb.sim.world.rm.log);
    // Tape staging (mount + seek + stream behind 2 drives) takes tens of
    // seconds; healthy disk transfers take a few. A threshold between the
    // two flags exactly the staging spans.
    let stalls = set.detect_stalls(15.0);
    assert!(!stalls.is_empty(), "staging must trip the detector");
    assert!(stalls
        .iter()
        .all(|s| s.phase.as_str() == "stage" || s.phase.as_str() == "prestage"));
    // A generous threshold is silent.
    assert!(set.detect_stalls(500.0).is_empty());
}

#[test]
fn streaming_analyzer_matches_offline_lifeline_pass_end_to_end() {
    let tb = run_mixed_with(45, Some(15));
    let rm = &tb.sim.world.rm;
    let live = rm.log.live().expect("analyzer attached");
    // The tap saw every stored event, including the live-fired obs.stall
    // events themselves.
    assert_eq!(live.events_seen(), rm.log.len() as u64);

    // The tap holds what an independent recount of the trace says it
    // must, and its horizon is the offline pass's.
    assert_eq!(recount::tap_matches_recount(live, &rm.log), Ok(()));
    let offline = LifelineSet::from_log(&rm.log);
    assert_eq!(live.trace_end(), offline.trace_end);
    // The incrementally-maintained per-file phase totals (never rebuilt)
    // agree with each offline lifeline's tiling.
    assert!(!offline.lifelines.is_empty());
    for l in &offline.lifelines {
        let inc = live
            .file_phase_totals(l.request, &l.file)
            .unwrap_or_default();
        assert_eq!(inc, l.phase_totals(), "incremental totals for {}", l.file);
        assert!(l.is_complete(), "complete tiling for {}", l.file);
    }
}

#[test]
fn live_stall_probe_fires_obs_stall_at_detection_time() {
    let threshold = 15u64;
    let tb = run_mixed_with(46, Some(threshold));
    let rm = &tb.sim.world.rm;

    // The tape staging path holds spans open past the threshold, so the
    // live probes must have fired — and counter, analyzer tally and trace
    // events all agree on how often.
    let fired: Vec<_> = rm.log.named("obs.stall").collect();
    assert!(!fired.is_empty(), "tape staging must trip the live probe");
    assert_eq!(rm.metrics.counter("obs.stalls"), fired.len() as u64);
    assert_eq!(
        rm.log.live().expect("analyzer attached").stalls_fired(),
        fired.len() as u64
    );
    // Each firing also landed in the per-phase stall histograms.
    let hist_count: u64 = ["stage", "prestage", "transfer", "queue", "verify"]
        .iter()
        .filter_map(|p| rm.metrics.histogram(&format!("obs.stall.{p}_s")))
        .map(|h| h.count())
        .sum();
    assert_eq!(hist_count, fired.len() as u64);

    // Every live firing corresponds to an offline-detected stall of the
    // same span, and fired the instant the span crossed the threshold
    // (open + threshold + 1 ns under the strict-> rule), while the span
    // was still open — not post-hoc at trace end.
    let set = LifelineSet::from_log(&rm.log);
    let stalls = set.detect_stalls(threshold as f64);
    let by_span: std::collections::BTreeMap<u64, _> = stalls.iter().map(|s| (s.span, s)).collect();
    assert!(fired.len() <= stalls.len());
    for e in &fired {
        let span = e.get_num("span").expect("span field") as u64;
        let s = by_span
            .get(&span)
            .expect("live-fired span is in the offline stall set");
        assert_eq!(
            e.time.as_nanos(),
            s.start.as_nanos() + SimTime::from_secs(threshold).as_nanos() + 1,
            "fires at detection time, span {span}"
        );
        assert!(
            e.time.as_secs_f64() <= s.start.as_secs_f64() + s.duration_s + 1e-9,
            "fires before the span closes, span {span}"
        );
        let stalled = e.get_num("stalled_s").expect("stalled_s field");
        assert!(
            (stalled - threshold as f64).abs() < 1e-6,
            "age at fire time is the threshold, got {stalled}"
        );
        assert!(e.has("phase") && e.has("open"));
    }
    // The offline detector on the same trace still classifies the stalls
    // the way the post-hoc test does: staging, never healthy transfers.
    assert!(stalls
        .iter()
        .all(|s| s.phase.as_str() == "stage" || s.phase.as_str() == "prestage"));
}
