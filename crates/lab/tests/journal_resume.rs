//! Journal resume correctness: a scenario run that is interrupted after
//! N trials — by `--max-trials` or by a truncated/torn journal file —
//! must, on rerun, skip the already-journaled trials and converge to an
//! analysis table (including every trace sha256 pin) byte-identical to
//! an uninterrupted run of the same spec.

use esg_lab::journal::{self, MetricValue, TrialKey};
use esg_lab::json::Json;
use esg_lab::runner::{plan, run_scenario, RunOptions, RunOutcome};
use esg_lab::spec::{GateSpec, Params, ScenarioSpec, Variant};
use std::path::{Path, PathBuf};

/// A cheap, fully deterministic scenario: two tiny user_scaling points
/// over two seeds (4 trials), debug-build friendly.
fn probe_spec() -> ScenarioSpec {
    let point = |n: i128| Variant {
        name: format!("n{n}"),
        overrides: Params(vec![("n".into(), Json::Int(n))]),
    };
    ScenarioSpec {
        name: "resume_probe".into(),
        kind: "user_scaling".into(),
        description: "journal resume test workload".into(),
        seeds: vec![17, 23],
        reps: 1,
        params: Params(vec![
            ("regions".into(), Json::Int(8)),
            ("oracle_probes".into(), Json::Int(2)),
            ("repeats".into(), Json::Int(1)),
        ]),
        variants: vec![point(48), point(64)],
        faults: Vec::new(),
        metrics: Vec::new(),
        gates: vec![GateSpec::NonZero {
            metric: "equivalent".into(),
            variants: None,
        }],
        artifact: None,
        baseline: None,
    }
}

fn tmp_dir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("esg_lab_resume_{}_{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    std::fs::create_dir_all(&d).unwrap();
    d
}

fn opts(dir: &Path) -> RunOptions {
    RunOptions {
        journal_dir: dir.to_path_buf(),
        fresh: false,
        max_trials: None,
        quiet: true,
    }
}

/// Every trial's `trace_sha256` pin, in plan order.
fn pins(outcome: &RunOutcome) -> Vec<String> {
    outcome
        .rows
        .iter()
        .map(|r| match r.metric("trace_sha256").unwrap() {
            MetricValue::Str(s) => s.clone(),
            other => panic!("trace_sha256 must be a string, got {other:?}"),
        })
        .collect()
}

#[test]
fn interrupted_run_resumes_to_identical_table() {
    let spec = probe_spec();
    assert_eq!(plan(&spec).len(), 4);

    // Reference: one uninterrupted run.
    let dir_a = tmp_dir("uninterrupted");
    let full = run_scenario(&spec, &opts(&dir_a)).unwrap();
    assert!(full.complete);
    assert_eq!(full.executed, 4);
    assert!(full.gates.all_pass());
    let full_pins = pins(&full);

    // Interrupted: two trials, stop, then resume to completion.
    let dir_b = tmp_dir("maxtrials");
    let part = run_scenario(
        &spec,
        &RunOptions {
            max_trials: Some(2),
            ..opts(&dir_b)
        },
    )
    .unwrap();
    assert!(!part.complete);
    assert_eq!(part.executed, 2);
    assert!(part.table.contains("(partial)"));
    // Gates never judge a partial matrix.
    assert!(part.gates.results.is_empty());

    let resumed = run_scenario(&spec, &opts(&dir_b)).unwrap();
    assert!(resumed.complete);
    assert_eq!(resumed.reused, 2, "journaled trials must be skipped");
    assert_eq!(resumed.executed, 2, "only the missing trials execute");
    assert_eq!(
        resumed.table, full.table,
        "resumed analysis table must be byte-identical to the uninterrupted run"
    );
    assert_eq!(
        pins(&resumed),
        full_pins,
        "trace pins must survive the resume"
    );

    // A third run reuses everything and still lands on the same bytes.
    let replay = run_scenario(&spec, &opts(&dir_b)).unwrap();
    assert_eq!(replay.reused, 4);
    assert_eq!(replay.executed, 0);
    assert_eq!(replay.table, full.table);
}

#[test]
fn truncated_journal_with_torn_tail_resumes_cleanly() {
    let spec = probe_spec();

    let dir = tmp_dir("truncated");
    let full = run_scenario(&spec, &opts(&dir)).unwrap();
    assert!(full.complete && full.executed == 4);

    // Simulate a crash mid-append: keep the first two entries plus half
    // of the third line (a torn write the reader must drop silently).
    let jpath = journal::journal_path(&dir, &spec.name);
    let text = std::fs::read_to_string(&jpath).unwrap();
    let lines: Vec<&str> = text.lines().collect();
    assert_eq!(lines.len(), 4, "one journal line per trial");
    let torn = format!(
        "{}\n{}\n{}",
        lines[0],
        lines[1],
        &lines[2][..lines[2].len() / 2]
    );
    std::fs::write(&jpath, torn).unwrap();
    assert_eq!(journal::read(&jpath).unwrap().len(), 2);

    let resumed = run_scenario(&spec, &opts(&dir)).unwrap();
    assert!(resumed.complete);
    assert_eq!(resumed.reused, 2);
    assert_eq!(resumed.executed, 2);
    assert_eq!(
        resumed.table, full.table,
        "post-crash resume must converge to the uninterrupted table"
    );
    // The journal healed: all four trials re-journaled, next run is free.
    assert_eq!(journal::read(&jpath).unwrap().len(), 4);
}

/// The trial journal's crash points: a crash can leave the file cut at
/// any byte of an append. Cut the finished journal at every line boundary,
/// halfway through every line and just before every `\n`; each cut must
/// resume to the uninterrupted table and pins, reusing exactly the trials
/// on the complete lines it kept.
#[test]
fn every_trial_journal_cut_resumes_to_the_uninterrupted_table() {
    let spec = probe_spec();
    let dir = tmp_dir("cuts");
    let full = run_scenario(&spec, &opts(&dir)).unwrap();
    assert!(full.complete && full.executed == 4);
    let jpath = journal::journal_path(&dir, &spec.name);
    let bytes = std::fs::read(&jpath).unwrap();
    let keys = |entries: Vec<journal::JournalEntry>| -> Vec<TrialKey> {
        entries.into_iter().map(|e| e.record.key).collect()
    };
    let all_keys = keys(journal::read(&jpath).unwrap());
    assert_eq!(all_keys.len(), 4, "one journal line per trial");

    let mut cuts = vec![0];
    let mut start = 0;
    for (i, _) in bytes.iter().enumerate().filter(|(_, &b)| b == b'\n') {
        cuts.extend([start + (i - start) / 2, i, i + 1]);
        start = i + 1;
    }
    assert_eq!(start, bytes.len(), "the finished journal ends with a line");
    assert_eq!(cuts.len(), 13);

    for cut in cuts {
        std::fs::write(&jpath, &bytes[..cut]).unwrap();
        let kept = bytes[..cut].iter().filter(|&&b| b == b'\n').count();
        let resumed = run_scenario(&spec, &opts(&dir)).unwrap();
        assert!(resumed.complete, "cut at byte {cut}");
        assert_eq!(
            (resumed.reused, resumed.executed),
            (kept, 4 - kept),
            "cut at byte {cut} keeps {kept} complete line(s)"
        );
        assert_eq!(resumed.table, full.table, "cut at byte {cut}");
        assert_eq!(pins(&resumed), pins(&full), "cut at byte {cut}");
        // The kept lines' trials lead the healed journal, in their order.
        let healed = keys(journal::read(&jpath).unwrap());
        assert_eq!(healed.len(), 4, "cut at byte {cut}");
        assert_eq!(healed[..kept], all_keys[..kept], "cut at byte {cut}");
    }
}

#[test]
fn changed_spec_invalidates_the_journal() {
    let mut spec = probe_spec();
    let dir = tmp_dir("spec_hash");
    let first = run_scenario(&spec, &opts(&dir)).unwrap();
    assert_eq!(first.executed, 4);

    // Same scenario name, different params — same journal file, but the
    // recorded spec hash no longer matches, so nothing is reusable.
    spec.params.0.push(("oracle_probes".into(), Json::Int(3)));
    let second = run_scenario(&spec, &opts(&dir)).unwrap();
    assert_eq!(
        second.reused, 0,
        "a changed spec must invalidate journaled trials"
    );
    assert_eq!(second.executed, 4);
}

#[test]
fn a_journal_written_by_another_build_is_not_replayed() {
    // Two trials: one seed of the probe.
    let mut spec = probe_spec();
    spec.seeds.truncate(1);
    let dir = tmp_dir("other_build");
    let first = run_scenario(&spec, &opts(&dir)).unwrap();
    assert_eq!((first.reused, first.executed), (0, 2));

    // Rewrite every line's stamp, as if a different `lab` had run them.
    let jpath = journal::journal_path(&dir, &spec.name);
    let stamp = journal::build_stamp().unwrap();
    let text = std::fs::read_to_string(&jpath).unwrap();
    assert_eq!(text.matches(stamp).count(), 2, "one stamp per line");
    std::fs::write(&jpath, text.replace(stamp, &"0".repeat(64))).unwrap();

    let second = run_scenario(&spec, &opts(&dir)).unwrap();
    assert_eq!(second.reused, 0, "another build's trials must re-run");
    assert_eq!(second.executed, 2);
    assert_eq!(second.table, first.table);

    // This build's own lines, appended behind the stale ones, are reused.
    let third = run_scenario(&spec, &opts(&dir)).unwrap();
    assert_eq!((third.reused, third.executed), (2, 0));
    assert_eq!(third.table, first.table);
}
