//! The scenario runner: plan the variant × seed × rep matrix, replay the
//! journal, execute what is missing, evaluate gates, write the artifact.
//!
//! One invariant carries the whole resume story: a trial's deterministic
//! metrics are a pure function of (spec, variant, seed, rep), so a
//! journaled trial IS the trial and the deterministic analysis table of
//! a resumed run is byte-identical to an uninterrupted one. Timing
//! (wall clock, RSS) is kept in a separate section that never feeds the
//! table or the equivalence gates.
//!
//! Every `BENCH_*.json` artifact has one shape, written here and nowhere
//! else: `{"scenario", "spec_sha256", "trials": [row, …]}`, one
//! [`TrialRecord::to_row`] per line. A `wall_regression` or `baseline_eq`
//! baseline is such a file, read back with the same codec and looked up by
//! trial key.

use crate::exec::{self, TrialCtx};
use crate::gate::{self, GateReport};
use crate::journal::{self, JournalEntry, TrialKey, TrialRecord};
use crate::json::Json;
use crate::spec::ScenarioSpec;
use std::fmt::Write as _;
use std::path::PathBuf;

#[derive(Debug, Clone)]
pub struct RunOptions {
    /// Where the journal and analysis tables live (CI uploads this dir).
    pub journal_dir: PathBuf,
    /// Ignore any existing journal and rerun everything.
    pub fresh: bool,
    /// Execute at most this many *new* trials, then stop (journaled
    /// trials still replay). The interruption hook the resume tests use.
    pub max_trials: Option<usize>,
    /// Suppress per-trial progress lines.
    pub quiet: bool,
}

impl Default for RunOptions {
    fn default() -> RunOptions {
        RunOptions {
            journal_dir: PathBuf::from("lab_out"),
            fresh: false,
            max_trials: None,
            quiet: false,
        }
    }
}

pub struct RunOutcome {
    pub spec: ScenarioSpec,
    pub spec_sha256: String,
    /// Finished trials in plan order (the full matrix when `complete`).
    pub rows: Vec<TrialRecord>,
    pub reused: usize,
    pub executed: usize,
    /// False when `max_trials` stopped the run early.
    pub complete: bool,
    /// Empty unless `complete` — gates judge the whole matrix or nothing.
    pub gates: GateReport,
    /// Deterministic analysis table (metrics only, canonical rendering).
    pub table: String,
    /// Human section with wall clocks; excluded from `table` by design.
    pub timing: String,
    pub artifact_path: Option<String>,
    pub table_path: PathBuf,
}

/// Plan the full trial matrix in canonical order: variants in spec
/// order, seeds in spec order, reps innermost.
pub fn plan(spec: &ScenarioSpec) -> Vec<TrialKey> {
    let mut keys = Vec::new();
    for v in spec.effective_variants() {
        for &seed in &spec.seeds {
            for rep in 0..spec.reps {
                keys.push(TrialKey {
                    variant: v.name.clone(),
                    seed,
                    rep,
                });
            }
        }
    }
    keys
}

pub fn run_scenario(spec: &ScenarioSpec, opts: &RunOptions) -> Result<RunOutcome, String> {
    spec.validate()?;
    let spec_sha = spec.sha256_hex();
    let jpath = journal::journal_path(&opts.journal_dir, &spec.name);

    // Load the regression baseline *before* any artifact overwrite, so a
    // run that rewrites its own committed baseline still gates against
    // the pre-run bytes.
    let baseline = spec.baseline.as_deref().map(read_artifact);

    // One open for the whole run: it heals a torn tail before the first
    // append, and every trial after that is one write.
    let (mut jfile, lines) = journal::open(&jpath)?;
    let journaled = if opts.fresh {
        Vec::new()
    } else {
        journal::parse(&jpath, &lines)?
    };
    let build = journal::build_stamp()?;
    let other_build = journaled.iter().filter(|e| e.build != build).count();
    if other_build > 0 {
        eprintln!(
            "lab: {other_build} journaled trial(s) were written by another build: not reused"
        );
    }
    let reusable: Vec<&JournalEntry> = journaled
        .iter()
        .filter(|e| journal::reusable(e, &spec_sha, build))
        .collect();

    let keys = plan(spec);
    let variants = spec.effective_variants();
    let mut rows: Vec<TrialRecord> = Vec::with_capacity(keys.len());
    let mut reused = 0usize;
    let mut executed = 0usize;
    let mut complete = true;
    for key in &keys {
        if let Some(e) = reusable.iter().find(|e| e.record.key == *key) {
            if !opts.quiet {
                println!(
                    "  [journal] {}/seed={}/rep={}",
                    key.variant, key.seed, key.rep
                );
            }
            rows.push(e.record.clone());
            reused += 1;
            continue;
        }
        if opts.max_trials.is_some_and(|m| executed >= m) {
            complete = false;
            break;
        }
        let variant = variants
            .iter()
            .find(|v| v.name == key.variant)
            .expect("plan key names a spec variant");
        let ctx = TrialCtx {
            spec,
            params: spec.params.merged(&variant.overrides),
            variant: key.variant.clone(),
            seed: key.seed,
            rep: key.rep,
        };
        if !opts.quiet {
            println!(
                "  [run]     {}/seed={}/rep={}",
                key.variant, key.seed, key.rep
            );
        }
        let record = exec::run_trial(&ctx)
            .map_err(|e| format!("{}/seed={}/rep={}: {e}", key.variant, key.seed, key.rep))?;
        journal::write(
            &mut jfile,
            &jpath,
            &JournalEntry {
                spec_sha256: spec_sha.clone(),
                build: build.to_string(),
                record: record.clone(),
            },
        )?;
        rows.push(record);
        executed += 1;
    }

    let table = analysis_table(spec, &spec_sha, &rows, complete);
    let table_path = opts.journal_dir.join(format!("{}.table.txt", spec.name));
    std::fs::write(&table_path, &table).map_err(|e| format!("write {table_path:?}: {e}"))?;

    let mut gates = GateReport::default();
    let mut artifact_path = None;
    if complete {
        let baseline = match &baseline {
            Some(Ok(rows)) => Some(rows.as_slice()),
            Some(Err(err)) => {
                if needs_baseline(spec) {
                    // Surface *why* there is no baseline next to the gate error.
                    eprintln!("lab: baseline unavailable: {err}");
                }
                None
            }
            None => None,
        };
        gates = gate::evaluate(&spec.gates, &rows, baseline);
        if gates.all_pass() {
            if let Some(path) = &spec.artifact {
                let body = artifact(spec, &spec_sha, &rows);
                std::fs::write(path, body).map_err(|e| format!("write {path}: {e}"))?;
                artifact_path = Some(path.clone());
            }
        }
    }

    Ok(RunOutcome {
        spec: spec.clone(),
        spec_sha256: spec_sha,
        timing: timing_section(&rows),
        rows,
        reused,
        executed,
        complete,
        gates,
        table,
        artifact_path,
        table_path,
    })
}

/// Run a scenario and print the standard report: header, trial counts,
/// the deterministic analysis table, the timing section, gate lines and
/// the artifact/journal paths. Returns whether the run completed with
/// every gate passing — the body of the `lab` CLI.
pub fn run_and_report(spec: &ScenarioSpec, opts: &RunOptions) -> Result<bool, String> {
    println!(
        "== scenario {} ({}, {} variants x {} seeds x {} reps) ==",
        spec.name,
        spec.kind,
        spec.effective_variants().len(),
        spec.seeds.len(),
        spec.reps
    );
    let outcome = run_scenario(spec, opts)?;
    println!(
        "  {} trials ({} from journal, {} executed){}",
        outcome.rows.len(),
        outcome.reused,
        outcome.executed,
        if outcome.complete {
            ""
        } else {
            " — INTERRUPTED by --max-trials"
        }
    );
    print!("{}", outcome.table);
    if !outcome.timing.is_empty() {
        println!("timing (non-deterministic, excluded from the table):");
        print!("{}", outcome.timing);
    }
    if outcome.complete {
        for g in &outcome.gates.results {
            println!(
                "  gate {:<55} {:<5} {}",
                g.label,
                g.status.as_str(),
                g.detail
            );
        }
    }
    if let Some(p) = &outcome.artifact_path {
        println!("  wrote {p}");
    }
    println!(
        "  journal: {:?}, table: {:?}",
        journal::journal_path(&opts.journal_dir, &spec.name),
        outcome.table_path
    );
    println!();
    Ok(outcome.complete && outcome.gates.all_pass())
}

fn needs_baseline(spec: &ScenarioSpec) -> bool {
    spec.gates.iter().any(|g| {
        matches!(
            g,
            crate::spec::GateSpec::WallRegression { .. } | crate::spec::GateSpec::BaselineEq { .. }
        )
    })
}

/// The artifact: scenario identity, then one trial row per line so the
/// committed file stays greppable and diffs by trial.
fn artifact(spec: &ScenarioSpec, spec_sha: &str, rows: &[TrialRecord]) -> String {
    let rows: Vec<String> = rows.iter().map(|r| Json::Obj(r.to_row()).emit()).collect();
    format!(
        "{{\"scenario\":{},\"spec_sha256\":{},\"trials\":[\n{}\n]}}\n",
        Json::str(&spec.name).emit(),
        Json::str(spec_sha).emit(),
        rows.join(",\n")
    )
}

/// The trial rows of an artifact at `path`.
fn read_artifact(path: &str) -> Result<Vec<TrialRecord>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
    Json::parse(&text)
        .map_err(|e| format!("parse {path}: {e}"))?
        .get("trials")
        .and_then(Json::as_arr)
        .ok_or(format!("{path} has no trials array"))?
        .iter()
        .map(TrialRecord::from_row)
        .collect::<Result<_, _>>()
        .map_err(|e| format!("{path}: {e}"))
}

/// The deterministic analysis table: scenario identity, then one block
/// per trial in plan order with every deterministic metric in canonical
/// rendering. Byte-identical across interrupted/resumed/fresh runs of
/// the same spec — `tests/journal_resume.rs` pins exactly that.
fn analysis_table(
    spec: &ScenarioSpec,
    spec_sha: &str,
    rows: &[TrialRecord],
    complete: bool,
) -> String {
    let mut t = String::new();
    writeln!(t, "# scenario {} ({})", spec.name, spec.kind).unwrap();
    writeln!(t, "# spec sha256 {spec_sha}").unwrap();
    writeln!(
        t,
        "# trials {}{}",
        rows.len(),
        if complete { "" } else { " (partial)" }
    )
    .unwrap();
    for r in rows {
        writeln!(
            t,
            "trial variant={} seed={} rep={}",
            r.key.variant, r.key.seed, r.key.rep
        )
        .unwrap();
        for (k, v) in &r.metrics {
            writeln!(t, "  {k} = {}", v.canon()).unwrap();
        }
    }
    t
}

/// Wall clocks and other run-to-run noise, formatted for humans and kept
/// strictly out of the deterministic table.
fn timing_section(rows: &[TrialRecord]) -> String {
    let mut t = String::new();
    for r in rows {
        for (k, v) in &r.timing {
            writeln!(
                t,
                "  {}/seed={}/rep={}: {k} = {v:.3}",
                r.key.variant, r.key.seed, r.key.rep
            )
            .unwrap();
        }
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::journal::MetricValue;

    #[test]
    fn an_artifact_is_one_row_per_line_and_reads_back_as_its_rows() {
        let spec = ScenarioSpec::load("user_scaling").unwrap();
        let rows: Vec<TrialRecord> = plan(&spec)
            .into_iter()
            .map(|key| TrialRecord {
                metrics: vec![
                    ("n".into(), MetricValue::Num(1000.0)),
                    ("trace_sha256".into(), MetricValue::Str(key.variant.clone())),
                ],
                timing: vec![("wall_ms".into(), 13.81)],
                key,
                aux: vec![],
            })
            .collect();
        let body = artifact(&spec, &spec.sha256_hex(), &rows);
        let lines: Vec<&str> = body.lines().collect();
        assert_eq!(lines.len(), rows.len() + 2, "{body}");
        assert!(lines[1].starts_with(r#"{"variant":"n1k","seed":17,"rep":0,"metrics":"#));
        let path = std::env::temp_dir().join(format!("lab_artifact_{}.json", std::process::id()));
        std::fs::write(&path, &body).unwrap();
        assert_eq!(read_artifact(path.to_str().unwrap()).unwrap(), rows);
        let _ = std::fs::remove_file(&path);
    }
}
