//! Scenario executors: one module per scenario *kind*, except `paper`,
//! which holds every kind that is one call into `esg_core::experiments`
//! (Table 1, Figure 8, A1–A9, B1, E1).
//!
//! An executor is the imperative half of a spec — it builds the
//! simulated world from the merged trial parameters, runs it, and
//! returns a `TrialRecord` and nothing else: the runner writes every
//! artifact from those records, so no executor formats JSON. The
//! executors reproduce the bench bins they replaced operation-for-operation
//! (same construction order, same RNG streams, same event schedule), so
//! the golden trace pins carried over bit-for-bit — `tests/determinism.rs`
//! at the workspace root pins, through `run_trial`, the sha256 each bin
//! produced before it was deleted.
//!
//! The chores executors share have one copy each, here: an empty record
//! ([`TrialCtx::record`]), a scratch path ([`TrialCtx::tmp_path`]), a row
//! ([`put`], [`put_str`]), trace-event counts ([`put_counts`]), the
//! outcome summary ([`put_deliveries`]) and a random interactive workload
//! ([`random_requests`]).

use crate::journal::{MetricValue, TrialKey, TrialRecord};
use crate::spec::{FaultSpec, Params, ScenarioSpec};
use esg_core::scenario::Site;
use esg_core::EsgTestbed;
use esg_netlogger::NetLog;
use esg_reqman::{submit_request, RequestOutcome};
use esg_simnet::prelude::{Fault, FaultKind};
use esg_simnet::{SimDuration, SimTime};
use rand::rngs::StdRng;
use rand::Rng;
use std::ops::Range;
use std::path::PathBuf;

pub mod campaign;
mod campaign_round;
pub mod lifeline;
pub mod mixed;
pub mod paper;
pub mod pipeline;
pub mod rm_profile;
pub mod rm_scaling;
pub mod soak;
pub mod user_scaling;

/// One trial's resolved inputs: the spec, the merged (base + variant
/// override) parameters, and the matrix coordinates.
pub struct TrialCtx<'a> {
    pub spec: &'a ScenarioSpec,
    pub params: Params,
    pub variant: String,
    pub seed: u64,
    pub rep: u32,
}

impl TrialCtx<'_> {
    /// An empty record at the trial's coordinates in the variant × seed ×
    /// rep matrix.
    pub fn record(&self) -> TrialRecord {
        TrialRecord {
            key: TrialKey {
                variant: self.variant.clone(),
                seed: self.seed,
                rep: self.rep,
            },
            metrics: Vec::new(),
            timing: Vec::new(),
            aux: Vec::new(),
        }
    }

    /// Scratch file for this trial, unique per (scenario, variant, seed,
    /// rep, tag).
    pub fn tmp_path(&self, tag: &str, ext: &str) -> PathBuf {
        std::env::temp_dir().join(format!(
            "esg-lab-{}-{}-s{}-r{}-{tag}.{ext}",
            self.spec.name, self.variant, self.seed, self.rep
        ))
    }
}

/// Add one numeric metric to `rec`.
pub fn put(rec: &mut TrialRecord, name: &str, v: f64) {
    rec.metrics.push((name.into(), MetricValue::Num(v)));
}

/// Add one string metric (a digest, a mode) to `rec`.
pub fn put_str(rec: &mut TrialRecord, name: &str, v: String) {
    rec.metrics.push((name.into(), MetricValue::Str(v)));
}

/// One metric per `(metric, event)` row: how many `event` records `log`
/// holds.
pub fn put_counts(rec: &mut TrialRecord, log: &NetLog, table: &[(&str, &str)]) {
    for &(metric, event) in table {
        put(rec, metric, log.named(event).count() as f64);
    }
}

/// Bytes delivered across every file of `outcomes`.
pub fn bytes_delivered(outcomes: &[RequestOutcome]) -> u64 {
    outcomes
        .iter()
        .flat_map(|o| &o.files)
        .map(|f| f.bytes_done)
        .sum()
}

/// The outcome summary: `files` requested, `files_complete` (done with
/// every byte) and `bytes_delivered`.
pub fn put_deliveries(rec: &mut TrialRecord, outcomes: &[RequestOutcome]) {
    let files = outcomes.iter().flat_map(|o| &o.files);
    let complete = files
        .clone()
        .filter(|f| f.done && f.bytes_done == f.size)
        .count();
    put(rec, "files", files.count() as f64);
    put(rec, "files_complete", complete as f64);
    put(rec, "bytes_delivered", bytes_delivered(outcomes) as f64);
}

/// Schedule `n` interactive requests against `files`, each pushing its
/// outcome to `world.outcomes`. Each request draws, in this order: its
/// submit time, a uniform whole second in `window`; its size, uniform in
/// 1..=`k`; then each of its files, uniform over `files` (repeats
/// allowed). The soak and campaign traces pin that draw order.
pub fn random_requests(
    tb: &mut EsgTestbed,
    rng: &mut StdRng,
    files: &[(String, String)],
    n: usize,
    window: Range<u64>,
    k: usize,
) {
    let client = tb.client;
    for _ in 0..n {
        let at = SimTime::from_secs(rng.gen_range(window.clone()));
        let k = rng.gen_range(1usize..=k);
        let picks: Vec<_> = (0..k)
            .map(|_| files[rng.gen_range(0usize..files.len())].clone())
            .collect();
        tb.sim.schedule_at(at, move |sim| {
            submit_request(sim, client, picks, |s, o| s.world.outcomes.push(o));
        });
    }
}

/// Dispatch a trial to its kind's executor. A param the executor never read
/// fails the trial, naming it: a misspelled or orphaned key must not run the
/// default unseen.
pub fn run_trial(ctx: &TrialCtx) -> Result<TrialRecord, String> {
    let mut record = match ctx.spec.kind.as_str() {
        "user_scaling" => user_scaling::run(ctx),
        "request_pipeline" => pipeline::run(ctx),
        "lifeline" => lifeline::run(ctx),
        "soak_faults" => soak::run_faults(ctx),
        "soak_corruption" => soak::run_corruption(ctx),
        "campaign_soak" => campaign::run(ctx),
        "rm_scaling" => rm_scaling::run(ctx),
        "rm_profile" => rm_profile::run(ctx),
        other => paper::run(ctx).unwrap_or_else(|| Err(format!("unknown scenario kind '{other}'"))),
    }?;
    let unread = ctx.params.unread();
    if !unread.is_empty() {
        let kind = &ctx.spec.kind;
        let keys: Vec<String> = unread.iter().map(|k| format!("'{k}'")).collect();
        return Err(format!("kind '{kind}' reads no param {}", keys.join(", ")));
    }
    record.sort_metrics();
    Ok(record)
}

/// Translate a spec-level declarative fault schedule into simnet faults
/// against a testbed's site list. Applied *in addition to* whatever
/// seeded faults the scenario kind generates itself.
pub fn spec_faults(faults: &[FaultSpec], sites: &[Site]) -> Result<Vec<Fault>, String> {
    let site_node = |i: usize| {
        sites.get(i).map(|s| s.node).ok_or(format!(
            "fault site {i} out of range ({} sites)",
            sites.len()
        ))
    };
    faults
        .iter()
        .map(|f| {
            Ok(match *f {
                FaultSpec::NodeDown { at_s, for_s, site } => Fault::new(
                    SimTime::from_secs(at_s),
                    SimDuration::from_secs(for_s),
                    FaultKind::NodeDown(site_node(site)?),
                ),
                FaultSpec::NameServiceDown { at_s, for_s } => Fault::new(
                    SimTime::from_secs(at_s),
                    SimDuration::from_secs(for_s),
                    FaultKind::NameServiceDown,
                ),
                FaultSpec::WireCorrupt { at_s, for_s, site } => Fault::new(
                    SimTime::from_secs(at_s),
                    SimDuration::from_secs(for_s),
                    FaultKind::WireCorrupt(site_node(site)?),
                ),
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_mistyped_param_fails_the_trial_instead_of_running_the_default() {
        let text = ScenarioSpec::load("table1").unwrap().to_json_string();
        let mistyped = text.replace(r#""minutes":60"#, r#""minutes":30.0"#);
        assert_ne!(mistyped, text);
        let spec = ScenarioSpec::from_json_str(&mistyped).unwrap();
        let err = run_trial(&TrialCtx {
            spec: &spec,
            params: spec.params.clone(),
            variant: "base".into(),
            seed: 1,
            rep: 0,
        })
        .unwrap_err();
        assert_eq!(err, "param 'minutes' is 30.0, expected an unsigned integer");
    }

    #[test]
    fn an_unread_param_fails_the_trial_instead_of_running_the_default() {
        let text = ScenarioSpec::load("table1").unwrap().to_json_string();
        let misspelled = text.replace(r#""minutes":60"#, r#""minutes":1,"minuts":60,"sample":1"#);
        assert_ne!(misspelled, text);
        let spec = ScenarioSpec::from_json_str(&misspelled).unwrap();
        let err = run_trial(&TrialCtx {
            spec: &spec,
            params: spec.params.clone(),
            variant: "base".into(),
            seed: 1,
            rep: 0,
        })
        .unwrap_err();
        assert_eq!(err, "kind 'table1' reads no param 'minuts', 'sample'");
    }
}
