//! Scenario executors: one module per scenario *kind*, except `paper`,
//! which holds every kind that is one call into `esg_core::experiments`
//! (Table 1, Figure 8, A1–A9, B1, E1).
//!
//! An executor is the imperative half of a spec — it builds the
//! simulated world from the merged trial parameters, runs it, and
//! returns a `TrialRecord`. The executors reproduce the bench bins they
//! replaced operation-for-operation (same construction order, same RNG
//! streams, same event schedule), so the golden trace pins and committed
//! `BENCH_*.json` baselines carried over bit-for-bit —
//! `tests/determinism.rs` at the workspace root pins, through
//! `run_trial`, the sha256 each bin produced before it was deleted.

use crate::gate::Baseline;
use crate::journal::{TrialKey, TrialRecord};
use crate::json::Json;
use crate::spec::{FaultSpec, Params, ScenarioSpec};
use esg_core::scenario::Site;
use esg_simnet::prelude::{Fault, FaultKind};
use esg_simnet::{SimDuration, SimTime};

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
    /// The trial's coordinates in the variant × seed × rep matrix.
    pub fn key(&self) -> TrialKey {
        TrialKey {
            variant: self.variant.clone(),
            seed: self.seed,
            rep: self.rep,
        }
    }
}

/// Dispatch a trial to its kind's executor.
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
    record.sort_metrics();
    Ok(record)
}

/// Assemble the committed `BENCH_*.json` artifact from the finished rows.
/// Kinds without an artifact return `None`.
pub fn assemble_artifact(spec: &ScenarioSpec, rows: &[TrialRecord]) -> Option<String> {
    match spec.kind.as_str() {
        "user_scaling" => user_scaling::assemble(spec, rows),
        "request_pipeline" => pipeline::assemble(spec, rows),
        "lifeline" => lifeline::assemble(rows),
        "campaign_soak" => campaign::assemble(spec, rows),
        "rm_scaling" => rm_scaling::assemble(spec, rows),
        "rm_profile" => rm_profile::assemble(spec, rows),
        _ => None,
    }
}

/// Extract per-variant baseline metrics from a committed artifact, for
/// `wall_regression` gates.
pub fn baseline_metrics(spec: &ScenarioSpec, artifact: &Json) -> Result<Baseline, String> {
    match spec.kind.as_str() {
        "user_scaling" | "rm_scaling" => curve_baseline(spec, artifact),
        "request_pipeline" => pipeline::baseline(artifact),
        other => Err(format!("kind '{other}' has no baseline extractor")),
    }
}

/// A curve artifact: header, then one per-point fragment per line in row
/// order (keeps the committed file greppable). `extra_header` is spliced
/// in verbatim after the seed line.
fn assemble_points(
    bench: &str,
    extra_header: &str,
    spec: &ScenarioSpec,
    rows: &[TrialRecord],
) -> String {
    let mut json = format!(
        "{{\n  \"bench\": \"{bench}\",\n  \"seed\": {},\n{extra_header}  \"points\": [\n",
        spec.seeds.first().copied().unwrap_or(17),
    );
    let fragments: Vec<&str> = rows.iter().filter_map(|r| r.fragment.as_deref()).collect();
    for (i, frag) in fragments.iter().enumerate() {
        json.push_str("    ");
        json.push_str(frag);
        json.push_str(if i + 1 < fragments.len() { ",\n" } else { "\n" });
    }
    json.push_str("  ]\n}\n");
    json
}

/// Baseline for `wall_regression` on a curve artifact: match each spec
/// variant to the committed point with the same `n` and expose its
/// `wall_ms`.
fn curve_baseline(spec: &ScenarioSpec, artifact: &Json) -> Result<Baseline, String> {
    let points = artifact
        .get("points")
        .and_then(Json::as_arr)
        .ok_or("baseline has no points array")?;
    let mut out = Baseline::new();
    for v in spec.effective_variants() {
        let n = spec.params.merged(&v.overrides).u64("n", 0)?;
        let Some(point) = points
            .iter()
            .find(|p| p.get("n").and_then(Json::as_u64) == Some(n))
        else {
            continue; // gate reports the missing variant as an explicit error
        };
        let mut m = std::collections::BTreeMap::new();
        if let Some(val) = point.get("wall_ms").and_then(Json::as_f64) {
            m.insert("wall_ms".to_string(), val);
        }
        out.insert(v.name.clone(), m);
    }
    Ok(out)
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
        let spec = ScenarioSpec::load("table1").unwrap();
        let params = spec
            .params
            .merged(&Params(vec![("minutes".into(), Json::Float(30.0))]));
        let err = run_trial(&TrialCtx {
            spec: &spec,
            params,
            variant: "base".into(),
            seed: 1,
            rep: 0,
        })
        .unwrap_err();
        assert_eq!(err, "param 'minutes' is 30.0, expected an unsigned integer");
    }
}
