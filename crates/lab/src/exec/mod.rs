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

use crate::journal::{TrialKey, TrialRecord};
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
}
