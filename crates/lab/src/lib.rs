//! # esg-lab — declarative scenario lab for the ESG prototype
//!
//! A `ScenarioSpec` (topology parameters, workload mix, fault schedule,
//! config variants, seeds, reps, metrics, gates) declares an experiment;
//! one runner plans the variant × seed × rep matrix, executes trials
//! against the simnet/reqman stack, journals every completed trial to a
//! resume-safe JSONL journal, aggregates deterministic analysis tables,
//! judges declared regression gates (equivalence trips, threshold
//! breaches) in place of per-bin asserts, and writes the committed
//! `BENCH_*.json` artifacts.
//!
//! Layering: `json` (canonical parser/emitter, no serde in this tree) →
//! `spec` (the declarative surface + builtin scenario files) → `exec`
//! (kind-specific executors, operation-for-operation ports of the old
//! bench bins; each returns a `TrialRecord` and formats no JSON) →
//! `journal` (resume, and the one row codec `TrialRecord::to_row` /
//! `from_row`) → `gate` (pass/fail/error) → `runner` (the matrix loop
//! tying it together, and the one writer and reader of every artifact:
//! `{"scenario", "spec_sha256", "trials": [row, …]}`). `scaling` hosts
//! the flow-scaling harness behind the `user_scaling` executor.

pub mod exec;
pub mod gate;
pub mod journal;
pub mod json;
pub mod runner;
pub mod scaling;
pub mod spec;

/// Hex sha256 of a string — the digest used for spec identity, trace
/// pins, delivery manifests and journal aux-file verification.
pub fn sha_hex(s: &str) -> String {
    sha_hex_bytes(s.as_bytes())
}

pub(crate) fn sha_hex_bytes(bytes: &[u8]) -> String {
    esg_gsi::hex(&esg_gsi::sha256(bytes))
}
