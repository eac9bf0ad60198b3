//! Declared-threshold gate evaluator.
//!
//! CI no longer encodes pass/fail logic in per-bin asserts: a spec
//! declares gates (`GateSpec`) and this module evaluates them over the
//! finished analysis rows. Three outcomes per gate:
//!
//! * `Pass` — the condition held everywhere it applied;
//! * `Fail` — a trial violated it (equivalence trip, threshold breach);
//! * `Error` — the gate could not be evaluated (missing metric, missing
//!   baseline row). An error is never a pass: a gate that silently cannot
//!   see its data must fail the run, otherwise a renamed metric would
//!   turn the tripwire off.

use crate::journal::TrialRecord;
use crate::spec::{GateSpec, MetricRef};
use std::collections::BTreeMap;

/// Ordered by severity: `Error` outranks `Fail`, which outranks `Pass`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum GateStatus {
    Pass,
    Fail,
    Error,
}

impl GateStatus {
    pub fn as_str(&self) -> &'static str {
        match self {
            GateStatus::Pass => "pass",
            GateStatus::Fail => "FAIL",
            GateStatus::Error => "ERROR",
        }
    }
}

#[derive(Debug, Clone)]
pub struct GateResult {
    pub label: String,
    pub status: GateStatus,
    pub detail: String,
}

#[derive(Debug, Clone, Default)]
pub struct GateReport {
    pub results: Vec<GateResult>,
}

impl GateReport {
    /// True only if every gate passed — errors block, by design.
    pub fn all_pass(&self) -> bool {
        self.results.iter().all(|r| r.status == GateStatus::Pass)
    }
}

fn applies(variants: &Option<Vec<String>>, variant: &str) -> bool {
    variants
        .as_ref()
        .map(|v| v.iter().any(|x| x == variant))
        .unwrap_or(true)
}

/// Rows sharing (seed, rep) — the unit `equivalence` and cross-variant
/// `min_ratio` gates compare within.
fn groups(rows: &[TrialRecord]) -> Vec<Vec<&TrialRecord>> {
    let mut by: BTreeMap<(u64, u32), Vec<&TrialRecord>> = BTreeMap::new();
    for r in rows {
        by.entry((r.key.seed, r.key.rep)).or_default().push(r);
    }
    by.into_values().collect()
}

/// Judge `gates` over the finished `rows`. `baseline` holds the committed
/// artifact's rows, which `wall_regression` and `baseline_eq` look up by
/// trial key.
pub fn evaluate(
    gates: &[GateSpec],
    rows: &[TrialRecord],
    baseline: Option<&[TrialRecord]>,
) -> GateReport {
    let mut report = GateReport::default();
    for gate in gates {
        let (status, detail) = eval_one(gate, rows, baseline);
        report.results.push(GateResult {
            label: gate.label(),
            status,
            detail,
        });
    }
    report
}

fn eval_one(
    gate: &GateSpec,
    rows: &[TrialRecord],
    baseline: Option<&[TrialRecord]>,
) -> (GateStatus, String) {
    match gate {
        GateSpec::Equivalence { metric } => {
            for group in groups(rows) {
                let mut canon: Option<(String, &TrialRecord)> = None;
                for r in &group {
                    let Some(v) = r.metric(metric) else {
                        return (
                            GateStatus::Error,
                            format!("{} missing metric '{metric}'", key_of(r)),
                        );
                    };
                    let rendered = v.canon();
                    match &canon {
                        None => canon = Some((rendered, r)),
                        Some((first, first_row)) if *first != rendered => {
                            return (
                                GateStatus::Fail,
                                format!(
                                    "equivalence trip: {} has {metric}={rendered} but {} has {first}",
                                    key_of(r),
                                    key_of(first_row)
                                ),
                            );
                        }
                        Some(_) => {}
                    }
                }
            }
            (
                GateStatus::Pass,
                format!("{metric} identical across variants"),
            )
        }
        GateSpec::MetricEq { a, b, variants } => per_trial(
            rows.iter().filter(|r| applies(variants, &r.key.variant)),
            format!("{a} == {b} in every trial"),
            |r| {
                let (Some(va), Some(vb)) = (r.value(a), r.value(b)) else {
                    let msg = format!("{} missing '{a}' or '{b}'", key_of(r));
                    return Err((GateStatus::Error, msg));
                };
                check(va == vb, || format!("{}: {a}={va} != {b}={vb}", key_of(r)))
            },
        ),
        GateSpec::NonZero { metric, variants } => per_trial(
            rows.iter().filter(|r| applies(variants, &r.key.variant)),
            format!("{metric} non-zero in every trial"),
            |r| {
                let v = r.value(metric).ok_or_else(|| missing(r, metric))?;
                check(v != 0.0, || format!("{}: {metric} is zero", key_of(r)))
            },
        ),
        GateSpec::MaxValue {
            metric,
            max,
            variants,
        } => per_trial(
            rows.iter().filter(|r| applies(variants, &r.key.variant)),
            format!("{metric} <= {max} in every trial"),
            |r| {
                let v = r.value(metric).ok_or_else(|| missing(r, metric))?;
                check(v <= *max, || {
                    format!("{}: {metric}={v} exceeds {max}", key_of(r))
                })
            },
        ),
        GateSpec::MinRatio {
            numer,
            denom,
            min,
            variants,
        } => eval_min_ratio(numer, denom, *min, variants, rows),
        GateSpec::WallRegression { metric, max_pct } => {
            let Some(base) = baseline else {
                return no_baseline();
            };
            per_trial(rows.iter(), String::new(), |r| {
                let cur = r.value(metric).ok_or_else(|| {
                    (
                        GateStatus::Error,
                        format!("{} missing timing metric '{metric}'", key_of(r)),
                    )
                })?;
                let b = baseline_row(base, r)
                    .and_then(|b| b.value(metric))
                    .ok_or_else(|| baseline_missing(r, metric))?;
                if cur > b * (1.0 + max_pct / 100.0) {
                    return Err((
                        GateStatus::Fail,
                        format!(
                            "{}: {metric}={cur:.1} vs baseline {b:.1} (> +{max_pct}%)",
                            key_of(r)
                        ),
                    ));
                }
                Ok(format!("{}: {cur:.1} vs {b:.1}", key_of(r)))
            })
        }
        GateSpec::BaselineEq { metric } => {
            let Some(base) = baseline else {
                return no_baseline();
            };
            per_trial(
                rows.iter(),
                format!("{metric} equal to the baseline in every trial"),
                |r| {
                    let cur = r.metric(metric).ok_or_else(|| missing(r, metric))?.canon();
                    let b = baseline_row(base, r)
                        .and_then(|b| b.metric(metric))
                        .ok_or_else(|| baseline_missing(r, metric))?
                        .canon();
                    check(cur == b, || {
                        format!("{}: {metric}={cur} vs baseline {b}", key_of(r))
                    })
                },
            )
        }
    }
}

/// One trial's verdict under a per-trial gate: `Ok` with a note for the
/// pass detail (often empty), or the failure's status and message.
type Verdict = Result<String, (GateStatus, String)>;

/// Judge every trial in `rows` and report every failure, not just the
/// first: the gate is `Error` if any trial erred, else `Fail` if any
/// failed. A passing gate's detail is the trials' notes, or `pass` when
/// none left one.
fn per_trial<'r>(
    rows: impl Iterator<Item = &'r TrialRecord>,
    pass: String,
    mut judge: impl FnMut(&TrialRecord) -> Verdict,
) -> (GateStatus, String) {
    let mut status = GateStatus::Pass;
    let (mut failures, mut notes) = (Vec::new(), Vec::new());
    for r in rows {
        match judge(r) {
            Ok(note) if !note.is_empty() => notes.push(note),
            Ok(_) => {}
            Err((s, msg)) => {
                status = status.max(s);
                failures.push(msg);
            }
        }
    }
    let detail = match status {
        GateStatus::Pass if notes.is_empty() => pass,
        GateStatus::Pass => notes.join("; "),
        _ => failures.join("; "),
    };
    (status, detail)
}

fn check(ok: bool, failure: impl FnOnce() -> String) -> Verdict {
    if ok {
        Ok(String::new())
    } else {
        Err((GateStatus::Fail, failure()))
    }
}

fn missing(r: &TrialRecord, metric: &str) -> (GateStatus, String) {
    (
        GateStatus::Error,
        format!("{} missing metric '{metric}'", key_of(r)),
    )
}

fn baseline_missing(r: &TrialRecord, metric: &str) -> (GateStatus, String) {
    (
        GateStatus::Error,
        format!("baseline has no '{metric}' for {}", key_of(r)),
    )
}

fn no_baseline() -> (GateStatus, String) {
    (
        GateStatus::Error,
        "no baseline available (declare `baseline` in the spec)".into(),
    )
}

/// The baseline row with `r`'s (variant, seed, rep).
fn baseline_row<'b>(base: &'b [TrialRecord], r: &TrialRecord) -> Option<&'b TrialRecord> {
    base.iter().find(|b| b.key == r.key)
}

fn eval_min_ratio(
    numer: &MetricRef,
    denom: &MetricRef,
    min: f64,
    variants: &Option<Vec<String>>,
    rows: &[TrialRecord],
) -> (GateStatus, String) {
    match (&numer.variant, &denom.variant) {
        // Within-trial ratio of two metrics.
        (None, None) => {
            let mut worst = f64::INFINITY;
            for r in rows.iter().filter(|r| applies(variants, &r.key.variant)) {
                let (Some(n), Some(d)) = (r.value(&numer.metric), r.value(&denom.metric)) else {
                    return (
                        GateStatus::Error,
                        format!(
                            "{} missing '{}' or '{}'",
                            key_of(r),
                            numer.metric,
                            denom.metric
                        ),
                    );
                };
                let ratio = n / d.max(1e-12);
                if ratio < min {
                    return (
                        GateStatus::Fail,
                        format!("{}: ratio {ratio:.3} below {min}", key_of(r)),
                    );
                }
                worst = worst.min(ratio);
            }
            (GateStatus::Pass, format!("ratio {worst:.2} >= {min}"))
        }
        // Cross-variant ratio within each (seed, rep) group.
        (Some(nv), Some(dv)) => {
            let mut worst = f64::INFINITY;
            for group in groups(rows) {
                let find = |variant: &str, metric: &str| {
                    group
                        .iter()
                        .find(|r| r.key.variant == variant)
                        .and_then(|r| r.value(metric))
                };
                let (Some(n), Some(d)) = (find(nv, &numer.metric), find(dv, &denom.metric)) else {
                    return (
                        GateStatus::Error,
                        format!(
                            "group missing variant '{nv}'/'{dv}' or metric '{}'/'{}'",
                            numer.metric, denom.metric
                        ),
                    );
                };
                let ratio = n / d.max(1e-12);
                if ratio < min {
                    return (
                        GateStatus::Fail,
                        format!("{nv}/{dv} ratio {ratio:.3} below {min}"),
                    );
                }
                worst = worst.min(ratio);
            }
            (
                GateStatus::Pass,
                format!("{nv}/{dv} ratio {worst:.2} >= {min}"),
            )
        }
        _ => (
            GateStatus::Error,
            "min_ratio refs must both name a variant or neither".into(),
        ),
    }
}

fn key_of(r: &TrialRecord) -> String {
    format!("{}/seed={}/rep={}", r.key.variant, r.key.seed, r.key.rep)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::journal::{MetricValue, TrialKey};

    fn row(variant: &str, seed: u64, metrics: &[(&str, MetricValue)], wall: f64) -> TrialRecord {
        TrialRecord {
            key: TrialKey {
                variant: variant.into(),
                seed,
                rep: 0,
            },
            metrics: metrics
                .iter()
                .map(|(k, v)| (k.to_string(), v.clone()))
                .collect(),
            timing: vec![("wall_ms".into(), wall)],
            aux: vec![],
        }
    }

    fn sha(s: &str) -> MetricValue {
        MetricValue::Str(s.into())
    }

    #[test]
    fn equivalence_trip_fails() {
        let gate = GateSpec::Equivalence {
            metric: "trace_sha256".into(),
        };
        let ok = [
            row("a", 17, &[("trace_sha256", sha("x"))], 1.0),
            row("b", 17, &[("trace_sha256", sha("x"))], 2.0),
        ];
        assert_eq!(
            evaluate(std::slice::from_ref(&gate), &ok, None).results[0].status,
            GateStatus::Pass
        );
        let trip = [
            row("a", 17, &[("trace_sha256", sha("x"))], 1.0),
            row("b", 17, &[("trace_sha256", sha("y"))], 2.0),
        ];
        let r = &evaluate(&[gate], &trip, None).results[0];
        assert_eq!(r.status, GateStatus::Fail);
        assert!(r.detail.contains("equivalence trip"), "{}", r.detail);
    }

    #[test]
    fn equivalence_compares_within_seed_groups_only() {
        // Different seeds legitimately have different traces.
        let gate = GateSpec::Equivalence {
            metric: "trace_sha256".into(),
        };
        let rows = [
            row("a", 17, &[("trace_sha256", sha("x"))], 1.0),
            row("b", 17, &[("trace_sha256", sha("x"))], 1.0),
            row("a", 23, &[("trace_sha256", sha("z"))], 1.0),
            row("b", 23, &[("trace_sha256", sha("z"))], 1.0),
        ];
        assert_eq!(
            evaluate(&[gate], &rows, None).results[0].status,
            GateStatus::Pass
        );
    }

    #[test]
    fn wall_regression_past_threshold_fails_within_passes() {
        let gate = GateSpec::WallRegression {
            metric: "wall_ms".into(),
            max_pct: 20.0,
        };
        let base = [row("a", 17, &[], 100.0)];

        // 115 ms vs 100 ms baseline: inside +20%.
        let within = [row("a", 17, &[], 115.0)];
        assert_eq!(
            evaluate(std::slice::from_ref(&gate), &within, Some(&base)).results[0].status,
            GateStatus::Pass
        );

        // 121 ms vs 100 ms baseline: past +20%.
        let past = [row("a", 17, &[], 121.0)];
        let r = &evaluate(&[gate], &past, Some(&base)).results[0];
        assert_eq!(r.status, GateStatus::Fail);
        assert!(r.detail.contains("baseline 100.0"), "{}", r.detail);
    }

    #[test]
    fn missing_baseline_is_an_explicit_error_not_a_pass() {
        let gate = GateSpec::WallRegression {
            metric: "wall_ms".into(),
            max_pct: 20.0,
        };
        let rows = [row("a", 17, &[], 10.0)];
        let r = &evaluate(std::slice::from_ref(&gate), &rows, None).results[0];
        assert_eq!(r.status, GateStatus::Error);
        assert!(r.detail.contains("no baseline"), "{}", r.detail);
        // An error blocks the run.
        assert!(!evaluate(std::slice::from_ref(&gate), &rows, None).all_pass());

        // Baseline present but lacking the variant: also an error.
        let r = &evaluate(std::slice::from_ref(&gate), &rows, Some(&[])).results[0];
        assert_eq!(r.status, GateStatus::Error);
        assert!(!r.detail.contains("--baseline"), "{}", r.detail);
    }

    #[test]
    fn a_baseline_row_serves_only_its_own_trial_key() {
        let gate = GateSpec::WallRegression {
            metric: "wall_ms".into(),
            max_pct: 20.0,
        };
        let base = [row("a", 17, &[], 100.0)];
        let r = &evaluate(&[gate], &[row("a", 18, &[], 10.0)], Some(&base)).results[0];
        assert_eq!(r.status, GateStatus::Error);
        assert!(r.detail.contains("a/seed=18/rep=0"), "{}", r.detail);
    }

    #[test]
    fn baseline_eq_holds_each_trial_to_its_own_baseline_row() {
        let gate = GateSpec::BaselineEq {
            metric: "recompute_passes".into(),
        };
        let passes = |v: f64| [("recompute_passes", MetricValue::Num(v))];
        let base = [
            row("a", 17, &passes(9127.0), 10.0),
            row("b", 17, &passes(89268.0), 99.0),
        ];
        let eval = |rows: &[TrialRecord], base: Option<&[TrialRecord]>| {
            evaluate(std::slice::from_ref(&gate), rows, base).results[0].clone()
        };

        // Equal counts pass whatever the wall clock did.
        let same = [
            row("a", 17, &passes(9127.0), 500.0),
            row("b", 17, &passes(89268.0), 1.0),
        ];
        assert_eq!(eval(&same, Some(&base)).status, GateStatus::Pass);

        // One count fewer is a failure too: the gate is equality.
        let r = eval(&[row("b", 17, &passes(89267.0), 1.0)], Some(&base));
        assert_eq!(r.status, GateStatus::Fail);
        assert!(r.detail.contains("b/seed=17/rep=0"), "{}", r.detail);
        assert!(r.detail.contains("baseline 89268"), "{}", r.detail);

        // Digests compare as strings.
        let digest = GateSpec::BaselineEq {
            metric: "trace_sha256".into(),
        };
        let base_sha = [row("a", 17, &[("trace_sha256", sha("x"))], 1.0)];
        let moved = [row("a", 17, &[("trace_sha256", sha("y"))], 1.0)];
        let r = &evaluate(std::slice::from_ref(&digest), &moved, Some(&base_sha)).results[0];
        assert_eq!(r.status, GateStatus::Fail);

        // No baseline, no row for the key, or no metric: an error.
        assert_eq!(eval(&same, None).status, GateStatus::Error);
        let r = eval(&[row("a", 18, &passes(9127.0), 1.0)], Some(&base));
        assert_eq!(r.status, GateStatus::Error);
        assert!(r.detail.contains("a/seed=18/rep=0"), "{}", r.detail);
        assert_eq!(
            eval(&[row("a", 17, &[], 1.0)], Some(&base)).status,
            GateStatus::Error
        );
    }

    #[test]
    fn per_trial_gates_name_every_failing_trial() {
        let num = |v: f64| MetricValue::Num(v);
        let trial = |variant: &str, v: f64, wall: f64| row(variant, 17, &[("x", num(v))], wall);
        let base = [trial("n1k", 1.0, 10.0), trial("n10k", 1.0, 100.0)];
        // Both trials break every gate below.
        let rows = [trial("n1k", 0.0, 18.7), trial("n10k", 0.0, 277.0)];
        let gates = [
            GateSpec::WallRegression {
                metric: "wall_ms".into(),
                max_pct: 20.0,
            },
            GateSpec::BaselineEq { metric: "x".into() },
            GateSpec::MaxValue {
                metric: "wall_ms".into(),
                max: 1.0,
                variants: None,
            },
            GateSpec::NonZero {
                metric: "x".into(),
                variants: None,
            },
            GateSpec::MetricEq {
                a: "x".into(),
                b: "wall_ms".into(),
                variants: None,
            },
        ];
        for r in evaluate(&gates, &rows, Some(&base)).results {
            assert_eq!(r.status, GateStatus::Fail, "{}", r.label);
            for key in ["n1k/seed=17/rep=0", "n10k/seed=17/rep=0"] {
                assert!(r.detail.contains(key), "{}: {}", r.label, r.detail);
            }
        }

        // A trial the gate cannot judge makes it an error, and the other
        // trial's failure is still reported.
        let rows = [row("n1k", 17, &[], 18.7), trial("n10k", 0.0, 277.0)];
        let r = &evaluate(&gates[3..4], &rows, None).results[0];
        assert_eq!(r.status, GateStatus::Error);
        assert!(
            r.detail.contains("n1k/seed=17/rep=0 missing metric 'x'"),
            "{}",
            r.detail
        );
        assert!(
            r.detail.contains("n10k/seed=17/rep=0: x is zero"),
            "{}",
            r.detail
        );
    }

    #[test]
    fn missing_metric_is_an_error() {
        let rows = [row("a", 17, &[], 1.0)];
        for gate in [
            GateSpec::NonZero {
                metric: "ghost".into(),
                variants: None,
            },
            GateSpec::MetricEq {
                a: "ghost".into(),
                b: "wall_ms".into(),
                variants: None,
            },
            GateSpec::MaxValue {
                metric: "ghost".into(),
                max: 1.0,
                variants: None,
            },
            GateSpec::Equivalence {
                metric: "ghost".into(),
            },
        ] {
            assert_eq!(
                evaluate(&[gate], &rows, None).results[0].status,
                GateStatus::Error
            );
        }
    }

    #[test]
    fn per_trial_gates() {
        let rows = [row(
            "scheduler",
            23,
            &[
                ("files_complete", MetricValue::Num(108.0)),
                ("files_verified", MetricValue::Num(108.0)),
                ("prestaged", MetricValue::Num(6.0)),
                ("peak_host_inflight", MetricValue::Num(8.0)),
            ],
            1.0,
        )];
        let gates = [
            GateSpec::MetricEq {
                a: "files_verified".into(),
                b: "files_complete".into(),
                variants: None,
            },
            GateSpec::NonZero {
                metric: "prestaged".into(),
                variants: Some(vec!["scheduler".into()]),
            },
            GateSpec::MaxValue {
                metric: "peak_host_inflight".into(),
                max: 8.0,
                variants: None,
            },
        ];
        let rep = evaluate(&gates, &rows, None);
        assert!(rep.all_pass(), "{:?}", rep.results);

        // And each flavor of violation fails.
        let bad = [row(
            "scheduler",
            23,
            &[
                ("files_complete", MetricValue::Num(108.0)),
                ("files_verified", MetricValue::Num(107.0)),
                ("prestaged", MetricValue::Num(0.0)),
                ("peak_host_inflight", MetricValue::Num(9.0)),
            ],
            1.0,
        )];
        let rep = evaluate(&gates, &bad, None);
        assert!(rep.results.iter().all(|r| r.status == GateStatus::Fail));
    }

    #[test]
    fn min_ratio_cross_variant_and_within_trial() {
        let rows = [
            row(
                "scheduler",
                23,
                &[("makespan_s", MetricValue::Num(480.0))],
                1.0,
            ),
            row(
                "legacy",
                23,
                &[("makespan_s", MetricValue::Num(726.0))],
                1.0,
            ),
        ];
        let cross = GateSpec::MinRatio {
            numer: MetricRef {
                metric: "makespan_s".into(),
                variant: Some("legacy".into()),
            },
            denom: MetricRef {
                metric: "makespan_s".into(),
                variant: Some("scheduler".into()),
            },
            min: 1.3,
            variants: None,
        };
        let r = &evaluate(std::slice::from_ref(&cross), &rows, None).results[0];
        assert_eq!(r.status, GateStatus::Pass);
        assert_eq!(r.detail, "legacy/scheduler ratio 1.51 >= 1.3");
        let slow = [
            row(
                "scheduler",
                23,
                &[("makespan_s", MetricValue::Num(700.0))],
                1.0,
            ),
            row(
                "legacy",
                23,
                &[("makespan_s", MetricValue::Num(726.0))],
                1.0,
            ),
        ];
        assert_eq!(
            evaluate(&[cross], &slow, None).results[0].status,
            GateStatus::Fail
        );

        // Within-trial form, filtered to one variant.
        let within = GateSpec::MinRatio {
            numer: MetricRef {
                metric: "wall_ms_sequential".into(),
                variant: None,
            },
            denom: MetricRef {
                metric: "wall_ms_parallel".into(),
                variant: None,
            },
            min: 1.0,
            variants: Some(vec!["n10k".into()]),
        };
        let mut r = row("n10k", 17, &[], 0.0);
        r.timing = vec![
            ("wall_ms_parallel".into(), 100.0),
            ("wall_ms_sequential".into(), 150.0),
        ];
        let mut r_small = row("n1k", 17, &[], 0.0);
        r_small.timing = vec![
            // The filter must exempt this variant from the floor.
            ("wall_ms_parallel".into(), 100.0),
            ("wall_ms_sequential".into(), 50.0),
        ];
        let r = &evaluate(&[within], &[r, r_small], None).results[0];
        assert_eq!(r.status, GateStatus::Pass);
        // The worst ratio among the trials the gate applies to.
        assert_eq!(r.detail, "ratio 1.50 >= 1");
    }

    #[test]
    fn mismatched_metric_refs_error() {
        let gate = GateSpec::MinRatio {
            numer: MetricRef {
                metric: "x".into(),
                variant: Some("a".into()),
            },
            denom: MetricRef {
                metric: "x".into(),
                variant: None,
            },
            min: 1.0,
            variants: None,
        };
        let rows = [row("a", 1, &[("x", MetricValue::Num(1.0))], 0.0)];
        assert_eq!(
            evaluate(&[gate], &rows, None).results[0].status,
            GateStatus::Error
        );
    }
}
