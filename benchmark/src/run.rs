//! One workload, one run: repeat reps for `--seconds`, reduce them to the
//! metrics, check that the simulation repeated exactly, print, and write
//! the results files.

use crate::layers::{self, Values};
use crate::spec::{self, Better, Metric};
use crate::workloads::{self, flows::Arrivals, Ctx, Rep};
use crate::{iso, stats, Args};
use esg_lab::json::Json;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Fewest reps of an untraced run (one under `--quick`).
const MIN_REPS: usize = 3;
/// Share of a traced run's seconds spent on workload reps; the rest goes
/// to the isolation drivers.
const TRACED_REP_SHARE: f64 = 0.4;
/// `benchmark/out`, next to this package's manifest: inside the checkout
/// wherever the command was started from.
fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

fn rep_of(workload: &str, ctx: &Ctx) -> Rep {
    match workload {
        "campaign_round" => workloads::campaign::rep(ctx),
        "interactive_faults" => workloads::interactive::rep(ctx),
        "flow_storm" => workloads::flows::rep(ctx, Arrivals::Storm),
        "flow_burst" => workloads::flows::rep(ctx, Arrivals::Burst),
        "striped_wan" => workloads::striped::rep(ctx),
        "loopback_xfer" => workloads::loopback::rep(ctx),
        other => unreachable!("parse_args admits only listed workloads, got {other}"),
    }
}

fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.split_whitespace().next()?.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// A finite JSON number (a ratio over an empty denominator reads 0).
fn num(v: f64) -> Json {
    Json::Float(if v.is_finite() { v } else { 0.0 })
}

fn json_obj<V>(items: impl IntoIterator<Item = (impl ToString, V)>, f: impl Fn(V) -> Json) -> Json {
    Json::Obj(
        items
            .into_iter()
            .map(|(k, v)| (k.to_string(), f(v)))
            .collect(),
    )
}

/// The sandbox's disturbances are one-sided — phases of one to four
/// seconds in which the same work takes 40-60 % longer, never shorter — so
/// the best sample is the steadiest estimate of what the code costs; the
/// median and quartiles are printed beside it.
fn best(samples: &[f64], better: Better) -> f64 {
    let pick = match better {
        Better::Lower => f64::min,
        Better::Higher => f64::max,
    };
    samples
        .iter()
        .copied()
        .reduce(pick)
        .expect("a metric has samples")
}

/// The same idea one level down: slice i does identical work in every rep
/// (the simulation repeats exactly), so its fastest occurrence over the
/// reps is its undisturbed cost, and the sum over slices is the wall of a
/// rep no disturbance touched — even when every whole rep was hit
/// somewhere.
fn undisturbed(reps: &[Rep]) -> Vec<f64> {
    (0..reps[0].slices.len())
        .map(|i| {
            let samples: Vec<f64> = reps
                .iter()
                .filter_map(|r| r.slices.get(i).copied())
                .collect();
            best(&samples, Better::Lower)
        })
        .collect()
}

/// One reported metric with the samples behind it.
struct Reported {
    name: &'static str,
    unit: &'static str,
    value: f64,
    samples: Vec<f64>,
}

impl Reported {
    fn of_samples(metric: &Metric, samples: Vec<f64>) -> Reported {
        Reported::with_value(metric, best(&samples, metric.better), samples)
    }

    fn with_value(metric: &Metric, value: f64, samples: Vec<f64>) -> Reported {
        Reported {
            name: metric.name,
            unit: metric.unit,
            value,
            samples,
        }
    }

    fn print(&self) {
        let mut line = format!("  {:<48} {:>16.6} {}", self.name, self.value, self.unit);
        if self.samples.len() > 1 {
            let (q1, median, q3) = stats::quartiles(&self.samples);
            line.push_str(&format!(
                "   (over {} reps: median {median:.6}, quartiles {q1:.6} .. {q3:.6}, spread {:.1}%)",
                self.samples.len(),
                stats::spread(&self.samples) * 100.0
            ));
        }
        println!("{line}");
    }

    fn detail(&self) -> (String, Json) {
        let (q1, median, q3) = stats::quartiles(&self.samples);
        (
            self.name.to_string(),
            Json::obj(vec![
                ("value", num(self.value)),
                ("unit", Json::str(self.unit)),
                ("median", num(median)),
                ("q1", num(q1)),
                ("q3", num(q3)),
                ("n", Json::Int(self.samples.len() as i128)),
                (
                    "samples",
                    Json::Arr(self.samples.iter().map(|v| num(*v)).collect()),
                ),
            ]),
        )
    }
}

/// Everything the reps of one run established.
struct Reps {
    untraced: Vec<Rep>,
    traced: Vec<Rep>,
}

impl Reps {
    fn all(&self) -> impl Iterator<Item = &Rep> {
        self.untraced.iter().chain(&self.traced)
    }

    /// Failed checks plus a check that the simulation repeated exactly in
    /// every rep, traced or not: profiling must not perturb it.
    fn verdict(&self) -> (u64, u64, Vec<String>) {
        let attempted: u64 = self.all().map(|r| r.attempted).sum();
        let mut failed: u64 = self.all().map(|r| r.failed).sum();
        let mut failures: Vec<String> = self.all().flat_map(|r| r.failures.clone()).collect();
        // Untraced reps carry the simulated results, traced reps the layer
        // counts as well: compare each rep with the first of its kind, and
        // the first traced rep with the first untraced one.
        let mut differs = |what: &str, a: &Rep, b: &Rep| {
            if a.sim_digest != b.sim_digest || a.slices.len() != b.slices.len() {
                failed += 1;
                failures.push(format!("{what}: sim_digest or slice count differs"));
            }
            for (k, v) in &a.values {
                if b.values.get(k).is_some_and(|w| w != v) {
                    failed += 1;
                    failures.push(format!("{what}: {k} differs"));
                }
            }
        };
        for kind in [&self.untraced, &self.traced] {
            for (i, rep) in kind.iter().enumerate().skip(1) {
                differs(&format!("rep {i} against rep 0"), &kind[0], rep);
            }
        }
        if let (Some(u), Some(t)) = (self.untraced.first(), self.traced.first()) {
            differs("traced rep against untraced rep", u, t);
        }
        failures.truncate(12);
        (attempted.max(1), failed, failures)
    }
}

fn run_reps(workload: &str, args: &Args, traced_too: bool, budget_s: f64) -> Reps {
    let dir = out_dir().join(format!("scratch-{workload}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("benchmark/out is writable");
    let ctx = |traced| Ctx {
        seed: args.seed,
        quick: args.quick,
        traced,
        dir: dir.clone(),
    };
    let min_reps = if args.quick { 1 } else { MIN_REPS };
    let budget = Duration::from_secs_f64(budget_s);
    let start = Instant::now();
    let mut reps = Reps {
        untraced: Vec::new(),
        traced: Vec::new(),
    };
    loop {
        let t = Instant::now();
        reps.untraced.push(rep_of(workload, &ctx(false)));
        if traced_too {
            reps.traced.push(rep_of(workload, &ctx(true)));
        }
        // Stop when another round would overrun the budget.
        let enough = reps.untraced.len() >= if traced_too { 1 } else { min_reps };
        if enough && start.elapsed() + t.elapsed() > budget {
            break;
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
    reps
}

/// Pool the per-call samples of all reps by name.
fn pooled_spans<'a>(reps: impl Iterator<Item = &'a Rep>) -> BTreeMap<&'static str, Vec<f64>> {
    let mut pooled: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    for rep in reps {
        for &(name, sample) in &rep.spans {
            pooled.entry(name).or_default().push(sample);
        }
    }
    pooled
}

fn end_to_end(reps: &[Rep]) -> Vec<Reported> {
    let slice_s = undisturbed(reps);
    let files_s = |slices: &[f64], r: &Rep| slices[r.files_range()].iter().sum::<f64>();
    spec::END_TO_END
        .iter()
        .map(|(metric, _)| match metric.name {
            "wall_s" => Reported::with_value(
                metric,
                slice_s.iter().sum(),
                reps.iter().map(Rep::wall_s).collect(),
            ),
            "files_per_s" => Reported::with_value(
                metric,
                reps[0].files as f64 / files_s(&slice_s, &reps[0]),
                reps.iter()
                    .map(|r| r.files as f64 / files_s(&r.slices, r))
                    .collect(),
            ),
            "setup_s" => Reported::of_samples(metric, reps.iter().map(|r| r.setup_s).collect()),
            "peak_rss_mb" => Reported::of_samples(metric, vec![peak_rss_mb()]),
            other => unreachable!("end-to-end metric {other} has no source"),
        })
        .collect()
}

fn per_layer(reps: &Reps, iso: &Values) -> (Vec<Reported>, Values) {
    let untraced_slice_s = undisturbed(&reps.untraced);
    let untraced_wall: f64 = untraced_slice_s.iter().sum();
    let traced_wall: f64 = undisturbed(&reps.traced).iter().sum();
    // Counts repeat exactly (checked), so their median is any rep's value;
    // self times are host time: median over the traced reps.
    let per_rep: Vec<Values> = reps
        .traced
        .iter()
        .map(|r| layers::of_traced_rep(r, untraced_wall))
        .collect();
    let mut values: Values = per_rep[0].clone();
    for (name, v) in values.iter_mut() {
        let samples: Vec<f64> = per_rep
            .iter()
            .filter_map(|p| p.get(name).copied())
            .collect();
        *v = stats::median(&samples);
    }
    workloads::loopback::summarize(&pooled_spans(reps.all()), &mut values);
    values.insert("trace.overhead_frac", traced_wall / untraced_wall - 1.0);
    if let Some(r) = workloads::campaign::scaling_ratio(&untraced_slice_s, &reps.untraced[0]) {
        values.insert("reqman.scaling_ratio", r);
    }
    values.extend(iso.iter().map(|(k, v)| (*k, *v)));
    let reported = spec::PER_LAYER
        .iter()
        .map(|metric| {
            let v = values.get(metric.name).copied().unwrap_or(0.0);
            Reported::of_samples(metric, vec![if v.is_finite() { v } else { 0.0 }])
        })
        .collect();
    (reported, values)
}

fn write_out(name: &str, body: &Json) {
    let dir = out_dir();
    let path = dir.join(name);
    if let Err(e) = std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, body.emit()))
    {
        eprintln!("warning: could not write {}: {e}", path.display());
    }
}

/// What one run established, before any of it is printed.
struct Outcome {
    header: String,
    notes: Vec<String>,
    correct: bool,
    attempted: u64,
    failed: u64,
    reported: Vec<Reported>,
    /// Simulated results of an untraced run: exact for a seed, printed as
    /// information beside the metrics.
    sim: Values,
    /// Body of the results file.
    detail: Vec<(&'static str, Json)>,
}

fn measure(workload: &str, args: &Args) -> Outcome {
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let (reps, iso_values) = if args.trace {
        let reps = run_reps(workload, args, true, args.seconds * TRACED_REP_SHARE);
        let iso = iso::run_all(args.seconds * (1.0 - TRACED_REP_SHARE), args.seed);
        (reps, iso)
    } else {
        (run_reps(workload, args, false, args.seconds), Values::new())
    };
    let (attempted, failed, failures) = reps.verdict();
    let correct = failed == 0;
    let first = &reps.untraced[0];
    let sim_digest = first.sim_digest.clone().unwrap_or_else(|| "-".into());

    let header = format!(
        "workload {workload}  seed {}  seconds {}  trace {}  quick {}  host threads {threads}\n  \
         reps {} untraced + {} traced   checks {attempted} attempted, {failed} failed   sim_digest {sim_digest}",
        args.seed,
        args.seconds,
        args.trace as u8,
        args.quick,
        reps.untraced.len(),
        reps.traced.len()
    );
    let mut notes: Vec<String> = failures.iter().map(|f| format!("FAILED: {f}")).collect();
    if workload == "loopback_xfer" {
        notes.push("(loopback interface, not a real link)".into());
    }
    let mut detail = vec![
        ("workload", Json::str(workload)),
        ("seed", Json::Int(args.seed as i128)),
        ("seconds", num(args.seconds)),
        ("quick", Json::Bool(args.quick)),
        ("host_threads", Json::Int(threads as i128)),
        ("correct", Json::Bool(correct)),
        ("attempted", Json::Int(attempted as i128)),
        ("failed", Json::Int(failed as i128)),
        ("sim_digest", Json::str(sim_digest)),
    ];

    let (reported, sim) = if args.trace {
        let (reported, values) = per_layer(&reps, &iso_values);
        let pool_used = values.get("simnet.alloc.parallel_batches").copied() > Some(0.0);
        if workload == "flow_burst" && !pool_used {
            notes.push(if threads > 1 {
                "simnet.alloc.parallel_batches = 0: the worker pool was NOT exercised".into()
            } else {
                "simnet.alloc.parallel_batches = 0: pool not exercisable on this host".into()
            });
        }
        let profile = reps.traced[0].profile.clone().unwrap_or_default();
        detail.push(("layer_values", json_obj(&values, |v| num(*v))));
        detail.push(("profile_self_s", json_obj(profile.self_s, num)));
        detail.push((
            "profile_counts",
            json_obj(profile.counts, |v| Json::Int(v as i128)),
        ));
        detail.push((
            "spans",
            json_obj(pooled_spans(reps.all()), |v| {
                Json::Arr(v.into_iter().map(num).collect())
            }),
        ));
        (reported, Values::new())
    } else {
        detail.push(("sim", json_obj(&first.values, |v| num(*v))));
        let seconds = |v: &[f64]| Json::Arr(v.iter().copied().map(num).collect());
        detail.push((
            "slices_s",
            Json::Arr(reps.untraced.iter().map(|r| seconds(&r.slices)).collect()),
        ));
        (end_to_end(&reps.untraced), first.values.clone())
    };
    detail.push((
        "metrics",
        Json::Obj(reported.iter().map(Reported::detail).collect()),
    ));
    Outcome {
        header,
        notes,
        correct,
        attempted,
        failed,
        reported,
        sim,
        detail,
    }
}

impl Outcome {
    /// The driver's line: exactly these keys.
    fn result_line(&self) -> Json {
        let metrics = json_obj(self.reported.iter().map(|r| (r.name, r)), |r| {
            Json::obj(vec![("value", num(r.value)), ("unit", Json::str(r.unit))])
        });
        Json::obj(vec![
            ("correct", Json::Bool(self.correct)),
            ("attempted", Json::Int(self.attempted as i128)),
            ("failed", Json::Int(self.failed as i128)),
            ("metrics", metrics),
        ])
    }
}

/// Measure one workload, print every metric by name with its unit, write
/// the results file; the result line goes last. Returns whether every
/// check passed.
pub fn one(workload: &str, args: &Args) -> bool {
    let outcome = measure(workload, args);
    println!("{}", outcome.header);
    for note in &outcome.notes {
        println!("  {note}");
    }
    for r in &outcome.reported {
        r.print();
    }
    for (k, v) in &outcome.sim {
        println!("  {k:<48} {v:>16.6}");
    }
    let suffix = if args.trace { ".trace.json" } else { ".json" };
    write_out(
        &format!("{workload}{suffix}"),
        &Json::obj(outcome.detail.clone()),
    );
    println!("{}", outcome.result_line().emit());
    outcome.correct
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick(trace: bool) -> Args {
        Args {
            workload: None,
            seed: 17,
            seconds: 0.5,
            trace,
            quick: true,
            repeat_check: false,
            print_benchmark_json: false,
        }
    }

    fn metric_names(line: &Json) -> Vec<String> {
        let metrics = line.get("metrics").and_then(Json::as_obj).expect("metrics");
        for (name, m) in metrics {
            let keys: Vec<&str> = m
                .as_obj()
                .unwrap()
                .iter()
                .map(|(k, _)| k.as_str())
                .collect();
            assert_eq!(keys, ["value", "unit"], "{name}");
            assert!(m.get("value").and_then(Json::as_f64).is_some(), "{name}");
        }
        metrics.iter().map(|(k, _)| k.clone()).collect()
    }

    /// The binary prints exactly the names `BENCHMARK.json` lists (which a
    /// test in `spec` ties to the tables): end-to-end with tracing off,
    /// per-layer with tracing on.
    #[test]
    fn result_line_carries_exactly_the_listed_metrics() {
        let untraced = measure("flow_burst", &quick(false));
        assert!(untraced.correct, "{:?}", untraced.notes);
        let line = Json::parse(&untraced.result_line().emit()).unwrap();
        let keys: Vec<&str> = line
            .as_obj()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let listed: Vec<&str> = spec::END_TO_END.iter().map(|(m, _)| m.name).collect();
        assert_eq!(metric_names(&line), listed);
        for (name, m) in line.get("metrics").and_then(Json::as_obj).unwrap() {
            assert!(
                m.get("value").and_then(Json::as_f64).unwrap() > 0.0,
                "{name}"
            );
        }

        let traced = measure("flow_burst", &quick(true));
        assert!(traced.correct, "{:?}", traced.notes);
        let line = Json::parse(&traced.result_line().emit()).unwrap();
        let listed: Vec<&str> = spec::PER_LAYER.iter().map(|m| m.name).collect();
        assert_eq!(metric_names(&line), listed);
    }

    #[test]
    fn best_follows_the_metric_direction() {
        assert_eq!(best(&[3.0, 1.0, 2.0], Better::Lower), 1.0);
        assert_eq!(best(&[3.0, 1.0, 2.0], Better::Higher), 3.0);
    }

    #[test]
    fn undisturbed_takes_each_slice_from_its_fastest_rep() {
        let rep = |slices: &[f64]| Rep {
            slices: slices.to_vec(),
            ..Rep::default()
        };
        // Every rep was disturbed somewhere; no slice was disturbed in all.
        let reps = [
            rep(&[1.0, 9.0, 2.0]),
            rep(&[5.0, 3.0, 2.5]),
            rep(&[1.5, 3.5, 8.0]),
        ];
        assert_eq!(undisturbed(&reps), [1.0, 3.0, 2.0]);
        assert!(reps.iter().all(|r| r.wall_s() > 6.0));
    }
}
