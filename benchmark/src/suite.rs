//! The whole set in one command: every workload in a child process of its
//! own (so `peak_rss_mb` and the allocator's state are per workload),
//! optionally traced, optionally twice with the two sets compared.

use crate::spec::{self, Better};
use crate::Args;
use esg_lab::json::Json;
use std::collections::BTreeMap;
use std::process::{Command, Stdio};

/// `metric name -> value` of one child run, plus its `sim_digest`.
struct ChildRun {
    metrics: BTreeMap<String, f64>,
    sim_digest: String,
    ok: bool,
}

fn run_child(workload: &str, args: &Args, trace: bool) -> ChildRun {
    let failed = || ChildRun {
        metrics: BTreeMap::new(),
        sim_digest: String::new(),
        ok: false,
    };
    let exe = std::env::current_exe().expect("own executable path");
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stdout(Stdio::piped());
    if args.quick {
        cmd.arg("--quick");
    }
    // `output` waits for the child: no process outlives this call.
    let out = match cmd.output() {
        Ok(out) => out,
        Err(e) => {
            println!("{workload}: could not start: {e}");
            return failed();
        }
    };
    let stdout = String::from_utf8_lossy(&out.stdout);
    let mut lines: Vec<&str> = stdout.lines().collect();
    let last = lines.pop().unwrap_or_default();
    for line in &lines {
        println!("{line}");
    }
    let Ok(result) = Json::parse(last) else {
        println!("{workload}: no result line (exit {:?})", out.status.code());
        return failed();
    };
    let metrics = result
        .get("metrics")
        .and_then(Json::as_obj)
        .unwrap_or_default()
        .iter()
        .filter_map(|(k, v)| Some((k.clone(), v.get("value")?.as_f64()?)))
        .collect();
    let sim_digest = lines
        .iter()
        .find_map(|l| l.split("sim_digest ").nth(1))
        .unwrap_or_default()
        .trim()
        .to_string();
    ChildRun {
        metrics,
        sim_digest,
        ok: out.status.success() && result.get("correct").and_then(Json::as_bool) == Some(true),
    }
}

/// One pass over every workload: untraced always, traced on request.
fn run_set(args: &Args) -> (BTreeMap<&'static str, ChildRun>, bool) {
    let mut ok = true;
    let mut set = BTreeMap::new();
    for workload in spec::workload_names() {
        let run = run_child(workload, args, false);
        ok &= run.ok;
        if args.trace {
            ok &= run_child(workload, args, true).ok;
        }
        set.insert(workload, run);
        println!();
    }
    (set, ok)
}

/// How much worse `b` is than `a`, as a share of `a`, in the metric's bad
/// direction (negative when `b` is better).
fn worsening(better: Better, a: f64, b: f64) -> f64 {
    match better {
        Better::Lower => (b - a) / a,
        Better::Higher => (a - b) / a,
    }
}

/// Two sets of the same code must agree: each end-to-end metric within its
/// own bound in both directions, the simulation exactly.
fn compare_sets(
    a: &BTreeMap<&'static str, ChildRun>,
    b: &BTreeMap<&'static str, ChildRun>,
) -> bool {
    let mut ok = true;
    println!("repeat check: second set against the first");
    for workload in spec::workload_names() {
        let (ra, rb) = (&a[workload], &b[workload]);
        if ra.sim_digest != rb.sim_digest {
            println!("  {workload}: sim_digest differs between the sets  FAIL");
            ok = false;
        }
        for (metric, bound) in spec::END_TO_END {
            let (Some(&va), Some(&vb)) = (ra.metrics.get(metric.name), rb.metrics.get(metric.name))
            else {
                println!("  {workload} {}: missing  FAIL", metric.name);
                ok = false;
                continue;
            };
            let w = worsening(metric.better, va, vb);
            let within = w.abs() <= *bound;
            println!(
                "  {workload:<20} {:<12} {va:>14.6} -> {vb:>14.6} {}  {:+.2}% of a {:.0}% bound  {}",
                metric.name,
                metric.unit,
                w * 100.0,
                bound * 100.0,
                if within { "ok" } else { "FAIL" }
            );
            ok &= within;
        }
    }
    ok
}

pub fn all(args: &Args) -> bool {
    let (first, mut ok) = run_set(args);
    if args.repeat_check {
        let (second, ok2) = run_set(args);
        ok &= ok2;
        ok &= compare_sets(&first, &second);
    }
    println!(
        "{}",
        if ok {
            "all checks passed"
        } else {
            "CHECKS FAILED"
        }
    );
    ok
}

/// `BENCHMARK.json` layout: one top-level member per line, one element of
/// an array of objects per line.
pub fn pretty(json: &Json) -> String {
    let Some(members) = json.as_obj() else {
        return json.emit();
    };
    let mut out = String::from("{\n");
    for (i, (key, value)) in members.iter().enumerate() {
        out.push_str(&format!("  {}: ", Json::str(key.as_str()).emit()));
        match value.as_arr() {
            Some(items) if items.iter().any(|v| v.as_obj().is_some()) => {
                out.push_str("[\n");
                for (j, item) in items.iter().enumerate() {
                    let comma = if j + 1 < items.len() { "," } else { "" };
                    out.push_str(&format!("    {}{comma}\n", item.emit()));
                }
                out.push_str("  ]");
            }
            _ => out.push_str(&value.emit()),
        }
        out.push_str(if i + 1 < members.len() { ",\n" } else { "\n" });
    }
    out.push('}');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn worsening_follows_the_metric_direction() {
        assert!((worsening(Better::Lower, 10.0, 11.0) - 0.1).abs() < 1e-12);
        assert!((worsening(Better::Lower, 10.0, 9.0) + 0.1).abs() < 1e-12);
        assert!((worsening(Better::Higher, 10.0, 9.0) - 0.1).abs() < 1e-12);
        assert!((worsening(Better::Higher, 10.0, 11.0) + 0.1).abs() < 1e-12);
    }

    #[test]
    fn pretty_output_parses_back_to_the_same_value() {
        let json = spec::benchmark_json();
        assert_eq!(Json::parse(&pretty(&json)).unwrap(), json);
    }
}
