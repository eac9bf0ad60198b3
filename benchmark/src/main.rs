//! The ESG reproduction's single benchmark.
//!
//! `--workload W --seed N --seconds S --trace 0|1` measures one workload
//! (the form the driver calls; the last stdout line is one JSON object).
//! Without `--workload` every workload runs in a child process of its
//! own, so `peak_rss_mb` is per workload; `--traced` adds the traced run,
//! `--repeat-check` runs the set twice and compares.
//!
//! See `README.md` for the metric tables and the method.

mod iso;
mod layers;
mod run;
mod spec;
mod stats;
mod suite;
mod workloads;

use std::process::ExitCode;

pub struct Args {
    pub workload: Option<String>,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub quick: bool,
    pub repeat_check: bool,
    pub print_benchmark_json: bool,
}

const USAGE: &str = "usage: esg-benchmark [--workload NAME] [--seed N] [--seconds S] \
[--trace 0|1 | --traced] [--quick] [--repeat-check] [--print-benchmark-json]";

fn parse_args(argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 17,
        seconds: spec::RUN_SECONDS as f64,
        trace: false,
        quick: false,
        repeat_check: false,
        print_benchmark_json: false,
    };
    let mut seconds_given = false;
    let mut argv = argv.skip(1);
    while let Some(flag) = argv.next() {
        let mut value = |what: &str| argv.next().ok_or(format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => {
                let name = value("a workload name")?;
                if !spec::workload_names().any(|w| w == name) {
                    let known: Vec<_> = spec::workload_names().collect();
                    return Err(format!("unknown workload '{name}' (one of {known:?})"));
                }
                args.workload = Some(name);
            }
            "--seed" => {
                args.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                args.seconds = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                seconds_given = true;
            }
            "--trace" => {
                args.trace = match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not '{other}'")),
                }
            }
            "--traced" => args.trace = true,
            "--quick" => args.quick = true,
            "--repeat-check" => args.repeat_check = true,
            "--print-benchmark-json" => args.print_benchmark_json = true,
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    if args.quick && !seconds_given {
        args.seconds = 1.0;
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args()) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if args.print_benchmark_json {
        println!("{}", suite::pretty(&spec::benchmark_json()));
        return ExitCode::SUCCESS;
    }
    let ok = match &args.workload {
        Some(name) => run::one(name, &args),
        None => suite::all(&args),
    };
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
