//! End-to-end and per-layer benchmark of autopipe.
//!
//! ```text
//! perfbench --workload <verify_dlx_small|sta_toy|sim_dlx|serve_mix>
//!           --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! One run sets up its workload from the seed, measures it for
//! `--seconds`, checks every output it produced, and prints one JSON
//! object as the last line of standard output:
//! `{"correct":..,"attempted":..,"failed":..,"metrics":{..}}`. With
//! `--trace 0` the metrics are the end-to-end ones, with `--trace 1` the
//! per-layer ones taken from the benchmark's own spans (written to
//! `perfbench/out/`). See README.md for the workloads and the metrics.

mod checks;
mod metrics;
mod rng;
mod serve_mix;
mod sim_dlx;
mod spans;
mod sta_toy;
mod verify_dlx_small;
mod wire;

use metrics::{END_TO_END, PER_LAYER};
use spans::Spans;
use std::process::ExitCode;
use std::time::Instant;

/// The benchmark's command line, validated.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

const USAGE: &str = "usage: perfbench --workload <verify_dlx_small|sta_toy|sim_dlx|serve_mix> \
--seed <n> --seconds <s> --trace <0|1>";

const WORKLOADS: [&str; 4] = ["verify_dlx_small", "sta_toy", "sim_dlx", "serve_mix"];

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed `{value}`"))?),
            "--seconds" => {
                let s: f64 = value
                    .parse()
                    .map_err(|_| format!("bad seconds `{value}`"))?;
                if !(s > 0.0 && s <= 3600.0) {
                    return Err(format!("seconds out of range: {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad trace flag `{value}`")),
                });
            }
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    let workload = workload.ok_or("missing --workload")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload `{workload}`"));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.ok_or("missing --seconds")?,
        trace: trace.ok_or("missing --trace")?,
    })
}

fn main() -> ExitCode {
    // Set-up time is measured from here: the process has just started.
    let started = Instant::now();
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let spans = Spans::new(args.trace);
    let outcome = match args.workload.as_str() {
        "verify_dlx_small" => verify_dlx_small::run(&args, &spans, started),
        "sta_toy" => sta_toy::run(&args, &spans, started),
        "sim_dlx" => sim_dlx::run(&args, &spans, started),
        "serve_mix" => serve_mix::run(&args, &spans, started),
        _ => unreachable!("validated in parse_args"),
    };
    let outcome = match outcome {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {}: set-up failed: {e}", args.workload);
            return ExitCode::FAILURE;
        }
    };
    for problem in &outcome.problems {
        eprintln!("perfbench: CHECK FAILED: {problem}");
    }
    eprintln!(
        "perfbench: {} seed {}: end-to-end {}",
        args.workload,
        args.seed,
        outcome.render(&END_TO_END)
    );
    eprintln!(
        "perfbench: round parts (samples x [1st percentile, median] ms): {}",
        outcome.parts_log
    );
    if args.trace {
        eprint!("{}", spans.self_time_table());
        if let Err(e) = spans.write(&args.workload, args.seed) {
            eprintln!("perfbench: cannot write spans: {e}");
            return ExitCode::FAILURE;
        }
    }
    let set = if args.trace {
        &PER_LAYER[..]
    } else {
        &END_TO_END[..]
    };
    println!("{}", outcome.result_line(set));
    ExitCode::SUCCESS
}
