//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload and prints a human-readable report followed by one JSON result
//! line. Exits nonzero, without a result line, when any correctness check fails.

use perfbench::{bench, report, spec};
use std::process::ExitCode;

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag} takes a whole number, got {value:?}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?),
            "--trace" => trace = Some(number()? != 0),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10).max(1),
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(err) => {
            eprintln!("perfbench: {err}");
            return ExitCode::from(2);
        }
    };
    let Some(spec) = spec::find(&args.workload) else {
        let names: Vec<_> = spec::workloads().iter().map(|s| s.name).collect();
        eprintln!(
            "perfbench: unknown workload {:?}; known: {names:?}",
            args.workload
        );
        return ExitCode::from(2);
    };
    let seconds = args.seconds as f64;
    let outcome = if args.trace {
        bench::traced(&spec, args.seed, seconds)
    } else {
        bench::untraced(&spec, args.seed, seconds)
    };
    let outcome = match outcome {
        Ok(outcome) => outcome,
        Err(err) => {
            eprintln!("perfbench: {} run failed: {err}", spec.name);
            return ExitCode::FAILURE;
        }
    };
    let identity = report::identity(
        spec.name,
        spec.transport.name(),
        args.seed,
        args.seconds,
        spec.rate(),
        matches!(spec.drive, spec::Drive::Open { .. }),
        args.trace,
    );
    print!(
        "{}",
        report::render_text(&identity, &outcome.metrics, &outcome.notes)
    );
    if let Some(missing) = outcome.metrics.iter().find(|m| m.value.is_none()) {
        eprintln!(
            "perfbench: {} has too few samples ({:?}) to report",
            missing.name, missing.samples
        );
        return ExitCode::FAILURE;
    }
    println!(
        "{}",
        report::render_json(true, outcome.attempted, outcome.failed, &outcome.metrics)
    );
    ExitCode::SUCCESS
}
