//! End-to-end benchmark of the Fock-build reproduction.
//!
//! ```text
//! perfbench --workload <dense-dz|sparse-chain|service-mix> --seed <n> --seconds <s> --trace <0|1>
//! perfbench pin    # recompute references.tsv on stdout
//! ```
//!
//! Prints one line per metric (name, value, unit, sample count), the
//! failure attribution, and as its last line a JSON object with
//! `correct`, `attempted`, `failed` and `metrics`. Untraced runs
//! (`--trace 0`) report the end-to-end metrics, traced runs the per-layer
//! ones. See `perfbench/NOTES.md` for the workloads and metrics.

mod common;
mod inputs;
mod layers;
mod refs;
mod scf_workloads;
mod service_mix;
mod spans;

use common::RunOutput;
use std::process::ExitCode;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (0, 30.0_f64, false);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                }
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    if !(seconds.is_finite() && seconds > 0.0) {
        return Err("--seconds must be positive".to_string());
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

fn run(args: &Args) -> Result<RunOutput, String> {
    let refs = refs::References::pinned()?;
    let (s, seed, trace) = (args.seconds, args.seed, args.trace);
    match args.workload.as_str() {
        "dense-dz" => scf_workloads::dense_dz().run(&refs, s, seed, trace),
        "sparse-chain" => scf_workloads::sparse_chain().run(&refs, s, seed, trace),
        "service-mix" => service_mix::run(&refs, s, seed, trace),
        other => Err(format!("unknown workload {other}")),
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("pin") {
        return match refs::pin() {
            Ok(text) => {
                print!("{text}");
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("pin failed: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    let out = match run(&args) {
        Ok(out) => out,
        Err(e) => {
            eprintln!("benchmark failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    let t = &out.tally;
    for m in &out.metrics {
        println!(
            "metric {} {} = {} {} (n={})",
            args.workload, m.name, m.value, m.unit, m.samples
        );
    }
    println!(
        "fail_frac = {} ratio (failed {} of {} attempted)",
        1.0 - t.ok_frac(),
        t.failed,
        t.attempted
    );
    for (cause, n) in &t.known {
        println!("failures attributed to {cause}: {n}");
    }
    for msg in &t.unexplained {
        println!("unexplained failure: {msg}");
    }
    let metrics: Vec<String> = out
        .metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        t.unexplained.is_empty(),
        t.attempted,
        t.failed,
        metrics.join(", ")
    );
    ExitCode::SUCCESS
}
