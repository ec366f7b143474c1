//! `kg-perf` command line.
//!
//! ```text
//! kg-perf list [--json]
//! kg-perf --workload <name> --seed <n> [--seconds <s>] [--trace 0|1]
//! kg-perf aa [--seed <n>] [--seconds <s>]
//! ```

use std::process::ExitCode;

use kg_perf::workloads::RunOpts;
use kg_perf::{aa, catalog, report, run_workload};

const USAGE: &str = "usage: kg-perf list [--json] | aa [--seed N] [--seconds S] | \
                     --workload NAME --seed N [--seconds S] [--trace 0|1]";

struct Args {
    command: Option<String>,
    workload: Option<String>,
    /// `list --json`: print `BENCHMARK.json` instead of the readable table.
    json: bool,
    opts: RunOpts,
}

fn parse_args(args: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut out = Args {
        command: None,
        workload: None,
        json: false,
        opts: RunOpts { seed: 1, seconds: 30.0, trace: false, sabotage: false },
    };
    let mut args = args.peekable();
    while let Some(arg) = args.next() {
        let mut value = |flag: &str| args.next().ok_or(format!("{flag} needs a value"));
        match arg.as_str() {
            "list" | "aa" if out.command.is_none() => out.command = Some(arg),
            "--json" => out.json = true,
            "--workload" => out.workload = Some(value("--workload")?),
            "--seed" => {
                out.opts.seed = value("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?;
            }
            "--seconds" => {
                let s: f64 = value("--seconds")?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s >= 1.0) {
                    return Err("--seconds must be at least 1".into());
                }
                out.opts.seconds = s;
            }
            "--trace" => {
                out.opts.trace = match value("--trace")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                };
            }
            // Test hook: corrupt the expected answers; the run must fail.
            "--sabotage" => out.opts.sabotage = true,
            other => return Err(format!("unexpected argument {other:?}")),
        }
    }
    Ok(out)
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("kg-perf: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if args.command.as_deref() == Some("list") {
        print!("{}", if args.json { catalog::benchmark_json() } else { report::list() });
        return ExitCode::SUCCESS;
    }
    // A number from an unoptimised build, or from a kernel other than the
    // one users get by default, is not this benchmark's number.
    if cfg!(debug_assertions) {
        eprintln!("kg-perf: refusing to measure a debug build; use --release");
        return ExitCode::from(2);
    }
    if std::env::var_os("KG_KERNEL").is_some() {
        eprintln!("kg-perf: refusing to measure with KG_KERNEL set; unset it");
        return ExitCode::from(2);
    }
    if args.command.as_deref() == Some("aa") {
        return match aa::run(&args.opts) {
            Ok(true) => ExitCode::SUCCESS,
            Ok(false) => ExitCode::FAILURE,
            Err(e) => {
                eprintln!("kg-perf aa: {e}");
                ExitCode::from(2)
            }
        };
    }
    let Some(workload) = args.workload else {
        eprintln!("kg-perf: no workload named\n{USAGE}");
        return ExitCode::from(2);
    };
    match run_workload(&workload, &args.opts) {
        Ok(outcome) => {
            print!("{}", report::text(&workload, &args.opts, &outcome));
            println!("{}", report::result_line(&outcome, args.opts.trace));
            if outcome.errors.is_empty() && outcome.failed == 0 {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            // A run that could not be measured prints no result line.
            eprintln!("kg-perf {workload}: {e}");
            ExitCode::from(3)
        }
    }
}
