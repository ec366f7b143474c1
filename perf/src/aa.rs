//! `kg-perf aa`: run every workload twice on the same build and compare
//! the two values of every end-to-end metric against the metric's bound.
//! Each run is its own process (one workload per process keeps
//! `peak_rss_mb` honest), and the second set starts only after the first
//! has finished — the same shape as the driver's two sets of runs.

use std::process::Command;

use kgeval::serve::Json;

use crate::catalog::{END_TO_END, WORKLOADS};
use crate::stats::pair_spread;
use crate::workloads::RunOpts;

/// The end-to-end values one child process reported, in catalogue order.
fn run_child(workload: &str, opts: &RunOpts) -> Result<Vec<f64>, String> {
    let exe = std::env::current_exe().map_err(|e| format!("own path: {e}"))?;
    let output = Command::new(exe)
        .args(["--workload", workload])
        .args(["--seed", &opts.seed.to_string()])
        .args(["--seconds", &opts.seconds.to_string()])
        .args(["--trace", "0"])
        .output()
        .map_err(|e| format!("spawn {workload}: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    if !output.status.success() {
        return Err(format!(
            "{workload} exited with {}:\n{stdout}{}",
            output.status,
            String::from_utf8_lossy(&output.stderr)
        ));
    }
    let line = stdout.lines().last().ok_or(format!("{workload} printed nothing"))?;
    parse_result_line(line).ok_or(format!("{workload}: not a result line: {line}"))
}

/// End-to-end values of a result line, in catalogue order; `None` unless
/// the line is a correct run reporting every metric.
pub fn parse_result_line(line: &str) -> Option<Vec<f64>> {
    let json = Json::parse(line).ok()?;
    if json.get("correct")?.as_bool()? && json.get("failed")?.as_u64()? == 0 {
        let metrics = json.get("metrics")?;
        END_TO_END.iter().map(|m| metrics.get(m.name)?.get("value")?.as_f64()).collect()
    } else {
        None
    }
}

/// Run the A/A comparison; `Ok(true)` when every spread is within its
/// bound.
pub fn run(opts: &RunOpts) -> Result<bool, String> {
    let mut sets: Vec<Vec<Vec<f64>>> = Vec::new();
    for set in ["A", "B"] {
        let mut values = Vec::new();
        for workload in WORKLOADS {
            eprintln!("aa: set {set}: {}", workload.name);
            values.push(run_child(workload.name, opts)?);
        }
        sets.push(values);
    }
    println!(
        "{:<18} {:<22} {:>14} {:>14} {:>8} {:>6}  target: spread <= half the bound",
        "workload", "metric", "A", "B", "spread", "bound"
    );
    let mut within = true;
    for (w, workload) in WORKLOADS.iter().enumerate() {
        for (m, metric) in END_TO_END.iter().enumerate() {
            let (a, b) = (sets[0][w][m], sets[1][w][m]);
            let spread = pair_spread(a, b);
            let verdict = if spread > metric.bound {
                within = false;
                "EXCEEDS"
            } else if spread > metric.bound / 2.0 {
                "over half"
            } else {
                ""
            };
            println!(
                "{:<18} {:<22} {a:>14.4} {b:>14.4} {spread:>8.4} {:>6.2}  {verdict}",
                workload.name, metric.name, metric.bound
            );
        }
    }
    println!(
        "aa: {}",
        if within { "every spread is within its bound" } else { "a spread exceeds its bound" }
    );
    Ok(within)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::result_line;
    use crate::workloads::{EndToEndValues, Outcome};

    #[test]
    fn result_lines_round_trip_in_catalogue_order() {
        let mut outcome = Outcome { attempted: 5, ..Outcome::default() };
        outcome.end_to_end = Some(EndToEndValues {
            setup_s: 1.0,
            peak_rss_mb: 2.0,
            throughput_rps: 3.0,
            latency_p50_ms: 4.0,
            full_eval_tps: 6.0,
            write_latency_p50_ms: 7.0,
        });
        let values = parse_result_line(&result_line(&outcome, false)).unwrap();
        assert_eq!(values, vec![1.0, 2.0, 3.0, 4.0, 6.0, 7.0]);
        // A failed run is not a measurement.
        outcome.fail(1, "wrong".into());
        assert_eq!(parse_result_line(&result_line(&outcome, false)), None);
        assert_eq!(parse_result_line("kg-perf: no"), None);
    }
}
