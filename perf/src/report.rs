//! What the binary prints: `list`, one workload's named values, and the
//! last line — one JSON object a driver can read.

use std::fmt::Write as _;

use kgeval::models::kernels;

use crate::catalog::{Better, END_TO_END, PER_LAYER, WORKLOADS};
use crate::env;
use crate::workloads::{Outcome, RunOpts};

/// `kg-perf list`: every metric with its unit and what it should move.
pub fn list() -> String {
    let mut out = String::new();
    let _ = writeln!(out, "workloads");
    for w in WORKLOADS {
        let _ = writeln!(out, "  {:<18} {}", w.name, w.why);
    }
    let _ = writeln!(out, "\nend-to-end metrics (gated; every workload reports all of them)");
    for m in END_TO_END {
        let _ = writeln!(
            out,
            "  {:<24} {:<6} {:<7} bound {:.2}  native on: {}\n      {}",
            m.name,
            m.unit,
            m.better.as_str(),
            m.bound,
            m.native,
            m.definition
        );
    }
    let _ = writeln!(out, "\nper-layer metrics (traced run; never gated)");
    for m in PER_LAYER {
        let _ = writeln!(
            out,
            "  {:<46} {:<6} {:<7} how: {}\n      should move: {}",
            m.name,
            m.unit,
            m.better.as_str(),
            m.how,
            m.moves
        );
    }
    out
}

/// A JSON number with all its digits; the harness never reports a
/// non-finite value, so one here is a bug worth stopping on.
fn number(name: &str, v: f64) -> String {
    assert!(v.is_finite(), "metric {name} is not finite: {v}");
    format!("{v}")
}

/// The result object: exactly `correct`, `attempted`, `failed`,
/// `metrics` — every end-to-end metric for an untraced run, every
/// per-layer metric (0 for a layer off the workload's path) for a traced
/// one.
pub fn result_line(outcome: &Outcome, trace: bool) -> String {
    let metrics: Vec<String> = if trace {
        PER_LAYER
            .iter()
            .map(|m| {
                let v = outcome.layers.get(m.name).copied().unwrap_or(0.0);
                format!(r#""{}":{{"value":{},"unit":"{}"}}"#, m.name, number(m.name, v), m.unit)
            })
            .collect()
    } else {
        let values = outcome.end_to_end.unwrap_or_default();
        END_TO_END
            .iter()
            .map(|m| {
                let v = values.get(m.name);
                format!(r#""{}":{{"value":{},"unit":"{}"}}"#, m.name, number(m.name, v), m.unit)
            })
            .collect()
    };
    format!(
        r#"{{"correct":{},"attempted":{},"failed":{},"metrics":{{{}}}}}"#,
        outcome.errors.is_empty() && outcome.failed == 0,
        outcome.attempted.max(1),
        // A failed check covers a whole stretch of operations; never
        // report more failures than attempts.
        outcome.failed.min(outcome.attempted.max(1)),
        metrics.join(",")
    )
}

fn arrow(better: Better) -> &'static str {
    match better {
        Better::Lower => "lower is better",
        Better::Higher => "higher is better",
    }
}

/// The human-readable part: environment facts, the workload's own facts,
/// every metric by name with its unit.
pub fn text(workload: &str, opts: &RunOpts, outcome: &Outcome) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "kg-perf workload={workload} seed={} seconds={} trace={}",
        opts.seed,
        opts.seconds,
        u8::from(opts.trace)
    );
    let _ = writeln!(out, "  nproc: {}", env::nproc());
    let _ = writeln!(out, "  kernel_isa: {}", kernels::active().name());
    let _ = writeln!(out, "  git_revision: {}", env::git_revision());
    for (k, v) in &outcome.facts {
        let _ = writeln!(out, "  {k}: {v}");
    }
    let laps: Vec<String> = outcome
        .laps
        .windows(2)
        .map(|w| format!("{}={:.1}", w[1].0, (w[1].1 - w[0].1).as_secs_f64()))
        .collect();
    if !laps.is_empty() {
        let _ = writeln!(out, "  wall_s: {}", laps.join(" "));
    }
    if let Some(values) = outcome.end_to_end {
        let _ = writeln!(out, "end-to-end (run value = median over segments)");
        for m in END_TO_END {
            let native = m.native == "all" || m.native.split(", ").any(|w| w == workload);
            let _ = writeln!(
                out,
                "  {:<24} {:>14.4} {:<5} ({}{})",
                m.name,
                values.get(m.name),
                m.unit,
                arrow(m.better),
                if native { "" } else { "; stand-in measured in the segment tails" }
            );
        }
    }
    let _ = writeln!(
        out,
        "per-layer{}",
        if opts.trace {
            ""
        } else {
            " (load generator and environment only; --trace 1 for the rest)"
        }
    );
    for m in PER_LAYER {
        match outcome.layers.get(m.name) {
            Some(v) => {
                let _ = writeln!(out, "  {:<46} {:>14.4} {}", m.name, v, m.unit);
            }
            None if opts.trace => {
                let _ = writeln!(out, "  {:<46} {:>14} {}", m.name, "n/a", m.unit);
            }
            None => {}
        }
    }
    let _ = writeln!(
        out,
        "operations: attempted={} failed={} succeeded={}",
        outcome.attempted,
        outcome.failed,
        outcome.attempted.saturating_sub(outcome.failed)
    );
    for e in &outcome.errors {
        let _ = writeln!(out, "CHECK FAILED: {e}");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::EndToEndValues;
    use kgeval::serve::Json;

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let mut outcome = Outcome { attempted: 10, ..Outcome::default() };
        outcome.end_to_end =
            Some(EndToEndValues { setup_s: 0.8127, latency_p50_ms: 1.2034, ..Default::default() });
        let line = result_line(&outcome, false);
        let json = Json::parse(&line).unwrap();
        let Json::Obj(fields) = &json else { panic!("not an object") };
        let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(json.get("correct").and_then(Json::as_bool), Some(true));
        let Some(Json::Obj(metrics)) = json.get("metrics") else { panic!("no metrics") };
        assert_eq!(metrics.len(), END_TO_END.len());
        let setup = json.get("metrics").unwrap().get("setup_s").unwrap();
        assert_eq!(setup.get("value").and_then(Json::as_f64), Some(0.8127));
        assert_eq!(setup.get("unit").and_then(Json::as_str), Some("s"));
    }

    #[test]
    fn traced_line_lists_every_layer_and_failure_flips_correct() {
        let mut outcome = Outcome { attempted: 10, ..Outcome::default() };
        outcome.layers.insert("load.samples", 42.0);
        outcome.fail(3, "wrong answer".into());
        let json = Json::parse(&result_line(&outcome, true)).unwrap();
        assert_eq!(json.get("correct").and_then(Json::as_bool), Some(false));
        assert_eq!(json.get("failed").and_then(Json::as_u64), Some(3));
        let Some(Json::Obj(metrics)) = json.get("metrics") else { panic!("no metrics") };
        assert_eq!(metrics.len(), PER_LAYER.len());
        let get = |n: &str| {
            json.get("metrics").unwrap().get(n).unwrap().get("value").and_then(Json::as_f64)
        };
        assert_eq!(get("load.samples"), Some(42.0));
        assert_eq!(get("serve.gateway.topk_call_us"), Some(0.0));
    }

    #[test]
    fn list_names_every_metric() {
        let text = list();
        for name in END_TO_END.iter().map(|m| m.name).chain(PER_LAYER.iter().map(|m| m.name)) {
            assert!(text.contains(name), "{name} missing from list");
        }
    }
}
