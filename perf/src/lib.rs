//! `kg-perf`: the benchmark this repository is measured with.
//!
//! A standalone, std-only package that path-depends on the `kgeval`
//! umbrella crate and touches nothing outside `perf/`: every layer is
//! measured **from outside**, by timing calls into public functions and
//! by scraping the server's own `GET /metrics`. See `README.md` for the
//! workloads, the metric map and how each noise source was designed out.

pub mod aa;
pub mod catalog;
pub mod env;
pub mod inputs;
pub mod load;
pub mod probes;
pub mod report;
pub mod scrape;
pub mod stats;
pub mod trace;
pub mod workloads;

use workloads::{Outcome, RunOpts};

/// Run one workload by name.
pub fn run_workload(name: &str, opts: &RunOpts) -> Result<Outcome, String> {
    match name {
        "eval_offline" => workloads::eval_offline::run(opts),
        "serve_topk_1m" => workloads::serve_topk_1m::run(opts),
        "gateway_small" => workloads::gateway_small::run(opts),
        "serve_live_mixed" => workloads::serve_live_mixed::run(opts),
        other => Err(format!(
            "unknown workload {other:?}; one of {:?}",
            catalog::WORKLOADS.map(|w| w.name)
        )),
    }
}
