//! Service observability: every `/metrics` series is one row of the
//! `families!` table below, rendered in Prometheus text format.
//!
//! A new series follows three rules:
//!
//! 1. **One row** in the table — name, kind, label names, help — at the
//!    place it should appear on `/metrics` (the table *is* the render order).
//! 2. **One verb at the call site**: `HttpMetrics::add` for a counter,
//!    `HttpMetrics::set` for a gauge (`HttpMetrics::raise` for one that
//!    racing writers must only move forward), `HttpMetrics::observe` for a
//!    summary. An event method exists only where one event moves several
//!    series at once (it is one `write` of several `Op`s, under one lock).
//! 3. **Nothing else**: storage, `render`, `value`, `forget`, label
//!    escaping and sorting are driven by the table and never name a family.
//!
//! Hot-path guarantee: a write to an unlabelled counter or gauge is an
//! index into the table and one relaxed atomic; an event takes the series
//! lock at most once however many labelled series or summaries it moves,
//! and allocates only the first time a label set is seen. A scrape copies
//! one family at a time under the lock and sorts and formats after
//! releasing it, so it stalls a worker for no longer than one copy.

use std::collections::VecDeque;
use std::fmt::Write;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use crate::monitor::MonitorStatus;

/// Samples retained per summary series: quantiles are over a sliding
/// window, so memory stays bounded under unbounded traffic.
pub const LATENCY_WINDOW: usize = 4096;

/// How a family's cells are stored, written and printed.
#[derive(Clone, Copy)]
enum Kind {
    /// A `u64`, moved by `add` (or `set`, where the owner keeps the count).
    Counter,
    /// An `f64`, replaced by `set` (or raised by `raise`).
    Gauge,
    /// The last [`LATENCY_WINDOW`] samples fed to `observe`, printed as p50
    /// and p99 divided by this unit (`1e6`: microseconds in, seconds out).
    Summary(f64),
}

/// One row of the table: everything `/metrics` knows about a family.
struct Desc {
    name: &'static str,
    kind: Kind,
    labels: &'static [&'static str],
    help: &'static str,
}

impl Desc {
    /// Unlabelled counters and gauges live in one lock-free atomic each.
    fn is_scalar(&self) -> bool {
        self.labels.is_empty() && !matches!(self.kind, Kind::Summary(_))
    }

    /// A `set` value as stored: a counter's whole number, a gauge's bits.
    fn encode(&self, value: f64) -> u64 {
        match self.kind {
            Kind::Counter => value as u64,
            _ => value.to_bits(),
        }
    }
}

/// Declares [`Family`] (the handle the write verbs take) and [`FAMILIES`]
/// (its descriptors) from one list, so the two cannot drift apart.
macro_rules! families {
    ($($id:ident, $name:literal, $kind:expr, [$($label:literal),*], $help:literal;)*) => {
        /// A `/metrics` family, in render order.
        #[derive(Clone, Copy)]
        pub(crate) enum Family { $($id),* }

        const FAMILIES: &[Desc] = {
            use Kind::*;
            &[$(Desc { name: $name, kind: $kind, labels: &[$($label),*], help: $help }),*]
        };
    };
}

families! {
    Uptime, "kg_serve_uptime_seconds", Gauge, [], "Seconds since server start.";
    ConnectionsActive, "kg_serve_connections_active", Gauge, [], "Connections currently open.";
    ConnectionsTotal, "kg_serve_connections_total", Counter, [], "Connections handed to a worker.";
    KeepaliveReuses, "kg_serve_keepalive_reuses_total", Counter, [], "Requests served on a reused connection.";
    RejectedConnections, "kg_serve_rejected_connections_total", Counter, [], "Connections refused with 503 at the admission gate.";
    ThrottledConnections, "kg_serve_throttled_connections_total", Counter, [], "Connections refused with 429 by the per-client token bucket.";
    ReactorFds, "kg_serve_reactor_registered_fds", Gauge, [], "File descriptors registered with the reactor poller (listener + waker + connections).";
    ReactorWakeups, "kg_serve_reactor_wakeups_total", Counter, [], "Times the reactor's poll wait returned.";
    ReactorReadyEvents, "kg_serve_reactor_ready_events", Summary(1.0), [], "Ready events per reactor tick, quantiles over a sliding window.";
    Requests, "kg_serve_requests_total", Counter, ["endpoint"], "Requests handled, by endpoint.";
    RequestErrors, "kg_serve_request_errors_total", Counter, ["endpoint"], "Responses with status >= 400.";
    Latency, "kg_serve_latency_seconds", Summary(1e6), ["endpoint"], "Request latency quantiles over a sliding window.";
    ScoreBatches, "kg_serve_score_batches_total", Counter, [], "Coalesced /score batches executed.";
    ScoreBatchJobs, "kg_serve_score_batch_jobs_total", Counter, [], "Requests absorbed into batches.";
    ScoreBatchTriples, "kg_serve_score_batch_triples_total", Counter, [], "Triples scored through batches.";
    ScoreBatchSize, "kg_serve_score_batch_size", Summary(1.0), [], "Requests per batch, quantiles.";
    TopkBatches, "kg_serve_topk_batches_total", Counter, [], "Coalesced /topk batches executed.";
    TopkBatchJobs, "kg_serve_topk_batch_jobs_total", Counter, [], "Requests absorbed into /topk batches.";
    TopkBatchQueries, "kg_serve_topk_batch_queries_total", Counter, [], "Top-k queries executed through batches.";
    GraphVersion, "kg_serve_graph_version", Gauge, ["model"], "Current live-graph version.";
    KernelInfo, "kg_serve_kernel_info", Gauge, ["isa"], "Active scoring-kernel ISA (value is always 1).";
    ModelPrecision, "kg_serve_model_precision_info", Gauge, ["model", "precision"], "Entity-table storage precision per model (value is always 1).";
    TriplesInserted, "kg_serve_graph_triples_inserted_total", Counter, [], "Triples inserted into live graphs.";
    TriplesDeleted, "kg_serve_graph_triples_deleted_total", Counter, [], "Triples deleted from live graphs.";
    TopkCacheHits, "kg_serve_topk_cache_hits_total", Counter, [], "/topk queries answered from the version-stamped result cache.";
    TopkCacheMisses, "kg_serve_topk_cache_misses_total", Counter, [], "/topk queries that ran a fresh ranking pass.";
    EvalCacheHits, "kg_serve_eval_cache_hits_total", Counter, [], "/eval requests answered from the result cache.";
    EvalCacheMisses, "kg_serve_eval_cache_misses_total", Counter, [], "/eval requests that recomputed.";
    MonitorMrr, "kg_serve_monitor_mrr", Gauge, ["model"], "Latest continuous-evaluation MRR.";
    MonitorHitsAtK, "kg_serve_monitor_hits_at_k", Gauge, ["model", "k"], "Latest continuous-evaluation Hits@K.";
    MonitorBaselineMrr, "kg_serve_monitor_baseline_mrr", Gauge, ["model"], "MRR of the monitor's first (baseline) round.";
    MonitorDriftAlarm, "kg_serve_monitor_drift_alarm", Gauge, ["model"], "1 when MRR fell more than the drift threshold below baseline.";
    MonitorEvals, "kg_serve_monitor_evals_total", Counter, ["model"], "Continuous-evaluation rounds completed.";
    // Stored as the uptime at which the latest round finished; a scrape
    // turns its copy into an age.
    MonitorEvalAge, "kg_serve_monitor_eval_age_seconds", Gauge, ["model"], "Seconds since the latest round finished.";
    GatewayBackendErrors, "kg_serve_gateway_backend_errors_total", Counter, ["backend"], "Backend failures observed by the gateway.";
    GatewayScatter, "kg_serve_gateway_scatter_seconds", Summary(1e6), ["endpoint"], "Gateway scatter-phase latency (fan-out until the last backend answered).";
    GatewayMerge, "kg_serve_gateway_merge_seconds", Summary(1e6), ["endpoint"], "Gateway merge-phase latency (partial recombination).";
}

/// One series' storage: `num` is a counter's count or a gauge's `f64` bits,
/// `window` a summary's samples — the family's [`Kind`] says which is live.
#[derive(Clone, Default)]
struct Cell {
    num: u64,
    window: VecDeque<u64>,
}

/// A family's series: label values → cell, in first-written order.
type Series = Vec<(Vec<String>, Cell)>;

/// One write to one family's series; see [`HttpMetrics::write`].
#[derive(Clone, Copy)]
enum Op {
    /// Move a counter up.
    Add(u64),
    /// Replace a gauge's value (or a counter's, where the caller owns the
    /// count — it is truncated to a whole number).
    Set(f64),
    /// Raise a gauge to the value if it is below it.
    Raise(f64),
    /// Feed one sample to a summary's window.
    Observe(u64),
}

/// What a copied cell prints as: its number, or for a summary its p50 and
/// p99 under their `quantile` label values (sorted here — outside the
/// lock). Counts go through `f64` like everything a Prometheus scrape
/// parses; they print digit for digit up to 2^53.
fn read(kind: Kind, cell: Cell) -> Vec<(Option<&'static str>, f64)> {
    match kind {
        Kind::Counter => vec![(None, cell.num as f64)],
        Kind::Gauge => vec![(None, f64::from_bits(cell.num))],
        Kind::Summary(_) if cell.window.is_empty() => Vec::new(),
        Kind::Summary(div) => {
            let mut sorted = Vec::from(cell.window);
            sorted.sort_unstable();
            let quantile = |label, q| (Some(label), percentile(&sorted, q) / div);
            vec![quantile("0.5", 0.50), quantile("0.99", 0.99)]
        }
    }
}

/// Thread-safe metrics registry shared by the router, the batchers, the
/// gateway, the monitors and the server's connection lifecycle.
pub struct HttpMetrics {
    /// One atomic per [`FAMILIES`] row (encoded like [`Cell::num`]); live
    /// for the rows that are [`Desc::is_scalar`].
    scalars: Vec<AtomicU64>,
    /// One series list per [`FAMILIES`] row; live for every other row.
    series: Mutex<Vec<Series>>,
    started: Instant,
}

impl Default for HttpMetrics {
    fn default() -> Self {
        Self::new()
    }
}

impl HttpMetrics {
    /// Fresh registry; `uptime` counts from here.
    pub fn new() -> Self {
        HttpMetrics {
            scalars: FAMILIES.iter().map(|_| AtomicU64::new(0)).collect(),
            series: Mutex::new(vec![Vec::new(); FAMILIES.len()]),
            started: Instant::now(),
        }
    }

    /// The one write path: apply `ops` to the series labelled `labels` of
    /// their families. Scalars are one relaxed atomic each; the series lock
    /// is taken once, by the first op that needs it, and a cell is created
    /// — its label set allocated — the first time it is written.
    fn write(&self, labels: &[&str], ops: &[(Family, Op)]) {
        let mut series = None;
        for &(family, op) in ops {
            let at = family as usize;
            let Some((desc, scalar)) = FAMILIES.get(at).zip(self.scalars.get(at)) else { continue };
            if desc.is_scalar() {
                match op {
                    Op::Add(n) => drop(scalar.fetch_add(n, Ordering::Relaxed)),
                    Op::Set(value) => scalar.store(desc.encode(value), Ordering::Relaxed),
                    Op::Raise(value) => {
                        // `Err` only says the gauge already held at least `value`.
                        let _ = scalar.fetch_update(Ordering::Relaxed, Ordering::Relaxed, |old| {
                            (f64::from_bits(old) < value).then(|| value.to_bits())
                        });
                    }
                    Op::Observe(_) => {}
                }
                continue;
            }
            let series = series.get_or_insert_with(|| self.series.lock().unwrap());
            let Some(series) = series.get_mut(at) else { continue };
            let apply = |cell: &mut Cell| match op {
                Op::Add(n) => cell.num += n,
                Op::Set(value) => cell.num = desc.encode(value),
                Op::Raise(value) => {
                    if f64::from_bits(cell.num) < value {
                        cell.num = value.to_bits();
                    }
                }
                Op::Observe(sample) => {
                    if cell.window.len() == LATENCY_WINDOW {
                        cell.window.pop_front();
                    }
                    cell.window.push_back(sample);
                }
            };
            match series.iter_mut().find(|(have, _)| have.as_slice() == labels) {
                Some((_, cell)) => apply(cell),
                None => {
                    let mut cell = Cell::default();
                    apply(&mut cell);
                    series.push((labels.iter().map(|l| l.to_string()).collect(), cell));
                }
            }
        }
    }

    /// Move a counter series up by `n`.
    pub(crate) fn add(&self, family: Family, labels: &[&str], n: u64) {
        self.write(labels, &[(family, Op::Add(n))]);
    }

    /// Replace a gauge series' value.
    pub(crate) fn set(&self, family: Family, labels: &[&str], value: f64) {
        self.write(labels, &[(family, Op::Set(value))]);
    }

    /// Raise a gauge series to `value` if it is below it: a gauge racing
    /// writers publish to, which must end at the largest value written.
    pub(crate) fn raise(&self, family: Family, labels: &[&str], value: f64) {
        self.write(labels, &[(family, Op::Raise(value))]);
    }

    /// Feed one sample to a summary series' window.
    pub(crate) fn observe(&self, family: Family, labels: &[&str], sample: u64) {
        self.write(labels, &[(family, Op::Observe(sample))]);
    }

    /// Drop every series carrying `label="value"` from the families whose
    /// name starts with `prefix` — what was said about a model, a monitor
    /// or a precision must not outlive it.
    pub(crate) fn forget(&self, prefix: &str, label: &str, value: &str) {
        let mut all = self.series.lock().unwrap();
        for (desc, series) in FAMILIES.iter().zip(all.iter_mut()) {
            let at = desc.labels.iter().position(|l| *l == label);
            if let (true, Some(at)) = (desc.name.starts_with(prefix), at) {
                series.retain(|(have, _)| have.get(at).is_none_or(|v| v != value));
            }
        }
    }

    /// A copy of one family's series as of now.
    fn copy(&self, at: usize) -> Series {
        match (FAMILIES.get(at), self.scalars.get(at)) {
            (Some(desc), Some(scalar)) if desc.is_scalar() => {
                vec![(Vec::new(), Cell { num: scalar.load(Ordering::Relaxed), ..Cell::default() })]
            }
            _ => self.series.lock().unwrap().get(at).cloned().unwrap_or_default(),
        }
    }

    /// One stored cell, decoded.
    fn reading(&self, at: usize, labels: &[&str]) -> Option<Vec<(Option<&'static str>, f64)>> {
        let (_, cell) = self.copy(at).into_iter().find(|(have, _)| have.as_slice() == labels)?;
        Some(read(FAMILIES.get(at)?.kind, cell))
    }

    /// The stored value of one counter or gauge series, by family name —
    /// how tests read a series without parsing `/metrics`. `None` for an
    /// unknown family, a label set never written, or a summary.
    pub fn value(&self, family: &str, labels: &[&str]) -> Option<f64> {
        match self.reading(FAMILIES.iter().position(|d| d.name == family)?, labels)?.as_slice() {
            [(None, number)] => Some(*number),
            _ => None,
        }
    }

    /// `(p50, p99)` latency in seconds for `endpoint`, if it has samples.
    pub fn latency_quantiles(&self, endpoint: &str) -> Option<(f64, f64)> {
        match self.reading(Family::Latency as usize, &[endpoint])?.as_slice() {
            [(_, p50), (_, p99)] => Some((*p50, *p99)),
            _ => None,
        }
    }

    /// Seconds since construction.
    pub fn uptime_seconds(&self) -> f64 {
        self.started.elapsed().as_secs_f64()
    }

    /// A worker took ownership of a fresh connection.
    pub fn connection_opened(&self) {
        self.shift_connections(1.0);
        self.add(Family::ConnectionsTotal, &[], 1);
    }

    /// A connection ended (cleanly or not); pairs with `connection_opened`.
    pub fn connection_closed(&self) {
        self.shift_connections(-1.0);
    }

    /// The one gauge that moves relatively: open connections, ±1.
    fn shift_connections(&self, delta: f64) {
        if let Some(scalar) = self.scalars.get(Family::ConnectionsActive as usize) {
            let shifted = |bits| Some((f64::from_bits(bits) + delta).to_bits());
            // `shifted` always returns `Some`, so the update cannot fail.
            let _ = scalar.fetch_update(Ordering::Relaxed, Ordering::Relaxed, shifted);
        }
    }

    /// Record one request against `endpoint`.
    pub fn observe_request(&self, endpoint: &str, latency_us: u64, status: u16) {
        let ops = [
            (Family::Requests, Op::Add(1)),
            (Family::RequestErrors, Op::Add(u64::from(status >= 400))),
            (Family::Latency, Op::Observe(latency_us)),
        ];
        self.write(&[endpoint], &ops);
    }

    /// Record one coalesced scoring batch (`jobs` requests, `triples` total).
    pub fn observe_batch(&self, jobs: usize, triples: usize) {
        let ops = [
            (Family::ScoreBatches, Op::Add(1)),
            (Family::ScoreBatchJobs, Op::Add(jobs as u64)),
            (Family::ScoreBatchTriples, Op::Add(triples as u64)),
            (Family::ScoreBatchSize, Op::Observe(jobs as u64)),
        ];
        self.write(&[], &ops);
    }

    /// Record one coalesced top-k batch (`jobs` requests, `queries` total).
    pub fn observe_topk_batch(&self, jobs: usize, queries: usize) {
        self.add(Family::TopkBatches, &[], 1);
        self.add(Family::TopkBatchJobs, &[], jobs as u64);
        self.add(Family::TopkBatchQueries, &[], queries as u64);
    }

    /// Record one applied graph delta's effective writes.
    pub fn observe_ingest(&self, inserted: usize, deleted: usize) {
        self.add(Family::TriplesInserted, &[], inserted as u64);
        self.add(Family::TriplesDeleted, &[], deleted as u64);
    }

    /// Record one gateway request's scatter and merge phase durations.
    pub fn observe_gateway_phases(&self, endpoint: &str, scatter_us: u64, merge_us: u64) {
        let phases = [
            (Family::GatewayScatter, Op::Observe(scatter_us)),
            (Family::GatewayMerge, Op::Observe(merge_us)),
        ];
        self.write(&[endpoint], &phases);
    }

    /// Publish one continuous-evaluation round. The round count goes last,
    /// so a reader that has seen round `n` counted reads round `n`'s (or
    /// newer) values everywhere else.
    pub fn set_monitor_stats(&self, round: &MonitorStatus) {
        let (model, metrics) = (round.model.as_str(), &round.metrics);
        self.set(Family::MonitorMrr, &[model], metrics.mrr);
        for (k, hits) in [("1", metrics.hits1), ("3", metrics.hits3), ("10", metrics.hits10)] {
            self.set(Family::MonitorHitsAtK, &[model, k], hits);
        }
        self.set(Family::MonitorBaselineMrr, &[model], round.baseline_mrr);
        self.set(Family::MonitorDriftAlarm, &[model], f64::from(u8::from(round.drift_alarm)));
        self.set(Family::MonitorEvalAge, &[model], round.last_eval_uptime);
        self.set(Family::MonitorEvals, &[model], round.evals_run as f64);
    }

    /// Render every series in Prometheus text exposition format.
    pub fn render(&self) -> String {
        let mut scrape: Vec<Series> = (0..FAMILIES.len()).map(|at| self.copy(at)).collect();
        // The three values only a scrape knows are set on its copy, so a
        // read never writes shared state and a forced ISA change leaves no
        // stale series behind.
        let now = self.uptime_seconds();
        let gauge = |level: f64| Cell { num: level.to_bits(), ..Cell::default() };
        if let Some(series) = scrape.get_mut(Family::Uptime as usize) {
            *series = vec![(Vec::new(), gauge(now))];
        }
        if let Some(series) = scrape.get_mut(Family::KernelInfo as usize) {
            *series = vec![(vec![kg_models::kernels::active().name().to_string()], gauge(1.0))];
        }
        for (_, cell) in scrape.get_mut(Family::MonitorEvalAge as usize).into_iter().flatten() {
            *cell = gauge((now - f64::from_bits(cell.num)).max(0.0));
        }

        let mut out = String::with_capacity(4096);
        for (desc, mut series) in FAMILIES.iter().zip(scrape).filter(|(_, s)| !s.is_empty()) {
            // By first label value; series that share it (they differ in a
            // second label) keep the order they were first written in.
            series.sort_by(|(a, _), (b, _)| a.first().cmp(&b.first()));
            let kind = match desc.kind {
                Kind::Counter => "counter",
                Kind::Gauge => "gauge",
                Kind::Summary(_) => "summary",
            };
            let name = desc.name;
            let _ = writeln!(out, "# HELP {name} {}\n# TYPE {name} {kind}", desc.help);
            for (values, cell) in series {
                let escaped = |(l, v): (&&str, &String)| format!("{l}=\"{}\"", escape_label(v));
                let labels: Vec<String> = desc.labels.iter().zip(&values).map(escaped).collect();
                for (quantile, number) in read(desc.kind, cell) {
                    let quantile = quantile.map(|q| format!("quantile=\"{q}\""));
                    let labels: Vec<&str> =
                        labels.iter().map(String::as_str).chain(quantile.as_deref()).collect();
                    let _ = match labels.is_empty() {
                        true => writeln!(out, "{name} {number}"),
                        false => writeln!(out, "{name}{{{}}} {number}", labels.join(",")),
                    };
                }
            }
        }
        out
    }
}

/// Escape a Prometheus label value (`\` → `\\`, `"` → `\"`, newline →
/// `\n`). Model names are caller-chosen (and reachable via the admin
/// endpoint), so they must not be able to corrupt the exposition format.
fn escape_label(value: &str) -> String {
    let mut out = String::with_capacity(value.len());
    for c in value.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            _ => out.push(c),
        }
    }
    out
}

/// Nearest-rank percentile over an ascending-sorted slice.
fn percentile(sorted: &[u64], q: f64) -> f64 {
    debug_assert!(!sorted.is_empty());
    let rank = ((sorted.len() as f64 * q).ceil() as usize).clamp(1, sorted.len());
    // PANIC-OK: `rank` is clamped to `1..=sorted.len()` one line up.
    sorted[rank - 1] as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    const REQUESTS: &str = "kg_serve_requests_total";

    #[test]
    fn counts_requests_and_errors() {
        let m = HttpMetrics::new();
        m.observe_request("/score", 100, 200);
        m.observe_request("/score", 200, 500);
        m.observe_request("/eval", 300, 200);
        assert_eq!(m.value(REQUESTS, &["/score"]), Some(2.0));
        assert_eq!(m.value(REQUESTS, &["/eval"]), Some(1.0));
        let text = m.render();
        assert!(text.contains("kg_serve_requests_total{endpoint=\"/score\"} 2"));
        assert!(text.contains("kg_serve_request_errors_total{endpoint=\"/score\"} 1"));
        assert!(text.contains("kg_serve_request_errors_total{endpoint=\"/eval\"} 0"));
    }

    /// Writers that publish out of order cannot move a raised gauge back,
    /// labelled or not.
    #[test]
    fn raise_only_moves_a_gauge_forward() {
        let m = HttpMetrics::new();
        for v in [5.0, 3.0, 7.0, 6.0] {
            m.raise(Family::GraphVersion, &["m"], v);
            m.raise(Family::ReactorFds, &[], v);
        }
        assert_eq!(m.value("kg_serve_graph_version", &["m"]), Some(7.0));
        assert_eq!(m.value("kg_serve_reactor_registered_fds", &[]), Some(7.0));
        // `set` still replaces, e.g. when a model is registered afresh.
        m.set(Family::GraphVersion, &["m"], 0.0);
        assert_eq!(m.value("kg_serve_graph_version", &["m"]), Some(0.0));
    }

    #[test]
    fn quantiles_are_ordered_and_windowed() {
        let m = HttpMetrics::new();
        for us in 1..=1000u64 {
            m.observe_request("/score", us, 200);
        }
        let (p50, p99) = m.latency_quantiles("/score").unwrap();
        assert!(p50 <= p99);
        assert!((p50 - 500e-6).abs() < 50e-6, "p50 {p50}");
        assert!((p99 - 990e-6).abs() < 50e-6, "p99 {p99}");
        // Overflow the window; the reservoir stays bounded.
        for us in 0..(2 * LATENCY_WINDOW as u64) {
            m.observe_request("/score", us, 200);
        }
        assert!(m.latency_quantiles("/score").is_some());
    }

    #[test]
    fn batch_series_render() {
        let m = HttpMetrics::new();
        m.observe_batch(3, 120);
        m.observe_batch(1, 10);
        let text = m.render();
        assert!(text.contains("kg_serve_score_batches_total 2"));
        assert!(text.contains("kg_serve_score_batch_jobs_total 4"));
        assert!(text.contains("kg_serve_score_batch_triples_total 130"));
        assert!(text.contains("kg_serve_score_batch_size{quantile=\"0.5\"}"));
    }

    #[test]
    fn topk_batch_series_render() {
        let m = HttpMetrics::new();
        m.observe_topk_batch(2, 9);
        m.observe_topk_batch(1, 1);
        assert_eq!(m.value("kg_serve_topk_batches_total", &[]), Some(2.0));
        assert_eq!(m.value("kg_serve_topk_batch_jobs_total", &[]), Some(3.0));
        let text = m.render();
        assert!(text.contains("kg_serve_topk_batches_total 2"), "{text}");
        assert!(text.contains("kg_serve_topk_batch_jobs_total 3"), "{text}");
        assert!(text.contains("kg_serve_topk_batch_queries_total 10"), "{text}");
    }

    #[test]
    fn percentile_nearest_rank() {
        assert_eq!(percentile(&[10], 0.5), 10.0);
        assert_eq!(percentile(&[1, 2, 3, 4], 0.5), 2.0);
        assert_eq!(percentile(&[1, 2, 3, 4], 0.99), 4.0);
    }

    /// Label values reach `/metrics` from outside (model names via
    /// `/admin/models`, backend addresses via configuration); every
    /// labelled family renders every label through `escape_label`.
    #[test]
    fn window_gauge_escapes_label_values() {
        const EVIL: &str = "evil\"} 1\nfake_metric{x=\"";
        const ESCAPED: &str = "evil\\\"} 1\\nfake_metric{x=\\\"";
        let m = HttpMetrics::new();
        m.set(Family::GraphVersion, &[EVIL], 7.0);
        m.set(Family::ModelPrecision, &[EVIL, EVIL], 1.0);
        m.set_monitor_stats(&MonitorStatus { model: EVIL.to_string(), ..Default::default() });
        m.add(Family::GatewayBackendErrors, &[EVIL], 1);
        m.observe_request(EVIL, 1, 200);
        m.observe_gateway_phases(EVIL, 1, 1);
        let text = m.render();
        assert!(
            text.contains(&format!("kg_serve_graph_version{{model=\"{ESCAPED}\"}} 7")),
            "label must be escaped, got: {text}"
        );
        assert!(!text.contains("\nfake_metric{"), "no injected series: {text}");
        // (`kernel_info`'s one label is the ISA name, not outside input.)
        let labelled = |d: &&Desc| !d.labels.is_empty() && d.name != "kg_serve_kernel_info";
        for desc in FAMILIES.iter().filter(labelled) {
            let series: Vec<&str> =
                text.lines().filter(|l| l.starts_with(&format!("{}{{", desc.name))).collect();
            assert!(!series.is_empty(), "{} was not driven", desc.name);
            for line in series {
                let escaped = line.matches(ESCAPED).count();
                let expected = if desc.labels == ["model", "precision"] { 2 } else { 1 };
                assert_eq!(escaped, expected, "{line}");
                assert_eq!(line.matches("evil").count(), expected, "raw value leaked: {line}");
            }
        }
    }

    #[test]
    fn connection_series_track_lifecycle() {
        let m = HttpMetrics::new();
        m.connection_opened();
        m.connection_opened();
        m.add(Family::KeepaliveReuses, &[], 3);
        m.add(Family::RejectedConnections, &[], 1);
        m.connection_closed();
        assert_eq!(m.value("kg_serve_connections_active", &[]), Some(1.0));
        assert_eq!(m.value("kg_serve_connections_total", &[]), Some(2.0));
        assert_eq!(m.value("kg_serve_keepalive_reuses_total", &[]), Some(3.0));
        assert_eq!(m.value("kg_serve_rejected_connections_total", &[]), Some(1.0));
        let text = m.render();
        assert!(text.contains("kg_serve_connections_active 1"), "{text}");
        assert!(text.contains("kg_serve_connections_total 2"), "{text}");
        assert!(text.contains("kg_serve_keepalive_reuses_total 3"), "{text}");
        assert!(text.contains("kg_serve_rejected_connections_total 1"), "{text}");
    }

    #[test]
    fn reactor_series_render_gauge_counter_and_summary() {
        let m = HttpMetrics::new();
        assert_eq!(m.value("kg_serve_reactor_registered_fds", &[]), Some(0.0));
        m.set(Family::ReactorFds, &[], 12.0);
        for ready in [0, 4] {
            m.add(Family::ReactorWakeups, &[], 1);
            m.observe(Family::ReactorReadyEvents, &[], ready);
        }
        assert_eq!(m.value("kg_serve_reactor_registered_fds", &[]), Some(12.0));
        assert_eq!(m.value("kg_serve_reactor_wakeups_total", &[]), Some(2.0));
        let text = m.render();
        assert!(text.contains("kg_serve_reactor_registered_fds 12"), "{text}");
        assert!(text.contains("kg_serve_reactor_wakeups_total 2"), "{text}");
        assert!(text.contains("kg_serve_reactor_ready_events{quantile=\"0.5\"}"), "{text}");
        assert!(text.contains("kg_serve_reactor_ready_events{quantile=\"0.99\"}"), "{text}");
    }

    #[test]
    fn unknown_endpoint_has_no_quantiles() {
        let m = HttpMetrics::new();
        assert!(m.latency_quantiles("/nope").is_none());
        assert_eq!(m.value(REQUESTS, &["/nope"]), None);
        assert_eq!(m.value("kg_serve_no_such_family", &[]), None);
    }

    /// Every event method and bare verb the crate uses, with fixed inputs:
    /// two endpoints (one erroring), two models, one monitor round, one
    /// backend error, gateway phases, reactor ticks, both batch kinds,
    /// cache hits and misses, ingest.
    fn drive(m: &HttpMetrics) {
        m.connection_opened();
        m.connection_opened();
        m.connection_closed();
        m.add(Family::KeepaliveReuses, &[], 3);
        m.add(Family::RejectedConnections, &[], 1);
        m.add(Family::ThrottledConnections, &[], 2);
        m.set(Family::ReactorFds, &[], 12.0);
        for ready in [0, 4, 2] {
            m.add(Family::ReactorWakeups, &[], 1);
            m.observe(Family::ReactorReadyEvents, &[], ready);
        }
        m.observe_request("/score", 100, 200);
        m.observe_request("/score", 300, 500);
        m.observe_request("/eval", 2500, 200);
        m.observe_batch(3, 120);
        m.observe_batch(1, 10);
        m.observe_topk_batch(2, 9);
        m.observe_topk_batch(1, 1);
        m.set(Family::GraphVersion, &["transe"], 0.0);
        m.set(Family::GraphVersion, &["complex"], 7.0);
        m.set(Family::ModelPrecision, &["transe", "f32"], 1.0);
        m.set(Family::ModelPrecision, &["complex", "int8"], 1.0);
        m.observe_ingest(5, 2);
        m.add(Family::TopkCacheHits, &[], 4);
        m.add(Family::TopkCacheMisses, &[], 6);
        m.add(Family::EvalCacheHits, &[], 1);
        m.add(Family::EvalCacheMisses, &[], 2);
        let round = kg_eval::RankingMetrics {
            mrr: 0.4375,
            hits1: 0.25,
            hits3: 0.5,
            hits10: 0.75,
            ..Default::default()
        };
        m.set_monitor_stats(&MonitorStatus {
            model: "complex".to_string(),
            evals_run: 3,
            metrics: round,
            baseline_mrr: 0.5,
            drift_alarm: true,
            last_eval_uptime: 1.5,
            ..Default::default()
        });
        m.add(Family::GatewayBackendErrors, &["127.0.0.1:9001"], 1);
        m.observe_gateway_phases("/topk", 1500, 250);
        m.observe_gateway_phases("/score", 700, 40);
    }

    /// Replace what differs run to run (two clock readings) or host to
    /// host (the ISA label; CI also runs this crate under
    /// `KG_KERNEL=scalar`).
    fn mask(text: &str) -> String {
        let mut out = String::new();
        for line in text.lines() {
            let clock = line.starts_with("kg_serve_uptime_seconds ")
                || line.starts_with("kg_serve_monitor_eval_age_seconds{");
            if clock {
                let (series, _) = line.rsplit_once(' ').unwrap();
                out.push_str(series);
                out.push_str(" <masked>");
            } else if let Some((head, tail)) = line.split_once("isa=\"") {
                let (_, rest) = tail.split_once('"').unwrap();
                out.push_str(head);
                out.push_str("isa=\"<masked>\"");
                out.push_str(rest);
            } else {
                out.push_str(line);
            }
            out.push('\n');
        }
        out
    }

    /// `testdata/metrics.golden.txt` is `mask(render())` after these same
    /// inputs, captured from the field-per-series `HttpMetrics` this table
    /// replaced (commit f61e159): `/metrics` is the same bytes, in the same
    /// order.
    #[test]
    fn render_reproduces_the_golden_captured_before_the_table() {
        let m = HttpMetrics::new();
        drive(&m);
        let got = mask(&m.render());
        let want = include_str!("../testdata/metrics.golden.txt");
        for (n, (g, w)) in got.lines().zip(want.lines()).enumerate() {
            assert_eq!(g, w, "line {}", n + 1);
        }
        assert_eq!(got, want, "a line is missing or extra at the end");
    }

    /// The one permitted difference from the old render: a family prints
    /// HELP/TYPE only when it has a series, so an idle server no longer
    /// prints three request-family headers with nothing under them.
    #[test]
    fn help_and_type_are_printed_only_for_families_with_a_series() {
        let text = HttpMetrics::new().render();
        for line in text.lines().filter(|l| l.starts_with("# TYPE ")) {
            let name = line.split(' ').nth(2).unwrap();
            assert!(
                text.lines().any(|l| !l.starts_with('#') && l.starts_with(name)),
                "{name} has a TYPE line but no series"
            );
        }
        assert!(!text.contains(REQUESTS), "{text}");
        assert!(text.contains("kg_serve_connections_total 0"), "unlabelled families start at 0");
    }

    /// Every line of a scrape is a comment or `name[{labels}] number`.
    fn assert_parses(text: &str) {
        for line in text.lines() {
            if line.starts_with("# HELP ") || line.starts_with("# TYPE ") {
                continue;
            }
            let (series, value) = line.rsplit_once(' ').unwrap_or_else(|| panic!("{line}"));
            assert!(value.parse::<f64>().is_ok(), "{line}");
            let name = series.split('{').next().unwrap();
            assert!(FAMILIES.iter().any(|d| d.name == name), "{line}");
            assert_eq!(series.contains('{'), series.ends_with('}'), "{line}");
        }
    }

    #[test]
    fn concurrent_writers_and_a_scraper_lose_nothing() {
        const THREADS: usize = 8;
        const ROUNDS: u64 = 10_000;
        let m = HttpMetrics::new();
        std::thread::scope(|scope| {
            let writers: Vec<_> = (0..THREADS)
                .map(|t| {
                    let m = &m;
                    scope.spawn(move || {
                        let endpoint = if t % 2 == 0 { "/score" } else { "/topk" };
                        for i in 0..ROUNDS {
                            m.observe_request(endpoint, i, if i % 10 == 0 { 500 } else { 200 });
                            m.add(Family::KeepaliveReuses, &[], 1);
                            m.observe(Family::ReactorReadyEvents, &[], i);
                        }
                    })
                })
                .collect();
            // Scrape for as long as anyone writes (and at least once); the
            // scope then joins the writers and re-raises any panic of theirs.
            let mut scrapes = 0;
            while writers.iter().any(|w| !w.is_finished()) || scrapes == 0 {
                assert_parses(&m.render());
                scrapes += 1;
            }
        });
        let per_endpoint = (THREADS as u64 / 2 * ROUNDS) as f64;
        for endpoint in ["/score", "/topk"] {
            assert_eq!(m.value(REQUESTS, &[endpoint]), Some(per_endpoint));
            let errors = m.value("kg_serve_request_errors_total", &[endpoint]);
            assert_eq!(errors, Some(per_endpoint / 10.0));
            assert!(m.latency_quantiles(endpoint).is_some());
        }
        let reuses = m.value("kg_serve_keepalive_reuses_total", &[]);
        assert_eq!(reuses, Some((THREADS as u64 * ROUNDS) as f64));
        assert_parses(&m.render());
    }

    /// The 14 series strings the frozen benchmark reads
    /// (`perf/src/workloads/{mod,gateway_small}.rs`): a rename fails here,
    /// in Tier-1, not in a benchmark run.
    #[test]
    fn every_series_the_benchmark_scrapes_is_present() {
        let m = HttpMetrics::new();
        drive(&m);
        let text = m.render();
        for series in [
            "kg_serve_requests_total{endpoint=",
            "kg_serve_request_errors_total{endpoint=",
            "kg_serve_reactor_wakeups_total ",
            "kg_serve_reactor_ready_events{quantile=\"0.5\"} ",
            "kg_serve_score_batch_jobs_total ",
            "kg_serve_score_batches_total ",
            "kg_serve_topk_batch_jobs_total ",
            "kg_serve_topk_batches_total ",
            "kg_serve_topk_cache_hits_total ",
            "kg_serve_topk_cache_misses_total ",
            "kg_serve_eval_cache_hits_total ",
            "kg_serve_eval_cache_misses_total ",
            "kg_serve_gateway_scatter_seconds{endpoint=\"/topk\",quantile=\"0.5\"} ",
            "kg_serve_gateway_merge_seconds{endpoint=\"/topk\",quantile=\"0.5\"} ",
        ] {
            assert!(text.lines().any(|l| l.starts_with(series)), "{series} missing:\n{text}");
        }
    }

    #[test]
    fn forget_drops_matching_series_of_matching_families_only() {
        let m = HttpMetrics::new();
        drive(&m);
        m.forget("kg_serve_monitor_", "model", "complex");
        let text = m.render();
        assert!(!text.contains("kg_serve_monitor_"), "{text}");
        assert!(text.contains("kg_serve_graph_version{model=\"complex\"} 7"), "{text}");
        m.forget("kg_serve_", "model", "complex");
        let text = m.render();
        assert!(!text.contains("complex"), "{text}");
        assert!(text.contains("kg_serve_graph_version{model=\"transe\"} 0"), "{text}");
        assert!(text.contains("kg_serve_requests_total{endpoint=\"/score\"} 2"), "{text}");
    }

    /// README §`GET /metrics` is written by hand from the table; this keeps
    /// it from silently missing a family.
    #[test]
    fn readme_names_every_family() {
        let readme = include_str!("../../../README.md");
        for desc in FAMILIES {
            assert!(readme.contains(&format!("`{}`", desc.name)), "README lacks {}", desc.name);
        }
    }
}
