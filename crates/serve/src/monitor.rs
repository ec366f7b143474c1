//! Continuous evaluation: a per-model background thread that re-runs the
//! sampled filtered-ranking evaluation over a sliding window of held-out
//! triples whenever the live graph changes (and, optionally, on a timer),
//! publishing the results as Prometheus gauges and raising a drift alarm
//! when MRR falls more than a configured threshold below the first
//! (baseline) round.
//!
//! The monitor reuses the exact serving-path machinery — the entry's
//! seeded sample cache and [`kg_eval::evaluate_sampled`] over a
//! [`kg_core::LiveFilterIndex`] snapshot — so the numbers it publishes are
//! the numbers `/eval` would return for the same window and knobs: no
//! parallel "monitoring estimator" that can quietly diverge from the
//! serving estimator.
//!
//! Lifecycle: [`crate::ModelRegistry::start_monitor`] spawns the thread and
//! keeps the [`Monitor`] in a registry-side map; the thread holds only a
//! `Weak` back-reference, so dropping the registry (or
//! [`crate::ModelRegistry::stop_monitor`]) terminates it. Deltas applied
//! through `POST /triples` reach the monitor via
//! `ModelRegistry::notify_delta`, which slides the held-out window
//! (inserted triples join it, deleted triples leave it) and wakes the
//! thread.

use std::collections::HashSet;
use std::sync::{Arc, Condvar, Mutex, Weak};
use std::thread;
use std::time::Duration;

use kg_core::{GraphDelta, Triple};
use kg_eval::{evaluate_sampled, RankingMetrics, TieBreak};
use kg_recommend::SamplingStrategy;

use crate::registry::{ModelRegistry, SampleKey};

/// Tuning for one model's continuous-evaluation loop.
#[derive(Clone, Debug)]
pub struct MonitorConfig {
    /// Initial held-out window (typically the validation split). Inserted
    /// triples not already held are appended, then deleted triples
    /// removed, and the window is truncated from the *front* (oldest
    /// first) at `capacity`.
    pub window: Vec<Triple>,
    /// Maximum held-out triples kept (minimum 1).
    pub capacity: usize,
    /// Re-evaluate at least this often even without graph changes; `None`
    /// evaluates only on version change (plus the startup baseline round).
    pub interval: Option<Duration>,
    /// Candidate sampling strategy for the sampled evaluation.
    pub strategy: SamplingStrategy,
    /// Per-column sample size.
    pub n_s: usize,
    /// RNG seed for the candidate draw (fixed seed → run-to-run
    /// comparable numbers; the entry's sample cache makes repeats free).
    pub seed: u64,
    /// Tie-breaking rule.
    pub tie: TieBreak,
    /// Raise the drift alarm when `baseline_mrr - mrr` exceeds this.
    pub drift_threshold: f64,
}

impl Default for MonitorConfig {
    fn default() -> Self {
        MonitorConfig {
            window: Vec::new(),
            capacity: 1024,
            interval: None,
            strategy: SamplingStrategy::Random,
            n_s: 100,
            seed: 0,
            tie: TieBreak::Mean,
            drift_threshold: 0.05,
        }
    }
}

/// A point-in-time snapshot of one monitor, as served by `GET /monitor`
/// and published to `/metrics` after every round.
#[derive(Clone, Debug, Default)]
pub struct MonitorStatus {
    /// Registry name of the monitored model.
    pub model: String,
    /// Held-out triples currently in the sliding window.
    pub window_len: usize,
    /// Evaluation rounds completed since the monitor started.
    pub evals_run: u64,
    /// Graph version the latest round was computed against.
    pub graph_version: u64,
    /// Latest round's ranking metrics (zeros until the first round).
    pub metrics: RankingMetrics,
    /// MRR of the first (baseline) round.
    pub baseline_mrr: f64,
    /// Whether `baseline_mrr - mrr > drift_threshold` at the latest round.
    pub drift_alarm: bool,
    /// Server uptime (seconds) when the latest round finished; the
    /// `eval_age_seconds` gauge is current uptime minus this.
    pub last_eval_uptime: f64,
}

struct MonitorState {
    window: Vec<Triple>,
    pending: bool,
    stop: bool,
    evals_run: u64,
    graph_version: u64,
    metrics: RankingMetrics,
    baseline_mrr: Option<f64>,
    drift_alarm: bool,
    last_eval_uptime: f64,
}

struct MonitorShared {
    registry: Weak<ModelRegistry>,
    model: String,
    config: MonitorConfig,
    state: Mutex<MonitorState>,
    cond: Condvar,
}

/// Handle to one model's continuous-evaluation thread.
pub struct Monitor {
    shared: Arc<MonitorShared>,
    thread: Option<thread::JoinHandle<()>>,
}

impl Monitor {
    /// Spawn the evaluation thread. The first round runs immediately and
    /// establishes the drift baseline.
    pub(crate) fn spawn(
        registry: Weak<ModelRegistry>,
        model: String,
        config: MonitorConfig,
    ) -> Self {
        let window = config.window.clone();
        let shared = Arc::new(MonitorShared {
            registry,
            model,
            config,
            state: Mutex::new(MonitorState {
                window,
                pending: true, // baseline round
                stop: false,
                evals_run: 0,
                graph_version: 0,
                metrics: RankingMetrics::default(),
                baseline_mrr: None,
                drift_alarm: false,
                last_eval_uptime: 0.0,
            }),
            cond: Condvar::new(),
        });
        let worker = Arc::clone(&shared);
        let thread = thread::Builder::new()
            .name(format!("kg-monitor-{}", shared.model))
            .spawn(move || Monitor::run(&worker))
            // PANIC-OK: spawn fails only when the OS is out of threads at
            // model-registration time — startup configuration, not a
            // request path.
            .expect("spawn monitor thread");
        Monitor { shared, thread: Some(thread) }
    }

    fn run(shared: &Arc<MonitorShared>) {
        loop {
            let mut state = shared.state.lock().unwrap();
            loop {
                if state.stop {
                    return;
                }
                if state.pending {
                    state.pending = false;
                    break;
                }
                state = match shared.config.interval {
                    Some(interval) => {
                        // PANIC-OK: condvar wait errs only on mutex
                        // poisoning — a panic already in flight elsewhere.
                        let (guard, timeout) = shared.cond.wait_timeout(state, interval).unwrap();
                        if timeout.timed_out() {
                            let mut guard = guard;
                            if guard.stop {
                                return;
                            }
                            guard.pending = false;
                            drop(guard);
                            // Timer tick: evaluate even without a delta.
                            Monitor::evaluate(shared);
                            shared.state.lock().unwrap()
                        } else {
                            guard
                        }
                    }
                    // PANIC-OK: condvar wait errs only on mutex poisoning.
                    None => shared.cond.wait(state).unwrap(),
                };
            }
            drop(state);
            Monitor::evaluate(shared);
        }
    }

    /// One evaluation round: snapshot the live graph, rank the window with
    /// the serving-path estimator, update state, and publish gauges.
    fn evaluate(shared: &Arc<MonitorShared>) {
        let Some(registry) = shared.registry.upgrade() else { return };
        let Some(entry) = registry.get(&shared.model) else { return };
        let window: Vec<Triple> = shared.state.lock().unwrap().window.clone();
        let snapshot = entry.live().snapshot();
        let version = snapshot.version();
        let key = SampleKey {
            strategy: shared.config.strategy,
            n_s: shared.config.n_s,
            seed: shared.config.seed,
        };
        let Ok((samples, _)) = entry.samples_for(&key) else { return };
        let result = evaluate_sampled(
            entry.model().as_ref(),
            &window,
            snapshot.as_ref(),
            &samples,
            shared.config.tie,
            entry.threads(),
        );
        let uptime = registry.metrics().uptime_seconds();

        // State update and gauge publication are deliberately unnested:
        // set_monitor_stats takes the metrics families' locks, and holding
        // monitor.state across it would create an undeclared lock-order
        // edge (KL009) against on_delta's state-only path.
        let round = {
            let mut state = shared.state.lock().unwrap();
            state.evals_run += 1;
            state.graph_version = version;
            state.metrics = result.metrics;
            let baseline = *state.baseline_mrr.get_or_insert(result.metrics.mrr);
            state.drift_alarm = baseline - result.metrics.mrr > shared.config.drift_threshold;
            state.last_eval_uptime = uptime;
            shared.status(&state)
        };
        registry.metrics().set_monitor_stats(&round);
    }

    /// Slide the held-out window past a just-applied delta and schedule an
    /// evaluation round: inserted triples become held-out queries, deleted
    /// triples stop being evaluated, and the window drops its oldest
    /// entries beyond capacity.
    pub fn on_delta(&self, delta: &GraphDelta) {
        let mut state = self.shared.state.lock().unwrap();
        slide(&mut state.window, delta, self.shared.config.capacity.max(1));
        state.pending = true;
        drop(state);
        self.shared.cond.notify_all();
    }

    /// Schedule an evaluation round without a graph change (tests, admin).
    pub fn poke(&self) {
        self.shared.state.lock().unwrap().pending = true;
        self.shared.cond.notify_all();
    }

    /// Evaluation rounds completed so far.
    pub fn evals_run(&self) -> u64 {
        self.shared.state.lock().unwrap().evals_run
    }

    /// Current status snapshot.
    pub fn status(&self) -> MonitorStatus {
        self.shared.status(&self.shared.state.lock().unwrap())
    }
}

/// Slide `window` past `delta` in the graph's own order — inserts first
/// (each triple held once), then deletes — and keep its newest `capacity`
/// triples: O(window + delta).
fn slide(window: &mut Vec<Triple>, delta: &GraphDelta, capacity: usize) {
    if !delta.insert.is_empty() {
        let mut held: HashSet<Triple> = window.iter().copied().collect();
        window.extend(delta.insert.iter().copied().filter(|&t| held.insert(t)));
    }
    if !delta.delete.is_empty() {
        let gone: HashSet<Triple> = delta.delete.iter().copied().collect();
        window.retain(|t| !gone.contains(t));
    }
    if window.len() > capacity {
        let overflow = window.len() - capacity;
        window.drain(..overflow);
    }
}

impl MonitorShared {
    fn status(&self, state: &MonitorState) -> MonitorStatus {
        MonitorStatus {
            model: self.model.clone(),
            window_len: state.window.len(),
            evals_run: state.evals_run,
            graph_version: state.graph_version,
            metrics: state.metrics,
            baseline_mrr: state.baseline_mrr.unwrap_or(0.0),
            drift_alarm: state.drift_alarm,
            last_eval_uptime: state.last_eval_uptime,
        }
    }
}

impl Drop for Monitor {
    fn drop(&mut self) {
        self.shared.state.lock().unwrap().stop = true;
        self.shared.cond.notify_all();
        if let Some(handle) = self.thread.take() {
            let _ = handle.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(h: u32, r: u32, tail: u32) -> Triple {
        Triple::new(h, r, tail)
    }

    #[test]
    fn a_triple_inserted_and_deleted_in_one_delta_leaves_the_window() {
        let mut window = vec![t(0, 0, 1)];
        slide(&mut window, &GraphDelta::new(vec![t(2, 0, 3)], vec![t(2, 0, 3)]), 8);
        assert_eq!(window, [t(0, 0, 1)]);
    }

    #[test]
    fn a_reinserted_triple_is_held_once() {
        let mut window = vec![t(0, 0, 1), t(1, 0, 2)];
        let delta = GraphDelta::new(vec![t(0, 0, 1), t(4, 0, 5), t(4, 0, 5)], vec![]);
        slide(&mut window, &delta, 8);
        assert_eq!(window, [t(0, 0, 1), t(1, 0, 2), t(4, 0, 5)]);
    }
}
