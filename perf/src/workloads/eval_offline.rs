//! `eval_offline`: the paper's own axis — sampled against full filtered
//! ranking, in-process, no sockets, one thread.
//!
//! One **operation** is one *sweep* over a fixed test slice: for each of
//! random, static, probabilistic — draw candidates with a fresh seed,
//! then `evaluate_sampled`. The tail of every segment runs `evaluate_full`
//! over the same slice back to back, outside the sweep timings.
//! Single-threaded on purpose: a two-thread pass is bimodal on a shared
//! two-core box.

use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

use kgeval::core::sample::seeded_rng;
use kgeval::core::timing::timed;
use kgeval::core::{FilterIndex, Triple};
use kgeval::datasets::loader::{load_dir, save_dir};
use kgeval::datasets::{generate, preset, Dataset, PresetId, Scale};
use kgeval::eval::ranker::queries_of;
use kgeval::eval::{evaluate_full, evaluate_sampled, EvalResult, TieBreak};
use kgeval::models::io::{load_model_from_path, save_model_to_path};
use kgeval::models::{
    build_model, train, KgcModel, ModelKind, ScoringEngine, TrainConfig, TrainableModel,
};
use kgeval::recommend::sampling::{sample_candidates_cached, ProbabilisticCache};
use kgeval::recommend::{
    CandidateSets, Lwd, RelationRecommender, SampledCandidates, SamplingStrategy, ScoreMatrix,
    SeenSets,
};

use super::{
    finish_spans, run_segments, setup_cycles, tail_full_passes, EndToEndValues, Outcome, Plan,
    Reference, RunOpts, Tails, TRACE_PIECE_SHARE, TRACE_ROUNDS,
};
use crate::env;
use crate::inputs::{InputsHash, SplitMix64, WorkDir};
use crate::load::{self, Done, LoopLog};
use crate::probes;
use crate::stats::{self, SegmentStats};
use crate::trace::{self, Recorder};

/// Set-up cycles: a cycle takes under a second here, so six.
const SETUP_CYCLES: usize = 6;

/// Test triples one sweep evaluates. Sized with [`N_S_PERCENT`] so a sweep
/// takes ~16 ms here: at least 100 sweeps fit a 3.3 s segment with room
/// to spare, so every segment has ten samples beyond its p90.
pub const TEST_SLICE: usize = 64;

/// Candidates drawn per column, as a percentage of |E|. The issue asked
/// for 2 %; the contract's time cap shortens the window to 20 s, and at
/// 2 % the three draws alone take 22 ms of a sweep — too few sweeps per
/// segment for the percentiles reported.
pub const N_S_PERCENT: usize = 1;

/// Fixed sample seeds the estimator errors are averaged over, so the
/// errors repeat exactly for a `--seed`.
pub const ERROR_SEEDS: u64 = 8;

/// Stated budget for `eval.mrr_abs_err.static` and `.probabilistic`
/// (also recorded in `BENCHMARK.json`).
pub const MRR_ERROR_BUDGET: f64 = 0.10;

/// Names per strategy, in `SamplingStrategy::ALL` order (random,
/// probabilistic, static): the draw span and its layer row, the
/// evaluation span and its layer row, the two error rows.
struct StrategyNames {
    draw_span: &'static str,
    eval_span: &'static str,
    draw_ms: &'static str,
    pass_ms: &'static str,
    mrr_err: &'static str,
    hits10_err: &'static str,
}

const NAMES: [StrategyNames; 3] = [
    StrategyNames {
        draw_span: "sample_candidates.random",
        eval_span: "evaluate_sampled.random",
        draw_ms: "recommend.sample_candidates_ms.random",
        pass_ms: "eval.sampled.pass_ms.random",
        mrr_err: "eval.mrr_abs_err.random",
        hits10_err: "eval.hits10_abs_err.random",
    },
    StrategyNames {
        draw_span: "sample_candidates.probabilistic",
        eval_span: "evaluate_sampled.probabilistic",
        draw_ms: "recommend.sample_candidates_ms.probabilistic",
        pass_ms: "eval.sampled.pass_ms.probabilistic",
        mrr_err: "eval.mrr_abs_err.probabilistic",
        hits10_err: "eval.hits10_abs_err.probabilistic",
    },
    StrategyNames {
        draw_span: "sample_candidates.static",
        eval_span: "evaluate_sampled.static",
        draw_ms: "recommend.sample_candidates_ms.static",
        pass_ms: "eval.sampled.pass_ms.static",
        mrr_err: "eval.mrr_abs_err.static",
        hits10_err: "eval.hits10_abs_err.static",
    },
];

struct Inputs {
    _dir: WorkDir,
    dataset_dir: PathBuf,
    model_path: PathBuf,
    /// Seed of the reference measurements.
    write_seed: u64,
    generate_s: f64,
    hash: String,
}

/// Generate the dataset, write it, read it back (ids are interned on
/// load, so the model must be trained on what set-up will load), train
/// ComplEx for two epochs, write the snapshot.
fn make_inputs(seed: u64) -> Result<Inputs, String> {
    let dir = WorkDir::create("eval_offline").map_err(|e| format!("work dir: {e}"))?;
    let dataset_dir = dir.join("dataset");
    let model_path = dir.join("model.kgev");
    let mut rng = SplitMix64::new(seed);

    let mut config = preset(PresetId::CodexL, Scale::Paper);
    config.seed = rng.next_u64();
    let (generated, generate_s) = timed(|| generate(&config));
    save_dir(&generated, &dataset_dir).map_err(|e| format!("save dataset: {e}"))?;
    drop(generated);
    let dataset =
        load_dir(&dataset_dir, "eval_offline").map_err(|e| format!("load dataset: {e}"))?;

    let mut model = build_model(
        ModelKind::ComplEx,
        dataset.num_entities(),
        dataset.num_relations(),
        32,
        rng.next_u64(),
    );
    let training = TrainConfig {
        epochs: 2,
        lr: 0.15,
        num_negatives: 4,
        seed: rng.next_u64(),
        ..TrainConfig::default()
    };
    train(model.as_mut(), dataset.train.triples(), &training, None);
    save_model_to_path(model.as_ref(), ModelKind::ComplEx, &model_path)
        .map_err(|e| format!("save model: {e}"))?;

    let mut hash = InputsHash::default();
    for file in ["train.tsv", "valid.tsv", "test.tsv"] {
        hash.file(&dataset_dir.join(file)).map_err(|e| format!("hash {file}: {e}"))?;
    }
    hash.file(&model_path).map_err(|e| format!("hash model: {e}"))?;
    hash.triples(&dataset.test[..TEST_SLICE]);
    let write_seed = rng.next_u64();
    hash.word(write_seed);
    Ok(Inputs { _dir: dir, dataset_dir, model_path, write_seed, generate_s, hash: hash.hex() })
}

/// Everything a sweep needs, as set-up leaves it.
struct Ready {
    dataset: Dataset,
    /// The dataset's filter index, moved out of it so the reference
    /// writes can share it.
    filter: Arc<FilterIndex>,
    model: Box<dyn TrainableModel>,
    matrix: ScoreMatrix,
    sets: CandidateSets,
    cache: ProbabilisticCache,
    slice: Vec<Triple>,
    n_s: usize,
    fit_s: f64,
    static_sets_s: f64,
}

/// One set-up cycle: dataset and snapshot from disk, L-WD fit, static
/// sets, probabilistic index, and a first verified answer.
fn set_up(inputs: &Inputs) -> Result<Ready, String> {
    let mut dataset =
        load_dir(&inputs.dataset_dir, "eval_offline").map_err(|e| format!("load dataset: {e}"))?;
    let model = load_model_from_path(&inputs.model_path).map_err(|e| format!("load model: {e}"))?;
    let (matrix, fit_s) = timed(|| Lwd::untyped().fit(&dataset));
    let (sets, static_sets_s) =
        timed(|| CandidateSets::static_sets(&matrix, &SeenSets::from_store(&dataset.train)));
    let cache = ProbabilisticCache::new(&matrix);
    let slice = dataset.test[..TEST_SLICE].to_vec();
    let n_s = dataset.num_entities() * N_S_PERCENT / 100;
    let filter = Arc::new(std::mem::replace(&mut dataset.filter, FilterIndex::new()));
    let ready =
        Ready { dataset, filter, model, matrix, sets, cache, slice, n_s, fit_s, static_sets_s };
    let first = ready.estimate(SamplingStrategy::Static, 0);
    if first.ranks.len() != 2 * TEST_SLICE || first.ranks.iter().any(|r| r.is_nan() || *r < 1.0) {
        return Err(format!("set-up: first estimate is malformed: {:?}", first.metrics));
    }
    Ok(ready)
}

impl Ready {
    fn draw(&self, strategy: SamplingStrategy, sample_seed: u64) -> SampledCandidates {
        let mut rng = seeded_rng(sample_seed);
        sample_candidates_cached(
            strategy,
            self.dataset.num_entities(),
            self.dataset.num_relations(),
            self.n_s,
            Some(&self.matrix),
            Some(&self.sets),
            Some(&self.cache),
            &mut rng,
        )
    }

    fn evaluate(&self, samples: &SampledCandidates) -> EvalResult {
        evaluate_sampled(
            self.model.as_ref(),
            &self.slice,
            self.filter.as_ref(),
            samples,
            TieBreak::Mean,
            1,
        )
    }

    fn estimate(&self, strategy: SamplingStrategy, sample_seed: u64) -> EvalResult {
        self.evaluate(&self.draw(strategy, sample_seed))
    }

    fn full(&self) -> EvalResult {
        evaluate_full(self.model.as_ref(), &self.slice, self.filter.as_ref(), TieBreak::Mean, 1)
    }

    /// One operation. `spans`, when tracing, receives a `sweep` span with
    /// one child per call into `kg_recommend` and `kg_eval`.
    fn sweep(&self, index: u64, spans: Option<&mut Recorder>) -> Done {
        let start = Instant::now();
        let mut marks = [start; 7];
        for (i, strategy) in SamplingStrategy::ALL.into_iter().enumerate() {
            let samples = self.draw(strategy, sweep_seed(index, i));
            marks[2 * i + 1] = Instant::now();
            std::hint::black_box(self.evaluate(&samples));
            marks[2 * i + 2] = Instant::now();
        }
        let end = marks[6];
        if let Some(rec) = spans {
            let root = rec.record("sweep", None, index, start, end);
            for i in 0..3 {
                rec.record(NAMES[i].draw_span, Some(root), index, marks[2 * i], marks[2 * i + 1]);
                rec.record(
                    NAMES[i].eval_span,
                    Some(root),
                    index,
                    marks[2 * i + 1],
                    marks[2 * i + 2],
                );
            }
        }
        Done { start, end, class: 0, ok: true }
    }
}

/// A fresh candidate seed for every draw of every sweep.
fn sweep_seed(index: u64, strategy: usize) -> u64 {
    (index << 2 | strategy as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ 0x5EED
}

/// `(truth, per-strategy abs errors)` for MRR and Hits@10, averaged over
/// the fixed sample seeds.
struct EstimatorErrors {
    truth_mrr: f64,
    mrr: [f64; 3],
    hits10: [f64; 3],
}

fn estimator_errors(ready: &Ready) -> EstimatorErrors {
    let truth = ready.full().metrics;
    let mut out = EstimatorErrors { truth_mrr: truth.mrr, mrr: [0.0; 3], hits10: [0.0; 3] };
    for (i, strategy) in SamplingStrategy::ALL.into_iter().enumerate() {
        let (mut mrr, mut hits10) = (0.0, 0.0);
        for seed in 0..ERROR_SEEDS {
            let m = ready.estimate(strategy, 0xE44 + seed).metrics;
            mrr += m.mrr;
            hits10 += m.hits10;
        }
        out.mrr[i] = (mrr / ERROR_SEEDS as f64 - truth.mrr).abs();
        out.hits10[i] = (hits10 / ERROR_SEEDS as f64 - truth.hits10).abs();
    }
    out
}

/// Correctness, after the window: repeated passes with one seed are
/// bit-identical, and the guided estimators beat random and the budget.
fn verify(
    ready: &Ready,
    errors: &EstimatorErrors,
    sweeps: u64,
    sabotage: bool,
    outcome: &mut Outcome,
) {
    for strategy in SamplingStrategy::ALL {
        let mut first = ready.estimate(strategy, 0xB17).ranks;
        let second = ready.estimate(strategy, 0xB17).ranks;
        if sabotage {
            first[0] += 1.0;
        }
        if first.iter().map(|r| r.to_bits()).ne(second.iter().map(|r| r.to_bits())) {
            outcome.fail(sweeps, format!("{}: two passes with one seed differ", strategy.name()));
        }
    }
    let [random, probabilistic, fixed] = errors.mrr;
    for (name, err) in [("static", fixed), ("probabilistic", probabilistic)] {
        if err.is_nan() || err >= random {
            outcome.fail(
                sweeps,
                format!("mrr_abs_err.{name} {err:.4} is not below .random {random:.4}"),
            );
        }
        if err.is_nan() || err >= MRR_ERROR_BUDGET {
            outcome.fail(
                sweeps,
                format!("mrr_abs_err.{name} {err:.4} exceeds the budget {MRR_ERROR_BUDGET}"),
            );
        }
    }
}

fn record_errors(outcome: &mut Outcome, errors: &EstimatorErrors) {
    outcome.layers.insert("eval.truth_mrr", errors.truth_mrr);
    for (i, names) in NAMES.iter().enumerate() {
        outcome.layers.insert(names.mrr_err, errors.mrr[i]);
        outcome.layers.insert(names.hits10_err, errors.hits10[i]);
    }
}

/// Run the workload.
pub fn run(opts: &RunOpts) -> Result<Outcome, String> {
    let plan = Plan::new(opts.seconds);
    let mut outcome = Outcome::default();
    outcome.lap("start");
    let inputs = make_inputs(opts.seed)?;
    outcome.lap("inputs");
    outcome.fact("inputs_hash", &inputs.hash);

    let (ready, setup_s) = setup_cycles(opts.trace, SETUP_CYCLES, || set_up(&inputs), drop)?;
    outcome.lap("setup");
    outcome.fact(
        "dataset",
        format!(
            "codex-l-shaped: |E|={} |R|={} train={} filter={}",
            ready.dataset.num_entities(),
            ready.dataset.num_relations(),
            ready.dataset.train.len(),
            ready.filter.len()
        ),
    );
    outcome.fact("model", "ComplEx dim 32, 2 epochs, scoring threads=1");
    outcome.fact(
        "operation",
        format!("sweep over {TEST_SLICE} test triples x 3 strategies, n_s={}", ready.n_s),
    );
    outcome.fact("mrr_error_budget", MRR_ERROR_BUDGET);

    if opts.trace {
        return traced(opts, plan, &inputs, &ready, outcome);
    }

    let mut reference = Reference::new(inputs.write_seed);
    let mut tails = Tails::default();
    let (window, env) = env::around_window(|| {
        run_segments(
            plan,
            |i| ready.sweep(i, None),
            |until| {
                tails.write_ms.push(reference.writes()?);
                tails.full_tps.push(tail_full_passes(
                    ready.model.as_ref(),
                    ready.filter.as_ref(),
                    &ready.slice,
                    until,
                ));
                Ok(())
            },
        )
    });
    let window = window?;
    let peak_rss_mb = env::peak_rss_mb();
    outcome.lap("window");
    outcome.env(&env);
    outcome.attempted = window.log.attempted;

    let errors = estimator_errors(&ready);
    verify(&ready, &errors, window.log.attempted, opts.sabotage, &mut outcome);
    record_errors(&mut outcome, &errors);

    outcome.segments(&window.segments, &tails);
    let over = |f: fn(&SegmentStats) -> f64| stats::median_over_segments(&window.segments, f);
    outcome.layers.insert("load.samples", window.log.samples.len() as f64);
    outcome.layers.insert("load.latency_p90_ms", over(|s| s.p90_ms));
    outcome.layers.insert("load.latency_p99_ms", over(|s| s.p99_ms));
    outcome.end_to_end = Some(EndToEndValues {
        setup_s,
        peak_rss_mb,
        // A sweep evaluates the slice once per strategy.
        throughput_rps: over(SegmentStats::rate) * (3 * TEST_SLICE) as f64,
        latency_p50_ms: over(|s| s.p50_ms),
        full_eval_tps: stats::median(&tails.full_tps),
        write_latency_p50_ms: stats::median(&tails.write_ms),
    });
    outcome.lap("checks");
    Ok(outcome)
}

/// The traced run: an untraced and a traced window of the same length in
/// one process (their throughput difference is the tracing overhead),
/// the span-derived rows, the probes, and the replay of one sweep.
fn traced(
    opts: &RunOpts,
    plan: Plan,
    inputs: &Inputs,
    ready: &Ready,
    mut outcome: Outcome,
) -> Result<Outcome, String> {
    let piece = plan.window.mul_f64(TRACE_PIECE_SHARE);
    let mut recorder = Recorder::new(Instant::now(), 1 << 16);
    let (mut untraced, mut log) = (LoopLog::default(), LoopLog::default());
    let ((), env) = env::around_window(|| {
        for round in 0..TRACE_ROUNDS {
            let warmup = if round == 0 { plan.warmup } else { Duration::ZERO };
            untraced.merge(load::closed_loop(Instant::now() + warmup, piece, log.issued, |i| {
                ready.sweep(i, None)
            }));
            log.merge(load::closed_loop(Instant::now(), piece, untraced.issued, |i| {
                ready.sweep(i, Some(&mut recorder))
            }));
            // A tail's worth of full passes, recorded.
            for _ in 0..5 {
                let start = Instant::now();
                std::hint::black_box(ready.full());
                recorder.record("evaluate_full", None, log.issued, start, Instant::now());
            }
        }
    });
    outcome.env(&env);
    outcome.attempted = log.attempted;
    let spans = recorder.spans();
    finish_spans(&mut outcome, "eval_offline", spans)?;

    let layers = &mut outcome.layers;
    // Sweeps run back to back: a window's rate is its count over the sum
    // of their latencies.
    let rate = |l: &LoopLog| {
        l.samples.len() as f64 / l.samples.iter().map(|s| s.latency_ms).sum::<f64>().max(1e-9)
    };
    layers.insert("trace.overhead_frac", (rate(&untraced) - rate(&log)) / rate(&untraced));
    layers.insert("load.samples", log.samples.len() as f64);
    let mut sorted: Vec<f64> = log.samples.iter().map(|s| s.latency_ms).collect();
    sorted.sort_by(f64::total_cmp);
    if sorted.is_empty() {
        return Err("the traced windows completed no sweep".into());
    }
    layers.insert("load.latency_p90_ms", stats::percentile_sorted(&sorted, 90.0));
    layers.insert("load.latency_p99_ms", stats::percentile_sorted(&sorted, 99.0));

    // Span-derived rows.
    let full_ms = trace::median_duration_ms(spans, "evaluate_full");
    layers.insert("eval.full.pass_ms", full_ms);
    let (mut draw_total, mut eval_total) = (0.0, 0.0);
    let (mut speedup_draw, mut speedup_eval) = (0.0, 0.0);
    for names in &NAMES {
        let draw = trace::median_duration_ms(spans, names.draw_span);
        let pass = trace::median_duration_ms(spans, names.eval_span);
        layers.insert(names.draw_ms, draw);
        layers.insert(names.pass_ms, pass);
        draw_total += draw;
        eval_total += pass;
        speedup_draw += full_ms / (draw + pass) / 3.0;
        speedup_eval += full_ms / pass / 3.0;
    }
    layers.insert("eval.sampled_speedup_x.with_draw", speedup_draw);
    layers.insert("eval.sampled_speedup_x.eval_only", speedup_eval);

    // Replay of one sweep at the engine boundary: score the same
    // candidate lists through ScoringEngine::score_candidates.
    let shared: Arc<dyn KgcModel> = Arc::from(
        load_model_from_path(&inputs.model_path).map_err(|e| format!("load model: {e}"))?
            as Box<dyn KgcModel>,
    );
    let engine = ScoringEngine::new(shared, 0);
    let queries = queries_of(&ready.slice);
    let samples: Vec<SampledCandidates> =
        SamplingStrategy::ALL.into_iter().map(|s| ready.draw(s, 0x4E9)).collect();
    let mut scores = vec![0.0f32; ready.n_s];
    let mut candidates = 0usize;
    let engine_s = probes::median_secs(|| {
        candidates = 0;
        for s in &samples {
            for &(triple, side) in &queries {
                let ids = s.for_query(triple.relation, side);
                engine.score_candidates(triple, side, ids, &mut scores[..ids.len()]);
                candidates += ids.len();
            }
        }
        std::hint::black_box(&scores);
    });
    layers.insert(
        "models.engine.score_candidates_ns_per_cand",
        engine_s * 1e9 / candidates.max(1) as f64,
    );
    layers.insert("trace.self_ms.recommend", draw_total);
    layers.insert("trace.self_ms.engine", engine_s * 1e3);
    layers.insert("trace.self_ms.eval", (eval_total - engine_s * 1e3).max(0.0));
    let traced_p50 = stats::percentile_sorted(&sorted, 50.0);
    super::trace_consistency(&mut outcome, draw_total + eval_total, traced_p50);

    // Probes.
    let layers = &mut outcome.layers;
    layers.insert("datasets.generate_s", inputs.generate_s);
    layers.insert("recommend.fit_s", ready.fit_s);
    layers.insert("recommend.static_sets_s", ready.static_sets_s);
    layers.insert("core.parallel.team_spawn_us", probes::team_spawn_us());
    let mut base = Vec::with_capacity(ready.filter.len());
    ready.filter.for_each_triple(|t| base.push(t));
    layers.insert("core.filter.build_s", probes::filter_build_s(&base));
    layers.insert(
        "models.snapshot.load_s",
        probes::median_secs(|| {
            std::hint::black_box(load_model_from_path(&inputs.model_path).expect("snapshot loads"));
        }),
    );
    layers.insert(
        "models.engine.rank_counts_ms",
        probes::rank_counts_ms(&engine, &ready.filter, &ready.slice),
    );
    // ComplEx stores real and imaginary halves: 2 x 32 floats per row.
    probes::kernel_probes(layers, ready.dataset.num_entities(), 2 * 32);

    let errors = estimator_errors(ready);
    verify(ready, &errors, log.attempted, opts.sabotage, &mut outcome);
    record_errors(&mut outcome, &errors);
    Ok(outcome)
}
