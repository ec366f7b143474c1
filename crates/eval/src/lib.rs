//! # kg-eval
//!
//! The paper's evaluation framework:
//!
//! * [`ranker`] — the exact, *filtered* full-ranking protocol (`O(|E|)` per
//!   query) that everything else approximates;
//! * [`sampled`] — rank estimation over per-relation candidate samples
//!   (Random / Static / Probabilistic);
//! * [`metrics`] — MRR, Hits@K, mean rank;
//! * [`estimator`] — MAE / MAPE / Pearson between estimated and true
//!   metrics (Tables 6, 7, 12–15, Figures 3–6);
//! * [`harness`] — the train/evaluate-per-epoch experiment driver;
//! * [`complexity`] — the Table 3 sampling-complexity calculator;
//! * [`report`] — plain-text table formatting shared by the repro binaries.

// Grown, not assumed: kg-lint (KL002/KL003) audits the crates that *do*
// need unsafe; everything else proves it needs none at compile time.
#![forbid(unsafe_code)]

pub mod auc;
pub mod complexity;
pub mod estimator;
pub mod export;
pub mod harness;
pub mod metrics;
pub mod ranker;
pub mod report;
pub mod sampled;
pub mod training;

pub use auc::{evaluate_auc, AucMetrics};
pub use complexity::{sampling_complexity, SamplingComplexity};
pub use estimator::{EstimatorSeries, Metric};
pub use harness::{run_train_eval, EpochRecord, HarnessConfig, TrainEvalRun};
pub use metrics::{RankingMetrics, TieBreak};
pub use ranker::{evaluate_full, EvalResult};
pub use sampled::evaluate_sampled;
pub use training::HardNegativeSampler;
