//! # kg-models
//!
//! Knowledge-graph-completion models implemented from scratch: TransE,
//! DistMult, ComplEx, RESCAL, RotatE, TuckER and ConvE — the model zoo of
//! the paper's §5.2 — together with Adagrad-based training, uniform
//! corruption negative sampling, and the sharded scoring [`engine`] used
//! by the evaluation framework.
//!
//! All models implement [`KgcModel`] (scoring) and [`TrainableModel`]
//! (grouped gradient steps). A model is a *prepared query* and a table:
//! it builds the query once per `(triple, side)` and scores it against a
//! contiguous range of entity rows (full ranking, `|E|` rows) or a
//! gathered candidate list (sampled evaluation, `n_s` rows) — the only
//! two scorers an implementation writes.

// The only crate (with kg-core) allowed to contain unsafe code, and only behind the
// unsafe-op-in-unsafe-fn discipline: every unsafe operation sits in an
// explicit `unsafe {}` block with its own `// SAFETY:` comment (audited by
// kg-lint KL002 and clippy's undocumented_unsafe_blocks).
#![deny(unsafe_op_in_unsafe_fn)]

pub mod complex;
pub mod conve;
pub mod distmult;
pub mod embedding;
pub mod engine;
pub mod factory;
pub mod io;
pub mod kernels;
pub mod loss;
pub mod model;
pub mod negative;
pub mod quantized;
pub mod rescal;
pub mod rotate;
pub mod trainer;
pub mod transe;
pub mod tucker;

pub use complex::ComplEx;
pub use conve::ConvE;
pub use distmult::DistMult;
pub use embedding::EmbeddingTable;
pub use engine::ScoringEngine;
pub use factory::{build_model, ModelKind};
pub use io::{read_model, save_model};
pub use kernels::{Isa, Precision, QuantizedTable};
pub use model::{KgcModel, TrainableModel};
pub use negative::{NegativeSampler, NegativeSource};
pub use quantized::QuantizedModel;
pub use rescal::Rescal;
pub use rotate::RotatE;
pub use trainer::{train, train_epoch, train_epoch_with_source, EpochCallback, TrainConfig};
pub use transe::TransE;
pub use tucker::TuckEr;
