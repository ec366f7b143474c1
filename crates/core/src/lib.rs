//! # kg-core
//!
//! Core substrates for the `kgeval` workspace: compact identifiers, an
//! immutable triple store with per-head/tail/relation adjacency, the filter
//! index needed for *filtered* ranking evaluation, a small sparse-matrix
//! kernel (the L-WD recommender is two sparse matrix products), statistics
//! used by the paper's result tables (Pearson, Kendall-τ, MAE/MAPE,
//! hypergeometric expectations from Theorem 1), and sampling primitives
//! (uniform and weighted without replacement).
//!
//! Everything here is deterministic given an RNG seed.

// The only crate (with kg-models) allowed to contain unsafe code, and only behind the
// unsafe-op-in-unsafe-fn discipline: every unsafe operation sits in an
// explicit `unsafe {}` block with its own `// SAFETY:` comment (audited by
// kg-lint KL002 and clippy's undocumented_unsafe_blocks).
#![deny(unsafe_op_in_unsafe_fn)]

pub mod align;
pub mod error;
pub mod fxhash;
pub mod graph;
pub mod ids;
pub mod index;
pub mod live;
pub mod parallel;
pub mod partial;
pub mod sample;
pub mod sparse;
pub mod stats;
pub mod timing;
pub mod topk;
mod trie;
pub mod triple;
pub mod types;
pub mod vocab;

pub use align::AlignedVec;
pub use error::KgError;
pub use graph::TripleStore;
pub use ids::{DrColumn, EntityId, RelationId, TypeId};
pub use index::FilterIndex;
pub use live::{ApplyOutcome, GraphDelta, KnownIndex, LiveFilterIndex, LiveGraph};
pub use triple::Triple;
pub use types::TypeAssignment;
pub use vocab::Vocab;

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, KgError>;
