//! # kg-datasets
//!
//! Workload substrate: a synthetic *typed* knowledge-graph generator with
//! presets mirroring the seven benchmarks of the paper (FB15k, FB15k-237,
//! YAGO3-10, CoDEx-S/M/L, ogbl-wikikg2), plus TSV loading/saving for real
//! data, train/valid/test splitting, and Table-4 statistics.
//!
//! The generator reproduces the structural properties the paper's results
//! depend on: entities carry types, relations have typed domain/range
//! signatures and cardinality classes, entity popularity and relation
//! frequency are Zipf-distributed, and a small noise rate produces
//! schema-violating triples (the source of the paper's "false easy
//! negatives", Table 2/Table 10).

// Grown, not assumed: kg-lint (KL002/KL003) audits the crates that *do*
// need unsafe; everything else proves it needs none at compile time.
#![forbid(unsafe_code)]

pub mod dataset;
pub mod generator;
pub mod loader;
pub mod presets;
pub mod schema;
pub mod split;
pub mod statistics;
pub mod zipf;

pub use dataset::Dataset;
pub use generator::{generate, SyntheticKgConfig};
pub use presets::{preset, PresetId, Scale};
pub use schema::{Cardinality, KgSchema, RelationSchema};
pub use statistics::DatasetStatistics;
