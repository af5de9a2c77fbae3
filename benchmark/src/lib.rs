//! The repository's benchmark. See `README.md`.

pub mod adapter;
pub mod clock;
pub mod compare;
pub mod gen;
pub mod host;
pub mod json;
pub mod layers;
pub mod probes;
pub mod run;
pub mod spec;
pub mod stats;
pub mod suite;
pub mod trace;

/// Where result and trace files go, relative to the directory the
/// benchmark is run from (the repository root).
pub const OUT_DIR: &str = "benchmark/out";
