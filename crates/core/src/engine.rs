//! The deterministic parallel execution engine — re-exported from
//! [`caf_exec`].
//!
//! [`Audit::run`](crate::Audit::run) decomposes into independent
//! per-state work units: each state draws its own sampling plan, runs
//! its own query campaign, and resamples its own failures. The engine
//! runs those units across a scoped worker pool and merges the partial
//! results **in fixed state order**, so the output is byte-identical at
//! any worker count.
//!
//! The implementation lives in the dependency-light `caf-exec` crate so
//! the layers *below* `caf-core` — per-state world generation in
//! `caf-synth`, chunked bootstrap resampling in `caf-stats` — share the
//! same pool and the same determinism contract (see the `caf_exec`
//! crate docs). This module re-exports the whole surface, so audit
//! callers keep importing `crate::engine::{map_units, EngineConfig}`
//! exactly as before the extraction.

pub use caf_exec::{
    map_units, map_units_with, state_seed, CostHint, EngineConfig, Shard, ShardPolicy, StealStats,
    UnitPlan,
};
