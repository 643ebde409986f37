//! # caf-exec — the deterministic parallel execution engine
//!
//! A scoped worker pool with a byte-identical-output determinism
//! contract, shared by every layer that fans independent work units out
//! across threads: per-state world generation (`caf-synth`), bootstrap
//! replicate chunks (`caf-stats`), and the per-state audit
//! (`caf-core::audit`). The crate sits *below* the synth and stats
//! layers in the dependency graph — only `caf-geo` (the leaf vocabulary
//! crate), `caf-snap` (for its FNV-1a hash) and `caf-obs` (the
//! zero-dependency telemetry layer), all std-only — which is exactly
//! what lets the cold paths beneath `caf-core` use the same pool the
//! audit does. It also owns the workspace's one random stream
//! ([`rng::Stream`]) and the seeded-case property runner
//! ([`check::check`]). `caf_core::engine` re-exports everything here,
//! so audit-level callers are unaffected by the extraction.
//!
//! There is one executor. Callers describe their units with cost hints
//! and build a [`UnitPlan`], which splits heavy-tailed units into
//! *shards* (one giant state would otherwise dominate the merge
//! barrier) and deals the shards into one lane per worker — see the
//! [`plan`] module for the splitting/LPT policy. [`map_units`] then
//! runs the plan on a pool of per-worker deques seeded from those
//! lanes, idle workers stealing from the tail of the most-loaded lane,
//! which absorbs cost hints that are only approximate (BQT campaign
//! latencies). [`map_units_with`] can pin every shard to its dealt
//! lane instead. See the [`steal`] module for the victim policy and
//! why output stays byte-identical at any schedule.
//!
//! # The determinism contract
//!
//! Parallelism may change wall-clock time only, never results. Three
//! properties uphold the contract, and the regression tests in
//! `crates/tests/tests/determinism.rs` and
//! `crates/tests/tests/parallel_cold_paths.rs` pin it end-to-end:
//!
//! 1. **Entity-keyed randomness.** Every stochastic decision inside a
//!    unit is keyed by the entity it concerns — sampling draws by
//!    `(seed, CBG, ISP)`, query outcomes by `(seed, address, ISP)`,
//!    bootstrap draws by `(seed, replicate index)` — so a unit's (and
//!    therefore a shard's) output is a pure function of its inputs,
//!    independent of scheduling. The key mixers live in [`rng`].
//! 2. **Unit isolation.** Units share only immutable inputs. Nothing a
//!    unit computes feeds another unit. Shards additionally cover
//!    *contiguous, disjoint* element ranges of their unit.
//! 3. **Ordered merge.** The executor returns results positionally —
//!    grouped per unit with shards in ascending element order — so
//!    concatenating partials reproduces the sequential loop's output
//!    exactly.
//!
//! Engine-level stochastic decisions (none exist today; e.g. a future
//! per-unit retry jitter) must derive their stream from [`state_seed`],
//! never from a shared counter or thread id — that would re-introduce
//! schedule dependence and break property 1.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod check;
pub mod plan;
pub mod rng;
pub mod steal;

pub use check::check;
pub use plan::{CostHint, Shard, ShardPolicy, UnitPlan};
pub use steal::{map_units, map_units_with, StealStats};

use caf_geo::UsState;
use rng::{mix, mix_str};

/// How the engine schedules independent work units.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EngineConfig {
    /// Worker threads for work units. `1` runs the plain sequential
    /// loop on the caller's thread.
    pub workers: usize,
    /// When (and how finely) cost-hinted units are split into shards by
    /// [`EngineConfig::plan`]. Purely a wall-clock knob: results are
    /// byte-identical under every policy. Constructors set
    /// [`ShardPolicy::default_policy`].
    pub shard: ShardPolicy,
}

impl EngineConfig {
    /// Sequential execution on the calling thread.
    pub fn serial() -> EngineConfig {
        EngineConfig {
            workers: 1,
            shard: ShardPolicy::default_policy(),
        }
    }

    /// One worker per available core. The count is *not* capped here:
    /// the run-time clamp lives in [`EngineConfig::for_plan`] and the
    /// plan's lane deal, which know the actual number of shards (a fixed
    /// cap of 8 starved wide machines on large unit sets and
    /// oversubscribed small ones).
    pub fn auto() -> EngineConfig {
        EngineConfig {
            workers: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(4),
            shard: ShardPolicy::default_policy(),
        }
    }

    /// A fixed worker count (clamped to at least 1).
    pub fn with_workers(workers: usize) -> EngineConfig {
        EngineConfig {
            workers: workers.max(1),
            shard: ShardPolicy::default_policy(),
        }
    }

    /// Replaces the shard policy (the bit-identity tests route through
    /// this).
    pub fn with_shard_policy(self, shard: ShardPolicy) -> EngineConfig {
        EngineConfig { shard, ..self }
    }

    /// Whether units run on a worker pool rather than inline.
    pub fn is_parallel(self) -> bool {
        self.workers > 1
    }

    /// Builds a shard plan for cost-hinted units under this engine's
    /// worker budget and shard policy.
    pub fn plan(self, hints: &[CostHint]) -> UnitPlan {
        UnitPlan::build(self.workers, hints, self.shard)
    }

    /// Builds a [`UnitPlan`] covering only the given element runs of
    /// each unit (see [`UnitPlan::build_subset`]) — the incremental
    /// recompute path, where most elements are retained and only dirty
    /// runs re-execute.
    pub fn plan_subset(self, hints: &[CostHint], runs: &[Vec<std::ops::Range<usize>>]) -> UnitPlan {
        UnitPlan::build_subset(self.workers, hints, self.shard, runs)
    }

    /// Clamps the worker count to a plan's shard count (at least 1) —
    /// workers beyond it would only idle. The audit reports both the
    /// configured and this effective count through the telemetry
    /// registry.
    pub fn for_plan(self, plan: &UnitPlan) -> EngineConfig {
        EngineConfig {
            workers: self.workers.min(plan.shard_count().max(1)),
            ..self
        }
    }

    /// The worker budget for one of `ways` concurrent engine-driven
    /// computations sharing this configuration — the sizing rule for
    /// *persistent* pools (a serving layer keeps the process-wide
    /// budget fixed while N scenario computations run at once, so each
    /// gets `ceil(workers / ways)` instead of multiplying the machine
    /// by the in-flight count). Rounds up for the same reason as
    /// [`nested_campaign_workers`](EngineConfig::nested_campaign_workers):
    /// starving a computation to zero threads wastes wall-clock that
    /// the budget owner is already paying for. Like every worker knob,
    /// this only moves wall-clock time — results are byte-identical at
    /// any share.
    pub fn share(self, ways: usize) -> EngineConfig {
        EngineConfig {
            workers: self.workers.div_ceil(ways.max(1)).max(1),
            ..self
        }
    }

    /// The worker budget for a campaign nested *inside* a work unit:
    /// the configured count when the engine is serial, otherwise a
    /// split so `engine workers × campaign workers` stays near the
    /// configured total instead of multiplying. The split rounds *up* —
    /// rounding down starved the nested campaign to a single thread
    /// whenever the engine worker count slightly exceeded the
    /// configured budget (e.g. 4 configured across 3 engine workers
    /// gave each unit 1 campaign worker while engine threads
    /// idle-waited on I/O-shaped query latencies). Campaign results are
    /// worker-count independent, so this only shapes wall-clock time.
    pub fn nested_campaign_workers(self, configured: usize) -> usize {
        if self.is_parallel() {
            configured.div_ceil(self.workers).max(1)
        } else {
            configured.max(1)
        }
    }
}

impl Default for EngineConfig {
    fn default() -> EngineConfig {
        EngineConfig::auto()
    }
}

/// Derives the seed of one state's work unit from the run seed — the
/// engine's `(config.seed, state)` keying, using the state's FIPS code
/// so the value is stable across enum reorderings.
///
/// Existing pipeline streams (sampling, queries) are *already* keyed by
/// entities that embed the state, so they do not reroute through this;
/// it exists for engine-level decisions (see the crate docs) and as the
/// label under which unit-scoped diagnostics are reported.
pub fn state_seed(seed: u64, state: UsState) -> u64 {
    mix(
        mix_str(seed, "engine-state"),
        u64::from(state.fips().code()),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One opaque shard per unit: the plan for `units` even tasks.
    fn even_plan(workers: usize, units: usize) -> UnitPlan {
        UnitPlan::build(
            workers,
            &vec![CostHint::opaque(1); units],
            ShardPolicy::disabled(),
        )
    }

    #[test]
    fn map_units_runs_on_multiple_threads() {
        use std::collections::HashSet;
        use std::sync::Mutex;
        let seen: Mutex<HashSet<std::thread::ThreadId>> = Mutex::new(HashSet::new());
        map_units(&even_plan(4, 64), |_| {
            seen.lock().unwrap().insert(std::thread::current().id());
            std::thread::sleep(std::time::Duration::from_millis(1));
        });
        assert!(
            seen.lock().unwrap().len() > 1,
            "expected parallel execution"
        );
    }

    #[test]
    fn trace_context_propagates_to_pool_workers() {
        // A traced request dispatching into the pool hands its context
        // to every worker; spans they open then attach to the request.
        let id = caf_obs::TraceId::derive(0xCAF_2024, 42);
        let ctx = caf_obs::TraceCtx::new(id);
        let _guard = ctx.enter();
        let seen = map_units(&even_plan(4, 64), |_| {
            std::thread::sleep(std::time::Duration::from_millis(1));
            caf_obs::trace::current().map(|c| c.id())
        });
        assert!(seen.iter().flatten().all(|got| *got == Some(id)));
    }

    #[test]
    fn pooled_map_units_publishes_skew_and_worker_gauges() {
        let gauge = |name: &str| {
            caf_obs::registry()
                .metrics_snapshot()
                .gauges
                .into_iter()
                .find(|(n, _)| n == name)
                .map(|(_, v)| v)
        };
        caf_obs::set_enabled(true);
        let results = map_units(&even_plan(2, 4), |shard| {
            std::thread::sleep(std::time::Duration::from_millis(2));
            shard.unit
        });
        caf_obs::set_enabled(false);
        assert_eq!(results, vec![vec![0], vec![1], vec![2], vec![3]]);
        assert!(gauge("caf.exec.unit_skew_pct").is_some_and(|pct| pct <= 100));
        for worker in 0..2 {
            let name = format!("caf.exec.worker.{worker}.busy_us");
            assert!(gauge(&name).is_some(), "{name} not published");
        }
    }

    #[test]
    fn map_units_reassembles_shards_positionally() {
        // Three units of different sizes; the middle one dominates.
        // Expected output: for each unit, its elements doubled — shard
        // boundaries must be invisible after reassembly.
        let units: Vec<Vec<u64>> = vec![
            (0..5).collect(),
            (100..180).collect(),
            (1_000..1_010).collect(),
        ];
        let hints: Vec<CostHint> = units
            .iter()
            .map(|u| CostHint::Uniform {
                cost: u.len() as u64,
                elements: u.len(),
            })
            .collect();
        let expected: Vec<Vec<u64>> = units
            .iter()
            .map(|u| u.iter().map(|&x| x * 2).collect())
            .collect();
        for workers in [1usize, 2, 3, 4, 16, 128] {
            for policy in [
                ShardPolicy::disabled(),
                ShardPolicy::default_policy(),
                ShardPolicy::finest(),
            ] {
                let plan = UnitPlan::build(workers, &hints, policy);
                let grouped = map_units(&plan, |shard| {
                    units[shard.unit][shard.range.clone()]
                        .iter()
                        .map(|&x| x * 2)
                        .collect::<Vec<u64>>()
                });
                assert_eq!(grouped.len(), units.len());
                let merged: Vec<Vec<u64>> = grouped
                    .into_iter()
                    .map(|shards| shards.into_iter().flatten().collect())
                    .collect();
                assert_eq!(merged, expected, "workers = {workers}, policy = {policy:?}");
            }
        }
        let empty: Vec<Vec<u64>> = map_units(&even_plan(4, 0), |_| 0);
        assert!(empty.is_empty());
    }

    #[test]
    fn map_units_shards_the_giant_unit() {
        let hints = vec![
            CostHint::Uniform {
                cost: 900,
                elements: 900,
            },
            CostHint::Uniform {
                cost: 30,
                elements: 30,
            },
        ];
        let plan = UnitPlan::build(4, &hints, ShardPolicy::default_policy());
        assert!(plan.is_sharded());
        let grouped = map_units(&plan, |shard| shard.range.len());
        assert!(grouped[0].len() > 1, "giant unit ran as multiple shards");
        assert_eq!(grouped[0].iter().sum::<usize>(), 900);
        assert_eq!(grouped[1].iter().sum::<usize>(), 30);
    }

    #[test]
    fn state_seed_is_stable_and_state_sensitive() {
        let a = state_seed(0xCAF_2024, UsState::Alabama);
        assert_eq!(a, state_seed(0xCAF_2024, UsState::Alabama));
        let mut seeds: Vec<u64> = UsState::study_states()
            .iter()
            .map(|&s| state_seed(0xCAF_2024, s))
            .collect();
        seeds.sort_unstable();
        seeds.dedup();
        assert_eq!(seeds.len(), UsState::study_states().len(), "no collisions");
        assert_ne!(a, state_seed(0xCAF_2025, UsState::Alabama));
    }

    #[test]
    fn engine_config_constructors() {
        assert_eq!(EngineConfig::serial().workers, 1);
        assert!(!EngineConfig::serial().is_parallel());
        assert_eq!(EngineConfig::with_workers(0).workers, 1);
        assert_eq!(EngineConfig::with_workers(6).workers, 6);
        assert!(EngineConfig::with_workers(6).is_parallel());
        assert!(EngineConfig::auto().workers >= 1);
        assert_eq!(EngineConfig::default(), EngineConfig::auto());
        let custom = EngineConfig::serial().with_shard_policy(ShardPolicy::finest());
        assert_eq!(custom.shard, ShardPolicy::finest());
        assert_eq!(custom.workers, 1);
    }

    #[test]
    fn for_plan_clamps_workers_to_the_shard_count() {
        let hints = vec![CostHint::opaque(10), CostHint::opaque(10)];
        let plan = UnitPlan::build(16, &hints, ShardPolicy::disabled());
        assert_eq!(EngineConfig::with_workers(16).for_plan(&plan).workers, 2);
        assert_eq!(
            EngineConfig::with_workers(2)
                .for_plan(&even_plan(2, 15))
                .workers,
            2
        );
        assert_eq!(
            EngineConfig::with_workers(8)
                .for_plan(&even_plan(8, 0))
                .workers,
            1
        );
        assert_eq!(
            EngineConfig::serial().for_plan(&even_plan(1, 100)).workers,
            1
        );
    }

    #[test]
    fn share_splits_a_persistent_pool_budget() {
        assert_eq!(EngineConfig::with_workers(8).share(1).workers, 8);
        assert_eq!(EngineConfig::with_workers(8).share(2).workers, 4);
        assert_eq!(EngineConfig::with_workers(8).share(3).workers, 3);
        assert_eq!(EngineConfig::with_workers(2).share(16).workers, 1);
        assert_eq!(EngineConfig::serial().share(0).workers, 1);
        // The shard policy rides along unchanged.
        let shared = EngineConfig::with_workers(8)
            .with_shard_policy(ShardPolicy::finest())
            .share(2);
        assert_eq!(shared.shard, ShardPolicy::finest());
    }

    #[test]
    fn nested_campaign_workers_split_the_budget() {
        assert_eq!(EngineConfig::serial().nested_campaign_workers(8), 8);
        assert_eq!(EngineConfig::with_workers(4).nested_campaign_workers(8), 2);
        assert_eq!(EngineConfig::with_workers(8).nested_campaign_workers(4), 1);
        assert_eq!(EngineConfig::serial().nested_campaign_workers(0), 1);
        // The split rounds up: 4 configured across 3 engine workers
        // keeps 2 campaign threads per unit instead of starving the
        // nested campaign down to 1 while engine workers idle-wait.
        assert_eq!(EngineConfig::with_workers(3).nested_campaign_workers(4), 2);
        assert_eq!(EngineConfig::with_workers(5).nested_campaign_workers(4), 1);
    }
}
