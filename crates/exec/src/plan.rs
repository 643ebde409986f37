//! Cost-aware shard planning: the scheduling layer behind
//! [`map_units`](crate::map_units).
//!
//! The paper's Fig. 1 marginals give CAF deployments a heavy-tailed
//! state distribution, and per-state work units inherit it: one unit
//! (California) can cost ~15× the median, so whole-unit scheduling
//! leaves every other worker idling at the merge barrier while the
//! giant unit finishes (`BENCH_world.json` recorded a 0.62× "speedup"
//! at 4 workers). A [`UnitPlan`] breaks that barrier:
//!
//! 1. Callers describe each unit with a [`CostHint`] — a quantity they
//!    already know that is roughly proportional to the unit's runtime
//!    (certified-address counts for world generation, per-cell sample
//!    sizes for the audit, replicate counts for the bootstrap).
//! 2. [`UnitPlan::build`] deterministically splits any unit whose
//!    estimated cost exceeds [`ShardPolicy::threshold_pct`] percent of
//!    the ideal per-worker share (`total / workers`) into contiguous
//!    element-range [`Shard`]s of roughly that size.
//! 3. The plan deals the shards once, in longest-processing-time (LPT)
//!    order, each onto the currently least-loaded of `workers` lanes
//!    ([`UnitPlan::lanes`]). The executor seeds one deque per worker
//!    from those lanes, so the expensive shards start first; idle
//!    workers then steal the small ones to backfill the stragglers.
//! 4. Results are reassembled positionally (shards of a unit stay in
//!    ascending element order), so output is byte-identical with the
//!    serial unit-by-unit loop at every worker count and every policy —
//!    the plan is a pure function of `(workers, hints, policy)` and
//!    never consults the clock, thread ids, or element values.

use std::cmp::Reverse;
use std::ops::Range;

/// The split target: `threshold_pct`% of the ideal per-worker share.
/// Units (or dirty runs) at or below it stay whole; above it they split
/// into shards of roughly the target size.
fn split_target(total_cost: u128, workers: usize, policy: ShardPolicy) -> u128 {
    if policy.threshold_pct == 0 || total_cost == 0 {
        u128::MAX
    } else {
        (total_cost * u128::from(policy.threshold_pct) / (100 * workers as u128)).max(1)
    }
}

/// How many shards a unit (or run) of the given cost wants under the
/// split target, clamped by the policy's per-unit cap.
fn shard_count(cost: u128, target: u128, policy: ShardPolicy) -> usize {
    let want = if cost > target {
        usize::try_from(cost.div_ceil(target)).unwrap_or(usize::MAX)
    } else {
        1
    };
    want.clamp(1, policy.max_shards_per_unit.max(1))
}

/// Controls when (and how finely) a work unit is split into shards.
///
/// The split threshold is expressed as a percentage of the ideal
/// per-worker share of the total estimated cost: with `threshold_pct =
/// 25` and 4 workers, any unit costing more than 25% of `total / 4` is
/// split into shards of roughly that size. Lower thresholds shard more
/// aggressively; `0` disables sharding (whole units only, the pre-plan
/// behavior). Sharding never changes results — only the wall clock —
/// so the policy is a pure performance knob.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardPolicy {
    /// Split threshold as a percentage of the ideal per-worker cost
    /// share. `0` disables sharding.
    pub threshold_pct: u32,
    /// Upper bound on how many shards one unit may be split into
    /// (guards against pathological hint distributions producing
    /// thousands of micro-shards).
    pub max_shards_per_unit: usize,
}

impl ShardPolicy {
    /// The default policy: split units above 25% of the per-worker
    /// share, at most 64 shards per unit.
    pub fn default_policy() -> ShardPolicy {
        ShardPolicy {
            threshold_pct: 25,
            max_shards_per_unit: 64,
        }
    }

    /// Sharding disabled: every unit is a single shard (the pre-plan
    /// whole-unit scheduling).
    pub fn disabled() -> ShardPolicy {
        ShardPolicy {
            threshold_pct: 0,
            max_shards_per_unit: 1,
        }
    }

    /// The finest useful granularity: shard targets shrink to ~1% of
    /// the per-worker share with no per-unit shard cap, so per-element
    /// hints degenerate to (nearly) one element per shard. Used by the
    /// bit-identity tests to stress reassembly, not for production.
    pub fn finest() -> ShardPolicy {
        ShardPolicy {
            threshold_pct: 1,
            max_shards_per_unit: usize::MAX,
        }
    }
}

impl Default for ShardPolicy {
    fn default() -> ShardPolicy {
        ShardPolicy::default_policy()
    }
}

/// A caller-supplied estimate of one unit's cost, used only for
/// scheduling (shard boundaries and the lane deal) — never for
/// results. Hints need not be accurate; a hint that is merely
/// *proportional* to runtime is enough for LPT to help, and a wrong
/// hint only costs wall-clock time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CostHint {
    /// A unit of `elements` equally-expensive elements costing `cost`
    /// in total. Splits into equal element ranges.
    Uniform {
        /// Total estimated cost of the unit (any consistent scale).
        cost: u64,
        /// How many splittable elements the unit contains.
        elements: usize,
    },
    /// Per-element costs; `len()` is the element count. Splits along
    /// balanced prefix sums so shard costs stay even when elements are
    /// themselves skewed.
    PerElement(Vec<u64>),
}

impl CostHint {
    /// A unit that cannot be split (one opaque element).
    pub fn opaque(cost: u64) -> CostHint {
        CostHint::Uniform { cost, elements: 1 }
    }

    /// Total estimated cost of the unit.
    pub fn total(&self) -> u64 {
        match self {
            CostHint::Uniform { cost, .. } => *cost,
            CostHint::PerElement(costs) => costs.iter().fold(0u64, |acc, &c| acc.saturating_add(c)),
        }
    }

    /// Number of splittable elements in the unit.
    pub fn elements(&self) -> usize {
        match self {
            CostHint::Uniform { elements, .. } => *elements,
            CostHint::PerElement(costs) => costs.len(),
        }
    }

    /// Splits the unit into `k` contiguous element ranges with roughly
    /// equal cost, returning `(range, est_cost)` pairs covering
    /// `0..elements` in order. `k` is clamped to `1..=elements`
    /// (a zero-element unit yields one empty shard so the unit keeps a
    /// positional slot in the reassembled output).
    fn split(&self, k: usize) -> Vec<(Range<usize>, u64)> {
        let n = self.elements();
        if n == 0 {
            return vec![(0..0, self.total())];
        }
        let k = k.clamp(1, n);
        match self {
            CostHint::Uniform { cost, elements } => {
                let base = elements / k;
                let extra = elements % k;
                let mut out = Vec::with_capacity(k);
                let mut start = 0usize;
                for shard in 0..k {
                    let len = base + usize::from(shard < extra);
                    let est = (u128::from(*cost) * len as u128 / *elements as u128) as u64;
                    out.push((start..start + len, est));
                    start += len;
                }
                out
            }
            CostHint::PerElement(costs) => {
                let mut prefix: Vec<u128> = Vec::with_capacity(n + 1);
                prefix.push(0);
                for &c in costs {
                    prefix.push(prefix.last().unwrap() + u128::from(c));
                }
                let total = *prefix.last().unwrap();
                let mut bounds = vec![0usize; k + 1];
                bounds[k] = n;
                for j in 1..k {
                    let target = total * j as u128 / k as u128;
                    let i = prefix.partition_point(|&p| p < target);
                    // Keep boundaries strictly increasing and leave room
                    // for the remaining shards, so every shard is
                    // non-empty.
                    bounds[j] = i.clamp(bounds[j - 1] + 1, n - (k - j));
                }
                (0..k)
                    .map(|j| {
                        let range = bounds[j]..bounds[j + 1];
                        let est = (prefix[range.end] - prefix[range.start]) as u64;
                        (range, est)
                    })
                    .collect()
            }
        }
    }
}

/// One schedulable slice of a unit: a contiguous element range plus the
/// planner's cost estimate for it. Unsharded units appear as a single
/// shard covering `0..elements`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Shard {
    /// Index of the unit this shard belongs to (position in the hint
    /// slice the plan was built from).
    pub unit: usize,
    /// The contiguous element range of the unit this shard covers.
    pub range: Range<usize>,
    /// The planner's cost estimate for this range (scheduling only).
    pub est_cost: u64,
}

/// A deterministic shard schedule over a set of cost-hinted units —
/// built once, then executed by [`map_units`](crate::map_units).
///
/// Shards are stored unit-major (all shards of unit 0, then unit 1, …)
/// with ascending element ranges, which is also the reassembly order.
/// The lanes are a separate deal of those shards onto workers (LPT:
/// heaviest shard first, ties broken by shard index, each onto the
/// least-loaded lane); they affect wall-clock time only.
#[derive(Debug, Clone)]
pub struct UnitPlan {
    workers: usize,
    shards: Vec<Shard>,
    /// Shard-index range per unit (into `shards`).
    unit_ranges: Vec<Range<usize>>,
    /// Shard indices per worker lane, each lane in LPT order.
    lanes: Vec<Vec<usize>>,
    est_makespan: u64,
    total_cost: u64,
}

impl UnitPlan {
    /// Plans a shard schedule for `hints` across `workers` threads
    /// under `policy`. Pure function of its arguments: the same inputs
    /// always produce the same plan.
    pub fn build(workers: usize, hints: &[CostHint], policy: ShardPolicy) -> UnitPlan {
        let workers = workers.max(1);
        let total_cost: u128 = hints.iter().map(|h| u128::from(h.total())).sum();
        let target = split_target(total_cost, workers, policy);
        let mut shards = Vec::with_capacity(hints.len());
        let mut unit_ranges = Vec::with_capacity(hints.len());
        for (unit, hint) in hints.iter().enumerate() {
            let cost = u128::from(hint.total());
            let k = shard_count(cost, target, policy);
            let first = shards.len();
            for (range, est_cost) in hint.split(k) {
                shards.push(Shard {
                    unit,
                    range,
                    est_cost,
                });
            }
            unit_ranges.push(first..shards.len());
        }
        Self::assemble(workers, shards, unit_ranges, total_cost)
    }

    /// Plans a shard schedule covering only the given element `runs` of
    /// each unit — the incremental-recompute path, where a delta batch
    /// invalidates a sparse set of cells and everything else is
    /// retained. `runs[unit]` lists the unit's dirty element ranges
    /// (ascending, disjoint); a unit with no runs contributes no shards
    /// but keeps its positional slot, so
    /// [`map_units`](crate::map_units) returns an empty group for it.
    ///
    /// Shard ranges stay in the unit's *original* element coordinates,
    /// and big runs split exactly like whole units in
    /// [`UnitPlan::build`] — the split target is computed from the dirty
    /// cost only, so a large invalidation still fans out across the
    /// pool. Like `build`, a pure function of its arguments.
    pub fn build_subset(
        workers: usize,
        hints: &[CostHint],
        policy: ShardPolicy,
        runs: &[Vec<Range<usize>>],
    ) -> UnitPlan {
        assert_eq!(
            hints.len(),
            runs.len(),
            "one run list per hinted unit ({} hints, {} run lists)",
            hints.len(),
            runs.len()
        );
        let workers = workers.max(1);
        // Restrict a hint to one run, in run-local coordinates.
        let restrict = |hint: &CostHint, run: &Range<usize>| -> CostHint {
            match hint {
                CostHint::Uniform { cost, elements } => CostHint::Uniform {
                    cost: if *elements == 0 {
                        0
                    } else {
                        (u128::from(*cost) * run.len() as u128 / *elements as u128) as u64
                    },
                    elements: run.len(),
                },
                CostHint::PerElement(costs) => CostHint::PerElement(costs[run.clone()].to_vec()),
            }
        };
        let total_cost: u128 = hints
            .iter()
            .zip(runs)
            .flat_map(|(hint, unit_runs)| {
                unit_runs
                    .iter()
                    .map(|run| u128::from(restrict(hint, run).total()))
            })
            .sum();
        let target = split_target(total_cost, workers, policy);
        let mut shards = Vec::new();
        let mut unit_ranges = Vec::with_capacity(hints.len());
        for (unit, (hint, unit_runs)) in hints.iter().zip(runs).enumerate() {
            let first = shards.len();
            for run in unit_runs {
                debug_assert!(run.end <= hint.elements(), "run outside unit");
                let sub = restrict(hint, run);
                let k = shard_count(u128::from(sub.total()), target, policy);
                for (range, est_cost) in sub.split(k) {
                    shards.push(Shard {
                        unit,
                        range: run.start + range.start..run.start + range.end,
                        est_cost,
                    });
                }
            }
            unit_ranges.push(first..shards.len());
        }
        Self::assemble(workers, shards, unit_ranges, total_cost)
    }

    /// The shared plan tail: the greedy LPT lane deal, its makespan,
    /// construction.
    fn assemble(
        workers: usize,
        shards: Vec<Shard>,
        unit_ranges: Vec<Range<usize>>,
        total_cost: u128,
    ) -> UnitPlan {
        // LPT order: heaviest first, shard index breaks ties (so uniform
        // costs degrade to plain index order).
        let mut order: Vec<usize> = (0..shards.len()).collect();
        order.sort_by_key(|&i| (Reverse(shards[i].est_cost), i));

        // Deal the LPT sequence onto the least-loaded lane (ties to the
        // lowest index). The heaviest lane's load is the estimated
        // post-shard critical path, in cost-hint units.
        let lane_count = workers.min(shards.len()).max(1);
        let mut lanes = vec![Vec::new(); lane_count];
        let mut loads = vec![0u64; lane_count];
        for i in order {
            let lane = (0..lane_count).min_by_key(|&l| loads[l]).unwrap_or(0);
            loads[lane] = loads[lane].saturating_add(shards[i].est_cost);
            lanes[lane].push(i);
        }
        let est_makespan = loads.into_iter().max().unwrap_or(0);

        UnitPlan {
            workers,
            shards,
            unit_ranges,
            lanes,
            est_makespan,
            total_cost: u64::try_from(total_cost).unwrap_or(u64::MAX),
        }
    }

    /// The worker count the plan was built for.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// All shards, unit-major with ascending element ranges (the
    /// reassembly order).
    pub fn shards(&self) -> &[Shard] {
        &self.shards
    }

    /// Number of shards in the plan.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Number of units the plan covers.
    pub fn unit_count(&self) -> usize {
        self.unit_ranges.len()
    }

    /// The shards of one unit, in ascending element order.
    pub fn unit_shards(&self, unit: usize) -> &[Shard] {
        &self.shards[self.unit_ranges[unit].clone()]
    }

    /// Shard-index ranges per unit (into [`UnitPlan::shards`]).
    pub fn unit_ranges(&self) -> &[Range<usize>] {
        &self.unit_ranges
    }

    /// The shard indices dealt to each worker lane (one list per lane,
    /// `min(workers, shards)` lanes, at least one), each in LPT order.
    /// Every shard appears in exactly one lane.
    pub fn lanes(&self) -> &[Vec<usize>] {
        &self.lanes
    }

    /// The heaviest lane's estimated load — the greedy LPT makespan, in
    /// the same units as the cost hints (reported as
    /// `caf.exec.plan.est_makespan_us` — literal microseconds only when
    /// callers hint with measured time).
    pub fn est_makespan(&self) -> u64 {
        self.est_makespan
    }

    /// Sum of all unit cost hints.
    pub fn total_cost(&self) -> u64 {
        self.total_cost
    }

    /// Whether any unit was actually split.
    pub fn is_sharded(&self) -> bool {
        self.shards.len() > self.unit_ranges.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ranges(plan: &UnitPlan, unit: usize) -> Vec<Range<usize>> {
        plan.unit_shards(unit)
            .iter()
            .map(|s| s.range.clone())
            .collect()
    }

    #[test]
    fn disabled_policy_keeps_units_whole() {
        let hints = vec![
            CostHint::Uniform {
                cost: 1_000,
                elements: 50,
            },
            CostHint::opaque(10),
        ];
        let plan = UnitPlan::build(4, &hints, ShardPolicy::disabled());
        assert_eq!(plan.shard_count(), 2);
        assert!(!plan.is_sharded());
        assert_eq!(ranges(&plan, 0), vec![0..50]);
        assert_eq!(ranges(&plan, 1), vec![0..1]);
    }

    #[test]
    fn giant_unit_splits_and_small_units_stay_whole() {
        // One unit holds ~90% of the cost: with 4 workers and the
        // default 25% threshold it must split; the small ones must not.
        let hints = vec![
            CostHint::Uniform {
                cost: 900,
                elements: 90,
            },
            CostHint::Uniform {
                cost: 50,
                elements: 5,
            },
            CostHint::Uniform {
                cost: 50,
                elements: 5,
            },
        ];
        let plan = UnitPlan::build(4, &hints, ShardPolicy::default_policy());
        assert!(plan.unit_shards(0).len() > 1, "giant unit must shard");
        assert_eq!(plan.unit_shards(1).len(), 1);
        assert_eq!(plan.unit_shards(2).len(), 1);
        // Shards of the giant unit tile 0..90 contiguously in order.
        let r = ranges(&plan, 0);
        assert_eq!(r[0].start, 0);
        assert_eq!(r.last().unwrap().end, 90);
        for w in r.windows(2) {
            assert_eq!(w[0].end, w[1].start);
        }
        // Shards of a unit are disjoint from other units' slots only by
        // the unit index, which every shard carries.
        assert!(plan.shards().iter().all(|s| s.unit < 3));
    }

    #[test]
    fn per_element_split_balances_skewed_costs() {
        // 10 cheap elements then one huge one: balanced prefix-sum
        // splitting must isolate the huge element rather than cutting
        // at equal element counts.
        let mut costs = vec![1u64; 10];
        costs.push(1_000);
        let hints = vec![CostHint::PerElement(costs)];
        let plan = UnitPlan::build(
            2,
            &hints,
            ShardPolicy {
                threshold_pct: 50,
                max_shards_per_unit: 4,
            },
        );
        let shards = plan.unit_shards(0);
        assert!(shards.len() > 1);
        let last = shards.last().unwrap();
        assert_eq!(last.range, 10..11, "the huge element gets its own shard");
        // Ranges tile the unit.
        assert_eq!(shards[0].range.start, 0);
        assert_eq!(shards.last().unwrap().range.end, 11);
    }

    #[test]
    fn finest_policy_approaches_one_element_per_shard() {
        let hints = vec![CostHint::PerElement(vec![5; 16])];
        let plan = UnitPlan::build(4, &hints, ShardPolicy::finest());
        assert_eq!(plan.shard_count(), 16, "every element its own shard");
        for (i, s) in plan.unit_shards(0).iter().enumerate() {
            assert_eq!(s.range, i..i + 1);
            assert_eq!(s.est_cost, 5);
        }
    }

    /// The heaviest lane's estimated load.
    fn max_lane_load(plan: &UnitPlan) -> u64 {
        plan.lanes()
            .iter()
            .map(|lane| lane.iter().map(|&i| plan.shards()[i].est_cost).sum())
            .max()
            .unwrap()
    }

    #[test]
    fn dispatch_is_lpt_with_stable_ties() {
        // LPT order 1 (30), 3 (20), 0 (10), 2 (10), each dealt onto the
        // least-loaded lane: 1 → lane 0, 3 → lane 1, 0 → lane 1 (20 <
        // 30), then 2 → lane 0 (the 30/30 tie goes to the lower lane).
        let hints = vec![
            CostHint::opaque(10),
            CostHint::opaque(30),
            CostHint::opaque(10),
            CostHint::opaque(20),
        ];
        let plan = UnitPlan::build(2, &hints, ShardPolicy::disabled());
        assert_eq!(plan.lanes(), &[vec![1, 2], vec![3, 0]]);
        assert_eq!(max_lane_load(&plan), plan.est_makespan());
        // Uniform costs degrade to index order, dealt round-robin.
        let uniform = vec![CostHint::opaque(7); 4];
        let plan = UnitPlan::build(2, &uniform, ShardPolicy::disabled());
        assert_eq!(plan.lanes(), &[vec![0, 2], vec![1, 3]]);
        assert_eq!(max_lane_load(&plan), plan.est_makespan());
    }

    #[test]
    fn lanes_cover_every_shard_once_with_balanced_loads() {
        let hints = vec![
            CostHint::PerElement((0..40).map(|i| (i * 13 % 17) + 1).collect()),
            CostHint::Uniform {
                cost: 300,
                elements: 12,
            },
            CostHint::opaque(25),
        ];
        let plan = UnitPlan::build(3, &hints, ShardPolicy::default_policy());
        assert_eq!(plan.lanes().len(), 3.min(plan.shard_count()));
        let mut seen: Vec<usize> = plan.lanes().iter().flatten().copied().collect();
        seen.sort_unstable();
        assert_eq!(seen, (0..plan.shard_count()).collect::<Vec<_>>());
        assert_eq!(max_lane_load(&plan), plan.est_makespan());
        // More workers than shards: one lane per shard. No shards at
        // all: still one (empty) lane.
        let few = UnitPlan::build(16, &hints, ShardPolicy::disabled());
        assert_eq!(few.lanes(), &[vec![0], vec![1], vec![2]]);
        let none = UnitPlan::build(4, &[], ShardPolicy::default_policy());
        assert_eq!(none.lanes(), &[Vec::<usize>::new()]);
    }

    #[test]
    fn makespan_estimate_tracks_the_critical_path() {
        // Whole units at 2 workers: LPT packs {30} and {20, 10, 10}.
        let hints = vec![
            CostHint::opaque(10),
            CostHint::opaque(30),
            CostHint::opaque(10),
            CostHint::opaque(20),
        ];
        let whole = UnitPlan::build(2, &hints, ShardPolicy::disabled());
        assert_eq!(whole.total_cost(), 70);
        assert_eq!(whole.est_makespan(), 40);
        assert_eq!(max_lane_load(&whole), 40);
        // Sharding the giant unit lowers the estimated makespan toward
        // the ideal total/workers = 35.
        let sharded = UnitPlan::build(
            2,
            &[
                CostHint::Uniform {
                    cost: 10,
                    elements: 2,
                },
                CostHint::Uniform {
                    cost: 30,
                    elements: 6,
                },
                CostHint::Uniform {
                    cost: 10,
                    elements: 2,
                },
                CostHint::Uniform {
                    cost: 20,
                    elements: 4,
                },
            ],
            ShardPolicy::default_policy(),
        );
        assert!(sharded.is_sharded());
        assert_eq!(max_lane_load(&sharded), sharded.est_makespan());
        assert!(
            sharded.est_makespan() < whole.est_makespan(),
            "sharding must improve the estimated critical path: {} vs {}",
            sharded.est_makespan(),
            whole.est_makespan()
        );
    }

    #[test]
    fn zero_element_units_keep_their_positional_slot() {
        let hints = vec![
            CostHint::Uniform {
                cost: 0,
                elements: 0,
            },
            CostHint::opaque(5),
            CostHint::PerElement(Vec::new()),
        ];
        let plan = UnitPlan::build(4, &hints, ShardPolicy::default_policy());
        assert_eq!(plan.unit_count(), 3);
        assert_eq!(plan.shard_count(), 3);
        assert_eq!(ranges(&plan, 0), vec![0..0]);
        assert_eq!(ranges(&plan, 2), vec![0..0]);
    }

    #[test]
    fn plans_are_pure_functions_of_their_inputs() {
        let hints = vec![
            CostHint::PerElement((0..40).map(|i| (i * 13 % 17) + 1).collect()),
            CostHint::Uniform {
                cost: 300,
                elements: 12,
            },
        ];
        let a = UnitPlan::build(4, &hints, ShardPolicy::default_policy());
        let b = UnitPlan::build(4, &hints, ShardPolicy::default_policy());
        assert_eq!(a.shards(), b.shards());
        assert_eq!(a.lanes(), b.lanes());
        assert_eq!(a.est_makespan(), b.est_makespan());
    }

    #[test]
    fn subset_plans_cover_only_dirty_runs() {
        let hints = vec![
            CostHint::PerElement((1..=20).collect()),
            CostHint::PerElement(vec![3; 10]),
        ];
        let runs = vec![vec![2..5, 9..10], Vec::new()];
        let plan = UnitPlan::build_subset(4, &hints, ShardPolicy::disabled(), &runs);
        assert_eq!(plan.unit_count(), 2);
        assert_eq!(plan.shard_count(), 2, "disabled policy: one shard per run");
        assert!(
            plan.unit_shards(1).is_empty(),
            "clean units contribute no shards but keep their slot"
        );
        // Shards tile exactly the dirty runs, ascending, in unit
        // coordinates.
        let covered = ranges(&plan, 0);
        let mut elements: Vec<usize> = Vec::new();
        for r in &covered {
            elements.extend(r.clone());
        }
        assert_eq!(elements, vec![2, 3, 4, 9]);
        // Cost accounting covers only the dirty elements: (3+4+5) + 10.
        assert_eq!(plan.total_cost(), 22);

        // A big dirty run splits like a big unit would.
        let fine = UnitPlan::build_subset(2, &hints, ShardPolicy::finest(), &runs);
        assert!(fine.shard_count() > plan.shard_count());
        let mut fine_elements: Vec<usize> = Vec::new();
        for s in fine.unit_shards(0) {
            fine_elements.extend(s.range.clone());
        }
        assert_eq!(fine_elements, elements, "splitting never changes coverage");

        // Full-coverage runs reproduce the whole-unit plan exactly.
        let full_runs: Vec<Vec<Range<usize>>> = hints
            .iter()
            .map(|h| std::iter::once(0..h.elements()).collect())
            .collect();
        let via_subset =
            UnitPlan::build_subset(4, &hints, ShardPolicy::default_policy(), &full_runs);
        let via_build = UnitPlan::build(4, &hints, ShardPolicy::default_policy());
        assert_eq!(via_subset.shards(), via_build.shards());
        assert_eq!(via_subset.lanes(), via_build.lanes());
    }
}
