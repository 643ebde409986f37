//! The engine's one executor: a seeded-lane work-stealing pool over a
//! [`UnitPlan`], behind [`map_units`] and [`map_units_with`].
//!
//! The plan has already dealt its shards into one lane per worker
//! ([`UnitPlan::lanes`]): greedy LPT onto the least-loaded lane, so the
//! starting schedule is exactly the one its makespan estimate
//! simulated. Each worker seeds a local deque from its lane, then:
//!
//! 1. pops work from the **front** of its own deque (LPT order within
//!    the lane: big shards first);
//! 2. once its deque is empty, steals from the **tail** of the
//!    most-loaded other deque (largest estimated remaining cost, ties to
//!    the lowest lane index) — the victim's cheapest queued shard, which
//!    keeps the owner's expensive front work undisturbed.
//!
//! Stealing is what makes approximate cost hints cheap: BQT campaign
//! tasks have lognormal per-attempt latency with heavy per-ISP tails,
//! so without it a worker can finish its share of the estimated cost
//! early and sit idle at the merge barrier while another drags a
//! mis-estimated queue. With `steal: false` ([`map_units_with`]) step 2
//! is skipped and an idle worker exits instead: every shard runs on the
//! lane the deal gave it (pinned lanes, a fixed worker assignment).
//!
//! # Determinism
//!
//! The steal schedule is timing-dependent and therefore *not*
//! reproducible — but it only decides *where* a shard runs, never what
//! it computes or where its result lands. Shards are pure functions of
//! their `(unit, range)` inputs (the engine's unit-isolation property),
//! and results travel through one `(shard index, result)` channel into
//! positional slots, grouped per unit in ascending element order.
//! Output is therefore byte-identical to the serial loop at every
//! worker count, with or without stealing, and under every steal
//! interleaving. The matrix in `crates/tests/tests/campaign_scheduler.rs`
//! pins this end-to-end.
//!
//! Steal activity is surfaced as telemetry only: the
//! `caf.exec.steals` counter and the per-run [`StealStats`].

use crate::plan::{Shard, UnitPlan};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One worker's local queue: shard indices in lane-LPT order plus the
/// estimated cost still enqueued (the victim-selection signal; it lags
/// the queue by design and only shapes wall-clock time).
struct Lane {
    queue: Mutex<VecDeque<usize>>,
    remaining: AtomicU64,
}

impl Lane {
    fn new(lane: &[usize], shards: &[Shard]) -> Lane {
        let remaining = lane
            .iter()
            .fold(0u64, |acc, &i| acc.saturating_add(shards[i].est_cost));
        Lane {
            queue: Mutex::new(lane.iter().copied().collect()),
            remaining: AtomicU64::new(remaining),
        }
    }

    /// Owner pop: front of the deque (the lane's biggest queued shard).
    fn pop_own(&self, shards: &[Shard]) -> Option<usize> {
        let popped = self.queue.lock().expect("lane lock").pop_front();
        if let Some(i) = popped {
            self.debit(shards[i].est_cost);
        }
        popped
    }

    /// Thief pop: tail of the deque (the lane's cheapest queued shard).
    fn pop_stolen(&self, shards: &[Shard]) -> Option<usize> {
        let popped = self.queue.lock().expect("lane lock").pop_back();
        if let Some(i) = popped {
            self.debit(shards[i].est_cost);
        }
        popped
    }

    fn debit(&self, cost: u64) {
        let mut current = self.remaining.load(Ordering::Relaxed);
        loop {
            let next = current.saturating_sub(cost);
            match self.remaining.compare_exchange_weak(
                current,
                next,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => break,
                Err(seen) => current = seen,
            }
        }
    }
}

/// Scheduling telemetry from one [`map_units_with`] run.
/// Timing-dependent by nature (see the module docs) — report it, never
/// branch on it in result-producing code.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StealStats {
    /// Shards executed by a worker other than the lane they were dealt
    /// to (always 0 on pinned lanes).
    pub steals: u64,
    /// Shards executed per worker lane.
    pub executed: Vec<u64>,
}

fn elapsed_ns(start: Instant) -> u64 {
    u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Applies `f` to every [`Shard`] of a [`UnitPlan`] on a pool of scoped
/// threads, one per plan lane, with work stealing, and returns the
/// results **grouped per unit**, shards in ascending element order —
/// byte-for-byte the output of the sequential unit-by-unit loop at any
/// worker count, shard policy or steal schedule. The caller
/// concatenates each unit's shard results to reconstruct the whole-unit
/// value (`result[unit].len() == 1` whenever the unit was not split).
///
/// A plan with one lane (one worker, or at most one shard) runs as the
/// plain sequential loop on the calling thread.
///
/// Telemetry: the `engine.map_units` span; `caf.exec.shards` and
/// `caf.exec.plan.est_makespan_us` describe the plan; per-shard timings
/// land in `caf.exec.unit_us`, their skew in `caf.exec.unit_skew_pct`,
/// steals in `caf.exec.steals`, the run's wall time in
/// `caf.exec.map_units_wall_us` and each pooled worker's time in
/// `caf.exec.worker.<i>.{busy_us,wall_us}`.
///
/// # Panics
///
/// Propagates panics from `f` (the scope joins all workers first).
pub fn map_units<R, F>(plan: &UnitPlan, f: F) -> Vec<Vec<R>>
where
    R: Send,
    F: Fn(&Shard) -> R + Sync,
{
    map_units_with(plan, true, f).0
}

/// [`map_units`] with stealing switchable and the run's [`StealStats`]
/// returned alongside the results. `steal: false` pins every shard to
/// the lane the plan dealt it to: an idle worker exits instead of
/// stealing. Output is identical either way; only wall-clock time and
/// the stats differ.
///
/// # Panics
///
/// Propagates panics from `f` (the scope joins all workers first).
pub fn map_units_with<R, F>(plan: &UnitPlan, steal: bool, f: F) -> (Vec<Vec<R>>, StealStats)
where
    R: Send,
    F: Fn(&Shard) -> R + Sync,
{
    // Telemetry is observation-only: timings feed gauges and histograms,
    // never scheduling, so results stay byte-identical with it on or off.
    let telemetry = caf_obs::enabled();
    let _span = caf_obs::span("engine.map_units");
    let wall_start = telemetry.then(Instant::now);
    if telemetry {
        caf_obs::gauge("caf.exec.shards", plan.shard_count() as u64);
        caf_obs::gauge("caf.exec.plan.est_makespan_us", plan.est_makespan());
    }
    let shards = plan.shards();
    let n = shards.len();
    let unit_ns: Vec<AtomicU64> = if telemetry {
        (0..n).map(|_| AtomicU64::new(0)).collect()
    } else {
        Vec::new()
    };
    // Runs one shard; returns its result and run time (0 untimed).
    let run_task = |i: usize| -> (R, u64) {
        let start = telemetry.then(Instant::now);
        let result = f(&shards[i]);
        let nanos = start.map_or(0, elapsed_ns);
        if telemetry {
            unit_ns[i].store(nanos, Ordering::Relaxed);
            caf_obs::observe("caf.exec.unit_us", nanos / 1_000);
        }
        (result, nanos)
    };

    let (flat, stats) = if plan.lanes().len() <= 1 {
        // One lane: the serial loop in ascending shard order.
        let flat: Vec<R> = (0..n).map(|i| run_task(i).0).collect();
        (
            flat,
            StealStats {
                steals: 0,
                executed: vec![n as u64],
            },
        )
    } else {
        let lanes: Vec<Lane> = plan
            .lanes()
            .iter()
            .map(|lane| Lane::new(lane, shards))
            .collect();
        let steals = AtomicU64::new(0);
        let executed: Vec<AtomicU64> = (0..lanes.len()).map(|_| AtomicU64::new(0)).collect();
        let (sender, receiver) = std::sync::mpsc::channel::<(usize, R)>();
        // Trace-context handoff: if the dispatching thread is serving a
        // traced request, each pool worker re-enters the same context so
        // shard spans attach to the originating request. Observation-only
        // — the trace never influences scheduling or results.
        let trace = caf_obs::trace::current();
        std::thread::scope(|scope| {
            for worker in 0..lanes.len() {
                let sender = sender.clone();
                let run_task = &run_task;
                let lanes = &lanes;
                let steals = &steals;
                let executed = &executed;
                let trace = trace.clone();
                scope.spawn(move || {
                    let _trace = trace.as_ref().map(|ctx| ctx.enter());
                    let worker_start = telemetry.then(Instant::now);
                    let mut busy_ns: u64 = 0;
                    loop {
                        // Own queue first; otherwise (when stealing) scan
                        // victims in descending estimated-remaining order
                        // (ties to the lowest lane index) and take their
                        // tail.
                        let next = lanes[worker].pop_own(shards).or_else(|| {
                            if !steal {
                                return None;
                            }
                            let mut victims: Vec<usize> =
                                (0..lanes.len()).filter(|&l| l != worker).collect();
                            // Other workers move `remaining` while we
                            // sort, so read each key once: a comparator
                            // over live atomics is not a total order
                            // (std's sort may panic on one).
                            victims.sort_by_cached_key(|&l| {
                                (
                                    std::cmp::Reverse(lanes[l].remaining.load(Ordering::Relaxed)),
                                    l,
                                )
                            });
                            victims.into_iter().find_map(|l| {
                                let stolen = lanes[l].pop_stolen(shards);
                                if stolen.is_some() {
                                    steals.fetch_add(1, Ordering::Relaxed);
                                }
                                stolen
                            })
                        });
                        // Every queue this worker may take from was empty
                        // under its lock and shards are never re-enqueued,
                        // so its share of the pool is drained.
                        let Some(i) = next else { break };
                        let (result, nanos) = run_task(i);
                        busy_ns = busy_ns.saturating_add(nanos);
                        executed[worker].fetch_add(1, Ordering::Relaxed);
                        sender
                            .send((i, result))
                            .expect("result receiver outlives the scope");
                    }
                    if let Some(worker_start) = worker_start {
                        caf_obs::gauge(
                            &format!("caf.exec.worker.{worker}.busy_us"),
                            busy_ns / 1_000,
                        );
                        caf_obs::gauge(
                            &format!("caf.exec.worker.{worker}.wall_us"),
                            elapsed_ns(worker_start) / 1_000,
                        );
                    }
                });
            }
        });
        drop(sender);
        let mut slots: Vec<Option<R>> = (0..n).map(|_| None).collect();
        // All workers have joined, so the channel holds exactly one
        // result per shard and iteration ends at disconnect.
        for (i, result) in receiver {
            slots[i] = Some(result);
        }
        let flat = slots
            .into_iter()
            .map(|slot| slot.expect("every shard produces a result"))
            .collect();
        (
            flat,
            StealStats {
                steals: steals.into_inner(),
                executed: executed.into_iter().map(AtomicU64::into_inner).collect(),
            },
        )
    };

    if let Some(wall_start) = wall_start {
        caf_obs::count("caf.exec.steals", stats.steals);
        caf_obs::gauge("caf.exec.map_units_wall_us", elapsed_ns(wall_start) / 1_000);
        // Shard skew: how much slower the slowest shard ran than the
        // fastest, as a percentage of the slowest. High skew flags a
        // shard that dominates the merge barrier; sharding exists to
        // push this down.
        let slowest = unit_ns.iter().map(|d| d.load(Ordering::Relaxed)).max();
        let fastest = unit_ns.iter().map(|d| d.load(Ordering::Relaxed)).min();
        if let (Some(max), Some(min)) = (slowest, fastest) {
            let spread = u128::from(max.saturating_sub(min)) * 100;
            if let Some(skew) = spread.checked_div(u128::from(max)) {
                caf_obs::gauge("caf.exec.unit_skew_pct", skew as u64);
            }
        }
    }

    let mut flat = flat.into_iter();
    let grouped = plan
        .unit_ranges()
        .iter()
        .map(|range| flat.by_ref().take(range.len()).collect())
        .collect();
    (grouped, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::{CostHint, ShardPolicy};

    fn hints() -> Vec<CostHint> {
        vec![
            CostHint::PerElement((0..40).map(|i| (i * 13 % 17) + 1).collect()),
            CostHint::Uniform {
                cost: 300,
                elements: 12,
            },
            CostHint::opaque(25),
        ]
    }

    #[test]
    fn stealing_output_matches_static_path_everywhere() {
        // The static path is the pinned-lane schedule: both it and the
        // stealing pool must reproduce the plain serial loop.
        let hints = hints();
        let body = |s: &Shard| -> usize { s.range.clone().map(|e| e * 31 + s.unit * 1_000).sum() };
        let merged = |grouped: Vec<Vec<usize>>| -> Vec<usize> {
            grouped
                .into_iter()
                .map(|shards| shards.into_iter().sum())
                .collect()
        };
        let expected: Vec<usize> = hints
            .iter()
            .enumerate()
            .map(|(unit, hint)| {
                body(&Shard {
                    unit,
                    range: 0..hint.elements(),
                    est_cost: hint.total(),
                })
            })
            .collect();
        for workers in [1usize, 2, 3, 4, 16] {
            for policy in [
                ShardPolicy::disabled(),
                ShardPolicy::default_policy(),
                ShardPolicy::finest(),
            ] {
                let plan = UnitPlan::build(workers, &hints, policy);
                let (pinned, pinned_stats) = map_units_with(&plan, false, body);
                let (stealing, stats) = map_units_with(&plan, true, body);
                let context = format!("workers {workers} policy {policy:?}");
                assert_eq!(merged(pinned), expected, "{context}");
                assert_eq!(merged(stealing), expected, "{context}");
                // Pinned lanes run exactly the shards the plan dealt.
                assert_eq!(pinned_stats.steals, 0, "{context}");
                let dealt: Vec<u64> = plan.lanes().iter().map(|l| l.len() as u64).collect();
                assert_eq!(pinned_stats.executed, dealt, "{context}");
                assert_eq!(
                    stats.executed.iter().sum::<u64>(),
                    plan.shard_count() as u64
                );
            }
        }
    }

    #[test]
    fn idle_worker_steals_from_the_loaded_lane() {
        // Four opaque shards, costs 100/99/98/1: the greedy deal puts
        // {100, 1} on lane 0 and {99, 98} on lane 1. Lane 0's front
        // shard sleeps long; with stealing, lane 1 finishes its cheap
        // pair and must steal lane 0's queued tail shard well before the
        // owner wakes. Pinned, lane 1 exits and lane 0 runs both.
        let hints = vec![
            CostHint::opaque(100),
            CostHint::opaque(99),
            CostHint::opaque(98),
            CostHint::opaque(1),
        ];
        let plan = UnitPlan::build(2, &hints, ShardPolicy::disabled());
        assert_eq!(plan.lanes(), &[vec![0, 3], vec![1, 2]]);
        for steal in [true, false] {
            let (results, stats) = map_units_with(&plan, steal, |s| {
                let millis = if s.unit == 0 { 400 } else { 2 };
                std::thread::sleep(std::time::Duration::from_millis(millis));
                s.unit * 10
            });
            assert_eq!(results, vec![vec![0], vec![10], vec![20], vec![30]]);
            assert_eq!(stats.executed.iter().sum::<u64>(), 4);
            if steal {
                assert!(stats.steals >= 1, "lane 1 should have stolen shard 3");
            } else {
                assert_eq!(stats.steals, 0);
                assert_eq!(stats.executed, vec![2, 2]);
            }
        }
    }
}
