//! Seeded nonparametric bootstrap.
//!
//! The paper's sensitivity analysis (§9.1, Figure 9) asks how robust the
//! serviceability estimates are to the sampling strategy. Bootstrap
//! confidence intervals give the complementary view: how uncertain an
//! estimate is given the sample actually collected. All resampling is
//! driven by a caller-supplied seed so experiments are reproducible.
//!
//! # Replicate streams and parallelism
//!
//! Each replicate draws from its own RNG stream keyed by
//! `mix(mix_str(seed, "bootstrap"), replicate_index)` — the same
//! entity-keyed philosophy as the synth layer — so replicate `k` draws
//! the same index multiset whether it runs first, last, or on worker 7.
//! That makes the engine-aware variants ([`bootstrap_ci_on`],
//! [`bootstrap_indices_ci_on`]) bit-identical to the serial ones at any
//! worker count: the replicate range is one cost-uniform unit in a
//! [`caf_exec::UnitPlan`], the engine's shard policy splits it into
//! contiguous chunks sized off the worker budget, chunks run on the
//! [`caf_exec::map_units`] pool, and the per-chunk statistic vectors
//! are concatenated in replicate order before the percentile step.

use crate::error::{ensure_sample, StatsError};
use caf_exec::rng::{mix, mix_str, Stream};
use caf_exec::{CostHint, EngineConfig};
use std::ops::Range;
use std::time::Instant;

/// A percentile bootstrap confidence interval.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BootstrapCi {
    /// The statistic computed on the original sample.
    pub point: f64,
    /// Lower confidence bound.
    pub lo: f64,
    /// Upper confidence bound.
    pub hi: f64,
    /// Number of bootstrap replicates used.
    pub replicates: usize,
    /// Confidence level, e.g. `0.95`.
    pub level: f64,
}

impl BootstrapCi {
    /// Width of the interval.
    pub fn width(&self) -> f64 {
        self.hi - self.lo
    }

    /// Whether the interval contains `x`.
    pub fn contains(&self, x: f64) -> bool {
        (self.lo..=self.hi).contains(&x)
    }
}

/// Shared argument validation for the index-space variants.
fn validate(n: usize, replicates: usize, level: f64) -> Result<(), StatsError> {
    if n == 0 {
        return Err(StatsError::EmptyInput);
    }
    if replicates == 0 {
        return Err(StatsError::InsufficientData { got: 0, need: 1 });
    }
    if !(0.0 < level && level < 1.0) {
        return Err(StatsError::InvalidProbability(level));
    }
    Ok(())
}

/// The RNG seed of one replicate: keyed by the replicate index, never by
/// a shared sequential stream, so the replicate sequence is independent
/// of chunking and scheduling. The hot path in [`replicate_stats`]
/// inlines this (hoisting the `mix_str` base out of the loop); this
/// definition stays as the stream contract the tests pin.
#[cfg(test)]
fn replicate_seed(seed: u64, replicate: usize) -> u64 {
    mix(mix_str(seed, "bootstrap"), replicate as u64)
}

/// Runs the replicates in `range`, returning their statistics in
/// replicate order. Each replicate resamples `n` indices from its own
/// keyed stream.
///
/// Hot path: the string-hashed stream base (`mix_str`) is computed once
/// per chunk, not once per replicate — profiling the bootstrap plateau
/// showed per-replicate stream *setup* (hash the scope string, mix, key
/// the RNG) competing with the resampling loop itself at small `n`. The
/// stream definition is unchanged: `mix(base, k)` equals the old
/// `replicate_seed(seed, k)` exactly.
fn replicate_stats<F>(
    n: usize,
    range: Range<usize>,
    statistic: &F,
    seed: u64,
) -> Result<Vec<f64>, StatsError>
where
    F: Fn(&[usize]) -> f64,
{
    let base = mix_str(seed, "bootstrap");
    let mut resample = vec![0usize; n];
    let mut stats = Vec::with_capacity(range.len());
    for replicate in range {
        let mut rng = Stream::new(mix(base, replicate as u64));
        for slot in resample.iter_mut() {
            *slot = rng.index(n);
        }
        let s = statistic(&resample);
        if !s.is_finite() {
            return Err(StatsError::NonFiniteInput);
        }
        stats.push(s);
    }
    Ok(stats)
}

/// The percentile step: sorts the replicate statistics and reads the
/// interval off, with the point estimate evaluated on the identity
/// index multiset (i.e. the original sample).
fn percentile_ci<F>(
    n: usize,
    statistic: &F,
    mut stats: Vec<f64>,
    replicates: usize,
    level: f64,
) -> Result<BootstrapCi, StatsError>
where
    F: Fn(&[usize]) -> f64,
{
    stats.sort_by(f64::total_cmp);
    let alpha = (1.0 - level) / 2.0;
    let lo = crate::quantile::quantile_sorted(&stats, alpha)?;
    let hi = crate::quantile::quantile_sorted(&stats, 1.0 - alpha)?;
    let identity: Vec<usize> = (0..n).collect();
    Ok(BootstrapCi {
        point: statistic(&identity),
        lo,
        hi,
        replicates,
        level,
    })
}

/// Telemetry for one bootstrap run (observation-only; never affects the
/// resampling).
fn record_run(replicates: usize, workers: usize, wall_start: Option<Instant>) {
    if let Some(start) = wall_start {
        let micros = u64::try_from(start.elapsed().as_micros()).unwrap_or(u64::MAX);
        caf_obs::count("caf.stats.bootstrap.runs", 1);
        caf_obs::count("caf.stats.bootstrap.replicates", replicates as u64);
        caf_obs::gauge("caf.stats.bootstrap.workers", workers as u64);
        caf_obs::observe("caf.stats.bootstrap.wall_us", micros);
    }
}

/// Computes a percentile-method bootstrap CI of `statistic` over `xs`.
///
/// * `replicates` — number of resamples (≥ 100 recommended).
/// * `level` — confidence level in `(0, 1)`, e.g. `0.95`.
/// * `seed` — RNG seed; identical inputs and seed give identical output.
///
/// A thin wrapper over [`bootstrap_indices_ci`]: the value resample is
/// the index resample gathered through `xs`, so the two variants share
/// one replicate-stream definition and return identical intervals for
/// equivalent statistics.
pub fn bootstrap_ci<F>(
    xs: &[f64],
    statistic: F,
    replicates: usize,
    level: f64,
    seed: u64,
) -> Result<BootstrapCi, StatsError>
where
    F: Fn(&[f64]) -> f64,
{
    ensure_sample(xs)?;
    let scratch = std::cell::RefCell::new(vec![0.0; xs.len()]);
    bootstrap_indices_ci(
        xs.len(),
        |idx| {
            let mut buf = scratch.borrow_mut();
            for (slot, &i) in buf.iter_mut().zip(idx) {
                *slot = xs[i];
            }
            statistic(&buf)
        },
        replicates,
        level,
        seed,
    )
}

/// [`bootstrap_ci`] on an engine worker pool. Bit-identical to the
/// serial variant at any worker count (see the module docs); requires a
/// `Sync` statistic.
///
/// The value gather reuses one thread-local scratch buffer per worker
/// instead of allocating a fresh `Vec<f64>` every replicate — the
/// allocation churn was the other half of the bootstrap parallelism
/// plateau: with hundreds of replicates per chunk, each worker hammered
/// the (shared) allocator in lockstep, serializing the supposedly
/// independent chunks.
pub fn bootstrap_ci_on<F>(
    engine: EngineConfig,
    xs: &[f64],
    statistic: F,
    replicates: usize,
    level: f64,
    seed: u64,
) -> Result<BootstrapCi, StatsError>
where
    F: Fn(&[f64]) -> f64 + Sync,
{
    thread_local! {
        static SCRATCH: std::cell::RefCell<Vec<f64>> = const { std::cell::RefCell::new(Vec::new()) };
    }
    ensure_sample(xs)?;
    bootstrap_indices_ci_on(
        engine,
        xs.len(),
        |idx| {
            SCRATCH.with(|cell| {
                let mut buf = cell.borrow_mut();
                buf.clear();
                buf.extend(idx.iter().map(|&i| xs[i]));
                statistic(&buf)
            })
        },
        replicates,
        level,
        seed,
    )
}

/// Computes a percentile bootstrap CI for a statistic defined over *row
/// indices* `0..n` — the general form needed when observations are
/// structured (e.g. weighted CBG rates) rather than plain numbers. The
/// statistic receives a resampled index multiset each replicate.
pub fn bootstrap_indices_ci<F>(
    n: usize,
    statistic: F,
    replicates: usize,
    level: f64,
    seed: u64,
) -> Result<BootstrapCi, StatsError>
where
    F: Fn(&[usize]) -> f64,
{
    validate(n, replicates, level)?;
    let _span = caf_obs::span("stats.bootstrap");
    let wall_start = caf_obs::enabled().then(Instant::now);
    let stats = replicate_stats(n, 0..replicates, &statistic, seed)?;
    record_run(replicates, 1, wall_start);
    percentile_ci(n, &statistic, stats, replicates, level)
}

/// [`bootstrap_indices_ci`] on an engine worker pool: the replicate
/// range is a single cost-uniform unit in the engine's [`UnitPlan`] —
/// the shard policy splits it into contiguous replicate chunks sized
/// off the worker budget, chunks run on [`caf_exec::map_units`], and
/// the per-chunk statistics are concatenated in replicate order.
/// Because every replicate draws from its own keyed stream, the result
/// is bit-identical to the serial variant at any worker count and
/// shard policy for a fixed seed. (With sharding disabled the plan is
/// one whole-range shard, so the run degenerates to the serial path.)
///
/// [`UnitPlan`]: caf_exec::UnitPlan
pub fn bootstrap_indices_ci_on<F>(
    engine: EngineConfig,
    n: usize,
    statistic: F,
    replicates: usize,
    level: f64,
    seed: u64,
) -> Result<BootstrapCi, StatsError>
where
    F: Fn(&[usize]) -> f64 + Sync,
{
    validate(n, replicates, level)?;
    let _span = caf_obs::span("stats.bootstrap");
    let wall_start = caf_obs::enabled().then(Instant::now);
    let plan = engine.plan(&[CostHint::Uniform {
        cost: replicates as u64,
        elements: replicates,
    }]);
    let workers = engine.for_plan(&plan).workers;
    // Work-stealing executor: replicate chunks are nominally uniform,
    // but the statistic's runtime need not be — stealing absorbs the
    // variance without changing the canonical reassembly order.
    let partials = caf_exec::map_units(&plan, |shard| {
        replicate_stats(n, shard.range.clone(), &statistic, seed)
    });
    let mut stats = Vec::with_capacity(replicates);
    for partial in partials.into_iter().flatten() {
        stats.extend(partial?);
    }
    record_run(replicates, workers, wall_start);
    percentile_ci(n, &statistic, stats, replicates, level)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::descriptive::mean;

    fn sample() -> Vec<f64> {
        // Serviceability-rate-like values around 0.55.
        (0..200)
            .map(|i| 0.30 + 0.50 * ((i * 37 % 200) as f64 / 200.0))
            .collect()
    }

    #[test]
    fn hoisted_stream_base_matches_replicate_seed_contract() {
        let base = mix_str(0xCAF_2024, "bootstrap");
        for replicate in [0usize, 1, 7, 999, 123_456] {
            assert_eq!(
                mix(base, replicate as u64),
                replicate_seed(0xCAF_2024, replicate),
                "hot-path stream keying must equal the contract definition"
            );
        }
    }

    #[test]
    fn ci_brackets_the_point_estimate() {
        let xs = sample();
        let ci = bootstrap_ci(&xs, |s| mean(s).unwrap(), 500, 0.95, 42).unwrap();
        assert!(ci.lo <= ci.point && ci.point <= ci.hi);
        assert!(ci.contains(ci.point));
        assert!(ci.width() > 0.0 && ci.width() < 0.1);
        assert_eq!(ci.replicates, 500);
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let xs = sample();
        let a = bootstrap_ci(&xs, |s| mean(s).unwrap(), 200, 0.9, 7).unwrap();
        let b = bootstrap_ci(&xs, |s| mean(s).unwrap(), 200, 0.9, 7).unwrap();
        assert_eq!(a, b);
        let c = bootstrap_ci(&xs, |s| mean(s).unwrap(), 200, 0.9, 8).unwrap();
        assert_ne!(a, c);
    }

    #[test]
    fn more_data_narrows_the_interval() {
        let small: Vec<f64> = sample().into_iter().take(20).collect();
        let big = sample();
        let ci_small = bootstrap_ci(&small, |s| mean(s).unwrap(), 400, 0.95, 1).unwrap();
        let ci_big = bootstrap_ci(&big, |s| mean(s).unwrap(), 400, 0.95, 1).unwrap();
        assert!(ci_big.width() < ci_small.width());
    }

    #[test]
    fn validation() {
        assert!(bootstrap_ci(&[], |_| 0.0, 10, 0.9, 0).is_err());
        assert!(bootstrap_ci(&[1.0], |_| 0.0, 0, 0.9, 0).is_err());
        assert!(bootstrap_ci(&[1.0], |_| 0.0, 10, 1.0, 0).is_err());
        assert!(bootstrap_ci(&[1.0], |_| f64::NAN, 10, 0.9, 0).is_err());
    }

    #[test]
    fn indices_variant_matches_plain_variant_for_means() {
        let xs = sample();
        let plain = bootstrap_ci(&xs, |s| mean(s).unwrap(), 300, 0.95, 5).unwrap();
        let indexed = bootstrap_indices_ci(
            xs.len(),
            |idx| idx.iter().map(|&i| xs[i]).sum::<f64>() / idx.len() as f64,
            300,
            0.95,
            5,
        )
        .unwrap();
        // `bootstrap_ci` is a wrapper over the index variant, so the two
        // now share one replicate-stream definition: identical intervals,
        // not merely similar ones.
        assert_eq!(plain, indexed);
        assert!(indexed.contains(indexed.point));
    }

    #[test]
    fn indices_variant_supports_weighted_statistics() {
        // Weighted mean over (value, weight) rows — the CBG-rate use case.
        let rows = [(1.0, 10.0), (0.0, 30.0), (0.5, 20.0)];
        let ci = bootstrap_indices_ci(
            rows.len(),
            |idx| {
                let (num, den) = idx.iter().fold((0.0, 0.0), |(n, d), &i| {
                    (n + rows[i].0 * rows[i].1, d + rows[i].1)
                });
                num / den
            },
            400,
            0.9,
            7,
        )
        .unwrap();
        assert!((ci.point - 20.0 / 60.0).abs() < 1e-12);
        assert!(ci.lo >= 0.0 && ci.hi <= 1.0);
    }

    #[test]
    fn indices_validation() {
        assert!(bootstrap_indices_ci(0, |_| 0.0, 10, 0.9, 0).is_err());
        assert!(bootstrap_indices_ci(3, |_| 0.0, 0, 0.9, 0).is_err());
        assert!(bootstrap_indices_ci(3, |_| 0.0, 10, 0.0, 0).is_err());
        assert!(bootstrap_indices_ci(3, |_| f64::NAN, 10, 0.9, 0).is_err());
    }

    #[test]
    fn engine_variant_is_bit_identical_at_any_worker_count() {
        let xs = sample();
        let serial = bootstrap_ci(&xs, |s| mean(s).unwrap(), 301, 0.95, 11).unwrap();
        let serial_idx = bootstrap_indices_ci(
            xs.len(),
            |idx| idx.iter().map(|&i| xs[i]).sum::<f64>() / idx.len() as f64,
            301,
            0.95,
            11,
        )
        .unwrap();
        for workers in [1usize, 2, 3, 7, 64] {
            let engine = EngineConfig::with_workers(workers);
            let on = bootstrap_ci_on(engine, &xs, |s| mean(s).unwrap(), 301, 0.95, 11).unwrap();
            assert_eq!(serial, on, "bootstrap_ci_on at {workers} workers");
            let on_idx = bootstrap_indices_ci_on(
                engine,
                xs.len(),
                |idx| idx.iter().map(|&i| xs[i]).sum::<f64>() / idx.len() as f64,
                301,
                0.95,
                11,
            )
            .unwrap();
            assert_eq!(
                serial_idx, on_idx,
                "bootstrap_indices_ci_on at {workers} workers"
            );
        }
    }

    #[test]
    fn shard_policies_do_not_change_intervals() {
        use caf_exec::ShardPolicy;
        let xs = sample();
        let serial = bootstrap_ci(&xs, |s| mean(s).unwrap(), 301, 0.95, 11).unwrap();
        for policy in [
            ShardPolicy::disabled(),
            ShardPolicy::default_policy(),
            ShardPolicy::finest(),
        ] {
            for workers in [1usize, 4] {
                let engine = EngineConfig::with_workers(workers).with_shard_policy(policy);
                let on = bootstrap_ci_on(engine, &xs, |s| mean(s).unwrap(), 301, 0.95, 11).unwrap();
                assert_eq!(serial, on, "policy {policy:?} workers {workers}");
            }
        }
    }

    #[test]
    fn engine_variant_propagates_statistic_errors() {
        // A statistic that goes non-finite only in late replicates must
        // still surface the error through the chunked path.
        let count = std::sync::atomic::AtomicUsize::new(0);
        let result = bootstrap_indices_ci_on(
            EngineConfig::with_workers(4),
            5,
            |_| {
                let k = count.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                if k > 90 {
                    f64::NAN
                } else {
                    1.0
                }
            },
            100,
            0.9,
            3,
        );
        assert_eq!(result.unwrap_err(), StatsError::NonFiniteInput);
        assert!(bootstrap_ci_on(EngineConfig::serial(), &[], |_| 0.0, 10, 0.9, 0).is_err());
    }

    #[test]
    fn replicate_streams_are_keyed_not_sequential() {
        // Replicate k's draw must not depend on how many replicates run
        // before it: a run of 100 and a run of 50 share their first 50
        // replicate statistics, so the 50-replicate interval can be
        // reproduced from the longer run's prefix.
        let xs = sample();
        let idx_stat = |idx: &[usize]| idx.iter().map(|&i| xs[i]).sum::<f64>() / idx.len() as f64;
        let long = replicate_stats(xs.len(), 0..100, &idx_stat, 9).unwrap();
        let short = replicate_stats(xs.len(), 0..50, &idx_stat, 9).unwrap();
        assert_eq!(&long[..50], &short[..]);
        // And a mid-range chunk reproduces the same slice of the run.
        let tail = replicate_stats(xs.len(), 50..100, &idx_stat, 9).unwrap();
        assert_eq!(&long[50..], &tail[..]);
    }
}
