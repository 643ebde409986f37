//! The cold-path bench for the `caf-exec` pool: world generation
//! wall-clock as a function of worker count (the 1.5×-at-4-workers
//! acceptance bar is read from here) and the engine-aware bootstrap.
//!
//! It runs one instrumented bootstrap pass and one world build per
//! worker count under the caf-obs telemetry layer and writes a one-line
//! machine-readable summary to `BENCH_world.json` at the repository
//! root — the same run-report format as `BENCH_engine.json`, so the
//! same tooling parses both.

use caf_core::EngineConfig;
use caf_geo::UsState;
use caf_stats::bootstrap_indices_ci_on;
use caf_synth::{SynthConfig, World};
use std::hint::black_box;
use std::time::Instant;

const SEED: u64 = 0xCAF_2024;
/// The acceptance-criteria scale: `repro`'s default (`--scale 30`).
const SCALE: u32 = 30;
/// Replicates for the bootstrap benches — the `repro ext-ci` budget.
const REPLICATES: usize = 1_000;

fn synth() -> SynthConfig {
    SynthConfig {
        seed: SEED,
        scale: SCALE,
    }
}

/// Runs one bootstrap pass and one world build per worker count with
/// telemetry enabled and writes the resulting run report as a single
/// line of compact JSON to `BENCH_world.json` at the repository root
/// (or `$CAF_BENCH_DIR` when set).
/// The measured 1-vs-4-worker speedups land in the report metadata.
///
/// The bootstrap sweep runs *before* the world sweep so the
/// last-written gauges describe the runs the metadata names: the
/// `caf.stats.bootstrap.workers` gauge is left by the sweep's final
/// (4-worker) bootstrap — it used to read `1` here because a single
/// trailing auto-sized bootstrap overwrote the sweep's gauge on 1-core
/// CI boxes — and the `caf.exec.*` gauges (shard count, estimated
/// makespan, post-shard skew) are left by the 4-worker world build the
/// speedup metadata quotes.
fn main() {
    caf_obs::set_enabled(true);
    caf_obs::registry().reset();
    let sample: Vec<f64> = (0..4096).map(|i| ((i * 37) % 101) as f64).collect();
    // Median of three timed passes after one untimed warmup: the summary
    // feeds the committed baseline and the CI speedup gates, so a single
    // cold-cache or scheduler-hiccup pass must not move the numbers.
    let median_of_3 = |run: &mut dyn FnMut() -> f64| -> f64 {
        run(); // warmup
        let mut samples = [run(), run(), run()];
        samples.sort_by(f64::total_cmp);
        samples[1]
    };
    let mut bootstrap_wall = std::collections::BTreeMap::new();
    for workers in [1usize, 2, 4] {
        let _span = caf_obs::span_with(|| format!("bench.world.bootstrap_workers_{workers}"));
        let wall = median_of_3(&mut || {
            let start = Instant::now();
            let ci = bootstrap_indices_ci_on(
                EngineConfig::with_workers(workers),
                sample.len(),
                |idx| idx.iter().map(|&i| sample[i]).sum::<f64>() / idx.len() as f64,
                REPLICATES,
                0.95,
                SEED,
            )
            .unwrap();
            black_box(ci);
            start.elapsed().as_secs_f64()
        });
        bootstrap_wall.insert(workers, wall);
    }
    let mut wall = std::collections::BTreeMap::new();
    for workers in [1usize, 2, 4] {
        let _span = caf_obs::span_with(|| format!("bench.world.workers_{workers}"));
        let seconds = median_of_3(&mut || {
            let start = Instant::now();
            let world = World::generate_states_on(
                synth(),
                &UsState::study_states(),
                EngineConfig::with_workers(workers),
            );
            black_box(world.truth.len());
            start.elapsed().as_secs_f64()
        });
        wall.insert(workers, seconds);
    }
    caf_obs::set_enabled(false);

    let speedup_4w = wall[&1] / wall[&4].max(f64::EPSILON);
    let bootstrap_speedup_4w = bootstrap_wall[&1] / bootstrap_wall[&4].max(f64::EPSILON);
    let mut meta = std::collections::BTreeMap::new();
    meta.insert("tool".to_string(), "bench_world".to_string());
    meta.insert("seed".to_string(), SEED.to_string());
    meta.insert("scale".to_string(), SCALE.to_string());
    meta.insert("workers".to_string(), "1,2,4".to_string());
    meta.insert("replicates".to_string(), REPLICATES.to_string());
    meta.insert(
        "world_speedup_4_workers".to_string(),
        format!("{speedup_4w:.2}"),
    );
    meta.insert(
        "bootstrap_speedup_4_workers".to_string(),
        format!("{bootstrap_speedup_4w:.2}"),
    );
    for (workers, seconds) in &wall {
        meta.insert(
            format!("world_wall_s_workers_{workers}"),
            format!("{seconds:.3}"),
        );
    }
    for (workers, seconds) in &bootstrap_wall {
        meta.insert(
            format!("bootstrap_wall_s_workers_{workers}"),
            format!("{seconds:.3}"),
        );
    }
    caf_bench::write_bench_report(
        "BENCH_world.json",
        &caf_obs::RunReport::collect(meta),
        &format!("4-worker speedup {speedup_4w:.2}x"),
    );
}
