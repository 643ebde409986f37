//! The bench for the work-stealing, latency-aware BQT campaign
//! scheduler: campaign wall-clock as a function of worker count, steal
//! on/off A-B, and the checkpoint write overhead.
//!
//! It performs instrumented measurement passes and writes a one-line machine-readable summary to
//! `BENCH_campaign.json` at the repository root (or `$CAF_BENCH_DIR`) —
//! the same run-report format as the other bench baselines. Key
//! metadata:
//!
//! * `campaign_speedup_4_workers` — 1-worker wall over 4-worker wall
//!   with stealing on (`metrics_check --gate
//!   'meta.campaign_speedup_4_workers >= 1.0'` gates on it on ≥4-core
//!   hosts).
//! * `campaign_steals_4_workers` — tasks migrated by the stealing
//!   executor during the 4-worker pass (from the `caf.exec.steals`
//!   counter).
//! * `checkpoint_overhead_pct` — extra wall-clock of a checkpointed run
//!   over a plain run of the same campaign.
//! * `resume_equal` — whether a checkpointed run, and a second run that
//!   resumes from its completed checkpoint, both reproduce the plain
//!   run's `CampaignResult` exactly.

use caf_bqt::{Campaign, CampaignConfig, CheckpointConfig, QueryTask};
use caf_geo::UsState;
use caf_synth::{SynthConfig, World};
use std::hint::black_box;
use std::time::Instant;

const SEED: u64 = 0xCAF_2024;
/// `scale` divides the paper-scale counts, so *smaller* is bigger: 20
/// yields ~8.3k query tasks across the two states — enough work that
/// scheduling and checkpoint costs are measured against a real campaign
/// rather than thread-spawn noise, while the summary pass stays inside
/// CI smoke budgets.
const SCALE: u32 = 20;

fn synth() -> SynthConfig {
    SynthConfig {
        seed: SEED,
        scale: SCALE,
    }
}

/// Two-state world (one rural DSL-heavy, one cable-competitive) so the
/// task list mixes fast and slow ISP latency models — the heavy tail the
/// stealing scheduler exists to absorb.
fn bench_world() -> World {
    World::generate_states(synth(), &[UsState::Vermont, UsState::WestVirginia])
}

fn tasks_for(world: &World) -> Vec<QueryTask> {
    let mut tasks = Vec::new();
    for sw in &world.states {
        tasks.extend(sw.usac.records.iter().map(|r| QueryTask {
            address: r.address.id,
            isp: r.isp,
        }));
    }
    tasks
}

fn config(workers: usize, steal: bool) -> CampaignConfig {
    CampaignConfig {
        seed: SEED,
        workers,
        steal,
        ..CampaignConfig::default()
    }
}

/// Median of three timed passes after one untimed warmup.
fn median_of_3(run: &mut dyn FnMut() -> f64) -> f64 {
    run(); // warmup
    let mut samples = [run(), run(), run()];
    samples.sort_by(f64::total_cmp);
    samples[1]
}

fn main() {
    caf_obs::set_enabled(true);
    caf_obs::registry().reset();
    let world = bench_world();
    let tasks = tasks_for(&world);

    let mut wall = std::collections::BTreeMap::new();
    let mut steals = std::collections::BTreeMap::new();
    for workers in [1usize, 2, 4] {
        let _span = caf_obs::span_with(|| format!("bench.campaign.workers_{workers}"));
        let before = caf_obs::registry().counter("caf.exec.steals").get();
        let seconds = median_of_3(&mut || {
            let start = Instant::now();
            let result = Campaign::new(config(workers, true)).run(&world.truth, &tasks);
            black_box(result.records.len());
            start.elapsed().as_secs_f64()
        });
        wall.insert(workers, seconds);
        steals.insert(
            workers,
            caf_obs::registry().counter("caf.exec.steals").get() - before,
        );
    }
    let static_wall_4 = {
        let _span = caf_obs::span_with(|| "bench.campaign.static_workers_4".to_string());
        median_of_3(&mut || {
            let start = Instant::now();
            let result = Campaign::new(config(4, false)).run(&world.truth, &tasks);
            black_box(result.records.len());
            start.elapsed().as_secs_f64()
        })
    };

    // Checkpoint overhead and resume equality against the plain run.
    let plain = Campaign::new(config(4, true)).run(&world.truth, &tasks);
    let ckpt_dir = std::env::temp_dir().join(format!("caf-bench-ckpt-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&ckpt_dir);
    let every = (tasks.len() / 10).max(1);
    let ckpt = CheckpointConfig::new(&ckpt_dir, every);
    let plain_wall = median_of_3(&mut || {
        let start = Instant::now();
        black_box(
            Campaign::new(config(4, true))
                .run(&world.truth, &tasks)
                .records
                .len(),
        );
        start.elapsed().as_secs_f64()
    });
    let campaign = Campaign::new(config(4, true));
    let ckpt_wall = median_of_3(&mut || {
        // Fresh checkpoint state each pass so every run writes the full
        // flush schedule instead of resuming from the previous pass.
        let _ = std::fs::remove_dir_all(&ckpt_dir);
        let start = Instant::now();
        black_box(
            campaign
                .run_with_checkpoints(&world.truth, &tasks, &ckpt)
                .expect("checkpointed run")
                .records
                .len(),
        );
        start.elapsed().as_secs_f64()
    });
    let checkpointed = campaign
        .run_with_checkpoints(&world.truth, &tasks, &ckpt)
        .expect("checkpointed run");
    // The file now holds the complete run; this call resumes (loads)
    // everything and must still agree byte-for-byte.
    let resumed = campaign
        .run_with_checkpoints(&world.truth, &tasks, &ckpt)
        .expect("resumed run");
    let resume_equal = checkpointed == plain && resumed == plain;
    let _ = std::fs::remove_dir_all(&ckpt_dir);
    caf_obs::set_enabled(false);

    let speedup_4w = wall[&1] / wall[&4].max(f64::EPSILON);
    let steal_gain_4w = static_wall_4 / wall[&4].max(f64::EPSILON);
    // The percentage is a worst case: simulated queries cost ~nothing,
    // so the fsync-per-flush durability cost dominates the engine wall.
    // `checkpoint_flush_ms_mean` gives the absolute cost a real campaign
    // (network-bound, seconds per task) would amortize to noise.
    let overhead_pct = ((ckpt_wall - plain_wall) / plain_wall.max(f64::EPSILON)) * 100.0;
    let flushes = (tasks.len() / every).max(1) as f64 + 1.0; // + final full write
    let flush_ms_mean = ((ckpt_wall - plain_wall).max(0.0) / flushes) * 1e3;
    let throughput = tasks.len() as f64 / wall[&4].max(f64::EPSILON);

    let mut meta = std::collections::BTreeMap::new();
    meta.insert("tool".to_string(), "bench_campaign".to_string());
    meta.insert("seed".to_string(), SEED.to_string());
    meta.insert("scale".to_string(), SCALE.to_string());
    meta.insert("tasks".to_string(), tasks.len().to_string());
    meta.insert("workers".to_string(), "1,2,4".to_string());
    meta.insert(
        "campaign_speedup_4_workers".to_string(),
        format!("{speedup_4w:.2}"),
    );
    meta.insert(
        "campaign_steal_gain_4_workers".to_string(),
        format!("{steal_gain_4w:.2}"),
    );
    meta.insert(
        "campaign_steals_4_workers".to_string(),
        steals[&4].to_string(),
    );
    meta.insert(
        "campaign_throughput_tasks_per_s".to_string(),
        format!("{throughput:.0}"),
    );
    meta.insert(
        "checkpoint_overhead_pct".to_string(),
        format!("{overhead_pct:.1}"),
    );
    meta.insert("checkpoint_every_tasks".to_string(), every.to_string());
    meta.insert(
        "checkpoint_flush_ms_mean".to_string(),
        format!("{flush_ms_mean:.2}"),
    );
    meta.insert("resume_equal".to_string(), resume_equal.to_string());
    for (workers, seconds) in &wall {
        meta.insert(
            format!("campaign_wall_s_workers_{workers}"),
            format!("{seconds:.3}"),
        );
    }
    caf_bench::write_bench_report(
        "BENCH_campaign.json",
        &caf_obs::RunReport::collect(meta),
        &format!(
            "4-worker speedup {speedup_4w:.2}x, steals {}, \
             checkpoint overhead {overhead_pct:.1}%, resume_equal {resume_equal}",
            steals[&4],
        ),
    );
    assert!(resume_equal, "resumed campaign must equal the plain run");
}
