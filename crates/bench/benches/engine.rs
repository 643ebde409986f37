//! The execution-layer bench: one instrumented audit per engine worker
//! count under the caf-obs telemetry layer, written as a one-line
//! machine-readable summary (the run-report JSON) to `BENCH_engine.json`
//! at the repository root, so CI and scripts can diff span timings.

use caf_bench::campaign_config;
use caf_core::{Audit, AuditConfig, EngineConfig, SamplingRule};
use caf_geo::UsState;
use caf_synth::{SynthConfig, World};
use std::hint::black_box;

const SEED: u64 = 0xCAF_2024;
/// The acceptance-criteria scale: `repro`'s default (`--scale 30`).
const SCALE: u32 = 30;

fn audit_at(scale: u32) -> (World, Audit) {
    let synth = SynthConfig { seed: SEED, scale };
    let world = World::generate_states(synth, &UsState::study_states());
    let audit = Audit::new(AuditConfig {
        synth,
        campaign: campaign_config(SEED),
        rule: SamplingRule::paper(),
        resample_rounds: 2,
    });
    (world, audit)
}

/// Runs one audit per worker count with telemetry enabled and writes the
/// resulting run report as a single line of compact JSON to
/// `BENCH_engine.json` at the repository root (or `$CAF_BENCH_DIR`).
fn main() {
    caf_obs::set_enabled(true);
    caf_obs::registry().reset();
    let (world, audit) = audit_at(SCALE);
    for workers in [1usize, 2, 4] {
        let _span = caf_obs::span_with(|| format!("bench.audit.workers_{workers}"));
        let dataset = audit.run_with(&world, EngineConfig::with_workers(workers));
        black_box(dataset.rows.len());
    }
    caf_obs::set_enabled(false);

    let mut meta = std::collections::BTreeMap::new();
    meta.insert("tool".to_string(), "bench_engine".to_string());
    meta.insert("seed".to_string(), SEED.to_string());
    meta.insert("scale".to_string(), SCALE.to_string());
    meta.insert("workers".to_string(), "1,2,4".to_string());
    caf_bench::write_bench_report(
        "BENCH_engine.json",
        &caf_obs::RunReport::collect(meta),
        "audits at 1, 2 and 4 workers",
    );
}
