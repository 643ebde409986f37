//! # caf-bench — experiment fixtures and formatting for the repro harness
//!
//! The `repro` binary regenerates every table and figure in the paper's
//! evaluation; the instrumented benches (plain `harness = false` mains that
//! write the committed `BENCH_*.json` baselines) measure the pipeline. Both
//! need the same thing: a deterministic end-to-end run at a chosen scale.
//! This crate centralizes that fixture plus the text formatting the
//! harness prints (aligned tables, CDF series, distribution rows).
//!
//! The fixture builds the [`AuditIndex`] exactly once and projects both
//! the Q1 and Q2 analyses from it, so experiments sharing a fixture never
//! re-group the audit rows. The audit itself runs on the parallel engine
//! ([`EngineConfig`]); the engine's determinism contract guarantees the
//! same fixture contents at any worker count.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use caf_bqt::CampaignConfig;
use caf_core::{
    Audit, AuditConfig, AuditDataset, AuditIndex, ComplianceAnalysis, EngineConfig, Q3Analysis,
    SamplingRule, ServiceabilityAnalysis,
};
use caf_geo::UsState;
use caf_stats::Ecdf;
use caf_synth::{ChallengeDelta, ChallengeError, SynthConfig, World};

/// A fully-run experiment fixture: world, audit dataset, shared index,
/// and analyses.
pub struct Fixture {
    /// The synthetic world (Q1 states).
    pub world: World,
    /// The audit dataset over the world.
    pub dataset: AuditDataset,
    /// The columnar index over `dataset` — built once, shared by every
    /// analysis and experiment.
    pub index: AuditIndex,
    /// The Q1 serviceability analysis.
    pub serviceability: ServiceabilityAnalysis,
    /// The Q2 compliance analysis.
    pub compliance: ComplianceAnalysis,
    /// The audit configuration the dataset was produced with (reused by
    /// experiments that re-run the audit over world subsets).
    pub audit: Audit,
    /// The engine configuration the audit ran with.
    pub engine: EngineConfig,
}

impl Fixture {
    /// Runs the Q1/Q2 pipeline over all fifteen study states.
    pub fn build(seed: u64, scale: u32) -> Fixture {
        Fixture::build_states(seed, scale, &UsState::study_states())
    }

    /// Runs the Q1/Q2 pipeline over a subset of states.
    pub fn build_states(seed: u64, scale: u32, states: &[UsState]) -> Fixture {
        Fixture::build_tuned(seed, scale, states, EngineConfig::default())
    }

    /// Runs the Q1/Q2 pipeline over a subset of states with an explicit
    /// engine configuration (the `--workers` knob of `repro`).
    pub fn build_tuned(seed: u64, scale: u32, states: &[UsState], engine: EngineConfig) -> Fixture {
        Fixture::build_tuned_at(seed, scale, states, engine, &[])
            .expect("an empty delta stream cannot fail validation")
    }

    /// Like [`Fixture::build_tuned`], but applies a challenge delta
    /// stream to the world before auditing — the from-scratch rebuild
    /// at a given epoch. By the incremental-recompute determinism
    /// contract, the result is byte-identical to an epoch-0 fixture
    /// refreshed through [`caf_core::IncrementalAudit`] by the same
    /// deltas, regardless of how the stream was batched.
    pub fn build_tuned_at(
        seed: u64,
        scale: u32,
        states: &[UsState],
        engine: EngineConfig,
        deltas: &[ChallengeDelta],
    ) -> Result<Fixture, ChallengeError> {
        let synth = SynthConfig { seed, scale };
        let mut world = {
            let _span = caf_obs::span("fixture.world");
            World::generate_states_on(synth, states, engine)
        };
        if !deltas.is_empty() {
            let _span = caf_obs::span("fixture.challenges");
            world.apply_deltas(deltas)?;
        }
        let world = world;
        let audit = Audit::new(AuditConfig {
            synth,
            campaign: campaign_config(seed),
            rule: SamplingRule::paper(),
            resample_rounds: 2,
        });
        let dataset = {
            let _span = caf_obs::span("fixture.audit");
            audit.run_with(&world, engine)
        };
        let index = {
            let _span = caf_obs::span("fixture.index");
            AuditIndex::build_at(&dataset, world.epoch)
        };
        let (serviceability, compliance) = {
            let _span = caf_obs::span("fixture.analyses");
            (
                ServiceabilityAnalysis::from_index(&index),
                ComplianceAnalysis::from_index(&dataset, &index),
            )
        };
        Ok(Fixture {
            world,
            dataset,
            index,
            serviceability,
            compliance,
            audit,
            engine,
        })
    }

    /// Re-runs the fixture's audit over a subset of its world's states
    /// (ablations restrict to two-state slices; the world is reused, not
    /// regenerated).
    pub fn audit_subset(&self, states: &[UsState]) -> AuditDataset {
        self.audit.run_for(&self.world, states, self.engine)
    }

    /// Runs the Q3 pipeline (dedicated world over the seven Q3 states).
    pub fn build_q3(seed: u64, scale: u32) -> (World, Q3Analysis) {
        Fixture::build_q3_tuned(seed, scale, EngineConfig::default())
    }

    /// Runs the Q3 pipeline with an explicit engine configuration for
    /// the world build (the analysis itself is campaign-driven).
    pub fn build_q3_tuned(seed: u64, scale: u32, engine: EngineConfig) -> (World, Q3Analysis) {
        let synth = SynthConfig { seed, scale };
        let world = World::generate_states_on(synth, &UsState::q3_states(), engine);
        let q3 = Q3Analysis::run(&world, campaign_config(seed));
        (world, q3)
    }
}

/// The campaign configuration the harness uses everywhere.
pub fn campaign_config(seed: u64) -> CampaignConfig {
    CampaignConfig {
        seed,
        workers: std::thread::available_parallelism()
            .map(|n| n.get().min(8))
            .unwrap_or(4),
        ..CampaignConfig::default()
    }
}

/// Writes a bench's run report as one line of compact JSON to `file` in
/// `$CAF_BENCH_DIR`, or at the repository root when it is unset (CI points
/// it at an artifact directory so smoke runs never dirty the committed
/// baselines), then reports the path and `summary` on stderr.
pub fn write_bench_report(file: &str, report: &caf_obs::RunReport, summary: &str) {
    let dir = std::env::var("CAF_BENCH_DIR")
        .unwrap_or_else(|_| concat!(env!("CARGO_MANIFEST_DIR"), "/../..").to_string());
    let path = std::path::Path::new(&dir).join(file);
    let mut line = report.to_json();
    line.push('\n');
    match std::fs::write(&path, line) {
        Ok(()) => eprintln!("wrote bench summary to {} ({summary})", path.display()),
        Err(error) => eprintln!("cannot write {}: {error}", path.display()),
    }
}

/// Formats an ECDF as `x<TAB>F(x)` rows at the given resolution.
pub fn format_cdf(label: &str, values: &[f64], points: usize) -> String {
    let mut out = format!("# CDF: {label} (n={})\n", values.len());
    match Ecdf::new(values) {
        Ok(ecdf) => {
            for (x, f) in ecdf.series(points) {
                out.push_str(&format!("{x:12.3}\t{f:8.4}\n"));
            }
        }
        Err(_) => out.push_str("(empty series)\n"),
    }
    out
}

/// Formats a percentage.
pub fn pct(x: f64) -> String {
    format!("{:6.2} %", 100.0 * x)
}

/// Formats a two-column name/value table with aligned names.
pub fn format_pairs(title: &str, pairs: &[(String, String)]) -> String {
    let width = pairs.iter().map(|(k, _)| k.len()).max().unwrap_or(0);
    let mut out = format!("== {title} ==\n");
    for (k, v) in pairs {
        out.push_str(&format!("  {k:<width$}  {v}\n"));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixture_builds_at_tiny_scale() {
        let f = Fixture::build_states(3, 120, &[UsState::Vermont]);
        assert!(!f.dataset.rows.is_empty());
        assert_eq!(f.index.len(), f.dataset.rows.len());
        let rate = f.serviceability.overall_rate();
        assert!((0.0..=1.0).contains(&rate));
        let _ = f.compliance.overall_rate();
        // The subset re-run over the fixture's only state reproduces the
        // fixture's own dataset.
        let again = f.audit_subset(&[UsState::Vermont]);
        assert_eq!(again.records, f.dataset.records);
    }

    #[test]
    fn cdf_formatting() {
        let s = format_cdf("test", &[1.0, 2.0, 3.0], 3);
        assert!(s.contains("# CDF: test (n=3)"));
        assert_eq!(s.lines().count(), 4);
        let s = format_cdf("empty", &[], 3);
        assert!(s.contains("empty series"));
    }

    #[test]
    fn pct_and_pairs_formatting() {
        assert_eq!(pct(0.5545), " 55.45 %");
        let s = format_pairs(
            "T",
            &[("a".into(), "1".into()), ("long-name".into(), "2".into())],
        );
        assert!(s.contains("== T =="));
        assert!(s.contains("a          1"));
    }
}
