//! Grid execution: compile the cells into one cost-aware plan, run
//! every cell's pipeline, reduce into canonical JSON and CSV artifacts.

use caf_bqt::CampaignConfig;
use caf_core::artifact::{csv_header, csv_line, Nullable};
use caf_core::{
    Audit, AuditConfig, AuditIndex, CompetitionCounterfactual, ComplianceAnalysis, EngineConfig,
    Q3Analysis, SamplingRule, ServiceabilityAnalysis,
};
use caf_exec::{map_units_with, CostHint, Shard, ShardPolicy, UnitPlan};
use caf_obs::json::Json;
use caf_synth::{SynthConfig, World};

use crate::grid::{Cell, ScenarioKey};
use crate::spec::SweepSpec;

/// Scheduling knobs for one sweep run. Every combination produces
/// byte-identical results — these move wall-clock time only.
#[derive(Debug, Clone, Copy)]
pub struct SweepOptions {
    /// Worker threads for the grid plan (cells run serially inside).
    pub workers: usize,
    /// Let idle workers steal shards from other lanes (default); `false`
    /// pins every shard to the lane the plan dealt it to.
    pub steal: bool,
    /// How aggressively the planner splits state units into shards.
    pub policy: ShardPolicy,
}

impl Default for SweepOptions {
    fn default() -> SweepOptions {
        SweepOptions {
            workers: 4,
            steal: true,
            policy: ShardPolicy::default_policy(),
        }
    }
}

/// One computed grid cell: the policy coordinates plus every headline
/// the pipeline produces under them. Optional fields are `None` when
/// the scaled-down world is too small to support the statistic (an
/// empty audit, a Q3 population with no Type A/B split) — the emission
/// renders them as JSON/CSV nulls rather than inventing a number.
#[derive(Debug, Clone)]
pub struct CellResult {
    /// The grid coordinates.
    pub cell: Cell,
    /// The cell's content-addressed key.
    pub key: ScenarioKey,
    /// Definitive audit rows behind the headline rates.
    pub records: u64,
    /// CBG-weighted serviceability rate (Q1).
    pub serviceability: Option<f64>,
    /// CBG-weighted compliance rate under the statutory CAF 10/1 rules.
    pub compliance_baseline: Option<f64>,
    /// CBG-weighted compliance rate under the cell's policy rules
    /// (tier floors × price-cap multiplier).
    pub compliance_policy: Option<f64>,
    /// Fraction of price-eligible rows whose cheapest qualifying plan
    /// sits at or below the cell's (multiplied) rate cap.
    pub price_compliance: f64,
    /// Fraction of Q3 blocks whose CAF speed meets the cell's tier
    /// floor.
    pub tier_attainment: Option<f64>,
    /// Expected mean CAF speed under the cell's subsidy rule, Mbps.
    pub cf_mean_mbps: Option<f64>,
    /// Expected median CAF speed under the cell's subsidy rule, Mbps.
    pub cf_median_mbps: Option<f64>,
}

/// The outcome of one sweep: per-cell results in canonical grid order
/// plus scheduling telemetry. Telemetry is timing-dependent and
/// deliberately excluded from every emission.
#[derive(Debug)]
pub struct SweepRun {
    /// The seed the grid ran under.
    pub seed: u64,
    /// Per-cell results, in [`SweepSpec::cells`] order.
    pub results: Vec<CellResult>,
    /// Shards executed by a worker other than their dealt lane
    /// (0 when stealing is off).
    pub steals: u64,
    /// The worker count the plan was built for.
    pub workers: usize,
    /// Shards in the plan (scheduling detail, not result-bearing).
    pub shards: usize,
}

/// Runs one grid cell's full pipeline — world, audit, serviceability,
/// compliance, Q3, counterfactual — serially on the calling thread.
/// The outer plan owns parallelism; nested pools would oversubscribe
/// and the pipeline is byte-identical at any worker count anyway.
pub fn compute_cell(seed: u64, cell: &Cell) -> CellResult {
    let engine = EngineConfig::serial();
    let synth = SynthConfig {
        seed,
        scale: cell.scale,
    };
    let campaign = CampaignConfig {
        seed,
        workers: 1,
        ..CampaignConfig::default()
    };
    let world = World::generate_states_on(synth, &[cell.state], engine);
    let audit = Audit::new(AuditConfig {
        synth,
        campaign,
        rule: SamplingRule::paper(),
        resample_rounds: 2,
    });
    let dataset = audit.run_with(&world, engine);
    let index = AuditIndex::build_at(&dataset, world.epoch);
    let rules = cell.program_rules();

    let (serviceability, compliance_baseline) = if index.cells().is_empty() {
        (None, None)
    } else {
        let q1 = ServiceabilityAnalysis::from_index(&index);
        let q2 = ComplianceAnalysis::from_index(&dataset, &index);
        (Some(q1.overall_rate()), Some(q2.overall_rate()))
    };
    let compliance_policy = rules.compliance_rate_indexed(&dataset, &index, None);
    let (price_compliance, _range) =
        ComplianceAnalysis::from_index(&dataset, &index).price_compliance_under(&dataset, &rules);

    let q3 = Q3Analysis::run(&world, campaign);
    let tier_attainment = q3.tier_attainment(rules.min_down_mbps);
    let cf_point = CompetitionCounterfactual::from_q3(&q3).map(|cf| cf.under_rule(cell.rule));

    CellResult {
        cell: *cell,
        key: cell.key(seed),
        records: dataset.rows.len() as u64,
        serviceability,
        compliance_baseline,
        compliance_policy,
        price_compliance,
        tier_attainment,
        cf_mean_mbps: cf_point.map(|p| p.mean_caf_speed),
        cf_median_mbps: cf_point.map(|p| p.median_caf_speed),
    }
}

impl SweepRun {
    /// Runs the whole grid: one unit per spec state, per-cell latency
    /// hints from the scaled state record counts, shards run on the
    /// stealing (or pinned-lane) executor, results flattened back into
    /// canonical cell order.
    pub fn run(spec: &SweepSpec, options: SweepOptions) -> SweepRun {
        let cells = spec.cells();
        // Cells are state-major, so each state's slice is contiguous
        // and exactly `per_state` long.
        let per_state = cells.len() / spec.states.len().max(1);
        let hints: Vec<CostHint> = cells
            .chunks(per_state.max(1))
            .map(|chunk| CostHint::PerElement(chunk.iter().map(Cell::est_cost).collect()))
            .collect();
        let plan = UnitPlan::build(options.workers, &hints, options.policy);
        let seed = spec.seed;
        let body = |shard: &Shard| -> Vec<CellResult> {
            let base = shard.unit * per_state;
            cells[base + shard.range.start..base + shard.range.end]
                .iter()
                .map(|cell| compute_cell(seed, cell))
                .collect()
        };
        let (parts, stats) = map_units_with(&plan, options.steal, body);
        // Units in state order, shards in ascending element order:
        // flattening reproduces `spec.cells()` order exactly.
        let results: Vec<CellResult> = parts.into_iter().flatten().flatten().collect();
        debug_assert_eq!(results.len(), cells.len());
        SweepRun {
            seed,
            results,
            steals: stats.steals,
            workers: options.workers,
            shards: plan.shard_count(),
        }
    }
}

fn opt_num(value: Option<f64>) -> Json {
    match value {
        Some(v) => Json::Num(v),
        None => Json::Null,
    }
}

/// One cell's artifact body: a flat object, keys sorted (the canonical
/// writer contract), nullable statistics rendered as JSON nulls.
pub fn cell_body(result: &CellResult) -> Json {
    Json::Obj(vec![
        (
            "cap_multiplier".to_string(),
            Json::Num(result.cell.cap_multiplier),
        ),
        ("cf_mean_mbps".to_string(), opt_num(result.cf_mean_mbps)),
        ("cf_median_mbps".to_string(), opt_num(result.cf_median_mbps)),
        (
            "compliance_baseline".to_string(),
            opt_num(result.compliance_baseline),
        ),
        (
            "compliance_policy".to_string(),
            opt_num(result.compliance_policy),
        ),
        ("key".to_string(), Json::Str(result.key.hex())),
        (
            "price_compliance".to_string(),
            Json::Num(result.price_compliance),
        ),
        ("records".to_string(), Json::UInt(result.records)),
        (
            "scale".to_string(),
            Json::UInt(u64::from(result.cell.scale)),
        ),
        ("serviceability".to_string(), opt_num(result.serviceability)),
        (
            "state".to_string(),
            Json::Str(result.cell.state.abbrev().to_string()),
        ),
        (
            "subsidy_rule".to_string(),
            Json::Str(result.cell.rule.label().to_string()),
        ),
        ("tier".to_string(), Json::Str(result.cell.tier.to_string())),
        (
            "tier_attainment".to_string(),
            opt_num(result.tier_attainment),
        ),
    ])
}

/// The whole-grid artifact: the seed, the cell count, and every cell
/// body in canonical grid order. Scheduling telemetry (steals, worker
/// count) is deliberately absent — the artifact must be byte-identical
/// at any worker count or steal schedule.
pub fn results_artifact(run: &SweepRun) -> Json {
    Json::Obj(vec![
        (
            "cells".to_string(),
            Json::Arr(run.results.iter().map(cell_body).collect()),
        ),
        ("count".to_string(), Json::UInt(run.results.len() as u64)),
        ("seed".to_string(), Json::UInt(run.seed)),
    ])
}

/// The sweep's CSV emission (`results.csv`): one row per cell in
/// canonical grid order, an empty field for each statistic a cell could
/// not estimate.
pub fn results_csv(run: &SweepRun) -> String {
    let mut out = csv_header(&[
        "state",
        "scale",
        "tier",
        "cap_multiplier",
        "subsidy_rule",
        "key",
        "records",
        "serviceability",
        "compliance_baseline",
        "compliance_policy",
        "price_compliance",
        "tier_attainment",
        "cf_mean_mbps",
        "cf_median_mbps",
    ]);
    for r in &run.results {
        csv_line(
            &mut out,
            &[
                &r.cell.state.abbrev(),
                &r.cell.scale,
                &r.cell.tier,
                &r.cell.cap_multiplier,
                &r.cell.rule.label(),
                &r.key.hex(),
                &r.records,
                &Nullable(r.serviceability),
                &Nullable(r.compliance_baseline),
                &Nullable(r.compliance_policy),
                &r.price_compliance,
                &Nullable(r.tier_attainment),
                &Nullable(r.cf_mean_mbps),
                &Nullable(r.cf_median_mbps),
            ],
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use caf_core::artifact::to_canonical_bytes;

    fn tiny_spec() -> SweepSpec {
        SweepSpec::from_json(
            r#"{
                "seed": 7,
                "states": ["VT", "NH"],
                "scales": [2000],
                "speed_tiers": ["10_1", "100_20"],
                "price_cap_multipliers": [1.0],
                "subsidy_rules": ["status_quo", "full_buildout"]
            }"#,
        )
        .expect("tiny spec is valid")
    }

    #[test]
    fn emission_is_identical_across_schedules() {
        let spec = tiny_spec();
        let baseline = SweepRun::run(
            &spec,
            SweepOptions {
                workers: 1,
                steal: false,
                policy: ShardPolicy::disabled(),
            },
        );
        let reference = to_canonical_bytes(&results_artifact(&baseline));
        let reference_csv = results_csv(&baseline);
        for (workers, steal, policy) in [
            (2, true, ShardPolicy::default_policy()),
            (4, true, ShardPolicy::finest()),
            (3, false, ShardPolicy::default_policy()),
        ] {
            let run = SweepRun::run(
                &spec,
                SweepOptions {
                    workers,
                    steal,
                    policy,
                },
            );
            assert_eq!(
                to_canonical_bytes(&results_artifact(&run)),
                reference,
                "workers={workers} steal={steal}"
            );
            assert_eq!(results_csv(&run), reference_csv);
        }
    }

    #[test]
    fn results_follow_canonical_cell_order() {
        let spec = tiny_spec();
        let run = SweepRun::run(&spec, SweepOptions::default());
        let cells = spec.cells();
        assert_eq!(run.results.len(), cells.len());
        for (r, c) in run.results.iter().zip(&cells) {
            assert_eq!(r.key, c.key(spec.seed));
        }
        // Policy axes move the policy columns, not the audit itself:
        // baseline compliance agrees across tiers of the same state.
        let vt: Vec<&CellResult> = run
            .results
            .iter()
            .filter(|r| r.cell.state == caf_geo::UsState::Vermont)
            .collect();
        for r in &vt {
            assert_eq!(r.compliance_baseline, vt[0].compliance_baseline);
            assert_eq!(r.serviceability, vt[0].serviceability);
        }
    }

    #[test]
    fn table_matches_run_shape() {
        let spec = tiny_spec();
        let run = SweepRun::run(
            &spec,
            SweepOptions {
                workers: 1,
                steal: false,
                policy: ShardPolicy::disabled(),
            },
        );
        let csv = results_csv(&run);
        assert_eq!(csv.lines().count(), 1 + spec.cell_count());
        assert!(csv.starts_with("state,scale,tier,cap_multiplier"), "{csv}");
    }
}
