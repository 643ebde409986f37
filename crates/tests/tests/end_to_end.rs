//! Cross-crate integration: the full pipeline from synthetic world to
//! headline report and CSV export, exercising caf-geo, caf-synth,
//! caf-bqt and caf-core together.

use caf_bqt::CampaignConfig;
use caf_core::artifact::audit_rows_csv;
use caf_core::{
    Audit, AuditConfig, ComplianceAnalysis, EfficacyReport, SamplingRule, ServiceabilityAnalysis,
};
use caf_geo::UsState;
use caf_synth::{Isp, SynthConfig, World};

fn run_audit(seed: u64, scale: u32, states: &[UsState]) -> (World, caf_core::AuditDataset) {
    let synth = SynthConfig { seed, scale };
    let world = World::generate_states(synth, states);
    let audit = Audit::new(AuditConfig {
        synth,
        campaign: CampaignConfig {
            seed,
            workers: 3,
            ..CampaignConfig::default()
        },
        rule: SamplingRule::paper(),
        resample_rounds: 2,
    });
    let dataset = audit.run(&world);
    (world, dataset)
}

#[test]
fn pipeline_runs_end_to_end_and_reports() {
    let (_, dataset) = run_audit(1, 40, &[UsState::Alabama, UsState::Vermont]);
    let serviceability = ServiceabilityAnalysis::compute(&dataset);
    let compliance = ComplianceAnalysis::compute(&dataset);
    let report = EfficacyReport::assemble(&serviceability, &compliance, None);
    assert!(report.serviceability > 0.0 && report.serviceability < 1.0);
    assert!(report.compliance <= report.serviceability + 1e-9);
    assert!(report.per_isp.len() >= 3, "AL has AT&T/CL/Frontier + Cons");
    let text = report.render();
    assert!(text.contains("Serviceability rate"));
}

/// Splits the audit-rows CSV into its header and records. No field the
/// audit emits needs quoting, so a plain split reads it exactly.
fn csv_records(csv: &str) -> (Vec<&str>, Vec<Vec<&str>>) {
    assert!(!csv.contains('"'), "audit CSV fields never need quoting");
    let mut lines = csv.lines();
    let header: Vec<&str> = lines.next().expect("header line").split(',').collect();
    let records: Vec<Vec<&str>> = lines.map(|l| l.split(',').collect()).collect();
    for record in &records {
        assert_eq!(record.len(), header.len(), "ragged CSV line {record:?}");
    }
    (header, records)
}

fn column(header: &[&str], name: &str) -> usize {
    header
        .iter()
        .position(|c| *c == name)
        .unwrap_or_else(|| panic!("no {name} column in {header:?}"))
}

#[test]
fn audit_csv_counts_match_typed_rows() {
    // The exported CSV must carry what the typed analysis sees: per-ISP
    // row and served counts read back from the `isp` and `served`
    // columns equal a count over `rows_for`.
    let (_, dataset) = run_audit(2, 40, &[UsState::Alabama]);
    let csv = audit_rows_csv(&dataset);
    let (header, records) = csv_records(&csv);
    assert_eq!(records.len(), dataset.rows.len());
    let (isp_col, served_col) = (column(&header, "isp"), column(&header, "served"));
    let mut isps: Vec<&str> = records.iter().map(|r| r[isp_col]).collect();
    isps.sort_unstable();
    isps.dedup();
    assert!(isps.len() >= 3, "AL has AT&T/CL/Frontier + Cons: {isps:?}");
    for name in isps {
        let isp = Isp::from_name(name).expect("known isp");
        let of_isp: Vec<&Vec<&str>> = records.iter().filter(|r| r[isp_col] == name).collect();
        let served = of_isp.iter().filter(|r| r[served_col] == "true").count();
        assert_eq!(of_isp.len(), dataset.rows_for(isp).count(), "{name} rows");
        assert_eq!(
            served,
            dataset.rows_for(isp).filter(|r| r.served).count(),
            "{name} served"
        );
    }
}

#[test]
fn audit_csv_speeds_parse_back_exactly() {
    // Every `max_down` field is the row's f64 in shortest round-trip
    // form (empty when the address is unserved), so it parses back to
    // the identical value.
    let (_, dataset) = run_audit(3, 60, &[UsState::Vermont]);
    let csv = audit_rows_csv(&dataset);
    let (header, records) = csv_records(&csv);
    assert_eq!(records.len(), dataset.rows.len());
    let max_down = column(&header, "max_down");
    let mut served = 0;
    for (record, row) in records.iter().zip(&dataset.rows) {
        let field = record[max_down];
        let parsed = (!field.is_empty()).then(|| field.parse::<f64>().expect("numeric max_down"));
        assert_eq!(parsed, row.max_down_mbps, "max_down field {field:?}");
        served += usize::from(parsed.is_some());
    }
    assert!(served > 0, "some row must carry a speed");
}

#[test]
fn pipeline_is_deterministic_and_seed_sensitive() {
    let (_, a) = run_audit(4, 60, &[UsState::Utah]);
    let (_, b) = run_audit(4, 60, &[UsState::Utah]);
    let (_, c) = run_audit(5, 60, &[UsState::Utah]);
    let rate = |ds: &caf_core::AuditDataset| ServiceabilityAnalysis::compute(ds).overall_rate();
    assert_eq!(rate(&a), rate(&b), "same seed, same result");
    assert_eq!(a.rows.len(), b.rows.len());
    assert_ne!(rate(&a), rate(&c), "different seed, different draw");
}

#[test]
fn certified_speeds_always_pass_while_advertised_do_not() {
    // The paper's central discrepancy: the regulator-facing dataset is
    // 100 % compliant on paper, the consumer-facing one is not.
    let (world, dataset) = run_audit(6, 40, &[UsState::Alabama]);
    for sw in &world.states {
        for record in &sw.usac.records {
            assert!(record.certified_down_mbps >= 10.0);
            assert!(record.certified_up_mbps >= 1.0);
        }
    }
    let compliance = ComplianceAnalysis::compute(&dataset);
    assert!(
        compliance.overall_rate() < 0.9,
        "advertised reality must fall short of certified claims"
    );
}

#[test]
fn geography_identifiers_flow_through_the_whole_pipeline() {
    // A GEOID minted in caf-geo must arrive intact in the analysis rows.
    let (world, dataset) = run_audit(7, 60, &[UsState::NewHampshire]);
    let nh = world.state(UsState::NewHampshire).expect("generated");
    for row in &dataset.rows {
        assert_eq!(row.cbg.state().code(), 33, "NH FIPS is 33");
        // The CBG must exist in the generated geography.
        assert!(
            nh.geography.cbgs.iter().any(|c| c.id == row.cbg),
            "row references unknown CBG {}",
            row.cbg
        );
        // And the GEOID string round-trips through the display format.
        let parsed: caf_geo::BlockGroupId = row.cbg.to_string().parse().expect("GEOID parses");
        assert_eq!(parsed, row.cbg);
    }
}
