//! Cross-crate determinism matrix for the policy sweep engine: every
//! scheduling shape — worker count × shard policy × steal on/off —
//! must emit byte-identical canonical JSON and CSV. This is the same
//! contract ci.sh proves end-to-end through the `caf-sweep` binary;
//! here it is pinned at the library layer across the full matrix.

use caf_core::artifact::to_canonical_bytes;
use caf_exec::ShardPolicy;
use caf_snap::fnv1a;
use caf_sweep::{results_artifact, results_csv, SweepOptions, SweepRun, SweepSpec};

/// Two states at two scales so the plan has real cost skew (Vermont at
/// 1000 is four times New Hampshire at 2000) without debug-mode runs
/// getting expensive; two tiers and both subsidy rules exercise the
/// policy axes.
fn spec() -> SweepSpec {
    SweepSpec::from_json(
        r#"{
            "seed": 11,
            "states": ["VT", "NH"],
            "scales": [1000, 2000],
            "speed_tiers": ["10_1", "25_3"],
            "price_cap_multipliers": [0.75, 1.0],
            "subsidy_rules": ["status_quo", "full_buildout"]
        }"#,
    )
    .expect("matrix spec is valid")
}

#[test]
fn emissions_are_byte_identical_across_the_full_schedule_matrix() {
    let spec = spec();
    let reference = SweepRun::run(
        &spec,
        SweepOptions {
            workers: 1,
            steal: false,
            policy: ShardPolicy::disabled(),
        },
    );
    let reference_json = to_canonical_bytes(&results_artifact(&reference));
    let reference_csv = results_csv(&reference);
    assert_eq!(reference.results.len(), spec.cell_count());

    for workers in [1usize, 2, 4] {
        for steal in [false, true] {
            for (name, policy) in [
                ("finest", ShardPolicy::finest()),
                ("default", ShardPolicy::default_policy()),
                ("disabled", ShardPolicy::disabled()),
            ] {
                let run = SweepRun::run(
                    &spec,
                    SweepOptions {
                        workers,
                        steal,
                        policy,
                    },
                );
                let label = format!("workers={workers} steal={steal} policy={name}");
                assert_eq!(
                    to_canonical_bytes(&results_artifact(&run)),
                    reference_json,
                    "{label}"
                );
                assert_eq!(results_csv(&run), reference_csv, "{label}");
            }
        }
    }
}

#[test]
fn committed_ci_spec_stays_valid() {
    // ci.sh runs the release binary over this committed file; a test
    // keeps the file honest without paying for a 48-cell debug run.
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../testdata/sweep_spec.json"
    );
    let text = std::fs::read_to_string(path).expect("committed sweep spec exists");
    let spec = SweepSpec::from_json(&text).expect("committed sweep spec parses");
    assert_eq!(spec.cell_count(), 48);
    // Keys must be unique across the grid — the content-addressed
    // cache contract.
    let mut keys: Vec<_> = spec.cells().iter().map(|c| c.key(spec.seed)).collect();
    keys.sort();
    keys.dedup();
    assert_eq!(keys.len(), 48);
}

#[test]
fn results_csv_bytes_are_pinned() {
    // The `results.csv` bytes the sweep has always emitted for an 8-cell
    // grid (2 states × 2 tiers × 2 rules; empty statistics included):
    // any change to the CSV writer or a column's formatting moves them.
    let spec = SweepSpec::from_json(
        r#"{
            "seed": 7,
            "states": ["VT", "NH"],
            "scales": [2000],
            "speed_tiers": ["10_1", "100_20"],
            "price_cap_multipliers": [1.0],
            "subsidy_rules": ["status_quo", "full_buildout"]
        }"#,
    )
    .expect("pinned spec is valid");
    let csv = results_csv(&SweepRun::run(&spec, SweepOptions::default()));
    assert_eq!(csv.lines().count(), 1 + spec.cell_count());
    assert_eq!(fnv1a(csv.as_bytes()), 0x3f1b_603f_28f2_da83);
}
