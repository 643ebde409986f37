//! EXPERIMENTS.md must quote the committed golden: every "Measured"
//! figure in its headline table equals the matching line of the `repro
//! all` summary in `repro_output.txt`. Regenerating the golden without
//! updating the document (or the other way round) fails here.

const EXPERIMENTS: &str = include_str!("../../../EXPERIMENTS.md");
const GOLDEN: &str = include_str!("../../../repro_output.txt");

const ISPS: [&str; 4] = ["AT&T", "CenturyLink", "Frontier", "Consolidated"];

/// The figure after `key` on the first golden line whose words start
/// with `words`, formatted as the document prints it (`"28.27 %"`).
fn golden(words: &[&str], key: &str) -> String {
    let line: Vec<&str> = GOLDEN
        .lines()
        .map(|line| line.split_whitespace().collect::<Vec<_>>())
        .find(|line| line.starts_with(words))
        .unwrap_or_else(|| panic!("no golden line starts with {words:?}"));
    let at = line
        .iter()
        .position(|word| *word == key)
        .unwrap_or_else(|| panic!("golden line {line:?} has no {key:?}"));
    format!("{} %", line[at + 1])
}

/// `(Quantity, Measured)` for each body row of the headline table.
fn headline_rows() -> Vec<(&'static str, &'static str)> {
    let section = EXPERIMENTS
        .split("## Headline")
        .nth(1)
        .expect("EXPERIMENTS.md has a Headline section");
    section
        .lines()
        .skip_while(|line| !line.starts_with('|'))
        .take_while(|line| line.starts_with('|'))
        .skip(2) // header and separator
        .map(|line| {
            let cells: Vec<&str> = line.split('|').map(str::trim).collect();
            (cells[1], cells[3])
        })
        .collect()
}

#[test]
fn headline_measured_figures_match_the_golden() {
    let mut expected = vec![(
        "Serviceability, weighted overall".to_string(),
        golden(&["Serviceability", "rate"], "(weighted):"),
    )];
    for isp in ISPS {
        expected.push((
            format!("— {isp}"),
            golden(&[isp, "serviceability"], "serviceability"),
        ));
    }
    expected.push((
        "Compliance, weighted overall".to_string(),
        golden(&["Compliance", "rate"], "(weighted):"),
    ));
    for isp in ISPS {
        expected.push((
            format!("— {isp}"),
            golden(&[isp, "serviceability"], "compliance"),
        ));
    }

    let rows = headline_rows();
    assert!(
        rows.len() >= expected.len(),
        "headline table rows: {rows:?}"
    );
    for ((label, measured), (want_label, want)) in rows.iter().zip(&expected) {
        assert_eq!(label, want_label, "headline table row order changed");
        assert_eq!(
            measured, want,
            "EXPERIMENTS.md quotes {measured} for {want_label}; repro_output.txt says {want}"
        );
    }
}
