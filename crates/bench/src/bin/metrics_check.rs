//! # metrics_check — CI gate for caf-obs run-report JSON
//!
//! Reads a run-report JSON file (produced by `repro --metrics FILE` or a
//! bench harness), validates it against the caf-obs schema (exact key
//! sets, sorted keys, ordered duration statistics), and — unless
//! `--schema-only` is given — asserts the content the observability
//! layer promises for an audit run:
//!
//! * at least one per-state engine span (`state.<ABBREV>`),
//! * the `index.build` span,
//! * a non-zero `caf.bqt.campaign.queries` counter,
//! * the `caf.core.engine.workers.effective` gauge.
//!
//! `--schema-only` keeps the structural validation but skips the
//! audit-content assertions; CI uses it for reports whose content is a
//! different pipeline (e.g. `BENCH_world.json`, which records world
//! generation and bootstrap spans, not an audit).
//!
//! `--gate '<metric> <op> <number>'` (repeatable; `op` is `>=` or `<=`)
//! fails unless the report's metric satisfies the comparison; a metric
//! the report lacks fails too. Metrics come from three namespaces:
//! `meta.<key>` (report metadata such as a bench speedup, as a JSON
//! number or a quoted numeric string), `gauges.<name>` (a registry
//! gauge such as `caf.snap.restore_us`) and `slo.max_burn` (the worst
//! `(latency_burn + error_burn) / requests` over the `caf.slo.<route>.*`
//! counters of a server `/metrics` report, among routes with traffic;
//! missing when no route saw any). The `metric_gate` lines in `ci.sh`
//! are the gate table: report, metric, threshold and core floor.
//!
//! Exits non-zero with a message on the first violation, so `ci.sh` can
//! use it as a schema-drift gate.

use caf_obs::json::Json;
use caf_obs::validate_report_json;

fn fail(message: &str) -> ! {
    eprintln!("metrics_check: {message}");
    std::process::exit(1);
}

/// Reads a JSON number or a quoted numeric string.
fn number(value: &Json) -> Option<f64> {
    match value {
        Json::UInt(v) => Some(*v as f64),
        Json::Num(v) => Some(*v),
        Json::Str(s) => s.parse().ok(),
        _ => None,
    }
}

/// Returns the sorted key/value pairs of `report.metrics.<name>` (empty
/// when absent; the schema check requires both sections).
fn section<'a>(report: &'a Json, name: &str) -> &'a [(String, Json)] {
    report
        .get("metrics")
        .and_then(|m| m.get(name))
        .and_then(Json::as_obj)
        .unwrap_or_default()
}

/// One `--gate` expression: `metric` must be at least (or at most) `threshold`.
struct Gate {
    metric: String,
    at_least: bool,
    threshold: f64,
}

impl Gate {
    /// Parses `<metric> <op> <number>`, rejecting an unknown namespace,
    /// an unknown op or a non-numeric threshold.
    fn parse(expr: &str) -> Result<Gate, String> {
        let parts: Vec<&str> = expr.split_whitespace().collect();
        let [metric, op, threshold] = parts[..] else {
            return Err(format!("gate {expr:?} is not `<metric> <op> <number>`"));
        };
        let known = match metric.split_once('.') {
            Some(("meta" | "gauges", name)) => !name.is_empty(),
            _ => metric == "slo.max_burn",
        };
        if !known {
            return Err(format!(
                "gate {expr:?}: unknown metric {metric:?} \
                 (expected meta.<key>, gauges.<name> or slo.max_burn)"
            ));
        }
        let at_least = match op {
            ">=" => true,
            "<=" => false,
            _ => return Err(format!("gate {expr:?}: unknown op {op:?}, not >= or <=")),
        };
        let threshold = threshold
            .parse::<f64>()
            .ok()
            .filter(|t| t.is_finite())
            .ok_or_else(|| format!("gate {expr:?}: threshold {threshold:?} is not a number"))?;
        Ok(Gate {
            metric: metric.to_string(),
            at_least,
            threshold,
        })
    }

    /// Evaluates the gate: `Ok` with the passing comparison, `Err` with
    /// the violation (a missing metric is one).
    fn check(&self, report: &Json) -> Result<String, String> {
        let (value, note) = resolve(report, &self.metric)?;
        let (op, holds) = if self.at_least {
            (">=", value >= self.threshold)
        } else {
            ("<=", value <= self.threshold)
        };
        let comparison = format!("{} {value} {op} {}{note}", self.metric, self.threshold);
        if holds {
            Ok(comparison)
        } else {
            Err(format!("gate failed: {comparison} does not hold"))
        }
    }
}

/// The value of a metric [`Gate::parse`] accepted, with a note naming
/// what a derived value came from; `Err` when the report lacks it.
fn resolve(report: &Json, metric: &str) -> Result<(f64, String), String> {
    let value = match metric.split_once('.') {
        Some(("meta", key)) => report.get("meta").and_then(|m| m.get(key)),
        Some(("gauges", name)) => section(report, "gauges")
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v),
        _ => return max_slo_burn(report),
    };
    value
        .and_then(number)
        .map(|v| (v, String::new()))
        .ok_or_else(|| format!("`{metric}` missing or not a number"))
}

/// The worst SLO burn over routes with traffic, noting that route.
fn max_slo_burn(report: &Json) -> Result<(f64, String), String> {
    let counters = section(report, "counters");
    let counter = |name: String| {
        counters
            .iter()
            .find(|(n, _)| *n == name)
            .and_then(|(_, value)| value.as_u64())
            .unwrap_or(0)
    };
    counters
        .iter()
        .filter_map(|(name, value)| {
            let route = name.strip_prefix("caf.slo.")?.strip_suffix(".requests")?;
            let requests = value.as_u64().filter(|&requests| requests > 0)?;
            let burned = counter(format!("caf.slo.{route}.latency_burn"))
                + counter(format!("caf.slo.{route}.error_burn"));
            let note = format!(" (worst route {route}: {burned}/{requests} requests slow or 5xx)");
            Some((burned as f64 / requests as f64, note))
        })
        .max_by(|a, b| a.0.total_cmp(&b.0))
        .ok_or_else(|| "no caf.slo.<route>.requests counter saw traffic; nothing to gate".into())
}

fn main() {
    let mut schema_only = false;
    let mut gates = Vec::new();
    let mut path: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--schema-only" => schema_only = true,
            "--gate" => {
                let expr = args
                    .next()
                    .unwrap_or_else(|| fail("--gate needs '<metric> <op> <number>'"));
                gates.push(Gate::parse(&expr).unwrap_or_else(|error| fail(&error)));
            }
            other if path.is_none() && !other.starts_with("--") => path = Some(other.to_string()),
            other => fail(&format!("unexpected argument {other:?}")),
        }
    }
    let path = path.unwrap_or_else(|| {
        fail("usage: metrics_check [--schema-only] [--gate '<metric> <op> <number>']... <report.json>")
    });
    let text = std::fs::read_to_string(&path)
        .unwrap_or_else(|error| fail(&format!("cannot read {path}: {error}")));
    let report = validate_report_json(&text)
        .unwrap_or_else(|error| fail(&format!("schema violation in {path}: {error}")));

    let spans = report
        .get("spans")
        .and_then(Json::as_obj)
        .unwrap_or_else(|| fail("report has no spans object"));
    let counters = section(&report, "counters");
    let gauges = section(&report, "gauges");

    if !schema_only {
        if !spans.iter().any(|(name, _)| name.contains("state.")) {
            fail("no per-state engine span (expected a path containing `state.`)");
        }
        if !spans.iter().any(|(name, _)| name.contains("index.build")) {
            fail("no `index.build` span");
        }

        let queries = counters
            .iter()
            .find(|(name, _)| name == "caf.bqt.campaign.queries")
            .and_then(|(_, value)| value.as_u64())
            .unwrap_or_else(|| fail("counter `caf.bqt.campaign.queries` missing"));
        if queries == 0 {
            fail("counter `caf.bqt.campaign.queries` is zero");
        }

        if !gauges
            .iter()
            .any(|(name, _)| name == "caf.core.engine.workers.effective")
        {
            fail("gauge `caf.core.engine.workers.effective` missing");
        }
    }

    for gate in &gates {
        let comparison = gate.check(&report).unwrap_or_else(|error| fail(&error));
        println!("metrics_check: {comparison}");
    }

    let mode = if schema_only { " [schema only]" } else { "" };
    println!(
        "metrics_check: OK{mode} ({path}: {} spans, {} counters, {} gauges)",
        spans.len(),
        counters.len(),
        gauges.len()
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    /// An in-memory report with the given `meta`, counter and gauge
    /// object bodies.
    fn report(meta: &str, counters: &str, gauges: &str) -> Json {
        let text = format!(
            r#"{{"meta":{{{meta}}},"metrics":{{"counters":{{{counters}}},"gauges":{{{gauges}}}}},"spans":{{}}}}"#
        );
        caf_obs::json::parse(&text).expect("test report parses")
    }

    fn check(report: &Json, expr: &str) -> Result<String, String> {
        Gate::parse(expr)?.check(report)
    }

    #[test]
    fn ops_compare_at_and_around_the_threshold() {
        let r = report(r#""speedup":"1.30""#, "", "");
        assert!(check(&r, "meta.speedup >= 1.29").is_ok());
        assert!(check(&r, "meta.speedup >= 1.3").is_ok());
        assert!(check(&r, "meta.speedup >= 1.31").is_err());
        assert!(check(&r, "meta.speedup <= 1.29").is_err());
        assert!(check(&r, "meta.speedup <= 1.3").is_ok());
        assert!(check(&r, "meta.speedup <= 1.31").is_ok());
    }

    #[test]
    fn meta_reads_quoted_strings_and_json_numbers() {
        let r = report(r#""quoted":"12.5","float":12.5,"int":12"#, "", "");
        for metric in ["meta.quoted", "meta.float"] {
            assert!(check(&r, &format!("{metric} >= 12.5")).is_ok(), "{metric}");
            assert!(check(&r, &format!("{metric} <= 12.4")).is_err(), "{metric}");
        }
        assert!(check(&r, "meta.int <= 12").is_ok());
    }

    #[test]
    fn missing_meta_and_gauges_fail() {
        let r = report(
            r#""tool":"serve_bench""#,
            "",
            r#""caf.snap.restore_us":41000"#,
        );
        let error = check(&r, "meta.restart_speedup >= 10").unwrap_err();
        assert!(error.contains("`meta.restart_speedup` missing"), "{error}");
        assert!(
            check(&r, "meta.tool >= 0").is_err(),
            "a non-numeric meta fails"
        );
        let error = check(&r, "gauges.caf.snap.restore_us_p99 <= 1").unwrap_err();
        assert!(
            error.contains("`gauges.caf.snap.restore_us_p99` missing"),
            "{error}"
        );
        assert!(check(&r, "gauges.caf.snap.restore_us <= 50000").is_ok());
        assert!(check(&r, "gauges.caf.snap.restore_us <= 40000").is_err());
    }

    #[test]
    fn slo_max_burn_gates_the_worst_route_with_traffic() {
        let counters = r#""caf.slo.healthz.latency_burn":3,"caf.slo.healthz.requests":4,
            "caf.slo.v1.q3.requests":0,"caf.slo.v1.q3.error_burn":0,
            "caf.slo.v1.table2.error_burn":1,"caf.slo.v1.table2.latency_burn":1,
            "caf.slo.v1.table2.requests":10"#;
        let r = report("", counters, "");
        let error = check(&r, "slo.max_burn <= 0.5").unwrap_err();
        assert!(error.contains("worst route healthz: 3/4"), "{error}");
        assert!(check(&r, "slo.max_burn <= 0.75").is_ok());

        let idle = report("", r#""caf.slo.v1.q3.requests":0"#, "");
        let error = check(&idle, "slo.max_burn <= 0.5").unwrap_err();
        assert!(error.contains("saw traffic"), "{error}");
    }

    #[test]
    fn malformed_gates_are_rejected_with_a_message() {
        for (expr, needle) in [
            ("spans.index.build >= 1", "unknown metric"),
            ("slo.min_burn <= 1", "unknown metric"),
            ("meta. >= 1", "unknown metric"),
            ("meta.speedup > 1", "unknown op"),
            ("meta.speedup == 1", "unknown op"),
            ("meta.speedup >= fast", "not a number"),
            ("meta.speedup >= NaN", "not a number"),
            ("meta.speedup >=", "is not `<metric> <op> <number>`"),
            ("", "is not `<metric> <op> <number>`"),
        ] {
            let error = Gate::parse(expr)
                .err()
                .unwrap_or_else(|| panic!("{expr:?} parsed"));
            assert!(error.contains(needle), "{expr:?}: {error}");
        }
    }
}
