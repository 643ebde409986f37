//! Per-route service-level objectives with burn counters.
//!
//! An [`Slo`] pairs a latency target (the p99 objective, microseconds)
//! with an error budget (parts-per-million of requests allowed to burn).
//! Each observed request increments up to three counters in the global
//! registry under `caf.slo.<name>.`:
//!
//! * `requests` — every observation;
//! * `latency_burn` — observations over the latency target;
//! * `error_burn` — observations that failed (5xx).
//!
//! The budget itself is published once as the gauge
//! `caf.slo.<name>.budget_ppm`. Burn *fraction* is derived by readers —
//! `metrics_check --gate 'slo.max_burn <= FRAC'` fails CI when
//! `(latency_burn + error_burn) / requests` exceeds the allowed
//! fraction for any route with traffic — so the hot path stays three
//! relaxed atomic adds, all gated on the global telemetry flag.

use std::sync::Arc;

use crate::metrics::Counter;

/// A per-route SLO: latency target plus error budget, publishing burn
/// counters into the global registry. Construct once per route and
/// share (`Arc`) — observation is lock-free.
#[derive(Debug)]
pub struct Slo {
    name: String,
    target_us: u64,
    budget_ppm: u64,
    requests: Arc<Counter>,
    latency_burn: Arc<Counter>,
    error_burn: Arc<Counter>,
}

impl Slo {
    /// Creates the SLO for `name` (e.g. `v1.table2`) with a latency
    /// target of `target_us` microseconds at p99 and an error budget of
    /// `budget_ppm` parts per million. Registers the counters and the
    /// budget gauge immediately so the route shows up in reports even
    /// before traffic.
    pub fn new(name: &str, target_us: u64, budget_ppm: u64) -> Slo {
        let reg = crate::registry();
        let slo = Slo {
            name: name.to_string(),
            target_us,
            budget_ppm,
            requests: reg.counter(&format!("caf.slo.{name}.requests")),
            latency_burn: reg.counter(&format!("caf.slo.{name}.latency_burn")),
            error_burn: reg.counter(&format!("caf.slo.{name}.error_burn")),
        };
        crate::gauge(&format!("caf.slo.{name}.budget_ppm"), budget_ppm);
        slo
    }

    /// The route name this SLO covers.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The latency target in microseconds.
    pub fn target_us(&self) -> u64 {
        self.target_us
    }

    /// The error budget in parts per million.
    pub fn budget_ppm(&self) -> u64 {
        self.budget_ppm
    }

    /// Records one request: `duration_us` against the latency target,
    /// `is_error` for 5xx outcomes. No-op while telemetry is disabled.
    pub fn observe(&self, duration_us: u64, is_error: bool) {
        if !crate::enabled() {
            return;
        }
        self.requests.add(1);
        if duration_us > self.target_us {
            self.latency_burn.add(1);
        }
        if is_error {
            self.error_burn.add(1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn counter(name: &str) -> u64 {
        crate::registry().counter(name).get()
    }

    #[test]
    fn burn_counters_classify_latency_and_errors() {
        let _lock = crate::flag_lock();
        crate::set_enabled(true);
        let slo = Slo::new("test_slo_route", 1_000, 5_000);
        let base_req = counter("caf.slo.test_slo_route.requests");
        let base_lat = counter("caf.slo.test_slo_route.latency_burn");
        let base_err = counter("caf.slo.test_slo_route.error_burn");
        slo.observe(500, false); // within target
        slo.observe(1_000, false); // at target: not a burn
        slo.observe(1_001, false); // over target
        slo.observe(500, true); // fast but failed
        slo.observe(2_000, true); // slow and failed: burns both
        crate::set_enabled(false);
        assert_eq!(counter("caf.slo.test_slo_route.requests") - base_req, 5);
        assert_eq!(counter("caf.slo.test_slo_route.latency_burn") - base_lat, 2);
        assert_eq!(counter("caf.slo.test_slo_route.error_burn") - base_err, 2);
        assert_eq!(slo.target_us(), 1_000);
        assert_eq!(slo.budget_ppm(), 5_000);
        assert_eq!(slo.name(), "test_slo_route");
    }

    #[test]
    fn disabled_telemetry_records_nothing() {
        let _lock = crate::flag_lock();
        crate::set_enabled(false);
        let slo = Slo::new("test_slo_dark", 1, 1);
        let base = counter("caf.slo.test_slo_dark.requests");
        slo.observe(1_000_000, true);
        assert_eq!(counter("caf.slo.test_slo_dark.requests"), base);
    }
}
