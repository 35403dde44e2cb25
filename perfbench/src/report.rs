//! The metric catalogue and the result line.
//!
//! A run with `--trace 0` reports exactly [`END_TO_END`]; a run with
//! `--trace 1` reports exactly [`PER_LAYER`]. Both lists match
//! `BENCHMARK.json` (a test holds them together).

use std::collections::BTreeMap;

use crate::stats::valid_name;

/// End-to-end metrics: what a user of the service or the sweep sees.
pub const END_TO_END: [(&str, &str); 8] = [
    ("throughput_rps", "1/s"),
    ("p50_us", "us"),
    ("p99_us", "us"),
    ("ok_share", "share"),
    ("cost_ratio", "ratio"),
    ("sweep_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics of the traced run (layer = crate). A layer a
/// workload never enters reports 0.
pub const PER_LAYER: [(&str, &str); 55] = [
    ("serve.frame_ns", "ns"),
    ("serve.parse_ns", "ns"),
    ("serve.execute_ns.p50", "ns"),
    ("serve.execute_ns.p99", "ns"),
    ("serve.unattributed_us", "us"),
    ("serve.attributed_share", "share"),
    ("serve.batch_mean", "count"),
    ("serve.wakeups_per_req", "count"),
    ("serve.pipelined_share", "share"),
    ("serve.bytes_in_per_req", "B"),
    ("serve.bytes_out_per_req", "B"),
    ("serve.refused", "share"),
    ("serve.tiny_p99_us", "us"),
    ("instance.orlib_ns", "ns"),
    ("instance.orlib_ns_per_kb", "ns/KB"),
    ("instance.classify_ns", "ns"),
    ("instance.apply_delta_ns", "ns"),
    ("core.solve_ns.greedy", "ns"),
    ("core.solve_ns.local-search", "ns"),
    ("core.solve_ns.jv", "ns"),
    ("core.solve_ns.paydual", "ns"),
    ("core.solve_ns.metricball", "ns"),
    ("core.solve_ns.outliers", "ns"),
    ("core.solve_ns.auto", "ns"),
    ("core.warm_apply_ns", "ns"),
    ("core.warm_solve_ns.greedy", "ns"),
    ("core.warm_solve_ns.local-search", "ns"),
    ("core.warm_solve_ns.jv", "ns"),
    ("core.warm_patch_share", "share"),
    ("core.greedy_iterations", "count"),
    ("core.localsearch_moves", "count"),
    ("congest.rounds", "count"),
    ("congest.messages", "count"),
    ("congest.bits", "count"),
    ("congest.step_ns", "ns"),
    ("congest.deliver_ns", "ns"),
    ("congest.sim_ns", "ns"),
    ("congest.sim_events", "count"),
    ("congest.pulse_share", "share"),
    ("lp.lower_bound_ns", "ns"),
    ("pool.tasks", "count"),
    ("pool.steal_share", "share"),
    ("pool.sweep_speedup", "x"),
    ("bench.exp_ns.e1", "ns"),
    ("bench.exp_ns.e2", "ns"),
    ("bench.exp_ns.e3", "ns"),
    ("bench.exp_ns.e4", "ns"),
    ("bench.exp_ns.e5", "ns"),
    ("bench.exp_ns.e6", "ns"),
    ("bench.exp_ns.e7", "ns"),
    ("bench.exp_ns.e8", "ns"),
    ("bench.exp_ns.e9", "ns"),
    ("bench.exp_ns.e10", "ns"),
    ("bench.gen_lag_us", "us"),
    ("obs.overhead_share", "share"),
];

/// What one run reports: the contract's four keys plus run metadata and
/// failure samples, which go to earlier output lines.
#[derive(Debug, Default)]
pub struct Report {
    /// Operations attempted (requests, session cycles' requests, or sweep
    /// outputs checked).
    pub attempted: u64,
    /// Operations that failed, were refused, or answered wrongly.
    pub failed: u64,
    /// Whether every output check passed.
    pub correct: bool,
    metrics: BTreeMap<&'static str, f64>,
    /// Workload-specific metadata (`key`, JSON value text).
    pub meta: Vec<(String, String)>,
    /// The first failure messages, for diagnosis.
    pub failures: Vec<String>,
}

impl Report {
    /// Sets metric `name`, which must be in one of the catalogues.
    pub fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(unit_of(name).is_some(), "unknown metric {name}");
        self.metrics.insert(name, value);
    }

    /// The value set for `name`, or 0.
    pub fn get(&self, name: &str) -> f64 {
        self.metrics.get(name).copied().unwrap_or(0.0)
    }

    /// Records workload metadata; `value` is JSON text.
    pub fn meta(&mut self, key: &str, value: impl Into<String>) {
        self.meta.push((key.to_owned(), value.into()));
    }

    /// The result line for the chosen catalogue. Metrics the workload did
    /// not set read 0 (per-layer only: every end-to-end metric is always
    /// set). Errors name a metric that is missing or not finite.
    pub fn result_line(&self, traced: bool) -> Result<String, String> {
        let catalogue: &[(&str, &str)] = if traced { &PER_LAYER } else { &END_TO_END };
        let mut out = format!(
            r#"{{"correct": {}, "attempted": {}, "failed": {}, "metrics": {{"#,
            self.correct, self.attempted, self.failed
        );
        for (index, (name, unit)) in catalogue.iter().enumerate() {
            let value = match self.metrics.get(name) {
                Some(&v) => v,
                None if traced => 0.0,
                None => return Err(format!("end-to-end metric {name} was not measured")),
            };
            if !value.is_finite() || !valid_name(name) {
                return Err(format!("metric {name} is malformed or not finite ({value})"));
            }
            if index > 0 {
                out.push_str(", ");
            }
            // `{:?}` prints the shortest text that reads back as the same
            // f64 (all its digits); its exponent form is valid JSON.
            out.push_str(&format!(r#""{name}": {{"value": {value:?}, "unit": "{unit}"}}"#));
        }
        out.push_str("}}");
        Ok(out)
    }
}

/// The unit of a catalogued metric.
pub fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END.iter().chain(PER_LAYER.iter()).find(|(n, _)| *n == name).map(|&(_, u)| u)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalogue_names_and_units_are_valid_and_unique() {
        let all: Vec<&str> = END_TO_END.iter().chain(PER_LAYER.iter()).map(|(n, _)| *n).collect();
        for name in &all {
            assert!(valid_name(name), "{name}");
        }
        let mut sorted = all.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), all.len(), "metric names are used once");
        for (_, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
            assert!(unit.len() <= 16);
            assert!(unit.chars().all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
    }

    #[test]
    fn catalogue_matches_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
        let section = |key: &str| -> String {
            let start = text.find(&format!("\"{key}\"")).expect("section present");
            let end = text[start..].find(']').expect("section closes") + start;
            text[start..end].to_owned()
        };
        for (key, list) in [("end_to_end", &END_TO_END[..]), ("per_layer", &PER_LAYER[..])] {
            let body = section(key);
            let named = body.matches("\"name\"").count();
            assert_eq!(named, list.len(), "{key} lists every metric once");
            for (name, unit) in list {
                let entry = format!(r#""name": "{name}", "unit": "{unit}""#);
                assert!(body.contains(&entry), "{key} lacks {entry}");
            }
        }
    }

    #[test]
    fn result_line_reports_exactly_the_catalogue() {
        let mut report = Report { correct: true, attempted: 3, ..Report::default() };
        for (name, _) in END_TO_END {
            report.set(name, 1.5);
        }
        let line = report.result_line(false).unwrap();
        assert!(line.starts_with(r#"{"correct": true, "attempted": 3, "failed": 0, "metrics": {"#));
        assert_eq!(line.matches("\"value\"").count(), END_TO_END.len());
        let traced = report.result_line(true).unwrap();
        assert_eq!(traced.matches("\"value\"").count(), PER_LAYER.len());
        let mut partial = Report::default();
        partial.set("p50_us", 2.0);
        assert!(partial.result_line(false).is_err(), "missing end-to-end metrics are an error");
        partial.set("serve.frame_ns", f64::NAN);
        assert!(partial.result_line(true).is_err(), "non-finite values are an error");
    }
}
