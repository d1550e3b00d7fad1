//! The metrics the benchmark reports: their names, units, directions and
//! regression bounds. `BENCHMARK.json` lists the same metrics.

/// An end-to-end metric and the bound by which it may worsen before a
/// change counts as a regression.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct E2e {
    /// Name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// True when larger values are better.
    pub higher_is_better: bool,
    /// Allowed worsening as a share of the base median.
    pub bound: f64,
    /// Allowed worsening in the metric's unit, when larger than `bound`'s.
    pub bound_abs: f64,
}

impl E2e {
    /// The worsening a change may show against a base median.
    pub fn allowed(&self, base_median: f64) -> f64 {
        (self.bound * base_median.abs()).max(self.bound_abs)
    }

    /// By how much `change` is worse than `base` (negative when better).
    pub fn worsening(&self, base: f64, change: f64) -> f64 {
        if self.higher_is_better {
            base - change
        } else {
            change - base
        }
    }
}

/// Masks classified per second of timed-cell wall time.
pub const VERDICTS_PER_S: E2e = E2e {
    name: "verdicts_per_s",
    unit: "1/s",
    higher_is_better: true,
    bound: 0.20,
    bound_abs: 0.0,
};

/// Time from cell start to the first injection dispatch.
pub const SETUP_S: E2e = E2e {
    name: "setup_s",
    unit: "s",
    higher_is_better: false,
    bound: 0.25,
    bound_abs: 0.05,
};

/// The most heap a cell held while it ran, beyond what the process held
/// when it started.
pub const PEAK_HEAP_MB: E2e = E2e {
    name: "peak_heap_mb",
    unit: "MB",
    higher_is_better: false,
    bound: 0.05,
    bound_abs: 0.0,
};

/// Failed masks over attempted masks. Always 0 on a correct build, so it
/// is reported by `run` and `compare` but not listed in BENCHMARK.json.
pub const ERROR_RATE: E2e = E2e {
    name: "error_rate",
    unit: "share",
    higher_is_better: false,
    bound: 0.0,
    bound_abs: 0.0,
};

/// The end-to-end metrics a measured run reports.
pub const E2E: [E2e; 3] = [VERDICTS_PER_S, SETUP_S, PEAK_HEAP_MB];

/// A per-layer metric from the traced run: name, unit, and whether larger
/// is better.
pub type Layer = (&'static str, &'static str, bool);

/// Every per-layer metric, in report order.
pub const LAYERS: [Layer; 33] = [
    ("golden.s", "s", false),
    ("golden.mcyc_per_s", "Mcyc/s", true),
    ("golden.cycles", "cycles", false),
    ("snapshots.s", "s", false),
    ("snapshots.count", "count", false),
    ("restore.us_p50", "us", false),
    ("restore.us_tail", "us", false),
    ("restore.tail_pct", "%", true),
    ("restore.samples", "count", true),
    ("dispatch.calls", "count", false),
    ("dispatch.warm_share", "share", true),
    ("dispatch.busy_s", "s", false),
    ("dispatch.ms_p50", "ms", false),
    ("dispatch.ms_tail", "ms", false),
    ("dispatch.tail_pct", "%", true),
    ("dispatch.sim_mcycles", "Mcyc", false),
    ("dispatch.ns_per_cycle", "ns", false),
    ("dispatch.early_stop_share", "share", true),
    ("dispatch.timeout_share", "share", false),
    ("dispatch.completed_masked_share", "share", false),
    ("pool.utilization", "share", true),
    ("ace.residency_s", "s", false),
    ("ace.profile_s", "s", false),
    ("masks.partition_s", "s", false),
    ("masks.classes", "count", false),
    ("masks.collapse_ratio", "ratio", true),
    ("sink.journal_s", "s", false),
    ("sink.journal_bytes", "bytes", false),
    ("sink.trace_s", "s", false),
    ("runner.self_s", "s", false),
    ("classify.s", "s", false),
    ("obs.fault_trace_overhead", "share", false),
    ("bench.span_overhead", "share", false),
];

/// The repository's `BENCHMARK.json`, which the tests hold this crate to.
#[cfg(test)]
pub fn benchmark_json() -> difi::util::json::Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json");
    difi::util::json::parse(&text).expect("BENCHMARK.json is JSON")
}

#[cfg(test)]
mod tests {
    use super::*;
    use difi::util::json::Json;

    fn listed(doc: &Json, key: &str) -> Vec<(String, String, bool, Option<f64>)> {
        doc.get(key)
            .and_then(Json::as_arr)
            .expect("metric list")
            .iter()
            .map(|m| {
                let s = |k: &str| m.get(k).and_then(Json::as_str).expect("field").to_string();
                let better = s("better");
                assert!(better == "higher" || better == "lower");
                let bound = m.get("bound").and_then(Json::as_f64);
                (s("name"), s("unit"), better == "higher", bound)
            })
            .collect()
    }

    #[test]
    fn benchmark_json_lists_exactly_these_metrics() {
        let doc = benchmark_json();
        let e2e: Vec<_> = E2E
            .iter()
            .map(|m| {
                let bound = Some(m.bound);
                (
                    m.name.to_string(),
                    m.unit.to_string(),
                    m.higher_is_better,
                    bound,
                )
            })
            .collect();
        assert_eq!(listed(&doc, "end_to_end"), e2e);
        let layers: Vec<_> = LAYERS
            .iter()
            .map(|&(n, u, h)| (n.to_string(), u.to_string(), h, None))
            .collect();
        assert_eq!(listed(&doc, "per_layer"), layers);
    }

    #[test]
    fn setup_has_the_largest_bound() {
        assert!(E2E.iter().all(|m| m.bound <= SETUP_S.bound));
    }
}
