//! The metric catalog, the per-run value store, and the result line.
//!
//! The catalog mirrors `BENCHMARK.json` (a test keeps the two in step);
//! `README.md` next to this crate says what each metric means on each
//! workload and which end-to-end metric each layer metric should move.

use sdp_json::Json;
use std::collections::BTreeMap;

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    /// The `BENCHMARK.json` spelling.
    pub fn name(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One catalogued metric.
#[derive(Debug, Clone, Copy)]
pub struct Def {
    /// Metric name as printed.
    pub name: &'static str,
    /// Unit as printed.
    pub unit: &'static str,
    /// Improvement direction.
    pub better: Better,
}

const fn def(name: &'static str, unit: &'static str, better: Better) -> Def {
    Def { name, unit, better }
}

use Better::{Higher, Lower};

/// Metrics a user of the placer sees; printed by untraced runs.
pub const END_TO_END: &[Def] = &[
    def("setup_s", "s", Lower),
    def("flow_wall_s", "s", Lower),
    def("hpwl_total", "dbu", Lower),
    def("hpwl_datapath", "dbu", Lower),
    def("aligned_row_fraction", "ratio", Higher),
    def("routed_wl", "dbu", Lower),
    def("routed_overflow", "count", Lower),
    def("jobs_per_sec", "1/s", Higher),
    def("job_latency_p50_s", "s", Lower),
    def("job_latency_p90_s", "s", Lower),
    def("peak_rss_bytes", "bytes", Lower),
];

/// Metrics of single layers (crates); printed by traced runs.
pub const PER_LAYER: &[Def] = &[
    def("netlist.read_bookshelf_s", "s", Lower),
    def("extract.s", "s", Lower),
    def("extract.groups", "count", Higher),
    def("extract.group_cells", "count", Higher),
    def("gp.s", "s", Lower),
    def("gp.evals", "count", Lower),
    def("gp.outer_iters", "count", Lower),
    def("gp.ms_per_eval", "ms", Lower),
    def("gp.final_overflow", "ratio", Lower),
    def("gp.wl_grad_ms", "ms", Lower),
    def("gp.density_ms", "ms", Lower),
    def("gp.cluster_s", "s", Lower),
    def("gp.kernel_share_est", "ratio", Lower),
    def("core.align_ms", "ms", Lower),
    def("core.glue_s", "s", Lower),
    def("legal.legalize_s", "s", Lower),
    def("legal.detailed_s", "s", Lower),
    def("legal.calls", "count", Lower),
    def("legal.mean_displacement", "dbu", Lower),
    def("legal.failed_cells", "count", Lower),
    def("legal.detailed_accepted", "count", Higher),
    def("legal.check_s", "s", Lower),
    def("route.s", "s", Lower),
    def("route.kept_overflow", "count", Lower),
    def("route.calls", "count", Lower),
    def("route.rrr_iterations", "count", Lower),
    def("route.gcells_per_s", "gcells/s", Higher),
    def("route.rounds_run", "count", Lower),
    def("route.rounds_kept_ratio", "ratio", Higher),
    def("route.rudy_ms", "ms", Lower),
    def("route.inflate_ms", "ms", Lower),
    def("eval.metrics_s", "s", Lower),
    def("serve.submit_ms_p50", "ms", Lower),
    def("serve.hit_latency_p50_s", "s", Lower),
    def("serve.absorbed_ratio", "ratio", Higher),
    def("serve.placements_run", "count", Lower),
    def("serve.queue_wait_p50_s", "s", Lower),
    def("serve.run_s_p50", "s", Lower),
    def("serve.polls_per_job", "count", Lower),
    def("trace.overhead_s", "s", Lower),
    def("trace.spans", "count", Higher),
];

/// Operations a run attempted and the ones whose output was wrong.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations with at least one failed check.
    pub failed: u64,
    /// One line per failed check.
    pub failures: Vec<String>,
}

impl Outcome {
    /// Records one operation; it failed when `errors` is non-empty.
    pub fn record(&mut self, what: &str, errors: Vec<String>) {
        self.attempted += 1;
        if !errors.is_empty() {
            self.failed += 1;
            self.failures
                .extend(errors.into_iter().map(|e| format!("{what}: {e}")));
        }
    }
}

/// The values one run measured. A metric that does not apply to the
/// workload still gets a value (the result line must carry every metric
/// of its set) plus the reason it is n/a, printed next to it.
#[derive(Debug, Default)]
pub struct Metrics {
    values: BTreeMap<&'static str, (f64, Option<&'static str>)>,
}

impl Metrics {
    /// Sets a measured value.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.values.insert(name, (value, None));
    }

    /// Marks a metric n/a on this workload, printed as `placeholder`.
    pub fn na(&mut self, name: &'static str, placeholder: f64, reason: &'static str) {
        self.values.insert(name, (placeholder, Some(reason)));
    }

    /// A value, if set.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.get(name).map(|v| v.0)
    }
}

/// Human-readable lines plus the final result line for the metrics in
/// `defs`. A catalogued metric the run never set is a benchmark bug: it
/// is printed as 0 and the run is marked incorrect.
pub fn render(defs: &[Def], metrics: &Metrics, outcome: &Outcome) -> (Vec<String>, String) {
    let mut lines = Vec::new();
    let mut out = BTreeMap::new();
    let mut missing = 0;
    for d in defs {
        let (value, na) = match metrics.values.get(d.name) {
            Some(&(v, na)) => (v, na),
            None => {
                missing += 1;
                lines.push(format!("error: metric {} was not measured", d.name));
                (0.0, None)
            }
        };
        let note = na.map(|r| format!("  (n/a: {r})")).unwrap_or_default();
        lines.push(format!(
            "{:<26} {:>16.6} {:<8} {:<6}{note}",
            d.name,
            value,
            d.unit,
            d.better.name()
        ));
        out.insert(
            d.name.to_string(),
            Json::obj([("value", Json::num(value)), ("unit", Json::str(d.unit))]),
        );
    }
    lines.extend(outcome.failures.iter().map(|f| format!("FAILED {f}")));
    let result = Json::obj([
        (
            "correct",
            Json::Bool(outcome.failed == 0 && missing == 0 && outcome.attempted > 0),
        ),
        ("attempted", Json::num(outcome.attempted.max(1) as f64)),
        ("failed", Json::num(outcome.failed as f64)),
        ("metrics", Json::Obj(out)),
    ]);
    (lines, result.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn manifest() -> Json {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        sdp_json::parse(&text).expect("BENCHMARK.json parses")
    }

    fn listed(manifest: &Json, key: &str) -> Vec<(String, String, String)> {
        manifest
            .get(key)
            .and_then(Json::as_arr)
            .expect("metric list")
            .iter()
            .map(|m| {
                let s = |k: &str| m.get(k).and_then(Json::as_str).expect(k).to_string();
                (s("name"), s("unit"), s("better"))
            })
            .collect()
    }

    fn catalog(defs: &[Def]) -> Vec<(String, String, String)> {
        defs.iter()
            .map(|d| (d.name.into(), d.unit.into(), d.better.name().into()))
            .collect()
    }

    #[test]
    fn catalog_matches_benchmark_json() {
        let m = manifest();
        assert_eq!(listed(&m, "end_to_end"), catalog(END_TO_END));
        assert_eq!(listed(&m, "per_layer"), catalog(PER_LAYER));
    }

    #[test]
    fn failures_are_counted_not_dropped() {
        let mut o = Outcome::default();
        o.record("call 0", Vec::new());
        o.record("call 1", vec!["a".into(), "b".into()]);
        assert_eq!((o.attempted, o.failed), (2, 1));
        assert_eq!(o.failures, ["call 1: a", "call 1: b"]);
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let mut m = Metrics::default();
        m.set("setup_s", 0.5);
        let mut o = Outcome::default();
        o.record("op", Vec::new());
        let defs = &END_TO_END[..1];
        let (_, line) = render(defs, &m, &o);
        let v = sdp_json::parse(&line).expect("result line is JSON");
        let keys: Vec<&String> = v.as_obj().expect("object").keys().collect();
        assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
        assert_eq!(v.get("correct").and_then(Json::as_bool), Some(true));
        let s = v
            .get("metrics")
            .and_then(|m| m.get("setup_s"))
            .expect("metric");
        assert_eq!(s.get("unit").and_then(Json::as_str), Some("s"));

        // A missing metric makes the run incorrect.
        let (_, line) = render(&END_TO_END[..2], &m, &o);
        let v = sdp_json::parse(&line).expect("result line is JSON");
        assert_eq!(v.get("correct").and_then(Json::as_bool), Some(false));
    }
}
