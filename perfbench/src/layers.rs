//! The metric catalogue: every end-to-end and per-layer metric the
//! benchmark reports, with its unit. `BENCHMARK.json` lists the same
//! names; the self-test in `run.py` checks that the two agree.

use std::collections::BTreeMap;

use crate::trace::{self_by_name, Span};
use crate::{line, Checks};

/// End-to-end metrics, reported by every untraced run.
pub const END_TO_END: [(&str, &str); 3] = [
    ("setup_s", "s"),
    ("work_per_s", "1/s"),
    ("peak_rss_mib", "MiB"),
];

/// Per-layer metrics other than the per-registry-row ISS figures.
/// A traced run reports all of them; a layer the workload bypasses
/// reads 0.
const LAYER_METRICS: [(&str, &str); 40] = [
    ("sim.run_device_s", "s"),
    ("sim.ns_per_event", "ns"),
    ("sim.events_per_device_day", "count"),
    ("sim.queue_high_water_max", "count"),
    ("sim.device_ms_p50", "ms"),
    ("sim.device_ms_p99", "ms"),
    ("sim.device_samples", "count"),
    ("fault.episodes", "count"),
    ("fault.gated_windows", "count"),
    ("fault.brownouts", "count"),
    ("fault.ble_retries", "count"),
    ("fault.ble_dropped", "count"),
    ("scenario.compile_s", "s"),
    ("scenario.contact_entries", "count"),
    ("scenario.epidemic_fold_s", "s"),
    ("record.encode_s", "s"),
    ("record.decode_s", "s"),
    ("record.bytes_per_device", "B"),
    ("fleet.fold_s", "s"),
    ("fleet.merge_s", "s"),
    ("worker.wall_s_max", "s"),
    ("worker.wall_s_min", "s"),
    ("shard.imbalance", "ratio"),
    ("coord.wait_s", "s"),
    ("worker.peak_rss_mib", "MiB"),
    ("metrics.snapshot_s", "s"),
    ("policy.candidate_s_p50", "s"),
    ("policy.candidate_s_max", "s"),
    ("policy.target_m4", "count"),
    ("policy.target_ibex", "count"),
    ("policy.target_cluster", "count"),
    ("policy.backoff_skips", "count"),
    ("policy.sync_stretches", "count"),
    ("kernels.deploy_s", "s"),
    ("kernels.budget_s", "s"),
    ("kernels.paper_max_rel_err", "ratio"),
    ("bench.config_s", "s"),
    ("trace.overhead_frac", "ratio"),
    ("trace.unattributed_frac", "ratio"),
    ("trace.spans", "count"),
];

/// Short names of the two evaluation networks, in `evaluation_nets`
/// order.
pub const NETS: [&str; 2] = ["neta", "netb"];

/// The per-row ISS metric names for registry row `id` on network `net`.
pub fn iss_names(net: &str, id: &str) -> (String, String) {
    (
        format!("iss.minstr_per_s.{net}.{id}"),
        format!("iss.instructions.{net}.{id}"),
    )
}

/// Every per-layer metric name with its unit, in report order.
pub fn catalogue() -> Vec<(String, &'static str)> {
    let mut out: Vec<(String, &'static str)> = LAYER_METRICS
        .iter()
        .map(|&(name, unit)| (name.to_string(), unit))
        .collect();
    for net in NETS {
        for entry in iw_kernels::registry() {
            let (minstr, instr) = iss_names(net, entry.id);
            out.push((minstr, "Minstr/s"));
            out.push((instr, "count"));
        }
    }
    out
}

/// Per-layer values of one traced run, pre-filled with 0 for every
/// catalogued metric.
pub struct Layers {
    values: BTreeMap<String, f64>,
}

impl Layers {
    pub fn new() -> Layers {
        Layers {
            values: catalogue().into_iter().map(|(n, _)| (n, 0.0)).collect(),
        }
    }

    /// Sets a catalogued metric.
    ///
    /// # Panics
    ///
    /// Panics on a name outside the catalogue (a bug in this program).
    pub fn set(&mut self, name: &str, value: f64) {
        *self
            .values
            .get_mut(name)
            .unwrap_or_else(|| panic!("metric '{name}' is not in the catalogue")) = value;
    }

    pub fn get(&self, name: &str) -> f64 {
        self.values[name]
    }

    /// `(name, value, unit)` in catalogue order.
    pub fn rows(&self) -> Vec<(String, f64, &'static str)> {
        catalogue()
            .into_iter()
            .map(|(name, unit)| {
                let v = self.values[&name];
                (name, v, unit)
            })
            .collect()
    }
}

/// Span names that structure a trace but belong to no layer; their self
/// time counts as unattributed.
pub const STRUCTURAL: [&str; 5] = [
    "run.traced",
    "run.devices",
    "run.shard",
    "run.candidate",
    "run.round",
];

/// Σ self seconds per layer span name (structural spans excluded).
pub fn layer_self_s(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    self_by_name(spans, &STRUCTURAL)
        .into_iter()
        .map(|(name, (_, ns))| (name, ns as f64 * 1e-9))
        .collect()
}

/// The first root span and its descendants: the traced run proper,
/// without spans recorded after it (e.g. a standalone budget call).
pub fn first_root(spans: &[Span]) -> &[Span] {
    let end = spans
        .iter()
        .skip(1)
        .position(|s| s.parent.is_none())
        .map_or(spans.len(), |i| i + 1);
    &spans[..end]
}

/// `trace.*`: overhead (`traced_s` against `untraced_s`, the same work
/// timed without spans), the share of the first root span's wall no
/// layer span inside it accounts for, and the span count.
pub fn trace_accounting(layers: &mut Layers, spans: &[Span], traced_s: f64, untraced_s: f64) {
    let root_s = spans[0].duration_s();
    let attributed_s: f64 = layer_self_s(first_root(spans)).values().sum();
    layers.set("trace.overhead_frac", traced_s / untraced_s - 1.0);
    layers.set("trace.unattributed_frac", 1.0 - attributed_s / root_s);
    layers.set("trace.spans", spans.len() as f64);
}

/// Bound on `trace.unattributed_frac`: layer self times must account
/// for all but this share of the traced wall.
pub const UNATTRIBUTED_BOUND: f64 = 0.02;

pub fn check_attribution(checks: &mut Checks, layers: &Layers) {
    let un = layers.get("trace.unattributed_frac");
    checks.expect(un.abs() <= UNATTRIBUTED_BOUND, 1, || {
        format!(
            "layer self times leave {un:.4} of the traced wall unattributed \
             (bound {UNATTRIBUTED_BOUND})"
        )
    });
}

/// Report lines for every non-zero per-layer metric.
pub fn trace_lines(layers: &Layers) -> Vec<String> {
    layers
        .rows()
        .into_iter()
        .filter(|(_, v, _)| *v != 0.0)
        .map(|(name, v, unit)| line(&name, v, unit, ""))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalogue_names_are_unique_and_valid() {
        let cat = catalogue();
        assert_eq!(
            cat.len(),
            LAYER_METRICS.len() + 2 * 2 * iw_kernels::registry().len()
        );
        assert!(cat.len() <= 128);
        let mut names: Vec<&str> = cat.iter().map(|(n, _)| n.as_str()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), cat.len());
        for name in names {
            assert!(name.len() <= 64, "{name}");
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-')));
        }
    }

    #[test]
    fn accounting_covers_the_first_root_only() {
        use crate::trace::Tracer;
        let mut t = Tracer::new(true);
        t.span("run.traced", 0, |t| {
            t.span("sim.run_device", 0, |_| std::hint::black_box(0));
        });
        t.span("kernels.budget", 0, |_| std::hint::black_box(0));
        let spans = t.spans();
        assert_eq!(first_root(spans).len(), 2);
        let mut layers = Layers::new();
        trace_accounting(&mut layers, spans, 1.0, 1.0);
        let inside = layer_self_s(first_root(spans))["sim.run_device"];
        let want = 1.0 - inside / spans[0].duration_s();
        assert!((layers.get("trace.unattributed_frac") - want).abs() < 1e-12);
        assert_eq!(layers.get("trace.spans"), 3.0);
    }

    #[test]
    #[should_panic(expected = "not in the catalogue")]
    fn unknown_metric_is_a_bug() {
        Layers::new().set("sim.nonexistent", 1.0);
    }
}
