//! The benchmark's metric catalogue and the `BENCHMARK.json` manifest
//! generated from it, so the names a run prints and the names the
//! manifest declares cannot drift apart.

use rupicola_bench::fig2_rows;
use rupicola_programs::{ct_suite, perf_suite};

/// Which direction is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One declared metric.
#[derive(Debug, Clone)]
pub struct MetricDef {
    /// Metric name.
    pub name: String,
    /// Unit.
    pub unit: &'static str,
    /// Improvement direction.
    pub better: Better,
    /// Allowed worsening as a share of the parent's median (end-to-end only).
    pub bound: Option<f64>,
}

fn def(name: impl Into<String>, unit: &'static str, better: Better) -> MetricDef {
    MetricDef {
        name: name.into(),
        unit,
        better,
        bound: None,
    }
}

fn gated(name: &str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef {
        bound: Some(bound),
        ..def(name, unit, better)
    }
}

/// The workloads, with the reason each was chosen.
pub const WORKLOADS: &[(&str, &str)] = &[
    (
        "cold_compile",
        "every perf and CT program through search, checker, lint, CT, validated opt and \
         validated RISC-V lowering at full cost; no store",
    ),
    (
        "served_mix",
        "seeded mixed-tenant batches to the server over a warmed one-shard store; about one \
         request in ten is cold, the rest are verified loads",
    ),
    (
        "generated_code",
        "the Figure 2 native code on seeded 1 MiB inputs; no compiler layer runs in the \
         timed window, so only code-quality work moves it",
    ),
];

/// End-to-end metrics. Every workload reports every one of them; what a
/// unit of work is depends on the workload (see README.md). Times are in
/// kernel units, `ku`: wall time over the run's median calibration-kernel
/// time (see `calib.rs`).
pub fn end_to_end() -> Vec<MetricDef> {
    use Better::{Higher, Lower};
    vec![
        gated("setup_s", "s", Lower, 0.25),
        gated("peak_rss_mib", "MiB", Lower, 0.2),
        gated("ok_frac", "frac", Higher, 0.01),
        gated("throughput_per_ku", "1/ku", Higher, 0.25),
        gated("latency_ku", "ku", Lower, 0.25),
        gated("slow_path_ku", "ku", Lower, 0.25),
    ]
}

/// The programs of the certified route (`cold_compile`), in suite order.
pub fn route_program_names() -> Vec<&'static str> {
    perf_suite()
        .iter()
        .map(|e| e.info.name)
        .chain(ct_suite().iter().map(|e| e.entry.info.name))
        .collect()
}

/// The Figure 2 programs (`generated_code`), in figure order.
pub fn fig2_program_names() -> Vec<&'static str> {
    fig2_rows().iter().map(|r| r.name).collect()
}

/// Per-layer metrics, reported by the traced run of every workload (a
/// layer that does not run in a workload reads 0 there).
pub fn per_layer() -> Vec<MetricDef> {
    use Better::{Higher, Lower};
    let mut out = vec![
        def("trace.latency_overhead_frac", "frac", Lower),
        def("trace.throughput_overhead_frac", "frac", Lower),
        def("calib.kernel_ms", "ms", Lower),
        // cold_compile: self time per suite iteration, and counts.
        def("core.search.ms", "ms", Lower),
        def("core.check.ms", "ms", Lower),
        def("analysis.lint.ms", "ms", Lower),
        def("analysis.ct.ms", "ms", Lower),
        def("opt.ms", "ms", Lower),
        def("rv.ms", "ms", Lower),
        def("core.search.lemma_applications", "count", Lower),
        def("core.search.side_conditions", "count", Lower),
        def("core.search.solver_cache_hit_ratio", "frac", Higher),
        def("core.check.vectors_run", "count", Higher),
        def("core.check.vectors_skipped", "count", Lower),
        def("analysis.lint.errors", "count", Lower),
        def("opt.candidates", "count", Lower),
        def("opt.applied", "count", Higher),
        def("opt.rolled_back", "count", Lower),
        def("opt.sites_rewritten", "count", Higher),
        def("opt.useful_ratio", "frac", Higher),
        def("rv.instrs_after", "count", Lower),
        def("rv.rolled_back", "count", Lower),
    ];
    out.extend(
        route_program_names()
            .into_iter()
            .map(|p| def(format!("prog.{p}.ms"), "ms", Lower)),
    );
    // served_mix.
    out.extend([
        def("service.batch.ms", "ms", Lower),
        def("service.batch.self_ms", "ms", Lower),
        def("service.warm_ms_p50", "ms", Lower),
        def("service.warm_ms_p99", "ms", Lower),
        def("service.cold_ms_p50", "ms", Lower),
        def("service.store.hits", "count", Higher),
        def("service.store.misses", "count", Lower),
        def("service.store.evictions", "count", Lower),
        def("service.store.stores", "count", Lower),
        def("service.store.retries", "count", Lower),
        def("service.store.hit_ratio", "frac", Higher),
        def("service.store.verify_ms_per_hit", "ms", Lower),
        def("service.store.verify_busy_frac", "frac", Lower),
        def("service.tenant.rejected", "count", Lower),
        def("service.tenant.completed_err", "count", Lower),
    ]);
    // generated_code.
    for p in fig2_program_names() {
        out.push(def(format!("gen.{p}.ns_per_byte"), "ns/B", Lower));
        out.push(def(format!("unopt.{p}.ns_per_byte"), "ns/B", Lower));
        out.push(def(format!("hand.{p}.ns_per_byte"), "ns/B", Lower));
        out.push(def(format!("rv.{p}.dyn_instrs"), "count", Lower));
    }
    out.push(def("gen.over_hand", "x", Lower));
    out.push(def("rv.dyn_instrs", "count", Lower));
    out
}

/// Seconds one run measures.
pub const RUN_SECONDS: u64 = 30;

fn quote(s: &str) -> String {
    format!("\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\""))
}

fn metric_json(m: &MetricDef) -> String {
    let mut s = format!(
        "{{\"name\": {}, \"unit\": {}, \"better\": {}",
        quote(&m.name),
        quote(m.unit),
        quote(m.better.as_str())
    );
    if let Some(b) = m.bound {
        s.push_str(&format!(", \"bound\": {b}"));
    }
    s.push('}');
    s
}

/// The `BENCHMARK.json` manifest.
pub fn manifest() -> String {
    let list = |items: Vec<String>| format!("[\n    {}\n  ]", items.join(",\n    "));
    let command = [
        "cargo",
        "run",
        "--release",
        "--offline",
        "--quiet",
        "--manifest-path",
        "perfbench/Cargo.toml",
        "--",
    ];
    format!(
        "{{\n  \"command\": [{}],\n  \"paths\": [\"perfbench\"],\n  \"run_seconds\": {RUN_SECONDS},\n  \
         \"workloads\": {},\n  \"end_to_end\": {},\n  \"per_layer\": {}\n}}\n",
        command.iter().map(|c| quote(c)).collect::<Vec<_>>().join(", "),
        list(
            WORKLOADS
                .iter()
                .map(|(n, w)| format!("{{\"name\": {}, \"why\": {}}}", quote(n), quote(w)))
                .collect()
        ),
        list(end_to_end().iter().map(metric_json).collect()),
        list(per_layer().iter().map(metric_json).collect()),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut seen = BTreeSet::new();
        for m in end_to_end().iter().chain(per_layer().iter()) {
            assert!(seen.insert(m.name.clone()), "duplicate {}", m.name);
            assert!(m.name.len() <= 64);
            assert!(m
                .name
                .chars()
                .next()
                .is_some_and(|c| c.is_ascii_alphanumeric()));
            assert!(m
                .name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(m.unit.len() <= 16);
        }
        assert!(per_layer().len() <= 128);
        for (_, why) in WORKLOADS {
            assert!(why.len() <= 200);
        }
    }
}
