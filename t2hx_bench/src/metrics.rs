//! The metric tables. `BENCHMARK.json` at the repository root lists the
//! same names, units and bounds; a test keeps the two in step.

/// Which direction is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better (times, memory).
    Lower,
    /// Larger is better (throughput).
    Higher,
}

impl Better {
    /// The `BENCHMARK.json` spelling.
    #[cfg_attr(not(test), allow(dead_code))]
    pub fn label(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// An end-to-end metric every workload reports from its untraced run.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Improvement direction.
    pub better: Better,
    /// Share of the baseline median by which it may worsen before a
    /// change counts as a regression.
    pub bound: f64,
}

/// The end-to-end metrics. Each workload names its own unit operation
/// (a bring-up round, a fault event, a query, a figure pass, a ladder
/// cycle); the op metrics describe that operation.
pub const END_TO_END: &[EndToEnd] = &[
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_heap_mb",
        unit: "MB",
        better: Better::Lower,
        bound: 0.05,
    },
    EndToEnd {
        name: "op_p50_ms",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "op_tail_ms",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "ops_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.25,
    },
];

/// Where a per-layer metric's value comes from.
#[derive(Debug, Clone, Copy)]
pub enum Src {
    /// Median duration of the spans with this name (any phase, any thread).
    Median(&'static str),
    /// Total duration of the timed-phase spans with this name per op.
    PerOp(&'static str),
    /// Total duration of the spans with this name per set-up.
    PerSetup(&'static str),
    /// Self time of this layer in the timed phase, per op.
    SelfPerOp(&'static str),
    /// A value the workload computes itself.
    Value,
}

/// A per-layer metric from the traced run.
#[derive(Debug, Clone, Copy)]
pub struct PerLayer {
    /// Metric name.
    pub name: &'static str,
    /// Unit; `ms` and `us` scale span durations.
    pub unit: &'static str,
    /// Improvement direction.
    #[cfg_attr(not(test), allow(dead_code))]
    pub better: Better,
    /// Source.
    pub src: Src,
}

const fn lower(name: &'static str, unit: &'static str, src: Src) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: Better::Lower,
        src,
    }
}

const fn higher(name: &'static str, unit: &'static str, src: Src) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: Better::Higher,
        src,
    }
}

/// The per-layer metrics. A workload that never calls into a metric's
/// layer reports it as 0.
pub const PER_LAYER: &[PerLayer] = &[
    // Self time per op of each layer in the timed phase.
    lower("hxtopo.self_ms_per_op", "ms", Src::SelfPerOp("hxtopo")),
    lower("hxroute.self_ms_per_op", "ms", Src::SelfPerOp("hxroute")),
    lower("hxmpi.self_ms_per_op", "ms", Src::SelfPerOp("hxmpi")),
    lower("hxsim.self_ms_per_op", "ms", Src::SelfPerOp("hxsim")),
    lower("hxload.self_ms_per_op", "ms", Src::SelfPerOp("hxload")),
    lower("hxcore.self_ms_per_op", "ms", Src::SelfPerOp("hxcore")),
    lower("bench.self_ms_per_op", "ms", Src::SelfPerOp("bench")),
    // Set-up.
    lower("hxtopo.build_ms", "ms", Src::PerSetup("hxtopo.build")),
    lower("hxroute.sweep_ms", "ms", Src::PerSetup("hxroute.sweep")),
    lower(
        "hxcore.t2hx_build_ms",
        "ms",
        Src::PerSetup("hxcore.t2hx_build"),
    ),
    // Bring-up: one engine run per (plane, engine) pair and round.
    lower(
        "hxroute.route_ms.hx-parx",
        "ms",
        Src::PerOp("hxroute.route.hx-parx"),
    ),
    lower(
        "hxroute.route_ms.hx-dfsssp",
        "ms",
        Src::PerOp("hxroute.route.hx-dfsssp"),
    ),
    lower(
        "hxroute.route_ms.hx-ft-hyperx",
        "ms",
        Src::PerOp("hxroute.route.hx-ft-hyperx"),
    ),
    lower(
        "hxroute.route_ms.hx-fatpaths",
        "ms",
        Src::PerOp("hxroute.route.hx-fatpaths"),
    ),
    lower(
        "hxroute.route_ms.hx-sssp",
        "ms",
        Src::PerOp("hxroute.route.hx-sssp"),
    ),
    lower(
        "hxroute.route_ms.hx-minhop",
        "ms",
        Src::PerOp("hxroute.route.hx-minhop"),
    ),
    lower(
        "hxroute.route_ms.hx-updown",
        "ms",
        Src::PerOp("hxroute.route.hx-updown"),
    ),
    lower(
        "hxroute.route_ms.hx-lash",
        "ms",
        Src::PerOp("hxroute.route.hx-lash"),
    ),
    lower(
        "hxroute.route_ms.ft-ftree",
        "ms",
        Src::PerOp("hxroute.route.ft-ftree"),
    ),
    lower(
        "hxroute.route_ms.ft-sssp",
        "ms",
        Src::PerOp("hxroute.route.ft-sssp"),
    ),
    lower(
        "hxroute.fatpaths.layers_ms",
        "ms",
        Src::Median("hxroute.fatpaths.layers"),
    ),
    lower("hxroute.fatpaths.vl_assign_ms", "ms", Src::Value),
    lower(
        "hxroute.pathdb_build_ms",
        "ms",
        Src::PerOp("hxroute.pathdb_build"),
    ),
    lower("hxroute.verify_ms", "ms", Src::PerOp("hxroute.verify")),
    // Fail-in-place under churn (churn, and the serve writer).
    lower(
        "hxroute.fail_link_us",
        "us",
        Src::Median("hxroute.fail_link"),
    ),
    lower(
        "hxroute.recover_link_us",
        "us",
        Src::Median("hxroute.recover_link"),
    ),
    lower("hxroute.trees_patched_mean", "count", Src::Value),
    higher("hxroute.incremental_ratio", "ratio", Src::Value),
    // The scale ladder.
    lower(
        "hxroute.fail_link_ms.256",
        "ms",
        Src::Median("hxroute.fail_link.256"),
    ),
    lower(
        "hxroute.fail_link_ms.1296",
        "ms",
        Src::Median("hxroute.fail_link.1296"),
    ),
    lower(
        "hxroute.fail_link_ms.4096",
        "ms",
        Src::Median("hxroute.fail_link.4096"),
    ),
    lower(
        "hxroute.recover_link_ms.256",
        "ms",
        Src::Median("hxroute.recover_link.256"),
    ),
    lower(
        "hxroute.recover_link_ms.1296",
        "ms",
        Src::Median("hxroute.recover_link.1296"),
    ),
    lower(
        "hxroute.recover_link_ms.4096",
        "ms",
        Src::Median("hxroute.recover_link.4096"),
    ),
    lower("hxroute.fail_link_exponent", "1", Src::Value),
    lower("hxroute.pathdb_mb.256", "MB", Src::Value),
    lower("hxroute.pathdb_mb.1296", "MB", Src::Value),
    lower("hxroute.pathdb_mb.4096", "MB", Src::Value),
    // hxmpi.
    lower(
        "hxmpi.install_pathdb_us",
        "us",
        Src::Median("hxmpi.install_pathdb"),
    ),
    lower("hxmpi.resolve_us", "us", Src::Median("hxmpi.resolve")),
    lower("hxmpi.estimate_us", "us", Src::Median("hxmpi.estimate")),
    lower("hxmpi.node_path_us", "us", Src::Median("hxmpi.node_path")),
    // hxsim.
    lower("hxsim.repath_us", "us", Src::Median("hxsim.repath")),
    lower(
        "hxsim.recompute_us.reroute",
        "us",
        Src::Median("hxsim.recompute.reroute"),
    ),
    lower(
        "hxsim.recompute_us.completion",
        "us",
        Src::Median("hxsim.recompute.completion"),
    ),
    lower("hxsim.advance_us", "us", Src::Median("hxsim.advance")),
    lower(
        "hxsim.oneshot_rates_us",
        "us",
        Src::Median("hxsim.oneshot_rates"),
    ),
    // hxload.
    lower(
        "hxload.imb_program_us",
        "us",
        Src::Median("hxload.imb_program"),
    ),
    lower("hxload.ebb_batch_ms", "ms", Src::Median("hxload.ebb_batch")),
    // hxcore: the query service and the dual-plane system.
    lower(
        "hxcore.query_us.resolve",
        "us",
        Src::Median("hxcore.query.resolve"),
    ),
    lower(
        "hxcore.query_us.place",
        "us",
        Src::Median("hxcore.query.place"),
    ),
    lower(
        "hxcore.query_us.stats",
        "us",
        Src::Median("hxcore.query.stats"),
    ),
    lower(
        "hxcore.query_us.what-if",
        "us",
        Src::Median("hxcore.query.what-if"),
    ),
    higher("hxcore.cache_hit_ratio", "ratio", Src::Value),
    lower("hxcore.publish_us", "us", Src::Median("hxcore.publish")),
    lower("serve.writer_late_ms", "ms", Src::Value),
    // The recorder itself.
    lower("bench.trace_overhead_pct", "%", Src::Value),
    higher("bench.covered_pct", "%", Src::Value),
];

/// Seconds to the unit of a span-derived metric.
pub fn time_scale(unit: &str) -> f64 {
    match unit {
        "us" => 1e6,
        "ms" => 1e3,
        "s" => 1.0,
        other => panic!("span-derived metric with non-time unit {other:?}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hxobs::Json;
    use std::collections::BTreeSet;

    fn bench_json() -> Json {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
        Json::parse(&text).expect("BENCHMARK.json parses")
    }

    #[test]
    fn tables_match_benchmark_json() {
        let doc = bench_json();
        let e2e = doc
            .get("end_to_end")
            .and_then(Json::as_arr)
            .expect("end_to_end");
        assert_eq!(e2e.len(), END_TO_END.len());
        for (j, m) in e2e.iter().zip(END_TO_END) {
            assert_eq!(j.get("name").and_then(Json::as_str), Some(m.name));
            assert_eq!(j.get("unit").and_then(Json::as_str), Some(m.unit));
            assert_eq!(
                j.get("better").and_then(Json::as_str),
                Some(m.better.label())
            );
            assert_eq!(j.get("bound").and_then(Json::as_num), Some(m.bound));
        }
        let layers = doc
            .get("per_layer")
            .and_then(Json::as_arr)
            .expect("per_layer");
        assert_eq!(layers.len(), PER_LAYER.len());
        for (j, m) in layers.iter().zip(PER_LAYER) {
            assert_eq!(j.get("name").and_then(Json::as_str), Some(m.name));
            assert_eq!(j.get("unit").and_then(Json::as_str), Some(m.unit));
            assert_eq!(
                j.get("better").and_then(Json::as_str),
                Some(m.better.label())
            );
        }
        let names: Vec<&str> = doc
            .get("workloads")
            .and_then(Json::as_arr)
            .expect("workloads")
            .iter()
            .map(|w| w.get("name").and_then(Json::as_str).expect("workload name"))
            .collect();
        assert_eq!(names, crate::workloads::NAMES);
    }

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut seen = BTreeSet::new();
        let all = END_TO_END
            .iter()
            .map(|m| (m.name, m.unit))
            .chain(PER_LAYER.iter().map(|m| (m.name, m.unit)));
        for (name, unit) in all {
            assert!(seen.insert(name), "duplicate metric {name}");
            assert!(name.len() <= 64 && name.starts_with(|c: char| c.is_ascii_alphanumeric()));
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(unit.len() <= 16);
            assert!(unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
        assert!(PER_LAYER.len() <= 128);
        for m in PER_LAYER {
            if !matches!(m.src, Src::Value) {
                time_scale(m.unit);
            }
        }
    }
}
