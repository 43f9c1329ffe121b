//! Every metric `fmbench` prints, by name and unit.  `BENCHMARK.json`
//! declares the same names (a test holds the two sets equal), and the
//! last line of a run is the JSON object the driver reads.

/// A metric's declaration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
}

impl MetricDef {
    pub fn with(&self, value: f64) -> Metric {
        Metric { def: *self, value }
    }
}

/// A measured value.
#[derive(Debug, Clone, Copy)]
pub struct Metric {
    pub def: MetricDef,
    pub value: f64,
}

const fn def(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef { name, unit }
}

// End to end: what a user of the system sees.
pub const SETUP_S: MetricDef = def("setup_s", "s");
pub const WALK_NS_PER_STEP: MetricDef = def("walk_ns_per_step", "ns");
pub const E2E_S: MetricDef = def("e2e_s", "s");
pub const PEAK_RSS_MB: MetricDef = def("peak_rss_mb", "MiB");

pub const END_TO_END: [MetricDef; 4] = [SETUP_S, WALK_NS_PER_STEP, E2E_S, PEAK_RSS_MB];

// Per layer: one group per module, in pipeline order.
pub const IO_LOAD_S: MetricDef = def("graph.io.load_s", "s");
pub const IO_LOAD_MB_PER_S: MetricDef = def("graph.io.load_mb_per_s", "MB/s");
pub const RELABEL_SORT_S: MetricDef = def("graph.relabel.sort_s", "s");
pub const RELABEL_NS_PER_EDGE: MetricDef = def("graph.relabel.ns_per_edge", "ns");
pub const BLOOM_BUILD_S: MetricDef = def("graph.bloom.build_s", "s");
pub const BLOOM_PROBE_NS: MetricDef = def("graph.bloom.probe_ns", "ns");
pub const BLOOM_REJECT_FRAC: MetricDef = def("graph.bloom.reject_frac", "ratio");
pub const CSR_HAS_EDGE_NS: MetricDef = def("graph.csr.has_edge_ns", "ns");
pub const PLAN_S: MetricDef = def("flashmob.plan.plan_s", "s");
pub const PLAN_PARTITIONS: MetricDef = def("flashmob.plan.partitions", "count");
pub const PLAN_PS_EDGE_SHARE: MetricDef = def("flashmob.plan.ps_edge_share", "ratio");
pub const PLAN_RING_PARTITIONS: MetricDef = def("flashmob.plan.ring_partitions", "count");
pub const ENGINE_BUILD_S: MetricDef = def("flashmob.engine.build_s", "s");
pub const ENGINE_BUILD_OTHER_S: MetricDef = def("flashmob.engine.build_other_s", "s");
pub const ENGINE_SAMPLE_NS: MetricDef = def("flashmob.engine.sample_ns_per_step", "ns");
pub const ENGINE_SHUFFLE_NS: MetricDef = def("flashmob.engine.shuffle_ns_per_step", "ns");
pub const ENGINE_OTHER_NS: MetricDef = def("flashmob.engine.other_ns_per_step", "ns");
pub const ENGINE_COLD_OVER_WARM: MetricDef = def("flashmob.engine.cold_over_warm", "ratio");
pub const WALKER_INIT_NS: MetricDef = def("flashmob.walker.init_ns_per_walker", "ns");
pub const SHUFFLE_COUNT_NS: MetricDef = def("flashmob.shuffle.count_ns_per_walker", "ns");
pub const SHUFFLE_SCATTER_NS: MetricDef = def("flashmob.shuffle.scatter_ns_per_walker", "ns");
pub const SHUFFLE_GATHER_NS: MetricDef = def("flashmob.shuffle.gather_ns_per_walker", "ns");
pub const SAMPLE_PS_NS: MetricDef = def("flashmob.sample.ps_ns_per_step", "ns");
pub const SAMPLE_DS_NS: MetricDef = def("flashmob.sample.ds_ns_per_step", "ns");
pub const SAMPLE_RING_PREFETCHES: MetricDef =
    def("flashmob.sample.ring_prefetches_per_step", "ratio");
pub const SAMPLE_OVER_DRAM: MetricDef = def("flashmob.sample.over_dram_latency", "ratio");
pub const OUTPUT_PATHS_NS: MetricDef = def("flashmob.output.paths_ns_per_step", "ns");
pub const OOC_CREATE_MB_PER_S: MetricDef = def("flashmob.oocore.create_mb_per_s", "MB/s");
pub const OOC_OPEN_S: MetricDef = def("flashmob.oocore.open_s", "s");
pub const OOC_READ_FRAC: MetricDef = def("flashmob.oocore.read_frac", "ratio");
pub const OOC_BYTES_PER_STEP: MetricDef = def("flashmob.oocore.bytes_per_step", "B");
pub const OOC_BLOCKS_STREAMED: MetricDef = def("flashmob.oocore.blocks_streamed", "count");
pub const OOC_PAIRS_SCHEDULED: MetricDef = def("flashmob.oocore.pairs_scheduled", "count");
pub const OOC_PAIRS_SKIPPED: MetricDef = def("flashmob.oocore.pairs_skipped", "count");
pub const OOC_PARKED_PER_STEP: MetricDef = def("flashmob.oocore.parked_per_step", "ratio");
pub const OOC_PEAK_PARKED: MetricDef = def("flashmob.oocore.peak_parked", "count");
pub const OOC_IO_RETRIES: MetricDef = def("flashmob.oocore.io_retries", "count");
pub const POOL_IDLE_FRAC: MetricDef = def("flashmob.pool.idle_frac", "ratio");
pub const POOL_EPOCHS: MetricDef = def("flashmob.pool.epochs", "count");
pub const POOL_T2_SPEEDUP: MetricDef = def("flashmob.pool.t2_speedup", "ratio");
pub const KNIGHTKING_NS: MetricDef = def("baseline.knightking_ns_per_step", "ns");
pub const SPEEDUP_VS_KNIGHTKING: MetricDef = def("baseline.speedup_vs_knightking", "ratio");
pub const TELEMETRY_OVERHEAD: MetricDef = def("telemetry.overhead_frac", "ratio");
pub const HOST_CHASE_NS: MetricDef = def("host.chase_ns", "ns");
pub const HOST_STREAM_GB_PER_S: MetricDef = def("host.stream_gb_per_s", "GB/s");
pub const HOST_FACTOR: MetricDef = def("host.factor", "ratio");
pub const HOST_FACTOR_IQR: MetricDef = def("host.factor_iqr", "ratio");

pub const PER_LAYER: [MetricDef; 47] = [
    IO_LOAD_S,
    IO_LOAD_MB_PER_S,
    RELABEL_SORT_S,
    RELABEL_NS_PER_EDGE,
    BLOOM_BUILD_S,
    BLOOM_PROBE_NS,
    BLOOM_REJECT_FRAC,
    CSR_HAS_EDGE_NS,
    PLAN_S,
    PLAN_PARTITIONS,
    PLAN_PS_EDGE_SHARE,
    PLAN_RING_PARTITIONS,
    ENGINE_BUILD_S,
    ENGINE_BUILD_OTHER_S,
    ENGINE_SAMPLE_NS,
    ENGINE_SHUFFLE_NS,
    ENGINE_OTHER_NS,
    ENGINE_COLD_OVER_WARM,
    WALKER_INIT_NS,
    SHUFFLE_COUNT_NS,
    SHUFFLE_SCATTER_NS,
    SHUFFLE_GATHER_NS,
    SAMPLE_PS_NS,
    SAMPLE_DS_NS,
    SAMPLE_RING_PREFETCHES,
    SAMPLE_OVER_DRAM,
    OUTPUT_PATHS_NS,
    OOC_CREATE_MB_PER_S,
    OOC_OPEN_S,
    OOC_READ_FRAC,
    OOC_BYTES_PER_STEP,
    OOC_BLOCKS_STREAMED,
    OOC_PAIRS_SCHEDULED,
    OOC_PAIRS_SKIPPED,
    OOC_PARKED_PER_STEP,
    OOC_PEAK_PARKED,
    OOC_IO_RETRIES,
    POOL_IDLE_FRAC,
    POOL_EPOCHS,
    POOL_T2_SPEEDUP,
    KNIGHTKING_NS,
    SPEEDUP_VS_KNIGHTKING,
    TELEMETRY_OVERHEAD,
    HOST_CHASE_NS,
    HOST_STREAM_GB_PER_S,
    HOST_FACTOR,
    HOST_FACTOR_IQR,
];

/// Prints every metric by name and unit, then the one-line JSON result
/// the driver reads as the last line of standard output.
pub fn print_result(attempted: u64, failed: u64, metrics: &[Metric]) {
    for m in metrics {
        println!("{} = {} {}", m.def.name, m.value, m.def.unit);
    }
    println!("{}", result_json(attempted, failed, metrics));
}

/// Values are printed with every digit the measurement has (Rust's
/// shortest round-trip form).  JSON has no way to say NaN: a value that
/// is not finite is printed as 0 (and `main` has counted it as a failed
/// operation).
pub fn result_json(attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            format!(
                "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                m.def.name, m.def.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        failed == 0,
        attempted.max(1),
        body.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use fm_telemetry::json::{self, Value};

    #[test]
    fn result_line_is_the_contract_shape() {
        let line = result_json(12, 0, &[SETUP_S.with(0.8127), PEAK_RSS_MB.with(700.25)]);
        let v = json::parse(&line).unwrap();
        let Value::Obj(pairs) = &v else {
            panic!("not an object")
        };
        let keys: Vec<&str> = pairs.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert!(matches!(v.get("correct"), Some(Value::Bool(true))));
        assert_eq!(v.get("attempted").and_then(Value::as_num), Some(12.0));
        let setup = v.get("metrics").and_then(|m| m.get("setup_s")).unwrap();
        assert_eq!(setup.get("value").and_then(Value::as_num), Some(0.8127));
        assert_eq!(setup.get("unit").and_then(Value::as_str), Some("s"));

        let bad = result_json(3, 1, &[SETUP_S.with(f64::NAN)]);
        let v = json::parse(&bad).unwrap();
        assert!(matches!(v.get("correct"), Some(Value::Bool(false))));
        assert_eq!(v.get("failed").and_then(Value::as_num), Some(1.0));
        let nan = v.get("metrics").and_then(|m| m.get("setup_s")).unwrap();
        assert_eq!(nan.get("value").and_then(Value::as_num), Some(0.0));
    }

    /// The names `fmbench` prints and the names `BENCHMARK.json`
    /// declares are the same set, with the same units.
    #[test]
    fn names_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let v = json::parse(&text).unwrap();
        let declared = |key: &str| -> Vec<(String, String)> {
            let mut out: Vec<(String, String)> = v
                .get(key)
                .and_then(Value::as_arr)
                .unwrap_or_else(|| panic!("{key} missing"))
                .iter()
                .map(|m| {
                    let field =
                        |f: &str| m.get(f).and_then(Value::as_str).unwrap_or("").to_string();
                    (field("name"), field("unit"))
                })
                .collect();
            out.sort();
            out
        };
        let printed = |defs: &[MetricDef]| -> Vec<(String, String)> {
            let mut out: Vec<_> = defs
                .iter()
                .map(|d| (d.name.to_string(), d.unit.to_string()))
                .collect();
            out.sort();
            out
        };
        assert_eq!(declared("end_to_end"), printed(&END_TO_END));
        assert_eq!(declared("per_layer"), printed(&PER_LAYER));

        let mut workloads: Vec<String> = v
            .get("workloads")
            .and_then(Value::as_arr)
            .unwrap()
            .iter()
            .map(|w| w.get("name").and_then(Value::as_str).unwrap().to_string())
            .collect();
        workloads.sort();
        let mut ours: Vec<String> = crate::workloads::WORKLOADS
            .iter()
            .map(|w| w.name.to_string())
            .collect();
        ours.sort();
        assert_eq!(workloads, ours);
    }
}
