//! The metric catalogue. `BENCHMARK.json` at the repository root lists the
//! same metrics; a unit test keeps the two in step.

use crate::stats::{Better, Bound};

/// One reported metric. `bound` is how far an end-to-end metric may
/// worsen before a change regresses; per-layer metrics carry none.
#[derive(Clone, Copy, Debug)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub bound: Option<Bound>,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: Bound) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn rel(share: f64) -> Bound {
    Bound {
        rel: share,
        abs: 0.0,
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: None,
    }
}

use Better::{Higher, Lower};

/// Gated metrics, measured with no spans in the program or around it.
/// Each may worsen by 10% of the parent's median, except two. The served
/// round-trip p90 may worsen by 20%: on the match workloads it sits where
/// ε-greedy's ~9% of slower exploring calls begin, so a few more host
/// stalls in the tail move it far, and over ten runs of unchanged code it
/// spread up to 16%. Set-up time, a few milliseconds of process start, may
/// also worsen by up to 5 ms.
pub const END_TO_END: [MetricDef; 5] = [
    e2e("throughput_rps", "req/s", Higher, rel(0.10)),
    e2e("latency_p50_us", "us", Lower, rel(0.10)),
    e2e("latency_p90_us", "us", Lower, rel(0.20)),
    e2e(
        "setup_s",
        "s",
        Lower,
        Bound {
            rel: 0.10,
            abs: 0.005,
        },
    ),
    e2e("peak_rss_mb", "MB", Lower, rel(0.10)),
];

/// Per-layer metrics of a `--trace 1` run. A layer that the workload's
/// requests never pass through reads 0.
pub const PER_LAYER: [MetricDef; 38] = [
    layer("serve.loop_ns", "ns", Lower),
    layer("serve.parse_ns", "ns", Lower),
    layer("serve.write_ns", "ns", Lower),
    layer("serve.wake_us", "us", Lower),
    layer("serve.service_p50_us", "us", Lower),
    layer("serve.rtt_p99_us", "us", Lower),
    layer("serve.cpu_us_per_req", "us", Lower),
    layer("serve.runq_wait_frac", "fraction", Lower),
    layer("loadgen.cpu_frac", "fraction", Lower),
    layer("app.handle_ns", "ns", Lower),
    layer("app.keygen_ns", "ns", Lower),
    layer("app.verify_ns", "ns", Lower),
    layer("context.key_ns", "ns", Lower),
    layer("context.lookup_ns", "ns", Lower),
    layer("context.dispatch_ns", "ns", Lower),
    layer("context.admissions", "count", Lower),
    layer("context.overflows", "count", Lower),
    layer("site.pre_ns", "ns", Lower),
    layer("site.post_ns", "ns", Lower),
    layer("site.tuned_frac", "fraction", Lower),
    layer("site.contended_frac", "fraction", Lower),
    layer("two_phase.next_ns", "ns", Lower),
    layer("two_phase.report_ns", "ns", Lower),
    layer("two_phase.exploit_frac", "fraction", Higher),
    layer("two_phase.warmup_s", "s", Lower),
    layer("robust.batched_ns", "ns", Lower),
    layer("robust.batch_k", "x", Lower),
    layer("smallsort.sort_ns", "ns", Lower),
    layer("stringmatch.count_ns", "ns", Lower),
    layer("drift.observe_ns", "ns", Lower),
    layer("drift.restarts", "count", Lower),
    layer("drift.detect_lag_requests", "requests", Lower),
    layer("drift.reconverge_requests", "requests", Lower),
    layer("telemetry.events_per_req", "events/req", Lower),
    layer("telemetry.cost_ns", "ns", Lower),
    layer("ledger.tax_x", "x", Lower),
    layer("ledger.residual_frac", "fraction", Lower),
    layer("ledger.trace_overhead_frac", "fraction", Lower),
];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::Workload;
    use autotune::json::Json;

    fn benchmark_json() -> Json {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        Json::parse(&text).expect("BENCHMARK.json parses")
    }

    fn check_list(doc: &Json, key: &str, defs: &[MetricDef]) {
        let listed = doc.get(key).and_then(Json::as_arr).expect(key);
        assert_eq!(listed.len(), defs.len(), "{key} length");
        for (entry, def) in listed.iter().zip(defs) {
            assert_eq!(entry.get("name").and_then(Json::as_str), Some(def.name));
            assert_eq!(
                entry.get("unit").and_then(Json::as_str),
                Some(def.unit),
                "{}",
                def.name
            );
            assert_eq!(
                entry.get("better").and_then(Json::as_str),
                Some(def.better.label()),
                "{}",
                def.name
            );
            // The file caps a bound at 25% and has no absolute floor; a
            // floor of milliseconds on a median of milliseconds is listed
            // at that cap.
            let listed = def.bound.map(|b| if b.abs > 0.0 { 0.25 } else { b.rel });
            assert_eq!(
                entry.get("bound").and_then(Json::as_f64),
                listed,
                "{}",
                def.name
            );
        }
    }

    #[test]
    fn benchmark_json_lists_the_catalogue() {
        let doc = benchmark_json();
        check_list(&doc, "end_to_end", &END_TO_END);
        check_list(&doc, "per_layer", &PER_LAYER);
        let names: Vec<&str> = doc
            .get("workloads")
            .and_then(Json::as_arr)
            .expect("workloads")
            .iter()
            .filter_map(|w| w.get("name").and_then(Json::as_str))
            .collect();
        let ours: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        assert_eq!(names, ours);
    }
}
