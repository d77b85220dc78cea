//! The metric catalogue, the correctness gate and the result line.

use std::collections::BTreeMap;
use std::fmt::Write;

use locsvc::MetricsSnapshot;

use crate::setup::Setup;

/// End-to-end metrics: every untraced run prints all of them.
/// `(name, unit)`; direction and bound live in `BENCHMARK.json`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("windows_per_s", "1/s"),
    ("p50_ms", "ms"),
    ("max_rps", "1/s"),
    ("ok_pct", "%"),
    ("hit_pct", "%"),
    ("false_start_pct", "%"),
    ("start_err_mean", "samples"),
    ("i8_agree_pct", "%"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics: every traced run prints all of them; a layer the
/// workload bypasses reports 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("trace.fill_calls", "count"),
    ("trace.fill_ms", "ms"),
    ("trace.read_mb_per_s", "MB/s"),
    ("trace.wait_ms", "ms"),
    ("sliding.batches", "count"),
    ("sliding.windows_per_batch", "count"),
    ("sliding.score_ms", "ms"),
    ("sliding.score_us_per_batch", "us"),
    ("sliding.other_ms", "ms"),
    ("tinynn.gflop_per_s", "GFLOP/s"),
    ("tinynn.flop_per_window", "FLOP"),
    ("tinynn.bytes_per_window", "B"),
    ("qsimd.gop_per_s", "GOP/s"),
    ("qsimd.op_per_window", "OP"),
    ("qsimd.bytes_per_window", "B"),
    ("segment.ms", "ms"),
    ("segment.starts", "count"),
    ("persist.load_ms", "ms"),
    ("persist.save_ms", "ms"),
    ("persist.model_bytes", "B"),
    ("service.submit_us_p99", "us"),
    ("service.batches", "count"),
    ("service.batch_fill", "ratio"),
    ("service.windows_per_batch", "count"),
    ("service.queue_depth_max", "count"),
    ("service.sheds", "count"),
    ("service.deadline_drops", "count"),
    ("service.queue_full", "count"),
    ("service.latency_p50_ms", "ms"),
    ("service.latency_p99_ms", "ms"),
    ("registry.swap_ms", "ms"),
    ("registry.swaps", "count"),
    ("registry.loads", "count"),
    ("registry.evictions", "count"),
    ("registry.load_retries", "count"),
    ("net.rtt_p50_ms", "ms"),
    ("net.rtt_p90_ms", "ms"),
    ("net.send_ms", "ms"),
    ("net.mb_sent", "MB"),
    ("net.conn_timeouts", "count"),
    ("net.overhead_ms", "ms"),
    ("loadgen.sent.r1", "count"),
    ("loadgen.sent.r2", "count"),
    ("loadgen.sent.r3", "count"),
    ("loadgen.ok.r1", "count"),
    ("loadgen.ok.r2", "count"),
    ("loadgen.ok.r3", "count"),
    ("loadgen.failed.r1", "count"),
    ("loadgen.failed.r2", "count"),
    ("loadgen.failed.r3", "count"),
    ("loadgen.refused.r1", "count"),
    ("loadgen.refused.r2", "count"),
    ("loadgen.refused.r3", "count"),
    ("loadgen.shed.r1", "count"),
    ("loadgen.shed.r2", "count"),
    ("loadgen.shed.r3", "count"),
    ("loadgen.expired.r1", "count"),
    ("loadgen.expired.r2", "count"),
    ("loadgen.expired.r3", "count"),
    ("loadgen.p50_ms.r1", "ms"),
    ("loadgen.p50_ms.r2", "ms"),
    ("loadgen.p50_ms.r3", "ms"),
    ("loadgen.tail_ms.r1", "ms"),
    ("loadgen.tail_ms.r2", "ms"),
    ("loadgen.tail_ms.r3", "ms"),
    ("loadgen.late_ms_p99", "ms"),
    ("loadgen.backlog_growth", "count"),
    ("setup.simulate_s", "s"),
    ("setup.train_s", "s"),
    ("setup.quantize_s", "s"),
    ("setup.write_s", "s"),
    ("tracing.overhead_pct", "%"),
];

/// The catalogue's own copy of a per-layer metric name.
///
/// # Panics
///
/// Panics if the name is not in [`PER_LAYER`]: a metric the catalogue does
/// not list is a bug in this benchmark.
pub fn per_layer_name(name: &str) -> &'static str {
    PER_LAYER.iter().find(|(n, _)| *n == name).map(|(n, _)| *n).expect("a catalogued metric name")
}

/// Named metric values; names must come from one of the catalogues.
#[derive(Debug, Default)]
pub struct Metrics(pub BTreeMap<&'static str, f64>);

impl Metrics {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.0.insert(name, value);
    }

    pub fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }
}

/// The correctness gate: any failed expectation fails the run.
#[derive(Debug, Default)]
pub struct Check {
    pub failures: Vec<String>,
}

impl Check {
    pub fn expect(&mut self, ok: bool, what: &str) {
        if !ok && !self.failures.iter().any(|f| f == what) {
            self.failures.push(what.to_string());
        }
    }

    pub fn ok(&self) -> bool {
        self.failures.is_empty()
    }
}

/// Computed work of one window through the network: operations
/// (a multiply-add counts 2; convolutions and the head, not the
/// element-wise layers) and bytes moved for the f32 and the i8 chain
/// (every activation written once and read once, weights fetched once per
/// batch of `batch` windows). Nothing here is measured.
#[derive(Debug, Clone, Copy)]
pub struct Work {
    pub ops: f64,
    pub f32_bytes: f64,
    pub i8_bytes: f64,
}

pub fn work(base_filters: usize, kernel: usize, window: usize, batch: usize) -> Work {
    let (f, k, n) = (base_filters as f64, kernel as f64, window as f64);
    let stem = f * k;
    let res1 = 2.0 * f * f * k;
    let res2 = 2.0 * f * f * k + 4.0 * f * f * k + 2.0 * f * f;
    let head = 4.0 * f * f + 4.0 * f;
    let weights = stem + res1 + res2 + head;
    let ops = 2.0 * n * (stem + res1 + res2) + 2.0 * head;
    // Input, stem output, res1 (conv1, conv2, sum), res2 (conv1, conv2,
    // projection, sum).
    let activations = n * (1.0 + f + 3.0 * f + 8.0 * f);
    let per_window = |act_bytes: f64, weight_bytes: f64| {
        2.0 * activations * act_bytes + weights * weight_bytes / batch as f64
    };
    // The i8 chain passes i16 codes and runs on i16 weight operands.
    Work { ops, f32_bytes: per_window(4.0, 4.0), i8_bytes: per_window(2.0, 2.0) }
}

pub fn work_per_window(setup: &Setup) -> Work {
    let cfg = setup.engine.model().config();
    let sliding = setup.engine.sliding();
    work(cfg.base_filters, cfg.kernel_size, sliding.window_len(), sliding.batch_size())
}

/// The `service.*` figures from two `MetricsSnapshot`s taken around a
/// phase; the latency quantiles are the service's lifetime histogram.
pub fn service_deltas(
    a: &MetricsSnapshot,
    b: &MetricsSnapshot,
    queue_depth_max: usize,
    layer: &mut Metrics,
) {
    let batches = (b.batches - a.batches) as f64;
    let windows = (b.batched_windows - a.batched_windows) as f64;
    let tile = crate::setup::service_config().tile_windows as f64;
    let per_batch = |v: f64| if batches > 0.0 { v / batches } else { 0.0 };
    layer.set("service.batches", batches);
    layer.set("service.windows_per_batch", per_batch(windows));
    layer.set("service.batch_fill", per_batch(windows) / tile);
    layer.set("service.queue_depth_max", queue_depth_max as f64);
    layer.set("service.sheds", (b.sheds - a.sheds) as f64);
    layer.set("service.deadline_drops", (b.rejected_deadline - a.rejected_deadline) as f64);
    layer.set("service.queue_full", (b.rejected_queue_full - a.rejected_queue_full) as f64);
    layer.set("service.latency_p50_ms", crate::stats::ms(b.p50_latency));
    layer.set("service.latency_p99_ms", crate::stats::ms(b.p99_latency));
}

/// Formats a finite number with all its digits.
fn num(v: f64) -> String {
    assert!(v.is_finite(), "a metric is not finite: {v}");
    format!("{v}")
}

/// The result line: `correct`, `attempted`, `failed` and every metric of
/// the catalogue with its unit.
pub fn result_line(
    correct: bool,
    attempted: usize,
    failed: usize,
    catalogue: &[(&str, &str)],
    values: &Metrics,
) -> String {
    let mut s = format!("{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{");
    for (i, (name, unit)) in catalogue.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        write!(
            s,
            "{sep}\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            num(values.get(name))
        )
        .expect("write to a string");
    }
    s.push_str("}}");
    s
}

/// A flat JSON object of strings and numbers.
pub fn object(fields: &[(&str, String)]) -> String {
    let body: Vec<String> = fields.iter().map(|(k, v)| format!("\"{k}\": {v}")).collect();
    format!("{{{}}}", body.join(", "))
}

pub fn string(s: &str) -> String {
    format!("\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\""))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn work_matches_the_reference_profile() {
        // The scaled CNN (8 filters, k = 9) at N = 128 costs about 79 MFLOP
        // per batch of 64 windows.
        let w = work(8, 9, 128, 64);
        assert!((w.ops * 64.0 / 1e6 - 79.0).abs() < 2.0, "{} MFLOP", w.ops * 64.0 / 1e6);
        assert!(w.i8_bytes < w.f32_bytes);
    }

    #[test]
    fn catalogues_match_benchmark_json() {
        let json =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json sits at the repository root");
        for (section, catalogue) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let body = &json[json.find(&format!("\"{section}\"")).expect("section present")..];
            let body = &body[..body.find(']').expect("section closes")];
            let listed = body.matches("\"name\"").count();
            assert_eq!(listed, catalogue.len(), "{section} lists {listed} metrics");
            for (name, unit) in catalogue {
                let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
                assert!(body.contains(&entry), "{section} lacks {entry}");
            }
        }
    }
}
