//! What one run reports: machine metrics for the last line, readable
//! lines for people, and the process's memory high-water mark.

use crate::stats::Samples;
use crate::trace::Span;

/// The end-to-end metrics every `--trace 0` run reports, in order.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("op_cpu_cal_p50_ms", "ms"),
    ("peak_rss_mb", "MiB"),
];

/// The per-layer metrics every `--trace 1` run reports, in order.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("datagen.graph_s", "s"),
    ("datagen.corpus_s", "s"),
    ("facade-job.dispatch_overhead_ms", "ms"),
    ("facade-job.queue_wait_ms", "ms"),
    ("facade-job.epochs_reconciled", "count"),
    ("graphchi-rs.csr_build_s", "s"),
    ("graphchi-rs.execute_s", "s"),
    ("graphchi-rs.load_s", "s"),
    ("graphchi-rs.update_s", "s"),
    ("graphchi-rs.edges_per_s", "1/s"),
    ("graphchi-rs.parallel_eff", "ratio"),
    ("facade-runtime.ckpt_count", "count"),
    ("facade-runtime.ckpt_mb", "MiB"),
    ("facade-runtime.ckpt_overhead_ms", "ms"),
    ("facade-runtime.ckpt_encode_ms", "ms"),
    ("facade-runtime.ckpt_manifest_ms", "ms"),
    ("facade-runtime.ckpt_write_ms", "ms"),
    ("facade-runtime.pool_acquires", "count"),
    ("facade-runtime.pool_acquire_ns", "ns"),
    ("facade-runtime.pool_release_ns", "ns"),
    ("facade-runtime.pool_reuse", "ratio"),
    ("data-store.peak_mb", "MiB"),
    ("data-store.records_allocated", "count"),
    ("hyracks-rs.wc_s", "s"),
    ("hyracks-rs.es_s", "s"),
    ("hyracks-rs.records_per_s", "1/s"),
    ("hyracks-rs.worker_skew", "ratio"),
    ("metrics.http_connect_ms", "ms"),
    ("metrics.http_floor_ms", "ms"),
    ("facade-server.query_pagerank_ms", "ms"),
    ("facade-server.query_cc_ms", "ms"),
    ("facade-server.query_wc_ms", "ms"),
    ("facade-server.router_share", "ratio"),
    ("facade-server.submit_ms", "ms"),
    ("facade-server.poll_ms", "ms"),
    ("facade-server.polls_per_job", "count"),
    ("facade-server.refused", "count"),
    ("facade-server.job_p50_s", "s"),
    ("metrics.scrape_ms", "ms"),
    ("metrics.scrape_kb", "KiB"),
    ("facade-server.boot_s", "s"),
    ("loadgen.late_p99_ms", "ms"),
    ("trace.unattributed_pct", "%"),
    ("trace.overhead_pct", "%"),
];

/// One named measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Value as measured.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// The result of one workload run.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that errored, were refused, never sent, or were wrong.
    pub failed: u64,
    /// The metrics of the final line.
    pub metrics: Vec<Metric>,
    /// Readable lines printed before it.
    pub lines: Vec<String>,
    /// Spans of a traced run.
    pub spans: Vec<Span>,
}

impl Outcome {
    /// Adds a metric to the final line and prints it.
    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.lines.push(format!("{name} {value:.6} {unit}"));
        self.metrics.push(Metric { name, value, unit });
    }

    /// Prints a quantile of `samples` with its sample count, or why it was
    /// refused; returns the value when reported.
    pub fn quantile(&mut self, name: &str, samples: &Samples, q: f64, unit: &str) -> Option<f64> {
        match samples.quantile(q) {
            Ok(v) => {
                self.lines
                    .push(format!("{name} {v:.6} {unit} (n={})", samples.len()));
                Some(v)
            }
            Err(e) => {
                self.lines.push(format!("{name} refused: {e}"));
                None
            }
        }
    }

    /// Prints `failed_pct`.
    pub fn failed_pct(&mut self) {
        let pct = 100.0 * self.failed as f64 / self.attempted.max(1) as f64;
        self.lines.push(format!(
            "failed_pct {pct:.4} % ({} of {} operations)",
            self.failed, self.attempted
        ));
    }
}

/// Resets the kernel's peak-RSS mark so that set-up and reference runs do
/// not count toward the workload's peak. Returns whether the kernel
/// accepted the reset.
pub fn reset_peak_rss() -> bool {
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// Host-wide CPU jiffies so far: `(total, steal)`, from `/proc/stat`.
pub fn cpu_jiffies() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let fields: Vec<u64> = stat
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .filter_map(|f| f.parse().ok())
        .collect();
    Some((fields.iter().sum(), *fields.get(7)?))
}

/// Peak resident memory of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use metrics::json::{self, Json};

    /// The metric tables here and in `BENCHMARK.json` list the same names
    /// and units in the same order.
    #[test]
    fn metric_tables_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
        let doc = json::parse(&text).expect("BENCHMARK.json is JSON");
        for (key, table) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let listed: Vec<(&str, &str)> = doc
                .get(key)
                .and_then(Json::as_array)
                .expect("metric list")
                .iter()
                .map(|m| {
                    (
                        m.get("name").and_then(Json::as_str).expect("name"),
                        m.get("unit").and_then(Json::as_str).expect("unit"),
                    )
                })
                .collect();
            assert_eq!(listed, table.to_vec(), "{key}");
        }
    }
}
