//! Shared helpers for the benchmark binaries that regenerate the paper's
//! tables and figures.
//!
//! Every binary honours two environment variables:
//!
//! - `FACADE_SCALE` — workload scale factor (default `0.2`); `1.0`
//!   approximates the largest laptop-friendly setting.
//! - `FACADE_MEM_UNIT` — bytes standing in for the paper's "1 GB" of
//!   memory budget (default 4 MiB).
//!
//! Results are printed as paper-style text tables and also written as JSON
//! lines under `target/experiments/` for `EXPERIMENTS.md` regeneration.

pub mod gate;
pub mod json;

use metrics::report::RunRecord;
use std::fs;
use std::path::PathBuf;
use std::time::Duration;

/// The workload scale factor from `FACADE_SCALE`.
pub fn scale() -> f64 {
    std::env::var("FACADE_SCALE")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0.2)
}

/// Bytes per "GB" of the paper's budgets, from `FACADE_MEM_UNIT`.
pub fn mem_unit() -> usize {
    std::env::var("FACADE_MEM_UNIT")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(4 << 20)
}

/// Number of simulated cluster workers, from `FACADE_WORKERS`.
pub fn workers() -> usize {
    std::env::var("FACADE_WORKERS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(4)
}

/// GraphChi engine worker threads, from `FACADE_THREADS` (default: every
/// available core).
pub fn threads() -> usize {
    std::env::var("FACADE_THREADS")
        .ok()
        .and_then(|s| s.parse().ok())
        .filter(|&t| t > 0)
        .unwrap_or_else(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
}

/// The host's CPU count, as bench reports record it under `host_cpus`.
///
/// On a 1-CPU host every thread count time-slices one core, so the
/// `speedup_vs_1` column of such a report is scheduler noise. This prints
/// a loud warning in that case: never refresh a checked-in baseline's
/// speedups from a 1-CPU run. The regression gate reads the recorded
/// `host_cpus` and skips its speedup checks when either report says 1.
pub fn host_cpus() -> usize {
    let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    if cpus == 1 {
        eprintln!(
            "WARNING: 1-CPU host — speedup_vs_1 in this report carries no \
             parallel-efficiency signal; do not promote it to a checked-in \
             baseline"
        );
    }
    cpus
}

/// Formats a duration as fractional seconds (the paper's table format).
pub fn secs(d: Duration) -> String {
    format!("{:.2}", d.as_secs_f64())
}

/// Formats bytes as MiB with one decimal (the paper's `PM` columns are MB).
pub fn mib(bytes: u64) -> String {
    format!("{:.1}", bytes as f64 / (1 << 20) as f64)
}

/// Writes experiment records as JSON lines under `target/experiments/`.
pub fn write_records(name: &str, records: &[RunRecord]) {
    let dir = PathBuf::from("target/experiments");
    if fs::create_dir_all(&dir).is_ok() {
        let path = dir.join(format!("{name}.jsonl"));
        let _ = fs::write(&path, metrics::report::to_json_lines(records));
        eprintln!("wrote {}", path.display());
    }
}

/// Drains the process-wide trace buffers and exports them twice: a Chrome
/// `trace_event` file at `target/experiments/{name}_trace.json` (load it at
/// `chrome://tracing` or <https://ui.perfetto.dev>) and a returned
/// per-span-name summary as a JSON object string, ready to embed in a
/// bench report under a `"trace"` key.
///
/// With tracing disabled (the default build) the buffers are empty: the
/// file records zero events and the summary is `{"events": 0, ...}`.
/// Build the bench binaries with `--features tracing` to capture spans.
pub fn export_trace(name: &str) -> String {
    export_trace_from(name, &facade_trace::drain())
}

/// [`export_trace`] over an already-drained timeline — for binaries that
/// drain per run (to profile one run in isolation) and still want the
/// whole sweep in one Chrome file. Folds the recorder's dropped-event
/// count (buffer-cap overflow) into the summary.
pub fn export_trace_from(name: &str, events: &[facade_trace::TraceEvent]) -> String {
    let mut summary = facade_trace::summary::summarize(events);
    summary.events_dropped = facade_trace::take_events_dropped();
    let dir = PathBuf::from("target/experiments");
    if fs::create_dir_all(&dir).is_ok() {
        let path = dir.join(format!("{name}_trace.json"));
        let _ = fs::write(&path, facade_trace::chrome::render(events));
        eprintln!("wrote {} ({} events)", path.display(), events.len());
    }
    summary.to_json()
}

/// Builds the `"profile"` JSON section of a bench report: the facade-prof
/// analysis (lanes, concurrency histograms, critical path, serial
/// fraction) of one run's drained events. `"null"` when the timeline is
/// empty (tracing disabled) so the section stays honest instead of
/// claiming a measured-zero profile.
pub fn profile_json(events: &[facade_trace::TraceEvent]) -> String {
    if events.is_empty() {
        return "null".to_string();
    }
    facade_prof::Profile::build(&facade_prof::from_trace(events)).to_json()
}

/// Handles the `--serve-metrics <addr>` flag shared by bench_trajectory and
/// bench_hyracks: when present in `args`, binds the global metrics
/// registry's Prometheus exposition at `addr`, serves until at least one
/// request has been answered (one scrape: `curl http://<addr>/metrics`),
/// then shuts the server down and returns. Call it after the report is
/// written so the scrape sees final values.
pub fn serve_metrics_if_requested(args: &[String]) {
    let Some(pos) = args.iter().position(|a| a == "--serve-metrics") else {
        return;
    };
    let Some(addr) = args.get(pos + 1) else {
        eprintln!("--serve-metrics requires an address, e.g. --serve-metrics 127.0.0.1:9184");
        std::process::exit(2);
    };
    let server = metrics::MetricsServer::bind(addr, metrics::Registry::global_shared())
        .unwrap_or_else(|e| {
            eprintln!("--serve-metrics {addr}: bind failed: {e}");
            std::process::exit(2);
        });
    eprintln!(
        "serving metrics at http://{}/metrics (exits after the first scrape)",
        server.local_addr()
    );
    let handle = server.start(1);
    handle.wait_for_requests(1);
    handle.shutdown();
}

/// Renders a [`data_store::StoreCensus`] as one JSON object, for the
/// `census`/`heap` sections of bench reports. Deterministic: rows and
/// per-type counts are name-sorted by construction.
pub fn census_json(census: &data_store::StoreCensus) -> String {
    fn push_json_str(out: &mut String, s: &str) {
        out.push('"');
        for c in s.chars() {
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                c if (c as u32) < 0x20 => {
                    out.push_str(&format!("\\u{:04x}", c as u32));
                }
                c => out.push(c),
            }
        }
        out.push('"');
    }
    let mut out = String::new();
    out.push_str("{\"backend\": ");
    push_json_str(&mut out, census.backend);
    out.push_str(&format!(
        ", \"live_objects\": {}, \"live_bytes\": {}, \"records_allocated\": {}, \"rows\": [",
        census.live_objects, census.live_bytes, census.records_allocated
    ));
    for (i, row) in census.rows.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        out.push_str("{\"name\": ");
        push_json_str(&mut out, &row.name);
        out.push_str(&format!(
            ", \"count\": {}, \"shallow_bytes\": {}, \"header_bytes\": {}}}",
            row.count, row.shallow_bytes, row.header_bytes
        ));
    }
    out.push_str("], \"records_by_type\": {");
    for (i, (name, count)) in census.records_by_type.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        push_json_str(&mut out, name);
        out.push_str(&format!(": {count}"));
    }
    out.push_str("}}");
    out
}

/// The GC-pause quantiles every bench report carries (p50, p90, p99), as
/// fractions: [`metrics::Histogram::percentile`] takes 0.0–1.0, and a
/// percent such as `50.0` clamps to 1.0 and reports the maximum pause.
pub const GC_PAUSE_QUANTILES: [f64; 3] = [0.50, 0.90, 0.99];

/// `[p50, p90, p99]` of a GC-pause histogram, in its unit (ns).
pub fn gc_pause_quantiles(hist: &metrics::Histogram) -> [u64; 3] {
    GC_PAUSE_QUANTILES.map(|q| hist.percentile(q))
}

/// Percentage reduction from `before` to `after` (positive = improvement).
pub fn reduction_pct(before: f64, after: f64) -> f64 {
    if before > 0.0 {
        (before - after) / before * 100.0
    } else {
        0.0
    }
}

/// Speedup factor `before / after`.
pub fn speedup(before: f64, after: f64) -> f64 {
    if after > 0.0 {
        before / after
    } else {
        f64::INFINITY
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reduction_and_speedup_math() {
        assert_eq!(reduction_pct(100.0, 75.0), 25.0);
        assert_eq!(speedup(100.0, 50.0), 2.0);
        assert_eq!(reduction_pct(0.0, 5.0), 0.0);
        assert!(speedup(1.0, 0.0).is_infinite());
    }

    #[test]
    fn gc_pause_quantiles_resolve_a_known_spread() {
        let hist = metrics::Registry::new().histogram("pauses_ns");
        // 90 short pauses of ~1 µs and 10 long ones of ~1 ms.
        for i in 0..100u64 {
            hist.record(if i % 10 == 0 {
                1_000_000 + i
            } else {
                1_000 + i
            });
        }
        let [p50, p90, p99] = gc_pause_quantiles(&hist);
        assert!(p50 < 4_096, "p50 {p50} ns lies among the short pauses");
        assert!(p50 <= p90 && p90 < p99, "p50 {p50}, p90 {p90}, p99 {p99}");
        assert_eq!(p99, hist.max(), "p99 is a long pause");
    }

    #[test]
    fn formatting() {
        assert_eq!(secs(Duration::from_millis(1500)), "1.50");
        assert_eq!(mib(3 << 20), "3.0");
    }

    #[test]
    fn census_json_round_trips_through_the_gate_parser() {
        let census = data_store::StoreCensus {
            backend: "heap",
            rows: vec![data_store::CensusRow {
                name: "Vertex \"odd\"".to_string(),
                count: 7,
                shallow_bytes: 196,
                header_bytes: 84,
            }],
            live_objects: 7,
            live_bytes: 196,
            records_allocated: 1_000,
            records_by_type: vec![("Vertex".to_string(), 1_000)],
        };
        let doc = crate::json::parse(&census_json(&census)).expect("valid JSON");
        assert_eq!(doc.get("backend").unwrap().as_str(), Some("heap"));
        assert_eq!(doc.get("live_objects").unwrap().as_u64(), Some(7));
        let rows = doc.get("rows").unwrap().as_array().unwrap();
        assert_eq!(
            rows[0].get("name").unwrap().as_str(),
            Some("Vertex \"odd\"")
        );
        assert_eq!(
            doc.get("records_by_type")
                .unwrap()
                .get("Vertex")
                .unwrap()
                .as_u64(),
            Some(1_000)
        );
    }
}
