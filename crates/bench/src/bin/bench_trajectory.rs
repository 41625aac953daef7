//! **bench_trajectory**: GraphChi PageRank under the Table-2 configuration
//! at 1, 2, 4 and 8 engine threads, on the facade backend, plus one
//! managed-heap reference run for the GC-side telemetry.
//!
//! Emits `BENCH_graphchi.json` (machine-readable: wall time, GC time, page
//! recycling counters, peak pages and census per thread count, and a
//! `heap` section with the reference run's census and GC pause
//! percentiles) and asserts that every thread count produces bit-identical
//! vertex values — the engine's snapshot/ordered-commit guarantee, checked
//! on the real workload. The reference run's GC log goes to
//! `target/experiments/trajectory_gc.log`.
//!
//! Honours `FACADE_SCALE` and `FACADE_MEM_UNIT` like the other binaries;
//! `FACADE_BENCH_OUT` overrides the output path. The emitted report is the
//! input of the `regression_gate` binary — CI regenerates it and compares
//! against the checked-in baseline.

use datagen::{Graph, GraphSpec};
use facade_bench::{
    census_json, export_trace, export_trace_from, gc_pause_quantiles, mem_unit, profile_json,
    scale, secs, serve_metrics_if_requested, speedup,
};
use graphchi_rs::{Backend, Engine, EngineConfig, PageRank, RunOutcome};
use managed_heap::format_gc_log_line;
use metrics::phases;
use metrics::{Registry, TextTable};

const PAGE_BYTES: u64 = 32 * 1024;
const THREAD_COUNTS: [usize; 4] = [1, 2, 4, 8];

/// The sweep run whose drained timeline feeds the report's `"profile"`
/// section — 4 threads is where the paper-scale workload should show
/// parallelism, so that is where a scaling bottleneck is diagnosable.
const PROFILE_THREADS: usize = 4;

fn run_at(graph: &Graph, backend: Backend, budget_bytes: usize, threads: usize) -> RunOutcome {
    let mut engine = Engine::new(
        graph,
        EngineConfig {
            backend,
            budget_bytes,
            intervals: 20,
            threads,
            ..EngineConfig::default()
        },
    );
    engine
        .execute(&PageRank::new(4))
        .expect("trajectory run fits its budget")
}

fn json_run(threads: usize, out: &RunOutcome, base_wall: f64) -> String {
    let wall = out.timer.total().as_secs_f64();
    format!(
        concat!(
            "    {{\"threads\": {}, \"wall_secs\": {:.6}, \"gc_secs\": {:.6}, ",
            "\"load_secs\": {:.6}, \"update_secs\": {:.6}, ",
            "\"pages_created\": {}, \"pages_recycled\": {}, ",
            "\"pages_from_pool\": {}, \"pages_to_pool\": {}, ",
            "\"peak_pages\": {}, \"peak_bytes\": {}, \"speedup_vs_1\": {:.3}}}"
        ),
        threads,
        wall,
        out.timer.phase(phases::GC).as_secs_f64(),
        out.timer.phase(phases::LOAD).as_secs_f64(),
        out.timer.phase(phases::UPDATE).as_secs_f64(),
        out.stats.pages_created,
        out.stats.pages_recycled,
        out.stats.pages_from_pool,
        out.stats.pages_to_pool,
        out.stats.peak_bytes.div_ceil(PAGE_BYTES),
        out.stats.peak_bytes,
        speedup(base_wall, wall),
    )
}

/// The `heap` section: the managed reference run's census, GC pause count
/// and percentiles (via the metrics registry's histogram), plus where the
/// full GC log was written.
fn json_heap_section(reference: &RunOutcome, gc_log_path: &str) -> String {
    let hist = Registry::global().histogram("trajectory_gc_pause_ns");
    for record in &reference.pauses {
        hist.record(record.pause_ns);
    }
    let [p50, _, p99] = gc_pause_quantiles(&hist);
    format!(
        concat!(
            "{{\"wall_secs\": {:.6}, \"gc_secs\": {:.6}, \"gc_count\": {}, ",
            "\"gc_pauses_logged\": {}, \"gc_pause_p50_ns\": {}, ",
            "\"gc_pause_p99_ns\": {}, \"gc_log\": \"{}\", \"census\": {}}}"
        ),
        reference.timer.total().as_secs_f64(),
        reference.timer.phase(phases::GC).as_secs_f64(),
        reference.stats.gc_count,
        reference.pauses.len(),
        p50,
        p99,
        gc_log_path,
        census_json(&reference.census),
    )
}

fn main() {
    let scale = scale();
    let unit = mem_unit();
    let budget = 8 * unit; // the largest Table-2 budget
    let spec = GraphSpec::twitter_like(scale);
    eprintln!(
        "trajectory: twitter-like graph scale={scale} ({} vertices, {} edges), \
         budget {} bytes, facade backend, PR x4 passes",
        spec.vertices, spec.edges, budget
    );
    let graph = Graph::generate(&spec);

    let mut table = TextTable::new(&[
        "Threads",
        "ET(s)",
        "GT(s)",
        "Recycled",
        "FromPool",
        "PeakPages",
        "Speedup",
    ]);
    let mut outcomes = Vec::new();
    let mut all_events: Vec<facade_trace::TraceEvent> = Vec::new();
    let mut profile_events: Vec<facade_trace::TraceEvent> = Vec::new();
    for &threads in &THREAD_COUNTS {
        let out = run_at(&graph, Backend::Facade, budget, threads);
        // Drain after every run so the PROFILE_THREADS timeline can be
        // analysed in isolation; the Chrome export still covers the whole
        // sweep (timestamps are process-monotonic, so batches concatenate
        // in order).
        let events = facade_trace::drain();
        if threads == PROFILE_THREADS {
            profile_events = events.clone();
        }
        all_events.extend(events);
        outcomes.push((threads, out));
    }

    let (_, baseline) = &outcomes[0];
    let base_wall = baseline.timer.total().as_secs_f64();
    let mut runs_json = Vec::new();
    for (threads, out) in &outcomes {
        assert_eq!(
            baseline.values, out.values,
            "values must be bit-identical at {threads} threads"
        );
        table.row_owned(vec![
            threads.to_string(),
            secs(out.timer.total()),
            secs(out.timer.phase(phases::GC)),
            out.stats.pages_recycled.to_string(),
            out.stats.pages_from_pool.to_string(),
            out.stats.peak_bytes.div_ceil(PAGE_BYTES).to_string(),
            format!(
                "{:.2}x",
                speedup(base_wall, out.timer.total().as_secs_f64())
            ),
        ]);
        runs_json.push(json_run(*threads, out, base_wall));
    }
    println!("{table}");

    // Span summary of the whole sweep; the full Chrome trace goes to
    // target/experiments/trajectory_trace.json (empty without the
    // `tracing` feature). The per-run drains above keep the facade
    // sweep's timeline unmixed with the managed reference run below —
    // with tracing on, the summary's `instants` carries at least the
    // engine's per-interval `interval_commit` marks.
    let trace = export_trace_from("trajectory", &all_events);

    // The facade-prof analysis of the PROFILE_THREADS run: lane
    // busy/idle, per-phase concurrency, critical path, serial fraction.
    // "null" without the `tracing` feature.
    let profile = profile_json(&profile_events);

    // One managed-heap reference run at a Table-2-style budget squeeze:
    // the source of the report's GC-side telemetry (pause log, census).
    let reference = run_at(&graph, Backend::Heap, budget, 1);
    assert_eq!(
        baseline.values, reference.values,
        "backends must agree bit-for-bit"
    );
    let heap_trace = export_trace("trajectory_heap");
    let gc_log_path = "target/experiments/trajectory_gc.log";
    let gc_log: String = reference
        .pauses
        .iter()
        .enumerate()
        .map(|(seq, r)| format_gc_log_line(seq as u64, r) + "\n")
        .collect();
    if std::fs::create_dir_all("target/experiments").is_ok() {
        std::fs::write(gc_log_path, &gc_log).expect("write gc log");
        eprintln!("wrote {gc_log_path} ({} pauses)", reference.pauses.len());
    }

    // Checkpoint-overhead probe: one extra single-threaded run with
    // interval checkpointing on, same graph and budget. Durability must not
    // perturb the values, and the wall-time overhead relative to the
    // uncheckpointed single-threaded run is what CI gates via
    // FACADE_GATE_CKPT_PCT.
    let ckpt_dir = std::path::Path::new("target/experiments/trajectory_ckpt");
    let _ = std::fs::create_dir_all(ckpt_dir);
    let mut ckpt_engine = Engine::new(
        &graph,
        EngineConfig {
            backend: Backend::Facade,
            budget_bytes: budget,
            intervals: 20,
            threads: 1,
            checkpoint_dir: Some(ckpt_dir.to_path_buf()),
            ..EngineConfig::default()
        },
    );
    let ckpt_out = ckpt_engine
        .execute(&PageRank::new(4))
        .expect("checkpointed run fits its budget");
    assert_eq!(
        baseline.values, ckpt_out.values,
        "durability must not perturb values"
    );
    let ckpt_wall = ckpt_out.timer.total().as_secs_f64();
    let _ = std::fs::remove_dir_all(ckpt_dir);
    let checkpoint_json = format!(
        concat!(
            "{{\"wall_secs\": {:.6}, \"overhead_pct\": {:.2}, ",
            "\"checkpoints_written\": {}, \"recoveries\": {}, ",
            "\"torn_checkpoints_discarded\": {}}}"
        ),
        ckpt_wall,
        if base_wall > 0.0 {
            (ckpt_wall / base_wall - 1.0) * 100.0
        } else {
            0.0
        },
        ckpt_out.resilience.checkpoints_written,
        ckpt_out.resilience.recoveries,
        ckpt_out.resilience.torn_checkpoints_discarded,
    );

    // The facade-side census: page occupancy from the single-threaded run
    // (per-worker splits make multi-thread censuses equivalent but noisier)
    // plus the shared pool's counters.
    let census = census_json(&baseline.census);
    let pool_json = baseline.pool.as_ref().map_or_else(
        || "null".to_string(),
        |p| {
            format!(
                concat!(
                    "{{\"pages_handed_out\": {}, \"pages_returned\": {}, ",
                    "\"occupancy_hwm\": {}, \"mean_acquire_ns\": {}, ",
                    "\"mean_release_ns\": {}}}"
                ),
                p.pages_handed_out,
                p.pages_returned,
                p.occupancy_hwm,
                p.mean_acquire_ns(),
                p.mean_release_ns(),
            )
        },
    );

    let json = format!(
        concat!(
            "{{\n",
            "  \"benchmark\": \"graphchi_pagerank_trajectory\",\n",
            "  \"backend\": \"facade\",\n",
            "  \"app\": \"PR\",\n",
            "  \"passes\": 4,\n",
            "  \"graph\": {{\"kind\": \"twitter-like\", \"scale\": {}, ",
            "\"vertices\": {}, \"edges\": {}}},\n",
            "  \"budget_bytes\": {},\n",
            "  \"intervals\": 20,\n",
            "  \"host_cpus\": {},\n",
            "  \"bit_identical_across_threads\": true,\n",
            "  \"runs\": [\n{}\n  ],\n",
            "  \"census\": {},\n",
            "  \"pool\": {},\n",
            "  \"checkpoint\": {},\n",
            "  \"profile_threads\": {},\n",
            "  \"profile\": {},\n",
            "  \"heap\": {},\n",
            "  \"heap_trace\": {},\n",
            "  \"trace\": {}\n",
            "}}\n"
        ),
        scale,
        spec.vertices,
        spec.edges,
        budget,
        facade_bench::host_cpus(),
        runs_json.join(",\n"),
        census,
        pool_json,
        checkpoint_json,
        PROFILE_THREADS,
        profile,
        json_heap_section(&reference, gc_log_path),
        heap_trace,
        trace,
    );
    let path = std::env::var("FACADE_BENCH_OUT").unwrap_or_else(|_| "BENCH_graphchi.json".into());
    std::fs::write(&path, json).expect("write benchmark output");
    eprintln!("wrote {path}");

    let args: Vec<String> = std::env::args().collect();
    serve_metrics_if_requested(&args);
}
