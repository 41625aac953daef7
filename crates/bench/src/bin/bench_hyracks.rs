//! **bench_hyracks**: the WC and ES jobs on the facade backend at 1, 2, 4
//! and 8 pool threads (fixed 8-way data partitioning), plus one managed-heap
//! reference run for the GC-side telemetry.
//!
//! Emits `BENCH_hyracks.json` (machine-readable: combined and per-job wall
//! time, peak memory, page counters, the shared pool's counters, and the
//! per-pool-thread breakdown from [`hyracks_rs::WorkerReport`]) and asserts
//! that every thread count produces bit-identical job output — the
//! partition-indexed merge guarantee of the cluster's thread pool, checked
//! on the real workloads (the ES checksum is order-sensitive).
//!
//! Honours `FACADE_SCALE` and `FACADE_MEM_UNIT` like the other binaries;
//! `FACADE_BENCH_OUT` overrides the output path. The emitted report is an
//! input of the `regression_gate` binary — CI regenerates it and compares
//! against the checked-in baseline.

use datagen::{CorpusSpec, corpus};
use facade_bench::{
    census_json, export_trace, export_trace_from, gc_pause_quantiles, mem_unit, mib, profile_json,
    scale, secs, serve_metrics_if_requested, speedup,
};
use hyracks_rs::{Backend, Cluster, ClusterConfig, EsOutput, JobStats, WcOutput};
use metrics::{Registry, TextTable};

const THREAD_COUNTS: [usize; 4] = [1, 2, 4, 8];
/// Data decomposition is fixed so the output is identical at every thread
/// count; 8 partitions keep all 8 threads of the widest run busy.
const WORKERS: usize = 8;
/// The sweep run whose drained timeline feeds the report's `"profile"`
/// section (see bench_trajectory for the rationale).
const PROFILE_THREADS: usize = 4;

struct RunPair {
    threads: usize,
    wc: WcOutput,
    es: EsOutput,
}

impl RunPair {
    fn wall_secs(&self) -> f64 {
        self.wc.stats.elapsed.as_secs_f64() + self.es.stats.elapsed.as_secs_f64()
    }

    /// Cluster peak over both jobs (each job's peak already sums its
    /// workers' high-water marks).
    fn peak_bytes(&self) -> u64 {
        self.wc.stats.peak_bytes.max(self.es.stats.peak_bytes)
    }
}

fn config(backend: Backend, threads: usize, budget: usize) -> ClusterConfig {
    ClusterConfig {
        workers: WORKERS,
        threads,
        backend,
        per_worker_budget: budget,
        frame_bytes: 32 << 10,
        ..ClusterConfig::default()
    }
}

fn run_at(words: &[String], backend: Backend, threads: usize, budget: usize) -> RunPair {
    let cfg = config(backend, threads, budget);
    let wc = Cluster::new(&cfg)
        .word_count(words)
        .expect("WC fits its budget");
    let es = Cluster::new(&cfg)
        .external_sort(words)
        .expect("ES fits its budget");
    RunPair { threads, wc, es }
}

/// The per-pool-thread breakdown, from the ES job (one phase, so the spread
/// is easy to read; WC's is the same shape summed over map + reduce).
fn json_per_worker(stats: &JobStats) -> String {
    let rows: Vec<String> = stats
        .per_worker
        .iter()
        .map(|w| {
            format!(
                concat!(
                    "{{\"worker\": {}, \"partitions\": {}, ",
                    "\"records_allocated\": {}, \"peak_bytes\": {}}}"
                ),
                w.worker, w.partitions, w.stats.records_allocated, w.stats.peak_bytes
            )
        })
        .collect();
    format!("[{}]", rows.join(", "))
}

fn json_run(pair: &RunPair, base_wall: f64) -> String {
    let wall = pair.wall_secs();
    format!(
        concat!(
            "    {{\"threads\": {}, \"wall_secs\": {:.6}, ",
            "\"wc_secs\": {:.6}, \"es_secs\": {:.6}, \"gc_secs\": {:.6}, ",
            "\"peak_bytes\": {}, \"pages_created\": {}, ",
            "\"es_checksum\": {}, \"speedup_vs_1\": {:.3}, ",
            "\"per_worker\": {}}}"
        ),
        pair.threads,
        wall,
        pair.wc.stats.elapsed.as_secs_f64(),
        pair.es.stats.elapsed.as_secs_f64(),
        pair.wc.stats.gc_time.as_secs_f64() + pair.es.stats.gc_time.as_secs_f64(),
        pair.peak_bytes(),
        pair.wc.stats.pages_created + pair.es.stats.pages_created,
        pair.es.checksum,
        speedup(base_wall, wall),
        json_per_worker(&pair.es.stats),
    )
}

/// The `heap` section: the managed reference run's GC pause count and
/// percentiles (pauses come back through the per-worker reports), plus its
/// merged census.
fn json_heap_section(reference: &RunPair) -> String {
    let hist = Registry::global().histogram("hyracks_gc_pause_ns");
    let mut logged = 0u64;
    for job in [&reference.wc.stats, &reference.es.stats] {
        for worker in &job.per_worker {
            for record in &worker.pauses {
                hist.record(record.pause_ns);
                logged += 1;
            }
        }
    }
    let [p50, _, p99] = gc_pause_quantiles(&hist);
    format!(
        concat!(
            "{{\"wall_secs\": {:.6}, \"gc_secs\": {:.6}, \"gc_count\": {}, ",
            "\"gc_pauses_logged\": {}, \"gc_pause_p50_ns\": {}, ",
            "\"gc_pause_p99_ns\": {}, \"census\": {}}}"
        ),
        reference.wall_secs(),
        reference.wc.stats.gc_time.as_secs_f64() + reference.es.stats.gc_time.as_secs_f64(),
        reference.wc.stats.gc_count + reference.es.stats.gc_count,
        logged,
        p50,
        p99,
        census_json(&reference.wc.stats.census),
    )
}

fn main() {
    let scale = scale();
    let unit = mem_unit();
    let budget = 2 * unit; // the Table-3 per-node budget
    let corpus_bytes = (16.0 * unit as f64 * scale) as usize;
    let spec = CorpusSpec::new(corpus_bytes, 11);
    eprintln!(
        "hyracks: {corpus_bytes}-byte corpus (scale={scale}), {WORKERS} workers, \
         {budget}-byte per-worker budget, facade backend, WC + ES"
    );
    let words = corpus(&spec);

    let mut table = TextTable::new(&["Threads", "WC(s)", "ES(s)", "GT(s)", "Peak(MiB)", "Speedup"]);
    let mut pairs = Vec::new();
    let mut all_events: Vec<facade_trace::TraceEvent> = Vec::new();
    let mut profile_events: Vec<facade_trace::TraceEvent> = Vec::new();
    for &threads in &THREAD_COUNTS {
        let pair = run_at(&words, Backend::Facade, threads, budget);
        // Drain after every run so the PROFILE_THREADS timeline can be
        // analysed in isolation; the Chrome export still covers the whole
        // sweep.
        let events = facade_trace::drain();
        if threads == PROFILE_THREADS {
            profile_events = events.clone();
        }
        all_events.extend(events);
        pairs.push(pair);
    }

    let baseline = &pairs[0];
    let base_wall = baseline.wall_secs();
    let mut runs_json = Vec::new();
    for pair in &pairs {
        assert_eq!(
            baseline.es.payload(),
            pair.es.payload(),
            "ES output must be bit-identical at {} threads",
            pair.threads
        );
        assert_eq!(
            (baseline.wc.distinct_words, baseline.wc.total_count),
            (pair.wc.distinct_words, pair.wc.total_count),
            "WC output must be bit-identical at {} threads",
            pair.threads
        );
        table.row_owned(vec![
            pair.threads.to_string(),
            secs(pair.wc.stats.elapsed),
            secs(pair.es.stats.elapsed),
            secs(pair.wc.stats.gc_time + pair.es.stats.gc_time),
            mib(pair.peak_bytes()),
            format!("{:.2}x", speedup(base_wall, pair.wall_secs())),
        ]);
        runs_json.push(json_run(pair, base_wall));
    }
    println!("{table}");

    // Span summary of the whole facade sweep, kept unmixed from the
    // managed reference run by the per-run drains above (empty without
    // `--features tracing`).
    let trace = export_trace_from("hyracks", &all_events);

    // The facade-prof analysis of the PROFILE_THREADS run: lane
    // busy/idle, per-phase concurrency, critical path, serial fraction.
    // "null" without the `tracing` feature.
    let profile = profile_json(&profile_events);

    // One managed-heap reference run: the GC-side telemetry, and the
    // cross-backend output check.
    let reference = run_at(&words, Backend::Heap, 1, budget);
    assert_eq!(
        baseline.es.payload(),
        reference.es.payload(),
        "backends must agree bit-for-bit"
    );
    let heap_trace = export_trace("hyracks_heap");

    // Checkpoint-overhead probe: one extra single-threaded WC+ES pair with
    // job-phase checkpointing on. Output must stay bit-identical, and the
    // wall-time overhead relative to the uncheckpointed single-threaded
    // pair is what CI gates via FACADE_GATE_CKPT_PCT.
    let ckpt_dir = std::path::Path::new("target/experiments/hyracks_ckpt");
    let _ = std::fs::create_dir_all(ckpt_dir);
    let ckpt_cfg = ClusterConfig {
        checkpoint_dir: Some(ckpt_dir.to_path_buf()),
        ..config(Backend::Facade, 1, budget)
    };
    let ckpt_wc = Cluster::new(&ckpt_cfg)
        .word_count(&words)
        .expect("checkpointed WC fits its budget");
    let ckpt_es = Cluster::new(&ckpt_cfg)
        .external_sort(&words)
        .expect("checkpointed ES fits its budget");
    assert_eq!(
        baseline.es.payload(),
        ckpt_es.payload(),
        "durability must not perturb ES output"
    );
    assert_eq!(
        (baseline.wc.distinct_words, baseline.wc.total_count),
        (ckpt_wc.distinct_words, ckpt_wc.total_count),
        "durability must not perturb WC output"
    );
    let ckpt_wall = ckpt_wc.stats.elapsed.as_secs_f64() + ckpt_es.stats.elapsed.as_secs_f64();
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
        ckpt_wc.stats.resilience.checkpoints_written + ckpt_es.stats.resilience.checkpoints_written,
        ckpt_wc.stats.resilience.recoveries + ckpt_es.stats.resilience.recoveries,
        ckpt_wc.stats.resilience.torn_checkpoints_discarded
            + ckpt_es.stats.resilience.torn_checkpoints_discarded,
    );

    // The shared pool's end-of-job counters, from the single-threaded run
    // (the ES job's pool is the last one the run touched).
    let pool_json = baseline.es.stats.pool.as_ref().map_or_else(
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
            "  \"benchmark\": \"hyracks_wc_es_threads\",\n",
            "  \"backend\": \"facade\",\n",
            "  \"apps\": [\"WC\", \"ES\"],\n",
            "  \"corpus\": {{\"bytes\": {}, \"words\": {}, \"scale\": {}}},\n",
            "  \"workers\": {},\n",
            "  \"budget_bytes\": {},\n",
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
        corpus_bytes,
        words.len(),
        scale,
        WORKERS,
        budget,
        facade_bench::host_cpus(),
        runs_json.join(",\n"),
        census_json(&baseline.es.stats.census),
        pool_json,
        checkpoint_json,
        PROFILE_THREADS,
        profile,
        json_heap_section(&reference),
        heap_trace,
        trace,
    );
    let path = std::env::var("FACADE_BENCH_OUT").unwrap_or_else(|_| "BENCH_hyracks.json".into());
    std::fs::write(&path, json).expect("write benchmark output");
    eprintln!("wrote {path}");

    let args: Vec<String> = std::env::args().collect();
    serve_metrics_if_requested(&args);
}
