//! The traced run's direct calls into each layer's public functions, each
//! wrapped in a benchmark span. Every workload probes every layer on its
//! own dataset (each dataset holds a graph and a corpus), so a change to a
//! layer moves that layer's probe figures on every workload. Only the
//! figures [`Round::dispatch`] and [`emit`]'s `engine` pick from the
//! workload's own jobs are particular to the workload.

use crate::oracle::{self, Checks};
use crate::report::Outcome;
use crate::stats::Samples;
use crate::trace::{SpanId, Tracer};
use data_store::checkpoint as ckpt;
use data_store::{PagePool, PoolCounters};
use facade_job::{
    Dataset, Dispatcher, ExecContext, GraphChiRunner, HyracksRunner, JobRunner, JobSpec, JobStatus,
    Workload,
};
use graphchi_rs::{Csr, Engine, EngineConfig, PageRank};
use hyracks_rs::{Cluster, ClusterConfig};
use metrics::phases;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Per-round samples of every probed quantity, keyed by metric name.
#[derive(Debug, Default)]
pub struct Probes {
    samples: std::collections::BTreeMap<&'static str, Samples>,
}

impl Probes {
    /// Adds one sample of `name`.
    pub fn add(&mut self, name: &'static str, v: f64) {
        self.samples.entry(name).or_default().push(v);
    }

    /// Median of `name` over the rounds; NaN, which the run reports as
    /// not measured, when never sampled.
    pub fn median(&self, name: &str) -> f64 {
        self.samples
            .get(name)
            .and_then(Samples::median)
            .unwrap_or(f64::NAN)
    }

    /// Sum of `name` over the rounds.
    pub fn sum(&self, name: &str) -> f64 {
        self.samples.get(name).map_or(0.0, Samples::sum)
    }

    /// Adds the duration of every span named `span` as a sample of `name`.
    pub fn add_spans(&mut self, tracer: &Tracer, span: &str, name: &'static str) {
        for s in tracer.snapshot().iter().filter(|s| s.name == span) {
            self.add(name, secs(s.duration()));
        }
    }
}

/// Emits the per-layer metrics of the direct probes, in `BENCHMARK.json`
/// order. `engine` names the probe whose pool and store counters stand for
/// the workload's own jobs (`graph` or `cluster`); `ckpt_count` is the
/// checkpoints one of the workload's jobs writes.
pub fn emit(
    probes: &Probes,
    engine: &str,
    dispatch_overhead_ms: f64,
    queue_wait_ms: f64,
    epochs_reconciled: f64,
    ckpt_count: u64,
    out: &mut Outcome,
) {
    let m = |n: &str| probes.median(n);
    let own = |n: &str| probes.median(&format!("{engine}.{n}"));
    out.metric("datagen.graph_s", m("datagen.graph_s"), "s");
    out.metric("datagen.corpus_s", m("datagen.corpus_s"), "s");
    out.metric(
        "facade-job.dispatch_overhead_ms",
        dispatch_overhead_ms,
        "ms",
    );
    out.metric("facade-job.queue_wait_ms", queue_wait_ms, "ms");
    out.metric("facade-job.epochs_reconciled", epochs_reconciled, "count");
    for (name, unit) in [
        ("graphchi-rs.csr_build_s", "s"),
        ("graphchi-rs.execute_s", "s"),
        ("graphchi-rs.load_s", "s"),
        ("graphchi-rs.update_s", "s"),
        ("graphchi-rs.edges_per_s", "1/s"),
        ("graphchi-rs.parallel_eff", "ratio"),
    ] {
        out.metric(name, m(name), unit);
    }
    out.metric("facade-runtime.ckpt_count", ckpt_count as f64, "count");
    for (name, unit) in [
        ("facade-runtime.ckpt_mb", "MiB"),
        ("facade-runtime.ckpt_overhead_ms", "ms"),
        ("facade-runtime.ckpt_encode_ms", "ms"),
        ("facade-runtime.ckpt_manifest_ms", "ms"),
        ("facade-runtime.ckpt_write_ms", "ms"),
    ] {
        out.metric(name, m(name), unit);
    }
    out.metric(
        "facade-runtime.pool_acquires",
        own("pool_acquires"),
        "count",
    );
    out.metric(
        "facade-runtime.pool_acquire_ns",
        own("pool_acquire_ns"),
        "ns",
    );
    out.metric(
        "facade-runtime.pool_release_ns",
        own("pool_release_ns"),
        "ns",
    );
    out.metric("facade-runtime.pool_reuse", own("pool_reuse"), "ratio");
    out.metric("data-store.peak_mb", own("peak_mb"), "MiB");
    out.metric(
        "data-store.records_allocated",
        own("records_allocated"),
        "count",
    );
    for (name, unit) in [
        ("hyracks-rs.wc_s", "s"),
        ("hyracks-rs.es_s", "s"),
        ("hyracks-rs.records_per_s", "1/s"),
        ("hyracks-rs.worker_skew", "ratio"),
    ] {
        out.metric(name, m(name), unit);
    }
}

fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Empties (and creates) the checkpoint directory before a checkpoint probe.
pub fn reset_dir(dir: &Path) {
    let _ = std::fs::remove_dir_all(dir);
    std::fs::create_dir_all(dir).expect("create the checkpoint directory");
}

/// Whether `dir` holds no files.
pub fn is_empty_dir(dir: &Path) -> bool {
    std::fs::read_dir(dir).map_or(true, |mut d| d.next().is_none())
}

/// Pool counters accumulated between two snapshots.
fn pool_delta(before: &PoolCounters, after: &PoolCounters) -> (f64, f64, f64) {
    let calls = after.acquire_calls - before.acquire_calls;
    let releases = after.release_calls - before.release_calls;
    let per = |ns: u64, n: u64| if n == 0 { 0.0 } else { ns as f64 / n as f64 };
    (
        calls as f64,
        per(after.acquire_ns_total - before.acquire_ns_total, calls),
        per(after.release_ns_total - before.release_ns_total, releases),
    )
}

/// The engine config `GraphChiRunner` builds from `spec`, on `pool`.
fn engine_config(spec: &JobSpec, pool: &Arc<PagePool>, epoch: u64) -> EngineConfig {
    EngineConfig {
        backend: spec.backend,
        budget_bytes: spec.budget_bytes,
        intervals: spec.intervals,
        threads: spec.threads,
        pool: Some(Arc::clone(pool)),
        job_epoch: epoch,
        checkpoint_dir: spec.checkpoint_dir.clone(),
        ..EngineConfig::default()
    }
}

/// Everything one traced round needs.
pub struct Round<'a> {
    /// Span recorder.
    pub tracer: &'a Tracer,
    /// Parent span of this round.
    pub root: SpanId,
    /// Request id of this round.
    pub request: u64,
    /// The workload's dataset.
    pub data: &'a Dataset,
    /// The shared pool its jobs draw from.
    pub pool: &'a Arc<PagePool>,
    /// Output checks.
    pub checks: &'a Checks,
    /// Directory for checkpoint probes.
    pub ckpt_dir: &'a Path,
}

impl Round<'_> {
    fn time<R>(&self, name: &'static str, f: impl FnOnce() -> R) -> (R, Duration) {
        self.tracer.time(name, Some(self.root), self.request, f)
    }

    /// Runs PageRank `spec` directly on the engine: CSR build, execute at
    /// the spec's threads, at `nproc` threads and with checkpoints, then
    /// the three checkpoint calls over the same value arrays.
    pub fn graph(&self, spec: &JobSpec, expected: u64, out: &mut Probes) {
        let Workload::PageRank { iterations } = spec.workload else {
            unreachable!("the graph probe runs PageRank");
        };
        let app = PageRank::new(iterations);
        let (_csr, t) = self.time("graphchi-rs.csr_build", || Csr::build(&self.data.graph));
        out.add("graphchi-rs.csr_build_s", secs(t));

        let run = |name: &'static str, spec: &JobSpec| {
            let epoch = self.pool.begin_epoch();
            let before = self.pool.counters();
            let mut engine = Engine::new(&self.data.graph, engine_config(spec, self.pool, epoch));
            let (outcome, t) = self.time(name, || engine.execute(&app));
            let after = self.pool.counters();
            let ledger = self.pool.retire_epoch(epoch).unwrap_or_default();
            let outcome = outcome.expect("a probe PageRank completes");
            self.checks.expect(
                ledger.pages_in == ledger.pages_out + outcome.stats.pages_created,
                || format!("{name}: epoch {epoch} did not reconcile: {ledger:?}"),
            );
            let fp = facade_job::JobOutput::Vertices {
                values: outcome.values.clone(),
            }
            .fingerprint();
            self.checks.expect(fp == expected, || {
                format!("{name}: fingerprint {fp:016x} differs from P's {expected:016x}")
            });
            (outcome, t, pool_delta(&before, &after))
        };

        let plain = JobSpec {
            checkpoint_dir: None,
            ..spec.clone()
        };
        let (outcome, t_n, (acquires, acq_ns, rel_ns)) = run("graphchi-rs.execute", &plain);
        out.add("graphchi-rs.execute_s", secs(t_n));
        out.add(
            "graphchi-rs.load_s",
            secs(outcome.timer.phase(phases::LOAD)),
        );
        out.add(
            "graphchi-rs.update_s",
            secs(outcome.timer.phase(phases::UPDATE)),
        );
        out.add(
            "graphchi-rs.edges_per_s",
            outcome.edges_processed as f64 / secs(t_n),
        );
        out.add("graph.pool_acquires", acquires);
        out.add("graph.pool_acquire_ns", acq_ns);
        out.add("graph.pool_release_ns", rel_ns);
        let s = &outcome.stats;
        out.add(
            "graph.pool_reuse",
            s.pages_from_pool as f64 / (s.pages_from_pool + s.pages_created).max(1) as f64,
        );
        out.add("graph.peak_mb", s.peak_bytes as f64 / f64::from(1 << 20));
        out.add("graph.records_allocated", s.records_allocated as f64);

        let nproc = crate::provenance::nproc();
        let wide = JobSpec {
            threads: nproc,
            ..plain.clone()
        };
        let (_, t_wide, _) = run("graphchi-rs.execute_nproc", &wide);
        out.add(
            "graphchi-rs.parallel_eff",
            (secs(t_n) * plain.threads as f64) / (nproc as f64 * secs(t_wide)),
        );

        reset_dir(self.ckpt_dir);
        let durable = JobSpec {
            checkpoint_dir: Some(self.ckpt_dir.to_path_buf()),
            ..plain.clone()
        };
        let (outcome_c, t_c, _) = run("graphchi-rs.execute_ckpt", &durable);
        let written = outcome_c.resilience.checkpoints_written;
        self.checks
            .expect(written > 0 && is_empty_dir(self.ckpt_dir), || {
                format!("checkpoint probe wrote {written} checkpoints and left files behind")
            });
        out.add(
            "facade-runtime.ckpt_overhead_ms",
            ms(t_c.saturating_sub(t_n)) / written.max(1) as f64,
        );

        // The three calls `Engine::write_checkpoint` makes per interval,
        // over value arrays of the engine's size.
        let values = outcome.values;
        let edge_values: Vec<f64> = (0..self.data.graph.edges.len())
            .map(|i| values[i % values.len()])
            .collect();
        let (manifest, t_enc) = self.time("facade-runtime.ckpt_encode", || {
            let mut m = ckpt::Manifest::new(expected, [0, 0]);
            m.push("values", ckpt::encode_f64s(&values));
            m.push("edge_values", ckpt::encode_f64s(&edge_values));
            m
        });
        let (bytes, t_man) = self.time("facade-runtime.ckpt_manifest", || {
            ckpt::encode_manifest(&manifest)
        });
        let path = Engine::checkpoint_path(self.ckpt_dir);
        let (written, t_write) = self.time("facade-runtime.ckpt_write", || {
            ckpt::write_manifest(&path, &manifest)
        });
        self.checks.expect(written.is_ok(), || {
            format!("checkpoint write failed: {written:?}")
        });
        let _ = std::fs::remove_file(&path);
        out.add("facade-runtime.ckpt_encode_ms", ms(t_enc));
        out.add("facade-runtime.ckpt_manifest_ms", ms(t_man));
        out.add(
            "facade-runtime.ckpt_write_ms",
            ms(t_write.saturating_sub(t_man)),
        );
        out.add(
            "facade-runtime.ckpt_mb",
            bytes.len() as f64 / f64::from(1 << 20),
        );
    }

    /// Runs WordCount and ExternalSort `specs` directly on a cluster.
    pub fn cluster(&self, wc: &JobSpec, es: &JobSpec, expected: (u64, u64), out: &mut Probes) {
        let config = |spec: &JobSpec, epoch: u64| ClusterConfig {
            workers: spec.workers,
            threads: spec.threads,
            backend: spec.backend,
            per_worker_budget: spec.budget_bytes,
            frame_bytes: spec.frame_bytes,
            pool: Some(Arc::clone(self.pool)),
            job_epoch: epoch,
            ..ClusterConfig::default()
        };
        let before = self.pool.counters();
        let epoch = self.pool.begin_epoch();
        let cluster = Cluster::new(&config(wc, epoch));
        let (wc_out, t_wc) = self.time("hyracks-rs.word_count", || {
            cluster.word_count(&self.data.corpus)
        });
        let wc_out = wc_out.expect("a probe WordCount completes");
        let epoch_es = self.pool.begin_epoch();
        let cluster = Cluster::new(&config(es, epoch_es));
        let (es_out, t_es) = self.time("hyracks-rs.external_sort", || {
            cluster.external_sort(&self.data.corpus)
        });
        let es_out = es_out.expect("a probe ExternalSort completes");
        let after = self.pool.counters();
        for (e, created) in [
            (epoch, wc_out.stats.pages_created),
            (epoch_es, es_out.stats.pages_created),
        ] {
            let ledger = self.pool.retire_epoch(e).unwrap_or_default();
            self.checks
                .expect(ledger.pages_in == ledger.pages_out + created, || {
                    format!("cluster probe epoch {e} did not reconcile: {ledger:?}")
                });
        }
        let fps = (
            facade_job::JobOutput::WordCount {
                distinct: wc_out.distinct_words,
                total: wc_out.total_count,
                counts: wc_out.counts,
            }
            .fingerprint(),
            facade_job::JobOutput::ExternalSort {
                rows: es_out.total_records,
                checksum: es_out.checksum,
            }
            .fingerprint(),
        );
        self.checks.expect(fps == expected, || {
            format!("cluster probe fingerprints {fps:016x?} differ from P's {expected:016x?}")
        });
        out.add("hyracks-rs.wc_s", secs(t_wc));
        out.add("hyracks-rs.es_s", secs(t_es));
        let records = wc_out.stats.records_allocated + es_out.stats.records_allocated;
        out.add(
            "hyracks-rs.records_per_s",
            records as f64 / secs(t_wc + t_es),
        );
        let mut parts = vec![0u64; wc.workers.max(es.workers)];
        for w in wc_out
            .stats
            .per_worker
            .iter()
            .chain(&es_out.stats.per_worker)
        {
            parts[w.worker] += w.partitions;
        }
        let mean = parts.iter().sum::<u64>() as f64 / parts.len() as f64;
        let max = parts.iter().copied().max().unwrap_or(0) as f64;
        out.add(
            "hyracks-rs.worker_skew",
            if mean > 0.0 { max / mean } else { 0.0 },
        );
        let (acquires, acq_ns, rel_ns) = pool_delta(&before, &after);
        out.add("cluster.pool_acquires", acquires);
        out.add("cluster.pool_acquire_ns", acq_ns);
        out.add("cluster.pool_release_ns", rel_ns);
        let (from_pool, created) = wc_out
            .stats
            .per_worker
            .iter()
            .chain(&es_out.stats.per_worker)
            .fold((0, 0), |(f, c), w| {
                (f + w.stats.pages_from_pool, c + w.stats.pages_created)
            });
        out.add(
            "cluster.pool_reuse",
            from_pool as f64 / (from_pool + created).max(1) as f64,
        );
        out.add(
            "cluster.peak_mb",
            wc_out.stats.peak_bytes.max(es_out.stats.peak_bytes) as f64 / f64::from(1 << 20),
        );
        out.add("cluster.records_allocated", records as f64);
    }

    /// Runs `spec` once directly through its runner and once through
    /// `dispatcher`; the difference is the dispatcher's overhead. Returns
    /// `(dispatcher wall, runner wall, checkpoints written per job)`.
    pub fn dispatch(
        &self,
        dispatcher: &Dispatcher,
        spec: &JobSpec,
        expected: u64,
        out: &mut Probes,
    ) -> (Duration, Duration, u64) {
        let runner: &dyn JobRunner = if spec.workload.uses_corpus() {
            &HyracksRunner
        } else {
            &GraphChiRunner
        };
        // Alternate which path runs first, so that neither always meets a
        // cold pool or cache.
        let direct = || {
            let epoch = self.pool.begin_epoch();
            let ctx = ExecContext {
                pool: Some(Arc::clone(self.pool)),
                epoch,
                cancel: Arc::default(),
            };
            let (direct, t_runner) = self.time("facade-job.runner", || {
                runner.execute(spec, self.data, &ctx)
            });
            let ledger = self.pool.retire_epoch(epoch).unwrap_or_default();
            match direct {
                Ok(report) => {
                    self.checks.expect(
                        report.output.fingerprint() == expected
                            && ledger.pages_in == ledger.pages_out + report.pages_created,
                        || format!("direct {} run disagrees with P or its epoch", spec.workload),
                    );
                }
                Err(e) => {
                    self.checks
                        .expect(false, || format!("direct {}: {e}", spec.workload));
                }
            }
            t_runner
        };
        let dispatched = || {
            let job = self
                .tracer
                .open("facade-job.job", Some(self.root), self.request);
            let t0 = Instant::now();
            let (handle, _) =
                self.tracer
                    .time("facade-job.submit", Some(job), self.request, || {
                        dispatcher.submit(spec.clone())
                    });
            let handle = handle.expect("the probe dispatcher admits one job");
            let ((), t_queue) =
                self.tracer
                    .time("facade-job.queue_wait", Some(job), self.request, || {
                        while handle.status() == JobStatus::Queued {
                            std::thread::sleep(Duration::from_micros(50));
                        }
                    });
            let (report, _) = self
                .tracer
                .time("facade-job.wait", Some(job), self.request, || handle.wait());
            let t_dispatch = t0.elapsed();
            self.tracer.close(job);
            (t_dispatch, t_queue, report)
        };
        let (t_runner, (t_dispatch, t_queue, report)) = if self.request.is_multiple_of(2) {
            let t = direct();
            (t, dispatched())
        } else {
            let d = dispatched();
            (direct(), d)
        };
        let mut ckpts = 0;
        match report {
            Ok(report) => {
                ckpts = report.resilience.checkpoints_written;
                let ok = self.checks.expect_ok(oracle::check_job(&report, expected));
                out.add("facade-job.epochs_reconciled", f64::from(u8::from(ok)));
            }
            Err(e) => {
                self.checks
                    .expect(false, || format!("dispatched {}: {e}", spec.workload));
            }
        }
        out.add("facade-job.queue_wait_ms", ms(t_queue));
        (t_dispatch, t_runner, ckpts)
    }
}
