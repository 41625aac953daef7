//! The batch workloads: closed-loop jobs, one at a time, through the
//! in-process `Dispatcher` over a shared `PagePool`.

use crate::calib::{self, Calibration};
use crate::daemon;
use crate::oracle::{self, Checks};
use crate::probe::{self, Probes, Round};
use crate::report::{self, Outcome};
use crate::stats::Samples;
use crate::trace::{SpanId, Tracer};
use data_store::PagePool;
use datagen::{CorpusSpec, Graph, GraphSpec, corpus};
use facade_job::{Dataset, Dispatcher, DispatcherConfig, JobSpec, Workload};
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Set-ups per run; `setup_s` is their median.
pub const SETUPS: usize = 5;

/// How long one job took: by the wall clock, and in CPU time of the
/// process while it ran.
#[derive(Debug, Clone, Copy)]
struct Timing {
    wall: Duration,
    cpu: Duration,
}

/// Sum of `f(timing)` over the jobs of one operation, in milliseconds.
fn total_ms(jobs: &[Option<Timing>], f: fn(&Timing) -> Duration) -> f64 {
    jobs.iter().flatten().map(f).sum::<Duration>().as_secs_f64() * 1e3
}

/// Which batch workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// PageRank jobs, no checkpoints.
    PageRank,
    /// Alternating WordCount and ExternalSort jobs.
    Cluster,
}

/// A batch workload's dataset and jobs.
#[derive(Debug, Clone)]
pub struct Plan {
    vertices: u32,
    edges: u64,
    corpus_bytes: usize,
    /// The jobs of one timed operation, run in order.
    ops: Vec<JobSpec>,
    /// PageRank job for the graph probe.
    pagerank: JobSpec,
    /// Cluster jobs for the cluster probe.
    wc: JobSpec,
    es: JobSpec,
}

impl Plan {
    /// The plan of `kind`.
    ///
    /// Jobs run one thread. On a small VM a job that keeps every vCPU busy
    /// meets the hypervisor's CPU steal on its critical path: on a shared
    /// 2-vCPU VM, two-thread PageRank jobs saw 2–7× the steal of
    /// one-thread jobs and their medians moved 370→770 ms from minute to
    /// minute. The traced run still times the engine at `nproc` threads
    /// (`graphchi-rs.parallel_eff`).
    pub fn new(kind: Kind) -> Plan {
        let pagerank = JobSpec {
            workload: Workload::PageRank { iterations: 4 },
            threads: 1,
            intervals: 20,
            budget_bytes: 32 << 20,
            ..JobSpec::default()
        };
        let cluster = |workload| JobSpec {
            workload,
            threads: 1,
            workers: 8,
            budget_bytes: 1 << 20,
            ..JobSpec::default()
        };
        let (wc, es) = (
            cluster(Workload::WordCount),
            cluster(Workload::ExternalSort),
        );
        let (vertices, edges, corpus_bytes, ops) = match kind {
            Kind::PageRank => (20_000, 700_000, 64 << 10, vec![pagerank.clone()]),
            Kind::Cluster => (2_000, 20_000, 2 << 20, vec![wc.clone(), es.clone()]),
        };
        Plan {
            vertices,
            edges,
            corpus_bytes,
            ops,
            pagerank,
            wc,
            es,
        }
    }
}

/// A booted job host: resident dataset, shared pool, dispatcher.
struct Host {
    data: Dataset,
    pool: Arc<PagePool>,
    dispatcher: Dispatcher,
}

impl Host {
    /// Generates the dataset and starts the dispatcher; with a tracer, the
    /// generators run inside `datagen.*` spans under `parent`.
    fn boot(plan: &Plan, seed: u64, tracer: Option<(&Tracer, SpanId)>) -> Host {
        let span = |name, f: &mut dyn FnMut()| {
            if let Some((tr, parent)) = tracer {
                tr.time(name, Some(parent), 0, f);
            } else {
                f();
            }
        };
        let mut graph = None;
        span("datagen.graph", &mut || {
            graph = Some(Graph::generate(&GraphSpec::new(
                plan.vertices,
                plan.edges,
                seed,
            )));
        });
        let mut text = None;
        span("datagen.corpus", &mut || {
            text = Some(corpus(&CorpusSpec::new(plan.corpus_bytes, seed)));
        });
        let data = Dataset::new(
            text.expect("corpus generated"),
            graph.expect("graph generated"),
        );
        let pool = Arc::new(PagePool::with_default_config());
        let mut config = DispatcherConfig::new(1, data.clone());
        config.pool = Some(Arc::clone(&pool));
        Host {
            data,
            pool,
            dispatcher: Dispatcher::new(config),
        }
    }

    fn shutdown(self, checks: &Checks) {
        self.dispatcher.shutdown();
        let live = self.pool.live_epochs();
        checks.expect(live == 0, || {
            format!("{live} pool epochs still live at shutdown")
        });
    }
}

/// P's fingerprint for each job of `specs`; word counts are also checked
/// against a `HashMap`.
fn references(specs: &[JobSpec], data: &Dataset, checks: &Checks) -> Vec<u64> {
    specs
        .iter()
        .map(|spec| {
            let out = oracle::reference(spec, data).expect("the P reference run completes");
            if spec.workload == Workload::WordCount {
                checks.expect_ok(oracle::check_word_count(
                    &out,
                    &oracle::count_words(&data.corpus),
                ));
            }
            out.fingerprint()
        })
        .collect()
}

/// Runs one timed operation: each job of `ops` in turn, checked against
/// its reference. Returns each job's timing, or `None` for a job that
/// failed or was wrong.
fn operation(
    host: &Host,
    ops: &[JobSpec],
    refs: &[u64],
    checks: &Checks,
    tracer: Option<(&Tracer, u64)>,
) -> Vec<Option<Timing>> {
    ops.iter()
        .zip(refs)
        .map(|(spec, &expected)| {
            let (t0, c0) = (Instant::now(), calib::process_cpu());
            let root = tracer.map(|(tr, req)| (tr, tr.open("facade-job.job", None, req), req));
            let in_span = |name, f: &mut dyn FnMut()| match root {
                Some((tr, id, req)) => {
                    tr.time(name, Some(id), req, f);
                }
                None => f(),
            };
            let mut handle = None;
            in_span("facade-job.submit", &mut || {
                handle = Some(host.dispatcher.submit(spec.clone()));
            });
            let mut result = None;
            in_span("facade-job.wait", &mut || {
                result = handle.take().map(|h| h.and_then(|h| h.wait()));
            });
            let timing = Timing {
                wall: t0.elapsed(),
                cpu: calib::process_cpu() - c0,
            };
            if let Some((tr, id, _)) = root {
                tr.close(id);
            }
            let report = match result.expect("the job was submitted") {
                Ok(report) => report,
                Err(e) => {
                    checks.expect(false, || format!("{}: {e}", spec.workload));
                    return None;
                }
            };
            checks
                .expect_ok(oracle::check_job(&report, expected))
                .then_some(timing)
        })
        .collect()
}

/// Runs batch workload `kind` for `seconds`.
pub fn run(
    kind: Kind,
    seed: u64,
    seconds: u64,
    trace: bool,
    ckpt_dir: &Path,
    checks: &Checks,
) -> Outcome {
    let plan = Plan::new(kind);
    if trace {
        return traced(
            kind,
            &plan,
            seed,
            Duration::from_secs(seconds),
            ckpt_dir,
            checks,
        );
    }
    let mut out = Outcome::default();
    // One calibration for the set-ups and one for the timed window, each
    // timed among the work it scales.
    let (mut setup_cal, mut cal) = (Calibration::default(), Calibration::default());
    let (mut setup, mut setup_wall) = (Samples::new(), Samples::new());
    let mut host: Option<Host> = None;
    for _ in 0..SETUPS {
        setup_cal.sample(1);
        let (t0, c0) = (Instant::now(), calib::process_cpu());
        let booted = Host::boot(&plan, seed, None);
        setup.push((calib::process_cpu() - c0).as_secs_f64());
        setup_wall.push(t0.elapsed().as_secs_f64());
        if let Some(old) = host.replace(booted) {
            old.shutdown(checks);
        }
    }
    let host = host.expect("at least one set-up");
    let refs = references(&plan.ops, &host.data, checks);

    let reset = report::reset_peak_rss();
    let window = Duration::from_secs(seconds);
    let start = Instant::now();
    let (mut ops, mut ops_wall) = (Samples::new(), Samples::new());
    let mut per_job = vec![Samples::new(); plan.ops.len()];
    while start.elapsed() < window {
        // Right before each operation, so that the kernel meets the same
        // neighbours on the host as the jobs.
        cal.sample(1);
        let jobs = operation(&host, &plan.ops, &refs, checks, None);
        out.attempted += jobs.len() as u64;
        out.failed += jobs.iter().filter(|j| j.is_none()).count() as u64;
        for (samples, job) in per_job.iter_mut().zip(&jobs) {
            if let Some(t) = job {
                samples.push(t.wall.as_secs_f64());
            }
        }
        if jobs.iter().all(Option::is_some) {
            ops.push(total_ms(&jobs, |t| t.cpu));
            ops_wall.push(total_ms(&jobs, |t| t.wall));
        }
    }
    let peak = report::peak_rss_mb();
    host.shutdown(checks);

    out.lines.push(format!("peak_rss_reset {reset}"));
    let names: &[&str] = match kind {
        Kind::PageRank => &["pr"],
        Kind::Cluster => &["wc", "es"],
    };
    for (name, samples) in names.iter().zip(&per_job) {
        out.quantile(&format!("{name}_p50_s"), samples, 0.5, "s");
    }
    out.quantile("latency_p50_ms", &ops_wall, 0.5, "ms");
    out.quantile("op_cpu_p50_ms", &ops, 0.5, "ms");
    out.failed_pct();
    let setup_cpu = setup.median().expect("set-ups ran");
    out.lines.push(format!(
        "setup_wall_s {:.6} s, setup_cpu_s {setup_cpu:.6} s (medians of {SETUPS})",
        setup_wall.median().expect("set-ups ran"),
    ));
    out.lines.push(format!(
        "calibration_ms {:.6} ms in set-up, {:.6} ms in the window (medians of {} and {} kernel runs; reference {} ms)",
        setup_cal.median().as_secs_f64() * 1e3,
        cal.median().as_secs_f64() * 1e3,
        setup_cal.len(),
        cal.len(),
        calib::REFERENCE.as_millis()
    ));
    out.metric("setup_s", setup_cal.scale(setup_cpu), "s");
    match ops.quantile(0.5) {
        Ok(p50) => out.metric("op_cpu_cal_p50_ms", cal.scale(p50), "ms"),
        Err(e) => {
            checks.expect(false, || format!("op_cpu_cal_p50_ms: {e}"));
        }
    }
    out.metric("peak_rss_mb", peak, "MiB");
    out
}

/// The traced run: layer probes for half the window, then the
/// workload's own jobs alternating traced and untraced, then the HTTP
/// layer on the probe daemon.
fn traced(
    kind: Kind,
    plan: &Plan,
    seed: u64,
    window: Duration,
    ckpt_dir: &Path,
    checks: &Checks,
) -> Outcome {
    let tracer = Tracer::new();
    let start = Instant::now();
    let setup = tracer.open("setup", None, 0);
    let host = Host::boot(plan, seed, Some((&tracer, setup)));
    tracer.close(setup);
    let mut probes = Probes::default();
    probes.add_spans(&tracer, "datagen.graph", "datagen.graph_s");
    probes.add_spans(&tracer, "datagen.corpus", "datagen.corpus_s");
    let refs = references(&plan.ops, &host.data, checks);
    let probe_refs = references(
        &[plan.pagerank.clone(), plan.wc.clone(), plan.es.clone()],
        &host.data,
        checks,
    );

    let mut request = 1;
    let (mut dispatch, mut runner) = (Samples::new(), Samples::new());
    let mut ckpt_count = 0;
    loop {
        let root = tracer.open("probe", None, request);
        let round = Round {
            tracer: &tracer,
            root,
            request,
            data: &host.data,
            pool: &host.pool,
            checks,
            ckpt_dir,
        };
        round.graph(&plan.pagerank, probe_refs[0], &mut probes);
        round.cluster(
            &plan.wc,
            &plan.es,
            (probe_refs[1], probe_refs[2]),
            &mut probes,
        );
        let (mut d, mut r) = (Duration::ZERO, Duration::ZERO);
        for (spec, &fp) in plan.ops.iter().zip(&refs) {
            let (td, tr, ck) = round.dispatch(&host.dispatcher, spec, fp, &mut probes);
            d += td;
            r += tr;
            ckpt_count = ck;
        }
        dispatch.push(d.as_secs_f64() * 1e3);
        runner.push(r.as_secs_f64() * 1e3);
        tracer.close(root);
        request += 1;
        if start.elapsed() >= window / 2 {
            break;
        }
    }

    // The workload's own operations, alternating traced and untraced.
    let (mut traced_ops, mut plain_ops) = (Samples::new(), Samples::new());
    let mut out = Outcome::default();
    for n in 0u64.. {
        if n >= 2 && start.elapsed() >= window {
            break;
        }
        let trace_this = n.is_multiple_of(2);
        let jobs = operation(
            &host,
            &plan.ops,
            &refs,
            checks,
            trace_this.then_some((&tracer, request)),
        );
        request += 1;
        out.attempted += jobs.len() as u64;
        out.failed += jobs.iter().filter(|j| j.is_none()).count() as u64;
        if jobs.iter().all(Option::is_some) {
            let ms = total_ms(&jobs, |t| t.wall);
            if trace_this {
                traced_ops.push(ms)
            } else {
                plain_ops.push(ms)
            }
            probes.add("facade-job.epochs_reconciled", jobs.len() as f64);
        }
    }
    host.shutdown(checks);

    // The HTTP layer, on a daemon of its own: no workload runs through it.
    let http_window = Duration::from_secs(6);
    let boot = Instant::now();
    let server = daemon::boot(seed);
    let boot_s = boot.elapsed().as_secs_f64();
    let probe_data =
        Dataset::synthetic(daemon::VERTICES, daemon::EDGES, daemon::CORPUS_BYTES, seed);
    let drefs = daemon::Refs::compute(&probe_data, seed, checks).expect("P references complete");
    let traffic = daemon::drive(server.local_addr(), &drefs, http_window, &tracer, checks);
    daemon::shutdown(server, checks);
    out.attempted += traffic.attempted;
    out.failed += traffic.failed;
    out.lines.extend(traffic.failure_lines());

    let m = |n: &str| probes.median(n);
    // Explained by layers measured from outside: the dispatcher's share,
    // the engine's CSR build and execution, and per-checkpoint calls. What
    // remains happens inside the engine, where only in-program spans see.
    let explained_in_runner = match kind {
        Kind::PageRank => {
            (m("graphchi-rs.csr_build_s") + m("graphchi-rs.execute_s")) * 1e3
                + ckpt_count as f64
                    * (m("facade-runtime.ckpt_encode_ms")
                        + m("facade-runtime.ckpt_manifest_ms")
                        + m("facade-runtime.ckpt_write_ms"))
        }
        Kind::Cluster => (m("hyracks-rs.wc_s") + m("hyracks-rs.es_s")) * 1e3,
    };
    let (dispatch, runner) = (median(&dispatch), median(&runner));
    probe::emit(
        &probes,
        if kind == Kind::Cluster {
            "cluster"
        } else {
            "graph"
        },
        dispatch - runner,
        m("facade-job.queue_wait_ms"),
        probes.sum("facade-job.epochs_reconciled"),
        ckpt_count,
        &mut out,
    );
    daemon::emit(&traffic, boot_s, &mut out);
    out.metric(
        "trace.unattributed_pct",
        100.0 * (runner - explained_in_runner) / dispatch,
        "%",
    );
    out.metric(
        "trace.overhead_pct",
        100.0 * (median(&traced_ops) / median(&plain_ops) - 1.0),
        "%",
    );
    out.spans = tracer.snapshot();
    out
}

fn median(s: &Samples) -> f64 {
    s.median().unwrap_or(f64::NAN)
}
