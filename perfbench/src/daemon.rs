//! The probe daemon: a small `FacadeServer` on loopback that every traced
//! run drives for a few seconds, so that the HTTP front end, the router,
//! admission and `/metrics` are measured on every workload. One client
//! runs an open loop of queries, `/healthz` and `/metrics`; the other a
//! closed loop of PageRank submissions, each polled until terminal.

use crate::http::{self, Reply};
use crate::loadgen::{WallClock, run_open_loop};
use crate::oracle::{self, Checks};
use crate::report::Outcome;
use crate::stats::Samples;
use crate::trace::{SpanId, Tracer};
use datagen::SplitMix64;
use facade_job::{Dataset, JobError, JobOutput, JobSpec, Workload};
use facade_server::{DatasetConfig, FacadeServer, ServerConfig};
use metrics::json::{self, Json};
use std::collections::{BTreeMap, HashMap};
use std::net::SocketAddr;
use std::time::{Duration, Instant};

/// Graph vertices of the daemon's resident dataset.
pub const VERTICES: u32 = 2_000;
/// Graph edges of the same.
pub const EDGES: u64 = 10_000;
/// Corpus bytes of the same.
pub const CORPUS_BYTES: usize = 256 << 10;

/// Queries per second of the open loop; one `/metrics` scrape per second
/// rides on top.
const QUERY_RATE: usize = 200;
/// Interval between status polls of a submitted job.
const POLL: Duration = Duration::from_millis(5);
/// Query targets drawn per run.
const TARGETS: usize = 1024;
/// Rows `/query/pagerank` is asked for.
const TOP_K: usize = 10;

/// The job the closed-loop client submits.
fn client_job() -> JobSpec {
    JobSpec {
        workload: Workload::PageRank { iterations: 4 },
        threads: 1,
        budget_bytes: 8 << 20,
        ..JobSpec::default()
    }
}

/// The jobs a warm boot runs, as `FacadeServer::start` submits them.
fn warm_boot_job(workload: Workload) -> JobSpec {
    JobSpec {
        workload,
        ..JobSpec::default()
    }
}

/// Boots the daemon over the dataset `seed` generates, with warm boot on.
///
/// # Panics
///
/// When loopback cannot be bound.
pub fn boot(seed: u64) -> FacadeServer {
    FacadeServer::start(ServerConfig {
        addr: "127.0.0.1:0".into(),
        acceptors: 2,
        executors: 1,
        dataset: DatasetConfig {
            vertices: VERTICES,
            edges: EDGES,
            corpus_bytes: CORPUS_BYTES,
            seed,
        },
        warm_boot: true,
        ..ServerConfig::default()
    })
    .expect("bind a loopback port")
}

/// Stops the daemon and checks that it drained clean.
pub fn shutdown(server: FacadeServer, checks: &Checks) {
    let report = server.shutdown();
    checks.expect(report.clean(), || format!("unclean server {report}"));
}

/// The rows `/query/pagerank` returns for `values`, in the router's order.
fn top_k(values: &[f64]) -> Vec<(u64, f64)> {
    let mut ranked: Vec<(u64, f64)> = (0u64..).zip(values.iter().copied()).collect();
    ranked.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
    ranked.truncate(TOP_K);
    ranked
}

fn vertex_values(output: JobOutput) -> Vec<f64> {
    match output {
        JobOutput::Vertices { values } => values,
        _ => unreachable!("graph jobs return vertex values"),
    }
}

/// What every answer must match: P's outputs for the jobs whose results
/// the daemon can serve.
pub struct Refs {
    /// Fingerprint and top rows of each PageRank result the daemon may
    /// publish (the warm-boot job and the client's job).
    pagerank: Vec<(String, Vec<(u64, f64)>)>,
    /// Fingerprint of the client's job.
    job: u64,
    cc: (String, Vec<f64>),
    wc: (String, HashMap<String, i64>),
    vertices: Vec<u64>,
    words: Vec<String>,
}

impl Refs {
    /// Computes P's references over `data` and draws the query targets
    /// from `seed`: uniform vertices, and words drawn from the corpus of
    /// which about one in eight is replaced by a word it lacks.
    ///
    /// # Errors
    ///
    /// A reference job that failed.
    pub fn compute(data: &Dataset, seed: u64, checks: &Checks) -> Result<Refs, JobError> {
        let hex = |fp: u64| format!("{fp:016x}");
        let warm_pr =
            oracle::reference(&warm_boot_job(Workload::PageRank { iterations: 5 }), data)?;
        let job = oracle::reference(&client_job(), data)?;
        let cc = oracle::reference(
            &warm_boot_job(Workload::ConnectedComponents { max_iterations: 30 }),
            data,
        )?;
        let wc = oracle::reference(&warm_boot_job(Workload::WordCount), data)?;
        let counts = oracle::count_words(&data.corpus);
        checks.expect_ok(oracle::check_word_count(&wc, &counts));
        let job_fp = job.fingerprint();
        let mut rng = SplitMix64::new(seed ^ 0x5e7e_d5e7_5e7e_d5e7);
        let vertices = (0..TARGETS)
            .map(|_| rng.next_below(u64::from(data.graph.vertices)))
            .collect();
        // Corpus words are letters then digits; `qx…` never occurs.
        let words = (0..TARGETS)
            .map(|_| {
                if rng.next_below(8) == 0 {
                    format!("qx{}", rng.next_below(1 << 20))
                } else {
                    data.corpus[rng.next_below(data.corpus.len() as u64) as usize].clone()
                }
            })
            .collect();
        Ok(Refs {
            pagerank: [warm_pr, job]
                .into_iter()
                .map(|o| (hex(o.fingerprint()), top_k(&vertex_values(o))))
                .collect(),
            job: job_fp,
            cc: (hex(cc.fingerprint()), vertex_values(cc)),
            wc: (
                hex(wc.fingerprint()),
                counts
                    .into_iter()
                    .map(|(w, c)| (w.to_string(), c))
                    .collect(),
            ),
            vertices,
            words,
        })
    }
}

/// The endpoints the open loop rotates through.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Endpoint {
    PageRank,
    Cc,
    Wc,
    /// The no-router floor.
    Healthz,
    Metrics,
}

impl Endpoint {
    fn span(self) -> &'static str {
        match self {
            Endpoint::PageRank => "facade-server.query_pagerank",
            Endpoint::Cc => "facade-server.query_cc",
            Endpoint::Wc => "facade-server.query_wc",
            Endpoint::Healthz => "metrics.http_floor",
            Endpoint::Metrics => "metrics.scrape",
        }
    }
}

/// Checks one answered query against P's outputs.
fn check_query(endpoint: Endpoint, target: usize, body: &str, refs: &Refs) -> Result<(), String> {
    match endpoint {
        Endpoint::Healthz => return Ok(()),
        Endpoint::Metrics if body.contains("server_requests_total") => return Ok(()),
        Endpoint::Metrics => return Err("/metrics lacks server_requests_total".into()),
        _ => {}
    }
    let doc = json::parse(body).map_err(|e| format!("{endpoint:?} answer is not JSON: {e}"))?;
    let num = |key: &str| doc.get(key).and_then(Json::as_f64);
    let fp = doc.get("fingerprint").and_then(Json::as_str).unwrap_or("");
    let wrong = |what: String| Err(format!("{endpoint:?}: {what}"));
    match endpoint {
        Endpoint::PageRank => {
            let Some((_, top)) = refs.pagerank.iter().find(|(f, _)| f == fp) else {
                return wrong(format!("fingerprint {fp} is no PageRank P computed"));
            };
            let rows: Vec<(u64, f64)> = doc
                .get("top")
                .and_then(Json::as_array)
                .unwrap_or(&[])
                .iter()
                .filter_map(|r| Some((r.get("vertex")?.as_u64()?, r.get("rank")?.as_f64()?)))
                .collect();
            let same = rows.len() == top.len()
                && rows
                    .iter()
                    .zip(top)
                    .all(|(a, b)| a.0 == b.0 && a.1.to_bits() == b.1.to_bits());
            if same {
                Ok(())
            } else {
                wrong(format!("top rows {rows:?} differ from P's {top:?}"))
            }
        }
        Endpoint::Cc => {
            let (ref_fp, labels) = &refs.cc;
            let v = refs.vertices[target] as usize;
            let label = labels[v];
            let size = labels.iter().filter(|l| **l == label).count() as f64;
            if fp != ref_fp
                || num("component") != Some(label as u64 as f64)
                || num("size") != Some(size)
            {
                return wrong(format!(
                    "vertex {v}: {body} differs from P ({ref_fp}, {label}, {size})"
                ));
            }
            Ok(())
        }
        Endpoint::Wc => {
            let (ref_fp, counts) = &refs.wc;
            let word = &refs.words[target];
            let count = counts.get(word).copied().unwrap_or(0) as f64;
            if fp != ref_fp || num("count") != Some(count) {
                return wrong(format!(
                    "`{word}`: {body} differs from P ({ref_fp}, {count})"
                ));
            }
            Ok(())
        }
        Endpoint::Healthz | Endpoint::Metrics => unreachable!("answered above"),
    }
}

/// What the clients measured over one window.
#[derive(Debug, Default)]
pub struct Traffic {
    /// Connect-to-last-byte time per endpoint, ms.
    endpoint_ms: BTreeMap<&'static str, Samples>,
    /// Connect time of every request, ms.
    connect_ms: Samples,
    /// How late each open-loop request was sent, ms.
    late_ms: Samples,
    /// `/metrics` body size, KiB.
    scrape_kb: Samples,
    /// Completed job latency, `POST` to the poll that saw it terminal, s.
    job_s: Samples,
    /// `POST /jobs` round trip, ms.
    submit_ms: Samples,
    /// `GET /jobs/<id>` round trip, ms.
    poll_ms: Samples,
    /// Polls per completed job.
    polls_per_job: Samples,
    /// 429 and 503 answers.
    refused: u64,
    /// Operations attempted (queries, scrapes, jobs).
    pub attempted: u64,
    /// Operations failed, refused, unsent or wrong.
    pub failed: u64,
    /// Jobs whose pool epoch reconciled.
    pub epochs_reconciled: u64,
    /// Failed operations by reason.
    pub failures: BTreeMap<String, u64>,
}

impl Traffic {
    fn fail(&mut self, why: String) {
        self.failed += 1;
        *self.failures.entry(why).or_default() += 1;
    }

    /// Folds `other`'s samples and counts into `self`.
    fn merge(&mut self, other: Traffic) {
        for (k, v) in &other.endpoint_ms {
            self.endpoint_ms.entry(k).or_default().extend(v);
        }
        for (into, from) in [
            (&mut self.connect_ms, other.connect_ms),
            (&mut self.late_ms, other.late_ms),
            (&mut self.scrape_kb, other.scrape_kb),
            (&mut self.job_s, other.job_s),
            (&mut self.submit_ms, other.submit_ms),
            (&mut self.poll_ms, other.poll_ms),
            (&mut self.polls_per_job, other.polls_per_job),
        ] {
            into.extend(&from);
        }
        self.refused += other.refused;
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.epochs_reconciled += other.epochs_reconciled;
        for (why, n) in other.failures {
            *self.failures.entry(why).or_default() += n;
        }
    }

    /// One readable line per failure reason.
    pub fn failure_lines(&self) -> Vec<String> {
        self.failures
            .iter()
            .map(|(why, n)| format!("failed {n}× {why}"))
            .collect()
    }

    /// Samples of one endpoint's round trip (empty if never sent).
    fn endpoint(&self, span: &str) -> Samples {
        self.endpoint_ms.get(span).cloned().unwrap_or_default()
    }

    fn exchange(&mut self, endpoint: Endpoint, reply: &Reply) {
        let ms = |d: Duration| d.as_secs_f64() * 1e3;
        self.connect_ms.push(ms(reply.connect));
        self.endpoint_ms
            .entry(endpoint.span())
            .or_default()
            .push(ms(reply.connect + reply.exchange));
    }
}

fn record_reply(tracer: &Tracer, parent: SpanId, request: u64, name: &'static str, reply: &Reply) {
    let connected = reply.sent + reply.connect;
    tracer.record(
        "metrics.http_connect",
        Some(parent),
        request,
        reply.sent,
        connected,
    );
    tracer.record(
        name,
        Some(parent),
        request,
        connected,
        connected + reply.exchange,
    );
}

/// The open loop: requests at [`QUERY_RATE`] per second rotating over the
/// three queries and `/healthz`, which samples the no-router floor under
/// the same load, plus one `/metrics` scrape per second.
fn query_loop(
    addr: SocketAddr,
    refs: &Refs,
    window: Duration,
    tracer: &Tracer,
    checks: &Checks,
) -> Traffic {
    let mut t = Traffic::default();
    let clock = WallClock::start();
    let per_second = QUERY_RATE + 1;
    let period = Duration::from_secs(1) / per_second as u32;
    let rotation = [
        Endpoint::PageRank,
        Endpoint::Cc,
        Endpoint::Wc,
        Endpoint::Healthz,
    ];
    let mut answered = Vec::new();
    let report = run_open_loop(&clock, period, window, |slot| {
        let q = slot - slot / per_second;
        let endpoint = if slot % per_second == QUERY_RATE {
            Endpoint::Metrics
        } else {
            rotation[q % rotation.len()]
        };
        let target = q % TARGETS;
        let path = match endpoint {
            Endpoint::PageRank => format!("/query/pagerank?k={TOP_K}"),
            Endpoint::Cc => format!("/query/cc?vertex={}", refs.vertices[target]),
            Endpoint::Wc => format!("/query/wc?word={}", refs.words[target]),
            Endpoint::Healthz => "/healthz".into(),
            Endpoint::Metrics => "/metrics".into(),
        };
        let failure = match http::request(addr, "GET", &path, "") {
            Ok(reply) => {
                let done = Instant::now();
                t.exchange(endpoint, &reply);
                let due = clock.origin() + period * slot as u32;
                let root = tracer.record("daemon.request", None, slot as u64, due, done);
                record_reply(tracer, root, slot as u64, endpoint.span(), &reply);
                if reply.status == 429 || reply.status == 503 {
                    t.refused += 1;
                }
                if endpoint == Endpoint::Metrics {
                    t.scrape_kb.push(reply.body.len() as f64 / 1024.0);
                }
                if reply.status != 200 {
                    Some(format!("{endpoint:?} answered {}", reply.status))
                } else if !checks.expect_ok(check_query(endpoint, target, &reply.body, refs)) {
                    Some(format!("{endpoint:?} answer disagrees with P"))
                } else {
                    None
                }
            }
            Err(e) => Some(format!("{endpoint:?}: {}", e.kind())),
        };
        let ok = failure.is_none();
        answered.push(failure);
        ok
    });
    for failure in answered {
        t.attempted += 1;
        if let Some(why) = failure {
            t.fail(why);
        }
    }
    for late in &report.lateness {
        t.late_ms.push(late.as_secs_f64() * 1e3);
    }
    t.attempted += report.unsent as u64;
    for _ in 0..report.unsent {
        t.fail("query still unsent when the window closed".into());
    }
    t
}

/// The closed loop: submit the client's PageRank job, poll every
/// [`POLL`] until it is terminal, check it, submit the next.
fn job_loop(
    addr: SocketAddr,
    refs: &Refs,
    window: Duration,
    tracer: &Tracer,
    checks: &Checks,
) -> Traffic {
    let mut t = Traffic::default();
    let body = client_job().to_json();
    let start = Instant::now();
    let ms = |d: Duration| d.as_secs_f64() * 1e3;
    let mut request = 1u64 << 32;
    while start.elapsed() < window {
        request += 1;
        t.attempted += 1;
        let t0 = Instant::now();
        let mut replies = Vec::new();
        let id = match http::request(addr, "POST", "/jobs", &body) {
            Ok(reply) if reply.status == 202 => {
                t.submit_ms.push(ms(reply.connect + reply.exchange));
                let id = json::parse(&reply.body)
                    .ok()
                    .and_then(|d| d.get("job").and_then(Json::as_u64));
                replies.push(("facade-server.submit", reply));
                id
            }
            Ok(reply) => {
                if reply.status == 429 || reply.status == 503 {
                    t.refused += 1;
                }
                t.fail(format!("POST /jobs answered {}", reply.status));
                None
            }
            Err(e) => {
                t.fail(format!("POST /jobs: {}", e.kind()));
                None
            }
        };
        let Some(id) = id else {
            std::thread::sleep(POLL);
            continue;
        };
        let mut polls = 0u64;
        let mut terminal = None;
        while terminal.is_none() {
            std::thread::sleep(POLL);
            polls += 1;
            let reply = match http::request(addr, "GET", &format!("/jobs/{id}"), "") {
                Ok(reply) => reply,
                Err(e) => {
                    t.fail(format!("GET /jobs/<id>: {}", e.kind()));
                    break;
                }
            };
            t.poll_ms.push(ms(reply.connect + reply.exchange));
            let doc = json::parse(&reply.body).ok();
            match doc
                .as_ref()
                .and_then(|d| d.get("status"))
                .and_then(Json::as_str)
            {
                Some("queued" | "running") => {}
                _ => terminal = doc,
            }
            replies.push(("facade-server.poll", reply));
        }
        let done = Instant::now();
        let root = tracer.record("daemon.job", None, request, t0, done);
        for (name, reply) in &replies {
            record_reply(tracer, root, request, name, reply);
        }
        let Some(doc) = terminal else {
            continue;
        };
        let result = doc.get("result");
        let fp = result
            .and_then(|r| r.get("output"))
            .and_then(|o| o.get("fingerprint"))
            .and_then(Json::as_str);
        let reconciled = result
            .and_then(|r| r.get("epoch"))
            .and_then(|e| e.get("reconciled"))
            .and_then(Json::as_bool)
            == Some(true);
        let expected = format!("{:016x}", refs.job);
        let completed = doc.get("status").and_then(Json::as_str) == Some("completed");
        let ok = checks.expect(
            completed && fp == Some(expected.as_str()) && reconciled,
            || format!("job {id}: status/fingerprint/epoch {:?}", doc),
        );
        if ok {
            t.epochs_reconciled += 1;
            t.job_s.push(done.duration_since(t0).as_secs_f64());
            t.polls_per_job.push(polls as f64);
        } else {
            t.fail("job disagrees with P or did not complete".into());
        }
    }
    t
}

/// Drives the daemon at `addr` with both client threads for `window`.
pub fn drive(
    addr: SocketAddr,
    refs: &Refs,
    window: Duration,
    tracer: &Tracer,
    checks: &Checks,
) -> Traffic {
    std::thread::scope(|s| {
        let queries = s.spawn(|| query_loop(addr, refs, window, tracer, checks));
        let jobs = s.spawn(|| job_loop(addr, refs, window, tracer, checks));
        let mut t = queries.join().expect("query client panicked");
        t.merge(jobs.join().expect("job client panicked"));
        t
    })
}

/// Emits the HTTP and server metrics of `traffic`, in `BENCHMARK.json`
/// order; `boot_s` is the daemon's start-up time.
pub fn emit(traffic: &Traffic, boot_s: f64, out: &mut Outcome) {
    let p50 = |s: &Samples| s.median().unwrap_or(f64::NAN);
    let floor = p50(&traffic.endpoint(Endpoint::Healthz.span()));
    let mut queries = Samples::new();
    for e in [Endpoint::PageRank, Endpoint::Cc, Endpoint::Wc] {
        queries.extend(&traffic.endpoint(e.span()));
    }
    let query = p50(&queries);
    out.metric("metrics.http_connect_ms", p50(&traffic.connect_ms), "ms");
    out.metric("metrics.http_floor_ms", floor, "ms");
    out.metric(
        "facade-server.query_pagerank_ms",
        p50(&traffic.endpoint(Endpoint::PageRank.span())),
        "ms",
    );
    out.metric(
        "facade-server.query_cc_ms",
        p50(&traffic.endpoint(Endpoint::Cc.span())),
        "ms",
    );
    out.metric(
        "facade-server.query_wc_ms",
        p50(&traffic.endpoint(Endpoint::Wc.span())),
        "ms",
    );
    out.metric(
        "facade-server.router_share",
        if query > 0.0 {
            (query - floor) / query
        } else {
            0.0
        },
        "ratio",
    );
    out.metric("facade-server.submit_ms", p50(&traffic.submit_ms), "ms");
    out.metric("facade-server.poll_ms", p50(&traffic.poll_ms), "ms");
    out.metric(
        "facade-server.polls_per_job",
        p50(&traffic.polls_per_job),
        "count",
    );
    out.metric("facade-server.refused", traffic.refused as f64, "count");
    out.metric("facade-server.job_p50_s", p50(&traffic.job_s), "s");
    out.metric(
        "metrics.scrape_ms",
        p50(&traffic.endpoint(Endpoint::Metrics.span())),
        "ms",
    );
    out.metric("metrics.scrape_kb", p50(&traffic.scrape_kb), "KiB");
    out.metric("facade-server.boot_s", boot_s, "s");
    // A refused p99 (under 1 000 requests) is reported as not measured.
    let late = out.quantile("loadgen.late_p99", &traffic.late_ms, 0.99, "ms");
    out.metric("loadgen.late_p99_ms", late.unwrap_or(f64::NAN), "ms");
}
