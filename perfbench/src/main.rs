//! The repository's benchmark: workloads of the facade backend (P′) run
//! through the public job API, each output checked against backend P.
//! `BENCHMARK.json` lists them; README.md says why each was chosen.
//!
//! ```text
//! perfbench --workload <pagerank|cluster> \
//!           --seed <n> --seconds <n> --trace <0|1>
//! perfbench compare <result.json> <result.json>
//! ```
//!
//! With `--trace 0` the run pins itself to one CPU and measures the
//! end-to-end metrics with no spans; with `--trace 1` it re-times the same
//! work layer by layer. Readable lines come first; the last line of
//! standard output is one JSON object. Each result, with its provenance, is
//! also written under `out/`. The exit code is non-zero when any output
//! disagrees with the oracle, a pool epoch does not reconcile, a checkpoint
//! probe leaves a file behind, or the probe daemon shuts down unclean.

mod batch;
mod calib;
mod daemon;
mod http;
mod loadgen;
mod oracle;
mod probe;
mod provenance;
mod report;
mod stats;
mod trace;

use metrics::json;
use oracle::Checks;
use provenance::Provenance;
use report::Outcome;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

const USAGE: &str = "usage: perfbench --workload <pagerank|cluster> \
                     --seed <n> --seconds <n> --trace <0|1>\n       \
                     perfbench compare <result.json> <result.json>";

/// Parsed command line of a measuring run.
struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag} takes a whole number"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?.clamp(1, 600)),
            "--trace" => trace = Some(number()? != 0),
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

fn metrics_json(outcome: &Outcome) -> String {
    let rows: Vec<String> = outcome
        .metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!("{{{}}}", rows.join(", "))
}

fn measure(args: &Args) -> ExitCode {
    let pinned = if args.trace {
        None
    } else {
        calib::pin_to_one_cpu()
    };
    let checks = Checks::default();
    let dir = out_dir();
    let ckpt_dir = dir.join(format!("ckpt-{}", std::process::id()));
    probe::reset_dir(&ckpt_dir);
    let jiffies = report::cpu_jiffies();
    let kind = match args.workload.as_str() {
        "pagerank" => batch::Kind::PageRank,
        "cluster" => batch::Kind::Cluster,
        other => {
            eprintln!("unknown workload `{other}`\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let outcome = batch::run(
        kind,
        args.seed,
        args.seconds,
        args.trace,
        &ckpt_dir,
        &checks,
    );
    // Time the hypervisor gave the VM's vCPUs to someone else: the context
    // a slow run needs.
    let steal = match (jiffies, report::cpu_jiffies()) {
        (Some((t0, s0)), Some((t1, s1))) if t1 > t0 => {
            format!("{:.2}", 100.0 * (s1 - s0) as f64 / (t1 - t0) as f64)
        }
        _ => "unknown".into(),
    };
    let provenance = Provenance::collect(args.seed, &ckpt_dir);
    let _ = std::fs::remove_dir_all(&ckpt_dir);

    let expected = if args.trace {
        report::PER_LAYER
    } else {
        report::END_TO_END
    };
    let names: Vec<&str> = outcome.metrics.iter().map(|m| m.name).collect();
    let listed: Vec<&str> = expected.iter().map(|(n, _)| *n).collect();
    checks.expect(names == listed, || {
        format!("metrics {names:?} differ from {listed:?}")
    });
    for m in &outcome.metrics {
        checks.expect(m.value.is_finite(), || {
            format!("{} was not measured", m.name)
        });
    }

    let failures = checks.failures();
    let correct = failures.is_empty();
    // A disagreement outside any timed operation still fails the run.
    let failed = if correct {
        outcome.failed
    } else {
        outcome.failed.max(1)
    };
    println!(
        "perfbench workload={} seed={} seconds={} trace={}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    println!("provenance {}", provenance.to_json());
    println!("cpu_steal_pct {steal}");
    println!(
        "pinned_cpu {}",
        pinned.map_or_else(|| "none".to_string(), |cpu| cpu.to_string())
    );
    for line in &outcome.lines {
        println!("{line}");
    }
    for (name, t) in trace::self_time_by_name(&outcome.spans) {
        println!("self_time {name} {:.3} ms", t.as_secs_f64() * 1e3);
    }
    for f in failures.iter().take(20) {
        println!("CHECK FAILED: {f}");
    }
    let metrics = metrics_json(&outcome);
    let result = format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {metrics}}}",
        outcome.attempted.max(1)
    );
    let stem = format!(
        "{}-seed{}-trace{}",
        args.workload,
        args.seed,
        u8::from(args.trace)
    );
    let record = format!(
        "{{\"workload\": \"{}\", \"seconds\": {}, \"provenance\": {}, \"result\": {result}, \"failures\": [{}]}}\n",
        args.workload,
        args.seconds,
        provenance.to_json(),
        failures
            .iter()
            .take(20)
            .map(|f| format!("\"{}\"", json::escape(f)))
            .collect::<Vec<_>>()
            .join(", ")
    );
    let written = std::fs::create_dir_all(&dir)
        .and_then(|()| std::fs::write(dir.join(format!("{stem}.json")), record));
    if let Err(e) = written {
        eprintln!("could not write the result file: {e}");
    }
    if !outcome.spans.is_empty() {
        let _ = std::fs::write(
            dir.join(format!("{stem}-spans.json")),
            trace::to_json(&outcome.spans),
        );
    }
    println!("{result}");
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Prints each end-to-end metric of two result files side by side, after
/// checking that they were measured on the same number of CPUs.
fn compare(a: &str, b: &str) -> ExitCode {
    let load = |p: &str| {
        std::fs::read_to_string(p)
            .map_err(|e| format!("{p}: {e}"))
            .and_then(|s| json::parse(&s).map_err(|e| format!("{p}: {e}")))
    };
    let (a, b) = match (load(a), load(b)) {
        (Ok(a), Ok(b)) => (a, b),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    if let Err(e) = provenance::comparable(&a, &b) {
        eprintln!("{e}");
        return ExitCode::from(3);
    }
    let value = |doc: &json::Json, name: &str| {
        doc.get("result")?
            .get("metrics")?
            .get(name)?
            .get("value")?
            .as_f64()
    };
    for (name, unit) in report::END_TO_END.iter().chain(report::PER_LAYER) {
        if let (Some(x), Some(y)) = (value(&a, name), value(&b, name)) {
            println!("{name} {x} {y} {unit} ({:+.2}%)", 100.0 * (y / x - 1.0));
        }
    }
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("compare") {
        return match &args[1..] {
            [a, b] => compare(a, b),
            _ => {
                eprintln!("{USAGE}");
                ExitCode::from(2)
            }
        };
    }
    match parse_args(&args) {
        Ok(args) => measure(&args),
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}
