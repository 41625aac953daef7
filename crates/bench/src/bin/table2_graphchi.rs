//! **E1 — Table 2**: GraphChi PR and CC on the twitter-like graph under
//! three memory budgets, original (`P`) vs FACADE (`P'`).
//!
//! Reported columns match the paper: total execution time (ET), engine
//! update time (UT), data load time (LT), GC time (GT), and peak memory
//! (PM). Expected shape: `P'` wins ET everywhere, GT collapses (the paper
//! sees an average 5.1× GC reduction), and `P'`'s PM is roughly
//! budget-independent while `P`'s tracks the budget.

use datagen::{Graph, GraphSpec};
use facade_bench::{export_trace, mem_unit, mib, scale, secs, threads, write_records};
use graphchi_rs::{Backend, ConnectedComponents, Engine, EngineConfig, PageRank, VertexProgram};
use metrics::TextTable;
use metrics::phases;
use metrics::report::{Outcome, RunRecord};

fn main() {
    let scale = scale();
    let unit = mem_unit();
    let threads = threads();
    let spec = GraphSpec::twitter_like(scale);
    eprintln!(
        "Table 2: twitter-like graph scale={scale} ({} vertices, {} edges), \
         mem unit {} bytes, {threads} engine threads",
        spec.vertices, spec.edges, unit
    );
    let graph = Graph::generate(&spec);

    let mut table = TextTable::new(&["App", "ET(s)", "UT(s)", "LT(s)", "GT(s)", "PM(M)"]);
    let mut records = Vec::new();

    let apps: Vec<(&str, Box<dyn VertexProgram>)> = vec![
        ("PR", Box::new(PageRank::new(4))),
        ("CC", Box::new(ConnectedComponents::new(20))),
    ];
    for (name, app) in &apps {
        for budget_gb in [8usize, 6, 4] {
            for backend in [Backend::Heap, Backend::Facade] {
                let config = EngineConfig {
                    backend,
                    budget_bytes: budget_gb * unit,
                    intervals: 20,
                    threads,
                    ..EngineConfig::default()
                };
                let mut engine = Engine::new(&graph, config);
                let label = match backend {
                    Backend::Heap => format!("{name}-{budget_gb}g"),
                    Backend::Facade => format!("{name}'-{budget_gb}g"),
                };
                match engine.execute(app.as_ref()) {
                    Ok(out) => {
                        table.row_owned(vec![
                            label.clone(),
                            secs(out.timer.total()),
                            secs(out.timer.phase(phases::UPDATE)),
                            secs(out.timer.phase(phases::LOAD)),
                            secs(out.timer.phase(phases::GC)),
                            mib(out.stats.peak_bytes),
                        ]);
                        let mut rec = RunRecord::new("table2", name, "twitter-like", backend);
                        rec.budget_bytes = (budget_gb * unit) as u64;
                        rec.total_secs = out.timer.total().as_secs_f64();
                        rec.update_secs = out.timer.phase(phases::UPDATE).as_secs_f64();
                        rec.load_secs = out.timer.phase(phases::LOAD).as_secs_f64();
                        rec.gc_secs = out.timer.phase(phases::GC).as_secs_f64();
                        rec.peak_bytes = out.stats.peak_bytes;
                        rec.scale = out.edges_processed;
                        rec.retries = out.resilience.retries;
                        rec.degradations = out.resilience.degradations;
                        records.push(rec);
                    }
                    Err(e) => {
                        table.row_owned(vec![label, format!("OME: {e}")]);
                        let mut rec = RunRecord::new("table2", name, "twitter-like", backend);
                        rec.outcome = Outcome::OutOfMemory { after_secs: 0.0 };
                        records.push(rec);
                    }
                }
            }
        }
    }
    println!("{table}");
    write_records("table2", &records);
    // Chrome trace of the whole sweep (GC pauses, pool traffic, engine
    // phases) — open target/experiments/table2_trace.json in Perfetto.
    // Empty unless built with `--features tracing`.
    export_trace("table2");

    // Shape summary, as the paper reports.
    summarize(&records);
}

fn summarize(records: &[RunRecord]) {
    for app in ["PR", "CC"] {
        let p: Vec<&RunRecord> = records
            .iter()
            .filter(|r| r.app == app && r.backend == Backend::Heap)
            .collect();
        let p2: Vec<&RunRecord> = records
            .iter()
            .filter(|r| r.app == app && r.backend == Backend::Facade)
            .collect();
        if p.is_empty() || p2.is_empty() {
            continue;
        }
        let et = |rs: &[&RunRecord]| rs.iter().map(|r| r.total_secs).sum::<f64>() / rs.len() as f64;
        let gt = |rs: &[&RunRecord]| rs.iter().map(|r| r.gc_secs).sum::<f64>() / rs.len() as f64;
        println!(
            "{app}: mean ET reduction {:.1}%  mean GC reduction {}",
            facade_bench::reduction_pct(et(&p), et(&p2)),
            gc_reduction(gt(&p), gt(&p2)),
        );
    }
}

/// P's mean GC time over P′'s as a factor; P′ usually never collects, and
/// a ratio over zero seconds is no number to print.
fn gc_reduction(p_gc: f64, p2_gc: f64) -> String {
    if p2_gc > 0.0 {
        format!("{:.1}x", facade_bench::speedup(p_gc, p2_gc))
    } else {
        "n/a (P′ GC = 0 s)".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::gc_reduction;

    #[test]
    fn gc_reduction_over_zero_is_not_infinite() {
        assert_eq!(gc_reduction(0.5, 0.1), "5.0x");
        assert_eq!(gc_reduction(0.5, 0.0), "n/a (P′ GC = 0 s)");
    }
}
