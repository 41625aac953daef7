//! The output oracle. References come from the same job run on backend P
//! (the managed heap: the untransformed program), computed outside every
//! timed window; word counts are also checked against a `std` `HashMap`.

use facade_job::{
    Dataset, ExecContext, GraphChiRunner, HyracksRunner, JobError, JobOutput, JobReport, JobRunner,
    JobSpec,
};
use metrics::report::Backend;
use std::collections::HashMap;
use std::sync::Mutex;

/// Budget for reference runs. Output is bit-identical across budgets; P
/// gets room so that a budget under which only P' completes still has a
/// reference.
const REFERENCE_BUDGET: usize = 512 << 20;

/// The output of `spec` run on backend P, without checkpoints.
///
/// # Errors
///
/// Whatever the engine returns; a reference that cannot be computed is a
/// benchmark failure.
pub fn reference(spec: &JobSpec, data: &Dataset) -> Result<JobOutput, JobError> {
    let spec = JobSpec {
        backend: Backend::Heap,
        budget_bytes: REFERENCE_BUDGET,
        checkpoint_dir: None,
        ..spec.clone()
    };
    let runner: &dyn JobRunner = if spec.workload.uses_corpus() {
        &HyracksRunner
    } else {
        &GraphChiRunner
    };
    Ok(runner.execute(&spec, data, &ExecContext::default())?.output)
}

/// Per-word counts of `corpus` by a `std` `HashMap`.
pub fn count_words(corpus: &[String]) -> HashMap<&str, i64> {
    let mut counts = HashMap::new();
    for w in corpus {
        *counts.entry(w.as_str()).or_insert(0) += 1;
    }
    counts
}

/// Checks a word-count output against `HashMap` counts of its corpus.
///
/// # Errors
///
/// The first disagreement found.
pub fn check_word_count(output: &JobOutput, counts: &HashMap<&str, i64>) -> Result<(), String> {
    let JobOutput::WordCount {
        distinct,
        total,
        counts: got,
    } = output
    else {
        return Err("word count produced a non-word-count output".into());
    };
    let expected_total: i64 = counts.values().sum();
    if *distinct != counts.len() as u64 || *total != expected_total || got.len() != counts.len() {
        return Err(format!(
            "word count totals {distinct}/{total} differ from the HashMap's {}/{expected_total}",
            counts.len()
        ));
    }
    match got.iter().find(|(w, c)| counts.get(w.as_str()) != Some(c)) {
        Some((w, c)) => Err(format!(
            "`{w}` counted {c}, HashMap says {:?}",
            counts.get(w.as_str())
        )),
        None => Ok(()),
    }
}

/// Failed checks of one run. Any entry makes the run incorrect.
#[derive(Debug, Default)]
pub struct Checks {
    failures: Mutex<Vec<String>>,
}

impl Checks {
    /// Records a failure unless `ok`; returns `ok`.
    pub fn expect(&self, ok: bool, what: impl FnOnce() -> String) -> bool {
        if !ok {
            let mut failures = self.failures.lock().expect("checks poisoned");
            // Keep the first few messages; the count is what the run reports.
            if failures.len() < 1000 {
                failures.push(what());
            }
        }
        ok
    }

    /// Records `result`'s error, if any; returns whether it was `Ok`.
    pub fn expect_ok(&self, result: Result<(), String>) -> bool {
        match result {
            Ok(()) => true,
            Err(e) => self.expect(false, || e),
        }
    }

    /// Failures recorded so far.
    pub fn failures(&self) -> Vec<String> {
        self.failures.lock().expect("checks poisoned").clone()
    }
}

/// Checks one completed job: its fingerprint against the reference and
/// its pool epoch's reconciliation.
///
/// # Errors
///
/// What disagreed.
pub fn check_job(report: &JobReport, expected: u64) -> Result<(), String> {
    let got = report.output.fingerprint();
    if got != expected {
        return Err(format!(
            "{} fingerprint {got:016x} differs from P's {expected:016x}",
            report.spec.workload
        ));
    }
    match &report.epoch {
        Some(epoch) if epoch.reconciled => Ok(()),
        Some(epoch) => Err(format!(
            "epoch {} did not reconcile: {:?}",
            epoch.epoch, epoch.ledger
        )),
        None => Err(format!("{} ran without a pool epoch", report.spec.workload)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use facade_job::{Dispatcher, DispatcherConfig, Workload};
    use std::sync::Arc;

    fn shared_pool_dispatcher(data: &Dataset) -> Dispatcher {
        let mut config = DispatcherConfig::new(1, data.clone());
        config.pool = Some(Arc::new(data_store::PagePool::with_default_config()));
        Dispatcher::new(config)
    }

    #[test]
    fn the_oracle_accepts_p_prime_and_rejects_a_corrupted_fingerprint() {
        let data = Dataset::synthetic(300, 1_500, 20_000, 11);
        let spec = JobSpec {
            workload: Workload::PageRank { iterations: 3 },
            budget_bytes: 4 << 20,
            ..JobSpec::default()
        };
        let expected = reference(&spec, &data).expect("P completes").fingerprint();
        let dispatcher = shared_pool_dispatcher(&data);
        let mut report = dispatcher
            .submit(spec)
            .expect("admitted")
            .wait()
            .expect("P' completes");
        dispatcher.shutdown();
        assert_eq!(check_job(&report, expected), Ok(()));

        // One ulp on one vertex is a different output.
        if let JobOutput::Vertices { values } = &mut report.output {
            values[7] = f64::from_bits(values[7].to_bits() ^ 1);
        }
        assert!(check_job(&report, expected).is_err());
    }

    #[test]
    fn word_counts_are_checked_against_a_hashmap() {
        let data = Dataset::synthetic(100, 400, 30_000, 3);
        let spec = JobSpec {
            workload: Workload::WordCount,
            budget_bytes: 4 << 20,
            ..JobSpec::default()
        };
        let counts = count_words(&data.corpus);
        let mut output = reference(&spec, &data).expect("P completes");
        assert_eq!(check_word_count(&output, &counts), Ok(()));
        if let JobOutput::WordCount { counts: got, .. } = &mut output {
            got[0].1 += 1;
        }
        assert!(check_word_count(&output, &counts).is_err());
    }

    #[test]
    fn failed_checks_are_kept() {
        let checks = Checks::default();
        assert!(checks.expect(true, || unreachable!()));
        assert!(!checks.expect_ok(Err("boom".into())));
        assert_eq!(checks.failures(), vec!["boom".to_string()]);
    }
}
