//! Where a number was measured. Every result carries this record, and two
//! results are compared only when they were measured on the same number
//! of CPUs.

use metrics::json::{self, Json};
use std::path::Path;
use std::process::Command;

/// Host and build facts recorded with every result.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Provenance {
    /// CPUs available to the process.
    pub nproc: usize,
    /// CPU model name.
    pub cpu: String,
    /// Kernel release.
    pub kernel: String,
    /// Filesystem type under the checkpoint directory.
    pub ckpt_fs: String,
    /// `rustc --version`.
    pub rustc: String,
    /// Commit of the checkout, or `unknown` outside a git repository.
    pub commit: String,
    /// The workload seed.
    pub seed: u64,
}

/// CPUs available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".to_string(), |s| s.trim().to_string())
}

/// The type of the filesystem mounted deepest above `dir`.
fn filesystem_type(dir: &Path) -> String {
    let Ok(dir) = dir.canonicalize() else {
        return "unknown".into();
    };
    let mounts = std::fs::read_to_string("/proc/mounts").unwrap_or_default();
    mounts
        .lines()
        .filter_map(|line| {
            let mut f = line.split_whitespace();
            let (_, at, fs) = (f.next()?, f.next()?, f.next()?);
            dir.starts_with(at).then(|| (at.len(), fs.to_string()))
        })
        .max()
        .map_or_else(|| "unknown".into(), |(_, fs)| fs)
}

impl Provenance {
    /// Collects the record for a run with `seed` whose checkpoints live in
    /// `ckpt_dir`.
    pub fn collect(seed: u64, ckpt_dir: &Path) -> Provenance {
        let cpu = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|s| {
                s.lines()
                    .find_map(|l| l.strip_prefix("model name"))
                    .map(|l| l.trim_start_matches([' ', '\t', ':']).to_string())
            })
            .unwrap_or_else(|| "unknown".into());
        let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease")
            .map_or_else(|_| "unknown".into(), |s| s.trim().to_string());
        Provenance {
            nproc: nproc(),
            cpu,
            kernel,
            ckpt_fs: filesystem_type(ckpt_dir),
            rustc: command_line("rustc", &["--version"]),
            commit: command_line("git", &["rev-parse", "HEAD"]),
            seed,
        }
    }

    /// The record as a JSON object.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"nproc\": {}, \"cpu\": \"{}\", \"kernel\": \"{}\", \"ckpt_fs\": \"{}\", \
             \"rustc\": \"{}\", \"commit\": \"{}\", \"seed\": {}}}",
            self.nproc,
            json::escape(&self.cpu),
            json::escape(&self.kernel),
            json::escape(&self.ckpt_fs),
            json::escape(&self.rustc),
            json::escape(&self.commit),
            self.seed
        )
    }
}

/// Checks that two result documents may be compared: both carry
/// provenance and were measured on the same number of CPUs.
///
/// # Errors
///
/// A message naming the mismatch.
pub fn comparable(a: &Json, b: &Json) -> Result<(), String> {
    let cpus = |doc: &Json| {
        doc.get("provenance")
            .and_then(|p| p.get("nproc"))
            .and_then(Json::as_u64)
    };
    match (cpus(a), cpus(b)) {
        (Some(x), Some(y)) if x == y => Ok(()),
        (Some(x), Some(y)) => Err(format!(
            "refusing to compare results measured on {x} and {y} CPUs"
        )),
        _ => Err("a result carries no provenance.nproc".into()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_from_different_cpu_counts_are_not_compared() {
        let doc = |n: usize| {
            json::parse(&format!("{{\"provenance\": {{\"nproc\": {n}}}}}")).expect("valid JSON")
        };
        assert!(comparable(&doc(2), &doc(2)).is_ok());
        assert!(comparable(&doc(1), &doc(2)).is_err());
        assert!(comparable(&doc(2), &json::parse("{}").expect("valid JSON")).is_err());
    }

    #[test]
    fn the_record_is_json_and_names_the_host() {
        let p = Provenance::collect(9, Path::new("."));
        assert!(p.nproc >= 1);
        let doc = json::parse(&p.to_json()).expect("provenance is JSON");
        assert_eq!(doc.get("seed").and_then(Json::as_u64), Some(9));
    }
}
