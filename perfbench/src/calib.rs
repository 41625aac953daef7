//! CPU clocks, and the calibration kernel that takes the host's speed out
//! of the gated timings.
//!
//! On a shared VM the time one operation takes moves by up to 2× from
//! minute to minute, in CPU time as much as in wall time, while the
//! program does the same work: neighbours on the host contend for the
//! memory system. A fixed kernel that belongs to the benchmark, timed in
//! the same run right before each operation, slows down with them.
//! Dividing by it leaves the program's own cost. On a shared 2-vCPU VM,
//! over ten seeds, this cut the spread (IQR ÷ median) of PageRank job CPU
//! time from 0.32 to 0.08, and of WordCount+ExternalSort from 0.14 to
//! 0.07.

use std::collections::HashMap;
use std::time::Duration;

/// The kernel's CPU time that calibrated timings are expressed against:
/// a calibrated time is what the timing would read on a host where the
/// kernel takes this long. The kernel took 66–112 ms on the shared
/// 2-vCPU VM the benchmark was written on.
pub const REFERENCE: Duration = Duration::from_millis(100);

/// Linux clock ids of `clock_gettime`.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

fn cpu_clock(clock: i32) -> Duration {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
    }
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `struct timespec`.
    let rc = unsafe { clock_gettime(clock, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime({clock}) failed");
    Duration::new(ts.tv_sec as u64, ts.tv_nsec as u32)
}

/// CPU time this process has used so far, all threads, user and system.
/// Time spent waiting for a CPU is left out: behind another process, or,
/// where the kernel accounts paravirtual steal time
/// (`CONFIG_PARAVIRT_TIME_ACCOUNTING`), while the hypervisor ran another
/// guest.
pub fn process_cpu() -> Duration {
    cpu_clock(CLOCK_PROCESS_CPUTIME_ID)
}

/// CPU time the calling thread has used so far.
fn thread_cpu() -> Duration {
    cpu_clock(CLOCK_THREAD_CPUTIME_ID)
}

/// Pins the calling thread, and every thread it starts from now on, to
/// the lowest-numbered CPU it may run on; returns that CPU.
pub fn pin_to_one_cpu() -> Option<usize> {
    extern "C" {
        fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
        fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
    }
    let mut mask = [0u64; 16];
    let size = std::mem::size_of_val(&mask);
    // SAFETY: `mask` is a writable CPU set of `size` bytes; pid 0 is the
    // calling thread.
    if unsafe { sched_getaffinity(0, size, mask.as_mut_ptr()) } != 0 {
        return None;
    }
    let cpu = (0..mask.len() * 64).find(|&c| mask[c / 64] >> (c % 64) & 1 == 1)?;
    let mut one = [0u64; 16];
    one[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: as above, with a readable CPU set.
    (unsafe { sched_setaffinity(0, size, one.as_ptr()) } == 0).then_some(cpu)
}

/// The calibration kernel: fixed work whatever the seed. It fills a fresh
/// 8 MiB array from a xorshift generator, counts the values into a
/// `HashMap` by residue, and sorts the array: allocation, random access
/// and streaming, as the jobs do.
pub fn kernel() -> u64 {
    const N: usize = 1 << 20;
    let mut values = Vec::with_capacity(N);
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    for _ in 0..N {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        values.push(x);
    }
    let mut counts: HashMap<u64, u32> = HashMap::new();
    for &v in &values {
        *counts.entry(v % 131_071).or_default() += 1;
    }
    values.sort_unstable();
    values[N / 2] ^ counts.len() as u64
}

/// CPU times of kernel runs, and the scale they give.
#[derive(Debug, Default)]
pub struct Calibration {
    runs: Vec<Duration>,
}

impl Calibration {
    /// Runs the kernel `n` times on this thread, timing each in the
    /// thread's own CPU time so that other threads of the program cannot
    /// lengthen it.
    pub fn sample(&mut self, n: usize) {
        for _ in 0..n {
            let t0 = thread_cpu();
            std::hint::black_box(kernel());
            self.runs.push(thread_cpu() - t0);
        }
    }

    /// Kernel runs timed.
    pub fn len(&self) -> usize {
        self.runs.len()
    }

    /// Median kernel CPU time.
    pub fn median(&self) -> Duration {
        let mut runs = self.runs.clone();
        runs.sort_unstable();
        runs[runs.len() / 2]
    }

    /// `raw` expressed against [`REFERENCE`]: `raw × REFERENCE ÷ median`.
    pub fn scale(&self, raw: f64) -> f64 {
        raw * REFERENCE.as_secs_f64() / self.median().as_secs_f64()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// CPU time grows with work done and not with time asleep. Tests run
    /// in parallel, so the thread's clock is the one checked exactly.
    #[test]
    fn cpu_time_counts_work_not_sleep() {
        let (c0, p0) = (thread_cpu(), process_cpu());
        std::thread::sleep(Duration::from_millis(200));
        let asleep = thread_cpu() - c0;
        assert!(asleep < Duration::from_millis(100), "{asleep:?} asleep");

        let (t1, c1) = (std::time::Instant::now(), thread_cpu());
        let mut x = 0u64;
        while t1.elapsed() < Duration::from_millis(200) {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(7));
        }
        let busy = thread_cpu() - c1;
        assert!(busy >= Duration::from_millis(50), "{busy:?} busy");
        assert!(process_cpu() - p0 >= busy);
    }

    /// The kernel does the same work on every call, and a timing scales
    /// by the median kernel time.
    #[test]
    fn kernel_is_fixed_and_scale_divides_by_the_median() {
        assert_eq!(kernel(), kernel());
        let cal = Calibration {
            runs: [50, 200, 80].map(Duration::from_millis).to_vec(),
        };
        assert_eq!(cal.median(), Duration::from_millis(80));
        assert!((cal.scale(400.0) - 500.0).abs() < 1e-9);
    }
}
