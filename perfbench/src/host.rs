//! Host facts read from the OS: memory high-water mark, CPU clocks of
//! threads, stolen time, core count and the checked-out commit.

use std::fs;
use std::time::{Duration, Instant};

/// Process high-water resident set (`VmHWM`), in MiB.
pub fn peak_rss_mib() -> f64 {
    fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kib| kib.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kib| kib / 1024.0)
}

/// `clockid_t` of `clock_gettime`'s process-wide CPU clock.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
/// `clockid_t` of `clock_gettime`'s calling-thread CPU clock.
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

#[repr(C)]
struct Timespec {
    sec: i64,
    nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
}

/// Reads a CPU clock, in ns. CPU clocks advance only while a thread
/// runs: they stop while it sleeps and while the hypervisor runs other
/// machines on the host's cores (stolen time).
fn cpu_clock_ns(clock: i32) -> u64 {
    let mut ts = Timespec { sec: 0, nsec: 0 };
    // SAFETY: `ts` is a valid, writable `struct timespec` (two 64-bit
    // fields on 64-bit Linux), and `clock_gettime` writes only to it.
    let rc = unsafe { clock_gettime(clock, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime({clock}) failed");
    ts.sec as u64 * 1_000_000_000 + ts.nsec as u64
}

/// CPU time of the calling thread, in ns.
pub fn thread_cpu_ns() -> u64 {
    cpu_clock_ns(CLOCK_THREAD_CPUTIME_ID)
}

/// CPU time of every thread of this process together, in ns.
pub fn process_cpu_ns() -> u64 {
    cpu_clock_ns(CLOCK_PROCESS_CPUTIME_ID)
}

/// The CPU clocks of a pool's worker threads, found by their name.
#[derive(Debug, Default)]
pub struct Workers {
    tids: Vec<i32>,
}

impl Workers {
    /// The `count` live threads of this process named
    /// `<prefix>-<index>`. A new thread names itself once it runs, so
    /// this waits for them, for up to ten seconds.
    pub fn named(prefix: &str, count: usize) -> Self {
        let t = Instant::now();
        loop {
            let w = Self::scan(&format!("{prefix}-"));
            if w.len() == count {
                return w;
            }
            assert!(
                t.elapsed() < Duration::from_secs(10),
                "found {} threads named {prefix}-*, not {count}",
                w.len()
            );
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    fn scan(prefix: &str) -> Self {
        let mut tids: Vec<i32> = fs::read_dir("/proc/self/task")
            .into_iter()
            .flatten()
            .filter_map(|t| {
                let t = t.ok()?;
                let comm = fs::read_to_string(t.path().join("comm")).ok()?;
                comm.starts_with(prefix).then_some(())?;
                t.file_name().to_str()?.parse().ok()
            })
            .collect();
        tids.sort_unstable();
        Workers { tids }
    }

    /// Threads found.
    pub fn len(&self) -> usize {
        self.tids.len()
    }

    /// Each worker's CPU time so far, in ns (the kernel's per-thread
    /// CPU clock, `MAKE_THREAD_CPUCLOCK(tid, CPUCLOCK_SCHED)`).
    pub fn cpu_ns(&self) -> Vec<u64> {
        self.tids
            .iter()
            .map(|&tid| cpu_clock_ns((!tid << 3) | 6))
            .collect()
    }
}

/// Cores available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The commit of the working directory's git checkout, or `"unknown"`
/// when the directory is not one (read from `.git` directly, so no
/// process is started).
pub fn commit() -> String {
    let head = fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    let id = match head.strip_prefix("ref: ") {
        Some(r) => fs::read_to_string(format!(".git/{r}")).unwrap_or_default(),
        None => head.to_owned(),
    };
    match id.trim() {
        "" => "unknown".to_owned(),
        id => id.to_owned(),
    }
}

/// Host-wide CPU time stolen by the hypervisor and total CPU time, in
/// clock ticks since boot (`/proc/stat`'s aggregate line).
pub fn steal_and_total_ticks() -> (u64, u64) {
    let stat = fs::read_to_string("/proc/stat").unwrap_or_default();
    let ticks: Vec<u64> = stat
        .lines()
        .next()
        .unwrap_or_default()
        .split_whitespace()
        .skip(1)
        .filter_map(|t| t.parse().ok())
        .collect();
    // user nice system idle iowait irq softirq steal [guest guest_nice]
    let steal = ticks.get(7).copied().unwrap_or(0);
    (steal, ticks.iter().take(8).sum())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spin(d: Duration) {
        let t = Instant::now();
        while t.elapsed() < d {
            std::hint::spin_loop();
        }
    }

    #[test]
    fn cpu_clocks_count_running_not_sleeping() {
        let c0 = thread_cpu_ns();
        std::thread::sleep(Duration::from_millis(30));
        let slept = thread_cpu_ns() - c0;
        assert!(slept < 10_000_000, "sleeping 30 ms cost {slept} ns of CPU");
        let c0 = thread_cpu_ns();
        spin(Duration::from_millis(30));
        assert!(
            thread_cpu_ns() - c0 > 1_000_000,
            "spinning cost no CPU time"
        );
    }

    #[test]
    fn workers_are_found_by_name_and_clocked() {
        let stop = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
        let handles: Vec<_> = (0..2)
            .map(|i| {
                let stop = std::sync::Arc::clone(&stop);
                std::thread::Builder::new()
                    .name(format!("hostclk-{i}"))
                    .spawn(move || {
                        while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                            spin(Duration::from_millis(1));
                        }
                    })
                    .unwrap()
            })
            .collect();
        let w = Workers::named("hostclk", 2);
        let c0 = w.cpu_ns();
        spin(Duration::from_millis(20));
        let c1 = w.cpu_ns();
        stop.store(true, std::sync::atomic::Ordering::Relaxed);
        for h in handles {
            h.join().unwrap();
        }
        assert!(c1.iter().zip(&c0).all(|(b, a)| b > a));
        assert_eq!(Workers::named("hostclk", 0).len(), 0);
    }
}
