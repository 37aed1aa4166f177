//! Process and host accounting read from the kernel: on-CPU time,
//! page faults, peak RSS, run-queue wait and hypervisor steal.
//!
//! Offline phases are timed by process on-CPU time (user + system, all
//! threads). With the library at `threads = 1` this equals wall time on
//! an idle machine, and it leaves out time the guest spent running
//! other processes.

use std::time::Instant;

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
    fn mallopt(param: i32, value: i32) -> i32;
}

/// glibc's `M_ARENA_MAX`.
const M_ARENA_MAX: i32 = -8;

/// Makes every thread allocate from one malloc arena. By default glibc
/// gives new threads (the search's scoring threads, the server's
/// connection threads) arenas of their own, which the process keeps at
/// whatever size they reached; which thread lands in which arena varies
/// from run to run, and so does peak RSS. One arena makes peak RSS
/// follow the live memory of the run.
pub fn single_malloc_arena() {
    // SAFETY: `mallopt` only sets an allocator tunable; it is called
    // once, from `main`, before any other thread exists.
    unsafe {
        mallopt(M_ARENA_MAX, 1);
    }
}

/// `CLOCK_PROCESS_CPUTIME_ID` on Linux.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// Kernel ticks per second in `/proc/stat` (`USER_HZ`, fixed at 100 on
/// Linux regardless of the kernel's internal tick rate).
const USER_HZ: f64 = 100.0;

/// On-CPU seconds consumed by every thread of this process so far,
/// including threads that have exited.
pub fn cpu_s() -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `struct timespec` (two 64-bit
    // fields on the 64-bit Linux targets this benchmark builds for) and
    // the clock id is a constant the kernel always accepts.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// Page-fault and user/system tick counters from `/proc/self/stat`.
#[derive(Debug, Clone, Copy, Default)]
pub struct ProcStat {
    pub minflt: u64,
    pub utime_ticks: u64,
    pub stime_ticks: u64,
}

pub fn proc_stat() -> ProcStat {
    let text = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the parenthesised command name start at field 3.
    let rest = text.rsplit_once(") ").map_or("", |(_, r)| r);
    let f: Vec<u64> = rest
        .split_whitespace()
        .map(|x| x.parse().unwrap_or(0))
        .collect();
    let at = |i: usize| f.get(i).copied().unwrap_or(0);
    ProcStat {
        minflt: at(7),
        utime_ticks: at(11),
        stime_ticks: at(12),
    }
}

/// Peak resident set size (`VmHWM`) in MiB.
pub fn peak_rss_mib() -> f64 {
    let text = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    text.lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Nanoseconds this process's live threads have waited on a run queue
/// (second field of `/proc/self/task/*/schedstat`). Reads 0 on kernels
/// built without scheduler statistics.
fn runq_wait_ns() -> u64 {
    let Ok(dir) = std::fs::read_dir("/proc/self/task") else {
        return 0;
    };
    dir.flatten()
        .filter_map(|e| std::fs::read_to_string(e.path().join("schedstat")).ok())
        .filter_map(|s| {
            s.split_whitespace()
                .nth(1)
                .and_then(|v| v.parse::<u64>().ok())
        })
        .sum()
}

/// Steal ticks summed over all CPUs (eighth field of the `cpu` line
/// of `/proc/stat`): time the hypervisor ran something else while a
/// vCPU of this guest wanted to run.
fn steal_ticks() -> u64 {
    let text = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    text.lines()
        .next()
        .and_then(|l| l.split_whitespace().nth(8))
        .and_then(|v| v.parse().ok())
        .unwrap_or(0)
}

/// What one closure cost: wall and on-CPU seconds, minor faults and
/// user/system ticks.
#[derive(Debug, Clone, Copy, Default)]
pub struct Cost {
    pub wall_s: f64,
    pub cpu_s: f64,
    pub minflt: u64,
    pub utime_ticks: u64,
    pub stime_ticks: u64,
}

impl Cost {
    pub fn add(&mut self, other: &Cost) {
        self.wall_s += other.wall_s;
        self.cpu_s += other.cpu_s;
        self.minflt += other.minflt;
        self.utime_ticks += other.utime_ticks;
        self.stime_ticks += other.stime_ticks;
    }

    /// System time over user + system time (0 when no tick elapsed).
    pub fn sys_share(&self) -> f64 {
        let total = self.utime_ticks + self.stime_ticks;
        if total == 0 {
            0.0
        } else {
            self.stime_ticks as f64 / total as f64
        }
    }
}

/// Runs `f` and returns its result with what it cost.
pub fn cost<R>(f: impl FnOnce() -> R) -> (R, Cost) {
    let (p0, c0, w0) = (proc_stat(), cpu_s(), Instant::now());
    let r = f();
    let (w1, c1, p1) = (w0.elapsed().as_secs_f64(), cpu_s(), proc_stat());
    (
        r,
        Cost {
            wall_s: w1,
            cpu_s: c1 - c0,
            minflt: p1.minflt.saturating_sub(p0.minflt),
            utime_ticks: p1.utime_ticks.saturating_sub(p0.utime_ticks),
            stime_ticks: p1.stime_ticks.saturating_sub(p0.stime_ticks),
        },
    )
}

/// A snapshot of the host-noise counters, taken at the start of a run.
pub struct HostSnap {
    wall: Instant,
    cpu_s: f64,
    runq_ns: u64,
    steal_ticks: u64,
}

/// Host diagnostics over a run. Never gated: they tell a set of runs
/// slowed by the host apart from a regression (see README.md).
#[derive(Debug, Clone, Copy)]
pub struct HostDiag {
    pub runq_wait_ms: f64,
    pub steal_ms: f64,
    pub wall_over_cpu: f64,
}

impl HostSnap {
    pub fn now() -> HostSnap {
        HostSnap {
            wall: Instant::now(),
            cpu_s: cpu_s(),
            runq_ns: runq_wait_ns(),
            steal_ticks: steal_ticks(),
        }
    }

    pub fn diag(&self) -> HostDiag {
        let cpu = (cpu_s() - self.cpu_s).max(1e-9);
        HostDiag {
            runq_wait_ms: runq_wait_ns().saturating_sub(self.runq_ns) as f64 / 1e6,
            steal_ms: steal_ticks().saturating_sub(self.steal_ticks) as f64 * 1e3 / USER_HZ,
            wall_over_cpu: self.wall.elapsed().as_secs_f64() / cpu,
        }
    }
}
