//! Process-level counters read from outside the simulator: user-space
//! retired instructions and cycles through `perf_event_open`, CPU time and
//! peak resident memory through `getrusage`, and the host facts every result
//! carries.
//!
//! The hardware counters are opened with `inherit` set, so threads spawned
//! after [`Pmu::open`] (the sharded engine's workers) add their counts to the
//! parent's when they exit.  Open the counters before any worker spawns and
//! read them only after the workers are joined.

use std::fs::File;
use std::io::Read;
use std::os::fd::FromRawFd;
use std::os::raw::{c_int, c_long};

extern "C" {
    fn syscall(num: c_long, ...) -> c_long;
    fn getrusage(who: c_int, usage: *mut RUsage) -> c_int;
}

#[cfg(target_arch = "x86_64")]
const SYS_PERF_EVENT_OPEN: c_long = 298;
#[cfg(target_arch = "aarch64")]
const SYS_PERF_EVENT_OPEN: c_long = 241;

const PERF_TYPE_HARDWARE: u32 = 0;
const PERF_COUNT_HW_CPU_CYCLES: u64 = 0;
const PERF_COUNT_HW_INSTRUCTIONS: u64 = 1;
const PERF_FLAG_FD_CLOEXEC: c_long = 8;
/// `perf_event_attr` flag bits: `inherit`, `exclude_kernel`, `exclude_hv`.
const ATTR_INHERIT: u64 = 1 << 1;
const ATTR_EXCLUDE_KERNEL: u64 = 1 << 5;
const ATTR_EXCLUDE_HV: u64 = 1 << 6;
/// `PERF_ATTR_SIZE_VER5`: the attribute layout below, 112 bytes.
const ATTR_SIZE: u32 = 112;

/// `struct perf_event_attr` up to `PERF_ATTR_SIZE_VER5`; every field after
/// `flags` stays zero.
#[repr(C)]
struct PerfEventAttr {
    kind: u32,
    size: u32,
    config: u64,
    sample_period: u64,
    sample_type: u64,
    read_format: u64,
    flags: u64,
    rest: [u64; 8],
}

/// `struct rusage` on 64-bit Linux: two `timeval`s, then 14 longs of which
/// the first is `ru_maxrss` in KiB.
#[repr(C)]
struct RUsage {
    utime_sec: i64,
    utime_usec: i64,
    stime_sec: i64,
    stime_usec: i64,
    maxrss_kib: i64,
    rest: [i64; 13],
}

fn open_counter(config: u64) -> Option<File> {
    let attr = PerfEventAttr {
        kind: PERF_TYPE_HARDWARE,
        size: ATTR_SIZE,
        config,
        sample_period: 0,
        sample_type: 0,
        read_format: 0,
        flags: ATTR_INHERIT | ATTR_EXCLUDE_KERNEL | ATTR_EXCLUDE_HV,
        rest: [0; 8],
    };
    // SAFETY: `attr` is a live, fully initialised `perf_event_attr` of the
    // size it declares; pid 0 / cpu -1 / group -1 asks for a counter on this
    // process on any CPU, which borrows nothing beyond the call.
    let fd = unsafe {
        syscall(
            SYS_PERF_EVENT_OPEN,
            &attr as *const PerfEventAttr,
            0 as c_int,
            -1 as c_int,
            -1 as c_int,
            PERF_FLAG_FD_CLOEXEC,
        )
    };
    if fd < 0 {
        return None;
    }
    // SAFETY: the kernel just returned this descriptor to us and nothing
    // else owns it; the `File` closes it on drop.
    Some(unsafe { File::from_raw_fd(fd as c_int) })
}

fn read_counter(mut file: &File) -> u64 {
    let mut buf = [0u8; 8];
    file.read_exact(&mut buf)
        .expect("an open perf counter is always readable");
    u64::from_ne_bytes(buf)
}

/// User-space instruction and cycle counters of this process and the
/// threads it spawns after opening.
pub struct Pmu {
    instructions: File,
    cycles: File,
}

/// One reading of the two counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PmuSample {
    /// Retired user-space instructions.
    pub instructions: u64,
    /// User-space cycles.
    pub cycles: u64,
}

impl Pmu {
    /// Open both counters, or `None` where the PMU is absent or
    /// `perf_event_open` is refused (hosted CI, some containers).
    pub fn open() -> Option<Pmu> {
        Some(Pmu {
            instructions: open_counter(PERF_COUNT_HW_INSTRUCTIONS)?,
            cycles: open_counter(PERF_COUNT_HW_CPU_CYCLES)?,
        })
    }

    /// Current totals since the counters were opened.
    pub fn read(&self) -> PmuSample {
        PmuSample {
            instructions: read_counter(&self.instructions),
            cycles: read_counter(&self.cycles),
        }
    }
}

impl PmuSample {
    /// Counts accrued between `earlier` and `self`.
    pub fn since(self, earlier: PmuSample) -> PmuSample {
        PmuSample {
            instructions: self.instructions - earlier.instructions,
            cycles: self.cycles - earlier.cycles,
        }
    }
}

fn rusage() -> RUsage {
    let mut usage = RUsage {
        utime_sec: 0,
        utime_usec: 0,
        stime_sec: 0,
        stime_usec: 0,
        maxrss_kib: 0,
        rest: [0; 13],
    };
    // SAFETY: `usage` is a writable `struct rusage`; RUSAGE_SELF (0) covers
    // every thread of the process, live or joined.
    let rc = unsafe { getrusage(0, &mut usage) };
    assert_eq!(rc, 0, "getrusage(RUSAGE_SELF) cannot fail");
    usage
}

/// User plus system CPU seconds consumed by the process so far.
pub fn cpu_seconds() -> f64 {
    let u = rusage();
    (u.utime_sec + u.stime_sec) as f64 + (u.utime_usec + u.stime_usec) as f64 * 1e-6
}

/// Peak resident set size of the process so far, MiB.
pub fn peak_rss_mb() -> f64 {
    rusage().maxrss_kib as f64 / 1024.0
}

/// Facts about the machine a result was measured on.
#[derive(Debug, Clone)]
pub struct HostFacts {
    /// Threads the process may run in parallel.
    pub nproc: usize,
    /// CPU model string, or `unknown`.
    pub cpu_model: String,
    /// `kernel.perf_event_paranoid`, or `unknown`.
    pub perf_event_paranoid: String,
    /// Whether the instruction and cycle counters opened.
    pub pmu: bool,
}

impl HostFacts {
    /// Collect the facts; `pmu` says whether [`Pmu::open`] succeeded.
    pub fn collect(pmu: bool) -> HostFacts {
        let read = |path: &str| std::fs::read_to_string(path).ok();
        let cpu_model = read("/proc/cpuinfo")
            .and_then(|info| {
                info.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split(':').nth(1))
                    .map(|m| m.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".into());
        let perf_event_paranoid = read("/proc/sys/kernel/perf_event_paranoid")
            .map(|s| s.trim().to_string())
            .unwrap_or_else(|| "unknown".into());
        HostFacts {
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            cpu_model,
            perf_event_paranoid,
            pmu,
        }
    }
}
