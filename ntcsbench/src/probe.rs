//! Resource probes that look at the benchmark process from outside the
//! system under test: a counting global allocator, process CPU time, CPU
//! affinity, and thread / descriptor / steal-time readings from `/proc`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering::Relaxed};
use std::time::Duration;

/// Counts allocations and allocated bytes while [`count_allocs`] is on.
/// Counting is off for untraced runs, so the end-to-end figures pay only
/// one relaxed load per allocation.
pub struct CountingAlloc;

static COUNTING: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);
static ALLOC_BYTES: AtomicU64 = AtomicU64::new(0);

#[inline]
fn note(size: usize) {
    if COUNTING.load(Relaxed) {
        ALLOCS.fetch_add(1, Relaxed);
        ALLOC_BYTES.fetch_add(size as u64, Relaxed);
    }
}

// SAFETY: every call is forwarded unchanged to the system allocator.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc(layout)
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc_zeroed(layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        System.realloc(ptr, layout, new_size)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }
}

/// Turns allocation counting on or off (process-wide, all threads).
pub fn count_allocs(on: bool) {
    COUNTING.store(on, Relaxed);
}

/// (allocations, bytes) counted so far.
pub fn allocs() -> (u64, u64) {
    (ALLOCS.load(Relaxed), ALLOC_BYTES.load(Relaxed))
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

#[repr(C)]
struct Rlimit {
    cur: u64,
    max: u64,
}

const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
const RLIMIT_NOFILE: i32 = 7;
/// `cpu_set_t` is 1024 bits.
const CPU_SET_WORDS: usize = 16;

extern "C" {
    fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
    fn getrlimit(resource: i32, rlim: *mut Rlimit) -> i32;
    fn setrlimit(resource: i32, rlim: *const Rlimit) -> i32;
}

/// Process CPU time (user + system, all threads).
pub fn cpu_time() -> Duration {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid out-pointer for the duration of the call.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    Duration::new(ts.tv_sec as u64, ts.tv_nsec as u32)
}

/// The CPUs this process may run on.
pub fn allowed_cpus() -> Vec<usize> {
    let mut mask = [0u64; CPU_SET_WORDS];
    // SAFETY: `mask` is a writable cpu_set_t-sized buffer.
    let rc = unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) };
    if rc != 0 {
        return Vec::new();
    }
    (0..CPU_SET_WORDS * 64)
        .filter(|&c| mask[c / 64] & (1 << (c % 64)) != 0)
        .collect()
}

/// Pins the calling thread — and every thread it starts afterwards, which
/// inherit the mask — to the highest-numbered allowed CPU. Acts on this
/// process only. Returns the CPU set actually in force afterwards.
pub fn pin_to_one_cpu() -> Vec<usize> {
    let Some(&cpu) = allowed_cpus().last() else {
        return Vec::new();
    };
    let mut mask = [0u64; CPU_SET_WORDS];
    mask[cpu / 64] |= 1 << (cpu % 64);
    // SAFETY: `mask` is a readable cpu_set_t-sized buffer.
    unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) };
    allowed_cpus()
}

/// Raises this process's soft descriptor limit to its hard limit: every
/// stand-up opens sockets, and several stand-ups run per measurement.
pub fn raise_fd_limit() {
    let mut lim = Rlimit { cur: 0, max: 0 };
    // SAFETY: valid pointers to a local rlimit.
    unsafe {
        if getrlimit(RLIMIT_NOFILE, &mut lim) == 0 && lim.cur < lim.max {
            lim.cur = lim.max;
            setrlimit(RLIMIT_NOFILE, &lim);
        }
    }
}

fn count_dir(path: &str) -> u64 {
    std::fs::read_dir(path).map_or(0, |d| d.count() as u64)
}

/// Threads of this process.
pub fn threads() -> u64 {
    count_dir("/proc/self/task")
}

/// Open descriptors of this process.
pub fn fds() -> u64 {
    count_dir("/proc/self/fd")
}

/// (steal ticks, total ticks) of one CPU's line in `/proc/stat`.
pub fn steal_ticks(cpu: Option<usize>) -> (u64, u64) {
    let label = cpu.map_or_else(|| "cpu".to_string(), |c| format!("cpu{c}"));
    let Ok(stat) = std::fs::read_to_string("/proc/stat") else {
        return (0, 0);
    };
    for line in stat.lines() {
        let mut fields = line.split_whitespace();
        if fields.next() != Some(label.as_str()) {
            continue;
        }
        let vals: Vec<u64> = fields.filter_map(|f| f.parse().ok()).collect();
        // user nice system idle iowait irq softirq steal ...
        let total: u64 = vals.iter().take(8).sum();
        return (vals.get(7).copied().unwrap_or(0), total);
    }
    (0, 0)
}
