//! Restricting the process to one CPU.
//!
//! The flows size several worker pools from
//! `std::thread::available_parallelism`, which follows the CPU affinity
//! mask. The MILP node pool is one of them and takes no job count, so
//! pinning is the only way to make every pool single-threaded. Threads
//! spawned after the call inherit the mask.

use std::io;

/// Words of the kernel's CPU mask (glibc's `cpu_set_t`: 1024 CPUs).
const MASK_WORDS: usize = 16;

extern "C" {
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// The CPUs the calling thread may run on, in increasing order.
///
/// # Errors
///
/// The OS error when the mask cannot be read.
pub fn allowed_cpus() -> io::Result<Vec<usize>> {
    let mut mask = [0u64; MASK_WORDS];
    // SAFETY: `mask` is a writable buffer of exactly the byte size passed,
    // and pid 0 names the calling thread.
    let rc = unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) };
    if rc != 0 {
        return Err(io::Error::last_os_error());
    }
    Ok((0..MASK_WORDS * 64)
        .filter(|&cpu| (mask[cpu / 64] >> (cpu % 64)) & 1 == 1)
        .collect())
}

/// Pins the calling thread, and every thread it spawns afterwards, to the
/// highest-numbered CPU it may run on (CPU 0 usually serves the most
/// interrupts). Returns the CPU chosen.
///
/// # Errors
///
/// The OS error when the mask cannot be read or set.
pub fn pin_to_one_cpu() -> io::Result<usize> {
    let cpu = *allowed_cpus()?
        .last()
        .ok_or_else(|| io::Error::other("the affinity mask is empty"))?;
    let mut mask = [0u64; MASK_WORDS];
    mask[cpu / 64] |= 1 << (cpu % 64);
    // SAFETY: `mask` is a readable buffer of exactly the byte size passed,
    // and pid 0 names the calling thread.
    let rc = unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) };
    if rc != 0 {
        return Err(io::Error::last_os_error());
    }
    Ok(cpu)
}

/// A field of `/proc/self/status`, such as `VmHWM` or `Threads`, as its
/// first number (kB for memory fields).
pub fn proc_status(field: &str) -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    status.lines().find_map(|line| {
        let rest = line.strip_prefix(field)?.strip_prefix(':')?;
        rest.split_whitespace().next()?.parse().ok()
    })
}
