//! CPU placement. Every thread of the process runs on one CPU at a time,
//! so a closed loop over loopback UDP does not migrate between cores
//! mid-request; between ops the process moves across the CPUs it may
//! use, so a slow spell on one CPU of a shared host does not last a
//! whole run.

use std::io;

extern "C" {
    // glibc: int sched_setaffinity(pid_t pid, size_t cpusetsize, const cpu_set_t *mask);
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// CPUs a mask can name (glibc's default `cpu_set_t` size).
const MAX_CPUS: usize = 1024;
const ESRCH: i32 = 3;

/// The CPUs this process may run on, ascending.
pub fn allowed() -> Vec<usize> {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    let list = status
        .lines()
        .find_map(|l| l.strip_prefix("Cpus_allowed_list:"))
        .unwrap_or("")
        .trim();
    let mut cpus = Vec::new();
    for part in list.split(',').filter(|p| !p.is_empty()) {
        let (lo, hi) = part.split_once('-').unwrap_or((part, part));
        if let (Ok(lo), Ok(hi)) = (lo.parse::<usize>(), hi.parse::<usize>()) {
            cpus.extend((lo..=hi).filter(|&c| c < MAX_CPUS));
        }
    }
    cpus
}

/// Moves every thread of this process onto `cpu`; threads started later
/// inherit the placement of the thread that starts them.
pub fn pin_all(cpu: usize) -> io::Result<()> {
    if cpu >= MAX_CPUS {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            "CPU index out of range",
        ));
    }
    let mut mask = [0u64; MAX_CPUS / 64];
    mask[cpu / 64] |= 1 << (cpu % 64);
    for entry in std::fs::read_dir("/proc/self/task")? {
        let tid: i32 = entry?
            .file_name()
            .to_string_lossy()
            .parse()
            .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "non-numeric task id"))?;
        // SAFETY: `mask` is a live, initialised array whose size in bytes
        // is the size passed; the kernel only reads it.
        let rc = unsafe { sched_setaffinity(tid, std::mem::size_of_val(&mask), mask.as_ptr()) };
        if rc != 0 {
            let err = io::Error::last_os_error();
            // A thread that exited since the directory was read is fine.
            if err.raw_os_error() != Some(ESRCH) {
                return Err(err);
            }
        }
    }
    Ok(())
}
