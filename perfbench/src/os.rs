//! Process and thread counters: bytes allocated (through
//! [`CountingAlloc`], which the benchmark binary installs as its global
//! allocator) and the kernel's per-process and per-thread statistics
//! from `/proc`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    static ALLOCATED: Cell<u64> = const { Cell::new(0) };
}

/// The system allocator, counting the bytes each thread requests (frees
/// are not subtracted: this measures allocation churn, not footprint).
pub struct CountingAlloc;

fn count(bytes: usize) {
    // `try_with` never allocates and tolerates calls during thread exit.
    let _ = ALLOCATED.try_with(|a| a.set(a.get() + bytes as u64));
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged; the counting touches only a const-initialised thread-local
// `Cell`, which neither allocates nor unwinds.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size.saturating_sub(layout.size()));
        System.realloc(ptr, layout, new_size)
    }
}

/// Bytes allocated by the calling thread so far (0 unless the binary
/// installed [`CountingAlloc`]).
pub fn thread_allocated() -> u64 {
    ALLOCATED.try_with(Cell::get).unwrap_or(0)
}

/// Kernel clock ticks per second of the `utime`/`stime` fields: the
/// value Linux reports to user space on every architecture it ships
/// (`USER_HZ`).
const USER_HZ: f64 = 100.0;

/// Fields of a `/proc/.../stat` line after the parenthesised command
/// name, which may itself contain spaces.
fn stat_fields(path: &str) -> Option<Vec<u64>> {
    let s = std::fs::read_to_string(path).ok()?;
    let rest = &s[s.rfind(')')? + 1..];
    // Field 3 (state) is a letter; map it to 0 to keep indices aligned.
    Some(rest.split_whitespace().map(|f| f.parse().unwrap_or(0)).collect())
}

/// Minor page faults of the calling thread.
pub fn thread_minor_faults() -> Option<u64> {
    // After the name: state(0) ppid pgrp session tty tpgid flags minflt(7).
    stat_fields("/proc/thread-self/stat").and_then(|f| f.get(7).copied())
}

/// Whole-process counters at one instant.
#[derive(Debug, Clone, Copy, Default)]
pub struct ProcSample {
    /// Minor page faults.
    pub minor_faults: u64,
    /// User CPU seconds.
    pub user_s: f64,
    /// System CPU seconds.
    pub sys_s: f64,
}

impl ProcSample {
    /// Sample `/proc/self/stat` (zeros where it cannot be read).
    pub fn now() -> ProcSample {
        let f = stat_fields("/proc/self/stat").unwrap_or_default();
        let get = |i: usize| f.get(i).copied().unwrap_or(0);
        ProcSample {
            minor_faults: get(7),
            user_s: get(11) as f64 / USER_HZ,
            sys_s: get(12) as f64 / USER_HZ,
        }
    }

    /// Counter growth since `earlier`.
    pub fn since(&self, earlier: &ProcSample) -> ProcSample {
        ProcSample {
            minor_faults: self.minor_faults.saturating_sub(earlier.minor_faults),
            user_s: (self.user_s - earlier.user_s).max(0.0),
            sys_s: (self.sys_s - earlier.sys_s).max(0.0),
        }
    }

    /// Accumulate another delta.
    pub fn add(&mut self, d: &ProcSample) {
        self.minor_faults += d.minor_faults;
        self.user_s += d.user_s;
        self.sys_s += d.sys_s;
    }
}

/// Size in bytes of the last-level cache sysfs reports for CPU 0, if any.
pub fn sysfs_llc_bytes() -> Option<u64> {
    let dir = std::fs::read_dir("/sys/devices/system/cpu/cpu0/cache").ok()?;
    let mut best: Option<(u64, u64)> = None;
    for e in dir.flatten() {
        let p = e.path();
        let read = |f: &str| std::fs::read_to_string(p.join(f)).ok();
        let (Some(level), Some(size)) = (read("level"), read("size")) else {
            continue;
        };
        let level: u64 = level.trim().parse().ok()?;
        let size = size.trim();
        let bytes = if let Some(k) = size.strip_suffix('K') {
            k.parse::<u64>().ok()? << 10
        } else if let Some(m) = size.strip_suffix('M') {
            m.parse::<u64>().ok()? << 20
        } else {
            size.parse().ok()?
        };
        if best.is_none_or(|(l, _)| level > l) {
            best = Some((level, bytes));
        }
    }
    best.map(|(_, b)| b)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn proc_stat_parses() {
        let s = ProcSample::now();
        assert!(s.user_s >= 0.0 && s.sys_s >= 0.0);
        assert!(thread_minor_faults().is_some());
    }
}
