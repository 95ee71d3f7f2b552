//! Process counters and order statistics shared by every workload.
//!
//! CPU time, peak resident memory and write volume come from
//! `/proc/self`; they cover every thread of the process, including the
//! short-lived kernel threads the parallel build spawns per call.

use std::fs;

/// `USER_HZ`: the unit of the tick counters in `/proc/self/stat`. It is
/// fixed at 100 by the Linux user-space ABI on the supported targets.
const TICKS_PER_S: f64 = 100.0;

/// CPU time consumed by the whole process so far.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Cpu {
    /// User-mode milliseconds.
    pub user_ms: f64,
    /// Kernel-mode milliseconds.
    pub sys_ms: f64,
}

impl Cpu {
    /// Reads `utime` and `stime` (fields 14 and 15 of `/proc/self/stat`).
    /// Reads as zero where `/proc` is unavailable.
    pub fn now() -> Cpu {
        let Ok(stat) = fs::read_to_string("/proc/self/stat") else {
            return Cpu::default();
        };
        // The command name (field 2) may contain spaces; fields after
        // its closing parenthesis are space-separated, starting at 3.
        let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
        let fields: Vec<&str> = rest.split_whitespace().collect();
        let tick = |i: usize| {
            fields
                .get(i)
                .and_then(|v| v.parse::<f64>().ok())
                .unwrap_or(0.0)
        };
        Cpu {
            user_ms: tick(11) * 1e3 / TICKS_PER_S,
            sys_ms: tick(12) * 1e3 / TICKS_PER_S,
        }
    }

    /// CPU time spent since `earlier`.
    pub fn since(self, earlier: Cpu) -> Cpu {
        Cpu {
            user_ms: self.user_ms - earlier.user_ms,
            sys_ms: self.sys_ms - earlier.sys_ms,
        }
    }

    /// User plus kernel milliseconds.
    pub fn total_ms(&self) -> f64 {
        self.user_ms + self.sys_ms
    }

    /// Kernel time as a share of all CPU time (0 when nothing ran).
    pub fn sys_share(&self) -> f64 {
        if self.total_ms() > 0.0 {
            self.sys_ms / self.total_ms()
        } else {
            0.0
        }
    }
}

/// CPU time of every thread of the process, live or exited, in
/// milliseconds at nanosecond resolution (`CLOCK_PROCESS_CPUTIME_ID`).
/// [`Cpu`]'s ticks are 10 ms coarse, too coarse for one short slice.
#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
pub fn process_cpu_ms() -> f64 {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
    }
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    let mut t = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `t` is a writable `struct timespec` with the C layout of
    // 64-bit Linux; the call writes only into it.
    if unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut t) } != 0 {
        return Cpu::now().total_ms();
    }
    t.tv_sec as f64 * 1e3 + t.tv_nsec as f64 * 1e-6
}

/// CPU time of the whole process in milliseconds (tick resolution on
/// this target).
#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
pub fn process_cpu_ms() -> f64 {
    Cpu::now().total_ms()
}

/// Peak resident set size of the process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    status_kib("VmHWM:") / 1024.0
}

fn status_kib(key: &str) -> f64 {
    fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with(key))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|v| v.parse::<f64>().ok())
        })
        .unwrap_or(0.0)
}

/// Bytes the process has passed to `write`-family system calls so far
/// (`wchar` in `/proc/self/io`): a deterministic count of what the
/// program asked to write, independent of page-cache flushing.
pub fn bytes_written() -> u64 {
    fs::read_to_string("/proc/self/io")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("wchar:"))
                .and_then(|v| v.trim().parse().ok())
        })
        .unwrap_or(0)
}

/// The `q`-quantile (0..=1) of `samples` by nearest rank; NaN when empty.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (q * v.len() as f64).ceil().max(1.0) as usize;
    v[rank.min(v.len()) - 1]
}

/// The median of `samples`; NaN when empty.
pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// Mean of `samples`; NaN when empty.
pub fn mean(samples: &[f64]) -> f64 {
    samples.iter().sum::<f64>() / samples.len() as f64
}

/// 64-bit FNV-1a over `bytes`: a stable digest for output checks.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_use_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(median(&v), 50.0);
        assert_eq!(quantile(&v, 0.9), 90.0);
        assert_eq!(quantile(&[3.0], 0.9), 3.0);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn proc_counters_are_readable() {
        assert!(peak_rss_mb() > 0.0);
        let a = bytes_written();
        std::hint::black_box(Cpu::now());
        assert!(bytes_written() >= a);
        let c = process_cpu_ms();
        assert!(c > 0.0 && process_cpu_ms() >= c);
    }
}
