//! Host facts recorded next to every run: CPU count, a calibration loop that
//! runs no repository code, and peak memory.

use std::hint::black_box;
use std::time::Instant;

/// Iterations of the calibration loop (~0.1 s on a 2-vCPU cloud host).
const CALIBRATION_ROUNDS: u64 = 40_000_000;

/// Times a fixed integer loop with no repository code, in milliseconds.
/// Run at the start and end of each run: when it slows down as much as the
/// workload did, the host slowed down, not the program.
pub fn calibration_ms() -> f64 {
    let start = Instant::now();
    let mut x = black_box(0x9e37_79b9_7f4a_7c15u64);
    for i in 0..CALIBRATION_ROUNDS {
        // xorshift plus a dependent add: no vectorization, no shortcut.
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x = x.wrapping_add(i);
    }
    black_box(x);
    start.elapsed().as_secs_f64() * 1e3
}

/// Logical CPUs available to this process.
pub fn cpus() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Peak resident set size (`VmHWM`) of this process in MiB, read from
/// `/proc/self/status`; `None` where that file does not exist.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}
