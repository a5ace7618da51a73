//! Measurement primitives: order statistics, the process's CPU time
//! (`getrusage`) and peak memory (`/proc/self/status`), and the span
//! recorder of traced runs.

use std::os::raw::{c_int, c_long};
use std::time::Instant;

/// Nearest-rank percentile: the smallest sample with at least `p` percent
/// of all samples at or below it (`p` in `(0, 100]`).
pub fn nearest_rank(samples: &[f64], p: f64) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (p / 100.0 * sorted.len() as f64).ceil().max(1.0) as usize;
    sorted
        .get(rank.min(sorted.len()).wrapping_sub(1))
        .copied()
        .unwrap_or(f64::NAN)
}

/// The median (mean of the two middle samples for an even count).
pub fn median(samples: &[f64]) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    match n {
        0 => f64::NAN,
        _ if n % 2 == 1 => sorted[n / 2],
        _ => 0.5 * (sorted[n / 2 - 1] + sorted[n / 2]),
    }
}

/// Seconds since `t`.
pub fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// `struct timeval` (Linux: two `long`s).
#[repr(C)]
#[derive(Default)]
struct Timeval {
    sec: c_long,
    usec: c_long,
}

/// `struct rusage` (Linux: two timevals, then fourteen `long`s).
#[repr(C)]
#[derive(Default)]
struct Rusage {
    utime: Timeval,
    stime: Timeval,
    rest: [c_long; 14],
}

extern "C" {
    fn getrusage(who: c_int, usage: *mut Rusage) -> c_int;
}

fn rusage_self() -> Rusage {
    let mut r = Rusage::default();
    // SAFETY: `r` is an initialized, writable value with the C layout of
    // `struct rusage` that outlives the call, and RUSAGE_SELF (0) is a
    // valid `who`; getrusage writes only within that struct.
    let rc = unsafe { getrusage(0, &mut r) };
    if rc != 0 {
        return Rusage::default();
    }
    r
}

/// User plus system CPU seconds of this process, all threads included,
/// at microsecond resolution.
pub fn cpu_seconds() -> f64 {
    let r = rusage_self();
    let secs = |t: &Timeval| t.sec as f64 + t.usec as f64 * 1e-6;
    secs(&r.utime) + secs(&r.stime)
}

/// Peak resident set size of this process image in MiB (`VmHWM`; unlike
/// `ru_maxrss`, it starts afresh at `exec`, so a launcher such as
/// `cargo run` does not count).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Named time intervals recorded around calls into the workspace's
/// layers. A disabled recorder runs the closure and records nothing, so
/// untraced and traced passes share one code path.
#[derive(Debug)]
pub struct Spans {
    on: bool,
    origin: Instant,
    list: Vec<(String, f64, f64)>,
}

impl Spans {
    /// A recorder that records when `on`.
    pub fn new(on: bool) -> Self {
        Spans {
            on,
            origin: Instant::now(),
            list: Vec::new(),
        }
    }

    /// Run `f`, recording its interval under `name` when enabled.
    pub fn time<T>(&mut self, name: &str, f: impl FnOnce() -> T) -> T {
        if !self.on {
            return f();
        }
        let start = secs(self.origin);
        let out = f();
        self.list.push((name.to_string(), start, secs(self.origin)));
        out
    }

    /// Total recorded seconds per span name, in first-seen order.
    pub fn totals(&self) -> Vec<(String, f64)> {
        let mut out: Vec<(String, f64)> = Vec::new();
        for (name, start, end) in &self.list {
            match out.iter_mut().find(|(n, _)| n == name) {
                Some((_, t)) => *t += end - start,
                None => out.push((name.clone(), end - start)),
            }
        }
        out
    }

    /// Seconds recorded under `name`.
    pub fn total(&self, name: &str) -> f64 {
        self.totals()
            .into_iter()
            .find(|(n, _)| n == name)
            .map_or(0.0, |(_, t)| t)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_matches_hand_computed_ranks() {
        let v = [15.0, 20.0, 35.0, 40.0, 50.0];
        assert_eq!(nearest_rank(&v, 5.0), 15.0);
        assert_eq!(nearest_rank(&v, 30.0), 20.0);
        assert_eq!(nearest_rank(&v, 40.0), 20.0);
        assert_eq!(nearest_rank(&v, 50.0), 35.0);
        assert_eq!(nearest_rank(&v, 100.0), 50.0);
        let ten: Vec<f64> = (1..=10).rev().map(f64::from).collect();
        assert_eq!(nearest_rank(&ten, 50.0), 5.0);
        assert_eq!(nearest_rank(&ten, 99.0), 10.0);
        assert_eq!(nearest_rank(&[7.0], 99.0), 7.0);
        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(nearest_rank(&hundred, 99.0), 99.0);
        assert!(nearest_rank(&[], 50.0).is_nan());
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn cpu_time_and_peak_memory_are_read() {
        let before = cpu_seconds();
        let mut x = 0u64;
        let t = Instant::now();
        while secs(t) < 0.05 {
            x = std::hint::black_box(x.wrapping_add(1));
        }
        let used = cpu_seconds() - before;
        assert!((0.02..1.0).contains(&used), "{used}");
        assert!(peak_rss_mb() > 0.5);
    }

    #[test]
    fn spans_record_only_when_enabled() {
        let mut off = Spans::new(false);
        assert_eq!(off.time("a", || 1), 1);
        assert!(off.totals().is_empty());
        let mut on = Spans::new(true);
        on.time("a", || ());
        on.time("b", || ());
        on.time("a", || ());
        let names: Vec<String> = on.totals().into_iter().map(|(n, _)| n).collect();
        assert_eq!(names, ["a", "b"]);
        assert!(on.total("a") >= 0.0);
    }
}
