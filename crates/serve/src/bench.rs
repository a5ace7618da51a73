//! The closed-loop bench client (`axcc bench-serve`).
//!
//! Closed-loop means each client thread keeps exactly one request in
//! flight: send, wait for the response, record the latency, send the
//! next. Offered load therefore scales with the concurrency level, and
//! saturation shows up as rising latency percentiles rather than client
//! queue growth — the natural harness for a daemon whose overload
//! behavior (typed `overloaded` shedding) is itself under test.
//!
//! Per level the client reports completed/error counts, `overloaded`
//! retries (retried with exponential backoff until `max_retries`),
//! wall-clock throughput, nearest-rank p50/p95/p99 latencies, and the
//! min/max throughput over fixed windows (a drop to zero in a window
//! would expose a stall the aggregate rate hides).
//!
//! Workload comparability: every level issues the same deterministic
//! cycle of eval specs (a small set of seeds over one scenario), and a
//! warmup pass populates the daemon's content-addressed cache before the
//! first measured level, so all levels measure the same cache-warm
//! service path rather than the first level paying the simulations.

use crate::protocol::{parse_response, ErrorKind};
use axcc_core::units::{ms_to_sec, sec_to_ms};
use serde_json::{Map, Value};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

/// Bench-client configuration.
#[derive(Debug, Clone)]
pub struct BenchConfig {
    /// Daemon address to connect to.
    pub addr: String,
    /// Concurrency levels to sweep (client threads per level).
    pub levels: Vec<usize>,
    /// Requests per client thread per level.
    pub requests_per_client: usize,
    /// Distinct eval seeds cycled through (the cacheable working set).
    pub distinct_specs: usize,
    /// Fluid-model steps per eval (the per-request work unit).
    pub steps: usize,
    /// Per-request deadline forwarded to the daemon (ms).
    pub deadline_ms: u64,
    /// Base backoff after an `overloaded` response (ms, doubled per
    /// consecutive retry).
    pub backoff_ms: u64,
    /// Retries per request before counting it as an error.
    pub max_retries: usize,
    /// Throughput-window length (ms) for the min/max window rates.
    pub window_ms: u64,
}

impl Default for BenchConfig {
    fn default() -> Self {
        BenchConfig {
            addr: "127.0.0.1:7878".to_string(),
            levels: vec![1, 4, 16],
            requests_per_client: 50,
            distinct_specs: 8,
            steps: 600,
            deadline_ms: 10_000,
            backoff_ms: 5,
            max_retries: 8,
            window_ms: 250,
        }
    }
}

/// Measurements for one concurrency level.
#[derive(Debug, Clone)]
pub struct LevelReport {
    /// Client threads run at this level.
    pub concurrency: usize,
    /// Requests answered `ok`.
    pub completed: u64,
    /// Requests that exhausted retries or got a non-retryable error.
    pub errors: u64,
    /// `overloaded` responses absorbed by retry-with-backoff.
    pub overloaded_retries: u64,
    /// Wall-clock time for the whole level (ms).
    pub wall_ms: f64,
    /// Completed requests per second over the level.
    pub throughput_rps: f64,
    /// Median latency (ms, nearest-rank).
    pub p50_ms: f64,
    /// 95th-percentile latency (ms, nearest-rank).
    pub p95_ms: f64,
    /// 99th-percentile latency (ms, nearest-rank).
    pub p99_ms: f64,
    /// Slowest fixed window's completion rate (rps).
    pub min_window_rps: f64,
    /// Fastest fixed window's completion rate (rps).
    pub max_window_rps: f64,
}

/// The full bench run: one report per level, in run order.
#[derive(Debug, Clone)]
pub struct BenchReport {
    /// Per-level measurements.
    pub levels: Vec<LevelReport>,
    /// Config echo for the artifact.
    pub config: BenchConfig,
}

/// Nearest-rank percentile over an unsorted latency sample (ms).
fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The deterministic request body for request `i` of thread `t`.
fn request_line(cfg: &BenchConfig, thread: usize, i: usize, id: u64) -> String {
    let seed = (thread * 31 + i) % cfg.distinct_specs.max(1);
    format!(
        "{{\"id\":{id},\"op\":\"eval\",\"deadline_ms\":{},\"protocols\":[\"reno\",\"cubic\"],\
         \"steps\":{},\"seed\":{seed}}}\n",
        cfg.deadline_ms, cfg.steps
    )
}

/// One closed-loop client: connect once, issue `n` requests in sequence,
/// retrying `overloaded` with exponential backoff.
#[allow(clippy::cast_precision_loss)]
fn client_thread(
    cfg: &BenchConfig,
    thread_idx: usize,
    level_start: Instant,
    retries: &AtomicU64,
) -> Result<Vec<(f64, f64)>, String> {
    let stream = TcpStream::connect(&cfg.addr).map_err(|e| format!("connect {}: {e}", cfg.addr))?;
    // Closed-loop clients send one small request per round trip; Nagle
    // would batch them behind ACKs and pollute the latency percentiles.
    let _ = stream.set_nodelay(true);
    let mut writer = stream
        .try_clone()
        .map_err(|e| format!("clone stream: {e}"))?;
    let mut reader = BufReader::new(stream);
    let mut samples = Vec::with_capacity(cfg.requests_per_client);
    let mut line = String::new();
    // One unmeasured ping so connection establishment (accept-loop poll
    // latency, TCP handshake) never pollutes the request percentiles.
    writer
        .write_all(b"{\"id\":\"setup\",\"op\":\"ping\"}\n")
        .map_err(|e| format!("send: {e}"))?;
    reader
        .read_line(&mut line)
        .map_err(|e| format!("recv: {e}"))?;
    for i in 0..cfg.requests_per_client {
        let id = (thread_idx * cfg.requests_per_client + i) as u64;
        let mut attempt = 0usize;
        loop {
            let request = request_line(cfg, thread_idx, i, id);
            let begin = Instant::now();
            writer
                .write_all(request.as_bytes())
                .map_err(|e| format!("send: {e}"))?;
            line.clear();
            reader
                .read_line(&mut line)
                .map_err(|e| format!("recv: {e}"))?;
            if line.is_empty() {
                return Err("server closed the connection".to_string());
            }
            let response = parse_response(&line)?;
            match response.outcome {
                Ok(_) => {
                    let latency_ms = sec_to_ms(begin.elapsed().as_secs_f64());
                    let done_at_ms = sec_to_ms(level_start.elapsed().as_secs_f64());
                    samples.push((latency_ms, done_at_ms));
                    break;
                }
                Err((ErrorKind::Overloaded, _)) if attempt < cfg.max_retries => {
                    retries.fetch_add(1, Ordering::Relaxed);
                    let backoff = cfg.backoff_ms.max(1) << attempt.min(8);
                    thread::sleep(Duration::from_millis(backoff));
                    attempt += 1;
                }
                Err((kind, msg)) => {
                    return Err(format!("request {id}: {} — {msg}", kind.wire_id()))
                }
            }
        }
    }
    Ok(samples)
}

/// Run one concurrency level against a live daemon.
fn run_level(cfg: &BenchConfig, concurrency: usize) -> LevelReport {
    let retries = Arc::new(AtomicU64::new(0));
    let level_start = Instant::now();
    let handles: Vec<_> = (0..concurrency)
        .map(|t| {
            let cfg = cfg.clone();
            let retries = retries.clone();
            thread::spawn(move || client_thread(&cfg, t, level_start, &retries))
        })
        .collect();
    let mut latencies: Vec<f64> = Vec::new();
    let mut completions: Vec<f64> = Vec::new();
    let mut errors = 0u64;
    for h in handles {
        match h.join() {
            Ok(Ok(samples)) => {
                for (lat, done) in samples {
                    latencies.push(lat);
                    completions.push(done);
                }
            }
            Ok(Err(_)) | Err(_) => errors += 1,
        }
    }
    let wall_ms = sec_to_ms(level_start.elapsed().as_secs_f64());
    latencies.sort_unstable_by(f64::total_cmp);

    let (min_window_rps, max_window_rps) = window_rates(&completions, wall_ms, cfg.window_ms);

    LevelReport {
        concurrency,
        completed: latencies.len() as u64,
        errors,
        overloaded_retries: retries.load(Ordering::Relaxed),
        wall_ms,
        throughput_rps: if wall_ms > 0.0 {
            latencies.len() as f64 / ms_to_sec(wall_ms)
        } else {
            0.0
        },
        p50_ms: percentile(&latencies, 50.0),
        p95_ms: percentile(&latencies, 95.0),
        p99_ms: percentile(&latencies, 99.0),
        min_window_rps,
        max_window_rps,
    }
}

/// Slowest and fastest completion rates (rps) over fixed windows of
/// `window_ms`, given each request's completion time (ms since the level
/// started) and the level's wall time. The trailing partial window
/// under-counts by construction, so only full windows inform min/max; a
/// level that ends inside its first window has no full window and
/// reports its one rate over the elapsed time instead.
fn window_rates(completions: &[f64], wall_ms: f64, window_ms: u64) -> (f64, f64) {
    let window_ms = window_ms.max(1) as f64;
    let n_windows = ((wall_ms / window_ms).ceil() as usize).max(1);
    if n_windows == 1 {
        let rate = if wall_ms > 0.0 {
            completions.len() as f64 / ms_to_sec(wall_ms)
        } else {
            0.0
        };
        return (rate, rate);
    }
    let mut buckets = vec![0u64; n_windows];
    for &done in completions {
        let idx = ((done / window_ms) as usize).min(n_windows - 1);
        buckets[idx] += 1;
    }
    let full = &buckets[..n_windows - 1];
    let to_rps = |count: u64| count as f64 / ms_to_sec(window_ms);
    let min = full.iter().copied().min().map_or(0.0, to_rps);
    let max = full.iter().copied().max().map_or(0.0, to_rps);
    (min, max)
}

/// Warm the daemon's cache: evaluate every distinct spec once so every
/// measured level sees the same cache-warm service path.
fn warmup(cfg: &BenchConfig) -> Result<(), String> {
    let warm_cfg = BenchConfig {
        requests_per_client: cfg.distinct_specs.max(1),
        ..cfg.clone()
    };
    let retries = AtomicU64::new(0);
    client_thread(&warm_cfg, 0, Instant::now(), &retries).map(|_| ())
}

/// Run the bench against an in-process daemon on an ephemeral port (the
/// CLI's `--spawn` mode): start, bench, drain, return both reports.
pub fn run_bench_spawned(
    cfg: &BenchConfig,
    serve: crate::server::ServeConfig,
) -> Result<(BenchReport, crate::server::ServeReport), String> {
    let serve = crate::server::ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        ..serve
    };
    let handle = crate::server::start(serve).map_err(|e| format!("spawn daemon: {e}"))?;
    let cfg = BenchConfig {
        addr: handle.addr().to_string(),
        ..cfg.clone()
    };
    let bench = run_bench(&cfg);
    handle.trigger_shutdown();
    let served = handle.join();
    bench.map(|b| (b, served))
}

/// Run the full sweep: warmup, then each level in order.
pub fn run_bench(cfg: &BenchConfig) -> Result<BenchReport, String> {
    warmup(cfg)?;
    let levels = cfg.levels.iter().map(|&c| run_level(cfg, c)).collect();
    Ok(BenchReport {
        levels,
        config: cfg.clone(),
    })
}

fn num(v: f64) -> Value {
    Value::Number(v)
}

impl LevelReport {
    /// JSON form for the `BENCH_service.json` artifact.
    pub fn to_value(&self) -> Value {
        let mut m = Map::new();
        m.insert("concurrency".to_string(), num(self.concurrency as f64));
        m.insert("completed".to_string(), num(self.completed as f64));
        m.insert("errors".to_string(), num(self.errors as f64));
        m.insert(
            "overloaded_retries".to_string(),
            num(self.overloaded_retries as f64),
        );
        m.insert("wall_ms".to_string(), num(self.wall_ms));
        m.insert("throughput_rps".to_string(), num(self.throughput_rps));
        m.insert("p50_ms".to_string(), num(self.p50_ms));
        m.insert("p95_ms".to_string(), num(self.p95_ms));
        m.insert("p99_ms".to_string(), num(self.p99_ms));
        m.insert("min_window_rps".to_string(), num(self.min_window_rps));
        m.insert("max_window_rps".to_string(), num(self.max_window_rps));
        Value::Object(m)
    }

    /// One human-readable summary row.
    pub fn render(&self) -> String {
        format!(
            "c={:<3} {:>7.1} req/s  p50 {:>7.2} ms  p95 {:>7.2} ms  p99 {:>7.2} ms  \
             ({} ok, {} err, {} overload-retries, windows {:.1}–{:.1} req/s)",
            self.concurrency,
            self.throughput_rps,
            self.p50_ms,
            self.p95_ms,
            self.p99_ms,
            self.completed,
            self.errors,
            self.overloaded_retries,
            self.min_window_rps,
            self.max_window_rps,
        )
    }
}

impl BenchReport {
    /// The `BENCH_service.json` document.
    pub fn to_value(&self) -> Value {
        let mut cfg = Map::new();
        cfg.insert(
            "requests_per_client".to_string(),
            num(self.config.requests_per_client as f64),
        );
        cfg.insert(
            "distinct_specs".to_string(),
            num(self.config.distinct_specs as f64),
        );
        cfg.insert("steps".to_string(), num(self.config.steps as f64));
        cfg.insert(
            "deadline_ms".to_string(),
            num(self.config.deadline_ms as f64),
        );
        cfg.insert("window_ms".to_string(), num(self.config.window_ms as f64));
        let mut m = Map::new();
        m.insert(
            "artifact".to_string(),
            Value::String("BENCH_service".to_string()),
        );
        m.insert(
            "workload".to_string(),
            Value::String(
                "closed-loop eval requests (reno+cubic shared link), cache warmed before \
                 the first level"
                    .to_string(),
            ),
        );
        m.insert("config".to_string(), Value::Object(cfg));
        m.insert(
            "levels".to_string(),
            Value::Array(self.levels.iter().map(LevelReport::to_value).collect()),
        );
        Value::Object(m)
    }

    /// Human-readable multi-line summary.
    pub fn render(&self) -> String {
        let mut out = String::from("bench-serve (closed-loop, cache-warm):\n");
        for level in &self.levels {
            out.push_str("  ");
            out.push_str(&level.render());
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let mut v: Vec<f64> = (1..=100).map(|i| i as f64).collect();
        v.sort_unstable_by(f64::total_cmp);
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 95.0), 95.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&[7.5], 99.0), 7.5);
        assert_eq!(percentile(&[], 50.0), 0.0);
    }

    #[test]
    fn window_rates_use_elapsed_time_without_a_full_window() {
        // 50 requests done in 23 ms: one partial window, rated over 23 ms
        // (not over the 250 ms window, which would read 200 rps).
        let quick: Vec<f64> = (1..=50).map(|i| f64::from(i) * 0.46).collect();
        let (min, max) = window_rates(&quick, 23.0, 250);
        assert!((min - 50.0 / 0.023).abs() < 1e-6, "{min}");
        assert_eq!(min, max);
        // Two full windows then a partial one: the tail is ignored.
        let mut long: Vec<f64> = vec![10.0; 30];
        long.extend([260.0; 10]);
        long.extend([510.0; 2]);
        assert_eq!(window_rates(&long, 520.0, 250), (40.0, 120.0));
        assert_eq!(window_rates(&[], 0.0, 250), (0.0, 0.0));
    }

    #[test]
    fn request_lines_cycle_a_bounded_spec_set() {
        let cfg = BenchConfig::default();
        let a = request_line(&cfg, 0, 0, 1);
        assert!(a.contains("\"op\":\"eval\""));
        assert!(a.ends_with('\n'));
        let seeds: std::collections::BTreeSet<String> = (0..64)
            .map(|i| {
                let line = request_line(&cfg, 3, i, i as u64);
                line.split("\"seed\":")
                    .nth(1)
                    .unwrap()
                    .trim_end()
                    .to_string()
            })
            .collect();
        assert!(seeds.len() <= cfg.distinct_specs);
    }

    #[test]
    fn report_json_names_the_artifact() {
        let report = BenchReport {
            levels: vec![],
            config: BenchConfig::default(),
        };
        let v = report.to_value();
        assert_eq!(
            v.get("artifact").and_then(Value::as_str),
            Some("BENCH_service")
        );
        assert!(v.get("levels").and_then(Value::as_array).is_some());
    }
}
