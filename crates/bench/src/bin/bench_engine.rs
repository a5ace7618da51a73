//! Benchmark the two engine evaluation paths and emit **BENCH_engine.json**.
//!
//! For every streaming-capable experiment in the registry this runs the
//! full experiment through a serial, cache-disabled runner — once in
//! [`EvalMode::Traced`] (record the full trace, then replay it through the
//! metric accumulators) and once in [`EvalMode::Streaming`] (fold each
//! step straight into the metric accumulators) — asserts the rendered
//! reports are **identical** (they embed every measured score, so equal
//! strings means bit-equal metrics), and records wall-clock for both plus
//! the trace bytes the streaming path never allocated
//! ([`axcc_fluidsim::stats`]).
//!
//! Serial + no cache isolates the engine-path difference: no worker
//! scheduling noise, no cache hits standing in for runs. Each mode is
//! timed [`TIMING_REPEATS`] times and the **minimum** wall-clock is
//! reported: the experiments are deterministic, so the fastest repeat is
//! the one least disturbed by the machine (scheduler preemption, frequency
//! excursions) — the standard noise-robust estimator for the sub-10 ms
//! experiments whose single-shot timings otherwise swing tens of percent.
//!
//! Flags:
//! * `--smoke` — CI-scale run lengths (default: full paper scale);
//! * `--out PATH` — where to write the snapshot (default `BENCH_engine.json`);
//! * `--min-speedup X` — exit non-zero if any experiment's streaming
//!   speedup falls below `X` (the CI smoke gate).

use axcc_analysis::experiments::{registry, RunBudget};
use axcc_bench::has_flag;
use axcc_bench::runner::flag_value;
use axcc_sweep::{EvalMode, Stopwatch, SweepRunner, ENGINE_REVISION};

/// Minimum timed passes per (experiment, mode); the minimum wall-clock is
/// reported.
const TIMING_REPEATS: usize = 3;
/// Keep repeating (up to [`TIMING_MAX_REPEATS`]) until at least this much
/// wall-clock has been measured for the mode: sub-10 ms experiments get
/// many passes, the second-long ones stay at the minimum.
const TIMING_FLOOR_SECS: f64 = 0.5;
/// Hard cap on timed passes per mode.
const TIMING_MAX_REPEATS: usize = 25;

fn main() {
    let budget = if has_flag("--smoke") {
        RunBudget::smoke()
    } else {
        RunBudget::paper()
    };
    let out_path = flag_value("--out").unwrap_or_else(|| "BENCH_engine.json".to_string());
    let min_speedup: Option<f64> = flag_value("--min-speedup").map(|v| {
        v.parse().unwrap_or_else(|e| {
            eprintln!("[bench-engine] bad --min-speedup {v:?}: {e}");
            std::process::exit(2);
        })
    });

    let mut experiments = Vec::new();
    let mut traced_total = 0.0;
    let mut streaming_total = 0.0;
    let mut eliminated_total = 0u64;
    let mut runs_total = 0u64;
    let mut steps_total = 0u64;
    let mut sender_steps_total = 0u64;
    let mut below_gate: Vec<(String, f64)> = Vec::new();
    for exp in registry().iter().filter(|e| e.supports_streaming) {
        eprintln!("[bench-engine] {} …", exp.name);

        let traced = SweepRunner::without_cache(1).with_eval_mode(EvalMode::Traced);
        let _ = axcc_fluidsim::stats::take();
        let sw = Stopwatch::start();
        let traced_outcome = (exp.run)(&traced, budget);
        let mut traced_secs = sw.elapsed_secs();
        let mut traced_spent = traced_secs;
        let traced_streamed = axcc_fluidsim::stats::take();
        assert_eq!(
            traced_streamed.runs, 0,
            "{}: traced mode must not take the streaming path",
            exp.name
        );

        let streaming = SweepRunner::without_cache(1);
        let sw = Stopwatch::start();
        let streaming_outcome = (exp.run)(&streaming, budget);
        let mut streaming_secs = sw.elapsed_secs();
        let mut streaming_spent = streaming_secs;
        // Deterministic runs: every repeat streams the same steps, so the
        // first pass's counters describe them all.
        let streamed = axcc_fluidsim::stats::take();

        // Repeats interleave the two modes so a noise window (scheduler
        // preemption, frequency excursion) lands on both modes' samples
        // instead of skewing their ratio.
        for rep in 1..TIMING_MAX_REPEATS {
            let traced_done = rep >= TIMING_REPEATS && traced_spent >= TIMING_FLOOR_SECS;
            let streaming_done = rep >= TIMING_REPEATS && streaming_spent >= TIMING_FLOOR_SECS;
            if traced_done && streaming_done {
                break;
            }
            if !traced_done {
                let sw = Stopwatch::start();
                let _ = (exp.run)(&traced, budget);
                let secs = sw.elapsed_secs();
                traced_secs = traced_secs.min(secs);
                traced_spent += secs;
                let _ = axcc_fluidsim::stats::take();
            }
            if !streaming_done {
                let sw = Stopwatch::start();
                let _ = (exp.run)(&streaming, budget);
                let secs = sw.elapsed_secs();
                streaming_secs = streaming_secs.min(secs);
                streaming_spent += secs;
                let _ = axcc_fluidsim::stats::take();
            }
        }

        assert_eq!(
            traced_outcome.report, streaming_outcome.report,
            "{}: streaming report diverged from traced",
            exp.name
        );
        assert_eq!(
            traced_outcome.passed, streaming_outcome.passed,
            "{}: streaming pass/fail diverged from traced",
            exp.name
        );

        traced_total += traced_secs;
        streaming_total += streaming_secs;
        eliminated_total += streamed.eliminated_bytes;
        runs_total += streamed.runs;
        steps_total += streamed.steps;
        sender_steps_total += streamed.sender_steps;
        let speedup = if streaming_secs > 0.0 {
            traced_secs / streaming_secs
        } else {
            0.0
        };
        // Absolute throughput of the streaming path: simulation steps per
        // wall-clock second, and nanoseconds per sender-step (the unit of
        // inner-loop work).
        let steps_per_sec = if streaming_secs > 0.0 {
            streamed.steps as f64 / streaming_secs
        } else {
            0.0
        };
        let ns_per_step = if streamed.sender_steps > 0 {
            streaming_secs * 1e9 / streamed.sender_steps as f64
        } else {
            0.0
        };
        if let Some(gate) = min_speedup {
            if speedup < gate {
                below_gate.push((exp.name.to_string(), speedup));
            }
        }
        experiments.push(serde_json::json!({
            "name": exp.name,
            "traced_secs": traced_secs,
            "streaming_secs": streaming_secs,
            "speedup": speedup,
            "streaming_runs": streamed.runs,
            "streaming_steps": streamed.steps,
            "steps_per_sec": steps_per_sec,
            "ns_per_sender_step": ns_per_step,
            "eliminated_trace_bytes": streamed.eliminated_bytes,
        }));
    }

    let suite_speedup = if streaming_total > 0.0 {
        traced_total / streaming_total
    } else {
        0.0
    };
    let totals = serde_json::json!({
        "traced_secs": traced_total,
        "streaming_secs": streaming_total,
        "speedup": suite_speedup,
        "streaming_runs": runs_total,
        "streaming_steps": steps_total,
        "steps_per_sec": if streaming_total > 0.0 { steps_total as f64 / streaming_total } else { 0.0 },
        "ns_per_sender_step": if sender_steps_total > 0 { streaming_total * 1e9 / sender_steps_total as f64 } else { 0.0 },
        "eliminated_trace_bytes": eliminated_total,
    });
    let scale = if budget.smoke { "smoke" } else { "paper" };
    let snapshot = serde_json::json!({
        "engine_revision": ENGINE_REVISION,
        "scale": scale,
        "experiments": experiments,
        "totals": totals,
    });
    let rendered = match serde_json::to_string_pretty(&snapshot) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("[bench-engine] JSON serialization failed: {e}");
            std::process::exit(1);
        }
    };
    println!("{rendered}");
    if let Err(e) = std::fs::write(&out_path, format!("{rendered}\n")) {
        eprintln!("[bench-engine] cannot write {out_path}: {e}");
        std::process::exit(1);
    }
    eprintln!(
        "[bench-engine] snapshot written to {out_path} ({suite_speedup:.2}x suite speedup, {:.1} MiB of trace never allocated over {runs_total} runs)",
        eliminated_total as f64 / (1024.0 * 1024.0),
    );
    if !below_gate.is_empty() {
        for (name, speedup) in &below_gate {
            eprintln!(
                "[bench-engine] GATE FAILURE: {name} streaming speedup {speedup:.3}x < {:.3}x",
                min_speedup.unwrap_or(0.0)
            );
        }
        std::process::exit(1);
    }
}
