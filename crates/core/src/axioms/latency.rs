//! **Metric VIII: latency-avoidance.**
//!
//! Paper, Section 3: *"We say that protocol P is α-latency-avoiding if for
//! sufficiently large link capacity C and buffer size τ, and regardless of
//! sender's initial window sizes, when all senders on the link employ P,
//! there is some time step T such that from T onwards
//! `RTT(t) < (1 + α)·2Θ`."* The term `2Θ` is the minimum possible RTT.
//!
//! Smaller α is better: α = 0.1 means the steady-state RTT stays within 10%
//! of the propagation floor. Loss-based protocols fill the buffer before
//! backing off, so their latency scores are unbounded — which is why
//! Table 1 omits the column ("as all protocols considered are loss-based,
//! their scores for latency avoidance are unbounded"). The metric becomes
//! interesting for delay-based protocols like Vegas, which this repo
//! implements to exercise Theorem 5.

use crate::axioms::streaming::LatencyAcc;
use crate::trace::RunTrace;

/// The smallest `α` such that `RTT(t) < (1 + α)·2Θ` holds over the tail:
/// `max_{t ≥ T} RTT(t)/(2Θ) − 1`.
///
/// Returns `f64::INFINITY` if the tail contains a timeout-capped step (the
/// paper calls loss-based protocols' latency scores "unbounded"; a run that
/// keeps overflowing the buffer has no meaningful latency bound).
pub fn measured_latency_inflation(trace: &RunTrace, tail_start: usize) -> f64 {
    let mut acc = LatencyAcc::new(&trace.link, tail_start);
    acc.push_block(&trace.rtt, &trace.loss);
    acc.measured()
}

/// Whether the trace witnesses `α`-latency-avoidance over its tail.
pub fn satisfies_latency_avoidance(trace: &RunTrace, tail_start: usize, alpha: f64) -> bool {
    measured_latency_inflation(trace, tail_start) < alpha + 1e-12
}

/// Mean queueing delay (seconds above the propagation floor) over the tail
/// — companion statistic for experiment reports.
pub fn mean_queueing_delay(trace: &RunTrace, tail_start: usize) -> f64 {
    let floor = trace.link.min_rtt();
    let tail = &trace.rtt[tail_start.min(trace.len())..];
    if tail.is_empty() {
        return 0.0;
    }
    tail.iter().map(|r| (r - floor).max(0.0)).sum::<f64>() / tail.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::axioms::testutil::{small_link, trace_from_windows};

    #[test]
    fn empty_pipe_has_zero_inflation() {
        // X ≤ C => RTT = 2Θ exactly.
        let tr = trace_from_windows(small_link(), &[vec![80.0; 10]]);
        assert_eq!(measured_latency_inflation(&tr, 0), 0.0);
        assert!(satisfies_latency_avoidance(&tr, 0, 0.01));
        assert_eq!(mean_queueing_delay(&tr, 0), 0.0);
    }

    #[test]
    fn standing_queue_inflates_rtt() {
        // C = 100, B = 1000, 2Θ = 0.1 s. X = 110 => queueing 10/1000 = 10ms,
        // inflation = 0.01/0.1 = 10%.
        let tr = trace_from_windows(small_link(), &[vec![110.0; 10]]);
        let a = measured_latency_inflation(&tr, 0);
        assert!((a - 0.1).abs() < 1e-9, "inflation {a}");
        assert!(satisfies_latency_avoidance(&tr, 0, 0.11));
        assert!(!satisfies_latency_avoidance(&tr, 0, 0.09));
        assert!((mean_queueing_delay(&tr, 0) - 0.01).abs() < 1e-12);
    }

    #[test]
    fn buffer_overflow_is_unbounded() {
        // X > C + τ = 120 => loss step => unbounded latency score.
        let tr = trace_from_windows(small_link(), &[vec![150.0; 10]]);
        assert_eq!(measured_latency_inflation(&tr, 0), f64::INFINITY);
        assert!(!satisfies_latency_avoidance(&tr, 0, 1000.0));
    }

    #[test]
    fn tail_excludes_transient_overflow() {
        let mut w = vec![150.0; 3];
        w.extend(vec![100.0; 7]);
        let tr = trace_from_windows(small_link(), &[w]);
        assert_eq!(measured_latency_inflation(&tr, 0), f64::INFINITY);
        assert_eq!(measured_latency_inflation(&tr, 3), 0.0);
    }

    #[test]
    fn worst_step_dominates() {
        // Alternating 100 / 115: worst inflation from X=115.
        let w: Vec<f64> = (0..10)
            .map(|t| if t % 2 == 0 { 100.0 } else { 115.0 })
            .collect();
        let tr = trace_from_windows(small_link(), &[w]);
        let a = measured_latency_inflation(&tr, 0);
        assert!((a - 0.15).abs() < 1e-9);
    }
}
