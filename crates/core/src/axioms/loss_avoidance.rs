//! **Metric III: loss-avoidance.**
//!
//! Paper, Section 3: *"We say that a congestion-control protocol P is
//! α-loss-avoiding if when all senders employ P, for any initial
//! configuration of senders' window sizes, there is some time step T such
//! that from T onwards the loss rate `L^(t)` is bounded by α."* Protocols
//! that are 0-loss-avoiding are called **"0-loss"**.
//!
//! Smaller α is better here (the score bounds the residual loss), which is
//! why [`Metric::higher_is_better`](crate::axioms::Metric::higher_is_better)
//! is `false` for this metric.

use crate::axioms::streaming::LossAvoidanceAcc;
use crate::trace::RunTrace;

/// Replay the trace's link-loss column through [`LossAvoidanceAcc`].
fn replay(trace: &RunTrace, tail_start: usize) -> LossAvoidanceAcc {
    let mut acc = LossAvoidanceAcc::new(tail_start);
    acc.push_block(&trace.loss);
    acc
}

/// The smallest `α` the tail of the trace supports: the maximum link loss
/// rate observed from `tail_start` onwards.
pub fn measured_loss_bound(trace: &RunTrace, tail_start: usize) -> f64 {
    replay(trace, tail_start).measured()
}

/// Whether the trace witnesses `α`-loss-avoidance over its tail.
pub fn satisfies_loss_avoidance(trace: &RunTrace, tail_start: usize, alpha: f64) -> bool {
    measured_loss_bound(trace, tail_start) <= alpha + 1e-12
}

/// Whether the trace is 0-loss over its tail (no loss events at all after
/// the transient).
pub fn is_zero_loss(trace: &RunTrace, tail_start: usize) -> bool {
    satisfies_loss_avoidance(trace, tail_start, 0.0)
}

/// Mean loss rate over the tail — companion statistic (the paper's bound is
/// a worst case; experiment reports also show the average).
pub fn mean_loss(trace: &RunTrace, tail_start: usize) -> f64 {
    replay(trace, tail_start).mean()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::axioms::testutil::{small_link, trace_from_windows};

    #[test]
    fn lossless_trace_is_zero_loss() {
        let tr = trace_from_windows(small_link(), &[vec![50.0; 10]]);
        assert_eq!(measured_loss_bound(&tr, 0), 0.0);
        assert!(is_zero_loss(&tr, 0));
        assert!(satisfies_loss_avoidance(&tr, 0, 0.0));
    }

    #[test]
    fn overflow_is_measured() {
        // C+τ = 120; X = 150 => L = 1 - 120/150 = 0.2.
        let tr = trace_from_windows(small_link(), &[vec![150.0; 10]]);
        assert!((measured_loss_bound(&tr, 0) - 0.2).abs() < 1e-12);
        assert!(satisfies_loss_avoidance(&tr, 0, 0.2));
        assert!(!satisfies_loss_avoidance(&tr, 0, 0.19));
        assert!(!is_zero_loss(&tr, 0));
    }

    #[test]
    fn transient_loss_excluded_by_tail() {
        // Loss only in the first half.
        let mut w = vec![200.0; 5];
        w.extend(vec![100.0; 5]);
        let tr = trace_from_windows(small_link(), &[w]);
        assert!(measured_loss_bound(&tr, 0) > 0.0);
        assert!(is_zero_loss(&tr, 5));
    }

    #[test]
    fn worst_step_dominates_bound() {
        let tr = trace_from_windows(small_link(), &[vec![120.0, 240.0, 121.0]]);
        // L(240) = 0.5 is the worst.
        assert!((measured_loss_bound(&tr, 0) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn mean_loss_averages() {
        let tr = trace_from_windows(small_link(), &[vec![240.0, 120.0]]);
        assert!((mean_loss(&tr, 0) - 0.25).abs() < 1e-12);
        assert_eq!(mean_loss(&tr, 2), 0.0);
    }
}
