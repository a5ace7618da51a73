//! **Metric I: link-utilization.**
//!
//! Paper, Section 3: *"We say that a congestion-control protocol P is
//! α-efficient if when all senders employ P, for any initial configuration
//! of senders' window sizes, there is some time step T such that from T
//! onwards `X^(t) ≥ αC`."*
//!
//! On a finite trace the existential over `T` is interpreted as "over the
//! tail": the score is the worst utilization seen after the transient. The
//! universal quantifier over initial configurations is realized by the
//! scenario sweeps in `axcc-analysis`, which take the minimum of this score
//! over many initial window configurations.

use crate::axioms::streaming::EfficiencyAcc;
use crate::trace::RunTrace;

/// Replay the trace's total-window column through [`EfficiencyAcc`].
fn replay(trace: &RunTrace, tail_start: usize) -> EfficiencyAcc {
    let mut acc = EfficiencyAcc::new(&trace.link, tail_start);
    acc.push_block(&trace.total_window);
    acc
}

/// The largest `α` such that `X^(t) ≥ αC` holds for every step of the tail:
/// `min_{t ≥ T} X^(t) / C`, capped at 1.
///
/// The cap mirrors Table 1's `min(1, ·)` forms: a protocol whose total
/// window never drops below capacity (its standing queue persists through
/// the back-off) is fully efficient; counting buffer occupancy beyond `C`
/// as extra "efficiency" would be meaningless.
///
/// Returns 0 for an empty tail.
pub fn measured_efficiency(trace: &RunTrace, tail_start: usize) -> f64 {
    replay(trace, tail_start).measured()
}

/// Whether the trace witnesses `α`-efficiency over its tail.
pub fn satisfies_efficiency(trace: &RunTrace, tail_start: usize, alpha: f64) -> bool {
    measured_efficiency(trace, tail_start) >= alpha - 1e-12
}

/// Mean utilization `X/C` over the tail — not the paper's metric (which is a
/// worst-case bound) but a useful companion statistic reported alongside it.
pub fn mean_utilization(trace: &RunTrace, tail_start: usize) -> f64 {
    replay(trace, tail_start).mean_utilization()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::axioms::testutil::{small_link, trace_from_windows};

    #[test]
    fn full_utilization_scores_one_or_more() {
        let link = small_link(); // C = 100
        let tr = trace_from_windows(link, &[vec![100.0; 10]]);
        assert!((measured_efficiency(&tr, 0) - 1.0).abs() < 1e-12);
        assert!(satisfies_efficiency(&tr, 0, 1.0));
    }

    #[test]
    fn half_utilization_scores_half() {
        let link = small_link();
        let tr = trace_from_windows(link, &[vec![50.0; 10]]);
        assert!((measured_efficiency(&tr, 0) - 0.5).abs() < 1e-12);
        assert!(satisfies_efficiency(&tr, 0, 0.5));
        assert!(!satisfies_efficiency(&tr, 0, 0.51));
    }

    #[test]
    fn tail_skips_transient() {
        let link = small_link();
        // Slow start from 1, then steady at 90.
        let mut w = vec![1.0, 2.0, 4.0, 8.0];
        w.extend(vec![90.0; 8]);
        let tr = trace_from_windows(link, &[w]);
        // Whole trace: worst is 1/100.
        assert!((measured_efficiency(&tr, 0) - 0.01).abs() < 1e-12);
        // Tail only: 0.9.
        assert!((measured_efficiency(&tr, 4) - 0.9).abs() < 1e-12);
    }

    #[test]
    fn worst_step_dominates() {
        let link = small_link();
        // Sawtooth dipping to 60 => α = 0.6 even though peak is 1.2·C.
        let tr = trace_from_windows(link, &[vec![120.0, 60.0, 120.0, 60.0]]);
        assert!((measured_efficiency(&tr, 0) - 0.6).abs() < 1e-12);
    }

    #[test]
    fn standing_queue_above_capacity_caps_at_one() {
        let link = small_link(); // C = 100, τ = 20
                                 // Total never dips below 106 (MIMD-style shallow back-off): the
                                 // score caps at 1 per Table 1's min(1, ·).
        let tr = trace_from_windows(link, &[vec![118.0, 106.0, 118.0, 106.0]]);
        assert_eq!(measured_efficiency(&tr, 0), 1.0);
    }

    #[test]
    fn multiple_senders_sum() {
        let link = small_link();
        let tr = trace_from_windows(link, &[vec![40.0; 5], vec![40.0; 5]]);
        assert!((measured_efficiency(&tr, 0) - 0.8).abs() < 1e-12);
    }

    #[test]
    fn empty_tail_scores_zero() {
        let link = small_link();
        let tr = trace_from_windows(link, &[vec![50.0; 4]]);
        assert_eq!(measured_efficiency(&tr, 4), 0.0);
    }

    #[test]
    fn mean_utilization_averages() {
        let link = small_link();
        let tr = trace_from_windows(link, &[vec![50.0, 100.0]]);
        assert!((mean_utilization(&tr, 0) - 0.75).abs() < 1e-12);
    }
}
