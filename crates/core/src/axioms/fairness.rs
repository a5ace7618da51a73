//! **Metric IV: fairness.**
//!
//! Paper, Section 3: *"We say that a congestion-control protocol P is α-fair
//! if when all senders use P and for any configuration of senders' window
//! sizes, from some time T > 0 onwards, the average window size of each
//! sender i is at least an α-fraction that of any other sender j."*
//!
//! The score is therefore the worst pairwise ratio of tail-average windows;
//! a perfectly fair protocol scores 1, and a protocol that starves some
//! sender scores 0. We also provide Jain's fairness index as a companion
//! statistic (the paper cites RFC 5166 [12], where it is the standard
//! fairness measure) — it is *not* the axiom, but experiment reports show
//! both.

use crate::axioms::streaming::FairnessAcc;
use crate::trace::RunTrace;

/// Replay the trace's per-sender columns through [`FairnessAcc`].
pub(crate) fn replay(trace: &RunTrace, tail_start: usize) -> FairnessAcc {
    let mut acc = FairnessAcc::new(trace.num_senders(), tail_start);
    acc.push_steps(&trace.columns());
    acc
}

/// The largest `α` such that every sender's tail-average window is at least
/// an `α`-fraction of every other's: `min_{i,j} avg_i / avg_j`, which equals
/// `min_i avg_i / max_j avg_j`.
///
/// Returns 1.0 for fewer than two senders (the axiom quantifies over pairs),
/// and 0.0 if some sender's tail-average window is 0 while another's is
/// positive.
pub fn measured_fairness(trace: &RunTrace, tail_start: usize) -> f64 {
    replay(trace, tail_start).measured()
}

/// Whether the trace witnesses `α`-fairness over its tail.
pub fn satisfies_fairness(trace: &RunTrace, tail_start: usize, alpha: f64) -> bool {
    measured_fairness(trace, tail_start) >= alpha - 1e-12
}

/// Jain's fairness index over tail-average goodputs:
/// `(Σ g_i)² / (n · Σ g_i²)`. Ranges from `1/n` (one sender hogs
/// everything) to 1 (perfect equality).
pub fn jain_index(trace: &RunTrace, tail_start: usize) -> f64 {
    replay(trace, tail_start).jain_index()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::axioms::testutil::{small_link, trace_from_windows};

    #[test]
    fn equal_windows_perfectly_fair() {
        let tr = trace_from_windows(small_link(), &[vec![40.0; 10], vec![40.0; 10]]);
        assert!((measured_fairness(&tr, 0) - 1.0).abs() < 1e-12);
        assert!((jain_index(&tr, 0) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn two_to_one_split_scores_half() {
        let tr = trace_from_windows(small_link(), &[vec![60.0; 10], vec![30.0; 10]]);
        assert!((measured_fairness(&tr, 0) - 0.5).abs() < 1e-12);
        assert!(satisfies_fairness(&tr, 0, 0.5));
        assert!(!satisfies_fairness(&tr, 0, 0.6));
    }

    #[test]
    fn starved_sender_scores_zero() {
        let tr = trace_from_windows(small_link(), &[vec![80.0; 10], vec![0.0; 10]]);
        assert_eq!(measured_fairness(&tr, 0), 0.0);
    }

    #[test]
    fn single_sender_vacuously_fair() {
        let tr = trace_from_windows(small_link(), &[vec![80.0; 10]]);
        assert_eq!(measured_fairness(&tr, 0), 1.0);
    }

    #[test]
    fn averages_not_instantaneous() {
        // Senders alternate 20/60 out of phase: instantaneous ratio is 1/3
        // but averages are equal => fair.
        let a: Vec<f64> = (0..20)
            .map(|t| if t % 2 == 0 { 20.0 } else { 60.0 })
            .collect();
        let b: Vec<f64> = (0..20)
            .map(|t| if t % 2 == 0 { 60.0 } else { 20.0 })
            .collect();
        let tr = trace_from_windows(small_link(), &[a, b]);
        assert!((measured_fairness(&tr, 0) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn worst_pair_dominates_with_three_senders() {
        let tr = trace_from_windows(
            small_link(),
            &[vec![40.0; 10], vec![40.0; 10], vec![10.0; 10]],
        );
        assert!((measured_fairness(&tr, 0) - 0.25).abs() < 1e-12);
    }

    #[test]
    fn jain_index_for_hog() {
        let tr = trace_from_windows(small_link(), &[vec![80.0; 10], vec![0.0; 10]]);
        // One of two senders gets everything: J = 1/2.
        assert!((jain_index(&tr, 0) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn all_idle_is_vacuously_fair() {
        let tr = trace_from_windows(small_link(), &[vec![0.0; 5], vec![0.0; 5]]);
        assert_eq!(measured_fairness(&tr, 0), 1.0);
        assert_eq!(jain_index(&tr, 0), 1.0);
    }
}
