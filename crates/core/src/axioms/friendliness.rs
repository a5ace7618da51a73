//! **Metric VII: TCP-friendliness.**
//!
//! Paper, Section 3: *"We say that a protocol P is α-friendly to another
//! protocol Q if, for any combination of sender-protocols such that some
//! senders use P and others use Q, for every initial configuration of
//! senders' window sizes, and for every P-sender i and Q-sender j, from some
//! point in time T > 0 onwards j's average window size is at least an
//! α-fraction of i's average window size."*
//!
//! *"We say that a protocol P is α-TCP-friendly if P is α-friendly towards
//! AIMD(1, 0.5) (i.e., TCP Reno)."*
//!
//! Friendliness is fairness across *different* protocols: the score of a
//! mixed trace is the worst ratio of a Q-sender's tail-average window to a
//! P-sender's. A score of 1 means Q (e.g. legacy Reno) keeps pace with P; a
//! score near 0 means P starves Q.

use crate::trace::RunTrace;

/// The largest `α` such that every Q-sender's tail-average window is at
/// least an `α`-fraction of every P-sender's:
/// `min_{i ∈ P, j ∈ Q} avg_j / avg_i = (min_{j∈Q} avg_j) / (max_{i∈P} avg_i)`.
///
/// `p_senders` and `q_senders` index into `trace.senders`. Returns:
/// * `1.0` if either set is empty (vacuous) or all P-senders are idle,
/// * `0.0` if some Q-sender is fully starved while P sends.
///
/// The score is *not* clamped to 1 from above: a value above 1 means Q
/// actually out-competes P, which the Table 2 experiment reports as such.
pub fn measured_friendliness(
    trace: &RunTrace,
    p_senders: &[usize],
    q_senders: &[usize],
    tail_start: usize,
) -> f64 {
    crate::axioms::fairness::replay(trace, tail_start).friendliness(p_senders, q_senders)
}

/// Whether the trace witnesses `α`-friendliness of the P-set towards the
/// Q-set over its tail.
pub fn satisfies_friendliness(
    trace: &RunTrace,
    p_senders: &[usize],
    q_senders: &[usize],
    tail_start: usize,
    alpha: f64,
) -> bool {
    measured_friendliness(trace, p_senders, q_senders, tail_start) >= alpha - 1e-12
}

/// Throughput-share variant used in experiment reports: the Q-set's share
/// of total tail goodput, normalized by its fair share `|Q| / (|P| + |Q|)`.
/// 1.0 means Q gets exactly its proportional share.
pub fn goodput_share_ratio(
    trace: &RunTrace,
    p_senders: &[usize],
    q_senders: &[usize],
    tail_start: usize,
) -> f64 {
    let g = |idxs: &[usize]| -> f64 {
        idxs.iter()
            .map(|&i| trace.senders[i].mean_goodput_from(tail_start))
            .sum()
    };
    let gp = g(p_senders);
    let gq = g(q_senders);
    let total = gp + gq;
    if total <= 0.0 || q_senders.is_empty() {
        return 1.0;
    }
    let fair = q_senders.len() as f64 / (p_senders.len() + q_senders.len()) as f64;
    (gq / total) / fair
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::axioms::testutil::{small_link, trace_from_windows};

    #[test]
    fn equal_sharing_is_one_friendly() {
        let tr = trace_from_windows(small_link(), &[vec![40.0; 10], vec![40.0; 10]]);
        assert!((measured_friendliness(&tr, &[0], &[1], 0) - 1.0).abs() < 1e-12);
        assert!((goodput_share_ratio(&tr, &[0], &[1], 0) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn aggressive_p_scores_low() {
        // P takes 90, Q is squeezed to 10: friendliness = 10/90.
        let tr = trace_from_windows(small_link(), &[vec![90.0; 10], vec![10.0; 10]]);
        let f = measured_friendliness(&tr, &[0], &[1], 0);
        assert!((f - 10.0 / 90.0).abs() < 1e-12);
        assert!(satisfies_friendliness(&tr, &[0], &[1], 0, 0.1));
        assert!(!satisfies_friendliness(&tr, &[0], &[1], 0, 0.2));
    }

    #[test]
    fn meek_p_scores_above_one() {
        let tr = trace_from_windows(small_link(), &[vec![20.0; 10], vec![80.0; 10]]);
        let f = measured_friendliness(&tr, &[0], &[1], 0);
        assert!((f - 4.0).abs() < 1e-12);
    }

    #[test]
    fn worst_pair_across_sets() {
        // Two P (50, 70), two Q (30, 60): worst = 30/70.
        let tr = trace_from_windows(
            small_link(),
            &[vec![50.0; 8], vec![70.0; 8], vec![30.0; 8], vec![60.0; 8]],
        );
        let f = measured_friendliness(&tr, &[0, 1], &[2, 3], 0);
        assert!((f - 30.0 / 70.0).abs() < 1e-12);
    }

    #[test]
    fn starved_q_scores_zero() {
        let tr = trace_from_windows(small_link(), &[vec![100.0; 8], vec![0.0; 8]]);
        assert_eq!(measured_friendliness(&tr, &[0], &[1], 0), 0.0);
    }

    #[test]
    fn empty_sets_vacuous() {
        let tr = trace_from_windows(small_link(), &[vec![50.0; 8]]);
        assert_eq!(measured_friendliness(&tr, &[], &[0], 0), 1.0);
        assert_eq!(measured_friendliness(&tr, &[0], &[], 0), 1.0);
    }

    #[test]
    fn idle_p_vacuous() {
        let tr = trace_from_windows(small_link(), &[vec![0.0; 8], vec![50.0; 8]]);
        assert_eq!(measured_friendliness(&tr, &[0], &[1], 0), 1.0);
    }

    #[test]
    fn goodput_share_ratio_with_unequal_sets() {
        // 1 P-sender at 60, 2 Q-senders at 30 each: Q share = 0.5, fair
        // share = 2/3, ratio = 0.75.
        let tr = trace_from_windows(small_link(), &[vec![60.0; 8], vec![30.0; 8], vec![30.0; 8]]);
        let r = goodput_share_ratio(&tr, &[0], &[1, 2], 0);
        assert!((r - 0.75).abs() < 1e-9, "ratio {r}");
    }
}
