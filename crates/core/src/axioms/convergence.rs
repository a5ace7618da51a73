//! **Metric V: convergence.**
//!
//! Paper, Section 3: *"We say that a congestion-control protocol P is
//! α-convergent, for α ∈ [0, 1], if there is a configuration of window sizes
//! `(x*_1, …, x*_n) ∈ [0, M]^n` and time step T such that for any t > T and
//! sender i, `α·x*_i ≤ x_i^(t) ≤ (2 − α)·x*_i`."*
//!
//! E.g. α = 0.9 means every window eventually stays within ±10% of a fixed
//! point; α = 0 is vacuous (any bounded dynamic); α = 1 means exact
//! convergence.
//!
//! The empirical evaluator chooses, for each sender, the fixed point `x*_i`
//! that maximizes the attainable α for the tail excursion `[lo_i, hi_i]` —
//! the definition lets the *protocol designer* pick `x*`, so the measured
//! score must optimize over it. For a given band `[lo, hi]` the optimum is
//! at `α·x* = lo` and `(2−α)·x* = hi` simultaneously, giving
//! `x* = (lo + hi)/2` and `α = 2·lo/(lo + hi)`.

use crate::axioms::streaming::ConvergenceAcc;
use crate::trace::RunTrace;

/// The largest `α` the tail supports, optimizing the fixed point per sender:
/// `min_i 2·lo_i / (lo_i + hi_i)` where `[lo_i, hi_i]` is sender i's window
/// range over the tail.
///
/// Returns 1.0 for an empty tail or when all windows are identically 0 (the
/// all-zeros fixed point satisfies the definition exactly).
pub fn measured_convergence(trace: &RunTrace, tail_start: usize) -> f64 {
    let mut acc = ConvergenceAcc::new(trace.num_senders(), trace.len(), tail_start);
    acc.push_steps(&trace.columns());
    acc.measured()
}

/// Whether the trace witnesses `α`-convergence over its tail.
pub fn satisfies_convergence(trace: &RunTrace, tail_start: usize, alpha: f64) -> bool {
    measured_convergence(trace, tail_start) >= alpha - 1e-12
}

/// The per-sender optimal fixed points `x*_i = (lo_i + hi_i)/2` implied by
/// the tail — reported alongside the score so experiments can show what the
/// dynamics converged *to*.
pub fn implied_fixed_point(trace: &RunTrace, tail_start: usize) -> Vec<f64> {
    let from = tail_start.min(trace.len());
    trace
        .senders
        .iter()
        .map(|s| {
            let tail = &s.window[from..];
            if tail.is_empty() {
                return 0.0;
            }
            let lo = tail.iter().copied().fold(f64::INFINITY, f64::min);
            let hi = tail.iter().copied().fold(0.0_f64, f64::max);
            (lo + hi) / 2.0
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::axioms::testutil::{small_link, trace_from_windows};

    #[test]
    fn constant_windows_fully_convergent() {
        let tr = trace_from_windows(small_link(), &[vec![40.0; 10], vec![60.0; 10]]);
        assert!((measured_convergence(&tr, 0) - 1.0).abs() < 1e-12);
        assert_eq!(implied_fixed_point(&tr, 0), vec![40.0, 60.0]);
    }

    #[test]
    fn aimd_sawtooth_matches_2b_over_1_plus_b() {
        // AIMD(·, b) oscillates between b·W and W at the fixed point; the
        // optimal x* = W(1+b)/2 gives α = 2b/(1+b) — exactly Table 1's
        // convergence entry for AIMD.
        let b = 0.5;
        let peak = 80.0;
        let w: Vec<f64> = (0..40)
            .map(|t| {
                let phase = t % 8;
                // linear climb from b·peak to peak over 8 steps
                let frac = phase as f64 / 7.0;
                b * peak + (1.0 - b) * peak * frac
            })
            .collect();
        let tr = trace_from_windows(small_link(), &[w]);
        let expect = 2.0 * b / (1.0 + b);
        assert!(
            (measured_convergence(&tr, 0) - expect).abs() < 1e-9,
            "measured {} expect {expect}",
            measured_convergence(&tr, 0)
        );
    }

    #[test]
    fn worst_sender_dominates() {
        let stable = vec![50.0; 20];
        let wild: Vec<f64> = (0..20)
            .map(|t| if t % 2 == 0 { 10.0 } else { 90.0 })
            .collect();
        let tr = trace_from_windows(small_link(), &[stable, wild]);
        // Wild sender: α = 2·10/(10+90) = 0.2.
        assert!((measured_convergence(&tr, 0) - 0.2).abs() < 1e-12);
    }

    #[test]
    fn window_hitting_zero_gives_zero() {
        let w: Vec<f64> = (0..10)
            .map(|t| if t % 2 == 0 { 0.0 } else { 50.0 })
            .collect();
        let tr = trace_from_windows(small_link(), &[w]);
        assert_eq!(measured_convergence(&tr, 0), 0.0);
    }

    #[test]
    fn all_zero_window_convergent() {
        let tr = trace_from_windows(small_link(), &[vec![0.0; 10]]);
        assert_eq!(measured_convergence(&tr, 0), 1.0);
    }

    #[test]
    fn tail_excludes_transient() {
        let mut w = vec![1.0, 100.0, 3.0, 90.0]; // wild transient
        w.extend(vec![50.0; 10]);
        let tr = trace_from_windows(small_link(), &[w]);
        assert!(measured_convergence(&tr, 0) < 0.1);
        assert!((measured_convergence(&tr, 4) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn empty_tail_is_vacuous() {
        let tr = trace_from_windows(small_link(), &[vec![50.0; 4]]);
        assert_eq!(measured_convergence(&tr, 4), 1.0);
    }
}
