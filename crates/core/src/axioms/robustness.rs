//! **Metric VI: robustness to non-congestion loss.**
//!
//! Paper, Section 3: *"Suppose that a single sender i sends on a link of
//! infinite capacity (so as to remove from consideration congestion-based
//! loss). We say that a protocol P is α-robust if when the sender
//! experiences constant random packet loss rate of at most α ∈ [0, 1],
//! then, for any choice of initial senders' window sizes and value β > 0,
//! there is some T > 0 such that for every t > T, `x_i^(t) ≥ β`"* — i.e.
//! non-congestion loss of rate at most α does not prevent utilization of
//! spare capacity.
//!
//! This is the scenario PCC's authors use to motivate that protocol: TCP
//! collapses under 1% random loss on a clean path. In Table 1 every
//! classical protocol is 0-robust, while Robust-AIMD(a, b, ε) is ε-robust.
//!
//! A single trace can only *witness* escape for the β values it reaches.
//! [`window_escapes`] checks the trace evidence; the binary search over loss
//! rates α that produces a protocol's measured robustness score runs
//! simulations and therefore lives in `axcc-analysis`.

use crate::axioms::streaming::RobustnessAcc;
use crate::trace::SenderTrace;

/// Replay one sender's window column through [`RobustnessAcc`].
fn replay(trace: &SenderTrace, beta: f64) -> RobustnessAcc {
    let mut acc = RobustnessAcc::new(1, trace.len(), beta);
    acc.push_windows(trace.len(), |_| &trace.window);
    acc
}

/// Evidence that the window "escapes" to at least `beta` on this trace:
/// there is a step `T` after which `x^(t) ≥ beta` holds for the rest of the
/// run, **and** that suffix is at least `min_suffix_frac` of the run (so a
/// single final sample does not count as escape).
pub fn window_escapes(trace: &SenderTrace, beta: f64, min_suffix_frac: f64) -> bool {
    replay(trace, beta).escapes(0, min_suffix_frac)
}

/// A stronger trace-level signal used by the robustness sweep: the window
/// is still *growing* at the end of the run (mean over the last quarter
/// exceeds the mean over the previous quarter by `growth_margin`).
/// Under the axiom's infinite-capacity link, a robust protocol's window
/// diverges, so any finite run of it ends in growth; a non-robust protocol
/// stalls at a finite fixed point.
pub fn window_diverging(trace: &SenderTrace, growth_margin: f64) -> bool {
    // The escape threshold plays no part in the quarter means.
    replay(trace, 0.0).diverging(0, growth_margin)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::SenderTrace;

    fn sender(windows: Vec<f64>) -> SenderTrace {
        let n = windows.len();
        SenderTrace {
            protocol: "test".into(),
            loss_based: true,
            loss: vec![0.0; n],
            rtt: None,
            goodput: vec![0.0; n],
            window: windows,
        }
    }

    #[test]
    fn growing_window_escapes() {
        let tr = sender((0..100).map(|t| t as f64).collect());
        assert!(window_escapes(&tr, 50.0, 0.25));
        assert!(window_diverging(&tr, 1.0));
    }

    #[test]
    fn collapsed_window_does_not_escape() {
        // TCP under random loss: sawtooth pinned near zero.
        let tr = sender((0..100).map(|t| 1.0 + (t % 4) as f64).collect());
        assert!(!window_escapes(&tr, 50.0, 0.25));
        assert!(!window_diverging(&tr, 1.0));
    }

    #[test]
    fn late_dip_defeats_escape() {
        let mut w: Vec<f64> = (0..100).map(|t| t as f64).collect();
        w[95] = 0.5; // dips below beta near the end
        let tr = sender(w);
        assert!(!window_escapes(&tr, 10.0, 0.25));
    }

    #[test]
    fn escape_requires_long_suffix() {
        // Window exceeds beta only at the very last step.
        let mut w = vec![1.0; 99];
        w.push(100.0);
        let tr = sender(w);
        assert!(!window_escapes(&tr, 50.0, 0.25));
        // With a tiny required suffix it does count.
        assert!(window_escapes(&tr, 50.0, 0.005));
    }

    #[test]
    fn empty_trace_never_escapes() {
        let tr = sender(vec![]);
        assert!(!window_escapes(&tr, 1.0, 0.1));
        assert!(!window_diverging(&tr, 0.0));
    }

    #[test]
    fn stalled_window_not_diverging() {
        let tr = sender(vec![500.0; 100]);
        assert!(!window_diverging(&tr, 1.0));
        // But it does escape any beta below 500.
        assert!(window_escapes(&tr, 499.0, 0.9));
    }
}
