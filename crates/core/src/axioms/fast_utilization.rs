//! **Metric II: fast-utilization.**
//!
//! Paper, Section 3: *"A congestion-control protocol P is α-fast-utilizing
//! if there exists T > 0 such that if a P-sender i's window size is
//! `x_i^(t1)` at time step `t1` and by time step `t1 + Δt`, for any
//! `Δt ≥ T`, does not experience loss, nor increased RTT (if not
//! loss-based), then `Σ_{t=t1}^{t1+Δt} (x_i^(t) − x_i^(t1)) ≥ αΔt²/2`."*
//!
//! Intuitively: during any long-enough loss-free stretch, the protocol must
//! gain window at least as fast as an additive-increase-by-α protocol, whose
//! cumulative gain after `Δt` steps is `α·Δt(Δt+1)/2 ≥ αΔt²/2`.
//!
//! The empirical evaluator scans a sender's trace for *eligible segments* —
//! maximal stretches with zero loss, no back-off (a window drop of more
//! than 1%), and, for non-loss-based protocols, non-increasing RTT — and
//! scores each by its normalized cumulative gain `2·Σ(x(t)−x(t1)) / Δt²`.
//! The measured score is the minimum over segments: the largest α the
//! trace is consistent with. The scan is defined once, in
//! [`FastUtilizationAcc`](crate::axioms::streaming::FastUtilizationAcc);
//! [`measured_fast_utilization`] replays a recorded sender through it.

use crate::axioms::streaming::FastUtilizationAcc;
use crate::trace::SenderTrace;

/// Minimum horizon `T` (in RTT steps) used by the empirical evaluator. The
/// axiom allows any finite `T`; we require the gain condition only for
/// stretches at least this long, which filters out quantization noise at
/// the start of an ascent.
pub const DEFAULT_MIN_HORIZON: usize = 8;

/// The largest `α` consistent with the sender's ascents.
///
/// The axiom is `∃T ∀Δt ≥ T: Σ gains ≥ αΔt²/2` — the *protocol* picks the
/// horizon `T`. On a finite segment of length `L`, the best choice is
/// `T = L − 1`, for which the condition reduces to the normalized
/// cumulative gain at the segment's **largest horizon**,
/// `2·Σ_{t=t1}^{t1+L−1}(x(t) − x(t1)) / (L−1)²`. (Taking the minimum over
/// *all* horizons instead would under-score protocols whose gains are
/// back-loaded — MIMD's exponential ascent, CUBIC's convex phase — which
/// the axiom explicitly permits via `T`.) The measured score is the worst
/// such value over all eligible segments of length > `min_horizon`,
/// realizing the axiom's quantification over ascent starts `t1`.
///
/// `rtt` is the sender's RTT column (read only when the protocol is not
/// loss-based) — callers with a [`RunTrace`](crate::trace::RunTrace)
/// pass `run.sender_rtt(i)`, which resolves the shared-vs-own storage.
///
/// Returns `None` when the trace contains no eligible segment long enough
/// to judge (the axiom is then vacuously satisfiable for any α on this
/// trace, and the caller should lengthen the run).
pub fn measured_fast_utilization(
    trace: &SenderTrace,
    rtt: &[f64],
    from: usize,
    min_horizon: usize,
) -> Option<f64> {
    let mut acc = FastUtilizationAcc::new(&[trace.loss_based], from, min_horizon);
    acc.push_columns(trace.len(), |_| (&trace.window, &trace.loss, rtt));
    acc.measured(0)
}

/// Whether the trace witnesses `α`-fast-utilization (conservatively `false`
/// when no segment was long enough to judge and `alpha > 0`).
pub fn satisfies_fast_utilization(
    trace: &SenderTrace,
    rtt: &[f64],
    from: usize,
    min_horizon: usize,
    alpha: f64,
) -> bool {
    match measured_fast_utilization(trace, rtt, from, min_horizon) {
        Some(m) => m >= alpha - 1e-9,
        None => alpha <= 0.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::SenderTrace;

    fn sender(windows: Vec<f64>, loss: Vec<f64>, loss_based: bool) -> SenderTrace {
        let n = windows.len();
        SenderTrace {
            protocol: "test".into(),
            loss_based,
            goodput: vec![0.0; n],
            window: windows,
            loss,
            rtt: None,
        }
    }

    fn flat_rtt(n: usize) -> Vec<f64> {
        vec![0.1; n]
    }

    /// AIMD(a, ·) ascent: x(t) = x0 + a·t, no loss.
    fn additive_ascent(a: f64, steps: usize) -> SenderTrace {
        let windows: Vec<f64> = (0..steps).map(|t| 10.0 + a * t as f64).collect();
        sender(windows, vec![0.0; steps], true)
    }

    #[test]
    fn additive_increase_scores_its_slope() {
        for a in [0.5, 1.0, 2.0] {
            let tr = additive_ascent(a, 64);
            let m = measured_fast_utilization(&tr, &flat_rtt(64), 0, 8).unwrap();
            // Σ_{k=0}^{Δt} a·k = a·Δt(Δt+1)/2 ≥ aΔt²/2, with equality in the
            // limit; the measured minimum should be ≥ a (slightly above).
            assert!(m >= a - 1e-9, "a={a}, measured {m}");
            assert!(m <= a * 1.2, "a={a}, measured {m}");
        }
    }

    #[test]
    fn constant_window_scores_zero() {
        let tr = sender(vec![50.0; 40], vec![0.0; 40], true);
        let rtt = flat_rtt(40);
        let m = measured_fast_utilization(&tr, &rtt, 0, 8).unwrap();
        assert_eq!(m, 0.0);
        assert!(satisfies_fast_utilization(&tr, &rtt, 0, 8, 0.0));
        assert!(!satisfies_fast_utilization(&tr, &rtt, 0, 8, 0.1));
    }

    #[test]
    fn superlinear_growth_scores_high() {
        // MIMD-style doubling: gains explode, so measured α is large.
        let windows: Vec<f64> = (0..20).map(|t| 2.0_f64.powi(t)).collect();
        let tr = sender(windows, vec![0.0; 20], true);
        let m = measured_fast_utilization(&tr, &flat_rtt(20), 0, 8).unwrap();
        assert!(m > 10.0, "measured {m}");
    }

    #[test]
    fn loss_splits_ascents() {
        // Two ascents separated by one lossy step: each scores its slope.
        let mut windows = Vec::new();
        let mut loss = Vec::new();
        for t in 0..20 {
            windows.push(10.0 + t as f64);
            loss.push(0.0);
        }
        windows.push(5.0);
        loss.push(0.3);
        for t in 0..20 {
            windows.push(5.0 + t as f64);
            loss.push(0.0);
        }
        let n = windows.len();
        let tr = sender(windows, loss, true);
        let m = measured_fast_utilization(&tr, &flat_rtt(n), 0, 8).unwrap();
        assert!((1.0 - 1e-9..1.2).contains(&m), "measured {m}");
    }

    #[test]
    fn rtt_rise_splits_segments_for_latency_protocols() {
        // Flat for 15 steps, then +1 per step. The RTT rises at t = 15, so
        // a non-loss-based sender's flat stretch is a segment of its own
        // (gain 0); a loss-based sender ignores the rise and its single
        // segment averages the two phases.
        let windows: Vec<f64> = (0..30).map(|t| 10.0 + (t.max(14) - 14) as f64).collect();
        let mut rtt = vec![0.1; 30];
        rtt[15] = 0.2;
        let latency = sender(windows.clone(), vec![0.0; 30], false);
        assert_eq!(measured_fast_utilization(&latency, &rtt, 0, 8), Some(0.0));
        let lossy = sender(windows, vec![0.0; 30], true);
        let m = measured_fast_utilization(&lossy, &rtt, 0, 8).unwrap();
        assert!((m - 240.0 / 841.0).abs() < 1e-12, "measured {m}");
    }

    #[test]
    fn no_long_segment_yields_none() {
        // Loss every 3 steps: no segment reaches the horizon.
        let mut loss = vec![0.0; 30];
        for t in (0..30).step_by(3) {
            loss[t] = 0.1;
        }
        let tr = sender(vec![10.0; 30], loss, true);
        let rtt = flat_rtt(30);
        assert!(measured_fast_utilization(&tr, &rtt, 0, 8).is_none());
        assert!(satisfies_fast_utilization(&tr, &rtt, 0, 8, 0.0));
        assert!(!satisfies_fast_utilization(&tr, &rtt, 0, 8, 0.5));
    }

    #[test]
    fn slow_probe_fails_fast_utilization() {
        // The Claim-1 protocol: +1 MSS every 10 RTTs. Cumulative gain over
        // Δt is ~Δt²/20, i.e. α = 0.1 — far below 1.
        let windows: Vec<f64> = (0..100).map(|t| 10.0 + (t / 10) as f64).collect();
        let tr = sender(windows, vec![0.0; 100], true);
        let rtt = flat_rtt(100);
        let m = measured_fast_utilization(&tr, &rtt, 0, 8).unwrap();
        assert!(m < 0.2, "measured {m}");
        assert!(!satisfies_fast_utilization(&tr, &rtt, 0, 8, 1.0));
    }
}
