//! The eight axioms ("metrics") of Section 3, as executable definitions.
//!
//! Each submodule exposes one metric as a pair of functions over a
//! [`RunTrace`](crate::trace::RunTrace):
//!
//! * `satisfies_*` — the paper's parameterized predicate ("P is α-efficient
//!   if …"), evaluated on a finite trace by interpreting the existential
//!   "there is some time step T such that from T onwards" as "over the tail
//!   of the run" (the caller supplies the tail start, typically the second
//!   half of a run long past the protocol's transient);
//! * `measured_*` — the **best score** the trace supports, i.e. the largest
//!   (or, for loss, smallest) α for which the predicate holds. This is the
//!   quantity the experiment builders place in the empirical Table 1.
//!
//! Each score is *defined* once, as an online accumulator in
//! [`streaming`] (and, for the churn-aware forms, in [`churn`]): a live
//! run folds its steps into the accumulator as the engine produces them,
//! and `measured_*` scores a recorded trace by replaying its columns
//! through the same accumulator. A test-only oracle keeps the original
//! loop-based evaluators and pins the accumulators to them bit for bit.
//!
//! | Metric | Paper | Module |
//! |---|---|---|
//! | I    | link-utilization (`α`-efficient)     | [`efficiency`] |
//! | II   | fast-utilization                     | [`fast_utilization`] |
//! | III  | loss-avoidance                       | [`loss_avoidance`] |
//! | IV   | fairness                             | [`fairness`] |
//! | V    | convergence                          | [`convergence`] |
//! | VI   | robustness to non-congestion loss    | [`robustness`] |
//! | VII  | TCP-friendliness                     | [`friendliness`] |
//! | VIII | latency-avoidance                    | [`latency`] |
//!
//! Metrics VI and VII quantify over *scenarios* (all initial window
//! configurations; all mixes of senders), not single traces. The functions
//! here evaluate a single trace; the scenario sweeps that realize the
//! universal quantifiers live in `axcc-analysis`.

pub mod churn;
pub mod convergence;
pub mod efficiency;
pub mod extensions;
pub mod fairness;
pub mod fast_utilization;
pub mod friendliness;
pub mod latency;
pub mod loss_avoidance;
#[cfg(test)]
mod oracle;
pub mod robustness;
pub mod streaming;

/// Fraction of a run treated as transient by default: axioms are evaluated
/// on the final half of the trace unless the caller says otherwise.
pub const DEFAULT_TAIL_FRACTION: f64 = 0.5;

/// Identifier for one of the paper's eight metrics, used by the analysis
/// crate to build tables keyed by metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Metric {
    /// Metric I: link-utilization (efficiency).
    Efficiency,
    /// Metric II: fast-utilization.
    FastUtilization,
    /// Metric III: loss-avoidance.
    LossAvoidance,
    /// Metric IV: fairness.
    Fairness,
    /// Metric V: convergence.
    Convergence,
    /// Metric VI: robustness to non-congestion loss.
    Robustness,
    /// Metric VII: TCP-friendliness.
    TcpFriendliness,
    /// Metric VIII: latency-avoidance.
    LatencyAvoidance,
}

impl Metric {
    /// All metrics, in the paper's order.
    pub const ALL: [Metric; 8] = [
        Metric::Efficiency,
        Metric::FastUtilization,
        Metric::LossAvoidance,
        Metric::Fairness,
        Metric::Convergence,
        Metric::Robustness,
        Metric::TcpFriendliness,
        Metric::LatencyAvoidance,
    ];

    /// Short human-readable name used in report tables.
    pub fn label(self) -> &'static str {
        match self {
            Metric::Efficiency => "efficiency",
            Metric::FastUtilization => "fast-util",
            Metric::LossAvoidance => "loss-avoid",
            Metric::Fairness => "fairness",
            Metric::Convergence => "convergence",
            Metric::Robustness => "robustness",
            Metric::TcpFriendliness => "tcp-friendly",
            Metric::LatencyAvoidance => "latency-avoid",
        }
    }

    /// Whether a *larger* score is better for this metric. True for all of
    /// the paper's metrics except loss-avoidance and latency-avoidance,
    /// whose α parameterizes a bound to stay *under*.
    pub fn higher_is_better(self) -> bool {
        !matches!(self, Metric::LossAvoidance | Metric::LatencyAvoidance)
    }
}

impl std::fmt::Display for Metric {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

#[cfg(test)]
pub(crate) mod testutil {
    //! Hand-built traces for axiom unit tests.

    use crate::axioms::fast_utilization::DEFAULT_MIN_HORIZON;
    use crate::axioms::streaming::{Accumulator, MetricAccumulator, MetricConfig, MetricSet};
    use crate::link::LinkParams;
    use crate::trace::{RunTrace, SenderTrace};

    /// Build a consistent [`RunTrace`] from per-sender window trajectories,
    /// deriving loss/RTT/goodput from the link equations (exactly what the
    /// fluid engine does).
    pub fn trace_from_windows(link: LinkParams, windows: &[Vec<f64>]) -> RunTrace {
        let steps = windows[0].len();
        assert!(windows.iter().all(|w| w.len() == steps));
        let mut senders: Vec<SenderTrace> = windows
            .iter()
            .enumerate()
            .map(|(i, _)| SenderTrace::with_capacity(format!("S{i}"), true, steps))
            .collect();
        let mut total = Vec::with_capacity(steps);
        let mut rtts = Vec::with_capacity(steps);
        let mut losses = Vec::with_capacity(steps);
        for t in 0..steps {
            let x: f64 = windows.iter().map(|w| w[t]).sum();
            let rtt = link.rtt(x);
            let loss = link.loss_rate(x);
            total.push(x);
            rtts.push(rtt);
            losses.push(loss);
            for (s, w) in senders.iter_mut().zip(windows.iter()) {
                s.window.push(w[t]);
                s.loss.push(loss);
                s.goodput.push(w[t] * (1.0 - loss) / rtt);
            }
        }
        RunTrace {
            link,
            senders,
            total_window: total,
            rtt: rtts,
            loss: losses,
            seed: 0,
        }
    }

    /// Replay a whole trace through a [`MetricAccumulator`] maintaining
    /// every family, with the default fast-utilization horizon.
    pub fn replay(trace: &RunTrace, tail_fraction: f64, beta: f64) -> MetricAccumulator {
        let mut acc = MetricAccumulator::new(&MetricConfig {
            link: trace.link,
            steps: trace.len(),
            loss_based: trace.senders.iter().map(|s| s.loss_based).collect(),
            tail_fraction,
            min_horizon: DEFAULT_MIN_HORIZON,
            escape_beta: beta,
            metrics: MetricSet::ALL,
        });
        acc.push_steps(&trace.columns());
        acc
    }

    /// Every score an accumulator exposes, as bits, so one `assert_eq!`
    /// checks them all for bit equality (friendliness reads senders 0 and
    /// 1 when there are two).
    pub fn score_bits(acc: &MetricAccumulator) -> Vec<Option<u64>> {
        let mut bits = vec![
            Some(acc.measured_efficiency().to_bits()),
            Some(acc.mean_utilization().to_bits()),
            Some(acc.measured_loss_bound().to_bits()),
            Some(acc.mean_loss().to_bits()),
            Some(u64::from(acc.is_zero_loss())),
            Some(acc.measured_latency_inflation().to_bits()),
            Some(acc.measured_fairness().to_bits()),
            Some(acc.jain_index().to_bits()),
            Some(acc.measured_convergence().to_bits()),
        ];
        for i in 0..acc.num_senders() {
            bits.extend([
                acc.measured_fast_utilization(i).map(f64::to_bits),
                Some(u64::from(acc.window_escapes(i, 0.2))),
                Some(u64::from(acc.window_diverging(i, 1e-9))),
                Some(acc.last_window(i).to_bits()),
                Some(acc.tail_mean_window(i).to_bits()),
                Some(acc.tail_mean_goodput(i).to_bits()),
            ]);
        }
        if acc.num_senders() >= 2 {
            bits.push(Some(acc.measured_friendliness(&[0], &[1]).to_bits()));
        }
        bits
    }

    /// A link with capacity C = 100 MSS and buffer 20 MSS, convenient for
    /// hand-written trajectories.
    pub fn small_link() -> LinkParams {
        // B = 1000 MSS/s, Θ = 50 ms  =>  C = 100 MSS.
        LinkParams::new(1000.0, 0.05, 20.0)
    }

    #[test]
    fn testutil_traces_validate() {
        let link = small_link();
        let tr = trace_from_windows(link, &[vec![10.0, 50.0, 130.0], vec![5.0, 5.0, 5.0]]);
        tr.validate(1e9).unwrap();
        assert_eq!(tr.len(), 3);
        // Third step exceeds C+τ = 120 => loss.
        assert!(tr.loss[2] > 0.0);
        assert_eq!(tr.loss[0], 0.0);
    }
}
