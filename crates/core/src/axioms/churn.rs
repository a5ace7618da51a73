//! Churn-aware axiom forms: the paper's metrics re-posed for runs whose
//! sender population changes mid-run (`axcc-topo`'s `ChurnPlan`).
//!
//! With arrivals and departures the static tail quantifiers of Section 3
//! stop being the right lens — there is no single "from T onwards" once
//! the population keeps shifting. Three churn-aware forms replace them:
//!
//! * **convergence after arrival** ([`mean_settle_after_arrival`]) — how
//!   many steps after each arrival the link's total window recovers to a
//!   threshold (Metric V's spirit, re-anchored at every arrival);
//! * **fairness over coexistence windows** ([`coexistence_fairness`]) —
//!   Jain's index evaluated per churn segment (the spans between arrival/
//!   departure events, where the competitor set is constant) over the
//!   senders actually active there, weighted by segment length (Metric IV);
//! * **utilization under churn** ([`utilization_under_churn`]) — mean
//!   capped utilization over the steps where at least one sender is
//!   active (Metric I without charging idle spans to the protocol).
//!
//! Each form is defined once, as an online accumulator
//! ([`ChurnAccumulator`] combines all three); the slice evaluators replay
//! their columns through it, exactly as the
//! [`streaming`](crate::axioms::streaming) scorers do.

use crate::axioms::streaming::{Accumulator, StepColumns};

/// Segment boundaries for a `steps`-long run: the churn-event steps
/// clipped to the run, plus the run's own endpoints, sorted and deduped.
/// Consecutive pairs delimit the coexistence windows.
pub fn segment_bounds(boundaries: &[usize], steps: usize) -> Vec<usize> {
    let mut b: Vec<usize> = boundaries.iter().copied().filter(|&x| x < steps).collect();
    b.push(0);
    b.push(steps);
    b.sort_unstable();
    b.dedup();
    b
}

/// Jain's fairness index over the strictly-positive entries of `sums`,
/// or `None` when fewer than two senders had positive volume (a segment
/// with zero or one active sender says nothing about fairness).
fn jain_over_positive(sums: &[f64]) -> Option<f64> {
    let pos: Vec<f64> = sums.iter().copied().filter(|&x| x > 0.0).collect();
    if pos.len() < 2 {
        return None;
    }
    let sum: f64 = pos.iter().sum();
    let sum_sq: f64 = pos.iter().map(|x| x * x).sum();
    Some((sum * sum) / (pos.len() as f64 * sum_sq))
}

/// Mean settle time after arrivals: for each arrival step `a` (sorted
/// ascending), the number of steps until the first `t >= a` with
/// `total[t] >= threshold`; arrivals that never settle contribute the
/// remainder of the run. Returns 0.0 with no arrivals.
pub fn mean_settle_after_arrival(total: &[f64], arrivals: &[u64], threshold: f64) -> f64 {
    let mut acc = SettleAcc::new(arrivals.to_vec(), threshold);
    acc.push_block(total);
    acc.measured()
}

/// Fairness over coexistence windows: Jain's index of per-sender goodput
/// volume inside each churn segment (see [`segment_bounds`]), over the
/// senders with positive volume there, weighted by segment length.
/// Segments with fewer than two active senders are skipped; returns 1.0
/// when no segment qualifies (fairness is vacuous for a lone sender).
///
/// A column shorter than `steps` contributes nothing past its end (a
/// `+0.0` term, which leaves every positive sum unchanged).
pub fn coexistence_fairness(goodputs: &[&[f64]], boundaries: &[usize], steps: usize) -> f64 {
    let mut acc = CoexistenceFairnessAcc::new(goodputs.len(), boundaries, steps);
    for k in 0..steps {
        acc.push_row(|i| goodputs[i].get(k).copied().unwrap_or(0.0));
    }
    acc.measured()
}

/// Mean capped utilization (`min(X/C, 1)`) over the steps where at least
/// one activity interval `[start, stop)` covers the step; 0.0 if no step
/// is covered.
pub fn utilization_under_churn(total: &[f64], capacity: f64, activity: &[(u64, u64)]) -> f64 {
    let mut acc = ChurnUtilAcc::new(capacity, activity.to_vec());
    acc.push_block(total);
    acc.measured()
}

/// Static shape of a churned run — everything the accumulators need to
/// know up front (all of it is deterministic: the churn plan expands
/// before the run starts).
#[derive(Debug, Clone)]
pub struct ChurnConfig {
    /// Link capacity `C` (MSS); settle threshold and utilization divide
    /// by it.
    pub capacity: f64,
    /// Total number of steps the run will execute.
    pub steps: usize,
    /// Absolute settle threshold (MSS) for [`mean_settle_after_arrival`].
    pub settle_threshold: f64,
    /// Arrival steps, sorted ascending.
    pub arrivals: Vec<u64>,
    /// Churn-event steps (arrivals and departures) delimiting coexistence
    /// segments; [`segment_bounds`] normalizes them.
    pub boundaries: Vec<usize>,
    /// Per-sender activity intervals `[start, stop)` in steps.
    pub activity: Vec<(u64, u64)>,
}

/// Convergence-after-arrival online: one forward pass that settles each
/// arrival at the first step at or after it whose total window reaches
/// the threshold. Arrivals settle in arrival order (a later arrival
/// cannot settle earlier), so the sum folds in arrival order.
#[derive(Debug, Clone)]
pub struct SettleAcc {
    threshold: f64,
    arrivals: Vec<u64>,
    next: usize,
    t: usize,
    sum: f64,
}

impl SettleAcc {
    /// Accumulator for the given sorted arrival steps and threshold.
    pub fn new(arrivals: Vec<u64>, threshold: f64) -> Self {
        debug_assert!(arrivals.windows(2).all(|w| w[0] <= w[1]));
        SettleAcc {
            threshold,
            arrivals,
            next: 0,
            t: 0,
            sum: 0.0,
        }
    }

    /// Consume the next total windows, in step order. Each step at or
    /// above the threshold settles every pending arrival at or before it.
    pub fn push_block(&mut self, totals: &[f64]) {
        for &total in totals {
            if total >= self.threshold {
                while self.next < self.arrivals.len() && self.arrivals[self.next] <= self.t as u64 {
                    self.sum += (self.t as u64 - self.arrivals[self.next]) as f64;
                    self.next += 1;
                }
            }
            self.t += 1;
        }
    }

    /// Mean settle time of the stream so far (unsettled arrivals
    /// contribute the steps seen past their arrival).
    pub fn measured(&self) -> f64 {
        if self.arrivals.is_empty() {
            return 0.0;
        }
        let mut sum = self.sum;
        for &a in &self.arrivals[self.next..] {
            sum += (self.t as u64).saturating_sub(a) as f64;
        }
        sum / self.arrivals.len() as f64
    }

    /// Clear run state, keeping the configuration.
    pub fn reset(&mut self) {
        self.next = 0;
        self.t = 0;
        self.sum = 0.0;
    }
}

/// Coexistence-fairness online: per-segment per-sender goodput sums,
/// finalized into the length-weighted Jain mean exactly as
/// [`coexistence_fairness`] computes it.
#[derive(Debug, Clone)]
pub struct CoexistenceFairnessAcc {
    bounds: Vec<usize>,
    seg: usize,
    t: usize,
    sums: Vec<f64>,
    weighted: f64,
    weight: f64,
}

impl CoexistenceFairnessAcc {
    /// Accumulator for `n` senders with the given churn boundaries over a
    /// `steps`-long run.
    pub fn new(n: usize, boundaries: &[usize], steps: usize) -> Self {
        CoexistenceFairnessAcc {
            bounds: segment_bounds(boundaries, steps),
            seg: 0,
            t: 0,
            sums: vec![0.0; n],
            weighted: 0.0,
            weight: 0.0,
        }
    }

    fn close_segments_before(&mut self, t: usize) {
        while self.seg + 1 < self.bounds.len() && t >= self.bounds[self.seg + 1] {
            let (s, e) = (self.bounds[self.seg], self.bounds[self.seg + 1]);
            if let Some(j) = jain_over_positive(&self.sums) {
                self.weighted += j * (e - s) as f64;
                self.weight += (e - s) as f64;
            }
            self.sums.fill(0.0);
            self.seg += 1;
        }
    }

    /// Consume one step given each sender's goodput.
    pub(crate) fn push_row(&mut self, goodput: impl Fn(usize) -> f64) {
        self.close_segments_before(self.t);
        for (i, sum) in self.sums.iter_mut().enumerate() {
            *sum += goodput(i);
        }
        self.t += 1;
    }

    /// Consume the next steps. Segment closing depends on the running
    /// step index, so rows replay row-major.
    pub fn push_steps(&mut self, cols: &StepColumns<'_>) {
        debug_assert_eq!(cols.num_senders(), self.sums.len());
        for k in 0..cols.len() {
            self.push_row(|i| cols.goodputs(i)[k]);
        }
    }

    /// Length-weighted coexistence fairness of the stream so far.
    pub fn measured(&self) -> f64 {
        // Flush pending segments without mutating (mid-stream reads must
        // not disturb state); the per-segment state is tiny, clone it.
        let mut fin = self.clone();
        fin.close_segments_before(fin.t);
        if fin.weight > 0.0 {
            fin.weighted / fin.weight
        } else {
            1.0
        }
    }

    /// Clear run state, keeping the configuration.
    pub fn reset(&mut self) {
        self.seg = 0;
        self.t = 0;
        self.sums.fill(0.0);
        self.weighted = 0.0;
        self.weight = 0.0;
    }
}

/// Utilization-under-churn online: the covered-step mean of
/// [`utilization_under_churn`] as a running sum.
#[derive(Debug, Clone)]
pub struct ChurnUtilAcc {
    capacity: f64,
    activity: Vec<(u64, u64)>,
    t: usize,
    sum: f64,
    n: usize,
}

impl ChurnUtilAcc {
    /// Accumulator for capacity `C` and the given activity intervals.
    pub fn new(capacity: f64, activity: Vec<(u64, u64)>) -> Self {
        ChurnUtilAcc {
            capacity,
            activity,
            t: 0,
            sum: 0.0,
            n: 0,
        }
    }

    /// Consume the next total windows, in step order.
    pub fn push_block(&mut self, totals: &[f64]) {
        for &total in totals {
            let t = self.t as u64;
            if self.activity.iter().any(|&(s, e)| s <= t && t < e) {
                self.sum += (total / self.capacity).min(1.0);
                self.n += 1;
            }
            self.t += 1;
        }
    }

    /// Mean covered-step utilization of the stream so far.
    pub fn measured(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.sum / self.n as f64
        }
    }

    /// Clear run state, keeping the configuration.
    pub fn reset(&mut self) {
        self.t = 0;
        self.sum = 0.0;
        self.n = 0;
    }
}

/// The combined churn-aware single-pass evaluator: one instance per run,
/// consuming the shared total window and per-sender goodput columns and
/// exposing all three churn scores.
#[derive(Debug, Clone)]
pub struct ChurnAccumulator {
    n: usize,
    settle: SettleAcc,
    fairness: CoexistenceFairnessAcc,
    util: ChurnUtilAcc,
}

impl ChurnAccumulator {
    /// Build the accumulator for one run shape with `n` senders.
    pub fn new(cfg: &ChurnConfig, n: usize) -> Self {
        ChurnAccumulator {
            n,
            settle: SettleAcc::new(cfg.arrivals.clone(), cfg.settle_threshold),
            fairness: CoexistenceFairnessAcc::new(n, &cfg.boundaries, cfg.steps),
            util: ChurnUtilAcc::new(cfg.capacity, cfg.activity.clone()),
        }
    }

    /// Number of senders.
    pub fn num_senders(&self) -> usize {
        self.n
    }

    /// Mean settle time after arrivals of the stream so far.
    pub fn mean_settle_after_arrival(&self) -> f64 {
        self.settle.measured()
    }

    /// Coexistence fairness of the stream so far.
    pub fn coexistence_fairness(&self) -> f64 {
        self.fairness.measured()
    }

    /// Utilization under churn of the stream so far.
    pub fn utilization_under_churn(&self) -> f64 {
        self.util.measured()
    }
}

impl Accumulator for ChurnAccumulator {
    /// The sub-accumulators are independent, so each consumes the whole
    /// view in step order.
    fn push_steps(&mut self, cols: &StepColumns<'_>) {
        debug_assert_eq!(cols.num_senders(), self.n);
        self.settle.push_block(cols.totals());
        self.fairness.push_steps(cols);
        self.util.push_block(cols.totals());
    }

    fn reset(&mut self) {
        self.settle.reset();
        self.fairness.reset();
        self.util.reset();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::axioms::streaming::StepBlock;
    use crate::axioms::testutil::{small_link, trace_from_windows};
    use crate::trace::RunTrace;

    /// Replay a whole trace into a [`ChurnAccumulator`].
    fn replay(trace: &RunTrace, cfg: &ChurnConfig) -> ChurnAccumulator {
        let mut acc = ChurnAccumulator::new(cfg, trace.num_senders());
        acc.push_steps(&trace.columns());
        acc
    }

    fn scores(acc: &ChurnAccumulator) -> [u64; 3] {
        [
            acc.mean_settle_after_arrival(),
            acc.coexistence_fairness(),
            acc.utilization_under_churn(),
        ]
        .map(f64::to_bits)
    }

    /// A churned two-sender shape: sender 1 active only in [20, 60).
    fn churned_trace() -> (RunTrace, ChurnConfig) {
        let a: Vec<f64> = (0..100).map(|t| 40.0 + (t % 10) as f64 * 3.0).collect();
        let b: Vec<f64> = (0..100)
            .map(|t| if (20..60).contains(&t) { 25.0 } else { 0.0 })
            .collect();
        let trace = trace_from_windows(small_link(), &[a, b]);
        let cfg = ChurnConfig {
            capacity: small_link().capacity(),
            steps: 100,
            settle_threshold: 0.6 * small_link().capacity(),
            arrivals: vec![20],
            boundaries: vec![20, 60],
            activity: vec![(0, 100), (20, 60)],
        };
        (trace, cfg)
    }

    #[test]
    fn block_boundaries_never_change_a_score() {
        // Odd capacities land churn boundaries mid-block; cap 1 is the
        // per-step path; an oversized cap exercises the single partial
        // flush.
        let (trace, cfg) = churned_trace();
        let whole = scores(&replay(&trace, &cfg));
        for cap in [1, 7, 32, 1024] {
            let mut acc = ChurnAccumulator::new(&cfg, trace.num_senders());
            let mut block = StepBlock::new(trace.num_senders(), cap);
            for t in 0..trace.len() {
                block.stage_shared(trace.total_window[t], trace.rtt[t], trace.loss[t]);
                for (i, s) in trace.senders.iter().enumerate() {
                    block.stage_sender(i, s.window[t], s.loss[t], s.goodput[t]);
                }
                if block.advance() {
                    acc.push_steps(&block.columns());
                    block.begin(t + 1);
                }
            }
            if !block.is_empty() {
                acc.push_steps(&block.columns());
            }
            assert_eq!(scores(&acc), whole, "cap {cap}");
        }
    }

    #[test]
    fn settle_counts_steps_to_recovery() {
        // Total dips below 60 at the arrival and recovers 5 steps later.
        let total: Vec<f64> = (0..20)
            .map(|t| if (10..15).contains(&t) { 40.0 } else { 80.0 })
            .collect();
        assert_eq!(mean_settle_after_arrival(&total, &[10], 60.0), 5.0);
        // An arrival in an already-settled span settles immediately.
        assert_eq!(mean_settle_after_arrival(&total, &[2], 60.0), 0.0);
        // Never settles: contributes the rest of the run.
        assert_eq!(mean_settle_after_arrival(&total, &[10], 1000.0), 10.0);
        assert_eq!(mean_settle_after_arrival(&total, &[], 60.0), 0.0);
    }

    #[test]
    fn coexistence_fairness_weights_segments() {
        // Segment 1 (steps 0..10): equal goodput => Jain 1. Segment 2
        // (10..30): only one sender active => skipped.
        let g0 = vec![1.0; 30];
        let g1: Vec<f64> = (0..30).map(|t| if t < 10 { 1.0 } else { 0.0 }).collect();
        let f = coexistence_fairness(&[&g0, &g1], &[10], 30);
        assert!((f - 1.0).abs() < 1e-12, "{f}");
        // A lopsided segment pulls the weighted mean down.
        let g2: Vec<f64> = (0..30).map(|t| if t < 10 { 3.0 } else { 0.0 }).collect();
        let f2 = coexistence_fairness(&[&g0, &g2], &[10], 30);
        assert!(f2 < 1.0, "{f2}");
    }

    #[test]
    fn utilization_ignores_uncovered_steps() {
        let total = vec![50.0, 100.0, 0.0, 0.0];
        // Only steps 0 and 1 are covered; capacity 100.
        let u = utilization_under_churn(&total, 100.0, &[(0, 2)]);
        assert!((u - 0.75).abs() < 1e-12, "{u}");
        assert_eq!(utilization_under_churn(&total, 100.0, &[]), 0.0);
    }

    #[test]
    fn segment_bounds_normalizes() {
        assert_eq!(segment_bounds(&[], 10), vec![0, 10]);
        assert_eq!(segment_bounds(&[3, 3, 7, 15], 10), vec![0, 3, 7, 10]);
        assert_eq!(segment_bounds(&[0, 10], 10), vec![0, 10]);
    }

    #[test]
    fn reset_reproduces_a_fresh_accumulator() {
        let (trace, cfg) = churned_trace();
        let fresh = replay(&trace, &cfg);
        let mut reused = replay(&trace, &cfg);
        reused.reset();
        reused.push_steps(&trace.columns());
        assert_eq!(scores(&reused), scores(&fresh));
    }

    #[test]
    fn mid_stream_reads_do_not_disturb_the_final_score() {
        let (trace, cfg) = churned_trace();
        let mut acc = ChurnAccumulator::new(&cfg, trace.num_senders());
        let mut block = StepBlock::new(trace.num_senders(), 3);
        for t in 0..trace.len() {
            block.stage_shared(trace.total_window[t], trace.rtt[t], trace.loss[t]);
            for (i, s) in trace.senders.iter().enumerate() {
                block.stage_sender(i, s.window[t], s.loss[t], s.goodput[t]);
            }
            if block.advance() {
                acc.push_steps(&block.columns());
                block.begin(t + 1);
                let _ = acc.coexistence_fairness();
                let _ = acc.mean_settle_after_arrival();
            }
        }
        acc.push_steps(&block.columns());
        assert_eq!(scores(&acc), scores(&replay(&trace, &cfg)));
    }
}
