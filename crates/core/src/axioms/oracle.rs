//! Loop-based reference evaluators for every axiom score that has a
//! streaming accumulator — test-only.
//!
//! Production code scores a trace by replaying its columns through the
//! accumulators in [`streaming`](crate::axioms::streaming) and
//! [`churn`](crate::axioms::churn), so each metric has exactly one
//! definition. The functions here are the original slice-and-loop
//! evaluators, kept verbatim as an independent oracle: the tests below
//! check that the accumulators reproduce them to the exact f64 bit — the
//! same additions in the same order (f64 addition is not associative), the
//! same `f64::min`/`f64::max` argument order (which decides NaN
//! propagation), and the same edge-case returns for empty tails and idle
//! senders — on hand-built traces, on random trajectories with per-sender
//! RTT columns, and on a packet-level trace.

use crate::trace::{RunTrace, SenderTrace};

/// Metric I: `min_{t ≥ T} X^(t) / C`, capped at 1; 0 for an empty tail.
pub fn measured_efficiency(trace: &RunTrace, tail_start: usize) -> f64 {
    let c = trace.link.capacity();
    let worst = trace.total_window[tail_start.min(trace.len())..]
        .iter()
        .map(|x| x / c)
        .fold(f64::INFINITY, f64::min);
    let worst = if worst.is_finite() { worst } else { 0.0 };
    worst.min(1.0)
}

/// Mean utilization `X/C` over the tail.
pub fn mean_utilization(trace: &RunTrace, tail_start: usize) -> f64 {
    let c = trace.link.capacity();
    let tail = &trace.total_window[tail_start.min(trace.len())..];
    if tail.is_empty() {
        return 0.0;
    }
    tail.iter().sum::<f64>() / (tail.len() as f64 * c)
}

/// Metric III: the maximum link loss rate over the tail.
pub fn measured_loss_bound(trace: &RunTrace, tail_start: usize) -> f64 {
    trace.loss[tail_start.min(trace.len())..]
        .iter()
        .copied()
        .fold(0.0, f64::max)
}

/// Mean loss rate over the tail.
pub fn mean_loss(trace: &RunTrace, tail_start: usize) -> f64 {
    let tail = &trace.loss[tail_start.min(trace.len())..];
    if tail.is_empty() {
        0.0
    } else {
        tail.iter().sum::<f64>() / tail.len() as f64
    }
}

/// Metric VIII: `max_{t ≥ T} RTT(t)/(2Θ) − 1`, infinite on a lossy tail.
pub fn measured_latency_inflation(trace: &RunTrace, tail_start: usize) -> f64 {
    let floor = trace.link.min_rtt();
    let mut worst = 0.0_f64;
    for t in tail_start.min(trace.len())..trace.len() {
        if trace.loss[t] > 0.0 {
            return f64::INFINITY;
        }
        worst = worst.max(trace.rtt[t] / floor - 1.0);
    }
    worst.max(0.0)
}

/// Metric IV: `min_i avg_i / max_j avg_j` over tail-average windows.
pub fn measured_fairness(trace: &RunTrace, tail_start: usize) -> f64 {
    if trace.num_senders() < 2 {
        return 1.0;
    }
    let avgs: Vec<f64> = trace
        .senders
        .iter()
        .map(|s| s.mean_window_from(tail_start))
        .collect();
    let max = avgs.iter().copied().fold(0.0, f64::max);
    let min = avgs.iter().copied().fold(f64::INFINITY, f64::min);
    if max <= 0.0 {
        return 1.0;
    }
    (min / max).clamp(0.0, 1.0)
}

/// Jain's index over tail-average goodputs.
pub fn jain_index(trace: &RunTrace, tail_start: usize) -> f64 {
    let g: Vec<f64> = trace
        .senders
        .iter()
        .map(|s| s.mean_goodput_from(tail_start))
        .collect();
    let n = g.len() as f64;
    let sum: f64 = g.iter().sum();
    let sum_sq: f64 = g.iter().map(|x| x * x).sum();
    if sum_sq <= 0.0 {
        return 1.0;
    }
    (sum * sum) / (n * sum_sq)
}

/// Metric V: `min_i 2·lo_i / (lo_i + hi_i)` over tail window ranges.
pub fn measured_convergence(trace: &RunTrace, tail_start: usize) -> f64 {
    let from = tail_start.min(trace.len());
    if from >= trace.len() {
        return 1.0;
    }
    let mut worst = 1.0_f64;
    for s in &trace.senders {
        let tail = &s.window[from..];
        let lo = tail.iter().copied().fold(f64::INFINITY, f64::min);
        let hi = tail.iter().copied().fold(0.0_f64, f64::max);
        let alpha = if hi <= 0.0 { 1.0 } else { 2.0 * lo / (lo + hi) };
        worst = worst.min(alpha);
    }
    worst.clamp(0.0, 1.0)
}

/// Metric VII: `(min_{j∈Q} avg_j) / (max_{i∈P} avg_i)`.
pub fn measured_friendliness(
    trace: &RunTrace,
    p_senders: &[usize],
    q_senders: &[usize],
    tail_start: usize,
) -> f64 {
    if p_senders.is_empty() || q_senders.is_empty() {
        return 1.0;
    }
    let avg = |i: usize| trace.senders[i].mean_window_from(tail_start);
    let p_max = p_senders.iter().map(|&i| avg(i)).fold(0.0, f64::max);
    let q_min = q_senders
        .iter()
        .map(|&j| avg(j))
        .fold(f64::INFINITY, f64::min);
    if p_max <= 0.0 {
        return 1.0;
    }
    (q_min / p_max).max(0.0)
}

/// An eligible segment of a sender trace: indices `[start, end)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Segment {
    /// First step of the segment.
    pub start: usize,
    /// One past the last step.
    pub end: usize,
}

impl Segment {
    fn len(&self) -> usize {
        self.end - self.start
    }
}

/// The maximal eligible segments from `from`: no loss, no window drop of
/// more than 1%, and (with `check_rtt`) non-increasing RTT.
pub fn eligible_segments(
    trace: &SenderTrace,
    rtt: &[f64],
    from: usize,
    check_rtt: bool,
) -> Vec<Segment> {
    let n = trace.len();
    let mut segs = Vec::new();
    let mut start = None;
    for t in from..n {
        let lossy = trace.loss[t] > 0.0;
        let backed_off = t > from && trace.window[t] < trace.window[t - 1] * 0.99 - 1e-12;
        let rtt_rose = check_rtt && t > from && rtt[t] > rtt[t - 1] + 1e-12;
        if lossy || backed_off || rtt_rose {
            if let Some(s) = start.take() {
                if t > s {
                    segs.push(Segment { start: s, end: t });
                }
            }
            if !lossy {
                start = Some(t);
            }
        } else if start.is_none() {
            start = Some(t);
        }
    }
    if let Some(s) = start {
        if n > s {
            segs.push(Segment { start: s, end: n });
        }
    }
    segs
}

/// Metric II: the worst normalized cumulative gain at each eligible
/// segment's largest horizon, over segments longer than `min_horizon`.
pub fn measured_fast_utilization(
    trace: &SenderTrace,
    rtt: &[f64],
    from: usize,
    min_horizon: usize,
) -> Option<f64> {
    let check_rtt = !trace.loss_based;
    let mut worst: Option<f64> = None;
    for seg in eligible_segments(trace, rtt, from, check_rtt) {
        if seg.len() <= min_horizon {
            continue;
        }
        let x1 = trace.window[seg.start];
        let mut cum_gain = 0.0;
        for dt in 1..seg.len() {
            let t = seg.start + dt;
            cum_gain += trace.window[t] - x1;
        }
        let final_dt = (seg.len() - 1) as f64;
        let alpha = 2.0 * cum_gain / (final_dt * final_dt);
        worst = Some(match worst {
            None => alpha,
            Some(w) => w.min(alpha),
        });
    }
    worst.map(|w| w.max(0.0))
}

/// Metric VI escape witness: the window stays at or above `beta` over a
/// suffix of at least `min_suffix_frac` of the run.
pub fn window_escapes(trace: &SenderTrace, beta: f64, min_suffix_frac: f64) -> bool {
    let n = trace.len();
    if n == 0 {
        return false;
    }
    let last_dip = trace.window.iter().rposition(|&w| w < beta);
    let suffix_start = match last_dip {
        None => 0,
        Some(i) => i + 1,
    };
    let suffix_len = n - suffix_start;
    suffix_len as f64 >= min_suffix_frac * n as f64 && suffix_len > 0
}

/// Metric VI divergence witness: last-quarter mean window exceeds the
/// third quarter's by `growth_margin`.
pub fn window_diverging(trace: &SenderTrace, growth_margin: f64) -> bool {
    let n = trace.len();
    if n < 8 {
        return false;
    }
    let q3 = crate::trace::mean(&trace.window[n / 2..3 * n / 4]);
    let q4 = crate::trace::mean(&trace.window[3 * n / 4..]);
    q4 > q3 + growth_margin
}

/// Churn: mean steps from each arrival until the total window reaches
/// `threshold`.
pub fn mean_settle_after_arrival(total: &[f64], arrivals: &[u64], threshold: f64) -> f64 {
    if arrivals.is_empty() {
        return 0.0;
    }
    let mut sum = 0.0;
    for &a in arrivals {
        let start = (a as usize).min(total.len());
        let settle = total[start..]
            .iter()
            .position(|&x| x >= threshold)
            .map(|off| (start + off) as u64 - a)
            .unwrap_or_else(|| (total.len() as u64).saturating_sub(a));
        sum += settle as f64;
    }
    sum / arrivals.len() as f64
}

/// Jain's index over the strictly-positive entries of `sums`.
fn jain_over_positive(sums: &[f64]) -> Option<f64> {
    let pos: Vec<f64> = sums.iter().copied().filter(|&x| x > 0.0).collect();
    if pos.len() < 2 {
        return None;
    }
    let sum: f64 = pos.iter().sum();
    let sum_sq: f64 = pos.iter().map(|x| x * x).sum();
    Some((sum * sum) / (pos.len() as f64 * sum_sq))
}

/// Churn: length-weighted Jain's index of per-segment goodput volume.
pub fn coexistence_fairness(goodputs: &[&[f64]], boundaries: &[usize], steps: usize) -> f64 {
    let bounds = crate::axioms::churn::segment_bounds(boundaries, steps);
    let mut weighted = 0.0;
    let mut weight = 0.0;
    for w in bounds.windows(2) {
        let (s, e) = (w[0], w[1]);
        let sums: Vec<f64> = goodputs
            .iter()
            .map(|g| g[s.min(g.len())..e.min(g.len())].iter().sum())
            .collect();
        if let Some(j) = jain_over_positive(&sums) {
            weighted += j * (e - s) as f64;
            weight += (e - s) as f64;
        }
    }
    if weight > 0.0 {
        weighted / weight
    } else {
        1.0
    }
}

/// Churn: mean capped utilization over the steps some sender covers.
pub fn utilization_under_churn(total: &[f64], capacity: f64, activity: &[(u64, u64)]) -> f64 {
    let mut sum = 0.0;
    let mut n = 0usize;
    for (t, &x) in total.iter().enumerate() {
        let t = t as u64;
        if activity.iter().any(|&(s, e)| s <= t && t < e) {
            sum += (x / capacity).min(1.0);
            n += 1;
        }
    }
    if n == 0 {
        0.0
    } else {
        sum / n as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::axioms::churn::{self, ChurnAccumulator, ChurnConfig};
    use crate::axioms::streaming::Accumulator;
    use crate::axioms::testutil::{replay, score_bits, small_link, trace_from_windows};
    use crate::axioms::{
        convergence, efficiency, fairness, fast_utilization, friendliness, latency, loss_avoidance,
        robustness,
    };
    use crate::link::LinkParams;
    use proptest::prelude::*;

    const BETA: f64 = 50.0;
    const HORIZON: usize = fast_utilization::DEFAULT_MIN_HORIZON;

    /// Every accumulator score, as bits, computed by the oracle — laid out
    /// exactly like [`score_bits`].
    fn oracle_bits(trace: &RunTrace, tail_fraction: f64) -> Vec<Option<u64>> {
        let tail = trace.tail_start(tail_fraction);
        let mut bits = vec![
            Some(measured_efficiency(trace, tail).to_bits()),
            Some(mean_utilization(trace, tail).to_bits()),
            Some(measured_loss_bound(trace, tail).to_bits()),
            Some(mean_loss(trace, tail).to_bits()),
            Some(u64::from(measured_loss_bound(trace, tail) <= 1e-12)),
            Some(measured_latency_inflation(trace, tail).to_bits()),
            Some(measured_fairness(trace, tail).to_bits()),
            Some(jain_index(trace, tail).to_bits()),
            Some(measured_convergence(trace, tail).to_bits()),
        ];
        for (i, s) in trace.senders.iter().enumerate() {
            bits.extend([
                measured_fast_utilization(s, trace.sender_rtt(i), tail, HORIZON).map(f64::to_bits),
                Some(u64::from(window_escapes(s, BETA, 0.2))),
                Some(u64::from(window_diverging(s, 1e-9))),
                Some(s.window.last().copied().unwrap_or(0.0).to_bits()),
                Some(s.mean_window_from(tail).to_bits()),
                Some(s.mean_goodput_from(tail).to_bits()),
            ]);
        }
        if trace.num_senders() >= 2 {
            bits.push(Some(
                measured_friendliness(trace, &[0], &[1], tail).to_bits(),
            ));
        }
        bits
    }

    /// The public trace scorers (replays), laid out like [`score_bits`].
    fn scorer_bits(trace: &RunTrace, tail_fraction: f64) -> Vec<Option<u64>> {
        let tail = trace.tail_start(tail_fraction);
        let mut bits = vec![
            Some(efficiency::measured_efficiency(trace, tail).to_bits()),
            Some(efficiency::mean_utilization(trace, tail).to_bits()),
            Some(loss_avoidance::measured_loss_bound(trace, tail).to_bits()),
            Some(loss_avoidance::mean_loss(trace, tail).to_bits()),
            Some(u64::from(loss_avoidance::is_zero_loss(trace, tail))),
            Some(latency::measured_latency_inflation(trace, tail).to_bits()),
            Some(fairness::measured_fairness(trace, tail).to_bits()),
            Some(fairness::jain_index(trace, tail).to_bits()),
            Some(convergence::measured_convergence(trace, tail).to_bits()),
        ];
        for (i, s) in trace.senders.iter().enumerate() {
            bits.extend([
                fast_utilization::measured_fast_utilization(s, trace.sender_rtt(i), tail, HORIZON)
                    .map(f64::to_bits),
                Some(u64::from(robustness::window_escapes(s, BETA, 0.2))),
                Some(u64::from(robustness::window_diverging(s, 1e-9))),
                Some(s.window.last().copied().unwrap_or(0.0).to_bits()),
                Some(s.mean_window_from(tail).to_bits()),
                Some(s.mean_goodput_from(tail).to_bits()),
            ]);
        }
        if trace.num_senders() >= 2 {
            bits.push(Some(
                friendliness::measured_friendliness(trace, &[0], &[1], tail).to_bits(),
            ));
        }
        bits
    }

    /// The accumulator, and every public scorer built on it, agree with
    /// the oracle to the bit.
    fn assert_matches_oracle(trace: &RunTrace, tail_fraction: f64) {
        let oracle = oracle_bits(trace, tail_fraction);
        assert_eq!(
            score_bits(&replay(trace, tail_fraction, BETA)),
            oracle,
            "accumulator vs oracle at tail {tail_fraction}"
        );
        assert_eq!(
            scorer_bits(trace, tail_fraction),
            oracle,
            "scorers vs oracle at tail {tail_fraction}"
        );
    }

    #[test]
    fn sawtooth_pair_matches_oracle() {
        let a: Vec<f64> = (0..64).map(|t| 30.0 + (t % 16) as f64 * 4.0).collect();
        let b: Vec<f64> = (0..64).map(|t| 60.0 - (t % 8) as f64 * 3.0).collect();
        let trace = trace_from_windows(small_link(), &[a, b]);
        for frac in [0.0, 0.25, 0.5, 0.9, 1.0] {
            assert_matches_oracle(&trace, frac);
        }
    }

    #[test]
    fn lossy_overflow_matches_oracle() {
        // Overshoots C + τ = 120 periodically: loss steps exercise the
        // latency INF path and fast-utilization segment splitting.
        let w: Vec<f64> = (0..48)
            .map(|t| if t % 6 == 5 { 140.0 } else { 80.0 + t as f64 })
            .collect();
        let trace = trace_from_windows(small_link(), &[w]);
        for frac in [0.0, 0.5] {
            assert_matches_oracle(&trace, frac);
        }
    }

    #[test]
    fn idle_and_staggered_senders_match_oracle() {
        let a = vec![50.0; 32];
        let b: Vec<f64> = (0..32).map(|t| if t < 16 { 0.0 } else { 20.0 }).collect();
        let trace = trace_from_windows(small_link(), &[a, b]);
        for frac in [0.0, 0.25, 0.5, 0.75] {
            assert_matches_oracle(&trace, frac);
        }
    }

    #[test]
    fn all_idle_and_empty_tails_match_oracle() {
        let idle = trace_from_windows(small_link(), &[vec![0.0; 10], vec![0.0; 10]]);
        assert_matches_oracle(&idle, 0.5);
        assert_eq!(fairness::measured_fairness(&idle, 5), 1.0);
        assert_eq!(convergence::measured_convergence(&idle, 5), 1.0);
        let flat = trace_from_windows(small_link(), &[vec![50.0; 8]]);
        assert_matches_oracle(&flat, 1.0);
        let empty = trace_from_windows(small_link(), &[Vec::new()]);
        assert_matches_oracle(&empty, 0.5);
    }

    #[test]
    fn robustness_quartiles_match_growing_window() {
        let w: Vec<f64> = (0..100).map(|t| t as f64).collect();
        let trace = trace_from_windows(LinkParams::new(1.0e6, 0.05, 1.0e6), &[w]);
        assert_matches_oracle(&trace, 0.5);
        let s = &trace.senders[0];
        assert!(robustness::window_escapes(s, 50.0, 0.25));
        assert!(robustness::window_diverging(s, 1.0));
    }

    /// A random run: 1–4 senders with sawtooth-like window walks, some
    /// not loss-based, some recording their own RTT column.
    fn arb_trace() -> impl Strategy<Value = (RunTrace, f64)> {
        let link = (100.0f64..5000.0, 0.005f64..0.2, 0.0f64..300.0);
        let shape = (1usize..5, 0usize..120);
        (link, shape, 0.0f64..1.0).prop_flat_map(|((b, th, tau), (n, steps), frac)| {
            let senders = proptest::collection::vec(
                (
                    proptest::collection::vec(0.0f64..1.0, steps..=steps),
                    proptest::collection::vec(0.0f64..1.0, steps..=steps),
                    0u8..8,
                ),
                n..=n,
            );
            senders.prop_map(move |draws| (random_trace(LinkParams::new(b, th, tau), &draws), frac))
        })
    }

    /// Build a trace from per-sender (walk, RTT, kind) draws. Each window
    /// walks up by up to 20 MSS a step and halves with probability 0.08,
    /// so the run has long ascents, back-offs and (past `C + τ`) loss.
    /// Kind bit 0 makes a sender not loss-based; bit 1 gives it its own RTT
    /// column (the link RTT, raised by up to 1% on about one step in ten,
    /// so some rises are far below a millisecond); bit 2 keeps it idle for
    /// the first third of the run.
    fn random_trace(link: LinkParams, draws: &[(Vec<f64>, Vec<f64>, u8)]) -> RunTrace {
        let windows: Vec<Vec<f64>> = draws
            .iter()
            .map(|(walk, _, kind)| {
                let mut w = 1.0;
                walk.iter()
                    .enumerate()
                    .map(|(t, &u)| {
                        w = if u < 0.08 { w * 0.5 } else { w + 20.0 * u };
                        if kind & 4 != 0 && 3 * t < walk.len() {
                            0.0
                        } else {
                            w
                        }
                    })
                    .collect()
            })
            .collect();
        let mut trace = trace_from_windows(link, &windows);
        for (s, (_, bumps, kind)) in trace.senders.iter_mut().zip(draws) {
            s.loss_based = kind & 1 == 0;
            if kind & 2 != 0 {
                let rtts = trace.rtt.iter().zip(bumps);
                *s.own_rtt_mut() = rtts
                    .map(|(r, &u)| if u < 0.1 { r * (1.0 + u * u) } else { *r })
                    .collect();
            }
        }
        trace
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The random-trajectory form of the contract: for any run, the
        /// accumulator and the scorers agree with the oracle to the bit.
        #[test]
        fn random_trajectories_match_oracle(case in arb_trace()) {
            let (trace, frac) = case;
            let oracle = oracle_bits(&trace, frac);
            prop_assert_eq!(score_bits(&replay(&trace, frac, BETA)), oracle.clone());
            prop_assert_eq!(scorer_bits(&trace, frac), oracle);
        }

        /// Eligible segments partition correctly: they never contain a
        /// lossy step, never overlap, and appear in order.
        #[test]
        fn segments_are_disjoint_and_clean(case in arb_trace()) {
            let trace = case.0;
            for (i, s) in trace.senders.iter().enumerate() {
                let segs = eligible_segments(s, trace.sender_rtt(i), 0, !s.loss_based);
                let mut prev_end = 0;
                for seg in &segs {
                    prop_assert!(seg.start >= prev_end);
                    prop_assert!(seg.end <= s.len());
                    prop_assert!(seg.len() > 0);
                    for t in seg.start..seg.end {
                        prop_assert_eq!(s.loss[t], 0.0, "lossy step inside segment");
                    }
                    prev_end = seg.end;
                }
            }
        }
    }

    #[test]
    fn segments_split_on_loss_back_off_and_rtt_rise() {
        let sender = |window: Vec<f64>, loss: Vec<f64>| SenderTrace {
            protocol: "test".into(),
            loss_based: true,
            goodput: vec![0.0; window.len()],
            rtt: None,
            window,
            loss,
        };
        // Two ascents separated by one lossy step, which starts neither.
        let mut w: Vec<f64> = (0..20).map(|t| 10.0 + t as f64).collect();
        w.push(5.0);
        w.extend((0..20).map(|t| 5.0 + t as f64));
        let mut loss = vec![0.0; 41];
        loss[20] = 0.3;
        let tr = sender(w, loss);
        let segs = eligible_segments(&tr, &[0.1; 41], 0, false);
        assert_eq!(
            segs,
            vec![
                Segment { start: 0, end: 20 },
                Segment { start: 21, end: 41 }
            ]
        );
        // An RTT rise splits only when checked; the rising step starts
        // the next segment.
        let tr = sender((0..30).map(|t| 10.0 + t as f64).collect(), vec![0.0; 30]);
        let mut rtt = vec![0.1; 30];
        rtt[15] = 0.2;
        assert_eq!(eligible_segments(&tr, &rtt, 0, true).len(), 2);
        assert_eq!(eligible_segments(&tr, &rtt, 0, false).len(), 1);
    }

    /// Import a packet-level trace. The packet engine links the library
    /// build of this crate, whose `RunTrace` is a distinct type from the
    /// one this test build defines, so the columns are copied field by
    /// field.
    fn import(t: &axcc_packetsim::RunTrace) -> RunTrace {
        RunTrace {
            link: LinkParams::new(t.link.bandwidth, t.link.prop_delay, t.link.buffer),
            senders: t
                .senders
                .iter()
                .map(|s| SenderTrace {
                    protocol: s.protocol.clone(),
                    loss_based: s.loss_based,
                    window: s.window.clone(),
                    loss: s.loss.clone(),
                    rtt: s.rtt.clone(),
                    goodput: s.goodput.clone(),
                })
                .collect(),
            total_window: t.total_window.clone(),
            rtt: t.rtt.clone(),
            loss: t.loss.clone(),
            seed: t.seed,
        }
    }

    #[test]
    fn packet_trace_replay_matches_oracle() {
        use axcc_packetsim::{PacketScenario, PacketSenderConfig};
        // Two Vegas flows (not loss-based, so fast-utilization reads each
        // flow's RTT column) with staggered starts, still ascending when
        // the run ends: every flow records its own RTT samples.
        let link = LinkParams::from_experiment(crate::units::Bandwidth::Mbps(100.0), 42.0, 100.0);
        let packet_link =
            axcc_packetsim::LinkParams::new(link.bandwidth, link.prop_delay, link.buffer);
        let vegas = || PacketSenderConfig::new(Box::new(axcc_protocols::Vegas::classic()));
        let out = PacketScenario::new(packet_link)
            .duration_secs(5.0)
            .seed(7)
            .sender(vegas())
            .sender(vegas().start_at_secs(1.0))
            .run();
        let trace = import(&out.trace);
        trace.validate(crate::protocol::MAX_WINDOW).unwrap();
        assert!(trace.senders.iter().all(|s| !s.loss_based));
        let (own0, own1) = (trace.sender_rtt(0), trace.sender_rtt(1));
        assert!(trace.senders.iter().all(|s| s.rtt.is_some()));
        assert_ne!(own0, own1, "flows should see distinct RTT samples");
        assert_ne!(own0, &trace.rtt[..]);

        let tail = trace.tail_start(0.5);
        // The scores below depend on which RTT column is read.
        let own = measured_fast_utilization(&trace.senders[0], own0, tail, HORIZON);
        let shared = measured_fast_utilization(&trace.senders[0], &trace.rtt, tail, HORIZON);
        assert_ne!(own, shared);
        for (i, s) in trace.senders.iter().enumerate() {
            assert_eq!(
                fast_utilization::measured_fast_utilization(s, trace.sender_rtt(i), tail, HORIZON)
                    .map(f64::to_bits),
                measured_fast_utilization(s, trace.sender_rtt(i), tail, HORIZON).map(f64::to_bits),
                "fast-utilization diverged for flow {i}"
            );
        }
        assert_eq!(
            friendliness::measured_friendliness(&trace, &[0], &[1], tail).to_bits(),
            measured_friendliness(&trace, &[0], &[1], tail).to_bits()
        );
        // The solo-metric replay (`MetricSet::SOLO`, what the analysis
        // crate's `solo_metrics_of_trace` runs) and the full replay.
        let mut solo = crate::axioms::streaming::MetricAccumulator::new(
            &crate::axioms::streaming::MetricConfig {
                link: trace.link,
                steps: trace.len(),
                loss_based: vec![false; 2],
                tail_fraction: 0.5,
                min_horizon: HORIZON,
                escape_beta: BETA,
                metrics: crate::axioms::streaming::MetricSet::SOLO,
            },
        );
        solo.push_steps(&trace.columns());
        let oracle_fast = (0..2)
            .filter_map(|i| {
                measured_fast_utilization(&trace.senders[i], trace.sender_rtt(i), tail, HORIZON)
            })
            .fold(None, |a: Option<f64>, v| Some(a.map_or(v, |a| a.min(v))));
        let solo_fast = (0..2)
            .filter_map(|i| solo.measured_fast_utilization(i))
            .fold(None, |a: Option<f64>, v| Some(a.map_or(v, |a| a.min(v))));
        assert_eq!(solo_fast.map(f64::to_bits), oracle_fast.map(f64::to_bits));
        assert_eq!(
            [
                solo.measured_efficiency(),
                solo.measured_loss_bound(),
                solo.measured_fairness(),
                solo.measured_convergence(),
                solo.measured_latency_inflation(),
                solo.mean_utilization(),
            ]
            .map(f64::to_bits),
            [
                measured_efficiency(&trace, tail),
                measured_loss_bound(&trace, tail),
                measured_fairness(&trace, tail),
                measured_convergence(&trace, tail),
                measured_latency_inflation(&trace, tail),
                mean_utilization(&trace, tail),
            ]
            .map(f64::to_bits)
        );
        assert_matches_oracle(&trace, 0.5);
    }

    /// Replay a whole trace into a [`ChurnAccumulator`].
    fn churn_replay(trace: &RunTrace, cfg: &ChurnConfig) -> ChurnAccumulator {
        let mut acc = ChurnAccumulator::new(cfg, trace.num_senders());
        acc.push_steps(&trace.columns());
        acc
    }

    fn assert_churn_matches_oracle(trace: &RunTrace, cfg: &ChurnConfig) {
        let acc = churn_replay(trace, cfg);
        let goodputs: Vec<&[f64]> = trace.senders.iter().map(|s| s.goodput.as_slice()).collect();
        let settle =
            mean_settle_after_arrival(&trace.total_window, &cfg.arrivals, cfg.settle_threshold);
        let fair = coexistence_fairness(&goodputs, &cfg.boundaries, trace.len());
        let util = utilization_under_churn(&trace.total_window, cfg.capacity, &cfg.activity);
        assert_eq!(acc.mean_settle_after_arrival().to_bits(), settle.to_bits());
        assert_eq!(acc.coexistence_fairness().to_bits(), fair.to_bits());
        assert_eq!(acc.utilization_under_churn().to_bits(), util.to_bits());
        let scorers = [
            churn::mean_settle_after_arrival(
                &trace.total_window,
                &cfg.arrivals,
                cfg.settle_threshold,
            ),
            churn::coexistence_fairness(&goodputs, &cfg.boundaries, trace.len()),
            churn::utilization_under_churn(&trace.total_window, cfg.capacity, &cfg.activity),
        ];
        assert_eq!(
            scorers.map(f64::to_bits),
            [settle, fair, util].map(f64::to_bits)
        );
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
    fn churn_accumulator_matches_oracle() {
        let (trace, cfg) = churned_trace();
        assert_churn_matches_oracle(&trace, &cfg);
        let no_churn = ChurnConfig {
            capacity: small_link().capacity(),
            steps: trace.len(),
            settle_threshold: 60.0,
            arrivals: Vec::new(),
            boundaries: Vec::new(),
            activity: vec![(0, trace.len() as u64), (0, trace.len() as u64)],
        };
        assert_churn_matches_oracle(&trace, &no_churn);
    }

    #[test]
    fn churn_matches_oracle_with_unsettled_arrivals_and_gaps() {
        // Threshold never reached after the second arrival; an idle gap
        // (no sender active) in the middle exercises the activity filter.
        let a: Vec<f64> = (0..80)
            .map(|t| if (30..40).contains(&t) { 0.0 } else { 50.0 })
            .collect();
        let trace = trace_from_windows(small_link(), &[a]);
        let cfg = ChurnConfig {
            capacity: small_link().capacity(),
            steps: 80,
            settle_threshold: 120.0,
            arrivals: vec![0, 35],
            boundaries: vec![30, 40],
            activity: vec![(0, 30), (40, 80)],
        };
        assert_churn_matches_oracle(&trace, &cfg);
    }

    #[test]
    fn coexistence_fairness_replay_handles_ragged_columns() {
        // The slice form accepts goodput columns shorter than the run.
        let g0 = vec![1.0; 30];
        let g1: Vec<f64> = (0..20).map(|t| if t < 10 { 2.0 } else { 1.0 }).collect();
        let cols: [&[f64]; 2] = [&g0, &g1];
        for steps in [10, 25, 30] {
            assert_eq!(
                churn::coexistence_fairness(&cols, &[10, 18], steps).to_bits(),
                coexistence_fairness(&cols, &[10, 18], steps).to_bits()
            );
        }
    }
}
