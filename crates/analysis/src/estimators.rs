//! Empirical metric estimation via scenario sweeps.
//!
//! The paper's axioms quantify over **all** initial window configurations
//! (and, for friendliness, all sender mixes). Empirically we realize those
//! universal quantifiers by sweeping a set of adversarial initial
//! configurations — uniform tiny windows, near-capacity fair shares, and a
//! heavily skewed split — and taking the per-metric **worst** result, which
//! is the score the protocol can actually guarantee on the scenario family.
//!
//! Two backends produce traces: the fluid model (`axcc-fluidsim`, exact
//! Section 2 dynamics, used for fast sweeps and theorem checks) and the
//! packet-level simulator (`axcc-packetsim`, the Emulab stand-in, used for
//! the validation experiments). Both emit [`RunTrace`], so the estimators
//! are backend-agnostic.

use axcc_core::axioms::friendliness;
use axcc_core::protocol::MAX_WINDOW;
use axcc_core::{LinkParams, Protocol, RunTrace, ScenarioError};
use axcc_fluidsim::{
    metric_accumulator_for, try_run_scenario, try_run_scenario_streaming_into, Accumulator,
    LossModel, MetricAccumulator, MetricConfig, MetricSet, Scenario, SenderConfig, StepSink,
    StreamOptions,
};
use axcc_packetsim::{PacketScenario, PacketSenderConfig};
pub use axcc_sweep::EvalMode;
use serde::{Deserialize, Serialize};

/// Fraction of each run treated as transient.
pub const TAIL_FRACTION: f64 = 0.5;

/// Minimum ascent horizon for the fast-utilization estimator (RTT steps).
pub const FAST_UTIL_HORIZON: usize = 8;

/// The β threshold the robustness estimators use for the escape witness
/// ([`MetricAccumulator::window_escapes`]).
pub const ROBUSTNESS_ESCAPE_BETA: f64 = 100.0;

/// Accumulator options matching this module's estimator parameters.
pub fn stream_options() -> StreamOptions {
    StreamOptions {
        tail_fraction: TAIL_FRACTION,
        min_horizon: FAST_UTIL_HORIZON,
        escape_beta: ROBUSTNESS_ESCAPE_BETA,
        metrics: MetricSet::ALL,
    }
}

/// [`stream_options`] restricted to the metric families a job will
/// actually read — the sink-specialization entry point: the accumulator
/// skips every other family's per-block fold.
pub fn stream_options_for(metrics: MetricSet) -> StreamOptions {
    StreamOptions {
        metrics,
        ..stream_options()
    }
}

/// Run a fluid `scenario` into `acc` — the one place an [`EvalMode`]
/// acts. `acc` is reset first. Under [`EvalMode::Streaming`] the engine
/// folds each step into `acc` as it runs; under [`EvalMode::Traced`] the
/// run is recorded as a [`RunTrace`] and then replayed through `acc` in
/// one pass. The accumulator is the same either way, so it ends holding
/// the same scores to the bit; the mode only decides whether a trace is
/// kept while scoring.
pub fn try_eval_fluid<A: Accumulator + StepSink>(
    scenario: Scenario,
    acc: &mut A,
    mode: EvalMode,
) -> Result<(), ScenarioError> {
    match mode {
        EvalMode::Streaming => try_run_scenario_streaming_into(scenario, acc),
        EvalMode::Traced => {
            let trace = try_run_scenario(scenario)?;
            acc.reset();
            acc.push_steps(&trace.columns());
            Ok(())
        }
    }
}

/// [`try_eval_fluid`] for scenarios built from validated experiment
/// constants.
///
/// # Panics
///
/// Panics on an invalid scenario or a numerically divergent run.
pub fn eval_fluid<A: Accumulator + StepSink>(scenario: Scenario, acc: &mut A, mode: EvalMode) {
    // tidy-allow: panic-freedom — documented panicking façade over try_eval_fluid; fallible callers use the try_ path
    try_eval_fluid(scenario, acc, mode).unwrap_or_else(|e| panic!("{e}"));
}

/// [`eval_fluid`] into a fresh [`MetricAccumulator`] built for
/// `scenario` with `options`.
///
/// # Panics
///
/// Panics on an invalid scenario or a numerically divergent run.
pub fn eval_metrics(
    scenario: Scenario,
    options: &StreamOptions,
    mode: EvalMode,
) -> MetricAccumulator {
    let mut acc = metric_accumulator_for(&scenario, options);
    eval_fluid(scenario, &mut acc, mode);
    acc
}

/// Configuration of a homogeneous ("all senders employ P") sweep.
#[derive(Debug, Clone)]
pub struct SweepConfig {
    /// The bottleneck link.
    pub link: LinkParams,
    /// Number of senders.
    pub n_senders: usize,
    /// Steps per run (fluid model RTT steps).
    pub steps: usize,
    /// Initial window configurations to sweep (each of length
    /// `n_senders`); the measured score is the worst over these.
    pub initial_configs: Vec<Vec<f64>>,
}

impl SweepConfig {
    /// The default adversarial sweep for a link: uniform 1-MSS start,
    /// near-capacity fair shares, and an 80/20-style skew.
    pub fn standard(link: LinkParams, n_senders: usize, steps: usize) -> Self {
        assert!(n_senders > 0, "sweep needs at least one sender");
        let ct = link.loss_threshold();
        let fair = ct / n_senders as f64;
        let uniform_small = vec![1.0; n_senders];
        let fair_share = vec![fair; n_senders];
        let mut skewed = vec![1.0; n_senders];
        skewed[0] = 0.8 * ct;
        SweepConfig {
            link,
            n_senders,
            steps,
            initial_configs: vec![uniform_small, fair_share, skewed],
        }
    }
}

/// Empirical scores from homogeneous runs (Metrics I–V and VIII).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SoloMetrics {
    /// Metric I (worst over configs).
    pub efficiency: f64,
    /// Metric III (worst over configs).
    pub loss_bound: f64,
    /// Metric IV (worst over configs).
    pub fairness: f64,
    /// Metric V (worst over configs).
    pub convergence: f64,
    /// Metric II (worst over configs; `None` when no run had a long enough
    /// loss-free ascent to judge).
    pub fast_utilization: Option<f64>,
    /// Metric VIII (worst over configs; ∞ when the tail still overflows
    /// the buffer — the loss-based case).
    pub latency_inflation: f64,
    /// Companion statistic: mean utilization over tails (best-effort mean
    /// across configs).
    pub mean_utilization: f64,
}

/// Measure Metrics I–V and VIII for one recorded trace (either backend)
/// by replaying it through a [`MetricSet::SOLO`] accumulator.
pub fn solo_metrics_of_trace(trace: &RunTrace) -> SoloMetrics {
    let options = stream_options_for(MetricSet::SOLO);
    let mut acc = MetricAccumulator::new(&MetricConfig {
        link: trace.link,
        steps: trace.len(),
        loss_based: trace.senders.iter().map(|s| s.loss_based).collect(),
        tail_fraction: options.tail_fraction,
        min_horizon: options.min_horizon,
        escape_beta: options.escape_beta,
        metrics: options.metrics,
    });
    acc.push_steps(&trace.columns());
    solo_metrics_of_acc(&acc)
}

/// Measure Metrics I–V and VIII from an accumulator holding them.
pub fn solo_metrics_of_acc(acc: &MetricAccumulator) -> SoloMetrics {
    let fast = (0..acc.num_senders())
        .filter_map(|i| acc.measured_fast_utilization(i))
        .fold(None, |agg: Option<f64>, v| {
            Some(agg.map_or(v, |a| a.min(v)))
        });
    SoloMetrics {
        efficiency: acc.measured_efficiency(),
        loss_bound: acc.measured_loss_bound(),
        fairness: acc.measured_fairness(),
        convergence: acc.measured_convergence(),
        fast_utilization: fast,
        latency_inflation: acc.measured_latency_inflation(),
        mean_utilization: acc.mean_utilization(),
    }
}

impl axcc_sweep::Cacheable for SoloMetrics {
    fn to_record(&self) -> axcc_sweep::Record {
        let mut r = axcc_sweep::Record::new();
        r.push_f64(self.efficiency);
        r.push_f64(self.loss_bound);
        r.push_f64(self.fairness);
        r.push_f64(self.convergence);
        r.push_opt_f64(self.fast_utilization);
        r.push_f64(self.latency_inflation);
        r.push_f64(self.mean_utilization);
        r
    }
    fn from_record(record: &axcc_sweep::Record) -> Option<Self> {
        let mut rd = record.reader();
        let m = SoloMetrics {
            efficiency: rd.f64()?,
            loss_bound: rd.f64()?,
            fairness: rd.f64()?,
            convergence: rd.f64()?,
            fast_utilization: rd.opt_f64()?,
            latency_inflation: rd.f64()?,
            mean_utilization: rd.f64()?,
        };
        rd.exhausted().then_some(m)
    }
}

impl SoloMetrics {
    /// Per-metric worst of two measurements (the universal-quantifier
    /// aggregation).
    pub fn pointwise_worst(&self, other: &SoloMetrics) -> SoloMetrics {
        SoloMetrics {
            efficiency: self.efficiency.min(other.efficiency),
            loss_bound: self.loss_bound.max(other.loss_bound),
            fairness: self.fairness.min(other.fairness),
            convergence: self.convergence.min(other.convergence),
            fast_utilization: match (self.fast_utilization, other.fast_utilization) {
                (Some(a), Some(b)) => Some(a.min(b)),
                (a, b) => a.or(b),
            },
            latency_inflation: self.latency_inflation.max(other.latency_inflation),
            mean_utilization: (self.mean_utilization + other.mean_utilization) / 2.0,
        }
    }
}

/// Run the homogeneous sweep in the **fluid** model and return the
/// worst-case (guaranteed) solo metrics. All sweep configurations share
/// one scenario shape, so one accumulator serves the whole sweep.
pub fn measure_solo_fluid(proto: &dyn Protocol, cfg: &SweepConfig, mode: EvalMode) -> SoloMetrics {
    let opts = stream_options_for(MetricSet::SOLO);
    let mut acc: Option<MetricAccumulator> = None;
    let mut agg: Option<SoloMetrics> = None;
    for init in &cfg.initial_configs {
        assert_eq!(init.len(), cfg.n_senders, "config arity mismatch");
        let mut sc = Scenario::new(cfg.link).steps(cfg.steps);
        for &w in init {
            sc = sc.sender(SenderConfig::new(proto.clone_box()).initial_window(w));
        }
        let acc = acc.get_or_insert_with(|| metric_accumulator_for(&sc, &opts));
        eval_fluid(sc, acc, mode);
        let m = solo_metrics_of_acc(acc);
        agg = Some(match agg {
            None => m,
            Some(a) => a.pointwise_worst(&m),
        });
    }
    #[allow(clippy::expect_used)] // invariant: SweepConfig always carries configurations
    // tidy-allow: panic-freedom — SweepConfig construction guarantees a non-empty sweep; None is unreachable
    agg.expect("sweep had no configurations")
}

/// Run a homogeneous **packet-level** scenario (all flows start at 1 MSS,
/// as real connections do; flow `i` starts at `i · stagger_secs`, so with a
/// positive stagger the run probes late-joiner convergence — the situation
/// in which MIMD's worst-case unfairness actually shows) and return its
/// solo metrics.
pub fn measure_solo_packet(
    proto: &dyn Protocol,
    link: LinkParams,
    n_senders: usize,
    duration_secs: f64,
    stagger_secs: f64,
    seed: u64,
) -> SoloMetrics {
    let mut sc = PacketScenario::new(link)
        .duration_secs(duration_secs)
        .seed(seed);
    for i in 0..n_senders {
        sc = sc.sender(
            PacketSenderConfig::new(proto.clone_box()).start_at_secs(i as f64 * stagger_secs),
        );
    }
    let out = sc.run();
    debug_assert!(out.conservation_ok());
    solo_metrics_of_trace(&out.trace)
}

/// Measure the friendliness of `p` towards `q` (Metric VII) in the fluid
/// model: `n_p` P-senders and `n_q` Q-senders share the link; the score is
/// the worst over the provided `(p_init, q_init)` initial-window pairs of
/// `min_j avg_j(Q) / max_i avg_i(P)` over the tail.
#[allow(clippy::too_many_arguments)]
pub fn measure_friendliness_fluid(
    p: &dyn Protocol,
    q: &dyn Protocol,
    link: LinkParams,
    n_p: usize,
    n_q: usize,
    steps: usize,
    initial_pairs: &[(f64, f64)],
    mode: EvalMode,
) -> f64 {
    assert!(n_p > 0 && n_q > 0, "friendliness needs both sender sets");
    let opts = stream_options_for(MetricSet::FAIRNESS);
    let p_idx: Vec<usize> = (0..n_p).collect();
    let q_idx: Vec<usize> = (n_p..n_p + n_q).collect();
    let mut acc: Option<MetricAccumulator> = None;
    let mut worst = f64::INFINITY;
    for &(pi, qi) in initial_pairs {
        let mut sc = Scenario::new(link).steps(steps);
        for _ in 0..n_p {
            sc = sc.sender(SenderConfig::new(p.clone_box()).initial_window(pi));
        }
        for _ in 0..n_q {
            sc = sc.sender(SenderConfig::new(q.clone_box()).initial_window(qi));
        }
        let acc = acc.get_or_insert_with(|| metric_accumulator_for(&sc, &opts));
        eval_fluid(sc, acc, mode);
        worst = worst.min(acc.measured_friendliness(&p_idx, &q_idx));
    }
    worst
}

/// Packet-level friendliness: `n_p` P-flows and `n_q` Q-flows, all starting
/// from 1 MSS, measured by tail-average windows.
pub fn measure_friendliness_packet(
    p: &dyn Protocol,
    q: &dyn Protocol,
    link: LinkParams,
    n_p: usize,
    n_q: usize,
    duration_secs: f64,
    seed: u64,
) -> f64 {
    assert!(n_p > 0 && n_q > 0, "friendliness needs both sender sets");
    let mut sc = PacketScenario::new(link)
        .duration_secs(duration_secs)
        .seed(seed);
    for _ in 0..n_p {
        sc = sc.sender(PacketSenderConfig::new(p.clone_box()));
    }
    for _ in 0..n_q {
        sc = sc.sender(PacketSenderConfig::new(q.clone_box()));
    }
    let out = sc.run();
    let tail = out.trace.tail_start(TAIL_FRACTION);
    let p_idx: Vec<usize> = (0..n_p).collect();
    let q_idx: Vec<usize> = (n_p..n_p + n_q).collect();
    friendliness::measured_friendliness(&out.trace, &p_idx, &q_idx, tail)
}

/// Empirically decide the paper's "more aggressive than" relation
/// (Section 4): *"P is more aggressive than Q if for any combination of
/// P- and Q-senders, and initial sending rates, from some point in time
/// onwards, the average goodput of any P-sender is higher than that of
/// any Q-sender."*
///
/// Sweeps a small family of mixes (1v1, 2v1, 1v2) and initial-rate pairs
/// and returns `true` iff **every** P-sender out-earns **every** Q-sender
/// in the tail of every run — the conservative empirical realization of
/// the universal quantifiers (complementing the syntactic sufficient
/// conditions in `axcc_core::theory::aggressiveness`).
pub fn empirically_more_aggressive(
    p: &dyn Protocol,
    q: &dyn Protocol,
    link: LinkParams,
    steps: usize,
    mode: EvalMode,
) -> bool {
    let opts = stream_options_for(MetricSet::FAIRNESS);
    let ct = link.loss_threshold();
    for (n_p, n_q) in [(1usize, 1usize), (2, 1), (1, 2)] {
        for &(pi, qi) in &[(1.0, 1.0), (1.0, 0.8 * ct), (0.8 * ct, 1.0)] {
            let mut sc = Scenario::new(link).steps(steps);
            for _ in 0..n_p {
                sc = sc.sender(SenderConfig::new(p.clone_box()).initial_window(pi));
            }
            for _ in 0..n_q {
                sc = sc.sender(SenderConfig::new(q.clone_box()).initial_window(qi));
            }
            let acc = eval_metrics(sc, &opts, mode);
            let worst_p = (0..n_p)
                .map(|i| acc.tail_mean_goodput(i))
                .fold(f64::INFINITY, f64::min);
            let best_q = (n_p..n_p + n_q)
                .map(|j| acc.tail_mean_goodput(j))
                .fold(0.0, f64::max);
            if worst_p <= best_q {
                return false;
            }
        }
    }
    true
}

/// The default loss-rate grid for robustness sweeps (Metric VI): spans the
/// paper's ε values (0.5%, 0.7%, 1%) plus coarser rates.
pub const ROBUSTNESS_RATES: [f64; 7] = [0.001, 0.002, 0.005, 0.007, 0.009, 0.02, 0.05];

/// Measure robustness (Metric VI): on an effectively infinite-capacity
/// link under constant non-congestion loss, the score is the largest rate
/// in `rates` at which the sender's window still **diverges** (keeps
/// growing at the end of the run — the trace witness that it escapes every
/// finite `β`). Returns 0 when even the smallest rate defeats the
/// protocol.
pub fn measure_robustness_fluid(
    proto: &dyn Protocol,
    rates: &[f64],
    steps: usize,
    mode: EvalMode,
) -> f64 {
    // A link whose capacity exceeds the model's maximum window: congestion
    // loss can never occur.
    let infinite = LinkParams::new(MAX_WINDOW * 100.0, 0.05, MAX_WINDOW);
    let opts = stream_options_for(MetricSet::ROBUSTNESS);
    let mut acc: Option<MetricAccumulator> = None;
    let mut best = 0.0;
    for &rate in rates {
        let sc = Scenario::new(infinite)
            .sender(SenderConfig::new(proto.clone_box()).initial_window(10.0))
            .wire_loss(LossModel::Constant { rate })
            .steps(steps);
        let acc = acc.get_or_insert_with(|| metric_accumulator_for(&sc, &opts));
        eval_fluid(sc, acc, mode);
        // Divergence evidence: clearly escaped the starting window AND
        // either still growing at the end or already pinned at the model's
        // maximum window `M` (aggressive climbers like PCC/BBR saturate
        // the cap long before the run ends, which is the strongest escape
        // a finite trace can witness).
        let escaped = acc.window_escapes(0, 0.2);
        let growing = acc.window_diverging(0, 1e-9);
        let capped = acc.last_window(0) >= 0.9 * MAX_WINDOW;
        if escaped && (growing || capped) {
            best = rate.max(best);
        }
    }
    best
}

/// Convenience: the full empirical 8-tuple for a protocol (fluid backend):
/// solo metrics on `link` with `n` senders, friendliness towards TCP Reno,
/// and the robustness sweep.
pub fn empirical_scores_fluid(
    proto: &dyn Protocol,
    link: LinkParams,
    n_senders: usize,
    steps: usize,
    mode: EvalMode,
) -> axcc_core::AxiomScores {
    let solo = measure_solo_fluid(proto, &SweepConfig::standard(link, n_senders, steps), mode);
    let reno = axcc_protocols::Aimd::reno();
    let ct = link.loss_threshold();
    let pairs = [(1.0, 1.0), (0.8 * ct, 1.0), (1.0, 0.8 * ct)];
    let friendliness = measure_friendliness_fluid(proto, &reno, link, 1, 1, steps, &pairs, mode);
    let robustness = measure_robustness_fluid(proto, &ROBUSTNESS_RATES, steps, mode);
    axcc_core::AxiomScores {
        efficiency: solo.efficiency,
        fast_utilization: solo.fast_utilization.unwrap_or(0.0),
        loss_bound: solo.loss_bound,
        fairness: solo.fairness,
        convergence: solo.convergence,
        robustness,
        tcp_friendliness: friendliness,
        latency_inflation: solo.latency_inflation,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use axcc_protocols::{Aimd, Mimd, RobustAimd, Vegas};

    const STREAM: EvalMode = EvalMode::Streaming;

    /// C = 100 MSS, τ = 20 MSS.
    fn link() -> LinkParams {
        LinkParams::new(1000.0, 0.05, 20.0)
    }

    #[test]
    fn reno_solo_metrics_match_table1_shapes() {
        let m = measure_solo_fluid(
            &Aimd::reno(),
            &SweepConfig::standard(link(), 2, 2000),
            STREAM,
        );
        // Efficiency ≥ worst case b = 0.5, ≤ parameterized 0.5·1.2 = 0.6.
        assert!(m.efficiency >= 0.5 - 0.02, "eff {}", m.efficiency);
        assert!(m.efficiency <= 0.65, "eff {}", m.efficiency);
        // Loss bound small (n·a overshoot over C+τ = 120).
        assert!(m.loss_bound < 0.05, "loss {}", m.loss_bound);
        assert!(m.loss_bound > 0.0);
        // Fair and 2b/(1+b)-convergent-ish.
        assert!(m.fairness > 0.8, "fair {}", m.fairness);
        assert!(m.convergence > 0.5, "conv {}", m.convergence);
        // Fast-utilization ≈ a = 1.
        let f = m.fast_utilization.expect("should have ascents");
        assert!(f > 0.8 && f < 1.5, "fast {f}");
        // Loss-based: unbounded latency score.
        assert!(m.latency_inflation.is_infinite());
    }

    #[test]
    fn mimd_unfair_in_skewed_config() {
        let cfg = SweepConfig::standard(link(), 2, 2000);
        let m = measure_solo_fluid(&Mimd::scalable(), &cfg, STREAM);
        assert!(m.fairness < 0.3, "fair {}", m.fairness);
    }

    #[test]
    fn vegas_latency_bounded_and_zero_loss() {
        let cfg = SweepConfig::standard(link(), 2, 2000);
        let m = measure_solo_fluid(&Vegas::classic(), &cfg, STREAM);
        assert!(m.latency_inflation.is_finite());
        assert!(m.latency_inflation < 0.15, "lat {}", m.latency_inflation);
        assert_eq!(m.loss_bound, 0.0);
    }

    #[test]
    fn reno_friendly_to_itself() {
        let reno = Aimd::reno();
        let pairs = [(1.0, 1.0), (90.0, 1.0)];
        let f = measure_friendliness_fluid(&reno, &reno, link(), 1, 1, 3000, &pairs, STREAM);
        assert!(f > 0.8, "self-friendliness {f}");
    }

    #[test]
    fn aggressive_aimd_less_friendly_than_reno() {
        let reno = Aimd::reno();
        let fast = Aimd::new(4.0, 0.5);
        let pairs = [(1.0, 1.0)];
        let f_fast = measure_friendliness_fluid(&fast, &reno, link(), 1, 1, 3000, &pairs, STREAM);
        let f_self = measure_friendliness_fluid(&reno, &reno, link(), 1, 1, 3000, &pairs, STREAM);
        assert!(f_fast < f_self, "{f_fast} vs {f_self}");
        // Theorem 2 ballpark: 3(1−b)/(a(1+b)) = 0.25.
        assert!(f_fast < 0.5, "{f_fast}");
    }

    #[test]
    fn empirical_aggressiveness_agrees_with_syntactic_rules() {
        use axcc_core::theory::aggressiveness::syntactically_more_aggressive;
        use axcc_core::theory::ProtocolSpec;
        let l = link();
        // Syntactic Some(true) pairs must come out empirically true too.
        let scalable = Aimd::scalable(); // AIMD(1, 0.875)
        let reno = Aimd::reno();
        assert_eq!(
            syntactically_more_aggressive(&ProtocolSpec::SCALABLE_AIMD, &ProtocolSpec::RENO),
            Some(true)
        );
        assert!(empirically_more_aggressive(
            &scalable, &reno, l, 3000, STREAM
        ));
        // MIMD > AIMD.
        assert!(empirically_more_aggressive(
            &Mimd::scalable(),
            &reno,
            l,
            3000,
            STREAM
        ));
        // And the relation is not reflexive-ish: Reno vs Reno fails
        // (goodputs converge, no strict winner).
        assert!(!empirically_more_aggressive(&reno, &reno, l, 3000, STREAM));
    }

    #[test]
    fn robustness_scores_match_design() {
        // Plain AIMD: 0-robust.
        let r = measure_robustness_fluid(&Aimd::reno(), &ROBUSTNESS_RATES, 1500, STREAM);
        assert_eq!(r, 0.0);
        // Robust-AIMD(·,·,0.01): robust up to just below ε = 1%.
        let r = measure_robustness_fluid(&RobustAimd::table2(), &ROBUSTNESS_RATES, 1500, STREAM);
        assert!((r - 0.009).abs() < 1e-12, "robustness {r}");
    }

    #[test]
    fn empirical_scores_assemble() {
        let s = empirical_scores_fluid(&Aimd::reno(), link(), 2, 1500, STREAM);
        assert!(s.efficiency > 0.4);
        assert!(s.tcp_friendliness > 0.7); // Reno vs Reno
        assert_eq!(s.robustness, 0.0);
        assert!(s.latency_inflation.is_infinite());
    }

    #[test]
    fn pointwise_worst_semantics() {
        let a = SoloMetrics {
            efficiency: 0.8,
            loss_bound: 0.02,
            fairness: 1.0,
            convergence: 0.7,
            fast_utilization: Some(1.0),
            latency_inflation: 0.1,
            mean_utilization: 0.9,
        };
        let mut b = a;
        b.efficiency = 0.6;
        b.loss_bound = 0.05;
        b.fast_utilization = None;
        let w = a.pointwise_worst(&b);
        assert_eq!(w.efficiency, 0.6);
        assert_eq!(w.loss_bound, 0.05);
        assert_eq!(w.fast_utilization, Some(1.0));
    }

    /// Every field of a [`SoloMetrics`] as bits.
    fn solo_bits(m: &SoloMetrics) -> [Option<u64>; 7] {
        [
            Some(m.efficiency.to_bits()),
            Some(m.loss_bound.to_bits()),
            Some(m.fairness.to_bits()),
            Some(m.convergence.to_bits()),
            m.fast_utilization.map(f64::to_bits),
            Some(m.latency_inflation.to_bits()),
            Some(m.mean_utilization.to_bits()),
        ]
    }

    #[test]
    fn both_modes_give_identical_solo_metrics() {
        for proto in [
            Box::new(Aimd::reno()) as Box<dyn axcc_core::Protocol>,
            Box::new(Mimd::scalable()),
            Box::new(Vegas::classic()),
        ] {
            let cfg = SweepConfig::standard(link(), 2, 600);
            let traced = measure_solo_fluid(proto.as_ref(), &cfg, EvalMode::Traced);
            let streamed = measure_solo_fluid(proto.as_ref(), &cfg, STREAM);
            assert_eq!(solo_bits(&traced), solo_bits(&streamed));
        }
    }

    #[test]
    fn solo_metrics_of_trace_replays_the_solo_set() {
        // The trace scorer and a streamed SOLO accumulator agree on the
        // same run, including per-sender fast-utilization.
        let build = || {
            Scenario::new(link())
                .homogeneous(&Vegas::classic(), 2, 1.0)
                .steps(700)
        };
        let traced = solo_metrics_of_trace(&build().run());
        let streamed = eval_metrics(build(), &stream_options_for(MetricSet::SOLO), STREAM);
        assert_eq!(
            solo_bits(&traced),
            solo_bits(&solo_metrics_of_acc(&streamed))
        );
    }

    #[test]
    fn both_modes_give_identical_friendliness_robustness_and_aggressiveness() {
        let reno = Aimd::reno();
        let fast = Aimd::new(4.0, 0.5);
        let pairs = [(1.0, 1.0), (90.0, 1.0)];
        let f = |mode| measure_friendliness_fluid(&fast, &reno, link(), 1, 2, 800, &pairs, mode);
        assert_eq!(f(EvalMode::Traced).to_bits(), f(STREAM).to_bits());
        for proto in [
            Box::new(Aimd::reno()) as Box<dyn axcc_core::Protocol>,
            Box::new(RobustAimd::table2()),
        ] {
            let r = |mode| measure_robustness_fluid(proto.as_ref(), &ROBUSTNESS_RATES, 1000, mode);
            assert_eq!(r(EvalMode::Traced).to_bits(), r(STREAM).to_bits());
        }
        let mimd = Mimd::scalable();
        for (p, q) in [
            (
                &mimd as &dyn axcc_core::Protocol,
                &reno as &dyn axcc_core::Protocol,
            ),
            (&reno, &reno),
        ] {
            assert_eq!(
                empirically_more_aggressive(p, q, link(), 800, EvalMode::Traced),
                empirically_more_aggressive(p, q, link(), 800, STREAM),
            );
        }
    }

    #[test]
    fn eval_helper_surfaces_invalid_scenarios_in_both_modes() {
        for mode in [EvalMode::Traced, STREAM] {
            let sc = Scenario::new(link()).steps(100);
            let mut acc = metric_accumulator_for(&sc, &stream_options());
            assert_eq!(
                try_eval_fluid(sc, &mut acc, mode),
                Err(ScenarioError::NoSenders)
            );
        }
    }

    #[test]
    #[should_panic(expected = "config arity")]
    fn config_arity_checked() {
        let cfg = SweepConfig {
            link: link(),
            n_senders: 2,
            steps: 100,
            initial_configs: vec![vec![1.0]],
        };
        measure_solo_fluid(&Aimd::reno(), &cfg, STREAM);
    }
}
