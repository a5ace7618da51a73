//! Non-congestion ("wire") loss injection.
//!
//! Metric VI quantifies robustness against *"constant random packet loss
//! rate of at most α"* on a link of infinite capacity — loss that does not
//! signal congestion (wireless corruption, shallow-buffered middleboxes,
//! etc.; the scenario PCC's authors use to motivate that protocol).
//!
//! The fluid model carries loss as a per-step *rate*, so wire loss composes
//! with congestion loss independently:
//!
//! ```text
//! L_eff = 1 − (1 − L_congestion) · (1 − L_wire)
//! ```
//!
//! Three wire-loss models are provided:
//!
//! * [`LossModel::Constant`] — every step experiences exactly the given
//!   rate; this is the literal reading of the axiom and is fully
//!   deterministic.
//! * [`LossModel::Bernoulli`] — each step's loss fraction is sampled as
//!   `k/⌈w⌉` with `k ~ Binomial(⌈w⌉, rate)`: the packet-level reality the
//!   rate abstracts. Small windows then see *bursty* loss (often 0,
//!   occasionally ≥ 1 packet), which is exactly what breaks TCP in
//!   practice and makes the robustness experiments more faithful. The
//!   count is drawn exactly at every window size by geometric gap
//!   skipping, and each sender's gap to its next drop carries over from
//!   one step to the next: a step that ends before the gap does costs one
//!   compare, and a run draws one uniform per sender plus one per dropped
//!   packet (per surviving packet when the rate is above ½), not one per
//!   sender-step.
//! * [`LossModel::GilbertElliott`] — a two-state Markov chain per sender:
//!   a mostly-clean *good* state and a lossy *bad* state with geometric
//!   sojourn times. This is the classic model of *correlated* loss
//!   (wireless fades, microwave links, interference bursts) and the
//!   substrate of the adverse-network gauntlet: uniform and bursty models
//!   share a mean rate but stress protocols very differently.
//!
//! Gilbert–Elliott and Bernoulli are both *stateful* — a chain's state,
//! a sender's residual drop gap — so sampling goes through
//! [`LossProcess`], which owns that state per sender. The carried gap is
//! exact because per-packet drops are i.i.d. over the whole run: the gap
//! is memoryless, so each step's count is still Binomial(⌈w⌉, rate) and
//! independent of every other step's. [`sample_loss_fraction`] is the
//! per-call sampler for rates that change every step (per-packet
//! congestion feedback): it starts from a fresh gap each call.

use rand::Rng;
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};

/// A non-congestion loss model applied per sender per time step.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum LossModel {
    /// No wire loss (the paper's deterministic core model).
    None,
    /// Constant loss rate each step — the literal Metric VI scenario.
    Constant {
        /// The loss rate applied every step, in `[0, 1)`.
        rate: f64,
    },
    /// Per-packet Bernoulli loss: the step's loss fraction is
    /// `k / ⌈w⌉` with `k ~ Binomial(⌈w⌉, rate)`.
    Bernoulli {
        /// Per-packet drop probability, in `[0, 1)`.
        rate: f64,
    },
    /// Two-state Markov (Gilbert–Elliott) bursty loss. Each sender carries
    /// its own chain; per step the chain's current state emits its loss
    /// rate, then transitions.
    GilbertElliott {
        /// P(good → bad) per step, in `[0, 1]`.
        p_enter: f64,
        /// P(bad → good) per step, in `(0, 1]`. Mean burst length is
        /// `1/p_exit` steps.
        p_exit: f64,
        /// Loss rate emitted in the good state, in `[0, 1)` (usually 0).
        loss_good: f64,
        /// Loss rate emitted in the bad state, in `[0, 1)`.
        loss_bad: f64,
    },
}

impl LossModel {
    /// A Gilbert–Elliott model parameterized the way experiments think
    /// about it: a long-run `mean_rate`, a mean burst length of
    /// `burst_len` steps, and a bad-state loss rate `loss_bad`
    /// (good state is clean).
    ///
    /// Solving the stationary distribution `π_bad = p_enter/(p_enter+p_exit)`:
    /// `π_bad = mean_rate/loss_bad`, `p_exit = 1/burst_len`, and
    /// `p_enter = π_bad·p_exit/(1−π_bad)`.
    ///
    /// With `burst_len = 1` the chain has no memory beyond a single step —
    /// the closest GE analogue of uniform loss — so sweeping `burst_len`
    /// at fixed `mean_rate` isolates *burstiness* as the experimental
    /// variable.
    pub fn bursty(mean_rate: f64, burst_len: f64, loss_bad: f64) -> Self {
        let pi_bad = if loss_bad > 0.0 {
            mean_rate / loss_bad
        } else {
            f64::NAN
        };
        let p_exit = if burst_len > 0.0 {
            1.0 / burst_len
        } else {
            f64::NAN
        };
        let p_enter = pi_bad * p_exit / (1.0 - pi_bad);
        LossModel::GilbertElliott {
            p_enter,
            p_exit,
            loss_good: 0.0,
            loss_bad,
        }
    }

    /// The model's long-run mean rate (0 for [`LossModel::None`]).
    pub fn nominal_rate(&self) -> f64 {
        match *self {
            LossModel::None => 0.0,
            LossModel::Constant { rate } | LossModel::Bernoulli { rate } => rate,
            LossModel::GilbertElliott {
                p_enter,
                p_exit,
                loss_good,
                loss_bad,
            } => {
                let pi_bad = p_enter / (p_enter + p_exit);
                pi_bad * loss_bad + (1.0 - pi_bad) * loss_good
            }
        }
    }

    /// Validate the model's parameters.
    pub fn validate(&self) -> Result<(), String> {
        let rate_ok = |r: f64| (0.0..1.0).contains(&r);
        match *self {
            LossModel::None => Ok(()),
            LossModel::Constant { rate } | LossModel::Bernoulli { rate } => {
                if rate_ok(rate) {
                    Ok(())
                } else {
                    Err(format!("wire loss rate {rate} outside [0,1)"))
                }
            }
            LossModel::GilbertElliott {
                p_enter,
                p_exit,
                loss_good,
                loss_bad,
            } => {
                if !(0.0..=1.0).contains(&p_enter) || !p_enter.is_finite() {
                    return Err(format!("Gilbert-Elliott p_enter {p_enter} outside [0,1]"));
                }
                if !(p_exit > 0.0 && p_exit <= 1.0) {
                    return Err(format!("Gilbert-Elliott p_exit {p_exit} outside (0,1]"));
                }
                if !rate_ok(loss_good) {
                    return Err(format!(
                        "Gilbert-Elliott loss_good {loss_good} outside [0,1)"
                    ));
                }
                if !rate_ok(loss_bad) {
                    return Err(format!("Gilbert-Elliott loss_bad {loss_bad} outside [0,1)"));
                }
                Ok(())
            }
        }
    }
}

/// The runtime sampler for a [`LossModel`]: the model's per-run state.
///
/// * `None`, `Constant` and a zero Bernoulli rate never draw.
/// * `Bernoulli` keeps one residual drop gap per sender: the common
///   outcomes (survivals when `rate ≤ ½`, drops otherwise) left before
///   that sender's next rare one. The gap is memoryless (see the module
///   docs), so each step's count is still exactly Binomial(⌈w⌉, rate)
///   and independent across steps. A step whose ⌈w⌉ packets fit inside
///   the gap costs a compare and a subtraction; a run draws one uniform
///   per sender plus one per rare outcome. A window of 0 (an idle or
///   departed sender) leaves the gap untouched.
/// * Gilbert–Elliott keeps one chain per sender (all start in the good
///   state) and draws exactly one transition uniform per sampled step.
#[derive(Debug, Clone)]
pub struct LossProcess {
    state: ProcessState,
}

/// [`LossProcess`]'s state, one variant per model so each model's step
/// reads only its own fields.
#[derive(Debug, Clone)]
enum ProcessState {
    /// No wire loss: `None`, or a zero Bernoulli rate.
    Off,
    Constant(f64),
    Bernoulli(CarriedDrops),
    GilbertElliott {
        p_enter: f64,
        p_exit: f64,
        loss_good: f64,
        loss_bad: f64,
        /// Per-sender "currently in bad state" flags.
        in_bad: Vec<bool>,
    },
}

impl LossProcess {
    /// A process for `model` serving `n_senders` independent senders.
    pub fn new(model: LossModel, n_senders: usize) -> Self {
        let state = match model {
            LossModel::None => ProcessState::Off,
            LossModel::Constant { rate } => ProcessState::Constant(rate),
            LossModel::Bernoulli { rate } if rate > 0.0 => ProcessState::Bernoulli(CarriedDrops {
                drops: PacketDrops::new(rate),
                gaps: vec![UNDRAWN; n_senders],
            }),
            LossModel::Bernoulli { .. } => ProcessState::Off,
            LossModel::GilbertElliott {
                p_enter,
                p_exit,
                loss_good,
                loss_bad,
            } => ProcessState::GilbertElliott {
                p_enter,
                p_exit,
                loss_good,
                loss_bad,
                in_bad: vec![false; n_senders],
            },
        };
        LossProcess { state }
    }

    /// The wire-loss fraction sender `sender` with window `window`
    /// experiences this step.
    pub fn sample<R: Rng + ?Sized>(&mut self, rng: &mut R, sender: usize, window: f64) -> f64 {
        match self.state {
            ProcessState::Off => 0.0,
            ProcessState::Constant(rate) => rate,
            ProcessState::Bernoulli(ref mut carried) => carried.loss_fraction(rng, sender, window),
            ProcessState::GilbertElliott {
                p_enter,
                p_exit,
                loss_good,
                loss_bad,
                ref mut in_bad,
            } => {
                let bad = in_bad[sender];
                let emitted = if bad { loss_bad } else { loss_good };
                let u = rng.gen::<f64>();
                in_bad[sender] = if bad { u >= p_exit } else { u < p_enter };
                emitted
            }
        }
    }
}

/// The Bernoulli model's per-run state: the rate's drop sampler and each
/// sender's residual gap ([`UNDRAWN`] until its first draw).
#[derive(Debug, Clone)]
struct CarriedDrops {
    drops: PacketDrops,
    gaps: Vec<u64>,
}

impl CarriedDrops {
    /// Sender `sender`'s loss fraction for a `window`-MSS step, continuing
    /// from the gap its previous steps left.
    ///
    /// Out of line, gap lookup included: the step loop inlines
    /// [`LossProcess::sample`], and inlining any of the Bernoulli work
    /// there — even the lookup's bounds check — slowed the
    /// Gilbert–Elliott gauntlet runs, which never call it, by 9–15%.
    #[inline(never)]
    fn loss_fraction<R: Rng + ?Sized>(&mut self, rng: &mut R, sender: usize, window: f64) -> f64 {
        self.drops
            .loss_fraction(rng, &mut self.gaps[sender], window)
    }
}

/// Compose congestion loss and wire loss as independent drop processes.
///
/// The model's loss rates are strictly below 1 (`1 − (C+τ)/X` and the
/// samplers both are), but composing two near-1 rates can *round* to
/// exactly 1.0 in `f64`; the result is clamped back under 1 so traces
/// always satisfy the `L ∈ [0, 1)` invariant.
pub fn compose_loss(congestion: f64, wire: f64) -> f64 {
    compose_path_loss(1.0 - congestion, wire)
}

/// [`compose_loss`] from a congestion *survival* probability `keep`: the
/// loss of a sender whose packets survive congestion with probability
/// `keep` — `Π_{l ∈ path} (1 − L_l)` on a multi-link path, `1 − L` on a
/// single link — and are then dropped on the wire at rate `wire`.
pub(crate) fn compose_path_loss(keep: f64, wire: f64) -> f64 {
    (1.0 - keep * (1.0 - wire)).min(1.0 - f64::EPSILON)
}

/// Sample the loss *fraction* a window of `window` MSS experiences when
/// each of its packets is dropped independently with probability `rate`:
/// `k/⌈window⌉` with `k ~ Binomial(⌈window⌉, rate)`, drawn exactly at
/// every window size with one uniform per rare outcome plus one (see
/// [`PacketDrops`]).
///
/// The per-call sampler: it starts from a fresh gap and discards the
/// residual. The per-packet (unsynchronized) congestion-feedback mode
/// uses it because its rate changes every step; the Bernoulli wire-loss
/// model's fixed rate lets [`LossProcess`] carry each sender's gap
/// across steps instead.
///
/// Out of line for the same reason as the carried sampler: the step loop
/// calls it from its per-packet feedback branch.
#[inline(never)]
pub fn sample_loss_fraction(rng: &mut ChaCha8Rng, window: f64, rate: f64) -> f64 {
    if rate <= 0.0 {
        return 0.0;
    }
    let mut gap = UNDRAWN;
    PacketDrops::new(rate).loss_fraction(rng, &mut gap, window)
}

/// A residual gap that has not been drawn yet: [`PacketDrops::loss_fraction`]
/// draws a fresh one first. A drawn gap that saturates to this value is
/// redrawn, which the geometric law's memorylessness makes harmless.
const UNDRAWN: u64 = u64::MAX;

/// Exact Binomial(n, p) drop counts by geometric gap skipping.
///
/// Between two occurrences of the rarer outcome — a drop when `p ≤ ½`, a
/// survival otherwise — the number of the other outcome is geometric:
/// with `r = min(p, 1 − p)` and `U` uniform on `(0, 1]`,
/// `⌊ln U / ln(1 − r)⌋` has `P(≥ g) = (1 − r)^g`. Walking gaps through
/// `n` packets counts the rare outcomes among them, a Binomial(n, r)
/// variate, in one uniform per rare outcome: expected `n·min(p, 1 − p)`
/// draws, plus one for a fresh gap. For `p > ½` the drops are `n` minus
/// the counted survivors.
///
/// The gap left over past the `n`-th packet is again geometric and
/// independent of the count (memorylessness), so a caller may keep it as
/// the next window's starting gap instead of drawing a fresh one.
#[derive(Debug, Clone, Copy)]
struct PacketDrops {
    /// `ln(1 − r)` for the rarer outcome's probability `r`; negative.
    ln_q: f64,
    /// Whether the rarer outcome is survival (`p > ½`).
    count_survivors: bool,
}

impl PacketDrops {
    /// The sampler for drop probability `p > 0` (clamped below 1).
    fn new(p: f64) -> Self {
        let p = p.min(1.0 - f64::EPSILON);
        let count_survivors = p > 0.5;
        // Exact: `1 − p` has no rounding error for `p ∈ [½, 1]`.
        let rare = if count_survivors { 1.0 - p } else { p };
        PacketDrops {
            ln_q: (-rare).ln_1p(),
            count_survivors,
        }
    }

    /// `k/⌈window⌉` for `k` drops among the next `⌈window⌉` packets of
    /// the sender whose residual gap is `gap`, kept below 1. A window of
    /// 0 draws nothing and leaves `gap` untouched.
    fn loss_fraction<R: Rng + ?Sized>(&self, rng: &mut R, gap: &mut u64, window: f64) -> f64 {
        if window <= 0.0 {
            return 0.0;
        }
        let n = window.ceil() as u64;
        if *gap == UNDRAWN {
            *gap = self.gap(rng);
        }
        let k = self.drops_among(rng, gap, n);
        (k as f64 / n as f64).min(1.0 - f64::EPSILON)
    }

    /// Draw the number of drops among `n` packets from a fresh gap.
    #[cfg(test)]
    fn sample_binomial<R: Rng + ?Sized>(&self, rng: &mut R, n: u64) -> u64 {
        let mut gap = self.gap(rng);
        self.drops_among(rng, &mut gap, n)
    }

    /// The number of drops among the next `n` packets when `gap` common
    /// outcomes come before the next rare one; leaves in `gap` what
    /// remains of the last gap past the `n`-th packet.
    fn drops_among<R: Rng + ?Sized>(&self, rng: &mut R, gap: &mut u64, n: u64) -> u64 {
        let mut rare = 0;
        let mut left = n;
        let mut g = *gap;
        while g < left {
            left -= g + 1;
            rare += 1;
            g = self.gap(rng);
        }
        *gap = g - left;
        if self.count_survivors {
            n - rare
        } else {
            rare
        }
    }

    /// A fresh geometric gap: common outcomes before the next rare one.
    fn gap<R: Rng + ?Sized>(&self, rng: &mut R) -> u64 {
        // `gen` is uniform on [0, 1), so `u` is uniform on (0, 1] and the
        // gap is finite and non-negative; `as` floors it and saturates an
        // overflowing one, which outlasts any run.
        let u = 1.0 - rng.gen::<f64>();
        (u.ln() / self.ln_q) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{RngCore, SeedableRng};

    fn rng(seed: u64) -> ChaCha8Rng {
        ChaCha8Rng::seed_from_u64(seed)
    }

    fn one(model: LossModel, r: &mut ChaCha8Rng, window: f64) -> f64 {
        LossProcess::new(model, 1).sample(r, 0, window)
    }

    #[test]
    fn none_is_zero() {
        let mut r = rng(1);
        assert_eq!(one(LossModel::None, &mut r, 100.0), 0.0);
        assert_eq!(LossModel::None.nominal_rate(), 0.0);
    }

    #[test]
    fn constant_is_exact() {
        let mut r = rng(1);
        let m = LossModel::Constant { rate: 0.01 };
        for w in [0.5, 1.0, 100.0, 1e6] {
            assert_eq!(one(m, &mut r, w), 0.01);
        }
    }

    #[test]
    fn bernoulli_mean_converges_to_rate() {
        let mut r = rng(42);
        let mut p = LossProcess::new(LossModel::Bernoulli { rate: 0.05 }, 1);
        let trials = 4000;
        let mean: f64 =
            (0..trials).map(|_| p.sample(&mut r, 0, 100.0)).sum::<f64>() / trials as f64;
        assert!((mean - 0.05).abs() < 0.005, "mean {mean}");
    }

    #[test]
    fn bernoulli_large_sparse_window_has_the_exact_tails() {
        // Regression: windows above 1024 packets used to draw from a
        // rounded normal, which gave P(k=0) ≈ 0.75 and P(k≥2) ≈ 0.002
        // here. Exact: P(k=0) = 0.9999²⁰⁰⁰ ≈ 0.8187, P(k≥2) ≈ 0.0175.
        let mut r = rng(7);
        let mut p = LossProcess::new(LossModel::Bernoulli { rate: 1e-4 }, 1);
        let trials = 200_000;
        let (mut zero, mut two_plus) = (0u32, 0u32);
        for _ in 0..trials {
            let k = (p.sample(&mut r, 0, 2000.0) * 2000.0).round();
            if k == 0.0 {
                zero += 1;
            } else if k >= 2.0 {
                two_plus += 1;
            }
        }
        let p0 = f64::from(zero) / f64::from(trials);
        let p2 = f64::from(two_plus) / f64::from(trials);
        assert!((p0 - 0.8187).abs() < 0.004, "P(k=0) = {p0}");
        assert!((p2 - 0.0175).abs() < 0.002, "P(k>=2) = {p2}");
    }

    /// `ln P(K = k)` for `K ~ Binomial(n, p)`, `k = 0..=n`, by the pmf's
    /// ratio recurrence in log space (no term underflows).
    fn binomial_log_pmf(n: u64, p: f64) -> Vec<f64> {
        let log_odds = p.ln() - (-p).ln_1p();
        let mut log_pk = n as f64 * (-p).ln_1p();
        let mut out = Vec::with_capacity(n as usize + 1);
        for k in 0..=n {
            out.push(log_pk);
            log_pk += ((n - k) as f64 / (k + 1) as f64).ln() + log_odds;
        }
        out
    }

    /// Pearson's statistic of `counts` against `trials` draws from the
    /// pmf `exp(log_pmf)`, with adjacent outcomes pooled until every bin
    /// expects at least 5; returns the statistic and its degrees of
    /// freedom.
    fn chi_square(counts: &[u64], log_pmf: &[f64], trials: u64) -> (f64, usize) {
        let mut bins: Vec<(f64, f64)> = Vec::new();
        let (mut expected, mut observed) = (0.0, 0.0);
        for (k, lp) in log_pmf.iter().enumerate() {
            expected += trials as f64 * lp.exp();
            observed += counts[k] as f64;
            if expected >= 5.0 {
                bins.push((expected, observed));
                (expected, observed) = (0.0, 0.0);
            }
        }
        match bins.last_mut() {
            Some(last) => {
                last.0 += expected;
                last.1 += observed;
            }
            None => bins.push((expected, observed)),
        }
        let stat = bins.iter().map(|(e, o)| (o - e) * (o - e) / e).sum();
        (stat, bins.len() - 1)
    }

    #[test]
    fn binomial_counts_fit_the_exact_pmf() {
        // Covers both sides of the old 1024-packet switch, the large-n,
        // n·p < 10 corner, and the survivor-counting side p > ½.
        let ns = [1, 7, 100, 1024, 1025, 2000, 10_000];
        let ps: [f64; 8] = [1e-4, 1e-3, 1e-2, 0.1, 0.3, 0.5, 0.7, 0.99];
        let mut r = rng(2017);
        for n in ns {
            for p in ps {
                // About 3·10⁵ uniforms per cell, at least 500 samples.
                let cost = 1.0 + n as f64 * p.min(1.0 - p);
                let trials = ((3e5 / cost) as u64).clamp(500, 200_000);
                let drops = PacketDrops::new(p);
                let mut counts = vec![0u64; n as usize + 1];
                for _ in 0..trials {
                    counts[drops.sample_binomial(&mut r, n) as usize] += 1;
                }
                let (stat, df) = chi_square(&counts, &binomial_log_pmf(n, p), trials);
                let limit = chi_square_limit(df);
                assert!(
                    stat <= limit,
                    "n={n} p={p}: chi-square {stat:.1} > {limit:.1} on {df} df"
                );
            }
        }
    }

    /// Counts the `u64` words drawn through it.
    struct Counting(ChaCha8Rng, u64);

    impl RngCore for Counting {
        fn next_u64(&mut self) -> u64 {
            self.1 += 1;
            self.0.next_u64()
        }
    }

    #[test]
    fn binomial_draws_scale_with_the_rarer_outcome_not_the_window() {
        let trials = 2000;
        for (n, p) in [
            (1, 0.5),
            (50, 0.05),
            (1000, 1e-3),
            (2000, 1e-4),
            (10_000, 0.99),
        ] {
            let drops = PacketDrops::new(p);
            let mut r = Counting(rng(5), 0);
            for _ in 0..trials {
                drops.sample_binomial(&mut r, n);
            }
            let mean = r.1 as f64 / f64::from(trials);
            let bound = 1.0 + n as f64 * f64::min(p, 1.0 - p);
            assert!(
                mean <= bound * 1.05 + 0.05,
                "n={n} p={p}: {mean} draws per sample, bound {bound}"
            );
        }
    }

    #[test]
    fn bernoulli_zero_window_is_lossless() {
        let mut r = rng(3);
        assert_eq!(one(LossModel::Bernoulli { rate: 0.5 }, &mut r, 0.0), 0.0);
    }

    #[test]
    fn bernoulli_small_window_is_bursty() {
        // With w = 2 and rate 0.05 most steps see zero loss, a few see 50%+.
        let mut r = rng(9);
        let mut p = LossProcess::new(LossModel::Bernoulli { rate: 0.05 }, 1);
        let samples: Vec<f64> = (0..500).map(|_| p.sample(&mut r, 0, 2.0)).collect();
        let zeros = samples.iter().filter(|&&s| s == 0.0).count();
        let bursts = samples.iter().filter(|&&s| s >= 0.5).count();
        assert!(zeros > 400, "zeros {zeros}");
        assert!(bursts > 5, "bursts {bursts}");
    }

    #[test]
    fn sample_never_reaches_one() {
        let mut r = rng(11);
        let mut p = LossProcess::new(LossModel::Bernoulli { rate: 0.99 }, 1);
        for _ in 0..200 {
            assert!(p.sample(&mut r, 0, 3.0) < 1.0);
        }
    }

    #[test]
    fn composition_algebra() {
        assert_eq!(compose_loss(0.0, 0.0), 0.0);
        assert!((compose_loss(0.5, 0.0) - 0.5).abs() < 1e-12);
        assert!((compose_loss(0.0, 0.01) - 0.01).abs() < 1e-12);
        // Independent composition: 1 − 0.9·0.8 = 0.28.
        assert!((compose_loss(0.1, 0.2) - 0.28).abs() < 1e-12);
    }

    #[test]
    fn determinism_per_seed() {
        // Two processes fed one seed and one window sequence — several
        // senders, idle steps, windows on both sides of the gaps — agree
        // bit for bit; another seed gives another realization.
        for rate in [0.1, 0.8] {
            let run = |seed| {
                let mut r = rng(seed);
                let mut p = LossProcess::new(LossModel::Bernoulli { rate }, 3);
                (0..600)
                    .map(|t| p.sample(&mut r, t % 3, [50.0, 0.0, 2.5, 1e3][(t / 3) % 4]))
                    .collect::<Vec<f64>>()
            };
            assert_eq!(run(5), run(5));
            assert_ne!(run(5), run(6));
        }
    }

    /// Wilson–Hilferty upper quantile of chi-square on `df` degrees of
    /// freedom at z = 4 (one-sided p ≈ 3·10⁻⁵).
    fn chi_square_limit(df: usize) -> f64 {
        let d = df.max(1) as f64;
        let h = 2.0 / (9.0 * d);
        d * (1.0 - h + 4.0 * h.sqrt()).powi(3)
    }

    /// The drop count behind a sampled loss fraction of an `n`-packet
    /// window.
    fn count(fraction: f64, n: u64) -> u64 {
        (fraction * n as f64).round() as u64
    }

    /// The residual gap `LossProcess` carries for `sender`.
    fn carried_gap(p: &LossProcess, sender: usize) -> u64 {
        match &p.state {
            ProcessState::Bernoulli(carried) => carried.gaps[sender],
            other => panic!("not a Bernoulli process: {other:?}"),
        }
    }

    #[test]
    fn carried_counts_fit_the_exact_pmf_across_window_changes() {
        // One sender's window alternates tiny and huge, so every tiny
        // step starts from a gap a huge step left over (and vice versa).
        // A wrong carry skews the step right after a change of window.
        let windows: [u64; 6] = [1, 10_000, 2, 1000, 3, 4000];
        for p in [0.01, 0.1, 0.9, 0.99] {
            let rounds = 4000;
            let mut r = rng(2018);
            let mut process = LossProcess::new(LossModel::Bernoulli { rate: p }, 1);
            let mut counts: Vec<Vec<u64>> =
                windows.iter().map(|&n| vec![0; n as usize + 1]).collect();
            for _ in 0..rounds {
                for (slot, &n) in windows.iter().enumerate() {
                    let k = count(process.sample(&mut r, 0, n as f64), n);
                    counts[slot][k as usize] += 1;
                }
            }
            for (slot, &n) in windows.iter().enumerate() {
                let (stat, df) = chi_square(&counts[slot], &binomial_log_pmf(n, p), rounds);
                let limit = chi_square_limit(df);
                assert!(
                    stat <= limit,
                    "p={p} window {n}: chi-square {stat:.1} > {limit:.1} on {df} df"
                );
            }
        }
    }

    /// Pearson's statistic for independence of the rows and columns of a
    /// contingency table, and its degrees of freedom (rows and columns
    /// that saw nothing are left out).
    fn contingency_chi_square(table: &[Vec<u64>]) -> (f64, usize) {
        let rows: Vec<f64> = table
            .iter()
            .map(|row| row.iter().sum::<u64>() as f64)
            .collect();
        let cols: Vec<f64> = (0..table[0].len())
            .map(|j| table.iter().map(|row| row[j]).sum::<u64>() as f64)
            .collect();
        let total: f64 = rows.iter().sum();
        let mut stat = 0.0;
        for (i, row) in table.iter().enumerate() {
            for (j, &observed) in row.iter().enumerate() {
                let expected = rows[i] * cols[j] / total;
                if expected > 0.0 {
                    stat += (observed as f64 - expected).powi(2) / expected;
                }
            }
        }
        let used = |v: &[f64]| v.iter().filter(|&&x| x > 0.0).count() - 1;
        (stat, used(&rows) * used(&cols))
    }

    #[test]
    fn consecutive_carried_counts_are_independent() {
        // Counts of two consecutive 3-packet steps, tabulated jointly: a
        // carry that leaks the first step's count into the second's gap
        // correlates them. Every cell expects ≥ 50 at 50 000 pairs.
        for p in [0.3, 0.7] {
            let mut r = rng(2019);
            let mut process = LossProcess::new(LossModel::Bernoulli { rate: p }, 1);
            let mut table = vec![vec![0u64; 4]; 4];
            for _ in 0..50_000 {
                let first = count(process.sample(&mut r, 0, 3.0), 3);
                let second = count(process.sample(&mut r, 0, 3.0), 3);
                table[first as usize][second as usize] += 1;
            }
            let (stat, df) = contingency_chi_square(&table);
            let limit = chi_square_limit(df);
            assert_eq!(df, 9);
            assert!(
                stat <= limit,
                "p={p}: independence chi-square {stat:.1} > {limit:.1} on {df} df"
            );
        }
    }

    #[test]
    fn a_run_draws_one_uniform_per_sender_and_per_rare_outcome() {
        // Four senders over 5000 steps with windows from 0.5 to 100 MSS;
        // sender 3 is idle (window 0) for a fifth of the run. Draws are
        // bounded by senders + Σ rare outcomes, not by sender-steps.
        let (senders, steps) = (4usize, 5000usize);
        for p in [1e-3, 0.3, 0.9] {
            let mut r = Counting(rng(29), 0);
            let mut process = LossProcess::new(LossModel::Bernoulli { rate: p }, senders);
            let mut rare = 0u64;
            for t in 0..steps {
                for i in 0..senders {
                    let idle = i == 3 && t % 5 == 0;
                    let w = if idle {
                        0.0
                    } else {
                        0.5 * (1 + (7 * t + 13 * i) % 200) as f64
                    };
                    let k = count(process.sample(&mut r, i, w), w.ceil() as u64);
                    rare += if p > 0.5 { w.ceil() as u64 - k } else { k };
                }
            }
            let bound = senders as f64 + 1.05 * rare as f64 + 2.0;
            assert!(
                (r.1 as f64) <= bound,
                "p={p}: {} draws, bound {bound} ({rare} rare outcomes)",
                r.1
            );
            if p < 0.01 {
                assert!(r.1 < (senders * steps / 10) as u64, "p={p}: {} draws", r.1);
            }
        }
    }

    #[test]
    fn an_idle_sender_keeps_its_gap_and_stays_exact_when_it_returns() {
        // Sender 1 sends one 1000-packet step, leaves for 1–4 steps
        // (window 0) while sender 0 keeps drawing, then returns with 3
        // packets. Idle steps draw nothing and leave its gap as it was;
        // the return step's count is exactly Binomial(3, p).
        for p in [0.05, 0.95] {
            let rounds = 6000u64;
            let mut r = Counting(rng(31), 0);
            let mut process = LossProcess::new(LossModel::Bernoulli { rate: p }, 2);
            let mut returns = vec![0u64; 4];
            for round in 0..rounds {
                process.sample(&mut r, 1, 1000.0);
                for _ in 0..=round % 4 {
                    let (gap, draws) = (carried_gap(&process, 1), r.1);
                    assert_eq!(process.sample(&mut r, 1, 0.0), 0.0);
                    assert_eq!((carried_gap(&process, 1), r.1), (gap, draws));
                    process.sample(&mut r, 0, 20.0);
                }
                returns[count(process.sample(&mut r, 1, 3.0), 3) as usize] += 1;
            }
            let (stat, df) = chi_square(&returns, &binomial_log_pmf(3, p), rounds);
            let limit = chi_square_limit(df);
            assert!(
                stat <= limit,
                "p={p}: return-step chi-square {stat:.1} > {limit:.1} on {df} df"
            );
        }
    }

    #[test]
    fn validation() {
        assert!(LossModel::Constant { rate: 0.5 }.validate().is_ok());
        assert!(LossModel::Constant { rate: 1.0 }.validate().is_err());
        assert!(LossModel::Bernoulli { rate: -0.1 }.validate().is_err());
        assert!(LossModel::None.validate().is_ok());
    }

    #[test]
    fn gilbert_elliott_validation() {
        assert!(LossModel::bursty(0.01, 8.0, 0.2).validate().is_ok());
        // Mean rate above loss_bad is unrealizable (π_bad would exceed 1).
        assert!(LossModel::bursty(0.3, 8.0, 0.2).validate().is_err());
        assert!(LossModel::GilbertElliott {
            p_enter: 0.1,
            p_exit: 0.0,
            loss_good: 0.0,
            loss_bad: 0.5
        }
        .validate()
        .is_err());
        assert!(LossModel::GilbertElliott {
            p_enter: -0.1,
            p_exit: 0.5,
            loss_good: 0.0,
            loss_bad: 0.5
        }
        .validate()
        .is_err());
    }

    #[test]
    fn bursty_constructor_hits_requested_mean() {
        for (mean, burst) in [(0.01, 1.0), (0.01, 8.0), (0.05, 16.0)] {
            let m = LossModel::bursty(mean, burst, 0.2);
            m.validate().unwrap();
            assert!(
                (m.nominal_rate() - mean).abs() < 1e-12,
                "nominal {} vs requested {mean}",
                m.nominal_rate()
            );
        }
    }

    #[test]
    fn gilbert_elliott_long_run_rate_matches_stationary() {
        let m = LossModel::bursty(0.02, 8.0, 0.25);
        let mut r = rng(17);
        let mut p = LossProcess::new(m, 1);
        let steps = 200_000;
        let mean: f64 = (0..steps).map(|_| p.sample(&mut r, 0, 100.0)).sum::<f64>() / steps as f64;
        assert!((mean - 0.02).abs() < 0.003, "long-run mean {mean}");
    }

    #[test]
    fn gilbert_elliott_emits_bursts_not_uniform_dust() {
        // With burst_len = 10 the loss arrives in runs of bad-state steps.
        let m = LossModel::bursty(0.02, 10.0, 0.2);
        let mut r = rng(23);
        let mut p = LossProcess::new(m, 1);
        let samples: Vec<f64> = (0..20_000).map(|_| p.sample(&mut r, 0, 50.0)).collect();
        // Count maximal runs of lossy steps and their mean length.
        let mut runs = Vec::new();
        let mut current = 0usize;
        for &s in &samples {
            if s > 0.0 {
                current += 1;
            } else if current > 0 {
                runs.push(current);
                current = 0;
            }
        }
        if current > 0 {
            runs.push(current);
        }
        assert!(!runs.is_empty());
        let mean_run = runs.iter().sum::<usize>() as f64 / runs.len() as f64;
        assert!(
            (mean_run - 10.0).abs() < 2.5,
            "mean burst length {mean_run}, expected ~10"
        );
    }

    #[test]
    fn gilbert_elliott_chains_are_per_sender() {
        // Two senders' chains evolve independently: their loss sequences
        // must differ (each consumes its own transition draws).
        let m = LossModel::bursty(0.05, 5.0, 0.5);
        let mut r = rng(31);
        let mut p = LossProcess::new(m, 2);
        let mut a = Vec::new();
        let mut b = Vec::new();
        for _ in 0..5000 {
            a.push(p.sample(&mut r, 0, 10.0));
            b.push(p.sample(&mut r, 1, 10.0));
        }
        assert_ne!(a, b);
        assert!(a.iter().any(|&x| x > 0.0));
        assert!(b.iter().any(|&x| x > 0.0));
    }
}
