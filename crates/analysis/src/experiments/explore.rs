//! **Parameter-space exploration** — the protocol-design grid the paper's
//! axiomatic lens makes navigable.
//!
//! The paper's core claim is that congestion-control design is a
//! *trade-off space*: no protocol maximizes every metric, and families
//! (AIMD, MIMD, binomial, CUBIC, Robust-AIMD) occupy different regions of
//! it. This experiment maps that space empirically at scale: every
//! implemented parametric family is swept over a dense constructor-space
//! grid, crossed with a log-spaced ladder of non-congestion (Bernoulli
//! wire) loss levels, and each cell is scored with the solo metric bundle
//! ([`SoloMetrics`]: efficiency, loss bound, fairness, convergence, …).
//!
//! At paper scale the grid is **3389 parameter points × 30 loss levels =
//! 101,670 sweep jobs** — the workload the sweep engine's chunked
//! dispatch and sharded result store exist for. One job is one short
//! two-sender fluid run, so the sweep is dominated by dispatch and cache
//! traffic, not simulation: it is the workspace's standing scalability
//! regression test as much as an artifact. Smoke scale subsamples every
//! axis (62 points × 5 levels = 310 jobs) but exercises the same code.
//!
//! The summary is a set of two-dimensional Pareto fronts per (family,
//! loss level): efficiency (maximize) against guaranteed loss (minimize),
//! and efficiency against fairness. Fronts are computed by sort + prefix
//! scan — `O(n log n)` per group, never the quadratic all-pairs
//! dominance check, which matters at 10⁵ cells.
//!
//! Jobs are evaluation-mode aware the same way the rest of the registry
//! is: each run is scored by a
//! [`MetricAccumulator`](axcc_fluidsim::MetricAccumulator), streamed into
//! under the default runner mode and replayed from a recorded trace under
//! `--record-traces`, with bit-identical scores either way.

use crate::estimators::{eval_metrics, solo_metrics_of_acc, stream_options_for, SoloMetrics};
use crate::report::{fmt_score, TextTable};
use axcc_core::fingerprint::{Fingerprint, Fingerprinter};
use axcc_core::{LinkParams, Protocol};
use axcc_fluidsim::{LossModel, MetricSet, Scenario, SenderConfig};
use axcc_protocols::{Aimd, Binomial, Cubic, Mimd, RobustAimd};
use axcc_sweep::{EvalMode, SweepJob, SweepRunner};
use serde::Serialize;

use super::RunBudget;

/// Fluid steps per cell at paper scale. Cells are deliberately short:
/// the experiment's purpose is breadth (10⁵ cells), and the tail window
/// of 400 RTT steps is enough to rank steady-state behavior.
pub const PAPER_STEPS: usize = 400;

/// Fluid steps per cell at smoke scale.
pub const SMOKE_STEPS: usize = 120;

/// The one RNG seed every lossy cell runs under. A single seed per cell
/// keeps the job count equal to the grid size; the loss *ladder* (not
/// seed replication) provides the robustness signal.
pub const EXPLORE_SEED: u64 = 2017;

/// Initial windows of the two homogeneous senders. The asymmetric start
/// makes fairness and convergence informative (a symmetric start would
/// score every protocol as trivially fair).
pub const INITIAL_WINDOWS: [f64; 2] = [1.0, 5.0];

/// Family names in presentation order.
pub const FAMILIES: [&str; 5] = ["AIMD", "MIMD", "BIN", "CUBIC", "R-AIMD"];

/// One constructor-space point of one protocol family. Copyable plain
/// data (not a `Box<dyn Protocol>`): jobs rebuild the protocol inside
/// `run`, so the job list is `Send + Sync` and the fingerprint covers the
/// parameters themselves rather than an index into a side table.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub enum ParamPoint {
    /// AIMD(a, b): additive increase `a`, decrease factor `b`.
    Aimd {
        /// Additive increase (MSS/RTT).
        a: f64,
        /// Multiplicative decrease factor in (0, 1).
        b: f64,
    },
    /// MIMD(a, b): multiplicative increase `a`, decrease factor `b`.
    Mimd {
        /// Multiplicative increase factor (> 1).
        a: f64,
        /// Multiplicative decrease factor in (0, 1).
        b: f64,
    },
    /// BIN(a, b, k, l): the binomial family.
    Bin {
        /// Increase scale (> 0).
        a: f64,
        /// Decrease scale in (0, 1].
        b: f64,
        /// Increase exponent (≥ 0).
        k: f64,
        /// Decrease exponent in [0, 1].
        l: f64,
    },
    /// CUBIC(c, b): scaling factor `c`, decrease factor `b`.
    Cubic {
        /// Cubic scaling factor (> 0).
        c: f64,
        /// Decrease factor in (0, 1).
        b: f64,
    },
    /// Robust-AIMD(a, b, ε): AIMD with loss-tolerance ε.
    RobustAimd {
        /// Additive increase (MSS/RTT).
        a: f64,
        /// Multiplicative decrease factor in (0, 1).
        b: f64,
        /// Tolerated non-congestion loss rate in (0, 1).
        eps: f64,
    },
}

impl ParamPoint {
    /// The family tag (one of [`FAMILIES`]).
    pub fn family(&self) -> &'static str {
        match self {
            ParamPoint::Aimd { .. } => "AIMD",
            ParamPoint::Mimd { .. } => "MIMD",
            ParamPoint::Bin { .. } => "BIN",
            ParamPoint::Cubic { .. } => "CUBIC",
            ParamPoint::RobustAimd { .. } => "R-AIMD",
        }
    }

    /// Construct the protocol this point denotes.
    pub fn build(&self) -> Box<dyn Protocol> {
        match *self {
            ParamPoint::Aimd { a, b } => Box::new(Aimd::new(a, b)),
            ParamPoint::Mimd { a, b } => Box::new(Mimd::new(a, b)),
            ParamPoint::Bin { a, b, k, l } => Box::new(Binomial::new(a, b, k, l)),
            ParamPoint::Cubic { c, b } => Box::new(Cubic::new(c, b)),
            ParamPoint::RobustAimd { a, b, eps } => Box::new(RobustAimd::new(a, b, eps)),
        }
    }

    /// Short human label, e.g. `AIMD(1.00,0.500)`.
    pub fn label(&self) -> String {
        match *self {
            ParamPoint::Aimd { a, b } => format!("AIMD({a:.2},{b:.3})"),
            ParamPoint::Mimd { a, b } => format!("MIMD({a:.3},{b:.3})"),
            ParamPoint::Bin { a, b, k, l } => format!("BIN({a:.2},{b:.2},{k:.2},{l:.2})"),
            ParamPoint::Cubic { c, b } => format!("CUBIC({c:.2},{b:.3})"),
            ParamPoint::RobustAimd { a, b, eps } => format!("R-AIMD({a:.2},{b:.3},{eps:.4})"),
        }
    }
}

impl Fingerprint for ParamPoint {
    fn fingerprint(&self, fp: &mut Fingerprinter) {
        fp.write_str(self.family());
        match *self {
            ParamPoint::Aimd { a, b } | ParamPoint::Mimd { a, b } => {
                fp.write_f64(a);
                fp.write_f64(b);
            }
            ParamPoint::Bin { a, b, k, l } => {
                fp.write_f64(a);
                fp.write_f64(b);
                fp.write_f64(k);
                fp.write_f64(l);
            }
            ParamPoint::Cubic { c, b } => {
                fp.write_f64(c);
                fp.write_f64(b);
            }
            ParamPoint::RobustAimd { a, b, eps } => {
                fp.write_f64(a);
                fp.write_f64(b);
                fp.write_f64(eps);
            }
        }
    }
}

/// Evenly spaced grid points over `[lo, hi]` inclusive.
fn linspace(lo: f64, hi: f64, n: usize) -> Vec<f64> {
    if n <= 1 {
        return vec![lo];
    }
    (0..n)
        .map(|i| lo + (hi - lo) * i as f64 / (n - 1) as f64)
        .collect()
}

/// The full constructor-space grid: 3389 points at paper scale
/// (AIMD 40×25 + MIMD 20×20 + BIN 6×6×5×5 + CUBIC 15×15 + R-AIMD
/// 12×12×6), 62 at smoke scale. Every point satisfies its family's
/// constructor domain, so `build` never panics.
pub fn param_grid(budget: RunBudget) -> Vec<ParamPoint> {
    let mut points = Vec::new();
    if budget.smoke {
        for &a in &[0.5, 1.0, 2.0, 4.0] {
            for &b in &[0.2, 0.4, 0.6, 0.8] {
                points.push(ParamPoint::Aimd { a, b });
            }
        }
        for &a in &[1.01, 1.05, 1.1] {
            for &b in &[0.25, 0.5, 0.875] {
                points.push(ParamPoint::Mimd { a, b });
            }
        }
        for &a in &[1.0, 2.0] {
            for &b in &[0.25, 0.5] {
                for &k in &[0.5, 1.0] {
                    for &l in &[0.0, 1.0] {
                        points.push(ParamPoint::Bin { a, b, k, l });
                    }
                }
            }
        }
        for &c in &[0.4, 1.0, 2.0] {
            for &b in &[0.3, 0.5, 0.8] {
                points.push(ParamPoint::Cubic { c, b });
            }
        }
        for &a in &[0.5, 1.0] {
            for &b in &[0.3, 0.5, 0.8] {
                for &eps in &[0.005, 0.02] {
                    points.push(ParamPoint::RobustAimd { a, b, eps });
                }
            }
        }
        return points;
    }
    for &a in &linspace(0.1, 4.0, 40) {
        for &b in &linspace(0.05, 0.95, 25) {
            points.push(ParamPoint::Aimd { a, b });
        }
    }
    for &a in &linspace(1.005, 1.1, 20) {
        for &b in &linspace(0.05, 0.95, 20) {
            points.push(ParamPoint::Mimd { a, b });
        }
    }
    for &a in &[0.5, 1.0, 1.5, 2.0, 3.0, 4.0] {
        for &b in &[0.1, 0.25, 0.4, 0.55, 0.7, 0.85] {
            for &k in &linspace(0.0, 1.0, 5) {
                for &l in &linspace(0.0, 1.0, 5) {
                    points.push(ParamPoint::Bin { a, b, k, l });
                }
            }
        }
    }
    for &c in &linspace(0.1, 2.9, 15) {
        for &b in &linspace(0.05, 0.95, 15) {
            points.push(ParamPoint::Cubic { c, b });
        }
    }
    for &a in &linspace(0.25, 3.0, 12) {
        for &b in &linspace(0.08, 0.88, 12) {
            for &eps in &[0.0025, 0.005, 0.01, 0.02, 0.04, 0.08] {
                points.push(ParamPoint::RobustAimd { a, b, eps });
            }
        }
    }
    points
}

/// The wire-loss ladder: a clean baseline plus a log-spaced sweep of
/// Bernoulli drop rates from 10⁻⁴ to 10⁻¹ (30 levels at paper scale,
/// 5 at smoke scale).
pub fn loss_levels(budget: RunBudget) -> Vec<f64> {
    if budget.smoke {
        return vec![0.0, 0.001, 0.005, 0.02, 0.05];
    }
    let mut levels = vec![0.0];
    for i in 0..29 {
        levels.push(10f64.powf(-4.0 + 3.0 * i as f64 / 28.0));
    }
    levels
}

/// Total jobs the experiment submits at a budget (`grid × ladder`).
pub fn expected_jobs(budget: RunBudget) -> usize {
    param_grid(budget).len() * loss_levels(budget).len()
}

/// Score one cell: a two-sender homogeneous fluid run on `link` under
/// Bernoulli wire loss at `loss` (clean when 0), evaluated in `mode`.
fn cell_metrics(
    point: &ParamPoint,
    loss: f64,
    link: LinkParams,
    steps: usize,
    mode: EvalMode,
) -> SoloMetrics {
    let proto = point.build();
    let mut sc = Scenario::new(link).steps(steps).seed(EXPLORE_SEED);
    if loss > 0.0 {
        sc = sc.wire_loss(LossModel::Bernoulli { rate: loss });
    }
    for &w in &INITIAL_WINDOWS {
        sc = sc.sender(SenderConfig::new(proto.clone_box()).initial_window(w));
    }
    solo_metrics_of_acc(&eval_metrics(
        sc,
        &stream_options_for(MetricSet::SOLO),
        mode,
    ))
}

/// One cell of the exploration grid: a parameter point at a loss level.
struct ExploreJob {
    point: ParamPoint,
    loss: f64,
    steps: usize,
    link: LinkParams,
    mode: EvalMode,
}

impl Fingerprint for ExploreJob {
    fn fingerprint(&self, fp: &mut Fingerprinter) {
        fp.write_str("explore/cell");
        self.point.fingerprint(fp);
        fp.write_f64(self.loss);
        fp.write_usize(self.steps);
        self.link.fingerprint(fp);
        fp.write_u64(EXPLORE_SEED);
        for &w in &INITIAL_WINDOWS {
            fp.write_f64(w);
        }
        self.mode.fingerprint(fp);
    }
}

impl SweepJob for ExploreJob {
    type Output = SoloMetrics;
    fn run(&self) -> SoloMetrics {
        cell_metrics(&self.point, self.loss, self.link, self.steps, self.mode)
    }
}

/// Indices of the 2D Pareto front of `points` — maximize the first
/// coordinate, minimize the second — by descending sort on the first
/// coordinate and one prefix-minimum scan of the second: `O(n log n)`,
/// vs the all-pairs dominance check's `O(n²)` (prohibitive at the 10⁵
/// cells this experiment produces). Ties on the first coordinate keep
/// only the best second coordinate. Returned indices are ascending.
pub fn front_2d(points: &[(f64, f64)]) -> Vec<usize> {
    let mut order: Vec<usize> = (0..points.len()).collect();
    order.sort_by(|&i, &j| {
        points[j]
            .0
            .total_cmp(&points[i].0)
            .then_with(|| points[i].1.total_cmp(&points[j].1))
    });
    let mut front = Vec::new();
    let mut best_second = f64::INFINITY;
    for &i in &order {
        if points[i].1 < best_second {
            front.push(i);
            best_second = points[i].1;
        }
    }
    front.sort_unstable();
    front
}

/// Pareto summary of one (loss level, family) group.
#[derive(Debug, Clone, Serialize)]
pub struct FrontSummary {
    /// Wire-loss level of the group.
    pub loss: f64,
    /// Protocol family of the group.
    pub family: &'static str,
    /// Parameter points in the group.
    pub points: usize,
    /// Size of the efficiency × loss-bound front (eff ↑, loss ↓).
    pub eff_loss_front: usize,
    /// Size of the efficiency × fairness front (eff ↑, fairness ↑).
    pub eff_fair_front: usize,
    /// Label of the group's efficiency champion.
    pub champion: String,
    /// The champion's efficiency.
    pub best_efficiency: f64,
    /// The champion's guaranteed-loss bound.
    pub champion_loss_bound: f64,
    /// Best fairness anywhere in the group.
    pub best_fairness: f64,
}

/// The rendered outcome of one exploration run.
#[derive(Debug, Clone, Serialize)]
pub struct ExploreReport {
    /// The loss ladder actually swept.
    pub loss_levels: Vec<f64>,
    /// `(family, parameter points)` in [`FAMILIES`] order.
    pub grid_sizes: Vec<(String, usize)>,
    /// Jobs submitted (`grid × ladder`).
    pub jobs: usize,
    /// Jobs the budget promised (`expected_jobs`); `passed` checks they
    /// match, so a silently truncated sweep cannot report success.
    pub expected_jobs: usize,
    /// Per-(level, family) Pareto summaries, level-major, every level.
    pub fronts: Vec<FrontSummary>,
    /// Indices into `loss_levels` shown by `render` (all of them when the
    /// ladder is short; six representatives at paper scale).
    pub rendered_levels: Vec<usize>,
    /// Best efficiency anywhere at the clean (loss = 0) level.
    pub best_clean_efficiency: f64,
    /// Best efficiency anywhere at the heaviest loss level.
    pub best_heavy_efficiency: f64,
}

impl ExploreReport {
    /// The experiment predicate: the sweep ran at full contracted size,
    /// the clean grid contains a genuinely efficient protocol, and the
    /// heaviest impairment did not somehow *improve* the best achievable
    /// efficiency (a sanity check that the loss ladder is actually wired
    /// into the runs).
    pub fn passed(&self) -> bool {
        self.jobs == self.expected_jobs
            && self.best_clean_efficiency >= 0.5
            && self.best_heavy_efficiency <= self.best_clean_efficiency + 1e-9
    }

    /// Render the summary table (representative loss levels only; the
    /// full per-level data stays in `fronts`).
    pub fn render(&self) -> String {
        let mut t = TextTable::new([
            "loss",
            "family",
            "points",
            "eff×loss",
            "eff×fair",
            "champion",
            "eff",
            "loss-bnd",
            "fair",
        ]);
        for &li in &self.rendered_levels {
            for f in self
                .fronts
                .iter()
                .filter(|f| f.loss.to_bits() == self.loss_levels[li].to_bits())
            {
                t.row([
                    format!("{:.4}", f.loss),
                    f.family.to_string(),
                    f.points.to_string(),
                    f.eff_loss_front.to_string(),
                    f.eff_fair_front.to_string(),
                    f.champion.clone(),
                    fmt_score(f.best_efficiency),
                    fmt_score(f.champion_loss_bound),
                    fmt_score(f.best_fairness),
                ]);
            }
        }
        let grids: Vec<String> = self
            .grid_sizes
            .iter()
            .map(|(f, n)| format!("{f}:{n}"))
            .collect();
        format!(
            "Parameter-space exploration — {} parameter points ({}) × {} loss levels\n\
             = {} jobs. Pareto fronts per (family, loss level) by sort+scan:\n\
             eff×loss maximizes efficiency against the guaranteed-loss bound,\n\
             eff×fair against fairness. Showing {} of {} loss levels.\n\n{}\n\
             best clean efficiency {} | best at loss {:.4}: {}\n",
            self.grid_sizes.iter().map(|(_, n)| n).sum::<usize>(),
            grids.join(" "),
            self.loss_levels.len(),
            self.jobs,
            self.rendered_levels.len(),
            self.loss_levels.len(),
            t.render(),
            fmt_score(self.best_clean_efficiency),
            self.loss_levels.last().copied().unwrap_or(0.0),
            fmt_score(self.best_heavy_efficiency),
        )
    }
}

/// Run the exploration serially (tests, `gen_*`-style use).
pub fn run_explore(budget: RunBudget) -> ExploreReport {
    run_explore_with(&SweepRunner::serial(), budget)
}

/// Run the exploration through an explicit sweep runner. The job list is
/// level-major (all parameter points at loss level 0, then level 1, …) so
/// chunked dispatch hands each worker a contiguous run of same-cost
/// cells.
pub fn run_explore_with(runner: &SweepRunner, budget: RunBudget) -> ExploreReport {
    let points = param_grid(budget);
    let levels = loss_levels(budget);
    let steps = budget.steps(PAPER_STEPS, SMOKE_STEPS);
    let link = LinkParams::reference();
    let mode = runner.eval_mode();

    let mut jobs = Vec::with_capacity(points.len() * levels.len());
    for &loss in &levels {
        for &point in &points {
            jobs.push(ExploreJob {
                point,
                loss,
                steps,
                link,
                mode,
            });
        }
    }
    let metrics = runner.run_jobs("explore/grid", &jobs);

    let by_family: Vec<(&'static str, Vec<usize>)> = FAMILIES
        .iter()
        .map(|&fam| {
            (
                fam,
                points
                    .iter()
                    .enumerate()
                    .filter(|(_, p)| p.family() == fam)
                    .map(|(i, _)| i)
                    .collect(),
            )
        })
        .collect();

    let mut fronts = Vec::new();
    let mut best_clean = f64::NEG_INFINITY;
    let mut best_heavy = f64::NEG_INFINITY;
    for (li, &loss) in levels.iter().enumerate() {
        let cells = &metrics[li * points.len()..(li + 1) * points.len()];
        let mut level_best = f64::NEG_INFINITY;
        for (family, idxs) in &by_family {
            let eff_loss: Vec<(f64, f64)> = idxs
                .iter()
                .map(|&i| (cells[i].efficiency, cells[i].loss_bound))
                .collect();
            let eff_fair: Vec<(f64, f64)> = idxs
                .iter()
                .map(|&i| (cells[i].efficiency, -cells[i].fairness))
                .collect();
            let champ = idxs
                .iter()
                .copied()
                .max_by(|&a, &b| cells[a].efficiency.total_cmp(&cells[b].efficiency))
                .unwrap_or(0);
            let best_fairness = idxs
                .iter()
                .map(|&i| cells[i].fairness)
                .fold(f64::NEG_INFINITY, f64::max);
            level_best = level_best.max(cells[champ].efficiency);
            fronts.push(FrontSummary {
                loss,
                family,
                points: idxs.len(),
                eff_loss_front: front_2d(&eff_loss).len(),
                eff_fair_front: front_2d(&eff_fair).len(),
                champion: points[champ].label(),
                best_efficiency: cells[champ].efficiency,
                champion_loss_bound: cells[champ].loss_bound,
                best_fairness,
            });
        }
        if li == 0 {
            best_clean = level_best;
        }
        if li == levels.len() - 1 {
            best_heavy = level_best;
        }
    }

    let rendered_levels: Vec<usize> = if levels.len() <= 6 {
        (0..levels.len()).collect()
    } else {
        let n = levels.len();
        vec![0, n / 5, 2 * n / 5, 3 * n / 5, 4 * n / 5, n - 1]
    };

    ExploreReport {
        grid_sizes: by_family
            .iter()
            .map(|(f, idxs)| (f.to_string(), idxs.len()))
            .collect(),
        jobs: jobs.len(),
        expected_jobs: points.len() * levels.len(),
        loss_levels: levels,
        fronts,
        rendered_levels,
        best_clean_efficiency: best_clean,
        best_heavy_efficiency: best_heavy,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_grid_reaches_contract_scale() {
        let b = RunBudget::paper();
        let points = param_grid(b);
        assert_eq!(points.len(), 3389, "constructor-space grid size");
        assert_eq!(loss_levels(b).len(), 30);
        assert_eq!(expected_jobs(b), 101_670);
        assert!(expected_jobs(b) >= 100_000, "the 10^5-job contract");
    }

    #[test]
    fn smoke_grid_is_a_small_cross_section() {
        let b = RunBudget::smoke();
        assert_eq!(param_grid(b).len(), 62);
        assert_eq!(loss_levels(b).len(), 5);
        assert_eq!(expected_jobs(b), 310);
    }

    #[test]
    fn every_paper_grid_point_constructs() {
        // Constructor domains panic on violation; the grid must stay
        // inside them for all 3389 points.
        for p in param_grid(RunBudget::paper()) {
            let proto = p.build();
            assert!(!proto.name().is_empty());
            assert!(!p.label().is_empty());
        }
    }

    #[test]
    fn loss_ladder_is_sorted_and_in_domain() {
        for b in [RunBudget::paper(), RunBudget::smoke()] {
            let levels = loss_levels(b);
            assert_eq!(levels[0], 0.0, "clean baseline first");
            for w in levels.windows(2) {
                assert!(w[0] < w[1], "ladder must strictly increase");
            }
            assert!(levels.iter().all(|&r| (0.0..1.0).contains(&r)));
        }
    }

    #[test]
    fn front_2d_matches_the_naive_quadratic_check() {
        // Maximize x, minimize y.
        let pts = [
            (1.0, 5.0),
            (2.0, 4.0),
            (2.0, 6.0),
            (3.0, 4.0), // dominates (2.0, 4.0)
            (0.5, 0.5),
            (3.0, 4.0), // duplicate of a front point
        ];
        let fast = front_2d(&pts);
        // Naive: i is on the front iff no j strictly dominates it and no
        // earlier tie-equal point was already kept.
        for &i in &fast {
            for (j, q) in pts.iter().enumerate() {
                if j == i {
                    continue;
                }
                let dominates = q.0.total_cmp(&pts[i].0).is_ge()
                    && q.1.total_cmp(&pts[i].1).is_le()
                    && (q.0.total_cmp(&pts[i].0).is_gt() || q.1.total_cmp(&pts[i].1).is_lt());
                assert!(!dominates, "front point {i} dominated by {j}");
            }
        }
        assert!(fast.contains(&4), "(0.5, 0.5) is undominated");
        assert!(
            fast.contains(&3) ^ fast.contains(&5),
            "exactly one of the duplicate champions survives"
        );
        assert!(!fast.contains(&1), "(2,4) is dominated by (3,4)");
        assert!(front_2d(&[]).is_empty());
        // NaN scores order deterministically under total_cmp (positive
        // NaN sorts above +inf) instead of poisoning the scan.
        let with_nan = front_2d(&[(f64::NAN, 1.0), (1.0, 0.0)]);
        assert_eq!(with_nan, vec![0, 1]);
    }

    #[test]
    fn streaming_and_traced_cells_are_bit_identical() {
        let point = ParamPoint::Aimd { a: 1.0, b: 0.5 };
        let link = LinkParams::reference();
        for loss in [0.0, 0.02] {
            let t = cell_metrics(&point, loss, link, SMOKE_STEPS, EvalMode::Traced);
            let s = cell_metrics(&point, loss, link, SMOKE_STEPS, EvalMode::Streaming);
            assert_eq!(
                t.efficiency.to_bits(),
                s.efficiency.to_bits(),
                "efficiency diverged at loss {loss}"
            );
            assert_eq!(t.loss_bound.to_bits(), s.loss_bound.to_bits());
            assert_eq!(t.fairness.to_bits(), s.fairness.to_bits());
            assert_eq!(t.convergence.to_bits(), s.convergence.to_bits());
        }
    }

    #[test]
    fn smoke_run_is_deterministic_and_passes() {
        let first = run_explore(RunBudget::smoke());
        assert!(first.passed(), "{}", first.render());
        assert_eq!(first.jobs, 310);
        assert_eq!(
            first.fronts.len(),
            FAMILIES.len() * first.loss_levels.len(),
            "one summary per (family, level)"
        );
        let txt = first.render();
        for fam in FAMILIES {
            assert!(txt.contains(fam), "{txt}");
        }
        let second = run_explore(RunBudget::smoke());
        assert_eq!(txt, second.render(), "explore must be deterministic");
    }

    #[test]
    fn warm_cache_answers_a_repeat_run() {
        let runner = SweepRunner::serial();
        let first = run_explore_with(&runner, RunBudget::smoke());
        let executed = runner.stats().executed;
        assert_eq!(executed, first.jobs as u64);
        let second = run_explore_with(&runner, RunBudget::smoke());
        assert_eq!(
            runner.stats().executed,
            executed,
            "repeat must be fully cached"
        );
        assert_eq!(first.render(), second.render());
    }
}
