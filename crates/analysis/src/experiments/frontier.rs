//! **Empirical frontier search** — "identify where existing and new
//! congestion control architectures fit within the space of possible
//! outcomes" (the paper's abstract), done by measurement.
//!
//! A candidate pool spanning every family in this repository is scored
//! empirically on a reference link, and the Pareto-maximal subset is
//! extracted in three progressively richer subspaces:
//!
//! 1. the **Figure 1 subspace** (fast-utilization × efficiency ×
//!    TCP-friendliness), where AIMD(α, β) instances should dominate;
//! 2. **+ robustness**, where Robust-AIMD and PCC join the frontier
//!    (the paper's Section 5.2 argument);
//! 3. **all eight metrics**, where the latency-avoiders (Vegas, BBR) and
//!    the smooth equation-based TFRC surface too — every architecture
//!    earns its place on *some* axis, which is the axiomatic framing's
//!    whole point.

use crate::estimators::empirical_scores_fluid;
use crate::pareto::{pareto_front_indices, ScoredPoint, FIGURE1_METRICS};
use crate::report::{fmt_score, TextTable};
use axcc_core::axioms::Metric;
use axcc_core::fingerprint::{Fingerprint, Fingerprinter};
use axcc_core::{LinkParams, Protocol};
use axcc_protocols::{Aimd, Bbr, Binomial, Cubic, HighSpeed, Mimd, Pcc, RobustAimd, Tfrc, Vegas};
use axcc_sweep::{EvalMode, SweepJob, SweepRunner};
use serde::Serialize;

/// The 4-metric subspace: Figure 1's three plus robustness.
pub const ROBUST_METRICS: [Metric; 4] = [
    Metric::FastUtilization,
    Metric::Efficiency,
    Metric::TcpFriendliness,
    Metric::Robustness,
];

/// The candidate pool: a spread over every implemented family.
pub fn candidate_pool() -> Vec<Box<dyn Protocol>> {
    let mut pool: Vec<Box<dyn Protocol>> = Vec::new();
    for (a, b) in [(0.5, 0.5), (1.0, 0.5), (2.0, 0.5), (1.0, 0.7), (1.0, 0.9)] {
        pool.push(Box::new(Aimd::new(a, b)));
    }
    pool.push(Box::new(Mimd::scalable()));
    pool.push(Box::new(Cubic::linux()));
    pool.push(Box::new(Binomial::iiad(1.0, 1.0)));
    pool.push(Box::new(Binomial::sqrt(1.0, 0.5)));
    for eps in [0.005, 0.01, 0.02] {
        pool.push(Box::new(RobustAimd::new(1.0, 0.8, eps)));
    }
    pool.push(Box::new(Pcc::new()));
    pool.push(Box::new(Vegas::classic()));
    pool.push(Box::new(Bbr::new()));
    pool.push(Box::new(Tfrc::new()));
    pool.push(Box::new(HighSpeed::new()));
    pool
}

/// The search result.
#[derive(Debug, Clone, Serialize)]
pub struct FrontierSearch {
    /// Every candidate with its measured scores.
    pub points: Vec<(String, axcc_core::AxiomScores)>,
    /// Frontier labels in the Figure 1 subspace.
    pub frontier_fig1: Vec<String>,
    /// Frontier labels with robustness added.
    pub frontier_robust: Vec<String>,
    /// Frontier labels over all eight metrics.
    pub frontier_all: Vec<String>,
}

/// One candidate's full 8-metric evaluation, addressed by its display
/// name (names embed every constructor parameter) and the scenario.
struct CandidateJob {
    // tidy-allow: fingerprint-coverage — redundant with name: the candidate grid is fixed and names embed every constructor parameter, so equal names imply equal indices.
    index: usize,
    name: String,
    link: LinkParams,
    steps: usize,
    mode: EvalMode,
}

impl Fingerprint for CandidateJob {
    fn fingerprint(&self, fp: &mut Fingerprinter) {
        fp.write_str(&self.name);
        self.link.fingerprint(fp);
        fp.write_usize(self.steps);
        self.mode.fingerprint(fp);
    }
}

impl SweepJob for CandidateJob {
    type Output = axcc_core::AxiomScores;
    fn run(&self) -> axcc_core::AxiomScores {
        let pool = candidate_pool();
        empirical_scores_fluid(
            pool[self.index].as_ref(),
            self.link,
            2,
            self.steps,
            self.mode,
        )
    }
}

/// Score the pool on `link` and extract the frontiers.
pub fn search_frontier(link: LinkParams, steps: usize) -> FrontierSearch {
    search_frontier_with(&SweepRunner::serial(), link, steps)
}

/// [`search_frontier`] through an explicit sweep runner: one job per
/// candidate protocol.
pub fn search_frontier_with(
    runner: &SweepRunner,
    link: LinkParams,
    steps: usize,
) -> FrontierSearch {
    let jobs: Vec<CandidateJob> = candidate_pool()
        .iter()
        .enumerate()
        .map(|(index, p)| CandidateJob {
            index,
            name: p.name(),
            link,
            steps,
            mode: runner.eval_mode(),
        })
        .collect();
    let scores = runner.run_jobs("frontier/candidates", &jobs);
    let scored: Vec<ScoredPoint> = jobs
        .iter()
        .zip(scores)
        .map(|(job, s)| ScoredPoint::new(job.name.clone(), s))
        .collect();
    let labels = |idx: Vec<usize>| -> Vec<String> {
        idx.into_iter().map(|i| scored[i].label.clone()).collect()
    };
    FrontierSearch {
        frontier_fig1: labels(pareto_front_indices(&scored, &FIGURE1_METRICS)),
        frontier_robust: labels(pareto_front_indices(&scored, &ROBUST_METRICS)),
        frontier_all: labels(pareto_front_indices(&scored, &Metric::ALL)),
        points: scored.into_iter().map(|p| (p.label, p.scores)).collect(),
    }
}

impl FrontierSearch {
    /// Render as text: the score table plus the three frontiers.
    pub fn render(&self) -> String {
        let mut t = TextTable::new([
            "protocol", "eff", "fast", "loss", "fair", "conv", "robust", "friendly", "latency",
        ]);
        for (name, s) in &self.points {
            t.row([
                name.clone(),
                fmt_score(s.efficiency),
                fmt_score(s.fast_utilization),
                fmt_score(s.loss_bound),
                fmt_score(s.fairness),
                fmt_score(s.convergence),
                fmt_score(s.robustness),
                fmt_score(s.tcp_friendliness),
                fmt_score(s.latency_inflation),
            ]);
        }
        format!(
            "empirical frontier search over {} candidates\n\n{}\n\
             frontier (fast × eff × friendly):       {}\n\
             frontier (+ robustness):                {}\n\
             frontier (all eight metrics):           {}\n",
            self.points.len(),
            t.render(),
            self.frontier_fig1.join(", "),
            self.frontier_robust.join(", "),
            self.frontier_all.join(", "),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick() -> FrontierSearch {
        search_frontier(LinkParams::new(1000.0, 0.05, 20.0), 1200)
    }

    #[test]
    fn frontiers_are_nested() {
        let f = quick();
        // A richer subspace can only keep or grow the frontier: anything
        // undominated in fewer metrics stays undominated when more are
        // added.
        for name in &f.frontier_fig1 {
            assert!(
                f.frontier_robust.contains(name),
                "{name} fell off when adding robustness"
            );
        }
        for name in &f.frontier_robust {
            assert!(
                f.frontier_all.contains(name),
                "{name} fell off in the full space"
            );
        }
    }

    #[test]
    fn robust_aimd_needs_the_robustness_axis() {
        let f = quick();
        let raimd = |names: &[String]| names.iter().any(|n| n.starts_with("R-AIMD"));
        // At least one Robust-AIMD instance on the 4-metric frontier
        // (the paper's design argument)…
        assert!(raimd(&f.frontier_robust), "{:?}", f.frontier_robust);
    }

    #[test]
    fn the_full_space_keeps_every_architecture_class() {
        let f = quick();
        // Latency axis keeps Vegas; smoothness isn't a frontier metric but
        // friendliness+convergence keep TFRC alive in the full space.
        let has = |prefix: &str| f.frontier_all.iter().any(|n| n.starts_with(prefix));
        assert!(has("AIMD"), "{:?}", f.frontier_all);
        assert!(has("R-AIMD"), "{:?}", f.frontier_all);
        assert!(has("Vegas"), "{:?}", f.frontier_all);
    }

    #[test]
    fn render_lists_frontiers() {
        let f = quick();
        let s = f.render();
        assert!(s.contains("frontier (all eight metrics)"));
        for (name, _) in &f.points {
            assert!(s.contains(name), "{name}");
        }
    }
}
