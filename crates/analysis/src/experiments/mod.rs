//! One module per paper artifact, plus the experiment registry that
//! enumerates them for `axcc sweep` / `axcc run-all`.
//!
//! | Module | Paper artifact |
//! |---|---|
//! | [`table1`] | Table 1 — protocol characterization (theory + empirical) |
//! | [`emulab`] | Section 5.1 — the Emulab validation grid (trend/hierarchy check) |
//! | [`table2`] | Table 2 — Robust-AIMD vs PCC TCP-friendliness grid |
//! | [`figure1`] | Figure 1 — Pareto frontier of efficiency × fast-utilization × friendliness |
//! | [`theorems`] | Section 4 — Claim 1 and Theorems 1–5, checked against simulation |
//! | [`shootout`] | §5.2's robustness/efficiency shootout (R-AIMD vs classics vs PCC) |
//! | [`gauntlet`] | Metric VI under Gilbert–Elliott bursty loss (the adverse-network gauntlet) |
//! | [`frontier`] | empirical Pareto-frontier search over all implemented families |
//! | [`explore`] | parameter-space exploration: protocol grid × loss ladder, 10⁵ cells |
//! | [`aqm`] | §6 in-network queueing: droptail vs ECN vs RED across the metrics |
//! | [`extensions`] | §6 future-work metrics: smoothness, responsiveness, Metric VIII across classes |
//! | [`churn`] | §6 dynamic populations: churn-aware metrics under seeded arrival storms |
//! | [`hierarchy`] | shared machinery: per-metric rankings and theory/measurement agreement |
//!
//! Every experiment entry point has a `*_with(runner, …)` variant taking
//! an [`axcc_sweep::SweepRunner`], which fans the experiment's
//! independent simulations out over the runner's worker pool and answers
//! repeats from its content-addressed cache. The plain entry points
//! delegate to [`SweepRunner::serial`], so their behavior (and output
//! bytes) are unchanged. The [`registry`] below is the single enumeration
//! of all experiments that the CLI's `sweep` and `run-all` commands and
//! the bench runner drive.

use axcc_core::units::Bandwidth;
use axcc_core::LinkParams;
use axcc_sweep::SweepRunner;

pub mod aqm;
pub mod churn;
pub mod emulab;
pub mod explore;
pub mod extensions;
pub mod figure1;
pub mod frontier;
pub mod gauntlet;
pub mod hierarchy;
pub mod shootout;
pub mod table1;
pub mod table2;
pub mod theorems;

/// Run-length budget for registry-driven experiment runs: `paper` scale
/// regenerates the committed artifacts; `smoke` scale is for CI gates
/// and quick local sanity runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunBudget {
    /// Reduced run lengths (CI smoke) instead of artifact scale.
    pub smoke: bool,
}

impl RunBudget {
    /// Full artifact-regeneration scale (matches the `gen_*` binaries).
    pub fn paper() -> Self {
        RunBudget { smoke: false }
    }

    /// Reduced scale for CI and quick checks.
    pub fn smoke() -> Self {
        RunBudget { smoke: true }
    }

    /// Pick a step count by scale.
    pub fn steps(&self, paper: usize, smoke: usize) -> usize {
        if self.smoke {
            smoke
        } else {
            paper
        }
    }

    /// Pick a simulated-seconds budget by scale.
    pub fn secs(&self, paper: f64, smoke: f64) -> f64 {
        if self.smoke {
            smoke
        } else {
            paper
        }
    }
}

/// What one registry-driven experiment run produced.
#[derive(Debug, Clone)]
pub struct ExperimentOutcome {
    /// The rendered text report (what the `gen_*` binaries print).
    pub report: String,
    /// Whether the experiment's own success predicate held (experiments
    /// without a predicate always pass).
    pub passed: bool,
}

/// One runnable experiment in the registry.
#[derive(Debug, Clone, Copy)]
pub struct Experiment {
    /// Stable CLI name (`axcc sweep --experiment <name>`).
    pub name: &'static str,
    /// Which paper artifact the experiment reproduces.
    pub artifact: &'static str,
    /// Experiment family, for grouping in `axcc list` (e.g. the paper's
    /// core tables vs the repo's extension studies).
    pub family: &'static str,
    /// Human-readable paper/smoke run budget shown by `axcc list`.
    pub budget: &'static str,
    /// Run the experiment through a sweep runner at the given budget.
    pub run: fn(&SweepRunner, RunBudget) -> ExperimentOutcome,
    /// Whether the experiment honours the runner's
    /// [`EvalMode`](axcc_sweep::EvalMode). The packet-level experiments
    /// (emulab, aqm) and the extension metrics (which need whole-trace
    /// statistics like smoothness) always record traces; table2's fluid
    /// cells always stream (their cache addresses carry no mode).
    pub supports_streaming: bool,
}

/// The paper-grade 100 Mbps link Table 1 is characterized on.
fn table1_link() -> LinkParams {
    LinkParams::from_experiment(Bandwidth::Mbps(100.0), 42.0, 100.0)
}

fn run_table1(runner: &SweepRunner, budget: RunBudget) -> ExperimentOutcome {
    let t = table1::empirical_table1_with(runner, table1_link(), 2, budget.steps(4000, 800));
    ExperimentOutcome {
        report: t.render(),
        passed: t.rows.iter().all(|r| r.measured.is_some()),
    }
}

fn run_table2(runner: &SweepRunner, budget: RunBudget) -> ExperimentOutcome {
    let t = table2::build_table2_fluid_with(runner, budget.steps(4000, 1500));
    ExperimentOutcome {
        passed: t.robust_wins_everywhere(),
        report: t.render(),
    }
}

fn run_figure1(runner: &SweepRunner, budget: RunBudget) -> ExperimentOutcome {
    let link = LinkParams::from_experiment(Bandwidth::Mbps(20.0), 42.0, 100.0);
    let fig = figure1::validated_surface_with(
        runner,
        &figure1::DEFAULT_ALPHAS,
        &figure1::DEFAULT_BETAS,
        link,
        budget.steps(3000, 800),
    );
    ExperimentOutcome {
        passed: fig.dominated_count() == 0,
        report: fig.render(),
    }
}

fn run_theorems(runner: &SweepRunner, budget: RunBudget) -> ExperimentOutcome {
    let checks = theorems::check_all_with(runner, budget.steps(3000, 3000));
    ExperimentOutcome {
        passed: checks.iter().all(|c| c.passed),
        report: theorems::render_checks(&checks),
    }
}

fn run_shootout(runner: &SweepRunner, budget: RunBudget) -> ExperimentOutcome {
    let s = shootout::run_shootout_with(runner, budget.steps(3000, 1500));
    ExperimentOutcome {
        passed: s.ordering_holds(),
        report: s.render(),
    }
}

fn run_gauntlet(runner: &SweepRunner, budget: RunBudget) -> ExperimentOutcome {
    let rep = gauntlet::run_gauntlet_with(runner, budget.steps(2500, 2500));
    ExperimentOutcome {
        passed: rep.degrades_slower("R-AIMD", "AIMD(1,0.5)"),
        report: rep.render(),
    }
}

fn run_frontier(runner: &SweepRunner, budget: RunBudget) -> ExperimentOutcome {
    let f =
        frontier::search_frontier_with(runner, LinkParams::reference(), budget.steps(3000, 1200));
    ExperimentOutcome {
        passed: f.frontier_robust.iter().any(|n| n.starts_with("R-AIMD")),
        report: f.render(),
    }
}

fn run_explore(runner: &SweepRunner, budget: RunBudget) -> ExperimentOutcome {
    let rep = explore::run_explore_with(runner, budget);
    ExperimentOutcome {
        passed: rep.passed(),
        report: rep.render(),
    }
}

fn run_emulab(runner: &SweepRunner, budget: RunBudget) -> ExperimentOutcome {
    let cfg = if budget.smoke {
        emulab::EmulabConfig::quick()
    } else {
        emulab::EmulabConfig::paper()
    };
    let v = emulab::run_emulab_validation_with(runner, &cfg);
    ExperimentOutcome {
        passed: v.mean_agreement() >= 0.6,
        report: v.render(),
    }
}

fn run_aqm(runner: &SweepRunner, budget: RunBudget) -> ExperimentOutcome {
    let q = aqm::run_aqm_comparison_with(runner, 2, budget.secs(40.0, 20.0));
    ExperimentOutcome {
        passed: !q.cells.is_empty(),
        report: q.render(),
    }
}

fn run_extensions(runner: &SweepRunner, budget: RunBudget) -> ExperimentOutcome {
    let rep = extensions::run_extension_report_with(runner, budget.steps(3000, 1500));
    ExperimentOutcome {
        passed: !rep.rows.is_empty(),
        report: rep.render(),
    }
}

fn run_churn(runner: &SweepRunner, budget: RunBudget) -> ExperimentOutcome {
    let rep = churn::run_churn_with(runner, budget.steps(4000, 1000), budget.secs(30.0, 8.0));
    ExperimentOutcome {
        passed: rep.sane(),
        report: rep.render(),
    }
}

/// All experiments, in the paper's presentation order. Names are stable
/// CLI identifiers.
pub fn registry() -> Vec<Experiment> {
    vec![
        Experiment {
            name: "table1",
            family: "characterization",
            budget: "4000/800 steps",
            supports_streaming: true,
            artifact: "Table 1 — protocol characterization (empirical)",
            run: run_table1,
        },
        Experiment {
            name: "table2",
            family: "friendliness",
            budget: "4000/1500 steps",
            supports_streaming: false,
            artifact: "Table 2 — Robust-AIMD vs PCC friendliness grid",
            run: run_table2,
        },
        Experiment {
            name: "figure1",
            family: "frontier",
            budget: "3000/800 steps",
            supports_streaming: true,
            artifact: "Figure 1 — Pareto frontier feasibility validation",
            run: run_figure1,
        },
        Experiment {
            name: "theorems",
            family: "theory",
            budget: "3000/3000 steps",
            supports_streaming: true,
            artifact: "Section 4 — Claim 1 + Theorems 1-5 checks",
            run: run_theorems,
        },
        Experiment {
            name: "emulab",
            family: "validation",
            budget: "paper/quick grid",
            supports_streaming: false,
            artifact: "Section 5.1 — Emulab validation grid (packet-level)",
            run: run_emulab,
        },
        Experiment {
            name: "shootout",
            family: "robustness",
            budget: "3000/1500 steps",
            supports_streaming: true,
            artifact: "Section 5.2 — robustness shootout",
            run: run_shootout,
        },
        Experiment {
            name: "gauntlet",
            family: "robustness",
            budget: "2500/2500 steps",
            supports_streaming: true,
            artifact: "Metric VI under Gilbert-Elliott bursty loss",
            run: run_gauntlet,
        },
        Experiment {
            name: "frontier",
            family: "frontier",
            budget: "3000/1200 steps",
            supports_streaming: true,
            artifact: "empirical Pareto-frontier search",
            run: run_frontier,
        },
        Experiment {
            name: "explore",
            family: "frontier",
            budget: "101670/310 jobs",
            supports_streaming: true,
            artifact: "parameter-space exploration — protocol grid × loss ladder",
            run: run_explore,
        },
        Experiment {
            name: "aqm",
            family: "queueing",
            budget: "40/20 s",
            supports_streaming: false,
            artifact: "Section 6 — in-network queueing comparison",
            run: run_aqm,
        },
        Experiment {
            name: "extensions",
            family: "extensions",
            budget: "3000/1500 steps",
            supports_streaming: false,
            artifact: "Section 6 — extension metrics",
            run: run_extensions,
        },
        Experiment {
            name: "churn",
            family: "churn",
            budget: "4000/1000 steps + 30/8 s",
            supports_streaming: true,
            artifact: "Section 6 — dynamic flow populations under arrival storms",
            run: run_churn,
        },
    ]
}

/// Look up one experiment by its stable name.
pub fn find_experiment(name: &str) -> Option<Experiment> {
    registry().into_iter().find(|e| e.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_names_are_unique_and_stable() {
        let names: Vec<&str> = registry().iter().map(|e| e.name).collect();
        let mut dedup = names.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(names.len(), dedup.len(), "duplicate registry names");
        assert_eq!(names.len(), 12);
        for expected in [
            "table1", "table2", "figure1", "theorems", "gauntlet", "churn",
        ] {
            assert!(names.contains(&expected), "{expected} missing");
        }
    }

    #[test]
    fn every_entry_carries_family_and_budget_metadata() {
        // `axcc list` renders one row per experiment from these fields;
        // the row count must track the registry exactly.
        let reg = registry();
        assert_eq!(reg.len(), 12, "registry row count");
        for e in &reg {
            assert!(!e.family.is_empty(), "{} has no family", e.name);
            assert!(!e.budget.is_empty(), "{} has no budget", e.name);
            assert!(!e.artifact.is_empty(), "{} has no artifact", e.name);
        }
        assert_eq!(
            find_experiment("churn").map(|e| e.family),
            Some("churn"),
            "churn family"
        );
    }

    #[test]
    fn find_experiment_resolves_by_name() {
        assert!(find_experiment("shootout").is_some());
        assert!(find_experiment("no-such-experiment").is_none());
    }

    #[test]
    fn smoke_budget_picks_the_small_scale() {
        let b = RunBudget::smoke();
        assert_eq!(b.steps(4000, 800), 800);
        assert_eq!(b.secs(40.0, 20.0), 20.0);
        let p = RunBudget::paper();
        assert_eq!(p.steps(4000, 800), 4000);
    }

    /// Run one experiment under both evaluation modes (fresh runners, so
    /// nothing is answered across modes) and assert the reports are
    /// byte-identical. Report strings embed every measured score, so this
    /// is bit equality of the numbers too.
    fn assert_mode_identity(e: &Experiment, budget: RunBudget) {
        use axcc_sweep::EvalMode;
        let streaming = SweepRunner::serial(); // Streaming is the default
        let traced = SweepRunner::serial().with_eval_mode(EvalMode::Traced);
        let s = (e.run)(&streaming, budget);
        let t = (e.run)(&traced, budget);
        assert_eq!(s.report, t.report, "{} diverged across eval modes", e.name);
        assert_eq!(s.passed, t.passed, "{} verdict diverged", e.name);
    }

    #[test]
    fn streaming_experiments_match_traced_at_smoke_scale() {
        for e in registry().iter().filter(|e| e.supports_streaming) {
            assert_mode_identity(e, RunBudget::smoke());
        }
    }

    #[test]
    #[ignore = "paper-scale identity sweep; run explicitly with --ignored"]
    fn streaming_experiments_match_traced_at_paper_scale() {
        for e in registry().iter().filter(|e| e.supports_streaming) {
            assert_mode_identity(e, RunBudget::paper());
        }
    }

    #[test]
    fn traced_only_experiments_are_flagged() {
        // The packet-level experiments and the whole-trace extension
        // metrics cannot stream, and table2's cells carry no mode;
        // everything else honours the runner's mode.
        for e in registry() {
            let expect = !matches!(e.name, "table2" | "emulab" | "aqm" | "extensions");
            assert_eq!(e.supports_streaming, expect, "{}", e.name);
        }
    }

    #[test]
    fn registry_experiment_runs_and_passes_at_smoke_scale() {
        // One cheap representative end-to-end: theorems through a serial
        // runner with an in-memory cache; a re-run must be answered from
        // the cache with identical output.
        let runner = SweepRunner::serial();
        let theorems = find_experiment("theorems").expect("registered");
        let first = (theorems.run)(&runner, RunBudget::smoke());
        assert!(first.passed, "{}", first.report);
        let executed_first = runner.stats().executed;
        assert!(executed_first > 0);
        let second = (theorems.run)(&runner, RunBudget::smoke());
        assert_eq!(first.report, second.report);
        assert_eq!(
            runner.stats().executed,
            executed_first,
            "second run must be fully cached"
        );
    }
}
