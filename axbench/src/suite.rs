//! The `suite` workload: every registry experiment except `explore`, at
//! the workload's budget, cache off, through each entry's `run`.

use crate::measure::{cpu_seconds, secs, Spans};
use crate::{Ctx, Pass, Workload};
use axcc_analysis::experiments::{registry, Experiment};
use axcc_sweep::SweepRunner;
use std::time::Instant;

/// The suite's experiments, in registry order.
pub fn experiments() -> Vec<Experiment> {
    registry()
        .into_iter()
        .filter(|e| e.name != "explore")
        .collect()
}

/// `suite`: a pass runs each experiment once. A pass fails an experiment
/// whose predicate does not hold or whose report differs from the first
/// pass's (runs are deterministic at any worker count).
#[derive(Default)]
pub struct Suite {
    reports: Vec<String>,
}

impl Workload for Suite {
    /// Until the first experiment could run: the runner, the registry
    /// and the worker threads every parallel sweep starts.
    fn setup_once(&mut self, ctx: &Ctx) -> Result<f64, String> {
        let t = Instant::now();
        let runner = SweepRunner::without_cache(ctx.workers);
        let exps = experiments();
        crate::spin_up_workers(runner.workers());
        std::hint::black_box((&runner, &exps));
        Ok(secs(t))
    }

    fn pass(&mut self, ctx: &Ctx, spans: &mut Spans) -> Result<Pass, String> {
        let runner = SweepRunner::without_cache(ctx.workers);
        let mut pass = Pass::default();
        let (cpu0, t0) = (cpu_seconds(), Instant::now());
        for (i, exp) in experiments().iter().enumerate() {
            let t = Instant::now();
            let out = spans.time(&format!("analysis.exp_s.{}", exp.name), || {
                (exp.run)(&runner, ctx.budget)
            });
            pass.latency_ms.push(secs(t) * 1e3);
            if self.reports.len() == i {
                self.reports.push(out.report.clone());
            }
            pass.attempted += 1;
            if !out.passed || out.report != self.reports[i] {
                pass.failed += 1;
                eprintln!("axbench: suite experiment {} failed its check", exp.name);
            }
        }
        pass.wall_s = secs(t0);
        pass.cpu_s = cpu_seconds() - cpu0;
        Ok(pass)
    }
}
