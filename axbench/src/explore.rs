//! The `explore` workloads: the registry's 101,670-job exploration sweep
//! against an on-disk result store, cold (empty store) and warm (a store
//! a cold pass filled, reopened as a new `axcc sweep` process would).

use crate::measure::{cpu_seconds, secs, Spans};
use crate::{Ctx, Pass, Workload};
use axcc_analysis::experiments::explore::{
    self, loss_levels, param_grid, ParamPoint, EXPLORE_SEED, INITIAL_WINDOWS, PAPER_STEPS,
    SMOKE_STEPS,
};
use axcc_analysis::experiments::{find_experiment, Experiment, RunBudget};
use axcc_core::fingerprint::{Fingerprint, Fingerprinter};
use axcc_core::LinkParams;
use axcc_sweep::{EvalMode, ResultCache, SweepRunner};
use std::path::{Path, PathBuf};
use std::process::Command;
use std::sync::Arc;
use std::time::Instant;

/// The registry's explore entry.
pub fn experiment() -> Result<Experiment, String> {
    find_experiment("explore").ok_or_else(|| "registry has no `explore` experiment".to_string())
}

/// The explore experiment's job, fingerprinted field for field as the
/// registry's private job type is, so its digests address the same store
/// entries (checked by the hit count of the store probe).
pub struct ExploreJob {
    /// The parameter point.
    pub point: ParamPoint,
    /// The wire-loss level.
    pub loss: f64,
    /// Fluid steps.
    pub steps: usize,
}

impl Fingerprint for ExploreJob {
    fn fingerprint(&self, fp: &mut Fingerprinter) {
        fp.write_str("explore/cell");
        self.point.fingerprint(fp);
        fp.write_f64(self.loss);
        fp.write_usize(self.steps);
        LinkParams::reference().fingerprint(fp);
        fp.write_u64(EXPLORE_SEED);
        for &w in &INITIAL_WINDOWS {
            fp.write_f64(w);
        }
        EvalMode::Streaming.fingerprint(fp);
    }
}

/// The explore grid's jobs in submission order (level-major).
pub fn explore_jobs(ctx: &Ctx) -> Vec<ExploreJob> {
    let steps = ctx.budget.steps(PAPER_STEPS, SMOKE_STEPS);
    let points = param_grid(ctx.budget);
    loss_levels(ctx.budget)
        .into_iter()
        .flat_map(|loss| {
            points
                .iter()
                .map(move |&point| ExploreJob { point, loss, steps })
        })
        .collect()
}

/// Open the store under `dir` and touch every shard, which builds each
/// shard's index: the point where a new process can answer lookups.
pub fn open_store(dir: &Path) -> Arc<ResultCache> {
    let cache = Arc::new(ResultCache::with_disk(dir.to_path_buf()));
    let _ = cache.stats();
    cache
}

/// What one explore pass produced.
pub struct Outcome {
    /// The rendered report.
    pub report: String,
    /// The experiment's own predicate.
    pub passed: bool,
    /// Jobs answered from the store.
    pub hits: u64,
    /// Jobs simulated.
    pub executed: u64,
    /// Wall seconds of the registry `run` call.
    pub wall_s: f64,
    /// Process CPU seconds over the call.
    pub cpu_s: f64,
}

/// Run the explore experiment once over the store in `dir`, opened
/// fresh, at `workers` workers.
pub fn run_pass(
    dir: &Path,
    workers: usize,
    budget: RunBudget,
    spans: &mut Spans,
) -> Result<Outcome, String> {
    let exp = experiment()?;
    let cache = spans.time("sweep.store_open", || open_store(dir));
    let runner = SweepRunner::with_cache_handle(workers, cache);
    let (cpu0, t0) = (cpu_seconds(), Instant::now());
    let out = spans.time("explore.run", || (exp.run)(&runner, budget));
    let (wall_s, cpu_s) = (secs(t0), cpu_seconds() - cpu0);
    let stats = runner.take_stats();
    Ok(Outcome {
        report: out.report,
        passed: out.passed,
        hits: stats.cache_hits,
        executed: stats.executed,
        wall_s,
        cpu_s,
    })
}

/// Whether a warm pass is correct against the cold pass's report: every
/// job answered from the store (hit rate 1.0) and the same report bytes.
fn warm_ok(warm: &Outcome, cold_report: &str, budget: RunBudget) -> bool {
    let jobs = explore::expected_jobs(budget) as u64;
    warm.passed && warm.hits == jobs && warm.executed == 0 && warm.report == cold_report
}

/// A cold pass into the fresh directory `dir`, checked by an untimed warm
/// pass over the same store (cache hit ≡ recompute).
fn cold_pass(ctx: &Ctx, dir: &Path, spans: &mut Spans) -> Result<Pass, String> {
    let cold = run_pass(dir, ctx.workers, ctx.budget, spans)?;
    let jobs = explore::expected_jobs(ctx.budget) as u64;
    let warm = run_pass(dir, ctx.workers, ctx.budget, &mut Spans::new(false))?;
    let ok = cold.passed
        && cold.executed == jobs
        && cold.hits == 0
        && warm_ok(&warm, &cold.report, ctx.budget);
    Ok(Pass {
        wall_s: cold.wall_s,
        cpu_s: cold.cpu_s,
        latency_ms: vec![cold.wall_s * 1e3],
        attempted: 1,
        failed: u64::from(!ok),
    })
}

/// `explore-cold`: every pass starts from an empty store.
pub struct Cold;

impl Workload for Cold {
    /// Until the first job could run: the registry entry, the empty
    /// store, the runner, the worker threads a sweep starts and the first
    /// job's address looked up (a miss).
    fn setup_once(&mut self, ctx: &Ctx) -> Result<f64, String> {
        let dir = ctx.fresh_dir("explore-empty");
        let t = Instant::now();
        experiment()?;
        let cache = open_store(&dir);
        let runner = SweepRunner::with_cache_handle(ctx.workers, cache.clone());
        crate::spin_up_workers(runner.workers());
        let first = ExploreJob {
            point: param_grid(ctx.budget)[0],
            loss: 0.0,
            steps: ctx.budget.steps(PAPER_STEPS, SMOKE_STEPS),
        };
        std::hint::black_box(cache.get(&runner.job_digest("explore/grid", &first)));
        Ok(secs(t))
    }

    fn pass(&mut self, ctx: &Ctx, spans: &mut Spans) -> Result<Pass, String> {
        cold_pass(ctx, &ctx.fresh_dir("explore"), spans)
    }
}

/// `explore-warm`: passes over one store that a separate cold process
/// filled, so this process's memory is that of a warm `axcc sweep`.
pub struct Warm {
    /// The filled store.
    pub dir: PathBuf,
    /// The cold pass's report, which every warm pass must reproduce.
    pub cold_report: String,
}

impl Warm {
    /// Fill a store by running this binary's `--fill-explore` mode (paper
    /// budget) as a child process, and keep the report it wrote.
    pub fn prepare(ctx: &Ctx) -> Result<Self, String> {
        let dir = ctx.fresh_dir("explore");
        let report = ctx.fresh_dir("cold-report");
        let exe = std::env::current_exe()
            .map_err(|e| format!("cannot locate the benchmark binary: {e}"))?;
        let status = Command::new(exe)
            .arg("--fill-explore")
            .arg(&dir)
            .arg("--report")
            .arg(&report)
            .status()
            .map_err(|e| format!("cannot start the fill process: {e}"))?;
        if !status.success() {
            return Err(format!("the fill process failed: {status}"));
        }
        let cold_report =
            std::fs::read_to_string(&report).map_err(|e| format!("cannot read {report:?}: {e}"))?;
        Ok(Warm { dir, cold_report })
    }
}

/// The child side of [`Warm::prepare`]: a cold pass at `budget` into
/// `dir` at the host's parallelism, writing the report to `report`.
pub fn fill(dir: &Path, report: &Path, budget: RunBudget) -> Result<(), String> {
    let workers = axcc_sweep::runner::host_parallelism();
    let out = run_pass(dir, workers, budget, &mut Spans::new(false))?;
    if !out.passed || out.executed != explore::expected_jobs(budget) as u64 {
        return Err("the cold fill pass failed its checks".into());
    }
    // Flush the segments to disk before the warm process starts, so its
    // timed reads do not race the kernel writing them back.
    for entry in std::fs::read_dir(dir).map_err(|e| format!("cannot list {dir:?}: {e}"))? {
        let path = entry.map_err(|e| e.to_string())?.path();
        std::fs::File::open(&path)
            .and_then(|f| f.sync_all())
            .map_err(|e| format!("cannot sync {path:?}: {e}"))?;
    }
    std::fs::write(report, out.report).map_err(|e| format!("cannot write {report:?}: {e}"))
}

impl Workload for Warm {
    fn setup_once(&mut self, ctx: &Ctx) -> Result<f64, String> {
        let t = Instant::now();
        let cache = open_store(&self.dir);
        let _ = SweepRunner::with_cache_handle(ctx.workers, cache);
        Ok(secs(t))
    }

    fn pass(&mut self, ctx: &Ctx, spans: &mut Spans) -> Result<Pass, String> {
        let out = run_pass(&self.dir, ctx.workers, ctx.budget, spans)?;
        Ok(Pass {
            wall_s: out.wall_s,
            cpu_s: out.cpu_s,
            latency_ms: vec![out.wall_s * 1e3],
            attempted: 1,
            failed: u64::from(!warm_ok(&out, &self.cold_report, ctx.budget)),
        })
    }
}
