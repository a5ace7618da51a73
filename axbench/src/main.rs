//! `axbench`: the workspace's benchmark. One process runs one workload:
//!
//! ```text
//! axbench --workload <explore-cold|explore-warm|suite|serve-mixed> \
//!         --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` it repeats the workload's timed pass until `--seconds`
//! have passed (at least once) and reports the end-to-end metrics. With
//! `--trace 1` it runs untraced and traced passes of the workload, then
//! profiles every layer by timing calls into each crate's public
//! functions from outside (see `layers`), and reports the per-layer
//! metrics. Either way the last line of stdout is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`; earlier lines are a
//! human-readable stamp and summary. The workloads run at the registry's
//! paper budget; the harness tests run them at smoke budget through the
//! same code path.

mod explore;
mod layers;
mod measure;
mod serve;
mod suite;

use axcc_analysis::experiments::RunBudget;
use measure::{median, nearest_rank, peak_rss_mb, secs, Spans};
use std::cell::Cell;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

/// The workloads, by the names `BENCHMARK.json` lists.
pub const WORKLOADS: [&str; 4] = ["explore-cold", "explore-warm", "suite", "serve-mixed"];

/// Everything a workload needs to know about its run.
pub struct Ctx {
    /// Worker threads: the host's parallelism, as users pass `--jobs`.
    pub workers: usize,
    /// The workload seed (serve stream, traced cell sample).
    pub seed: u64,
    /// Registry budget: paper scale, or smoke scale in the tests.
    pub budget: RunBudget,
    /// Requests in one serve-mixed block.
    pub serve_requests: usize,
    /// Work directory under the current directory; removed when the run
    /// ends.
    pub work: PathBuf,
    dirs: Cell<u32>,
}

impl Ctx {
    /// A context at `budget` whose work directory is `work`.
    pub fn new(seed: u64, budget: RunBudget, work: PathBuf) -> Self {
        Ctx {
            workers: axcc_sweep::runner::host_parallelism(),
            seed,
            budget,
            serve_requests: if budget.smoke { 60 } else { 3000 },
            work,
            dirs: Cell::new(0),
        }
    }

    /// A new, not yet existing directory under the work directory.
    pub fn fresh_dir(&self, tag: &str) -> PathBuf {
        let n = self.dirs.get();
        self.dirs.set(n + 1);
        self.work.join(format!("{tag}-{n}"))
    }
}

/// One timed unit of a workload: a sweep pass, a suite pass or a block
/// of daemon requests.
#[derive(Debug, Clone, Default)]
pub struct Pass {
    /// Wall seconds of the timed phase.
    pub wall_s: f64,
    /// Process CPU seconds (user + system) over the timed phase.
    pub cpu_s: f64,
    /// Latency of each user-visible operation, in ms.
    pub latency_ms: Vec<f64>,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed or produced a wrong answer.
    pub failed: u64,
}

/// A workload: a repeatable set-up and a repeatable timed pass.
pub trait Workload {
    /// Set up once afresh and return the seconds until the
    /// workload could answer its first operation.
    fn setup_once(&mut self, ctx: &Ctx) -> Result<f64, String>;
    /// Run one timed pass, recording spans into `spans`.
    fn pass(&mut self, ctx: &Ctx, spans: &mut Spans) -> Result<Pass, String>;
}

/// Build the named workload (running any preparation it needs).
pub fn workload(name: &str, ctx: &Ctx) -> Result<Box<dyn Workload>, String> {
    Ok(match name {
        "explore-cold" => Box::new(explore::Cold),
        "explore-warm" => Box::new(explore::Warm::prepare(ctx)?),
        "suite" => Box::new(suite::Suite::default()),
        "serve-mixed" => Box::new(serve::Mixed::new(ctx)),
        other => return Err(format!("unknown workload {other:?}; known: {WORKLOADS:?}")),
    })
}

/// A metric value with its unit, in output order.
pub type Metrics = Vec<(String, f64, &'static str)>;

/// The result of one untraced measurement.
#[derive(Debug)]
pub struct Summary {
    /// Set-up samples in seconds.
    pub setup_s: Vec<f64>,
    /// The timed passes.
    pub passes: Vec<Pass>,
}

impl Summary {
    fn latency_samples(&self) -> usize {
        self.passes.iter().map(|p| p.latency_ms.len()).sum()
    }

    /// The median over passes of each pass's nearest-rank percentile `p`
    /// of operation latency.
    fn latency(&self, p: f64) -> f64 {
        let per_pass: Vec<f64> = self
            .passes
            .iter()
            .map(|x| nearest_rank(&x.latency_ms, p))
            .collect();
        median(&per_pass)
    }

    /// Operations attempted over all passes.
    pub fn attempted(&self) -> u64 {
        self.passes.iter().map(|p| p.attempted).sum()
    }

    /// Operations failed over all passes.
    pub fn failed(&self) -> u64 {
        self.passes.iter().map(|p| p.failed).sum()
    }

    /// The end-to-end metrics.
    pub fn metrics(&self) -> Metrics {
        let walls: Vec<f64> = self.passes.iter().map(|p| p.wall_s).collect();
        let cpus: Vec<f64> = self.passes.iter().map(|p| p.cpu_s).collect();
        vec![
            ("setup_s".into(), median(&self.setup_s), "s"),
            ("wall_s".into(), median(&walls), "s"),
            ("cpu_s".into(), median(&cpus), "s"),
            ("latency_p50_ms".into(), self.latency(50.0), "ms"),
            ("latency_p99_ms".into(), self.latency(99.0), "ms"),
            ("peak_rss_mb".into(), peak_rss_mb(), "MiB"),
        ]
    }
}

/// Start and join the sweep pool's worker threads once, on no-op jobs:
/// the fixed cost a parallel sweep pays before its first job.
pub fn spin_up_workers(workers: usize) {
    let jobs = axcc_sweep::pool::run_chunked_cancellable(
        workers,
        workers,
        1,
        |range, out: &mut Vec<usize>| out.extend(range),
        None,
    );
    std::hint::black_box(jobs.is_ok());
}

/// Set-up samples: at least 11, and more for up to 1.5 s, so the median
/// of a short or jittery set-up is still steady from run to run.
fn sample_setup(w: &mut dyn Workload, ctx: &Ctx) -> Result<Vec<f64>, String> {
    let start = Instant::now();
    let mut out = Vec::new();
    while out.len() < 11 || (secs(start) < 1.5 && out.len() < 1001) {
        out.push(w.setup_once(ctx)?);
    }
    Ok(out)
}

/// Untraced measurement: set-up samples, then timed passes until
/// `seconds` have passed (at least one).
pub fn measure(w: &mut dyn Workload, ctx: &Ctx, seconds: f64) -> Result<Summary, String> {
    let setup_s = sample_setup(w, ctx)?;
    let start = Instant::now();
    let mut passes = Vec::new();
    loop {
        passes.push(w.pass(ctx, &mut Spans::new(false))?);
        if secs(start) >= seconds {
            break;
        }
    }
    Ok(Summary { setup_s, passes })
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    fill: Option<(PathBuf, PathBuf)>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        fill: None,
    };
    let mut fill_dir = None;
    let mut report = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => args.seconds = value.parse().map_err(|_| bad())?,
            "--trace" => args.trace = value.parse::<u8>().map_err(|_| bad())? == 1,
            "--fill-explore" => fill_dir = Some(PathBuf::from(&value)),
            "--report" => report = Some(PathBuf::from(&value)),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    args.fill = fill_dir.zip(report);
    if args.fill.is_none() && !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!("--workload must be one of {WORKLOADS:?}"));
    }
    Ok(args)
}

/// The commit being measured: read from `.git` when the benchmark runs
/// in a clone, `unknown` in an exported tree.
fn git_commit() -> String {
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    let Some(r) = head.strip_prefix("ref: ") else {
        return if head.is_empty() {
            "unknown".into()
        } else {
            head.into()
        };
    };
    if let Ok(id) = std::fs::read_to_string(Path::new(".git").join(r)) {
        return id.trim().to_string();
    }
    let packed = std::fs::read_to_string(".git/packed-refs").unwrap_or_default();
    packed
        .lines()
        .find_map(|l| l.strip_suffix(r).map(|id| id.trim().to_string()))
        .unwrap_or_else(|| "unknown".into())
}

fn json_line(correct: bool, attempted: u64, failed: u64, metrics: &Metrics) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

/// Removes the work directory however the run ends.
struct WorkDir(PathBuf);

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // The parent goes too once no other run is using it.
        if let Some(parent) = self.0.parent() {
            let _ = std::fs::remove_dir(parent);
        }
    }
}

fn run(args: &Args) -> Result<(bool, u64, u64, Metrics), String> {
    let work = WorkDir(PathBuf::from(".bench_work").join(format!("run-{}", std::process::id())));
    let _ = std::fs::remove_dir_all(&work.0);
    std::fs::create_dir_all(&work.0).map_err(|e| format!("cannot create {:?}: {e}", work.0))?;
    let ctx = Ctx::new(args.seed, RunBudget::paper(), work.0.clone());
    println!(
        "# stamp: workload={} seed={} seconds={} trace={} budget={} nproc={} workers={} \
         engine_revision={} commit={}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        if ctx.budget.smoke { "smoke" } else { "paper" },
        axcc_sweep::runner::host_parallelism(),
        ctx.workers,
        axcc_sweep::ENGINE_REVISION,
        git_commit(),
    );
    let mut w = workload(&args.workload, &ctx)?;
    if args.trace {
        let profile = layers::profile(&args.workload, w.as_mut(), &ctx)?;
        return Ok((
            profile.failed == 0,
            profile.attempted,
            profile.failed,
            profile.metrics,
        ));
    }
    let summary = measure(w.as_mut(), &ctx, args.seconds)?;
    let (attempted, failed) = (summary.attempted(), summary.failed());
    let walls: Vec<f64> = summary.passes.iter().map(|p| p.wall_s).collect();
    println!(
        "# {} passes (wall min {:.4} s, max {:.4} s), {} set-up samples (min {:.3e} s, max {:.3e} s), \
         {} latency samples; error_rate {}",
        summary.passes.len(),
        nearest_rank(&walls, 0.0),
        nearest_rank(&walls, 100.0),
        summary.setup_s.len(),
        nearest_rank(&summary.setup_s, 0.0),
        nearest_rank(&summary.setup_s, 100.0),
        summary.latency_samples(),
        failed as f64 / attempted.max(1) as f64,
    );
    Ok((failed == 0, attempted, failed, summary.metrics()))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("axbench: {e}");
            return ExitCode::from(2);
        }
    };
    if let Some((dir, report)) = &args.fill {
        return match explore::fill(dir, report, RunBudget::paper()) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("axbench: {e}");
                ExitCode::FAILURE
            }
        };
    }
    match run(&args) {
        Ok((correct, attempted, failed, metrics)) => {
            for (name, value, unit) in &metrics {
                println!("# {name:<44} {value:>16.6} {unit}");
            }
            println!("{}", json_line(correct, attempted, failed, &metrics));
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("axbench: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx(seed: u64, tag: &str) -> Ctx {
        let work = PathBuf::from(".bench_work").join(format!("test-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&work).unwrap();
        Ctx::new(seed, RunBudget::smoke(), work)
    }

    /// Metric names `BENCHMARK.json` lists under `key`.
    fn declared(key: &str) -> Vec<String> {
        let text =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .unwrap();
        let json = serde_json::from_str(&text).unwrap();
        json.get(key)
            .and_then(|v| v.as_array())
            .unwrap()
            .iter()
            .map(|m| m.get("name").and_then(|n| n.as_str()).unwrap().to_string())
            .collect()
    }

    fn names(m: &Metrics) -> Vec<String> {
        m.iter().map(|(n, _, _)| n.clone()).collect()
    }

    #[test]
    fn smoke_pass_of_every_workload_is_error_free_and_reports_every_metric() {
        for name in WORKLOADS {
            let ctx = ctx(1, name);
            let mut w: Box<dyn Workload> = if name == "explore-warm" {
                // The benchmark fills the store in a child process of its
                // own binary; a test binary fills it in-process instead.
                let (dir, report) = (ctx.fresh_dir("explore"), ctx.fresh_dir("report"));
                explore::fill(&dir, &report, ctx.budget).unwrap();
                let cold_report = std::fs::read_to_string(&report).unwrap();
                Box::new(explore::Warm { dir, cold_report })
            } else {
                workload(name, &ctx).unwrap()
            };
            let s = measure(w.as_mut(), &ctx, 0.0).unwrap();
            assert!(s.attempted() > 0, "{name}");
            assert_eq!(s.failed(), 0, "{name}: error_rate must be 0");
            assert_eq!(names(&s.metrics()), declared("end_to_end"), "{name}");
            assert!(
                s.metrics()
                    .iter()
                    .all(|(_, v, _)| v.is_finite() && *v > 0.0),
                "{name}"
            );
            let _ = std::fs::remove_dir_all(&ctx.work);
        }
    }

    #[test]
    fn smoke_traced_run_reports_every_per_layer_metric() {
        let ctx = ctx(2, "traced");
        let mut w = workload("serve-mixed", &ctx).unwrap();
        let p = layers::profile("serve-mixed", w.as_mut(), &ctx).unwrap();
        let _ = std::fs::remove_dir_all(&ctx.work);
        assert_eq!(p.failed, 0);
        assert_eq!(names(&p.metrics), declared("per_layer"));
        assert!(p.metrics.iter().all(|(_, v, _)| v.is_finite()));
        let get = |k: &str| {
            p.metrics
                .iter()
                .find(|(n, _, _)| n == k)
                .map(|m| m.1)
                .unwrap()
        };
        assert_eq!(get("sweep.hit_rate"), 1.0);
        assert!(get("fluidsim.loss_rng_draws_per_sample") > 0.0);
    }

    #[test]
    fn store_probe_hits_every_registry_job() {
        let ctx = ctx(3, "probe");
        let (dir, report) = (ctx.fresh_dir("explore"), ctx.fresh_dir("report"));
        explore::fill(&dir, &report, ctx.budget).unwrap();
        let sc = layers::store_costs(&ctx, &dir, &mut Spans::new(false)).unwrap();
        let _ = std::fs::remove_dir_all(&ctx.work);
        assert_eq!(sc.hits, explore::explore_jobs(&ctx).len());
    }

    #[test]
    fn loss_draw_count_repeats_for_a_seed() {
        let ctx = Ctx::new(5, RunBudget::smoke(), PathBuf::new());
        let (a, b) = (layers::loss_draws(&ctx), layers::loss_draws(&ctx));
        assert!(a > 0.0);
        assert_eq!(a.to_bits(), b.to_bits());
    }

    #[test]
    fn same_seed_same_cell_sample_and_different_seed_different_sample() {
        let a = layers::cell_sample(&Ctx::new(11, RunBudget::paper(), PathBuf::new()));
        let b = layers::cell_sample(&Ctx::new(11, RunBudget::paper(), PathBuf::new()));
        let c = layers::cell_sample(&Ctx::new(12, RunBudget::paper(), PathBuf::new()));
        assert_eq!(a, b);
        assert_ne!(a, c);
    }
}
