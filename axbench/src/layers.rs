//! The traced run: a per-layer profile built by timing calls into each
//! crate's public functions from outside. Nothing inside `crates/*` is
//! instrumented.
//!
//! A traced run of workload W makes a traced pass of W between two untraced
//! ones (the wall-time difference is the tracing overhead), then profiles
//! every layer on the inputs its metric is defined over: the explore grid
//! and a store a cold pass filled, a seeded sample of explore cells at
//! every loss level, one suite pass, one serve-mixed block, and shapes
//! taken from the gauntlet's parking lot and the Emulab grid. Per-layer
//! costs scaled to W's full input give the share of W's CPU time that no
//! layer accounts for.

use crate::explore::{explore_jobs, open_store, run_pass};
use crate::measure::{median, secs, Spans};
use crate::serve::{Mixed, Stream};
use crate::suite::{experiments, Suite};
use crate::{Ctx, Metrics, Pass, Workload};
use axcc_analysis::estimators::{
    solo_metrics_of_acc, solo_metrics_of_trace, stream_options_for, SoloMetrics,
};
use axcc_analysis::experiments::explore::{
    self, front_2d, loss_levels, param_grid, ParamPoint, EXPLORE_SEED, INITIAL_WINDOWS,
    PAPER_STEPS, SMOKE_STEPS,
};
use axcc_core::fingerprint::Digest;
use axcc_core::units::Bandwidth;
use axcc_core::LinkParams;
use axcc_fluidsim::loss::sample_loss_fraction;
use axcc_fluidsim::{
    metric_accumulator_for, try_run_scenario, try_run_scenario_with, FlowConfig, LossModel,
    MetricSet, NetScenario, Scenario, SenderConfig, StepBlock, StepSink, Topology,
};
use axcc_packetsim::{PacketScenario, PacketSenderConfig};
use axcc_protocols::registry::resolve;
use axcc_protocols::SlowStart;
use axcc_serve::protocol::parse_request;
use axcc_sweep::pool::{default_chunk_size, run_chunked_cancellable};
use axcc_sweep::{Cacheable, Record, ResultCache, SweepRunner, SHARD_COUNT};
use rand::{RngCore, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::hint::black_box;
use std::time::Instant;

/// Parameter points in the traced cell sample; each runs at every loss
/// level of the ladder.
const SAMPLE_POINTS: usize = 12;
/// Parameter points whose clean cells time the step loop and its sinks.
const CLEAN_POINTS: usize = 200;
/// Repeats of each timed probe; the median is kept.
const REPS: usize = 3;

/// What a traced run reports.
pub struct Profile {
    /// Operations checked across the run's passes.
    pub attempted: u64,
    /// Checks that failed.
    pub failed: u64,
    /// The per-layer metrics.
    pub metrics: Metrics,
}

/// The engine sink that discards every step: times the step loop alone.
struct Discard;

impl StepSink for Discard {
    fn on_step(&mut self, _: u64, _: f64, _: f64, _: f64, _: &[axcc_fluidsim::StepRecord]) {}
    fn on_steps(&mut self, block: &StepBlock) {
        black_box(block.len());
    }
}

/// One explore cell's scenario, assembled as the experiment assembles it.
fn cell_scenario(point: &ParamPoint, loss: f64, steps: usize) -> Scenario {
    let proto = point.build();
    let mut sc = Scenario::new(LinkParams::reference())
        .steps(steps)
        .seed(EXPLORE_SEED);
    if loss > 0.0 {
        sc = sc.wire_loss(LossModel::Bernoulli { rate: loss });
    }
    for &w in &INITIAL_WINDOWS {
        sc = sc.sender(SenderConfig::new(proto.clone_box()).initial_window(w));
    }
    sc
}

/// `k` distinct indices below `n`, drawn from `rng`, in draw order.
fn sample_indices(rng: &mut ChaCha8Rng, n: usize, k: usize) -> Vec<usize> {
    let mut out = Vec::new();
    while out.len() < k.min(n) {
        let i = (rng.next_u64() % n as u64) as usize;
        if !out.contains(&i) {
            out.push(i);
        }
    }
    out
}

/// The traced cell sample: `SAMPLE_POINTS` seeded grid points, each at
/// every loss level, as `(point, level index)`.
pub fn cell_sample(ctx: &Ctx) -> Vec<(ParamPoint, usize)> {
    let grid = param_grid(ctx.budget);
    let levels = loss_levels(ctx.budget).len();
    let mut rng = ChaCha8Rng::seed_from_u64(ctx.seed ^ 0x5eed_ce11);
    sample_indices(&mut rng, grid.len(), SAMPLE_POINTS)
        .into_iter()
        .flat_map(|i| (0..levels).map(move |l| (i, l)))
        .map(|(i, l)| (grid[i], l))
        .collect()
}

/// Median seconds of `REPS` runs of `f`.
fn timed<T>(mut f: impl FnMut() -> T) -> f64 {
    timed_on(|| (), |()| f())
}

/// Median seconds of `REPS` runs of `f`, each on a fresh input from
/// `make` built outside the timed interval.
fn timed_on<S, T>(mut make: impl FnMut() -> S, mut f: impl FnMut(S) -> T) -> f64 {
    let v: Vec<f64> = (0..REPS)
        .map(|_| {
            let input = make();
            let t = Instant::now();
            black_box(f(input));
            secs(t)
        })
        .collect();
    median(&v)
}

/// How many 64-bit words the generator advanced from `before` to
/// `after`: step a clone of `before` one 32-bit word at a time until its
/// upcoming output matches `after`'s.
fn words_between(before: &ChaCha8Rng, after: &ChaCha8Rng) -> u64 {
    let upcoming = |r: &ChaCha8Rng| {
        let mut c = r.clone();
        [c.next_u32(), c.next_u32(), c.next_u32(), c.next_u32()]
    };
    let target = upcoming(after);
    let mut probe = before.clone();
    let mut halves = 0u64;
    while upcoming(&probe) != target && halves < 1 << 24 {
        probe.next_u32();
        halves += 1;
    }
    halves / 2
}

/// The lossy cells of the sample as `(rate, per-sender window columns)`,
/// the windows being those a traced run of the cell recorded.
fn lossy_windows(ctx: &Ctx) -> Vec<(f64, Vec<Vec<f64>>)> {
    let steps = ctx.budget.steps(PAPER_STEPS, SMOKE_STEPS);
    let levels = loss_levels(ctx.budget);
    cell_sample(ctx)
        .into_iter()
        .filter(|&(_, l)| levels[l] > 0.0)
        .filter_map(|(p, l)| {
            let trace = try_run_scenario(cell_scenario(&p, levels[l], steps)).ok()?;
            Some((
                levels[l],
                trace.senders.into_iter().map(|s| s.window).collect(),
            ))
        })
        .collect()
}

/// Call `sample` on every (step, sender) window of one cell, in the
/// engine's order, from the cell's seed.
fn replay(windows: &[Vec<f64>], mut sample: impl FnMut(&mut ChaCha8Rng, f64) -> f64) -> f64 {
    let mut rng = ChaCha8Rng::seed_from_u64(EXPLORE_SEED);
    let mut sum = 0.0;
    for t in 0..windows[0].len() {
        for w in windows {
            sum += sample(&mut rng, w[t]);
        }
    }
    sum
}

/// Uniform draws per `sample_loss_fraction` call over the sample's lossy
/// cells: an exact count, the same on every run with the same seed.
pub fn loss_draws(ctx: &Ctx) -> f64 {
    let (mut draws, mut calls) = (0u64, 0u64);
    for (rate, windows) in lossy_windows(ctx) {
        replay(&windows, |rng, w| {
            let before = rng.clone();
            let f = sample_loss_fraction(rng, w, rate);
            draws += words_between(&before, rng);
            calls += 1;
            f
        });
    }
    draws as f64 / calls.max(1) as f64
}

/// Per-cell timings of the fluid layers over the cell sample.
struct CellCosts {
    build_ns_per_cell: f64,
    engine_ns: f64,
    fold_ns: f64,
    score_ns_per_cell: f64,
    trace_record_ns: f64,
    trace_eval_ns: f64,
    loss_ns: f64,
    ratio: [f64; 3],
}

fn cell_costs(ctx: &Ctx) -> CellCosts {
    let steps = ctx.budget.steps(PAPER_STEPS, SMOKE_STEPS);
    let levels = loss_levels(ctx.budget);
    let sender_steps = (steps * INITIAL_WINDOWS.len()) as f64;
    let options = stream_options_for(MetricSet::SOLO);
    let streamed = |sc: Scenario| {
        let mut acc = metric_accumulator_for(&sc, &options);
        let _ = try_run_scenario_with(sc, &mut acc);
        acc
    };

    // Clean cells: the step loop alone, then what each sink adds to it.
    let grid = param_grid(ctx.budget);
    let mut rng = ChaCha8Rng::seed_from_u64(ctx.seed ^ 0xc1ea);
    let clean: Vec<ParamPoint> = sample_indices(&mut rng, grid.len(), CLEAN_POINTS)
        .into_iter()
        .map(|i| grid[i])
        .collect();
    let build = timed(|| {
        for p in &clean {
            black_box(cell_scenario(p, 0.0, steps));
        }
    });
    let (mut engine, mut stream, mut score, mut record, mut eval) = (0.0, 0.0, 0.0, 0.0, 0.0);
    for p in &clean {
        let make = || cell_scenario(p, 0.0, steps);
        engine += timed_on(make, |sc| try_run_scenario_with(sc, &mut Discard));
        let mut acc = None;
        stream += timed_on(make, |sc| acc = Some(streamed(sc)));
        if let Some(a) = &acc {
            score += timed(|| solo_metrics_of_acc(a));
        }
        let mut trace = None;
        record += timed_on(make, |sc| trace = try_run_scenario(sc).ok());
        if let Some(t) = &trace {
            eval += timed(|| solo_metrics_of_trace(t));
        }
    }

    // The sampled points at every loss level: streaming cost per level.
    let mut per_level = vec![0.0; levels.len()];
    for (p, l) in cell_sample(ctx) {
        per_level[l] += timed_on(|| cell_scenario(&p, levels[l], steps), streamed);
    }
    // The sampler replayed over each lossy cell's own windows.
    let lossy = lossy_windows(ctx);
    let loss_t: f64 = lossy
        .iter()
        .map(|(rate, windows)| {
            timed(|| replay(windows, |rng, w| sample_loss_fraction(rng, w, *rate)))
        })
        .sum();
    let loss_steps: usize = lossy.iter().map(|(_, w)| w.len() * w[0].len()).sum();
    let ratios: Vec<f64> = per_level[1..].iter().map(|t| t / per_level[0]).collect();
    let mean_ratio = ratios.iter().sum::<f64>() / ratios.len().max(1) as f64;
    let (lo, hi) = ratios.iter().fold((f64::INFINITY, 0.0f64), |(lo, hi), &r| {
        (lo.min(r), hi.max(r))
    });
    let n = clean.len() as f64;
    let per_step = 1e9 / (n * sender_steps);
    CellCosts {
        build_ns_per_cell: build * 1e9 / n,
        engine_ns: engine * per_step,
        fold_ns: (stream - engine) * per_step,
        score_ns_per_cell: score * 1e9 / n,
        trace_record_ns: (record - engine) * per_step,
        trace_eval_ns: eval * per_step,
        loss_ns: loss_t * 1e9 / loss_steps.max(1) as f64,
        ratio: [mean_ratio, lo, hi],
    }
}

/// Store, dispatch and fingerprint costs over the explore grid and the
/// store in `dir`, plus the report stage.
pub struct StoreCosts {
    fingerprint_ns: f64,
    dispatch_ns: f64,
    get_ns: f64,
    put_ns: f64,
    open_s: f64,
    bytes: f64,
    report_s: f64,
    /// Replica job digests found in the store.
    pub hits: usize,
}

pub fn store_costs(
    ctx: &Ctx,
    dir: &std::path::Path,
    spans: &mut Spans,
) -> Result<StoreCosts, String> {
    let jobs = explore_jobs(ctx);
    let n = jobs.len();
    let runner = SweepRunner::without_cache(ctx.workers);
    let mut digests: Vec<Digest> = Vec::new();
    let fingerprint = timed(|| {
        digests = jobs
            .iter()
            .map(|j| runner.job_digest("explore/grid", j))
            .collect();
    });
    let chunk = default_chunk_size(n, ctx.workers);
    let dispatch = timed(|| {
        run_chunked_cancellable(
            ctx.workers,
            n,
            chunk,
            |r, out: &mut Vec<usize>| out.extend(r),
            None,
        )
    });

    // Lookups as a new process makes them: fresh store, indexes built.
    let cache = open_store(dir);
    let t = Instant::now();
    let records: Vec<Option<Record>> = spans.time("sweep.store_get", || {
        digests.iter().map(|d| cache.get(d)).collect()
    });
    let get = secs(t);
    let hits = records.iter().filter(|r| r.is_some()).count();
    let bytes = cache.stats().segment_bytes() as f64;

    let mut one_per_shard: Vec<Option<Digest>> = vec![None; SHARD_COUNT];
    for d in &digests {
        one_per_shard[(d.hi >> 60) as usize].get_or_insert(*d);
    }
    let opens: Vec<f64> = (0..5)
        .map(|_| {
            let t = Instant::now();
            let c = ResultCache::with_disk(dir.to_path_buf());
            for d in one_per_shard.iter().flatten() {
                black_box(c.get(d));
            }
            secs(t)
        })
        .collect();

    let entries: Vec<(Digest, Record)> = digests
        .iter()
        .zip(&records)
        .filter_map(|(d, r)| r.clone().map(|r| (*d, r)))
        .collect();
    let batches: Vec<Vec<(Digest, Record)>> = entries.chunks(chunk).map(<[_]>::to_vec).collect();
    let sink = ResultCache::with_disk(ctx.fresh_dir("put-probe"));
    let t = Instant::now();
    for batch in batches {
        sink.put_batch(batch);
    }
    let put = secs(t);

    // The report stage: per-(level, family) fronts, then rendering.
    let metrics: Vec<SoloMetrics> = records
        .iter()
        .flatten()
        .filter_map(SoloMetrics::from_record)
        .collect();
    let warm = SweepRunner::with_cache_handle(ctx.workers, open_store(dir));
    let report = explore::run_explore_with(&warm, ctx.budget);
    let points = param_grid(ctx.budget).len();
    let t = Instant::now();
    if metrics.len() == n {
        for level in metrics.chunks(points) {
            for fam in explore::FAMILIES {
                let idx: Vec<usize> = (0..points)
                    .filter(|&i| jobs[i].point.family() == fam)
                    .collect();
                let eff_loss: Vec<(f64, f64)> = idx
                    .iter()
                    .map(|&i| (level[i].efficiency, level[i].loss_bound))
                    .collect();
                let eff_fair: Vec<(f64, f64)> = idx
                    .iter()
                    .map(|&i| (level[i].efficiency, -level[i].fairness))
                    .collect();
                black_box((front_2d(&eff_loss), front_2d(&eff_fair)));
            }
        }
    }
    black_box(report.render());
    let report_s = secs(t);
    Ok(StoreCosts {
        fingerprint_ns: fingerprint * 1e9 / n as f64,
        dispatch_ns: dispatch * 1e9 / n as f64,
        get_ns: get * 1e9 / n as f64,
        put_ns: put * 1e9 / entries.len().max(1) as f64,
        open_s: median(&opens),
        bytes,
        report_s,
        hits,
    })
}

/// Gauntlet's parking lot: one long flow over three hops of the
/// reference link, one short flow per hop, Reno and CUBIC.
fn network_ns_per_flow_step(ctx: &Ctx) -> f64 {
    const HOPS: usize = 3;
    let steps = ctx.budget.steps(2500, 600);
    let mut total = 0.0;
    for name in ["reno", "cubic"] {
        let Ok(proto) = resolve(name) else { continue };
        total += timed(|| {
            let mut sc = NetScenario::new(Topology::parking_lot(HOPS, LinkParams::reference()))
                .steps(steps)
                .flow(FlowConfig::new(proto.clone_box(), (0..HOPS).collect()));
            for l in 0..HOPS {
                sc = sc.flow(FlowConfig::new(proto.clone_box(), vec![l]));
            }
            sc.run()
        });
    }
    total * 1e9 / (2 * steps * (HOPS + 1)) as f64
}

/// Emulab-shaped packet runs: Reno from slow start, 42 ms RTT, flows
/// staggered by 2 s, on seeded cells of the paper grid.
fn packetsim_ns_per_packet(ctx: &Ctx) -> f64 {
    let mut rng = ChaCha8Rng::seed_from_u64(ctx.seed ^ 0xe1ab);
    let secs_per_run = if ctx.budget.smoke { 5.0 } else { 40.0 };
    let (mut t, mut sent) = (0.0, 0u64);
    for _ in 0..3 {
        let n = [2, 3, 4][(rng.next_u64() % 3) as usize];
        let bw = [20.0, 30.0, 60.0, 100.0][(rng.next_u64() % 4) as usize];
        let buf = [10.0, 100.0][(rng.next_u64() % 2) as usize];
        let link = LinkParams::from_experiment(Bandwidth::Mbps(bw), 42.0, buf);
        let Ok(reno) = resolve("reno") else { continue };
        let scenario = || {
            let mut sc = PacketScenario::new(link)
                .duration_secs(secs_per_run)
                .seed(0);
            for i in 0..n {
                let proto = Box::new(SlowStart::new(reno.clone_box(), f64::INFINITY));
                sc = sc.sender(PacketSenderConfig::new(proto).start_at_secs(i as f64 * 2.0));
            }
            sc
        };
        let mut out = None;
        t += timed(|| out = Some(scenario().run()));
        sent += out.map_or(0, |o| o.flows.iter().map(|f| f.sent).sum());
    }
    t * 1e9 / sent.max(1) as f64
}

/// The daemon's eval of `spec`, done through public calls: the traced
/// fluid run, solo metrics, and per-sender tail means.
fn serve_eval(spec: &crate::serve::Spec) -> Option<SoloMetrics> {
    let link = LinkParams::from_experiment(
        Bandwidth::Mbps(spec.mbps),
        crate::serve::RTT_MS,
        crate::serve::BUFFER_MSS,
    );
    let mut sc = Scenario::new(link).steps(spec.steps).seed(1);
    if spec.wire_loss > 0.0 {
        sc = sc.wire_loss(LossModel::Bernoulli {
            rate: spec.wire_loss,
        });
    }
    for name in spec.protocols {
        sc = sc.sender(SenderConfig::new(resolve(name).ok()?).initial_window(1.0));
    }
    let trace = sc.try_run().ok()?;
    let tail = trace.tail_start(0.5);
    for s in &trace.senders {
        black_box((s.mean_window_from(tail), s.mean_goodput_from(tail)));
    }
    Some(solo_metrics_of_trace(&trace))
}

/// Parse and miss-eval costs over the serve stream.
fn serve_costs(stream: &Stream, seed: u64) -> (f64, f64) {
    let lines = stream.lines();
    let parse = timed(|| {
        for l in &lines {
            black_box(parse_request(l.trim_end()).is_ok());
        }
    });
    let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0x5e7e);
    let picks = sample_indices(&mut rng, stream.specs.len(), 30);
    let eval: f64 = picks
        .iter()
        .map(|&i| timed(|| serve_eval(&stream.specs[i])))
        .sum();
    (
        parse * 1e9 / lines.len() as f64,
        eval * 1e3 / picks.len().max(1) as f64,
    )
}

/// Run the traced profile for workload `name`.
pub fn profile(name: &str, w: &mut dyn Workload, ctx: &Ctx) -> Result<Profile, String> {
    let mut spans = Spans::new(true);
    // Untraced passes on both sides of the traced one, so warm-up does
    // not land on either side of the overhead.
    let before = w.pass(ctx, &mut Spans::new(false))?;
    let traced = w.pass(ctx, &mut spans)?;
    let after = w.pass(ctx, &mut Spans::new(false))?;
    let untraced = Pass {
        wall_s: 0.5 * (before.wall_s + after.wall_s),
        cpu_s: 0.5 * (before.cpu_s + after.cpu_s),
        ..Pass::default()
    };
    let mut checks: Vec<Pass> = vec![before, traced.clone(), after];

    // The explore grid and a store a cold pass filled, then a warm pass.
    let dir = ctx.fresh_dir("explore");
    let cold = run_pass(&dir, ctx.workers, ctx.budget, &mut spans)?;
    let warm = run_pass(&dir, ctx.workers, ctx.budget, &mut spans)?;
    let jobs = explore_jobs(ctx);
    let n = jobs.len() as f64;
    let sc = store_costs(ctx, &dir, &mut spans)?;
    // The store probes must time hits: if the replica job stops
    // fingerprinting like the registry's, they would time misses, an
    // empty put and no fronts, so the run is marked incorrect.
    let probe_ok = sc.hits == jobs.len();
    if !probe_ok {
        eprintln!(
            "axbench: only {} of {} replica explore digests hit the store; \
             update `explore::ExploreJob` to the registry's fingerprint",
            sc.hits,
            jobs.len()
        );
    }
    checks.push(Pass {
        attempted: 3,
        failed: u64::from(!(cold.passed && cold.report == warm.report)) + u64::from(!probe_ok),
        ..Pass::default()
    });
    let cc = cell_costs(ctx);

    let mut suite = Suite::default();
    let mut suite_spans = Spans::new(true);
    let suite_pass = suite.pass(ctx, &mut suite_spans)?;
    let mut serve = Mixed::new(ctx);
    let serve_pass = serve.pass(ctx, &mut spans)?;
    let (parse_ns, miss_eval_ms) = serve_costs(&serve.stream, ctx.seed);
    checks.extend([suite_pass.clone(), serve_pass.clone()]);

    // Work counted from the inputs.
    let steps = ctx.budget.steps(PAPER_STEPS, SMOKE_STEPS) as f64;
    let sender_steps = n * steps * INITIAL_WINDOWS.len() as f64;
    let lossy_share = 1.0 - 1.0 / loss_levels(ctx.budget).len() as f64;
    let [hits, executed, overloaded] = serve.last.counters;

    // explore-cold, split by layer and scaled to the whole grid.
    let split = [
        ("split.engine_s", sender_steps * cc.engine_ns),
        ("split.loss_s", sender_steps * lossy_share * cc.loss_ns),
        ("split.fold_s", sender_steps * cc.fold_ns),
        ("split.score_s", n * cc.score_ns_per_cell),
        ("split.store_s", n * sc.put_ns),
        ("split.build_s", n * cc.build_ns_per_cell),
        ("split.fingerprint_s", n * sc.fingerprint_ns),
        ("split.dispatch_s", n * sc.dispatch_ns),
    ]
    .map(|(k, ns)| (k, ns * 1e-9));
    let accounted = match name {
        "explore-cold" => split.iter().map(|(_, s)| s).sum::<f64>(),
        "explore-warm" => n * (sc.fingerprint_ns + sc.get_ns + sc.dispatch_ns) * 1e-9 + sc.report_s,
        "serve-mixed" => {
            let requests = serve.stream.requests.len() as f64;
            (requests * parse_ns + hits as f64 * sc.get_ns) * 1e-9
                + executed as f64 * miss_eval_ms * 1e-3
        }
        // The suite's job shapes are private to the registry, so its
        // layer costs cannot be scaled to it. Its share is only the part of
        // the pass's wall time outside the 11 experiments' `run` calls
        // (harness overhead between them), not a split by layer.
        _ => experiments()
            .iter()
            .map(|e| suite_spans.total(&format!("analysis.exp_s.{}", e.name)))
            .sum(),
    };
    let unaccounted = if name == "suite" {
        1.0 - accounted / suite_pass.wall_s
    } else {
        1.0 - accounted / untraced.cpu_s
    };
    let hit_p50 = median(&serve.last.hit_latency_ms);

    let mut m: Metrics = vec![
        ("sweep.dispatch_ns_per_job".into(), sc.dispatch_ns, "ns"),
        (
            "sweep.fingerprint_ns_per_job".into(),
            sc.fingerprint_ns,
            "ns",
        ),
        ("sweep.store_get_ns".into(), sc.get_ns, "ns"),
        ("sweep.store_put_ns_per_record".into(), sc.put_ns, "ns"),
        ("sweep.store_open_s".into(), sc.open_s, "s"),
        ("sweep.store_bytes".into(), sc.bytes, "bytes"),
        (
            "sweep.hit_rate".into(),
            warm.hits as f64 / (warm.hits + warm.executed).max(1) as f64,
            "ratio",
        ),
        (
            "sweep.parallel_efficiency".into(),
            untraced.cpu_s / (untraced.wall_s * ctx.workers as f64),
            "ratio",
        ),
        (
            "protocols.build_ns_per_cell".into(),
            cc.build_ns_per_cell,
            "ns",
        ),
        (
            "fluidsim.engine_ns_per_sender_step".into(),
            cc.engine_ns,
            "ns",
        ),
        ("fluidsim.loss_ns_per_sender_step".into(), cc.loss_ns, "ns"),
        (
            "fluidsim.loss_rng_draws_per_sample".into(),
            loss_draws(ctx),
            "count",
        ),
        (
            "fluidsim.bernoulli_clean_cost_ratio".into(),
            cc.ratio[0],
            "ratio",
        ),
        (
            "fluidsim.bernoulli_clean_cost_ratio_min".into(),
            cc.ratio[1],
            "ratio",
        ),
        (
            "fluidsim.bernoulli_clean_cost_ratio_max".into(),
            cc.ratio[2],
            "ratio",
        ),
        ("fluidsim.sender_steps".into(), sender_steps, "count"),
        (
            "fluidsim.network_ns_per_flow_step".into(),
            network_ns_per_flow_step(ctx),
            "ns",
        ),
        ("core.fold_ns_per_sender_step".into(), cc.fold_ns, "ns"),
        (
            "core.trace_record_ns_per_sender_step".into(),
            cc.trace_record_ns,
            "ns",
        ),
        (
            "core.trace_eval_ns_per_sender_step".into(),
            cc.trace_eval_ns,
            "ns",
        ),
        (
            "analysis.score_ns_per_cell".into(),
            cc.score_ns_per_cell,
            "ns",
        ),
        ("analysis.report_s".into(), sc.report_s, "s"),
    ];
    for e in experiments() {
        let key = format!("analysis.exp_s.{}", e.name);
        m.push((key.clone(), suite_spans.total(&key), "s"));
    }
    m.extend([
        (
            "packetsim.ns_per_packet".into(),
            packetsim_ns_per_packet(ctx),
            "ns",
        ),
        ("serve.parse_ns".into(), parse_ns, "ns"),
        ("serve.miss_eval_ms".into(), miss_eval_ms, "ms"),
        (
            "serve.overhead_ms".into(),
            hit_p50 - (parse_ns + sc.get_ns) * 1e-6,
            "ms",
        ),
        ("serve.hits".into(), hits as f64, "count"),
        ("serve.executed".into(), executed as f64, "count"),
        ("serve.overloaded".into(), overloaded as f64, "count"),
        (
            "serve.sender_steps".into(),
            serve.stream.sender_steps() as f64,
            "count",
        ),
    ]);
    m.extend(split.iter().map(|&(k, s)| (k.to_string(), s, "s")));
    m.push(("unaccounted_share".into(), unaccounted, "ratio"));
    m.push((
        "trace_overhead_s".into(),
        traced.wall_s - untraced.wall_s,
        "s",
    ));

    for (span, t) in spans.totals().into_iter().chain(suite_spans.totals()) {
        println!("# span {span:<40} {t:>12.6} s");
    }
    Ok(Profile {
        attempted: checks.iter().map(|p| p.attempted).sum(),
        failed: checks.iter().map(|p| p.failed).sum(),
        metrics: m,
    })
}
