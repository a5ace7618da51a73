//! Command implementations.

use crate::args::Args;
use axcc_analysis::estimators::{
    empirical_scores_fluid, measure_friendliness_fluid, solo_metrics_of_trace,
};
use axcc_analysis::experiments::{
    extensions, figure1, find_experiment, frontier, gauntlet, registry, shootout, table1, table2,
    theorems, RunBudget,
};
use axcc_analysis::report::{fmt_ratio, fmt_score, TextTable};
use axcc_core::units::Bandwidth;
use axcc_core::{LinkParams, Protocol};
use axcc_fluidsim::{LossModel, Scenario, SenderConfig};
use axcc_packetsim::{PacketScenario, PacketSenderConfig};
use axcc_protocols::registry::resolve;
use axcc_serve::bench::{run_bench, run_bench_spawned, BenchConfig, BenchReport};
use axcc_serve::server::{run_until, ServeConfig};
use axcc_serve::ServeReport;
use axcc_sweep::progress::render_timings;
use axcc_sweep::{CancelSignal, EvalMode, ExperimentTiming, Stopwatch, SweepRunner};
use std::fmt::Write as _;

/// CLI usage text.
pub const HELP: &str = "\
axcc — An Axiomatic Approach to Congestion Control (HotNets-XVI 2017)

usage: axcc <command> [flags]

scenario commands (default link: 20 Mbps, 42 ms RTT, 100-MSS buffer):
  axcc run      --protocols p1,p2,…  run a shared-link scenario and score it
                [--csv FILE]           dump the full trace as CSV
                [--steps N]            fluid-model steps (default 2000)
                [--packet --duration S] packet-level backend instead
                [--wire-loss R --seed N --stagger-s S --ecn K]
  axcc score    --protocol P          measure the full empirical 8-tuple
                [--steps N]
  axcc compare  --challenger P --defender Q   Metric VII head-to-head
                [--n-challengers K --steps N]

paper artifacts:
  axcc table1     [--simulate]   Table 1 (protocol characterization)
  axcc table2                    Table 2 (R-AIMD vs PCC friendliness grid)
  axcc figure1    [--validate]   Figure 1 (Pareto frontier surface)
  axcc theorems                  Claim 1 + Theorems 1–5 checks
  axcc shootout                  §5.2 robustness shootout
  axcc gauntlet   [--steps N]    adverse-network gauntlet (Metric VI under
                                 Gilbert–Elliott bursty loss)
  axcc extensions                §6 extension metrics (smoothness, …)
  axcc aqm        [--duration S] droptail vs ECN vs RED comparison

sweep engine (parallel + content-addressed cache; see DESIGN.md):
  axcc sweep    --experiment NAME   one registry experiment through the
                                    sweep engine (`axcc list` shows names)
                [--only n1,n2,…]    comma-separated list of experiments
                [--cache-stats]     append a result-store report (per-shard
                                    segment sizes, hit/miss/heal counters)
  axcc run-all  [--out-dir D]       the full experiment suite; writes one
                                    report per experiment to D when given
                [--only n1,n2,…]    restrict to a subset of experiments
  flags for both:
                [--jobs N]     worker threads (0 = all cores; default 1)
                [--chunk-size N] jobs claimed per worker grab (0 = auto,
                                scaled to jobs/workers; results identical)
                [--smoke]      reduced run lengths (CI scale)
                [--no-cache]   disable the result cache
                [--cache-dir D] persist the cache under D
                                (default target/sweep-cache)
                [--record-traces] evaluate via full trace recording instead
                                of the streaming fast path (escape hatch;
                                results are bit-identical either way)

evaluation service (newline-delimited JSON over TCP; see DESIGN.md §5):
  axcc serve    [--addr H:P]        fault-tolerant evaluation daemon
                [--workers N --queue N --max-conns N]
                [--deadline-ms MS --idle-ms MS]
                [--cache-dir D]     persist the result cache
                [--debug-ops]       enable the test-only fault ops
                                    Ctrl-C drains gracefully
  axcc bench-serve [--addr H:P | --spawn]  closed-loop bench client
                [--levels 1,4,16 --requests N --steps N]
                [--workers N]       worker pool for --spawn
                [--out FILE]        write the JSON report (BENCH_service.json)

misc:
  axcc characterize [--steps N]  empirical 8-tuples for the whole lineup
  axcc frontier     [--steps N]  empirical Pareto-frontier search
  axcc network  --protocol P --hops K  parking-lot topology run
  axcc feasible --fast A --eff B --friendly F [--robust R --conv C --loss L]
                                 check a target point against Theorems 1-5
  axcc list                      protocol + experiment registries
  axcc help                      this text

link flags (anywhere): --bw-mbps F  --rtt-ms F  --buffer F
output flags:          --json       append machine-readable JSON
protocol names:        reno, cubic, scalable, robust-aimd, pcc, vegas, bbr,
                       aimd(a,b), mimd(a,b), bin(a,b,k,l), cubic(c,b),
                       r-aimd(a,b,eps), vegas(alpha,beta)
";

/// Command errors.
#[derive(Debug)]
pub enum CliError {
    /// User error: print usage, exit 2.
    Usage(String),
    /// Runtime failure: exit 1.
    Failed(String),
}

/// Lift a `serde_json` serialization result into [`CliError`] so the
/// `--json` paths never panic on a serializer failure.
fn json_or_err(r: Result<String, serde_json::Error>) -> Result<String, CliError> {
    r.map_err(|e| CliError::Failed(format!("JSON serialization failed: {e}")))
}

impl From<crate::args::ArgError> for CliError {
    fn from(e: crate::args::ArgError) -> Self {
        CliError::Usage(e.to_string())
    }
}

/// Dispatch a parsed command, returning the output text.
pub fn dispatch(args: &Args) -> Result<String, CliError> {
    match args.command.as_str() {
        "help" | "--help" | "-h" => Ok(HELP.to_string()),
        "list" => cmd_list(args),
        "run" => cmd_run(args),
        "score" => cmd_score(args),
        "compare" => cmd_compare(args),
        "table1" => cmd_table1(args),
        "table2" => cmd_table2(args),
        "figure1" => cmd_figure1(args),
        "theorems" => cmd_theorems(args),
        "shootout" => cmd_shootout(args),
        "gauntlet" => cmd_gauntlet(args),
        "extensions" => cmd_extensions(args),
        "aqm" => cmd_aqm(args),
        "sweep" => cmd_sweep(args),
        "run-all" => cmd_run_all(args),
        "serve" => cmd_serve(args),
        "bench-serve" => cmd_bench_serve(args),
        "characterize" => cmd_characterize(args),
        "frontier" => cmd_frontier(args),
        "network" => cmd_network(args),
        "feasible" => cmd_feasible(args),
        other => Err(CliError::Usage(format!("unknown command {other:?}"))),
    }
}

/// Parse the shared link flags.
fn link_from(args: &Args) -> Result<LinkParams, CliError> {
    let bw = args.get_f64("bw-mbps", 20.0)?;
    let rtt = args.get_f64("rtt-ms", 42.0)?;
    let buffer = args.get_f64("buffer", 100.0)?;
    if bw <= 0.0 || rtt <= 0.0 || buffer < 0.0 {
        return Err(CliError::Usage(
            "link parameters must be positive (buffer may be 0)".into(),
        ));
    }
    Ok(LinkParams::from_experiment(
        Bandwidth::Mbps(bw),
        rtt,
        buffer,
    ))
}

/// Parse `--steps`, rejecting 0 before any experiment loop can panic on it.
fn steps_from(args: &Args, default: usize) -> Result<usize, CliError> {
    let steps = args.get_usize("steps", default)?;
    if steps == 0 {
        return Err(CliError::Usage("--steps must be at least 1".into()));
    }
    Ok(steps)
}

fn resolve_protocol(name: &str) -> Result<Box<dyn Protocol>, CliError> {
    resolve(name).map_err(|e| CliError::Usage(e.to_string()))
}

fn cmd_list(args: &Args) -> Result<String, CliError> {
    args.finish()?;
    let mut out = String::from("protocol registry:\n\n  aliases:\n");
    for (alias, desc) in [
        ("reno", "TCP Reno = AIMD(1,0.5), the Metric VII reference"),
        ("cubic", "TCP Cubic = CUBIC(0.4,0.8)"),
        ("scalable", "TCP Scalable = MIMD(1.01,0.875)"),
        ("scalable-aimd", "TCP Scalable's AIMD mode = AIMD(1,0.875)"),
        ("robust-aimd", "the paper's Robust-AIMD(1,0.8,0.01)"),
        ("pcc", "PCC-style monitor-interval utility controller"),
        ("vegas", "Vegas-style latency avoider (Theorem 5 foil)"),
        ("bbr", "BBR-style bandwidth/RTT estimator (§6 extension)"),
        (
            "tfrc",
            "TFRC-style equation-based protocol (reference [13])",
        ),
        (
            "highspeed",
            "HighSpeed TCP (RFC 3649), window-dependent AIMD",
        ),
    ] {
        let _ = writeln!(out, "    {alias:<14} {desc}");
    }
    out.push_str(
        "\n  parameterized families:\n    aimd(a,b)  mimd(a,b)  bin(a,b,k,l)  cubic(c,b)  r-aimd(a,b,eps)  vegas(alpha,beta)\n",
    );
    out.push_str("\nexperiment registry (axcc sweep --experiment NAME | --only n1,n2,…):\n\n");
    let mut t = TextTable::new(["name", "family", "paper/smoke budget", "streaming"]);
    for e in registry() {
        t.row(vec![
            e.name.to_string(),
            e.family.to_string(),
            e.budget.to_string(),
            if e.supports_streaming {
                "yes"
            } else {
                "traced-only"
            }
            .to_string(),
        ]);
    }
    for line in t.render().lines() {
        let _ = writeln!(out, "  {line}");
    }
    Ok(out)
}

fn cmd_run(args: &Args) -> Result<String, CliError> {
    let names = args.get_list("protocols");
    if names.is_empty() {
        return Err(CliError::Usage("run needs --protocols p1[,p2,…]".into()));
    }
    let link = link_from(args)?;
    let packet = args.get_bool("packet");
    let wire = args.get_f64("wire-loss", 0.0)?;
    let seed = args.get_usize("seed", 0)? as u64;
    let stagger = args.get_f64("stagger-s", 0.0)?;
    let steps = steps_from(args, 2000)?;
    let duration = args.get_f64("duration", 30.0)?;
    let ecn = args
        .get("ecn")
        .map(|v| v.parse::<usize>())
        .transpose()
        .map_err(|_| CliError::Usage("--ecn takes a marking threshold in packets".into()))?;
    let csv_path = args.get("csv").map(str::to_string);
    let json = args.get_bool("json");
    args.finish()?;

    let mut out = format!(
        "link: {:.1} Mbps ({:.0} MSS/s), RTT {:.0} ms, buffer {:.0} MSS — C = {:.1} MSS\n",
        axcc_core::units::mss_per_sec_to_mbps(link.bandwidth),
        link.bandwidth,
        axcc_core::units::sec_to_ms(link.min_rtt()),
        link.buffer,
        link.capacity()
    );

    let trace = if packet {
        let mut sc = PacketScenario::new(link).duration_secs(duration).seed(seed);
        if wire > 0.0 {
            sc = sc.wire_loss(wire);
        }
        if let Some(k) = ecn {
            sc = sc.ecn_threshold(k);
        }
        for (i, n) in names.iter().enumerate() {
            sc = sc.sender(
                PacketSenderConfig::new(resolve_protocol(n)?).start_at_secs(i as f64 * stagger),
            );
        }
        let sim = sc.try_run().map_err(|e| CliError::Usage(e.to_string()))?;
        let _ = writeln!(out, "backend: packet-level, {duration} s simulated");
        let mut t = TextTable::new(["flow", "packets sent", "acked", "lost", "epochs"]);
        for (i, f) in sim.flows.iter().enumerate() {
            t.row([
                format!("{i}:{}", sim.trace.senders[i].protocol),
                f.sent.to_string(),
                f.acked.to_string(),
                f.lost.to_string(),
                f.epochs.to_string(),
            ]);
        }
        out.push_str(&t.render());
        sim.trace
    } else {
        if ecn.is_some() {
            return Err(CliError::Usage(
                "--ecn requires the packet-level backend (add --packet)".into(),
            ));
        }
        let mut sc = Scenario::new(link).steps(steps).seed(seed);
        if wire > 0.0 {
            sc = sc.wire_loss(LossModel::Bernoulli { rate: wire });
        }
        for (i, n) in names.iter().enumerate() {
            sc = sc.sender(
                SenderConfig::new(resolve_protocol(n)?)
                    .initial_window(1.0)
                    .start_at((i as f64 * stagger / link.min_rtt()) as u64),
            );
        }
        let _ = writeln!(out, "backend: fluid model, {steps} RTT steps");
        sc.try_run().map_err(|e| CliError::Usage(e.to_string()))?
    };

    if let Some(path) = &csv_path {
        std::fs::write(path, trace.to_csv())
            .map_err(|e| CliError::Failed(format!("cannot write {path}: {e}")))?;
        let _ = writeln!(out, "trace written to {path}");
    }
    let tail = trace.tail_start(0.5);
    let m = solo_metrics_of_trace(&trace);
    let mut t = TextTable::new(["sender", "mean window (tail)", "mean goodput (MSS/s)"]);
    for s in &trace.senders {
        t.row([
            s.protocol.clone(),
            fmt_score(s.mean_window_from(tail)),
            format!("{:.1}", s.mean_goodput_from(tail)),
        ]);
    }
    out.push('\n');
    out.push_str(&t.render());
    let _ = writeln!(
        out,
        "\nscores over the tail: efficiency {}  loss bound {}  fairness {}  convergence {}  latency {}",
        fmt_score(m.efficiency),
        fmt_score(m.loss_bound),
        fmt_score(m.fairness),
        fmt_score(m.convergence),
        fmt_score(m.latency_inflation),
    );
    if json {
        let _ = writeln!(out, "{}", json_or_err(serde_json::to_string(&m))?);
    }
    Ok(out)
}

fn cmd_score(args: &Args) -> Result<String, CliError> {
    let name = args
        .get("protocol")
        .ok_or_else(|| CliError::Usage("score needs --protocol".into()))?
        .to_string();
    let link = link_from(args)?;
    let steps = steps_from(args, 3000)?;
    let n = args.get_usize("senders", 2)?;
    let json = args.get_bool("json");
    args.finish()?;
    let proto = resolve_protocol(&name)?;
    let scores = empirical_scores_fluid(proto.as_ref(), link, n, steps, EvalMode::Streaming);
    let mut out = format!(
        "{} on the configured link ({n} senders, {steps} steps):\n\n",
        proto.name()
    );
    for (label, v) in [
        ("efficiency", scores.efficiency),
        ("fast-util", scores.fast_utilization),
        ("loss bound", scores.loss_bound),
        ("fairness", scores.fairness),
        ("convergence", scores.convergence),
        ("robustness", scores.robustness),
        ("tcp-friendliness", scores.tcp_friendliness),
        ("latency inflation", scores.latency_inflation),
    ] {
        let _ = writeln!(out, "  {label:<18} {}", fmt_score(v));
    }
    if json {
        let _ = writeln!(out, "\n{}", json_or_err(serde_json::to_string(&scores))?);
    }
    Ok(out)
}

fn cmd_compare(args: &Args) -> Result<String, CliError> {
    let challenger = args
        .get("challenger")
        .ok_or_else(|| CliError::Usage("compare needs --challenger".into()))?
        .to_string();
    let defender = args.get_or("defender", "reno").to_string();
    let link = link_from(args)?;
    let steps = steps_from(args, 3000)?;
    let n_p = args.get_usize("n-challengers", 1)?;
    args.finish()?;
    let p = resolve_protocol(&challenger)?;
    let q = resolve_protocol(&defender)?;
    let f = measure_friendliness_fluid(
        p.as_ref(),
        q.as_ref(),
        link,
        n_p,
        1,
        steps,
        &[(1.0, 1.0)],
        EvalMode::Streaming,
    );
    Ok(format!(
        "{} vs {} ({}+1 senders): friendliness = {}\n(1.0 = the defender keeps pace; 0 = starved)\n",
        p.name(),
        q.name(),
        n_p,
        fmt_score(f)
    ))
}

/// The lineup the `characterize` command scores.
const CHARACTERIZE_LINEUP: [&str; 10] = [
    "reno",
    "cubic",
    "scalable",
    "bin(1,0.5,1,0)",
    "robust-aimd",
    "pcc",
    "vegas",
    "bbr",
    "tfrc",
    "highspeed",
];

fn cmd_aqm(args: &Args) -> Result<String, CliError> {
    use axcc_analysis::experiments::aqm;
    let duration = args.get_f64("duration", 30.0)?;
    let n = args.get_usize("senders", 2)?;
    args.finish()?;
    Ok(aqm::run_aqm_comparison(n, duration).render())
}

fn cmd_characterize(args: &Args) -> Result<String, CliError> {
    let link = link_from(args)?;
    let steps = steps_from(args, 2500)?;
    let n = args.get_usize("senders", 2)?;
    let json = args.get_bool("json");
    args.finish()?;
    let mut t = TextTable::new([
        "protocol", "eff", "fast", "loss", "fair", "conv", "robust", "friendly", "latency",
    ]);
    let mut rows = Vec::new();
    for name in CHARACTERIZE_LINEUP {
        let proto = resolve_protocol(name)?;
        let s = empirical_scores_fluid(proto.as_ref(), link, n, steps, EvalMode::Streaming);
        t.row([
            proto.name(),
            fmt_score(s.efficiency),
            fmt_score(s.fast_utilization),
            fmt_score(s.loss_bound),
            fmt_score(s.fairness),
            fmt_score(s.convergence),
            fmt_score(s.robustness),
            fmt_score(s.tcp_friendliness),
            fmt_score(s.latency_inflation),
        ]);
        rows.push(serde_json::json!({"protocol": proto.name(), "scores": s}));
    }
    let mut out = format!(
        "empirical 8-tuples on the configured link ({n} senders, {steps} steps)\n\n{}",
        t.render()
    );
    if json {
        let _ = writeln!(out, "\n{}", serde_json::Value::from(rows));
    }
    Ok(out)
}

fn cmd_frontier(args: &Args) -> Result<String, CliError> {
    let link = link_from(args)?;
    let steps = steps_from(args, 2500)?;
    let json = args.get_bool("json");
    args.finish()?;
    let f = frontier::search_frontier(link, steps);
    let mut out = f.render();
    if json {
        let _ = writeln!(out, "\n{}", json_or_err(serde_json::to_string(&f))?);
    }
    Ok(out)
}

fn cmd_network(args: &Args) -> Result<String, CliError> {
    use axcc_fluidsim::{FlowConfig, NetScenario, Topology};
    let name = args.get_or("protocol", "reno").to_string();
    let hops = args.get_usize("hops", 3)?;
    if hops == 0 {
        return Err(CliError::Usage("--hops must be at least 1".into()));
    }
    let steps = steps_from(args, 4000)?;
    let link = link_from(args)?;
    args.finish()?;
    let proto = resolve_protocol(&name)?;
    let mut sc = NetScenario::new(Topology::parking_lot(hops, link)).steps(steps);
    sc = sc.flow(FlowConfig::new(proto.clone_box(), (0..hops).collect()));
    for l in 0..hops {
        sc = sc.flow(FlowConfig::new(proto.clone_box(), vec![l]));
    }
    let net = sc.run();
    let tail = net.tail_start(0.5);
    let mut out = format!(
        "parking lot: {hops} hops of C = {:.1} MSS; 1 long {} flow + {hops} short flows\n\n",
        link.capacity(),
        proto.name()
    );
    let long = net.flow_goodput(0, tail);
    let _ = writeln!(out, "long flow goodput:  {long:.1} MSS/s");
    let mut shorts = 0.0;
    for f in 1..=hops {
        let g = net.flow_goodput(f, tail);
        shorts += g;
        let _ = writeln!(out, "short flow (hop {}): {g:.1} MSS/s", f - 1);
    }
    let _ = writeln!(
        out,
        "long/short ratio:   {:.2}",
        long / (shorts / hops as f64)
    );
    for l in 0..hops {
        let _ = writeln!(
            out,
            "hop {l} utilization:   {:.2}",
            net.link_utilization(l, tail)
        );
    }
    Ok(out)
}

fn cmd_feasible(args: &Args) -> Result<String, CliError> {
    use axcc_core::theory::feasibility::infeasibilities_loss_based;
    let fast = args.get_f64("fast", 1.0)?;
    let eff = args.get_f64("eff", 0.5)?;
    let friendly = args.get_f64("friendly", 1.0)?;
    let robust = args.get_f64("robust", 0.0)?;
    let conv = args.get_f64("conv", 0.0)?;
    let loss = args.get_f64("loss", 1.0)?;
    let link = link_from(args)?;
    args.finish()?;
    let scores = axcc_core::AxiomScores {
        efficiency: eff,
        fast_utilization: fast,
        loss_bound: loss,
        fairness: 1.0,
        convergence: conv,
        robustness: robust,
        tcp_friendliness: friendly,
        latency_inflation: f64::INFINITY,
    };
    let violations = infeasibilities_loss_based(&scores, link.loss_threshold(), None);
    if violations.is_empty() {
        Ok(format!(
            "no theorem rules this point out (fast={fast}, eff={eff}, friendly={friendly},              robust={robust}) — note: consistency is necessary, not sufficient, for feasibility\n"
        ))
    } else {
        let mut out = String::from("INFEASIBLE (universal scores for a loss-based protocol):\n");
        for v in violations {
            let _ = writeln!(out, "  - {v}");
        }
        Ok(out)
    }
}

fn cmd_table1(args: &Args) -> Result<String, CliError> {
    let simulate = args.get_bool("simulate");
    let link = link_from(args)?;
    let steps = steps_from(args, 2000)?;
    args.finish()?;
    let t = if simulate {
        table1::empirical_table1(link, 2, steps)
    } else {
        table1::theoretical_table1(link.capacity(), link.buffer, 2)
    };
    Ok(t.render())
}

fn cmd_table2(args: &Args) -> Result<String, CliError> {
    let steps = steps_from(args, 2000)?;
    args.finish()?;
    let t = table2::build_table2_fluid(steps);
    Ok(format!(
        "{}\naverage improvement: {}\n",
        t.render(),
        fmt_ratio(t.average_improvement())
    ))
}

fn cmd_figure1(args: &Args) -> Result<String, CliError> {
    let validate = args.get_bool("validate");
    let link = link_from(args)?;
    let steps = steps_from(args, 2000)?;
    args.finish()?;
    let fig = if validate {
        figure1::validated_surface(
            &figure1::DEFAULT_ALPHAS,
            &figure1::DEFAULT_BETAS,
            link,
            steps,
        )
    } else {
        figure1::frontier_surface(&figure1::DEFAULT_ALPHAS, &figure1::DEFAULT_BETAS)
    };
    Ok(fig.render())
}

fn cmd_theorems(args: &Args) -> Result<String, CliError> {
    let steps = steps_from(args, 2500)?;
    args.finish()?;
    let checks = theorems::check_all(steps);
    let out = theorems::render_checks(&checks);
    if checks.iter().all(|c| c.passed) {
        Ok(out)
    } else {
        Err(CliError::Failed(out))
    }
}

fn cmd_shootout(args: &Args) -> Result<String, CliError> {
    let steps = steps_from(args, 2000)?;
    args.finish()?;
    Ok(shootout::run_shootout(steps).render())
}

fn cmd_gauntlet(args: &Args) -> Result<String, CliError> {
    let steps = steps_from(args, 2500)?;
    let json = args.get_bool("json");
    args.finish()?;
    let rep = gauntlet::run_gauntlet(steps);
    let mut out = rep.render();
    if json {
        let _ = writeln!(out, "\n{}", json_or_err(serde_json::to_string(&rep))?);
    }
    Ok(out)
}

fn cmd_extensions(args: &Args) -> Result<String, CliError> {
    let steps = steps_from(args, 2000)?;
    args.finish()?;
    Ok(extensions::run_extension_report(steps).render())
}

/// Build a [`SweepRunner`] from the shared sweep flags (`--jobs`,
/// `--no-cache`, `--cache-dir`, `--record-traces`). The default is a disk
/// cache under `target/sweep-cache`, so a repeated invocation is answered
/// warm, and the streaming (trace-free) evaluation mode; `--record-traces`
/// switches metric-only experiments back to full trace recording.
fn runner_from(args: &Args) -> Result<SweepRunner, CliError> {
    let jobs = args.get_usize("jobs", 1)?;
    let chunk = args.get_usize("chunk-size", 0)?;
    let no_cache = args.get_bool("no-cache");
    let cache_dir = args.get("cache-dir").map(str::to_string);
    let mode = if args.get_bool("record-traces") {
        EvalMode::Traced
    } else {
        EvalMode::Streaming
    };
    let runner = if no_cache {
        if cache_dir.is_some() {
            return Err(CliError::Usage(
                "--no-cache and --cache-dir are mutually exclusive".into(),
            ));
        }
        SweepRunner::without_cache(jobs)
    } else {
        let dir = cache_dir.unwrap_or_else(|| "target/sweep-cache".to_string());
        SweepRunner::with_disk_cache(jobs, dir.into())
    };
    // Ctrl-C during a sweep drains in-flight jobs (already persisted by
    // the write-through cache), prints the partial progress, and exits
    // 130 — a rerun resumes from the cache instead of starting over.
    sigmon::install();
    let caching = !no_cache;
    Ok(runner
        .with_chunk_size(chunk)
        .with_eval_mode(mode)
        .with_cancel(CancelSignal::from_fn(sigmon::interrupted))
        .with_interrupt_hook(Box::new(move |info| {
            let resume = if caching {
                "; completed results are cached, rerun to resume"
            } else {
                " (pass a cache to make interrupted runs resumable)"
            };
            eprintln!(
                "\ninterrupted: {} of {} jobs finished{resume}",
                info.completed, info.total
            );
            std::process::exit(130);
        })))
}

/// Render the runner's result-store statistics (`sweep --cache-stats`):
/// process-lifetime hit/miss/heal counters, the in-memory index size, and
/// one row per on-disk shard with its entry count and segment bytes — the
/// observable footprint of the sharded log-structured store (O(shards)
/// files regardless of job count).
fn render_cache_stats(runner: &SweepRunner) -> String {
    let Some(cache) = runner.cache_handle() else {
        return "result store: disabled (--no-cache)\n".to_string();
    };
    let s = cache.stats();
    let mut out = format!(
        "result store: {} hits / {} misses this process, {} heal event(s)\n\
         in-memory index: {} entries; on disk: {} entries in {} segment file(s), {} bytes\n",
        s.hits,
        s.misses,
        s.heal_events,
        s.mem_entries,
        s.disk_entries(),
        s.shards.iter().filter(|sh| sh.entries > 0).count(),
        s.segment_bytes(),
    );
    if !s.shards.is_empty() {
        let mut t = TextTable::new(["shard", "entries", "bytes"]);
        for (id, sh) in s.shards.iter().enumerate() {
            t.row([
                format!("{id:02x}"),
                sh.entries.to_string(),
                sh.segment_bytes.to_string(),
            ]);
        }
        out.push_str(&t.render());
    }
    out
}

/// Shared budget flag: `--smoke` selects CI-scale run lengths.
fn budget_from(args: &Args) -> RunBudget {
    if args.get_bool("smoke") {
        RunBudget::smoke()
    } else {
        RunBudget::paper()
    }
}

fn cmd_sweep(args: &Args) -> Result<String, CliError> {
    // Accept both spellings: `--experiment NAME` (one experiment) and
    // `--only n1,n2,…` (a comma-separated list, as in `run-all`).
    let mut names: Vec<String> = args.get_list("only");
    if let Some(name) = args.get("experiment") {
        names.insert(0, name.to_string());
    }
    if names.is_empty() {
        return Err(CliError::Usage(
            "sweep needs --experiment NAME or --only n1,n2,… (see `axcc list`)".into(),
        ));
    }
    let runner = runner_from(args)?;
    let budget = budget_from(args);
    let want_cache_stats = args.get_bool("cache-stats");
    args.finish()?;
    let mut experiments = Vec::new();
    for name in &names {
        experiments.push(find_experiment(name).ok_or_else(|| {
            let known: Vec<&str> = registry().iter().map(|e| e.name).collect();
            CliError::Usage(format!(
                "unknown experiment {name:?}; known: {}",
                known.join(", ")
            ))
        })?);
    }
    let mut out = String::new();
    let mut failures = Vec::new();
    for (i, exp) in experiments.iter().enumerate() {
        if i > 0 {
            out.push('\n');
        }
        let sw = Stopwatch::start();
        let outcome = (exp.run)(&runner, budget);
        let stats = runner.take_stats();
        let _ = write!(out, "{} — {}\n\n{}", exp.name, exp.artifact, outcome.report);
        // Wall clock varies run to run: keep it off stdout so the report
        // stays byte-deterministic.
        eprintln!(
            "{}: {} jobs over {} workers in {:.2} s ({} from cache, {:.1}% hit rate)",
            exp.name,
            stats.jobs(),
            runner.workers(),
            sw.elapsed_secs(),
            stats.cache_hits,
            100.0 * stats.hit_rate(),
        );
        if !outcome.passed {
            failures.push(exp.name);
        }
    }
    if want_cache_stats {
        out.push('\n');
        out.push_str(&render_cache_stats(&runner));
    }
    if failures.is_empty() {
        Ok(out)
    } else {
        let _ = writeln!(
            out,
            "\nexperiment predicate FAILED: {}",
            failures.join(", ")
        );
        Err(CliError::Failed(out))
    }
}

fn cmd_run_all(args: &Args) -> Result<String, CliError> {
    let runner = runner_from(args)?;
    let budget = budget_from(args);
    let out_dir = args.get("out-dir").map(str::to_string);
    let only = args.get_list("only");
    args.finish()?;
    let suite: Vec<_> = if only.is_empty() {
        registry()
    } else {
        let mut picked = Vec::new();
        for name in &only {
            picked.push(find_experiment(name).ok_or_else(|| {
                let known: Vec<&str> = registry().iter().map(|e| e.name).collect();
                CliError::Usage(format!(
                    "unknown experiment {name:?} in --only; known: {}",
                    known.join(", ")
                ))
            })?);
        }
        picked
    };
    if let Some(dir) = &out_dir {
        std::fs::create_dir_all(dir)
            .map_err(|e| CliError::Failed(format!("cannot create {dir}: {e}")))?;
    }
    let mut out = format!(
        "running the full experiment suite ({} scale, cache {})\n\n",
        if budget.smoke { "smoke" } else { "paper" },
        if runner.caching() { "on" } else { "off" },
    );
    let mut timings = Vec::new();
    let mut failures = Vec::new();
    for exp in suite {
        let sw = Stopwatch::start();
        let outcome = (exp.run)(&runner, budget);
        let stats = runner.take_stats();
        timings.push(ExperimentTiming {
            name: exp.name.to_string(),
            wall_secs: sw.elapsed_secs(),
            jobs: stats.jobs(),
            cache_hits: stats.cache_hits,
        });
        let verdict = if outcome.passed { "ok" } else { "FAILED" };
        let _ = writeln!(out, "  {:<12} {}", exp.name, verdict);
        if !outcome.passed {
            failures.push(exp.name);
        }
        if let Some(dir) = &out_dir {
            let path = format!("{dir}/{}.txt", exp.name);
            std::fs::write(&path, &outcome.report)
                .map_err(|e| CliError::Failed(format!("cannot write {path}: {e}")))?;
        }
    }
    // Wall clock varies run to run and the worker count is a knob: keep
    // both off stdout so the summary is byte-identical at any `--jobs`.
    eprint!(
        "\n{} workers\n{}",
        runner.workers(),
        render_timings(&timings)
    );
    if let Some(dir) = &out_dir {
        let _ = writeln!(out, "\nreports written to {dir}/");
    }
    if failures.is_empty() {
        Ok(out)
    } else {
        let _ = writeln!(out, "\nFAILED experiments: {}", failures.join(", "));
        Err(CliError::Failed(out))
    }
}

/// Parse the daemon flags shared by `serve` and `bench-serve --spawn`.
fn serve_config_from(args: &Args, default_workers: usize) -> Result<ServeConfig, CliError> {
    let defaults = ServeConfig::default();
    let queue = args.get_usize("queue", defaults.queue_capacity)?;
    let max_conns = args.get_usize("max-conns", defaults.max_connections)?;
    let deadline_ms = args.get_usize("deadline-ms", defaults.default_deadline_ms as usize)? as u64;
    let idle_ms = args.get_usize("idle-ms", defaults.idle_timeout_ms as usize)? as u64;
    if deadline_ms == 0 || idle_ms == 0 {
        return Err(CliError::Usage(
            "--deadline-ms and --idle-ms must be at least 1".into(),
        ));
    }
    Ok(ServeConfig {
        addr: args.get_or("addr", &defaults.addr).to_string(),
        workers: args.get_usize("workers", default_workers)?,
        queue_capacity: queue,
        max_connections: max_conns,
        default_deadline_ms: deadline_ms,
        idle_timeout_ms: idle_ms,
        cache_dir: args.get("cache-dir").map(Into::into),
        debug_ops: args.get_bool("debug-ops"),
    })
}

fn cmd_serve(args: &Args) -> Result<String, CliError> {
    let config = serve_config_from(args, ServeConfig::default().workers)?;
    args.finish()?;
    sigmon::install();
    let handle = axcc_serve::start(config)
        .map_err(|e| CliError::Failed(format!("cannot start the daemon: {e}")))?;
    // The daemon blocks until drained; announce liveness on stderr now
    // rather than in the return value the caller only sees at exit.
    eprintln!(
        "axcc serve listening on {} (Ctrl-C or the `shutdown` op drains)",
        handle.addr()
    );
    let report = run_until(handle, &sigmon::interrupted);
    Ok(format!("{}\n", report.render()))
}

fn cmd_bench_serve(args: &Args) -> Result<String, CliError> {
    let spawn = args.get_bool("spawn");
    let addr = args.get("addr").map(str::to_string);
    if spawn && addr.is_some() {
        return Err(CliError::Usage(
            "--spawn and --addr are mutually exclusive (spawn picks an ephemeral port)".into(),
        ));
    }
    let mut cfg = BenchConfig::default();
    if let Some(a) = addr {
        cfg.addr = a;
    }
    let levels = args.get_list("levels");
    if !levels.is_empty() {
        cfg.levels = levels
            .iter()
            .map(|l| {
                l.parse::<usize>().ok().filter(|&n| n >= 1).ok_or_else(|| {
                    CliError::Usage(format!("--levels entry {l:?} must be a positive integer"))
                })
            })
            .collect::<Result<_, _>>()?;
    }
    cfg.requests_per_client = args.get_usize("requests", cfg.requests_per_client)?;
    cfg.steps = steps_from(args, cfg.steps)?;
    cfg.deadline_ms = args.get_usize("bench-deadline-ms", cfg.deadline_ms as usize)? as u64;
    let out_path = args.get("out").map(str::to_string);
    let json = args.get_bool("json");
    // Spawn-mode daemon flags (a live daemon via --addr ignores them).
    let serve_cfg = serve_config_from(args, 4)?;
    args.finish()?;

    let (report, served): (BenchReport, Option<ServeReport>) = if spawn {
        let (b, s) = run_bench_spawned(&cfg, serve_cfg).map_err(CliError::Failed)?;
        (b, Some(s))
    } else {
        (run_bench(&cfg).map_err(CliError::Failed)?, None)
    };

    let mut out = report.render();
    if let Some(s) = served {
        let _ = writeln!(out, "\nspawned daemon: {}", s.render());
    }
    let doc = report.to_value().render_pretty();
    if let Some(path) = out_path {
        std::fs::write(&path, format!("{doc}\n"))
            .map_err(|e| CliError::Failed(format!("cannot write {path}: {e}")))?;
        let _ = writeln!(out, "\nJSON report written to {path}");
    }
    if json {
        let _ = writeln!(out, "\n{doc}");
    }
    Ok(out)
}
