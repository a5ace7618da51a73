//! Ablation studies for the design choices DESIGN.md calls out.
//!
//! 1. **Robust-AIMD's ε knob** — sweep the loss tolerance and measure the
//!    robustness↔friendliness tradeoff (Theorem 3 made empirical: every
//!    notch of robustness is paid for in TCP-friendliness).
//! 2. **PCC's controller constants** — sweep the base step δ₀ and the
//!    rate-change amplifier and measure friendliness and convergence;
//!    shows the aggressiveness envelope is a controller property, not an
//!    accident of the default constants.
//! 3. **Theorem 2 tightness across the AIMD grid** — measured friendliness
//!    vs the bound 3(1−b)/(a(1+b)): the relative error column should stay
//!    in single-digit percent (the paper calls the bound tight).
//! 4. **Synchronized vs per-packet feedback** — the §6 model extension.
//!
//! Flags: `--json`, and the shared `--jobs N` / `--no-cache`.

use axcc_analysis::estimators::{
    measure_friendliness_fluid, measure_robustness_fluid, measure_solo_fluid, EvalMode,
    SweepConfig, ROBUSTNESS_RATES,
};
use axcc_analysis::report::{fmt_score, TextTable};
use axcc_bench::runner::Bin;
use axcc_core::theory::theorems::theorem2_friendliness_upper_bound;
use axcc_core::units::Bandwidth;
use axcc_core::LinkParams;
use axcc_core::Protocol;
use axcc_protocols::{Aimd, Cubic, Mimd, Pcc, RobustAimd};

const STEPS: usize = 3000;
/// The ablations read scores only, so every run streams.
const MODE: EvalMode = EvalMode::Streaming;

fn link() -> LinkParams {
    LinkParams::from_experiment(Bandwidth::Mbps(20.0), 42.0, 100.0)
}

/// Metric VII of `p` towards Reno from a 1-MSS start, one sender each.
fn friendliness_to_reno(p: &dyn Protocol) -> f64 {
    let pairs = [(1.0, 1.0)];
    measure_friendliness_fluid(p, &Aimd::reno(), link(), 1, 1, STEPS, &pairs, MODE)
}

fn main() {
    let mut bin = Bin::new("ablations");

    // --- 1. Robust-AIMD ε sweep -------------------------------------------
    let eps_grid = [0.002, 0.005, 0.01, 0.02, 0.05];
    let measured = bin
        .runner()
        .sweep("ablations/robust-eps", &eps_grid, |&eps| {
            let p = RobustAimd::new(1.0, 0.8, eps);
            let rob = measure_robustness_fluid(&p, &ROBUSTNESS_RATES, STEPS, MODE);
            let fr = friendliness_to_reno(&p);
            (rob, fr)
        });
    let mut t = TextTable::new(["eps", "measured robustness", "friendliness to Reno"]);
    let mut sweep = Vec::new();
    for (eps, (rob, fr)) in eps_grid.iter().zip(&measured) {
        t.row([format!("{eps}"), fmt_score(*rob), fmt_score(*fr)]);
        sweep.push(serde_json::json!({"eps": eps, "robustness": rob, "friendliness": fr}));
    }
    bin.section(
        "robust_aimd_eps_sweep",
        &sweep,
        &format!(
            "Ablation 1 — Robust-AIMD(1, 0.8, ε): robustness is paid in friendliness\n\n{}",
            t.render()
        ),
    );

    // --- 2. PCC controller constants ---------------------------------------
    let pcc_grid = [
        (0.005, 0.5),
        (0.01, 0.0),
        (0.01, 0.5),
        (0.02, 0.5),
        (0.05, 1.0),
    ];
    let measured = bin
        .runner()
        .sweep("ablations/pcc-controller", &pcc_grid, |&(step, amp)| {
            let p = Pcc::with_params(step, amp, (step * 8.0).min(0.5), 100.0);
            let fr = friendliness_to_reno(&p);
            let solo = measure_solo_fluid(&p, &SweepConfig::standard(link(), 2, STEPS), MODE);
            (fr, solo.convergence)
        });
    let mut t = TextTable::new([
        "base step",
        "amplifier",
        "friendliness to Reno",
        "convergence",
    ]);
    let mut sweep = Vec::new();
    for ((step, amp), (fr, conv)) in pcc_grid.iter().zip(&measured) {
        t.row([
            format!("{step}"),
            format!("{amp}"),
            fmt_score(*fr),
            fmt_score(*conv),
        ]);
        sweep.push(serde_json::json!({
            "base_step": step, "amplifier": amp,
            "friendliness": fr, "convergence": conv
        }));
    }
    bin.section(
        "pcc_controller_sweep",
        &sweep,
        &format!(
            "\nAblation 2 — PCC controller: step size / amplification vs friendliness\n\n{}",
            t.render()
        ),
    );

    // --- 3. Theorem 2 tightness --------------------------------------------
    let aimd_grid = [
        (0.5, 0.5),
        (1.0, 0.5),
        (2.0, 0.5),
        (4.0, 0.5),
        (1.0, 0.7),
        (1.0, 0.9),
        (2.0, 0.8),
    ];
    let measured = bin
        .runner()
        .sweep("ablations/theorem2-tightness", &aimd_grid, |&(a, b)| {
            let p = Aimd::new(a, b);
            friendliness_to_reno(&p)
        });
    let mut t = TextTable::new(["protocol", "bound", "measured", "relative error"]);
    let mut sweep = Vec::new();
    for ((a, b), fr) in aimd_grid.iter().zip(&measured) {
        let bound = theorem2_friendliness_upper_bound(*a, *b);
        let err = (fr - bound).abs() / bound;
        t.row([
            Aimd::new(*a, *b).name(),
            fmt_score(bound),
            fmt_score(*fr),
            format!("{:.1}%", err * 100.0),
        ]);
        sweep.push(serde_json::json!({
            "a": a, "b": b, "bound": bound, "measured": fr, "rel_error": err
        }));
    }
    bin.section(
        "theorem2_tightness",
        &sweep,
        &format!(
            "\nAblation 3 — Theorem 2 tightness on the AIMD(a,b) grid\n\n{}",
            t.render()
        ),
    );

    // --- 4. Synchronized vs per-packet feedback ----------------------------
    let protocols = ["reno", "scalable", "cubic"];
    let measured = bin
        .runner()
        .sweep("ablations/feedback-mode", &protocols, |name| {
            let build = || -> Box<dyn Protocol> {
                match *name {
                    "scalable" => Box::new(Mimd::scalable()),
                    "cubic" => Box::new(Cubic::linux()),
                    _ => Box::new(Aimd::reno()),
                }
            };
            let fairness = |mode: axcc_fluidsim::FeedbackMode| -> f64 {
                let trace = axcc_fluidsim::Scenario::new(link())
                    .sender(axcc_fluidsim::SenderConfig::new(build()).initial_window(120.0))
                    .sender(axcc_fluidsim::SenderConfig::new(build()).initial_window(30.0))
                    .feedback(mode)
                    .seed(5)
                    .steps(STEPS)
                    .run();
                let tail = trace.tail_start(0.5);
                axcc_core::axioms::fairness::measured_fairness(&trace, tail)
            };
            (
                fairness(axcc_fluidsim::FeedbackMode::Synchronized),
                fairness(axcc_fluidsim::FeedbackMode::PerPacket),
            )
        });
    let mut t = TextTable::new(["protocol", "synchronized", "per-packet"]);
    let mut sweep = Vec::new();
    for (name, (sync, unsync)) in protocols.iter().zip(&measured) {
        t.row([name.to_string(), fmt_score(*sync), fmt_score(*unsync)]);
        sweep.push(serde_json::json!({"protocol": name, "sync": sync, "per_packet": unsync}));
    }
    bin.section(
        "feedback_mode_sweep",
        &sweep,
        &format!(
            "\nAblation 4 — feedback synchronization (the §6 model extension):\n\
             fairness of two same-protocol senders from a 4:1 start\n\n{}\
             MIMD's worst-case 0-fairness needs the model's synchronized losses;\n\
             per-packet feedback (losses fall where the packets are) restores convergence.\n",
            t.render()
        ),
    );

    std::process::exit(bin.finish());
}
