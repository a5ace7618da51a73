//! Pareto explorer: walk the Figure 1 frontier and try to beat it.
//!
//! The paper's Section 5.2: protocols are points in metric space, and
//! design means picking a point on the Pareto frontier. This example
//! (1) prints the frontier of (fast-utilization α, efficiency β,
//! TCP-friendliness) traced out by AIMD(α, β); (2) measures a lineup of
//! real protocols and asks, for each, whether any AIMD frontier point
//! dominates it in that 3-metric subspace; (3) shows where Robust-AIMD
//! lands once robustness is added as a fourth dimension — dominated in
//! three dimensions, undominated in four, exactly the paper's argument.
//!
//! ```sh
//! cargo run --release --example pareto_explorer
//! ```

use axiomatic_cc::analysis::estimators::{empirical_scores_fluid, EvalMode};
use axiomatic_cc::analysis::experiments::figure1::frontier_surface;
use axiomatic_cc::analysis::pareto::{pareto_front, ScoredPoint, FIGURE1_METRICS};
use axiomatic_cc::core::axioms::Metric;
use axiomatic_cc::core::{LinkParams, Protocol};
use axiomatic_cc::protocols::{Aimd, Cubic, Mimd, RobustAimd};

/// Every estimate here streams; the evaluation mode does not change scores.
const STREAMING: EvalMode = EvalMode::Streaming;

fn main() {
    // (1) The analytic frontier.
    let alphas = [0.5, 1.0, 2.0];
    let betas = [0.5, 0.7, 0.9];
    let fig = frontier_surface(&alphas, &betas);
    println!("Figure 1 frontier points (α, β, friendliness):");
    for p in &fig.points {
        println!(
            "  AIMD({},{})  →  ({}, {}, {:.3})",
            p.alpha, p.beta, p.alpha, p.beta, p.friendliness_bound
        );
    }
    println!(
        "dominated points on the surface: {} (a frontier has none)\n",
        fig.dominated_count()
    );

    // (2) Measure a real lineup and test for dominance by the surface.
    let link = LinkParams::reference();
    let surface = fig.as_scored_points();
    let lineup: Vec<Box<dyn Protocol>> = vec![
        Box::new(Aimd::reno()),
        Box::new(Cubic::linux()),
        Box::new(Mimd::scalable()),
        Box::new(RobustAimd::table2()),
    ];
    println!("measured protocols vs the AIMD surface (fast-util × efficiency × friendliness):");
    let mut measured_points = Vec::new();
    for proto in &lineup {
        let scores = empirical_scores_fluid(proto.as_ref(), link, 2, 2500, STREAMING);
        let dominated = surface
            .iter()
            .any(|s| s.scores.dominates_in(&scores, &FIGURE1_METRICS));
        println!(
            "  {:<20} fast={:<6.2} eff={:<5.2} friendly={:<6.3} robust={:<5.3} {}",
            proto.name(),
            scores.fast_utilization,
            scores.efficiency,
            scores.tcp_friendliness,
            scores.robustness,
            if dominated {
                "— dominated by the surface"
            } else {
                "— on/beyond the surface"
            }
        );
        measured_points.push(ScoredPoint::new(proto.name(), scores));
    }

    // (3) Add robustness as a fourth dimension: Robust-AIMD joins the
    // frontier because nothing else scores above 0 there.
    let four = [
        Metric::FastUtilization,
        Metric::Efficiency,
        Metric::TcpFriendliness,
        Metric::Robustness,
    ];
    let front4 = pareto_front(&measured_points, &four);
    println!(
        "\n4-metric frontier (adding robustness): {:?}",
        front4.iter().map(|p| p.label.as_str()).collect::<Vec<_>>()
    );
    println!(
        "Robust-AIMD trades friendliness for robustness — dominated in 3 dimensions is fine\n\
         as long as it is undominated in the 4th; that is the paper's design argument."
    );
}
