//! Lossy satellite link: robustness to non-congestion loss (Metric VI).
//!
//! The scenario the paper borrows from PCC's motivation: a sender alone on
//! a long, fat, *noisy* path — plenty of spare capacity, but a constant
//! random packet-loss rate that has nothing to do with congestion. Classic
//! TCP misreads the noise as congestion and collapses; Robust-AIMD
//! tolerates loss below its ε threshold and keeps climbing; PCC climbs
//! through anything below its 5% utility cliff.
//!
//! Runs the sweep at three loss rates (0.1%, 0.5%, 2%) in the fluid model
//! (Bernoulli per-packet loss) and reports the achieved average goodput
//! plus each protocol's measured robustness score.
//!
//! ```sh
//! cargo run --release --example lossy_satellite
//! ```

use axiomatic_cc::analysis::estimators::{measure_robustness_fluid, EvalMode, ROBUSTNESS_RATES};
use axiomatic_cc::core::units::sec_to_ms;
use axiomatic_cc::core::{LinkParams, Protocol};
use axiomatic_cc::fluidsim::{LossModel, Scenario, SenderConfig};
use axiomatic_cc::protocols::{Aimd, Cubic, Pcc, RobustAimd};

/// Every estimate here streams; the evaluation mode does not change scores.
const STREAMING: EvalMode = EvalMode::Streaming;

fn main() {
    // A 250 Mbps satellite-ish path, 300 ms RTT: C ≈ 6250 MSS — far more
    // than any sender here reaches, so loss is never congestive.
    let link = LinkParams::new(20_833.0, 0.15, 2000.0);
    println!(
        "link: {:.0} MSS/s, {:.0} ms RTT, C = {:.0} MSS — noisy but uncongested\n",
        link.bandwidth,
        sec_to_ms(link.min_rtt()),
        link.capacity()
    );

    let lineup: Vec<Box<dyn Protocol>> = vec![
        Box::new(Aimd::reno()),
        Box::new(Cubic::linux()),
        Box::new(RobustAimd::new(1.0, 0.8, 0.005)),
        Box::new(RobustAimd::table2()), // ε = 0.01
        Box::new(Pcc::new()),
    ];

    println!(
        "{:<20} {:>11} {:>11} {:>11} {:>12}",
        "protocol", "0.1% loss", "0.5% loss", "2% loss", "robustness α"
    );
    println!("{}", "-".repeat(70));
    for proto in &lineup {
        let mut cells = Vec::new();
        for rate in [0.001, 0.005, 0.02] {
            let trace = Scenario::new(link)
                .sender(SenderConfig::new(proto.clone_box()).initial_window(10.0))
                .wire_loss(LossModel::Bernoulli { rate })
                .seed(7)
                .steps(4000)
                .run();
            let tail = trace.tail_start(0.5);
            let goodput = trace.senders[0].mean_goodput_from(tail);
            cells.push(goodput / link.bandwidth); // fraction of link rate
        }
        let robustness =
            measure_robustness_fluid(proto.as_ref(), &ROBUSTNESS_RATES, 3000, STREAMING);
        println!(
            "{:<20} {:>10.1}% {:>10.1}% {:>10.1}% {:>12.3}",
            proto.name(),
            cells[0] * 100.0,
            cells[1] * 100.0,
            cells[2] * 100.0,
            robustness,
        );
    }
    println!(
        "\ngoodput is shown as % of link rate. Table 1's robustness column: every classical\n\
         protocol is 0-robust; Robust-AIMD(a,b,ε) is ε-robust — visible above as the\n\
         ε = 0.5% variant surviving 0.1% noise, the ε = 1% variant surviving 0.5%, and\n\
         PCC (loss-cliff at 5%) shrugging off all three rates."
    );
}
