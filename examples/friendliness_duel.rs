//! Friendliness duel: how hard does a new protocol squeeze legacy TCP?
//!
//! Metric VII (TCP-friendliness) in action: a lineup of challengers each
//! shares a paper-grade link (20 Mbps, 42 ms RTT, 100-MSS buffer) with one
//! TCP Reno connection, in both the fluid model and the packet-level
//! simulator. For AIMD challengers the measured score is compared with
//! Theorem 2's tight bound `3(1−b)/(a(1+b))`.
//!
//! ```sh
//! cargo run --release --example friendliness_duel
//! ```

use axiomatic_cc::analysis::estimators::{
    measure_friendliness_fluid, measure_friendliness_packet, EvalMode,
};
use axiomatic_cc::core::theory::theorems::theorem2_friendliness_upper_bound;
use axiomatic_cc::core::units::Bandwidth;
use axiomatic_cc::core::{LinkParams, Protocol};
use axiomatic_cc::protocols::{Aimd, Binomial, Cubic, Mimd, Pcc, RobustAimd};

/// Every estimate here streams; the evaluation mode does not change scores.
const STREAMING: EvalMode = EvalMode::Streaming;

fn main() {
    let link = LinkParams::from_experiment(Bandwidth::Mbps(20.0), 42.0, 100.0);
    println!(
        "arena: 20 Mbps, 42 ms RTT, 100-MSS buffer (C = {:.0} MSS); defender: TCP Reno\n",
        link.capacity()
    );
    let challengers: Vec<(Box<dyn Protocol>, Option<f64>)> = vec![
        (
            Box::new(Aimd::reno()),
            Some(theorem2_friendliness_upper_bound(1.0, 0.5)),
        ),
        (
            Box::new(Aimd::new(2.0, 0.5)),
            Some(theorem2_friendliness_upper_bound(2.0, 0.5)),
        ),
        (
            Box::new(Aimd::scalable()),
            Some(theorem2_friendliness_upper_bound(1.0, 0.875)),
        ),
        (Box::new(Cubic::linux()), None),
        (Box::new(Mimd::scalable()), None),
        (Box::new(Binomial::iiad(1.0, 1.0)), None),
        (Box::new(RobustAimd::table2()), None),
        (Box::new(Pcc::new()), None),
    ];

    let reno = Aimd::reno();
    println!(
        "{:<22} {:>12} {:>13} {:>16}",
        "challenger", "fluid score", "packet score", "Theorem 2 bound"
    );
    println!("{}", "-".repeat(67));
    for (challenger, bound) in challengers {
        let fluid = measure_friendliness_fluid(
            challenger.as_ref(),
            &reno,
            link,
            1,
            1,
            4000,
            &[(1.0, 1.0)],
            STREAMING,
        );
        let packet = measure_friendliness_packet(challenger.as_ref(), &reno, link, 1, 1, 40.0, 0);
        println!(
            "{:<22} {:>12.3} {:>13.3} {:>16}",
            challenger.name(),
            fluid,
            packet,
            bound.map_or("-".to_string(), |b| format!("{b:.3}")),
        );
    }
    println!(
        "\nA score of 1 means Reno keeps pace; near 0 means Reno is starved.\n\
         Theorem 2's bound is tight for AIMD(a,b) — the fluid scores should sit on it.\n\
         PCC squeezes Reno hardest (it tolerates loss up to its 5% utility cliff);\n\
         Robust-AIMD is the Pareto compromise the paper proposes (robust AND friendlier)."
    );
}
