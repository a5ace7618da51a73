//! Property tests for multi-link scenarios: for arbitrary topologies,
//! paths and protocols, the composition laws must hold, the single-link
//! case must reduce exactly to the paper's model, and a streamed run must
//! carry exactly the recorded per-flow columns.

use axcc_core::LinkParams;
use axcc_fluidsim::{
    try_run_scenario_with, ChurnPlan, FlowConfig, NetScenario, Scenario, SenderConfig, StepBlock,
    StepRecord, StepSink, Topology,
};
use axcc_protocols::registry::resolve;
use proptest::prelude::*;

fn arb_link() -> impl Strategy<Value = LinkParams> {
    (300.0f64..5000.0, 0.01f64..0.1, 0.0f64..200.0)
        .prop_map(|(b, th, tau)| LinkParams::new(b, th, tau))
}

fn arb_protocol_name() -> impl Strategy<Value = &'static str> {
    prop_oneof![
        Just("reno"),
        Just("cubic"),
        Just("scalable"),
        Just("robust-aimd"),
        Just("vegas"),
        Just("tfrc"),
        Just("aimd(2,0.7)"),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// A single-link network run reduces bit for bit to the
    /// single-bottleneck engine: window, loss, RTT and goodput.
    #[test]
    fn single_link_reduction(
        link in arb_link(),
        name in prop_oneof![
            Just("reno"),
            Just("cubic"),
            Just("scalable"),
            Just("robust-aimd"),
            Just("vegas"),
            Just("tfrc"),
            Just("aimd(2,0.7)"),
        ],
        init in 1.0f64..200.0,
    ) {
        let net = NetScenario::new(Topology::new(vec![link]))
            .flow(FlowConfig::new(resolve(name).unwrap(), vec![0]).initial_window(init))
            .steps(200)
            .run();
        let single = Scenario::new(link)
            .sender(SenderConfig::new(resolve(name).unwrap()).initial_window(init))
            .steps(200)
            .run();
        prop_assert_eq!(&net.flows[0].window, &single.senders[0].window);
        prop_assert_eq!(&net.flows[0].loss, &single.senders[0].loss);
        prop_assert_eq!(net.flow_rtt(0), single.sender_rtt(0));
        prop_assert_eq!(&net.flows[0].goodput, &single.senders[0].goodput);
    }

    /// Composition laws hold at every step of every flow: loss composes
    /// multiplicatively across the path, base RTT sums, and link loads
    /// equal the sum of crossing windows.
    #[test]
    fn composition_laws(
        hop in arb_link(),
        hops in 1usize..4,
        name in arb_protocol_name(),
        long_init in 1.0f64..100.0,
    ) {
        let mut sc = NetScenario::new(Topology::parking_lot(hops, hop)).steps(150);
        sc = sc.flow(
            FlowConfig::new(resolve(name).unwrap(), (0..hops).collect())
                .initial_window(long_init),
        );
        for l in 0..hops {
            sc = sc.flow(FlowConfig::new(resolve(name).unwrap(), vec![l]));
        }
        let net = sc.run();
        for t in 0..net.len() {
            // Link load = long flow + that hop's short flow.
            for l in 0..hops {
                let expect = net.flows[0].window[t] + net.flows[1 + l].window[t];
                prop_assert!((net.link_load[l][t] - expect).abs() < 1e-9);
                prop_assert!(
                    (net.link_loss[l][t] - hop.loss_rate(net.link_load[l][t])).abs() < 1e-12
                );
            }
            // Long-flow loss composes across its path.
            let composed = 1.0
                - (0..hops)
                    .map(|l| 1.0 - net.link_loss[l][t])
                    .product::<f64>();
            prop_assert!((net.flows[0].loss[t] - composed).abs() < 1e-12);
            // Long-flow RTT at least the summed propagation floor.
            prop_assert!(net.flow_rtt(0)[t] >= hops as f64 * hop.min_rtt() - 1e-12);
        }
    }

    /// Multi-link runs are deterministic: identical scenarios give
    /// identical traces.
    #[test]
    fn network_determinism(
        hop in arb_link(),
        name in arb_protocol_name(),
    ) {
        let run = || {
            NetScenario::new(Topology::parking_lot(2, hop))
                .flow(FlowConfig::new(resolve(name).unwrap(), vec![0, 1]))
                .flow(FlowConfig::new(resolve(name).unwrap(), vec![0]))
                .steps(120)
                .run()
        };
        prop_assert_eq!(run(), run());
    }

    /// Streaming ≡ traced on multi-hop topologies: a parking lot with
    /// churn, streamed block by block into a collecting sink, yields
    /// per-flow window, loss, own-RTT and goodput columns bit-equal to
    /// the recorded `NetTrace` — both through the blocks' column views
    /// (what accumulators read) and through per-step records.
    #[test]
    fn streamed_network_columns_match_the_recorded_trace(
        hop in arb_link(),
        hops in 1usize..4,
        name in arb_protocol_name(),
        seed in any::<u64>(),
        steps in 100usize..400,
    ) {
        let plan = ChurnPlan::poisson(0.02, steps as f64 / 4.0).seed(seed);
        let long: Vec<usize> = (0..hops).collect();
        let net = || {
            let mut sc = NetScenario::new(Topology::parking_lot(hops, hop))
                .steps(steps)
                .flow(FlowConfig::new(resolve(name).unwrap(), long.clone()));
            for l in 0..hops {
                sc = sc.flow(FlowConfig::new(resolve(name).unwrap(), vec![l]));
            }
            sc.churn(&plan, resolve(name).unwrap().as_ref(), long.clone())
                .unwrap()
        };
        let scenario = || {
            let mut sc = Scenario::on(Topology::parking_lot(hops, hop))
                .steps(steps)
                .sender(SenderConfig::new(resolve(name).unwrap()).path(long.clone()));
            for l in 0..hops {
                sc = sc.sender(SenderConfig::new(resolve(name).unwrap()).path(vec![l]));
            }
            for iv in plan.try_expand(steps as u64).unwrap() {
                sc = sc.sender(
                    SenderConfig::new(resolve(name).unwrap())
                        .path(long.clone())
                        .start_at(iv.start)
                        .stop_at(iv.stop),
                );
            }
            sc
        };
        let recorded = net().run();
        let n = recorded.flows.len();
        // A multi-link run's shared columns describe link 0.
        let traced = scenario().try_run().unwrap();
        prop_assert_eq!(&traced.total_window, &recorded.link_load[0]);
        prop_assert_eq!(&traced.loss, &recorded.link_loss[0]);

        let mut by_block = CollectBlocks(Collect::new(n));
        try_run_scenario_with(scenario(), &mut by_block).unwrap();
        let mut by_record = Collect::new(n);
        try_run_scenario_with(scenario(), &mut by_record).unwrap();
        for sink in [by_block.0, by_record] {
            for (f, flow) in recorded.flows.iter().enumerate() {
                prop_assert_eq!(&sink.windows[f], &flow.window, "flow {} window", f);
                prop_assert_eq!(&sink.losses[f], &flow.loss, "flow {} loss", f);
                prop_assert_eq!(&sink.rtts[f][..], recorded.flow_rtt(f), "flow {} rtt", f);
                prop_assert_eq!(&sink.goodputs[f], &flow.goodput, "flow {} goodput", f);
            }
        }
    }
}

/// A sink that collects every sender's columns from the per-step records
/// the default `StepSink::on_steps` replays.
struct Collect {
    windows: Vec<Vec<f64>>,
    losses: Vec<Vec<f64>>,
    rtts: Vec<Vec<f64>>,
    goodputs: Vec<Vec<f64>>,
}

impl Collect {
    fn new(n: usize) -> Self {
        Collect {
            windows: vec![Vec::new(); n],
            losses: vec![Vec::new(); n],
            rtts: vec![Vec::new(); n],
            goodputs: vec![Vec::new(); n],
        }
    }
}

impl StepSink for Collect {
    fn on_step(&mut self, _t: u64, _total: f64, _rtt: f64, _loss: f64, records: &[StepRecord]) {
        for (i, r) in records.iter().enumerate() {
            self.windows[i].push(r.window);
            self.losses[i].push(r.loss);
            self.rtts[i].push(r.rtt);
            self.goodputs[i].push(r.goodput);
        }
    }
}

/// [`Collect`] fed from each block's column view instead — what the
/// metric accumulators read.
struct CollectBlocks(Collect);

impl StepSink for CollectBlocks {
    fn on_step(&mut self, t: u64, total: f64, rtt: f64, loss: f64, records: &[StepRecord]) {
        self.0.on_step(t, total, rtt, loss, records);
    }

    fn on_steps(&mut self, block: &StepBlock) {
        let cols = block.columns();
        let c = &mut self.0;
        for i in 0..cols.num_senders() {
            c.windows[i].extend_from_slice(cols.windows(i));
            c.losses[i].extend_from_slice(cols.sender_losses(i));
            c.rtts[i].extend_from_slice(cols.sender_rtts(i));
            c.goodputs[i].extend_from_slice(cols.goodputs(i));
        }
    }
}
