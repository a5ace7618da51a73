//! Multi-link (network-wide) scenarios — the §6 extension
//! *"generalizing our model to capture network-wide protocol interaction"*.
//!
//! The single-bottleneck model of Section 2 generalizes naturally: a
//! **topology** is a set of links, and each flow follows a **path** (a
//! subset of links). Per global step:
//!
//! * each link `l` carries the total window `X_l = Σ_{f ∋ l} x_f` of the
//!   flows crossing it, and contributes droptail loss `L_l(X_l)` and
//!   queueing delay by its own equation-(1);
//! * a flow's RTT is the sum over its path of per-link propagation and
//!   queueing delays; its loss rate composes independently across links:
//!   `L_f = 1 − Π_{l ∈ path(f)} (1 − L_l)`.
//!
//! There is one fluid step loop: a [`Scenario`] holds a [`Topology`],
//! and a single link is the one-link case. The types here are a façade
//! over it: [`NetScenario`] assembles a `Scenario` whose senders carry
//! paths, and [`NetTrace`] records the run per flow and per link. The
//! same scenario streams through any `StepSink` like a single-link one.
//!
//! Feedback stays synchronized (one global step), which is the direct
//! generalization of the paper's model and keeps the dynamics
//! deterministic. The classic testbed for this model is the **parking
//! lot**: `k` links in a row, one long flow crossing all of them and one
//! short flow per link; proportionally-fair or AIMD dynamics give the
//! long flow less than the short flows — reproduced in this module's
//! tests and the `parking_lot` example.

use crate::scenario::{Scenario, SenderConfig};
use axcc_core::{LinkParams, Protocol, ScenarioError, SenderTrace};

pub use axcc_topo::Topology;

/// One flow: a protocol, a path (link indices), an initial window, and an
/// activity window (start/stop steps, for churned populations). A
/// [`SenderConfig`] with a path; parameters are checked when the
/// scenario runs ([`NetScenario::try_run`]).
pub struct FlowConfig(SenderConfig);

impl FlowConfig {
    /// A flow running `protocol` over `path` (indices into the topology's
    /// link list; must be non-empty and in range), starting from a 1-MSS
    /// window at step 0 and never departing.
    pub fn new(protocol: Box<dyn Protocol>, path: Vec<usize>) -> Self {
        FlowConfig(SenderConfig::new(protocol).path(path))
    }

    /// Set the initial window (MSS; finite and non-negative).
    pub fn initial_window(self, w: f64) -> Self {
        FlowConfig(self.0.initial_window(w))
    }

    /// Delay the flow's entry until the given step.
    pub fn start_at(self, step: u64) -> Self {
        FlowConfig(self.0.start_at(step))
    }

    /// Remove the flow at the given step: active for steps in
    /// `[start, stop)`, zero window afterwards. Must exceed the start
    /// step.
    pub fn stop_at(self, step: u64) -> Self {
        FlowConfig(self.0.stop_at(step))
    }
}

/// A network scenario.
pub struct NetScenario(pub(crate) Scenario);

impl NetScenario {
    /// A scenario on `topology` with no flows yet and 1000 steps.
    pub fn new(topology: Topology) -> Self {
        NetScenario(Scenario::on(topology))
    }

    /// Add a flow.
    pub fn flow(self, cfg: FlowConfig) -> Self {
        NetScenario(self.0.sender(cfg.0))
    }

    /// Set the number of steps (at least one).
    pub fn steps(self, steps: usize) -> Self {
        NetScenario(self.0.steps(steps))
    }

    /// Add a churned flow population on `path`: expand `plan` over this
    /// scenario's current step count (set [`steps`](NetScenario::steps)
    /// *first*) and add one flow per activity interval, each a clone of
    /// `prototype` entering with a 1-MSS window at its arrival step and
    /// departing at its stop step.
    pub fn churn(
        self,
        plan: &axcc_topo::ChurnPlan,
        prototype: &dyn Protocol,
        path: Vec<usize>,
    ) -> Result<Self, ScenarioError> {
        let first = self.0.senders.len();
        let mut scenario = self.0.churn(plan, prototype)?;
        for cfg in &mut scenario.senders[first..] {
            cfg.path = path.clone();
        }
        Ok(NetScenario(scenario))
    }

    /// Run the scenario, or return a typed error for an invalid
    /// configuration (no flows, zero steps, an empty or out-of-range
    /// path, a stop step not after its start, …) or a numerically
    /// divergent run.
    pub fn try_run(self) -> Result<NetTrace, ScenarioError> {
        NetTrace::record(self.0)
    }

    /// Run the scenario.
    ///
    /// # Panics
    ///
    /// Panics (with the [`ScenarioError`] message) where
    /// [`try_run`](NetScenario::try_run) returns an error.
    pub fn run(self) -> NetTrace {
        // tidy-allow: panic-freedom — documented panicking façade over try_run; fallible callers use the try_ path
        self.try_run().unwrap_or_else(|e| panic!("{e}"))
    }
}

/// The trace of a network run.
#[derive(Debug, Clone, PartialEq)]
pub struct NetTrace {
    /// Per-flow traces (window/loss/RTT/goodput per step), flow order.
    pub flows: Vec<SenderTrace>,
    /// Per-flow paths, for interpreting the traces.
    pub paths: Vec<Vec<usize>>,
    /// Per-link total window `X_l^(t)`: `link_load[l][t]`.
    pub link_load: Vec<Vec<f64>>,
    /// Per-link loss rate: `link_loss[l][t]`.
    pub link_loss: Vec<Vec<f64>>,
    /// The topology the run executed on.
    pub topology_links: Vec<LinkParams>,
}

impl NetTrace {
    /// Run `scenario` through the engine and record it per flow and per
    /// link.
    pub(crate) fn record(scenario: Scenario) -> Result<NetTrace, ScenarioError> {
        let paths: Vec<Vec<usize>> = scenario.senders.iter().map(|s| s.path.clone()).collect();
        let topology_links = scenario.topology.links().to_vec();
        let trace = scenario.try_run()?;
        let steps = trace.len();
        let mut flows = trace.senders;
        // A one-link run shares its RTT column; network flows always
        // carry their own (an idle flow's is its path RTT).
        for f in &mut flows {
            f.rtt.get_or_insert_with(|| trace.rtt.clone());
        }
        // Each link's load sums the windows crossing it in flow order —
        // the additions the step loop made (idle flows record exactly the
        // 0.0 they hold), so the recomputed loads are its loads bit for
        // bit.
        let mut link_load = vec![vec![0.0; steps]; topology_links.len()];
        for (path, f) in paths.iter().zip(&flows) {
            for &l in path {
                for (x, &w) in link_load[l].iter_mut().zip(&f.window) {
                    *x += w;
                }
            }
        }
        let link_loss = link_load
            .iter()
            .zip(&topology_links)
            .map(|(load, link)| load.iter().map(|&x| link.loss_rate(x)).collect())
            .collect();
        Ok(NetTrace {
            flows,
            paths,
            link_load,
            link_loss,
            topology_links,
        })
    }

    /// Number of steps.
    pub fn len(&self) -> usize {
        self.flows.first().map_or(0, |f| f.len())
    }

    /// Whether the trace is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Index of the tail start (`fraction` of the run treated as
    /// transient).
    pub fn tail_start(&self, fraction: f64) -> usize {
        (self.len() as f64 * fraction.clamp(0.0, 1.0)).floor() as usize
    }

    /// A flow's mean goodput over the tail.
    pub fn flow_goodput(&self, flow: usize, tail_start: usize) -> f64 {
        self.flows[flow].mean_goodput_from(tail_start)
    }

    /// Flow `f`'s per-step RTT column. Network flows always record their
    /// own column (paths differ, so RTTs are genuinely per-flow); empty
    /// only for a zero-step run.
    pub fn flow_rtt(&self, f: usize) -> &[f64] {
        self.flows[f].rtt.as_deref().unwrap_or(&[])
    }

    /// A link's mean utilization (`X_l / C_l`) over the tail.
    pub fn link_utilization(&self, l: usize, tail_start: usize) -> f64 {
        let c = self.topology_links[l].capacity();
        let tail = &self.link_load[l][tail_start.min(self.len())..];
        if tail.is_empty() {
            return 0.0;
        }
        tail.iter().sum::<f64>() / (tail.len() as f64 * c)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use axcc_protocols::{Aimd, Vegas};

    /// C = 100 MSS per hop.
    fn hop() -> LinkParams {
        LinkParams::new(1000.0, 0.05, 20.0)
    }

    /// The classic parking lot: long flow over links {0,1}, one short
    /// flow on each link.
    fn parking_lot_2() -> NetTrace {
        NetScenario::new(Topology::parking_lot(2, hop()))
            .flow(FlowConfig::new(Box::new(Aimd::reno()), vec![0, 1]))
            .flow(FlowConfig::new(Box::new(Aimd::reno()), vec![0]))
            .flow(FlowConfig::new(Box::new(Aimd::reno()), vec![1]))
            .steps(4000)
            .run()
    }

    #[test]
    fn single_link_reduces_to_the_paper_model() {
        // One link, one flow: the network façade must reproduce the
        // single-bottleneck sawtooth.
        let net = NetScenario::new(Topology::new(vec![hop()]))
            .flow(FlowConfig::new(Box::new(Aimd::reno()), vec![0]).initial_window(1.0))
            .steps(1000)
            .run();
        let single = crate::Scenario::new(hop())
            .homogeneous(&Aimd::reno(), 1, 1.0)
            .steps(1000)
            .run();
        assert_eq!(net.flows[0].window, single.senders[0].window);
        assert_eq!(net.flows[0].loss, single.senders[0].loss);
        assert_eq!(net.flow_rtt(0), single.sender_rtt(0));
    }

    #[test]
    fn parking_lot_penalizes_the_long_flow() {
        let net = parking_lot_2();
        let tail = net.tail_start(0.5);
        let long = net.flow_goodput(0, tail);
        let short0 = net.flow_goodput(1, tail);
        let short1 = net.flow_goodput(2, tail);
        // The long flow crosses two bottlenecks (double loss exposure,
        // double RTT): it gets clearly less than either short flow.
        assert!(long < 0.7 * short0, "long {long} vs short {short0}");
        assert!(long < 0.7 * short1, "long {long} vs short {short1}");
        // But it is not starved (AIMD's additive probe keeps it alive).
        assert!(long > 0.05 * short0, "long {long} vs short {short0}");
    }

    #[test]
    fn parking_lot_links_stay_utilized() {
        let net = parking_lot_2();
        let tail = net.tail_start(0.5);
        for l in 0..2 {
            let u = net.link_utilization(l, tail);
            assert!(u > 0.8, "link {l} utilization {u}");
        }
    }

    #[test]
    fn rtt_unfairness_between_path_lengths() {
        // Two AIMD flows into link 1; one also crosses link 0 (longer
        // base RTT, same single shared bottleneck since link 0 is
        // otherwise empty). Classic RTT unfairness: same per-step additive
        // increase in our step-synchronized model means the *loss* and
        // *latency* exposure differ, not the increase rate — the long
        // path still ends up with at most the short flow's share.
        let net = NetScenario::new(Topology::parking_lot(2, hop()))
            .flow(FlowConfig::new(Box::new(Aimd::reno()), vec![0, 1]))
            .flow(FlowConfig::new(Box::new(Aimd::reno()), vec![1]))
            .steps(4000)
            .run();
        let tail = net.tail_start(0.5);
        let long = net.flow_goodput(0, tail);
        let short = net.flow_goodput(1, tail);
        assert!(long <= short * 1.05, "long {long} vs short {short}");
    }

    #[test]
    fn flow_loss_composes_across_links() {
        let net = parking_lot_2();
        // At every step the long flow's loss must equal the composition
        // of its links' losses.
        for t in 0..net.len() {
            let expect = 1.0 - (1.0 - net.link_loss[0][t]) * (1.0 - net.link_loss[1][t]);
            assert!((net.flows[0].loss[t] - expect).abs() < 1e-12, "t={t}");
        }
    }

    #[test]
    fn base_rtt_sums_over_path() {
        let net = parking_lot_2();
        // Min RTT of the long flow is 2×(2Θ) = 0.2 s; short flows 0.1 s.
        let long_min = net
            .flow_rtt(0)
            .iter()
            .copied()
            .fold(f64::INFINITY, f64::min);
        let short_min = net
            .flow_rtt(1)
            .iter()
            .copied()
            .fold(f64::INFINITY, f64::min);
        assert!((long_min - 0.2).abs() < 1e-9, "{long_min}");
        assert!((short_min - 0.1).abs() < 1e-9, "{short_min}");
    }

    #[test]
    fn vegas_in_a_network_keeps_queues_short() {
        let net = NetScenario::new(Topology::parking_lot(2, hop()))
            .flow(FlowConfig::new(Box::new(Vegas::classic()), vec![0, 1]))
            .flow(FlowConfig::new(Box::new(Vegas::classic()), vec![0]))
            .flow(FlowConfig::new(Box::new(Vegas::classic()), vec![1]))
            .steps(3000)
            .run();
        let tail = net.tail_start(0.5);
        // No loss anywhere in the tail…
        for l in 0..2 {
            assert!(net.link_loss[l][tail..].iter().all(|&x| x == 0.0));
        }
        // …and both links near (not over) capacity.
        for l in 0..2 {
            let u = net.link_utilization(l, tail);
            assert!(u > 0.85 && u < 1.1, "link {l} utilization {u}");
        }
    }

    #[test]
    fn churned_flows_are_idle_outside_their_intervals() {
        let plan = axcc_topo::ChurnPlan::poisson(0.01, 150.0).seed(4);
        let ivs = plan.expand(2000);
        assert!(!ivs.is_empty(), "plan expands to at least one arrival");
        let net = NetScenario::new(Topology::parking_lot(2, hop()))
            .steps(2000)
            .flow(FlowConfig::new(Box::new(Aimd::reno()), vec![0, 1]))
            .churn(&plan, &Aimd::reno(), vec![0, 1])
            .unwrap()
            .run();
        assert_eq!(net.flows.len(), 1 + ivs.len());
        for (k, iv) in ivs.iter().enumerate() {
            let f = 1 + k;
            for t in 0..2000 {
                let w = net.flows[f].window[t];
                if (t as u64) < iv.start || (t as u64) >= iv.stop {
                    assert_eq!(w, 0.0, "flow {f} idle at step {t}");
                    assert_eq!(net.flows[f].goodput[t], 0.0, "flow {f} step {t}");
                } else if t as u64 == iv.start {
                    // Admitted with a 1-MSS window at its arrival step.
                    assert_eq!(w, 1.0, "flow {f} arrival step {t}");
                }
            }
        }
    }

    #[test]
    fn churned_network_runs_are_deterministic() {
        let build = || {
            let plan = axcc_topo::ChurnPlan::poisson(0.008, 200.0).seed(11);
            NetScenario::new(Topology::parking_lot(3, hop()))
                .steps(1500)
                .flow(FlowConfig::new(Box::new(Aimd::reno()), vec![0, 1, 2]))
                .churn(&plan, &Aimd::reno(), vec![1])
                .unwrap()
                .run()
        };
        let a = build();
        let b = build();
        assert_eq!(a, b);
    }

    #[test]
    fn link_load_counts_only_active_flows() {
        // One permanent flow plus one that departs midway: after the
        // departure the link load must equal the survivor's window alone.
        let net = NetScenario::new(Topology::new(vec![hop()]))
            .steps(1000)
            .flow(FlowConfig::new(Box::new(Aimd::reno()), vec![0]))
            .flow(FlowConfig::new(Box::new(Aimd::reno()), vec![0]).stop_at(500))
            .run();
        for t in 500..1000 {
            assert_eq!(
                net.link_load[0][t].to_bits(),
                net.flows[0].window[t].to_bits(),
                "step {t}"
            );
        }
        // Before the departure both contribute.
        assert!(net.link_load[0][300] > net.flows[0].window[300]);
    }

    #[test]
    fn stop_before_start_is_rejected_instead_of_leaving_a_ghost_load() {
        // Builder order used to matter: `stop_at` checked `stop > start`
        // against the default start of 0, so this flow was accepted, went
        // idle at step 200, and left its 50 MSS in the link load.
        let err = NetScenario::new(Topology::new(vec![hop()]))
            .steps(300)
            .flow(FlowConfig::new(Box::new(Aimd::reno()), vec![0]))
            .flow(
                FlowConfig::new(Box::new(Aimd::reno()), vec![0])
                    .initial_window(50.0)
                    .stop_at(100)
                    .start_at(200),
            )
            .try_run()
            .unwrap_err();
        assert!(matches!(
            err,
            ScenarioError::InvalidSender {
                index: 1,
                field: "stop_tick",
                ..
            }
        ));
    }

    #[test]
    fn out_of_range_path_rejected() {
        let err = NetScenario::new(Topology::new(vec![hop()]))
            .flow(FlowConfig::new(Box::new(Aimd::reno()), vec![1]))
            .try_run()
            .unwrap_err();
        assert!(matches!(
            err,
            ScenarioError::InvalidParameter { field: "path", .. }
        ));
    }

    #[test]
    fn empty_scenario_rejected() {
        let err = NetScenario::new(Topology::new(vec![hop()]))
            .try_run()
            .unwrap_err();
        assert_eq!(err, ScenarioError::NoSenders);
    }

    #[test]
    fn invalid_flow_parameters_are_typed_errors() {
        let build = || NetScenario::new(Topology::parking_lot(2, hop()));
        let reno = || Box::new(Aimd::reno());
        let err = build()
            .flow(FlowConfig::new(reno(), vec![]))
            .try_run()
            .unwrap_err();
        assert!(matches!(
            err,
            ScenarioError::InvalidParameter { field: "path", .. }
        ));
        let err = build()
            .flow(FlowConfig::new(reno(), vec![0]).initial_window(-1.0))
            .try_run()
            .unwrap_err();
        assert!(matches!(
            err,
            ScenarioError::InvalidSender {
                field: "initial_window",
                ..
            }
        ));
        let err = build()
            .flow(FlowConfig::new(reno(), vec![0, 1]))
            .steps(0)
            .try_run()
            .unwrap_err();
        assert!(matches!(
            err,
            ScenarioError::InvalidParameter { field: "steps", .. }
        ));
    }
}
