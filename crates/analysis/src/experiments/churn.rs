//! **Flow churn under arrival storms** — the Section 6 dynamic-population
//! direction: how do the paper's protocols hold up when the sender set
//! grows and shrinks mid-run instead of being fixed for the whole trace?
//!
//! A deterministic seeded [`ChurnPlan`] (Poisson arrivals, exponential
//! lifetimes, capped concurrency) is expanded into a concrete flow
//! population layered on top of [`BASE_SENDERS`] long-lived flows, and the
//! same plan drives **both** engines: the fluid model scores the churn
//! axiom forms, and the packet-level simulator re-measures utilization
//! under the heaviest storm as a sanity cross-check.
//!
//! Three churn-aware evaluator forms (from `axcc_core::axioms::churn`)
//! score each (protocol, arrival-rate) cell:
//!
//! * **settle** — mean convergence-after-arrival time: how many steps after
//!   each arrival until the aggregate window re-clears
//!   [`SETTLE_FRACTION`]·C;
//! * **coexistence fairness** — Jain's index over the segments between
//!   population changes, weighted by segment length (fairness *while* the
//!   population is churning, not just at the end);
//! * **utilization under churn** — mean link utilization over the steps
//!   where at least one flow (base or churned) is active.
//!
//! The scores come from the single-pass [`ChurnAccumulator`], fed as the
//! engine runs in streaming mode and replayed from the recorded trace in
//! traced mode — the same accumulator either way, which the registry's
//! mode-identity test confirms.

use crate::estimators::eval_fluid;
use crate::report::{fmt_score, TextTable};
use axcc_core::axioms::churn::{ChurnAccumulator, ChurnConfig};
use axcc_core::fingerprint::{Fingerprint, Fingerprinter};
use axcc_core::units::Bandwidth;
use axcc_core::{LinkParams, Protocol};
use axcc_fluidsim::{ChurnPlan, Scenario};
use axcc_packetsim::PacketScenario;
use axcc_protocols::{presets, Binomial};
use axcc_sweep::{EvalMode, SweepJob, SweepRunner};
use serde::Serialize;

/// Seed of every churn plan in this experiment (one shared seed keeps the
/// arrival pattern comparable across protocols and engines).
pub const CHURN_SEED: u64 = 42;

/// Arrival rates swept (expected arrivals per RTT step): calm, busy, and
/// the arrival storm.
pub const ARRIVAL_RATES: [f64; 3] = [0.002, 0.005, 0.01];

/// Mean flow lifetime (RTT steps).
pub const MEAN_LIFETIME: f64 = 400.0;

/// Concurrency cap on churned flows (arrivals beyond it are skipped).
pub const MAX_CONCURRENT: usize = 6;

/// Long-lived background flows present for the whole run.
pub const BASE_SENDERS: usize = 2;

/// Settle threshold as a fraction of capacity: an arrival has "settled"
/// once the aggregate window re-clears this level.
pub const SETTLE_FRACTION: f64 = 0.8;

/// The churn lineup: AIMD, MIMD, binomial, CUBIC, and Robust-AIMD.
pub fn churn_lineup() -> Vec<Box<dyn Protocol>> {
    vec![
        presets::reno(),
        presets::scalable_mimd(),
        Box::new(Binomial::sqrt(1.0, 0.5)),
        presets::cubic(),
        presets::robust_aimd(0.01),
    ]
}

/// The congested reference link (C = 100 MSS, τ = 20 MSS) the fluid cells
/// run on.
fn churn_link() -> LinkParams {
    LinkParams::reference()
}

/// The packet-level link for the cross-check column (20 Mbps, 42 ms RTT).
fn packet_link() -> LinkParams {
    LinkParams::from_experiment(Bandwidth::Mbps(20.0), 42.0, 100.0)
}

/// The plan for one arrival rate: shared seed, exponential lifetimes,
/// capped concurrency.
fn churn_plan(rate: f64) -> ChurnPlan {
    ChurnPlan::poisson(rate, MEAN_LIFETIME)
        .seed(CHURN_SEED)
        .max_concurrent(MAX_CONCURRENT)
}

/// Derive the churn evaluator configuration (arrival steps, segment
/// boundaries, activity windows) from a plan's expansion over `steps`.
fn churn_markers(plan: &ChurnPlan, steps: usize) -> ChurnConfig {
    let intervals = plan.expand(steps as u64);
    let arrivals: Vec<u64> = intervals.iter().map(|iv| iv.start).collect();
    let mut boundaries: Vec<usize> = intervals
        .iter()
        .flat_map(|iv| [iv.start as usize, iv.stop as usize])
        .collect();
    boundaries.sort_unstable();
    let mut activity: Vec<(u64, u64)> = vec![(0, steps as u64); BASE_SENDERS];
    activity.extend(intervals.iter().map(|iv| (iv.start, iv.stop)));
    let capacity = churn_link().capacity();
    ChurnConfig {
        capacity,
        steps,
        settle_threshold: SETTLE_FRACTION * capacity,
        arrivals,
        boundaries,
        activity,
    }
}

/// Score one fluid cell: (settle, coexistence fairness, utilization),
/// from a [`ChurnAccumulator`] the run is evaluated into.
fn churn_cell(proto: &dyn Protocol, rate: f64, steps: usize, mode: EvalMode) -> (f64, f64, f64) {
    let plan = churn_plan(rate);
    let cfg = churn_markers(&plan, steps);
    let n = BASE_SENDERS + cfg.arrivals.len();
    let scenario = Scenario::new(churn_link())
        .homogeneous(proto, BASE_SENDERS, 1.0)
        .steps(steps)
        .churn(&plan, proto)
        // tidy-allow: panic-freedom — the plan is built from validated experiment constants; expansion cannot fail
        .unwrap_or_else(|e| panic!("{e}"));
    let mut acc = ChurnAccumulator::new(&cfg, n);
    eval_fluid(scenario, &mut acc, mode);
    (
        acc.mean_settle_after_arrival(),
        acc.coexistence_fairness(),
        acc.utilization_under_churn(),
    )
}

/// Tail utilization of a packet-level run under the arrival storm
/// (heaviest swept rate). Packet runs always record traces, so the score
/// is evaluation-mode independent by construction.
fn packet_storm_utilization(proto: &dyn Protocol, secs: f64) -> f64 {
    let link = packet_link();
    let step_secs = link.min_rtt();
    let out = PacketScenario::new(link)
        .homogeneous(proto, BASE_SENDERS)
        .duration_secs(secs)
        .churn(&churn_plan(ARRIVAL_RATES[2]), proto, step_secs)
        // tidy-allow: panic-freedom — the plan and step length are validated experiment constants; expansion cannot fail
        .unwrap_or_else(|e| panic!("{e}"))
        .run();
    let tail = out.trace.tail_start(crate::estimators::TAIL_FRACTION);
    let goodput: f64 = out
        .trace
        .senders
        .iter()
        .map(|s| s.mean_goodput_from(tail))
        .sum();
    goodput / link.bandwidth
}

/// Write the experiment's fixed configuration into a job fingerprint: any
/// change to the seed, lifetime, cap, base population, settle threshold,
/// or either link must re-address every cached cell. Fingerprinting the
/// full plan covers every [`ChurnPlan`] field (including on/off phases).
fn fingerprint_setup(rate: f64, fp: &mut Fingerprinter) {
    churn_plan(rate).fingerprint(fp);
    fp.write_usize(BASE_SENDERS);
    fp.write_f64(SETTLE_FRACTION);
    churn_link().fingerprint(fp);
    packet_link().fingerprint(fp);
}

/// One fluid churn cell: (protocol, arrival rate). Protocols are rebuilt
/// from the lineup index inside `run` (they are `Send` but not `Sync`).
struct ChurnCellJob {
    // tidy-allow: fingerprint-coverage — redundant with name: the lineup is fixed and names embed every constructor parameter, so equal names imply equal indices.
    index: usize,
    name: String,
    rate: f64,
    steps: usize,
    mode: EvalMode,
}

impl Fingerprint for ChurnCellJob {
    fn fingerprint(&self, fp: &mut Fingerprinter) {
        fp.write_str(&self.name);
        fp.write_f64(self.rate);
        fp.write_usize(self.steps);
        fingerprint_setup(self.rate, fp);
        self.mode.fingerprint(fp);
    }
}

impl SweepJob for ChurnCellJob {
    type Output = (f64, f64, f64);
    fn run(&self) -> (f64, f64, f64) {
        let lineup = churn_lineup();
        churn_cell(
            lineup[self.index].as_ref(),
            self.rate,
            self.steps,
            self.mode,
        )
    }
}

/// One packet-level storm cross-check per protocol. Mode-independent, so
/// the fingerprint carries no [`EvalMode`].
struct PacketChurnJob {
    // tidy-allow: fingerprint-coverage — redundant with name: the lineup is fixed and names embed every constructor parameter, so equal names imply equal indices.
    index: usize,
    name: String,
    secs: f64,
}

impl Fingerprint for PacketChurnJob {
    fn fingerprint(&self, fp: &mut Fingerprinter) {
        fp.write_str(&self.name);
        fp.write_f64(self.secs);
        fingerprint_setup(ARRIVAL_RATES[2], fp);
    }
}

impl SweepJob for PacketChurnJob {
    type Output = f64;
    fn run(&self) -> f64 {
        let lineup = churn_lineup();
        packet_storm_utilization(lineup[self.index].as_ref(), self.secs)
    }
}

/// One (protocol, arrival rate) cell of the churn report.
#[derive(Debug, Clone, Serialize)]
pub struct ChurnCell {
    /// Arrival rate of this cell (arrivals per RTT step).
    pub rate: f64,
    /// Mean convergence-after-arrival time (steps).
    pub settle: f64,
    /// Length-weighted Jain's index over coexistence windows.
    pub fairness: f64,
    /// Mean utilization over churn-active steps.
    pub utilization: f64,
}

/// One protocol's churn results across the arrival-rate sweep.
#[derive(Debug, Clone, Serialize)]
pub struct ChurnRow {
    /// Protocol name.
    pub protocol: String,
    /// One cell per entry of [`ARRIVAL_RATES`].
    pub cells: Vec<ChurnCell>,
    /// Packet-level tail utilization under the arrival storm.
    pub packet_utilization: f64,
}

/// The full churn report.
#[derive(Debug, Clone, Serialize)]
pub struct ChurnReport {
    /// The arrival rates actually swept.
    pub rates: Vec<f64>,
    /// One row per protocol, lineup order.
    pub rows: Vec<ChurnRow>,
}

/// Run the churn sweep serially.
pub fn run_churn(steps: usize, packet_secs: f64) -> ChurnReport {
    run_churn_with(&SweepRunner::serial(), steps, packet_secs)
}

/// [`run_churn`] through an explicit sweep runner: one job per
/// (protocol, rate) fluid cell plus one packet-level storm job per
/// protocol.
pub fn run_churn_with(runner: &SweepRunner, steps: usize, packet_secs: f64) -> ChurnReport {
    let lineup = churn_lineup();
    let mut cell_jobs = Vec::new();
    for (index, proto) in lineup.iter().enumerate() {
        for &rate in &ARRIVAL_RATES {
            cell_jobs.push(ChurnCellJob {
                index,
                name: proto.name(),
                rate,
                steps,
                mode: runner.eval_mode(),
            });
        }
    }
    let cells = runner.run_jobs("churn/cells", &cell_jobs);
    let pkt_jobs: Vec<PacketChurnJob> = lineup
        .iter()
        .enumerate()
        .map(|(index, proto)| PacketChurnJob {
            index,
            name: proto.name(),
            secs: packet_secs,
        })
        .collect();
    let pkt = runner.run_jobs("churn/packet-storm", &pkt_jobs);

    let rows = lineup
        .iter()
        .enumerate()
        .map(|(i, proto)| {
            let base = i * ARRIVAL_RATES.len();
            ChurnRow {
                protocol: proto.name(),
                cells: ARRIVAL_RATES
                    .iter()
                    .enumerate()
                    .map(|(j, &rate)| {
                        let (settle, fairness, utilization) = cells[base + j];
                        ChurnCell {
                            rate,
                            settle,
                            fairness,
                            utilization,
                        }
                    })
                    .collect(),
                packet_utilization: pkt[i],
            }
        })
        .collect();
    ChurnReport {
        rates: ARRIVAL_RATES.to_vec(),
        rows,
    }
}

impl ChurnReport {
    /// Find a row by protocol-name prefix.
    pub fn row(&self, prefix: &str) -> Option<&ChurnRow> {
        self.rows.iter().find(|r| r.protocol.starts_with(prefix))
    }

    /// Sanity predicate for the registry: every score is finite and in
    /// range (fairness in `[0, 1]`, utilization positive, settle
    /// non-negative), and every protocol keeps the link busy under churn.
    pub fn sane(&self) -> bool {
        !self.rows.is_empty()
            && self.rows.iter().all(|r| {
                r.packet_utilization.is_finite()
                    && r.packet_utilization > 0.0
                    && r.cells.iter().all(|c| {
                        c.settle.is_finite()
                            && c.settle >= 0.0
                            && (0.0..=1.0).contains(&c.fairness)
                            && c.utilization.is_finite()
                            && c.utilization > 0.2
                    })
            })
    }

    /// Render as a text table: one row per (protocol, rate), with the
    /// packet-level storm cross-check on each protocol's first row.
    pub fn render(&self) -> String {
        let mut t = TextTable::new([
            "protocol",
            "rate",
            "settle (steps)",
            "coexist-fair",
            "util@churn",
            "pkt-util@storm",
        ]);
        for r in &self.rows {
            for (j, c) in r.cells.iter().enumerate() {
                t.row(vec![
                    if j == 0 {
                        r.protocol.clone()
                    } else {
                        String::new()
                    },
                    format!("{}", c.rate),
                    format!("{:.1}", c.settle),
                    fmt_score(c.fairness),
                    fmt_score(c.utilization),
                    if j == 0 {
                        fmt_score(r.packet_utilization)
                    } else {
                        String::new()
                    },
                ]);
            }
        }
        format!(
            "Flow churn under arrival storms — dynamic population (Section 6 direction).\n\
             Seeded Poisson arrivals (seed {CHURN_SEED}, mean lifetime {MEAN_LIFETIME} steps,\n\
             ≤{MAX_CONCURRENT} concurrent) on top of {BASE_SENDERS} long-lived flows. settle: mean steps after\n\
             an arrival until the aggregate window re-clears {:.0}% of C; coexist-fair:\n\
             length-weighted Jain's index between population changes; util@churn: mean\n\
             utilization over churn-active steps. pkt-util@storm: packet-level tail\n\
             utilization at the heaviest rate.\n\n{}",
            SETTLE_FRACTION * 100.0,
            t.render(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Shared report so the suite pays for the sweep once.
    fn report() -> &'static ChurnReport {
        use std::sync::OnceLock;
        static REPORT: OnceLock<ChurnReport> = OnceLock::new();
        REPORT.get_or_init(|| run_churn(1000, 8.0))
    }

    #[test]
    fn report_covers_the_full_lineup_and_rate_grid() {
        let rep = report();
        assert_eq!(rep.rows.len(), churn_lineup().len());
        for r in &rep.rows {
            assert_eq!(r.cells.len(), ARRIVAL_RATES.len());
            for (c, &rate) in r.cells.iter().zip(&ARRIVAL_RATES) {
                assert_eq!(c.rate, rate);
            }
        }
    }

    #[test]
    fn scores_are_sane_under_churn() {
        let rep = report();
        assert!(rep.sane(), "{}", rep.render());
    }

    #[test]
    fn streaming_and_traced_cells_are_bit_identical() {
        let lineup = churn_lineup();
        for proto in &lineup {
            let s = churn_cell(proto.as_ref(), ARRIVAL_RATES[1], 600, EvalMode::Streaming);
            let t = churn_cell(proto.as_ref(), ARRIVAL_RATES[1], 600, EvalMode::Traced);
            assert_eq!(s.0.to_bits(), t.0.to_bits(), "{} settle", proto.name());
            assert_eq!(s.1.to_bits(), t.1.to_bits(), "{} fairness", proto.name());
            assert_eq!(s.2.to_bits(), t.2.to_bits(), "{} utilization", proto.name());
        }
    }

    #[test]
    fn heavier_storms_never_reduce_the_arrival_count() {
        let steps = 2000;
        let calm = churn_markers(&churn_plan(ARRIVAL_RATES[0]), steps);
        let storm = churn_markers(&churn_plan(ARRIVAL_RATES[2]), steps);
        assert!(storm.arrivals.len() >= calm.arrivals.len());
        assert!(!storm.arrivals.is_empty(), "storm produced no arrivals");
    }

    #[test]
    fn render_names_every_protocol() {
        let rep = report();
        let txt = rep.render();
        for r in &rep.rows {
            assert!(txt.contains(&r.protocol), "{txt}");
        }
        assert!(txt.contains("pkt-util@storm"), "{txt}");
    }

    #[test]
    fn cell_job_fingerprints_separate_every_axis() {
        let digest = |name: &str, rate: f64, steps: usize, mode: EvalMode| {
            let job = ChurnCellJob {
                index: 0,
                name: name.into(),
                rate,
                steps,
                mode,
            };
            let mut fp = Fingerprinter::new();
            job.fingerprint(&mut fp);
            fp.finish()
        };
        let base = digest("AIMD(1,0.5)", 0.005, 1000, EvalMode::Streaming);
        assert_ne!(base, digest("CUBIC", 0.005, 1000, EvalMode::Streaming));
        assert_ne!(
            base,
            digest("AIMD(1,0.5)", 0.002, 1000, EvalMode::Streaming)
        );
        assert_ne!(
            base,
            digest("AIMD(1,0.5)", 0.005, 2000, EvalMode::Streaming)
        );
        assert_ne!(base, digest("AIMD(1,0.5)", 0.005, 1000, EvalMode::Traced));
    }
}
