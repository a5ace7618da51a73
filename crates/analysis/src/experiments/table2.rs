//! **Table 2** — TCP-friendliness of Robust-AIMD(1, 0.8, 0.01) vs PCC.
//!
//! Paper, Section 5.2: *"Our experimental results comparing Robust-AIMD's
//! TCP friendliness to PCC appear in Table 2. Each entry in the table
//! specifies the improvement … of Robust-AIMD(1,0.8) over PCC for
//! different choices of number of senders on the link (n) and link
//! bandwidth, constant RTT of 42ms and buffer size of 100 MSS. Observe
//! that Robust-AIMD consistently attains >1.5x TCP-friendliness than PCC
//! (1.92x improvement on average)."*
//!
//! Reproduction: for each `(n, BW)` cell we run two scenarios on a
//! 42-ms-RTT, 100-MSS-buffer link — `n − 1` protocol senders (Robust-AIMD
//! or PCC) sharing with one TCP Reno sender — and measure the friendliness
//! score of Metric VII (the Reno sender's tail-average window as a fraction
//! of the strongest protocol sender's). The cell value is the ratio
//! `friendliness(R-AIMD) / friendliness(PCC)`; > 1 means Robust-AIMD left
//! TCP more room, as the paper reports in every cell.

use crate::estimators::{measure_friendliness_fluid, measure_friendliness_packet};
use crate::report::{fmt_ratio, TextTable};
use axcc_core::axioms::friendliness::measured_friendliness;
use axcc_core::fingerprint::{Fingerprint, Fingerprinter};
use axcc_core::units::Bandwidth;
use axcc_core::{LinkParams, Protocol};
use axcc_packetsim::{PacketScenario, PacketSenderConfig};
use axcc_protocols::{Aimd, Pcc, RobustAimd};
use axcc_sweep::{EvalMode, SweepJob, SweepRunner};
use serde::Serialize;

/// The paper's sender counts.
pub const TABLE2_NS: [usize; 3] = [2, 3, 4];
/// The paper's link bandwidths (Mbps).
pub const TABLE2_BWS: [f64; 4] = [20.0, 30.0, 60.0, 100.0];
/// The paper's RTT (ms).
pub const TABLE2_RTT_MS: f64 = 42.0;
/// The paper's buffer (MSS).
pub const TABLE2_BUFFER_MSS: f64 = 100.0;

/// Fluid cells always stream: the cell fingerprints carry no evaluation
/// mode, so a cached cell must not depend on one.
const STREAMING: EvalMode = EvalMode::Streaming;

/// One `(n, BW)` cell.
#[derive(Debug, Clone, Serialize)]
pub struct Table2Cell {
    /// Total senders on the link (n − 1 protocol senders + 1 Reno).
    pub n: usize,
    /// Link bandwidth (Mbps).
    pub bw_mbps: f64,
    /// Friendliness of Robust-AIMD towards Reno (Metric VII score).
    pub friendliness_robust_aimd: f64,
    /// Friendliness of PCC towards Reno.
    pub friendliness_pcc: f64,
}

impl Table2Cell {
    /// The reported improvement factor
    /// (`friendliness(R-AIMD) / friendliness(PCC)`).
    pub fn improvement(&self) -> f64 {
        if self.friendliness_pcc <= 0.0 {
            f64::INFINITY
        } else {
            self.friendliness_robust_aimd / self.friendliness_pcc
        }
    }
}

/// The full grid.
#[derive(Debug, Clone, Serialize)]
pub struct Table2 {
    /// All `(n, BW)` cells, n-major (the paper's column order).
    pub cells: Vec<Table2Cell>,
    /// Which backend produced it (`"fluid"` or `"packet"`).
    pub backend: String,
}

/// Which simulation backend a Table 2 cell runs on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Table2Backend {
    Fluid,
    Packet,
    PacketPaced,
}

impl Table2Backend {
    fn label(self) -> &'static str {
        match self {
            Table2Backend::Fluid => "fluid",
            Table2Backend::Packet => "packet",
            Table2Backend::PacketPaced => "packet (paced PCC)",
        }
    }
}

/// One `(n, BW)` cell evaluation: both comparator runs (Robust-AIMD and
/// PCC vs one Reno) on the shared 42-ms / 100-MSS link. Output is the
/// `(friendliness(R-AIMD), friendliness(PCC))` pair.
struct CellJob {
    backend: Table2Backend,
    n: usize,
    bw_mbps: f64,
    /// Fluid steps or packet seconds, depending on backend.
    budget: f64,
}

impl Fingerprint for CellJob {
    fn fingerprint(&self, fp: &mut Fingerprinter) {
        fp.write_str(self.backend.label());
        fp.write_usize(self.n);
        fp.write_f64(self.bw_mbps);
        fp.write_f64(self.budget);
        fp.write_f64(TABLE2_RTT_MS);
        fp.write_f64(TABLE2_BUFFER_MSS);
    }
}

impl SweepJob for CellJob {
    type Output = (f64, f64);
    fn run(&self) -> (f64, f64) {
        let reno = Aimd::reno();
        let robust = RobustAimd::table2();
        let link = LinkParams::from_experiment(
            Bandwidth::Mbps(self.bw_mbps),
            TABLE2_RTT_MS,
            TABLE2_BUFFER_MSS,
        );
        let n_p = self.n - 1;
        match self.backend {
            Table2Backend::Fluid => {
                let pairs = [(1.0, 1.0)];
                let steps = self.budget as usize;
                let f = |p: &dyn Protocol| {
                    measure_friendliness_fluid(p, &reno, link, n_p, 1, steps, &pairs, STREAMING)
                };
                (f(&robust), f(&Pcc::new()))
            }
            Table2Backend::Packet => (
                measure_friendliness_packet(&robust, &reno, link, n_p, 1, self.budget, 0),
                measure_friendliness_packet(&Pcc::new(), &reno, link, n_p, 1, self.budget, 0),
            ),
            Table2Backend::PacketPaced => {
                let f_r = measure_friendliness_packet(&robust, &reno, link, n_p, 1, self.budget, 0);
                // Paced-PCC cell, built directly.
                let mut sc = PacketScenario::new(link).duration_secs(self.budget);
                for _ in 0..n_p {
                    sc = sc.sender(PacketSenderConfig::new(Box::new(Pcc::new())).paced());
                }
                sc = sc.sender(PacketSenderConfig::new(Box::new(Aimd::reno())));
                let out = sc.run();
                let tail = out.trace.tail_start(0.5);
                let p_idx: Vec<usize> = (0..n_p).collect();
                let f_p = measured_friendliness(&out.trace, &p_idx, &[n_p], tail);
                (f_r, f_p)
            }
        }
    }
}

/// Build Table 2 with the **fluid** backend (`steps` RTT steps per run).
pub fn build_table2_fluid(steps: usize) -> Table2 {
    build_table2_fluid_with(&SweepRunner::serial(), steps)
}

/// [`build_table2_fluid`] through an explicit sweep runner.
pub fn build_table2_fluid_with(runner: &SweepRunner, steps: usize) -> Table2 {
    build_table2(runner, Table2Backend::Fluid, steps as f64)
}

/// Build Table 2 with the **packet-level** backend (`duration_secs` per
/// run) — the closer analogue of the paper's testbed.
pub fn build_table2_packet(duration_secs: f64) -> Table2 {
    build_table2_packet_with(&SweepRunner::serial(), duration_secs)
}

/// [`build_table2_packet`] through an explicit sweep runner.
pub fn build_table2_packet_with(runner: &SweepRunner, duration_secs: f64) -> Table2 {
    build_table2(runner, Table2Backend::Packet, duration_secs)
}

/// Build Table 2 at packet level with a **paced** PCC — the real PCC is a
/// rate-based (pacing) protocol, so this variant is the most faithful
/// rendering of the paper's comparator. Robust-AIMD stays window-clocked
/// ("the sender has a congestion window, similarly to TCP and unlike
/// PCC").
pub fn build_table2_packet_paced(duration_secs: f64) -> Table2 {
    build_table2_packet_paced_with(&SweepRunner::serial(), duration_secs)
}

/// [`build_table2_packet_paced`] through an explicit sweep runner.
pub fn build_table2_packet_paced_with(runner: &SweepRunner, duration_secs: f64) -> Table2 {
    build_table2(runner, Table2Backend::PacketPaced, duration_secs)
}

fn build_table2(runner: &SweepRunner, backend: Table2Backend, budget: f64) -> Table2 {
    let mut jobs = Vec::new();
    for &n in &TABLE2_NS {
        for &bw in &TABLE2_BWS {
            jobs.push(CellJob {
                backend,
                n,
                bw_mbps: bw,
                budget,
            });
        }
    }
    let pairs = runner.run_jobs("table2/cells", &jobs);
    let cells = jobs
        .iter()
        .zip(pairs)
        .map(|(job, (f_r, f_p))| Table2Cell {
            n: job.n,
            bw_mbps: job.bw_mbps,
            friendliness_robust_aimd: f_r,
            friendliness_pcc: f_p,
        })
        .collect();
    Table2 {
        cells,
        backend: backend.label().to_string(),
    }
}

impl Table2 {
    /// Mean improvement factor across cells (the paper reports 1.92x).
    pub fn average_improvement(&self) -> f64 {
        let finite: Vec<f64> = self
            .cells
            .iter()
            .map(|c| c.improvement())
            .filter(|v| v.is_finite())
            .collect();
        if finite.is_empty() {
            f64::INFINITY
        } else {
            finite.iter().sum::<f64>() / finite.len() as f64
        }
    }

    /// Whether Robust-AIMD beats PCC in every cell (the paper's headline:
    /// "consistently attains >1.5x" — we report the weaker every-cell > 1
    /// check separately from the magnitude).
    pub fn robust_wins_everywhere(&self) -> bool {
        self.cells.iter().all(|c| c.improvement() > 1.0)
    }

    /// Render in the paper's layout: one row of `(n, BW)` headers, one row
    /// of improvement factors.
    pub fn render(&self) -> String {
        let mut t = TextTable::new(["(n,BW)", "f(R-AIMD)", "f(PCC)", "improvement"]);
        for c in &self.cells {
            t.row([
                format!("({},{})", c.n, c.bw_mbps),
                crate::report::fmt_score(c.friendliness_robust_aimd),
                crate::report::fmt_score(c.friendliness_pcc),
                fmt_ratio(c.improvement()),
            ]);
        }
        format!(
            "Table 2 — TCP-friendliness of Robust-AIMD(1,0.8,0.01) vs PCC ({} backend)\n\n{}\naverage improvement: {}\nR-AIMD wins every cell: {}\n",
            self.backend,
            t.render(),
            fmt_ratio(self.average_improvement()),
            self.robust_wins_everywhere()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::estimators::measure_friendliness_fluid;

    #[test]
    fn single_cell_robust_beats_pcc_fluid() {
        // One Table 2 cell, fluid backend: (n=2, 20 Mbps).
        let link =
            LinkParams::from_experiment(Bandwidth::Mbps(20.0), TABLE2_RTT_MS, TABLE2_BUFFER_MSS);
        let reno = Aimd::reno();
        let pairs = [(1.0, 1.0)];
        let f = |p: &dyn Protocol| {
            measure_friendliness_fluid(p, &reno, link, 1, 1, 4000, &pairs, STREAMING)
        };
        let (f_r, f_p) = (f(&RobustAimd::table2()), f(&Pcc::new()));
        assert!(
            f_r > f_p,
            "Robust-AIMD friendliness {f_r} should exceed PCC's {f_p}"
        );
        assert!(f_p >= 0.0);
    }

    #[test]
    fn paced_pcc_cell_preserves_the_winner() {
        // One paced-PCC cell at reduced budget: R-AIMD still wins.
        let link =
            LinkParams::from_experiment(Bandwidth::Mbps(20.0), TABLE2_RTT_MS, TABLE2_BUFFER_MSS);
        let reno = Aimd::reno();
        let f_r = crate::estimators::measure_friendliness_packet(
            &RobustAimd::table2(),
            &reno,
            link,
            1,
            1,
            30.0,
            0,
        );
        let out = PacketScenario::new(link)
            .sender(PacketSenderConfig::new(Box::new(Pcc::new())).paced())
            .sender(PacketSenderConfig::new(Box::new(Aimd::reno())))
            .duration_secs(30.0)
            .run();
        let tail = out.trace.tail_start(0.5);
        let f_p = measured_friendliness(&out.trace, &[0], &[1], tail);
        assert!(f_r > f_p, "R-AIMD {f_r} vs paced PCC {f_p}");
    }

    #[test]
    fn cell_improvement_algebra() {
        let c = Table2Cell {
            n: 2,
            bw_mbps: 20.0,
            friendliness_robust_aimd: 0.3,
            friendliness_pcc: 0.15,
        };
        assert!((c.improvement() - 2.0).abs() < 1e-12);
        let zero = Table2Cell {
            friendliness_pcc: 0.0,
            ..c
        };
        assert!(zero.improvement().is_infinite());
    }

    #[test]
    fn grid_enumeration_matches_paper() {
        // 3 × 4 = 12 cells, n-major like the paper's header row.
        assert_eq!(TABLE2_NS.len() * TABLE2_BWS.len(), 12);
    }

    #[test]
    fn average_improvement_skips_infinite_cells() {
        let t = Table2 {
            backend: "test".into(),
            cells: vec![
                Table2Cell {
                    n: 2,
                    bw_mbps: 20.0,
                    friendliness_robust_aimd: 0.4,
                    friendliness_pcc: 0.2,
                },
                Table2Cell {
                    n: 2,
                    bw_mbps: 30.0,
                    friendliness_robust_aimd: 0.4,
                    friendliness_pcc: 0.0,
                },
            ],
        };
        assert!((t.average_improvement() - 2.0).abs() < 1e-12);
        assert!(t.robust_wins_everywhere());
    }
}
