//! **Table 1** — Protocol Characterization.
//!
//! The paper's Table 1 places AIMD, MIMD, BIN, CUBIC and Robust-AIMD in
//! the 8-metric space: worst-case bounds (angle brackets) plus
//! link-parameterized forms for efficiency, loss-avoidance and
//! TCP-friendliness. This module regenerates the table from the
//! closed forms in `axcc_core::theory::table1` and, alongside, the
//! **empirically measured** scores of the very same protocol instances in
//! the fluid simulator — the in-model counterpart of the paper's Emulab
//! validation (the packet-level grid lives in [`super::emulab`]).

use crate::estimators::empirical_scores_fluid;
use crate::report::{fmt_score, TextTable};
use axcc_core::fingerprint::{Fingerprint, Fingerprinter};
use axcc_core::theory::ProtocolSpec;
use axcc_core::{AxiomScores, LinkParams};
use axcc_protocols::build_protocol;
use axcc_sweep::{EvalMode, SweepJob, SweepRunner};
use serde::Serialize;

/// The protocol instances characterized in the generated table: the three
/// Linux protocols of the paper's experiments, one binomial representative
/// (IIAD), and the Table 2 Robust-AIMD instance.
pub fn table1_specs() -> Vec<ProtocolSpec> {
    vec![
        ProtocolSpec::RENO,
        ProtocolSpec::SCALABLE_MIMD,
        ProtocolSpec::Bin {
            a: 1.0,
            b: 0.5,
            k: 1.0,
            l: 0.0,
        },
        ProtocolSpec::CUBIC_LINUX,
        ProtocolSpec::ROBUST_AIMD_TABLE2,
    ]
}

/// One row of the generated Table 1.
#[derive(Debug, Clone, Serialize)]
pub struct Table1Row {
    /// The protocol instance.
    pub spec: ProtocolSpec,
    /// Display name.
    pub name: String,
    /// Worst-case (angle-bracket) theoretical scores.
    pub worst_case: AxiomScores,
    /// Link-parameterized theoretical scores.
    pub parameterized: AxiomScores,
    /// Empirically measured scores (present when simulation was run).
    pub measured: Option<AxiomScores>,
}

/// The generated table, with the link parameters it was evaluated at.
#[derive(Debug, Clone, Serialize)]
pub struct Table1 {
    /// Link capacity `C` (MSS).
    pub c: f64,
    /// Buffer `τ` (MSS).
    pub tau: f64,
    /// Number of senders `n` used in the parameterized forms.
    pub n: usize,
    /// Rows, in [`table1_specs`] order.
    pub rows: Vec<Table1Row>,
}

/// Build the theoretical table at link (`C`, `τ`) with `n` senders.
pub fn theoretical_table1(c: f64, tau: f64, n: usize) -> Table1 {
    let rows = table1_specs()
        .into_iter()
        .map(|spec| Table1Row {
            name: spec.name(),
            worst_case: spec.scores_worst(),
            parameterized: spec.scores(c, tau, n as f64),
            measured: None,
            spec,
        })
        .collect();
    Table1 { c, tau, n, rows }
}

/// One empirical-characterization job: simulate `spec` on `link` and
/// score the full 8-tuple. The fingerprint covers the protocol identity
/// (spec names embed every parameter) and the whole scenario.
struct MeasureJob {
    spec: ProtocolSpec,
    link: LinkParams,
    n: usize,
    steps: usize,
    mode: EvalMode,
}

impl Fingerprint for MeasureJob {
    fn fingerprint(&self, fp: &mut Fingerprinter) {
        fp.write_str(&self.spec.name());
        self.link.fingerprint(fp);
        fp.write_usize(self.n);
        fp.write_usize(self.steps);
        self.mode.fingerprint(fp);
    }
}

impl SweepJob for MeasureJob {
    type Output = AxiomScores;
    fn run(&self) -> AxiomScores {
        let proto = build_protocol(&self.spec);
        empirical_scores_fluid(proto.as_ref(), self.link, self.n, self.steps, self.mode)
    }
}

/// Build the table **with** empirical validation: each protocol instance
/// is simulated on `link` with `n` senders for `steps` fluid-model steps,
/// and its measured 8-tuple is attached to the row.
pub fn empirical_table1(link: LinkParams, n: usize, steps: usize) -> Table1 {
    empirical_table1_with(&SweepRunner::serial(), link, n, steps)
}

/// [`empirical_table1`] through an explicit sweep runner: one job per
/// protocol row, fanned out and answered from the cache where possible.
pub fn empirical_table1_with(
    runner: &SweepRunner,
    link: LinkParams,
    n: usize,
    steps: usize,
) -> Table1 {
    let mut table = theoretical_table1(link.capacity(), link.buffer, n);
    let jobs: Vec<MeasureJob> = table
        .rows
        .iter()
        .map(|row| MeasureJob {
            spec: row.spec,
            link,
            n,
            steps,
            mode: runner.eval_mode(),
        })
        .collect();
    let measured = runner.run_jobs("table1/empirical", &jobs);
    for (row, m) in table.rows.iter_mut().zip(measured) {
        row.measured = Some(m);
    }
    table
}

impl Table1 {
    /// Render as three stacked text tables (worst-case, parameterized,
    /// and — if present — measured), mirroring the paper's layout.
    pub fn render(&self) -> String {
        let headers = [
            "Protocol",
            "Efficiency",
            "Loss-Avoid",
            "Fast-Util",
            "TCP-Friendly",
            "Fair",
            "Conv",
            "Robust",
        ];
        let fill = |t: &mut TextTable, name: &str, s: &AxiomScores| {
            t.row([
                name.to_string(),
                fmt_score(s.efficiency),
                fmt_score(s.loss_bound),
                fmt_score(s.fast_utilization),
                fmt_score(s.tcp_friendliness),
                fmt_score(s.fairness),
                fmt_score(s.convergence),
                fmt_score(s.robustness),
            ]);
        };
        let mut out = String::new();
        out.push_str(&format!(
            "Table 1 — protocol characterization (C = {:.1} MSS, τ = {:.1} MSS, n = {})\n\n",
            self.c, self.tau, self.n
        ));
        out.push_str("Worst-case bounds (paper's angle brackets):\n");
        let mut t = TextTable::new(headers);
        for r in &self.rows {
            fill(&mut t, &r.name, &r.worst_case);
        }
        out.push_str(&t.render());
        out.push_str("\nParameterized (link-dependent) scores:\n");
        let mut t = TextTable::new(headers);
        for r in &self.rows {
            fill(&mut t, &r.name, &r.parameterized);
        }
        out.push_str(&t.render());
        if self.rows.iter().any(|r| r.measured.is_some()) {
            out.push_str("\nMeasured (fluid-model simulation):\n");
            let mut t = TextTable::new(headers);
            for r in &self.rows {
                if let Some(m) = &r.measured {
                    fill(&mut t, &r.name, m);
                }
            }
            out.push_str(&t.render());
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn theoretical_rows_cover_all_specs() {
        let t = theoretical_table1(350.0, 100.0, 2);
        assert_eq!(t.rows.len(), 5);
        assert_eq!(t.rows[0].name, "AIMD(1,0.5)");
        assert_eq!(t.rows[4].name, "R-AIMD(1,0.8,0.01)");
    }

    #[test]
    fn worst_case_values_match_paper_cells() {
        let t = theoretical_table1(350.0, 100.0, 2);
        let by_name = |n: &str| t.rows.iter().find(|r| r.name == n).unwrap();
        let reno = by_name("AIMD(1,0.5)");
        assert_eq!(reno.worst_case.efficiency, 0.5);
        assert_eq!(reno.worst_case.fast_utilization, 1.0);
        assert_eq!(reno.worst_case.fairness, 1.0);
        let mimd = by_name("MIMD(1.01,0.875)");
        assert!(mimd.worst_case.fast_utilization.is_infinite());
        assert_eq!(mimd.worst_case.fairness, 0.0);
        let raimd = by_name("R-AIMD(1,0.8,0.01)");
        assert_eq!(raimd.worst_case.robustness, 0.01);
    }

    #[test]
    fn parameterized_at_least_worst_case_for_efficiency() {
        let t = theoretical_table1(350.0, 100.0, 3);
        for r in &t.rows {
            assert!(
                r.parameterized.efficiency >= r.worst_case.efficiency - 1e-12,
                "{}",
                r.name
            );
        }
    }

    #[test]
    fn empirical_table_attaches_measurements() {
        // Small link + short runs to keep the test fast.
        let link = LinkParams::new(1000.0, 0.05, 20.0);
        let t = empirical_table1(link, 2, 800);
        for r in &t.rows {
            let m = r.measured.as_ref().expect("measured");
            assert!(m.efficiency > 0.0, "{} eff {}", r.name, m.efficiency);
            assert!(m.efficiency <= 1.0 + 1e-9);
        }
        // Robust-AIMD is the only robust protocol, measured too.
        let raimd = t
            .rows
            .iter()
            .find(|r| r.name.starts_with("R-AIMD"))
            .unwrap();
        assert!(raimd.measured.as_ref().unwrap().robustness > 0.0);
        let reno = &t.rows[0];
        assert_eq!(reno.measured.as_ref().unwrap().robustness, 0.0);
    }

    #[test]
    fn render_contains_all_sections_and_names() {
        let t = theoretical_table1(350.0, 100.0, 2);
        let s = t.render();
        assert!(s.contains("Worst-case"));
        assert!(s.contains("Parameterized"));
        assert!(!s.contains("Measured"));
        for r in &t.rows {
            assert!(s.contains(&r.name));
        }
    }
}
