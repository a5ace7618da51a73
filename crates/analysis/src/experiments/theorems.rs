//! **Section 4** — Claim 1 and Theorems 1–5, checked against simulation.
//!
//! Each check instantiates the theorem's hypotheses with concrete
//! protocols, runs the fluid model, and verifies the conclusion on the
//! measured scores. Exact bounds are asserted where the paper says they
//! are tight (Theorem 2 on AIMD); elsewhere the check verifies the
//! *qualitative* content — orderings and impossibilities — which is the
//! level at which a discretized simulation can confirm a fluid-limit
//! theorem.

use crate::estimators::{
    eval_metrics, measure_friendliness_fluid, measure_robustness_fluid, measure_solo_fluid,
    stream_options_for, SweepConfig, ROBUSTNESS_RATES,
};
use axcc_core::fingerprint::{Fingerprint, Fingerprinter};
use axcc_core::theory::theorems::{
    theorem1_efficiency_lower_bound, theorem2_friendliness_upper_bound,
    theorem3_friendliness_upper_bound,
};
use axcc_core::{LinkParams, Protocol};
use axcc_fluidsim::{MetricSet, Scenario, SenderConfig};
use axcc_protocols::{Aimd, CautiousProber, Mimd, RobustAimd, Vegas};
use axcc_sweep::{Cacheable, EvalMode, Record, SweepJob, SweepRunner};
use serde::Serialize;

/// Outcome of one theorem check.
#[derive(Debug, Clone, Serialize)]
pub struct TheoremCheck {
    /// Which result was checked.
    pub name: String,
    /// Whether the simulated behaviour conforms.
    pub passed: bool,
    /// Human-readable evidence.
    pub detail: String,
}

impl Cacheable for TheoremCheck {
    fn to_record(&self) -> Record {
        let mut r = Record::new();
        r.push_str(&self.name);
        r.push_bool(self.passed);
        r.push_str(&self.detail);
        r
    }
    fn from_record(record: &Record) -> Option<Self> {
        let mut rd = record.reader();
        let c = TheoremCheck {
            name: rd.str()?.to_string(),
            passed: rd.bool()?,
            detail: rd.str()?.to_string(),
        };
        rd.exhausted().then_some(c)
    }
}

/// Standard link for the checks: the [`LinkParams::reference`] link
/// (12 Mbps, C = 100 MSS, τ = 20 MSS).
pub fn check_link() -> LinkParams {
    LinkParams::reference()
}

/// A theorem check: fluid-model steps and evaluation mode in, verdict out.
type CheckFn = fn(usize, EvalMode) -> TheoremCheck;

/// The individual checks, in report order, as dispatchable entries.
const CHECKS: [(&str, CheckFn); 6] = [
    ("claim1", check_claim1),
    ("theorem1", check_theorem1),
    ("theorem2", check_theorem2),
    ("theorem3", check_theorem3),
    ("theorem4", check_theorem4),
    ("theorem5", check_theorem5),
];

/// One theorem-check job, identified by its stable dispatch key.
struct CheckJob {
    key: &'static str,
    // tidy-allow: fingerprint-coverage — redundant with key: the dispatch table maps each stable key to exactly one check function.
    run: CheckFn,
    steps: usize,
    mode: EvalMode,
}

impl Fingerprint for CheckJob {
    fn fingerprint(&self, fp: &mut Fingerprinter) {
        fp.write_str(self.key);
        fp.write_usize(self.steps);
        self.mode.fingerprint(fp);
    }
}

impl SweepJob for CheckJob {
    type Output = TheoremCheck;
    fn run(&self) -> TheoremCheck {
        (self.run)(self.steps, self.mode)
    }
}

/// Run every check. `steps` controls the run length of each simulation
/// (3000 is comfortable; tests use less).
pub fn check_all(steps: usize) -> Vec<TheoremCheck> {
    check_all_with(&SweepRunner::serial(), steps)
}

/// [`check_all`] through an explicit sweep runner: the six checks are
/// independent simulations and fan out as six jobs.
pub fn check_all_with(runner: &SweepRunner, steps: usize) -> Vec<TheoremCheck> {
    let jobs: Vec<CheckJob> = CHECKS
        .iter()
        .map(|&(key, run)| CheckJob {
            key,
            run,
            steps,
            mode: runner.eval_mode(),
        })
        .collect();
    runner.run_jobs("theorems/check", &jobs)
}

/// **Claim 1**: a loss-based 0-loss protocol is not α-fast-utilizing for
/// any α > 0 — and the combination is *only just* impossible: the
/// cautious prober is 0-loss with fast-utilization ≈ 0, while Reno is
/// ~1-fast-utilizing but must keep incurring loss.
pub fn check_claim1(steps: usize, mode: EvalMode) -> TheoremCheck {
    let link = check_link();
    let scenario = |p: Box<dyn Protocol>| {
        Scenario::new(link)
            .sender(SenderConfig::new(p).initial_window(1.0))
            .steps(steps)
    };
    let opts = stream_options_for(MetricSet::LOSS_AVOIDANCE.with(MetricSet::FAST_UTILIZATION));
    let prober = eval_metrics(
        scenario(Box::new(CautiousProber::default_probe())),
        &opts,
        mode,
    );
    let reno = eval_metrics(scenario(Box::new(Aimd::reno())), &opts, mode);
    let prober_zero_loss = prober.is_zero_loss();
    let prober_fast = prober.measured_fast_utilization(0).unwrap_or(0.0);
    let reno_lossy = !reno.is_zero_loss();
    let reno_fast = reno.measured_fast_utilization(0).unwrap_or(0.0);

    let passed = prober_zero_loss && prober_fast < 0.05 && reno_lossy && reno_fast > 0.5;
    TheoremCheck {
        name: "Claim 1 (0-loss ⇒ not fast-utilizing, for loss-based)".into(),
        passed,
        detail: format!(
            "prober: zero-loss={prober_zero_loss}, fast-util={prober_fast:.3}; \
             reno: recurrent-loss={reno_lossy}, fast-util={reno_fast:.3}"
        ),
    }
}

/// **Theorem 1**: α-convergent ∧ β-fast-utilizing (β > 0) ⇒
/// ≥ α/(2−α)-efficient. Checked on an AIMD(a, b) grid.
pub fn check_theorem1(steps: usize, mode: EvalMode) -> TheoremCheck {
    let link = check_link();
    let mut detail = String::new();
    let mut passed = true;
    for &(a, b) in &[(1.0, 0.5), (1.0, 0.8), (2.0, 0.5), (0.5, 0.7)] {
        let m = measure_solo_fluid(
            &Aimd::new(a, b),
            &SweepConfig::standard(link, 2, steps),
            mode,
        );
        if m.fast_utilization.unwrap_or(0.0) <= 0.0 {
            continue; // hypothesis not established for this instance
        }
        let bound = theorem1_efficiency_lower_bound(m.convergence.clamp(0.0, 1.0));
        // Allow 5% discretization slack.
        let ok = m.efficiency >= bound - 0.05;
        passed &= ok;
        detail.push_str(&format!(
            "AIMD({a},{b}): conv={:.3} ⇒ eff≥{bound:.3}, measured eff={:.3} [{}]; ",
            m.convergence,
            m.efficiency,
            if ok { "ok" } else { "VIOLATED" }
        ));
    }
    TheoremCheck {
        name: "Theorem 1 (convergence + fast-utilization ⇒ efficiency)".into(),
        passed,
        detail,
    }
}

/// **Theorem 2**: loss-based, α-fast-utilizing, β-efficient ⇒ at most
/// 3(1−β)/(α(1+β))-TCP-friendly — and the bound is tight for AIMD(α, β).
/// Checked by measuring AIMD(a, b) vs Reno and comparing with the bound at
/// the instance's own (a, worst-case-b) scores.
pub fn check_theorem2(steps: usize, mode: EvalMode) -> TheoremCheck {
    let link = check_link();
    let reno = Aimd::reno();
    let mut detail = String::new();
    let mut passed = true;
    for &(a, b) in &[(1.0, 0.5), (2.0, 0.5), (4.0, 0.5), (1.0, 0.8)] {
        let f = measure_friendliness_fluid(
            &Aimd::new(a, b),
            &reno,
            link,
            1,
            1,
            steps,
            &[(1.0, 1.0)],
            mode,
        );
        let bound = theorem2_friendliness_upper_bound(a, b);
        // Tightness + discretization: measured within [0.5, 1.35]×bound.
        let ok = f <= bound * 1.35 + 0.05 && f >= bound * 0.5 - 0.05;
        passed &= ok;
        detail.push_str(&format!(
            "AIMD({a},{b}): bound={bound:.3}, measured={f:.3} [{}]; ",
            if ok { "ok" } else { "VIOLATED" }
        ));
    }
    TheoremCheck {
        name: "Theorem 2 (fast-utilization + efficiency cap TCP-friendliness; tight for AIMD)"
            .into(),
        passed,
        detail,
    }
}

/// **Theorem 3**: adding ε-robustness tightens the friendliness cap by a
/// factor ~4(C+τ). Quantitatively the cap concerns worst-case configurations
/// beyond a single simulation, so the check verifies the theorem's
/// *structure*: (i) the Theorem 3 bound is far below the Theorem 2 bound at
/// matching parameters, (ii) the robust protocol is measurably robust where
/// AIMD is not, and (iii) the robust protocol is measurably *less* friendly
/// than its non-robust AIMD counterpart — robustness is paid for in
/// friendliness, which is the theorem's content.
pub fn check_theorem3(steps: usize, mode: EvalMode) -> TheoremCheck {
    let link = check_link();
    let ct = link.loss_threshold();
    let reno = Aimd::reno();
    let (a, b, eps) = (1.0, 0.8, 0.01);

    let t2 = theorem2_friendliness_upper_bound(a, b);
    let t3 = theorem3_friendliness_upper_bound(a, b, eps, ct);
    let bounds_ordered = t3 < t2;

    let robust = RobustAimd::new(a, b, eps);
    let plain = Aimd::new(a, b);
    let r_rob = measure_robustness_fluid(&robust, &ROBUSTNESS_RATES, steps, mode);
    let r_plain = measure_robustness_fluid(&plain, &ROBUSTNESS_RATES, steps, mode);
    // `<= 0.0` rather than `== 0.0`: NaN-sound, and a (theoretically
    // impossible) negative score must not count as "robust".
    let robustness_ordered = r_rob > 0.0 && r_plain <= 0.0;

    let f_rob = measure_friendliness_fluid(&robust, &reno, link, 1, 1, steps, &[(1.0, 1.0)], mode);
    let f_plain = measure_friendliness_fluid(&plain, &reno, link, 1, 1, steps, &[(1.0, 1.0)], mode);
    let friendliness_ordered = f_rob < f_plain;

    TheoremCheck {
        name: "Theorem 3 (robustness costs TCP-friendliness)".into(),
        passed: bounds_ordered && robustness_ordered && friendliness_ordered,
        detail: format!(
            "bounds: T3={t3:.5} < T2={t2:.3} [{bounds_ordered}]; \
             robustness: R-AIMD={r_rob:.3} vs AIMD={r_plain:.3} [{robustness_ordered}]; \
             friendliness: R-AIMD={f_rob:.3} < AIMD={f_plain:.3} [{friendliness_ordered}]"
        ),
    }
}

/// **Theorem 4**: if P is α-TCP-friendly and Q (in AIMD/BIN/MIMD) is more
/// aggressive than Reno, then P is α-friendly to Q. Checked by measuring a
/// mild AIMD's friendliness towards Reno and towards two more-aggressive
/// protocols — the latter must not fall below the former (Q defends itself
/// at least as well as Reno does).
pub fn check_theorem4(steps: usize, mode: EvalMode) -> TheoremCheck {
    let link = check_link();
    let p = Aimd::new(1.0, 0.7);
    let reno = Aimd::reno();
    let q_aimd = Aimd::scalable(); // AIMD(1, 0.875): more aggressive than Reno
    let q_mimd = Mimd::scalable(); // MIMD(1.01, 0.875): more aggressive than Reno

    // Hypothesis (3): both Qs are more aggressive than Reno — verified
    // empirically (the semantic relation, not just the syntactic rules).
    let q1_aggr = crate::estimators::empirically_more_aggressive(&q_aimd, &reno, link, steps, mode);
    let q2_aggr = crate::estimators::empirically_more_aggressive(&q_mimd, &reno, link, steps, mode);

    let pairs = [(1.0, 1.0)];
    let f_reno = measure_friendliness_fluid(&p, &reno, link, 1, 1, steps, &pairs, mode);
    let f_q1 = measure_friendliness_fluid(&p, &q_aimd, link, 1, 1, steps, &pairs, mode);
    let f_q2 = measure_friendliness_fluid(&p, &q_mimd, link, 1, 1, steps, &pairs, mode);

    let tol = 0.1;
    let passed = q1_aggr && q2_aggr && f_q1 >= f_reno - tol && f_q2 >= f_reno - tol;
    TheoremCheck {
        name: "Theorem 4 (friendliness transfers to more-aggressive protocols)".into(),
        passed,
        detail: format!(
            "hypotheses: AIMD(1,0.875) more aggressive than Reno [{q1_aggr}], \
             MIMD(1.01,0.875) more aggressive than Reno [{q2_aggr}]; \
             P=AIMD(1,0.7): friendliness to Reno={f_reno:.3}, to AIMD(1,0.875)={f_q1:.3}, \
             to MIMD(1.01,0.875)={f_q2:.3}"
        ),
    }
}

/// **Theorem 5**: an α-efficient loss-based protocol is not β-friendly to
/// any latency-avoiding protocol, for any β > 0. Checked by pitting Reno
/// against Vegas on a deep-buffered link: Reno fills the buffer, Vegas
/// backs off on the RTT rise and is squeezed towards nothing, and the
/// squeeze *worsens* as the link (and with it Vegas's latency slack)
/// grows — the "not β-friendly for ANY β" shape.
pub fn check_theorem5(steps: usize, mode: EvalMode) -> TheoremCheck {
    let reno = Aimd::reno();
    let vegas = Vegas::classic();
    // Deep buffer (τ = C) so the loss-based sender sustains a standing
    // queue, which is what crushes the latency-avoider.
    let measure = |c_mss: f64| {
        let link = LinkParams::new(c_mss * 10.0, 0.05, c_mss);
        measure_friendliness_fluid(&reno, &vegas, link, 1, 1, steps, &[(1.0, 1.0)], mode)
    };
    let f_small = measure(100.0);
    let f_large = measure(400.0);
    let passed = f_small < 0.35 && f_large <= f_small + 0.02;
    TheoremCheck {
        name: "Theorem 5 (loss-based protocols starve latency-avoiders)".into(),
        passed,
        detail: format!(
            "Reno vs Vegas friendliness: C=100 ⇒ {f_small:.3}; C=400 ⇒ {f_large:.3} \
             (small and non-increasing in link size)"
        ),
    }
}

/// Render all checks as a text report.
pub fn render_checks(checks: &[TheoremCheck]) -> String {
    let mut out = String::from("Section 4 — theorem checks against simulation\n\n");
    for c in checks {
        out.push_str(&format!(
            "[{}] {}\n    {}\n",
            if c.passed { "PASS" } else { "FAIL" },
            c.name,
            c.detail
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    // Each check is exercised individually with moderate step counts so
    // failures localize; the binary runs them longer.

    #[test]
    fn claim1_holds() {
        let c = check_claim1(2000, EvalMode::Streaming);
        assert!(c.passed, "{}", c.detail);
    }

    #[test]
    fn theorem1_holds() {
        let c = check_theorem1(2000, EvalMode::Streaming);
        assert!(c.passed, "{}", c.detail);
    }

    #[test]
    fn theorem2_holds() {
        let c = check_theorem2(3000, EvalMode::Streaming);
        assert!(c.passed, "{}", c.detail);
    }

    #[test]
    fn theorem3_holds() {
        let c = check_theorem3(2500, EvalMode::Streaming);
        assert!(c.passed, "{}", c.detail);
    }

    #[test]
    fn theorem4_holds() {
        let c = check_theorem4(3000, EvalMode::Streaming);
        assert!(c.passed, "{}", c.detail);
    }

    #[test]
    fn theorem5_holds() {
        let c = check_theorem5(2500, EvalMode::Streaming);
        assert!(c.passed, "{}", c.detail);
    }

    #[test]
    fn every_check_is_identical_across_evaluation_modes() {
        // The streaming path must reproduce the traced verdicts AND the
        // rendered evidence strings exactly (the details embed measured
        // scores, so string equality is bit equality of every number).
        for &(key, run) in &CHECKS {
            let traced = run(700, EvalMode::Traced);
            let streamed = run(700, EvalMode::Streaming);
            assert_eq!(traced.passed, streamed.passed, "{key}");
            assert_eq!(traced.detail, streamed.detail, "{key}");
        }
    }

    #[test]
    fn render_lists_all() {
        let checks = vec![TheoremCheck {
            name: "x".into(),
            passed: true,
            detail: "d".into(),
        }];
        let s = render_checks(&checks);
        assert!(s.contains("[PASS] x"));
    }
}
