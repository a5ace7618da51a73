//! Property tests for the empirical estimators: structural facts that must
//! hold for arbitrary protocol parameters and links — self-friendliness of
//! symmetric protocols, range constraints of the assembled score tuple,
//! and agreement between the sweep aggregation and its parts.

use axcc_analysis::estimators::{
    empirical_scores_fluid, measure_friendliness_fluid, measure_solo_fluid, EvalMode, SweepConfig,
};
use axcc_core::LinkParams;
use axcc_protocols::{Aimd, RobustAimd};
use proptest::prelude::*;

/// Every estimate here streams; the evaluation mode does not change scores.
const STREAMING: EvalMode = EvalMode::Streaming;

fn arb_link() -> impl Strategy<Value = LinkParams> {
    (400.0f64..4000.0, 0.02f64..0.08, 5.0f64..150.0)
        .prop_map(|(b, th, tau)| LinkParams::new(b, th, tau))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Any AIMD instance is near-1-friendly to itself: two identical
    /// additive-increase senders converge to equal shares from the
    /// standard initial pairs.
    #[test]
    fn aimd_self_friendliness(
        a in 0.5f64..2.0,
        b in 0.3f64..0.8,
        link in arb_link(),
    ) {
        let p = Aimd::new(a, b);
        let f = measure_friendliness_fluid(&p, &p, link, 1, 1, 2500, &[(1.0, 1.0)], STREAMING);
        prop_assert!(f > 0.75, "AIMD({a},{b}) self-friendliness {f}");
    }

    /// The assembled empirical tuple is always within the metrics' ranges.
    #[test]
    fn empirical_scores_in_range(
        a in 0.5f64..2.0,
        b in 0.3f64..0.8,
        link in arb_link(),
    ) {
        let s = empirical_scores_fluid(&Aimd::new(a, b), link, 2, 800, STREAMING);
        prop_assert!((0.0..=1.0).contains(&s.efficiency));
        prop_assert!((0.0..1.0).contains(&s.loss_bound));
        prop_assert!((0.0..=1.0).contains(&s.fairness));
        prop_assert!((0.0..=1.0).contains(&s.convergence));
        prop_assert!(s.fast_utilization >= 0.0);
        prop_assert!(s.tcp_friendliness >= 0.0);
        prop_assert!(s.robustness >= 0.0);
    }

    /// The sweep aggregation is the per-metric worst of its runs: the
    /// aggregate can never beat any single configuration's score.
    #[test]
    fn sweep_is_worst_case(
        a in 0.5f64..2.0,
        b in 0.3f64..0.8,
        link in arb_link(),
    ) {
        let p = Aimd::new(a, b);
        let full = measure_solo_fluid(&p, &SweepConfig::standard(link, 2, 800), STREAMING);
        // Re-run with just the uniform-small configuration.
        let single = measure_solo_fluid(
            &p,
            &SweepConfig {
                link,
                n_senders: 2,
                steps: 800,
                initial_configs: vec![vec![1.0, 1.0]],
            },
            STREAMING,
        );
        prop_assert!(full.efficiency <= single.efficiency + 1e-12);
        prop_assert!(full.loss_bound >= single.loss_bound - 1e-12);
        prop_assert!(full.fairness <= single.fairness + 1e-12);
        prop_assert!(full.convergence <= single.convergence + 1e-12);
    }

    /// Robust-AIMD's measured friendliness decreases (or holds) as ε grows
    /// — the Theorem 3 tradeoff, at property-test scale.
    #[test]
    fn eps_monotonically_costs_friendliness(
        link in arb_link(),
        eps_low in 0.002f64..0.008,
    ) {
        let eps_high = eps_low * 4.0;
        let reno = Aimd::reno();
        let f = |eps: f64| {
            measure_friendliness_fluid(
                &RobustAimd::new(1.0, 0.8, eps),
                &reno,
                link,
                1,
                1,
                2500,
                &[(1.0, 1.0)],
                STREAMING,
            )
        };
        let low = f(eps_low);
        let high = f(eps_high);
        prop_assert!(
            high <= low + 0.1,
            "ε {eps_low} → {low}, ε {eps_high} → {high}"
        );
    }
}
