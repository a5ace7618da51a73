//! Criterion bench for the Table 1 regeneration path.
//!
//! Times (a) the closed-form evaluation of every Table 1 cell and (b) the
//! per-protocol empirical scoring sweep that the `gen-table1 --simulate`
//! binary runs, at a reduced step budget so the bench stays in seconds.

use axcc_analysis::estimators::{measure_solo_fluid, EvalMode, SweepConfig};
use axcc_analysis::experiments::table1::{table1_specs, theoretical_table1};
use axcc_core::LinkParams;
use axcc_protocols::build_protocol;
use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use std::hint::black_box;

/// Every estimate here streams; the evaluation mode does not change scores.
const STREAMING: EvalMode = EvalMode::Streaming;

fn bench_theory(c: &mut Criterion) {
    c.bench_function("table1/theory_full_table", |b| {
        b.iter(|| black_box(theoretical_table1(black_box(350.0), black_box(100.0), 3)))
    });
}

fn bench_empirical_rows(c: &mut Criterion) {
    let link = LinkParams::new(1000.0, 0.05, 20.0);
    let mut group = c.benchmark_group("table1/empirical_row");
    group.sample_size(10);
    for spec in table1_specs() {
        group.bench_function(spec.name(), |b| {
            b.iter_batched(
                || build_protocol(&spec),
                |proto| {
                    black_box(measure_solo_fluid(
                        proto.as_ref(),
                        &SweepConfig::standard(link, 2, 500),
                        STREAMING,
                    ))
                },
                BatchSize::SmallInput,
            )
        });
    }
    group.finish();
}

criterion_group!(benches, bench_theory, bench_empirical_rows);
criterion_main!(benches);
