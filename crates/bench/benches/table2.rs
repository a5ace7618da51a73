//! Criterion bench for the Table 2 regeneration path: one friendliness
//! cell (1 protocol sender + 1 Reno) in each backend, at reduced budgets.

use axcc_analysis::estimators::{
    measure_friendliness_fluid, measure_friendliness_packet, EvalMode,
};
use axcc_core::units::Bandwidth;
use axcc_core::LinkParams;
use axcc_protocols::{Aimd, Pcc, RobustAimd};
use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

/// Every estimate here streams; the evaluation mode does not change scores.
const STREAMING: EvalMode = EvalMode::Streaming;

fn cell_link() -> LinkParams {
    LinkParams::from_experiment(Bandwidth::Mbps(20.0), 42.0, 100.0)
}

fn bench_fluid_cell(c: &mut Criterion) {
    let link = cell_link();
    let reno = Aimd::reno();
    let mut group = c.benchmark_group("table2/fluid_cell");
    group.sample_size(10);
    group.bench_function("robust_aimd_vs_reno", |b| {
        let robust = RobustAimd::table2();
        b.iter(|| {
            black_box(measure_friendliness_fluid(
                &robust,
                &reno,
                link,
                1,
                1,
                1000,
                &[(1.0, 1.0)],
                STREAMING,
            ))
        })
    });
    group.bench_function("pcc_vs_reno", |b| {
        let pcc = Pcc::new();
        b.iter(|| {
            black_box(measure_friendliness_fluid(
                &pcc,
                &reno,
                link,
                1,
                1,
                1000,
                &[(1.0, 1.0)],
                STREAMING,
            ))
        })
    });
    group.finish();
}

fn bench_packet_cell(c: &mut Criterion) {
    let link = cell_link();
    let reno = Aimd::reno();
    let mut group = c.benchmark_group("table2/packet_cell");
    group.sample_size(10);
    group.bench_function("robust_aimd_vs_reno_10s", |b| {
        let robust = RobustAimd::table2();
        b.iter(|| {
            black_box(measure_friendliness_packet(
                &robust, &reno, link, 1, 1, 10.0, 0,
            ))
        })
    });
    group.finish();
}

criterion_group!(benches, bench_fluid_cell, bench_packet_cell);
criterion_main!(benches);
