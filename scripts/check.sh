#!/usr/bin/env bash
# Repo hygiene gate: formatting, lints (warnings are errors), full test
# suite. CI and pre-push hooks should run exactly this.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> cargo tidy (axcc-tidy static analysis, gating on new findings)"
cargo run -q -p xtask -- tidy --baseline tidy.baseline

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo test --workspace -q"
cargo test --workspace -q

echo "==> axcc run-all --jobs 2 --smoke (full suite through the sweep engine)"
cargo run -q -p axcc-cli -- run-all --jobs 2 --smoke \
  --cache-dir target/sweep-cache-ci --out-dir target/run-all-ci

echo "==> run-all --smoke stdout is deterministic (--jobs 1 vs --jobs 2)"
cargo run -q -p axcc-cli -- run-all --jobs 1 --smoke --no-cache > target/run-all-jobs1.txt
cargo run -q -p axcc-cli -- run-all --jobs 2 --smoke --no-cache > target/run-all-jobs2.txt
diff target/run-all-jobs1.txt target/run-all-jobs2.txt

echo "==> axcc sweep --only churn --smoke (flow churn: both engines, streaming path)"
cargo run -q -p axcc-cli -- sweep --only churn --smoke --jobs 2 \
  --cache-dir target/sweep-cache-ci > /dev/null

echo "==> axcc sweep --only explore --smoke (parameter-space exploration through the sharded store)"
cargo run -q -p axcc-cli -- sweep --only explore --smoke --jobs 2 --chunk-size 8 \
  --cache-dir target/sweep-cache-ci --cache-stats > /dev/null

echo "==> bench-sweep --check (snapshot was measured at this engine revision)"
cargo run -q --release -p axcc-bench --bin bench-sweep -- --check BENCH_sweep.json

echo "==> bench-sweep smoke gate (parallel vs serial at 4 workers on the gauntlet tier)"
# 0.90 tolerance: on a single-core host both sides run the same serial
# path, so anything below is dispatch-layer regression, not scheduling.
cargo run -q --release -p axcc-bench --bin bench-sweep -- --jobs 4 --only gauntlet \
  --reps 15 --min-speedup 0.90 --out target/BENCH_sweep_smoke.json > /dev/null

echo "==> bench-engine --smoke (streaming ≡ traced identity + speedup gate)"
cargo run -q --release -p axcc-bench --bin bench-engine -- --smoke \
  --min-speedup 0.95 --out target/BENCH_engine_smoke.json > /dev/null

echo "==> bench-serve --spawn (service smoke: daemon up, bench, drain)"
cargo run -q -p axcc-cli -- bench-serve --spawn --levels 1,2 --requests 3 \
  --steps 120 --out target/BENCH_service_smoke.json > /dev/null

echo "All checks passed."
