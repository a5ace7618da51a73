#!/usr/bin/env bash
# Regenerate every committed report in results/ into DIR (default
# target/results-ci) with the writer commands README.md lists, cache
# off, then `diff -r` it against results/: a change that moves any
# committed output fails here until the file is regenerated on purpose.
set -euo pipefail
cd "$(dirname "$0")/.."
out=${1:-target/results-ci}
cargo build -q --release -p axcc-bench
bin=target/release
rm -rf "$out"
mkdir -p "$out"
"$bin/gen-table1" --simulate --no-cache > "$out/table1.txt"
"$bin/emulab-validation" --no-cache > "$out/emulab.txt"
"$bin/gen-table2" --no-cache > "$out/table2.txt"
"$bin/gen-table2" --paced --no-cache > "$out/table2_paced.txt"
"$bin/gen-figure1" --validate --no-cache > "$out/figure1.txt"
"$bin/check-theorems" --no-cache > "$out/theorems.txt"
"$bin/gen-shootout" --no-cache > "$out/shootout.txt"
"$bin/gen-frontier" --no-cache > "$out/frontier.txt"
"$bin/ablations" --no-cache > "$out/ablations.txt"
diff -r results "$out"
