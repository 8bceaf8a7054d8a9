#!/usr/bin/env bash
# Builds the system under test and the benchmark from source, then runs
# one benchmark invocation. Run from the repository root:
#   bash perfbench/run.sh --workload cold-sweep --seed 1 --seconds 20 --trace 0
set -euo pipefail
cd "$(dirname "$0")/.."
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --quiet -p gbd-cli --bin groupdet >&2
cargo build --release --offline --quiet --manifest-path perfbench/Cargo.toml >&2
exec "$CARGO_TARGET_DIR/release/perfbench" --groupdet "$CARGO_TARGET_DIR/release/groupdet" "$@"
