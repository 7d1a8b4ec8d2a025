#!/usr/bin/env bash
# Builds the `serve` daemon and the perfbench harness from this tree, then
# runs the harness. Run from the repository root:
#
#   bash perfbench/run.sh --workload <plan_cold|serve_warm> \
#       --seed <n> --seconds <s> --trace <0|1>
#   bash perfbench/run.sh --self-test
#
# Builds land in $CARGO_TARGET_DIR (default .bench_build); the harness
# keeps its cache dirs and span files under $CARGO_TARGET_DIR/perfbench.
set -euo pipefail
if [[ ! -f Cargo.toml || ! -d crates/core ]]; then
    echo "perfbench: run from the repository root (no Cargo.toml or crates/core here)" >&2
    exit 2
fi
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --quiet -p fusecu --bin serve >&2
cargo build --release --offline --quiet --manifest-path perfbench/Cargo.toml >&2
exec "$CARGO_TARGET_DIR/release/perfbench" \
    --serve-bin "$CARGO_TARGET_DIR/release/serve" \
    --state-dir "$CARGO_TARGET_DIR/perfbench" "$@"
