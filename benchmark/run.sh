#!/usr/bin/env bash
# The repo benchmark's one entry point. Run it from the repository root:
#
#   bash benchmark/run.sh                    every workload, untraced then traced
#   bash benchmark/run.sh --repeat 3         three such sets, compared with each other
#   bash benchmark/run.sh --smoke            every workload shrunk to a few seconds
#   bash benchmark/run.sh --workload serve-pruned --seed 12 --seconds 10 --trace 0
#
# It builds the benchmark package from source (its own workspace; the root
# Cargo.toml and Cargo.lock are not touched) and hands its arguments on.
set -euo pipefail

# Nothing in the environment may steer the code under test: every knob
# the crates read is cleared, and the benchmark sets what it needs in code.
unset SIMPIM_SCALE SIMPIM_THREADS SIMPIM_KERNEL SIMPIM_REPLICAS SIMPIM_BLOCK_ROWS \
      SIMPIM_BENCH_SCALE SIMPIM_NET_WINDOW SIMPIM_ARTIFACT_DIR \
      SIMPIM_NET_WRITE_TIMEOUT_MS SIMPIM_NET_MAX_FRAME

if [ ! -f benchmark/Cargo.toml ]; then
    echo "run.sh: run from the repository root (benchmark/Cargo.toml not found)" >&2
    exit 2
fi

export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-benchmark/target}"
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml

sha="$(git rev-parse --short HEAD 2>/dev/null || echo unknown)"
exec "$CARGO_TARGET_DIR/release/simpim-benchmark" --git-sha "$sha" --out-dir benchmark/out "$@"
