#!/usr/bin/env bash
# Builds the benchmark and the tbaad daemon from this checkout's sources,
# then runs one workload. Arguments are passed through:
#   bash perfbench/run.sh --workload query_warm --seed 1 --seconds 20 --trace 0
# Paths stay relative to the checkout root: Unix socket paths are limited
# to about 100 bytes.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
target="${CARGO_TARGET_DIR:-perfbench/target}"
cargo build --release --offline --quiet \
    --manifest-path perfbench/Cargo.toml \
    -p perfbench -p tbaa-server --bin perfbench --bin tbaad >&2
exec "$target/release/perfbench" --tbaad "$target/release/tbaad" \
    --run-dir "$target/perfbench-run" "$@"
