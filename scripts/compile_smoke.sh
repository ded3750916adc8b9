#!/usr/bin/env bash
# Cold-compile allocation gate: serial cost and exact allocation count of
# source -> IR over the benchsuite, gated against pinned per-bench
# baselines. Merges a `compile` section into BENCH_alias_query.json in
# the repo root.
#
#   scripts/compile_smoke.sh            # full run (scales 1,4,16; best of 5)
#   scripts/compile_smoke.sh --smoke    # quick pass (CI): scales 1,4, one rep
#
# Extra arguments are forwarded to the bench-compile binary.
set -euo pipefail
cd "$(dirname "$0")/.."

BIN=target/release/bench-compile
if [[ ! -x "$BIN" ]]; then
    echo "== building bench-compile (release)"
    cargo build --release -p tbaa-bench --bin bench-compile
fi

"$BIN" "$@"
