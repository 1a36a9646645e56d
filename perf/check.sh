#!/usr/bin/env bash
# One script for CI: the benchmark's unit tests, then every workload in
# --smoke mode (two rounds and one set-up each, correctness on, no
# bounds), end to end and traced, then the proof that a wrong expected
# answer fails a run. Run from anywhere; works offline.
set -euo pipefail
cd "$(dirname "$0")/.."

cargo test --release --offline --manifest-path perf/Cargo.toml
cargo build --release --offline --manifest-path perf/Cargo.toml
bin="${CARGO_TARGET_DIR:-perf/target}/release/swim-perf"

"$bin" run --smoke --seed 1
"$bin" trace --smoke --seed 1

if "$bin" run --smoke --seed 1 --workload serve-cached --corrupt-expected >/dev/null 2>&1; then
    echo "check.sh: a corrupted expected answer did not fail serve-cached" >&2
    exit 1
fi
if "$bin" run --smoke --seed 1 --workload ingest-stream --corrupt-expected >/dev/null 2>&1; then
    echo "check.sh: a corrupted expected answer did not fail ingest-stream" >&2
    exit 1
fi
echo "check.sh: ok"
