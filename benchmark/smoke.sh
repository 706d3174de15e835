#!/usr/bin/env bash
# Every workload at 1/50 scale, untraced and traced, with all oracles
# on. Numbers are printed but not judged; a failed oracle fails the
# script. Meant to run in well under 30 s once built.
set -euo pipefail
cd "$(dirname "$0")"
cargo build --release --offline --quiet
exec cargo run --release --offline --quiet -- all --smoke --trace --out out/smoke.json
