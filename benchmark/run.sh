#!/usr/bin/env bash
# The benchmark's one command.
#
#   benchmark/run.sh [--seed S]            every workload; writes baseline.json
#   benchmark/run.sh --check [--seed S]    rerun and compare with baseline.json
#   benchmark/run.sh --smoke               every workload at 1/16 size, once
#   benchmark/run.sh --workload W --seed S --seconds N --trace 0|1
#                                          one workload, one JSON result line
#
# Builds the package in release mode first (offline; path dependencies
# only) and refuses to run anything else.
set -euo pipefail

bench_dir="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
cd "$bench_dir/.."

cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml >&2
exec "${CARGO_TARGET_DIR:-benchmark/target}/release/edgetune-benchmark" \
  --bench-dir benchmark "$@"
