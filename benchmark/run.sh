#!/usr/bin/env bash
# The benchmark's one command: build release, then run.
#
#   benchmark/run.sh                                   every workload, seed 2016
#   benchmark/run.sh --traced                          ... plus the per-layer runs
#   benchmark/run.sh --seed 7 --workload cold-load     one workload, another seed
#   benchmark/run.sh --repeat 10                       ten seeds, with spreads
#   benchmark/run.sh compare A.json B.json             two result files
#
# With --workload the last line of standard output is the result object
# BENCHMARK.json describes. See benchmark/README.md.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
# One build directory for this package and the root workspace, unless the
# caller chose another (a relative one is relative to the repo root).
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-target}"
# Cargo's own output goes to stderr: stdout is the benchmark's.
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml 1>&2
# Keep freed memory inside the process (glibc: no heap trimming, no mmap for
# blocks under 32 MB). Every repetition builds and drops a system of 100-300
# MB; by default each one returns its pages and faults them in again, a
# hundred thousand page faults a run whose price is the host's to set and
# changes under the benchmark (the guest reports freed pages to the host).
export MALLOC_TRIM_THRESHOLD_=4294967296 MALLOC_TOP_PAD_=268435456 MALLOC_MMAP_THRESHOLD_=33554432
ADR_BENCH_GIT_REV="$(git rev-parse HEAD 2>/dev/null || echo unknown)"
export ADR_BENCH_GIT_REV
exec "$CARGO_TARGET_DIR/release/adr-benchmark" "$@"
