#!/usr/bin/env bash
# The benchmark's one command: build the daemon and the benchmark from
# source (both no-ops when up to date), then hand every argument to `bench`.
#
#   bash benchmark/run.sh --workload <name> --seed N --seconds S --trace 0|1
#   bash benchmark/run.sh run --smoke
#   bash benchmark/run.sh aa --runs 10
#
# Builds land in $CARGO_TARGET_DIR when it is set (the acceptance driver sets
# it), else in the two packages' own target/ directories. Build output goes
# to stderr; stdout carries only the benchmark's two lines.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."

cargo build --release --offline --quiet --bin drift-bottle 1>&2
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml 1>&2

daemon="${CARGO_TARGET_DIR:-target}/release/drift-bottle"
bench="${CARGO_TARGET_DIR:-benchmark/target}/release/bench"
exec "$bench" "$@" --daemon "$daemon"
