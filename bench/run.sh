#!/usr/bin/env bash
# The benchmark's one command.
#
#   bench/run.sh [--workload W] [--seed N] [--seconds S] [--trace 0|1] [--trace-secs S]
#
# Builds the benchmark, then runs each workload in a child process of its
# own: the timed window (--trace 0, tracing off), then the traced pass and
# the layer probes (--trace 1). --workload and --trace narrow that to one
# workload or one mode; with both given this is a single run whose last
# line of output is the result object (how the driver calls it). --secs is
# accepted for --seconds; --list prints the workload names. Results also land
# in bench/out/.
#
# Exits non-zero if the build fails or any run has a failed request or a
# value its oracle disagrees with.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
target="${CARGO_TARGET_DIR:-$here/../target}"
case "$target" in /*) ;; *) target="$PWD/$target" ;; esac
export CARGO_TARGET_DIR="$target"
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2
bin="$target/release/cascade-e2e"
mkdir -p "$here/out"

workloads="" traces="" rest=()
while [ $# -gt 0 ]; do
  case "$1" in
    --list) exec "$bin" --list ;;
    --workload) workloads="$2"; shift 2 ;;
    --trace) traces="$2"; shift 2 ;;
    *) rest+=("$1"); shift ;;
  esac
done
: "${workloads:=$("$bin" --list)}"
: "${traces:=0 1}"

status=0
for workload in $workloads; do
  for trace in $traces; do
    "$bin" --workload "$workload" --trace "$trace" --out "$here/out" ${rest[@]+"${rest[@]}"} || status=1
  done
done
exit $status
