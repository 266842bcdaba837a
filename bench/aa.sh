#!/usr/bin/env bash
# A/A: how far do two runs of the same build disagree?
#
#   bench/aa.sh N [--seconds S] [--write-bounds]
#
# Runs every workload N times at --trace 0, each run on another seed, and
# prints per workload and end-to-end metric the median, the quartiles and
# the spread (IQR / median), as Python's statistics.quantiles(v, n=4) gives
# them. A spread above a third of the metric's bound in BENCHMARK.json is
# flagged: that metric cannot resolve a change the size of its bound.
#
# --write-bounds rewrites each bound in BENCHMARK.json as
# clamp(3 x the worst spread over the workloads, 0.10, 0.25); setup_s always
# gets 0.25. A timing still flagged at 0.25 becomes an ungated Workload row
# (kept, printed), which is an edit to src/metrics.rs, not to a bound.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
n="${1:?usage: bench/aa.sh N [--seconds S] [--write-bounds]}"
shift
seconds=10 write=0
while [ $# -gt 0 ]; do
  case "$1" in
    --seconds|--secs) seconds="$2"; shift 2 ;;
    --write-bounds) write=1; shift ;;
    *) echo "aa.sh: unknown argument $1" >&2; exit 2 ;;
  esac
done

runs="$here/out/aa"
rm -rf "$runs"
mkdir -p "$runs"
for workload in $("$here/run.sh" --list); do
  for i in $(seq 1 "$n"); do
    echo "aa: $workload run $i/$n" >&2
    "$here/run.sh" --workload "$workload" --trace 0 --seed "$((1000 + i))" --seconds "$seconds" \
      | tail -n 1 >> "$runs/$workload.jsonl"
  done
done

python3 - "$runs" "$here/../BENCHMARK.json" "$write" <<'PY'
import json, pathlib, statistics, sys

runs, bench_path, write = pathlib.Path(sys.argv[1]), pathlib.Path(sys.argv[2]), sys.argv[3] == "1"
bench = json.loads(bench_path.read_text())
bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
worst = {name: 0.0 for name in bounds}
print(f"{'workload':18} {'metric':16} {'median':>14} {'q1':>14} {'q3':>14} {'spread':>8}")
for path in sorted(runs.glob("*.jsonl")):
    rows = [json.loads(line) for line in path.read_text().splitlines()]
    assert all(r["correct"] for r in rows), f"{path.stem}: a run failed its oracle"
    for name in bounds:
        values = [r["metrics"][name]["value"] for r in rows]
        q1, _, q3 = statistics.quantiles(values, n=4)
        median = statistics.median(values)
        spread = (q3 - q1) / median
        worst[name] = max(worst[name], spread)
        flag = "  <-- above a third of its bound" if name != "setup_s" and spread > bounds[name] / 3 else ""
        print(f"{path.stem:18} {name:16} {median:14.6g} {q1:14.6g} {q3:14.6g} {spread:8.4f}{flag}")
if write:
    for m in bench["end_to_end"]:
        m["bound"] = 0.25 if m["name"] == "setup_s" else round(min(0.25, max(0.10, 3 * worst[m["name"]])), 2)
    bench_path.write_text(json.dumps(bench, indent=2) + "\n")
    print("bounds written:", {m["name"]: m["bound"] for m in bench["end_to_end"]})
PY
