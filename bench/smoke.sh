#!/usr/bin/env bash
# Schema and oracle checks only, no timing assertions: every workload in both
# modes on a half-second window, each result line checked against
# BENCHMARK.json, then every workload again with its expected values
# deliberately wrong, which must fail. Meant for CI.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
check() { # trace(0|1) < result line
  python3 -c '
import json, sys
bench = json.load(open(sys.argv[1]))
listed = {m["name"]: m["unit"] for m in bench["per_layer" if sys.argv[2] == "1" else "end_to_end"]}
result = json.loads(sys.stdin.read())
assert set(result) == {"correct", "attempted", "failed", "metrics"}, sorted(result)
assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1, result
got = {name: m["unit"] for name, m in result["metrics"].items()}
assert got == listed, sorted(set(got) ^ set(listed))
for name, m in result["metrics"].items():
    assert isinstance(m["value"], (int, float)), (name, m)
' "$here/../BENCHMARK.json" "$1"
}

for workload in $("$here/run.sh" --list); do
  for trace in 0 1; do
    echo "smoke: $workload trace=$trace" >&2
    "$here/run.sh" --workload "$workload" --trace "$trace" --secs 0.5 --trace-secs 0.2 | tail -n 1 | check "$trace"
  done
  echo "smoke: $workload with a corrupted oracle must fail" >&2
  if "$here/run.sh" --workload "$workload" --trace 0 --secs 0.5 --corrupt-oracle > /dev/null; then
    echo "smoke: $workload passed with wrong expected values" >&2
    exit 1
  fi
done
echo "smoke: ok" >&2
