#!/usr/bin/env bash
# A/A noise check of the end-to-end benchmark: runs SETS sets of RUNS
# seeded runs of every workload on one build, then prints for each
# (workload, end-to-end metric) every set's median and quartiles, the
# widest quartile spread (q3 - q1) / median across sets, the largest
# worsening of a set's median against the first set's, and the metric's
# bound from BENCHMARK.json. The bounds there come from this output: each
# is at least 10% and at least three times the widest spread (setup_s,
# whose spread is not gated, carries the largest bound).
#
#   bench/e2e/aa.sh [--sets N] [--runs R] [--seconds S] [--workloads a,b]
#
# Set k, run r uses seed (k-1)*R + r; the workload order reverses on every
# other run so slow drift of the host does not always land on the same
# workload. Results accumulate in .bench_build/aa/results.jsonl (one JSON
# object per run); the table is recomputed from it at the end.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(cd "$here/../.." && pwd)"
sets=3
runs=10
seconds=$(python3 -c 'import json,sys; print(json.load(open(sys.argv[1]))["run_seconds"])' "$root/BENCHMARK.json")
workloads="guided-genome,guided-vacation,ycsb-a-btree,shard-xshard-steered"
while [[ $# -gt 0 ]]; do
  case "$1" in
    --sets) sets="$2"; shift 2 ;;
    --runs) runs="$2"; shift 2 ;;
    --seconds) seconds="$2"; shift 2 ;;
    --workloads) workloads="$2"; shift 2 ;;
    *) echo "usage: $0 [--sets N] [--runs R] [--seconds S] [--workloads a,b]" >&2
       exit 2 ;;
  esac
done

out="$root/.bench_build/aa"
mkdir -p "$out"
results="$out/results.jsonl"
: > "$results"
IFS=, read -r -a order <<< "$workloads"

for ((set = 1; set <= sets; ++set)); do
  for ((run = 1; run <= runs; ++run)); do
    seed=$(( (set - 1) * runs + run ))
    todo=("${order[@]}")
    if (( run % 2 == 0 )); then
      todo=()
      for ((i = ${#order[@]} - 1; i >= 0; --i)); do todo+=("${order[i]}"); done
    fi
    for w in "${todo[@]}"; do
      line=$(python3 "$here/run.py" --workload "$w" --seed "$seed" \
               --seconds "$seconds" --trace 0 2>>"$out/stderr.log" | tail -n 1)
      printf '{"set": %d, "run": %d, "workload": "%s", "seed": %d, "result": %s}\n' \
        "$set" "$run" "$w" "$seed" "$line" >> "$results"
      echo "set $set run $run $w seed $seed: $line" >&2
    done
  done
done

python3 - "$root/BENCHMARK.json" "$results" <<'EOF'
import json, statistics, sys
from collections import defaultdict

spec = json.load(open(sys.argv[1]))
rows = [json.loads(l) for l in open(sys.argv[2]) if l.strip()]
values = defaultdict(list)      # (workload, metric, set) -> values
failed = attempted = 0
for r in rows:
    res = r["result"]
    attempted += res["attempted"]
    failed += res["failed"] + (0 if res["correct"] else 1)
    for name, m in res["metrics"].items():
        values[(r["workload"], name, r["set"])].append(m["value"])

print(f"{len(rows)} runs, {attempted} verifications, {failed} failed")
print(f"{'workload':22} {'metric':16} {'set medians [q1, q3]':54} "
      f"{'spread':>7} {'drift':>7} {'bound':>6} verdict")
for w in dict.fromkeys(r["workload"] for r in rows):
    for m in spec["end_to_end"]:
        name, bound, lower = m["name"], m["bound"], m["better"] == "lower"
        sets = sorted(s for (ww, n, s) in values if ww == w and n == name)
        cells, spreads, meds = [], [], []
        for s in sets:
            v = values[(w, name, s)]
            q1, _, q3 = statistics.quantiles(v, n=4)
            med = statistics.median(v)
            meds.append(med)
            spreads.append((q3 - q1) / med)
            cells.append(f"{med:.4g} [{q1:.4g}, {q3:.4g}]")
        worse = [((x - meds[0]) if lower else (meds[0] - x)) / meds[0]
                 for x in meds[1:]]
        drift = max(worse, default=0.0)
        spread = max(spreads)
        gated = name != "setup_s"
        verdict = "ok"
        if drift > bound or (gated and spread > bound):
            verdict = "FAIL"
        elif gated and spread > bound / 3:
            verdict = "wide"
        print(f"{w:22} {name:16} {'; '.join(cells):54} {spread:7.3f} "
              f"{drift:7.3f} {bound:6.2f} {verdict}")
EOF
