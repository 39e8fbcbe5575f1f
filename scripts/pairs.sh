#!/usr/bin/env bash
# Runs one workload of the benchmark in alternating pairs, a parent
# revision against the working tree, and judges the change by the
# pairs rule: it wins at least nine tenths of all pairs run (ties count
# for neither, a pair whose change run failed or was not `correct` is a
# loss), the medians differ, in the better direction, by more than the
# parent's interquartile spread, and the change has no more failed runs
# than the parent.
#
#   scripts/pairs.sh <parent-rev> <workload> [pairs] [first-seed]
#
# `pairs` defaults to 10 and `first-seed` to 1; pair i runs seed
# first-seed + i on both sides, the parent first in even pairs and the
# change first in odd ones. The parent is a `git archive` of the
# revision in a temporary directory (no worktree is registered); each
# side builds the benchmark into a target directory of its own there,
# and the directory is removed on exit. Each run is the command, run
# length and metric list `BENCHMARK.json` names, untraced. Needs `jq`
# and `python3`.
set -euo pipefail
cd "$(dirname "$0")/.."

usage="usage: scripts/pairs.sh <parent-rev> <workload> [pairs] [first-seed]"
rev=${1:?$usage}
workload=${2:?$usage}
pairs=${3:-10}
seed0=${4:-1}

seconds=$(jq -r '.run_seconds' BENCHMARK.json)
mapfile -t cmd < <(jq -r '.command[]' BENCHMARK.json)
metrics=$(jq -c '.end_to_end' BENCHMARK.json)

work=$(mktemp -d "${TMPDIR:-/tmp}/pairs.XXXXXX")
trap 'rm -rf "$work"' EXIT
mkdir "$work/parent"
git archive "$rev" | tar -x -C "$work/parent"

declare -A root=([parent]="$work/parent" [change]="$PWD")
for side in parent change; do
    echo "# building $side" >&2
    (cd "${root[$side]}" && CARGO_TARGET_DIR="$work/$side-target" \
        cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml)
done

results="$work/results.tsv"
for ((i = 0; i < pairs; i++)); do
    seed=$((seed0 + i))
    order=(parent change)
    if ((i % 2 == 1)); then order=(change parent); fi
    for side in "${order[@]}"; do
        line=$(cd "${root[$side]}" && CARGO_TARGET_DIR="$work/$side-target" \
            "${cmd[@]}" --workload "$workload" --seed "$seed" --seconds "$seconds" --trace 0 \
            | tail -n 1) || true
        printf '%s\t%s\t%s\t%s\n' "$i" "$side" "$seed" "${line:-{\}}" >>"$results"
        printf 'pair %d %-6s seed %d: %s\n' "$i" "$side" "$seed" "$(jq -c \
            '[.correct, (.metrics // {} | to_entries[] | "\(.key)=\(.value.value)")]' \
            <<<"${line:-{\}}" 2>/dev/null || echo "unreadable")"
    done
done

python3 - "$results" "$metrics" <<'EOF'
import json, statistics, sys

rows = [line.rstrip("\n").split("\t", 3) for line in open(sys.argv[1])]
metrics = json.loads(sys.argv[2])
runs = {}
for pair, side, _seed, text in rows:
    try:
        result = json.loads(text)
    except ValueError:
        result = {}
    runs.setdefault(int(pair), {})[side] = result


def ok(run):
    return bool(run.get("correct")) and "metrics" in run

failed = {s: sum(not ok(r.get(s, {})) for r in runs.values()) for s in ("parent", "change")}
print(f"\n{len(runs)} pairs run; runs failed or not correct: "
      f"parent {failed['parent']}, change {failed['change']}")

def quartiles(values):
    if len(values) == 1:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4, method="inclusive")
    return q[0], q[2]

for m in metrics:
    name, lower = m["name"], m["better"] == "lower"
    value = lambda run: run["metrics"][name]["value"]
    parent = [value(r["parent"]) for r in runs.values() if ok(r.get("parent", {}))]
    change = [value(r["change"]) for r in runs.values() if ok(r.get("change", {}))]
    # A pair counts as a win only when both runs are correct and the
    # change reads better; a failed change run is a loss, and every pair
    # run is in the denominator.
    wins = sum(
        ok(r.get("parent", {})) and ok(r.get("change", {}))
        and ((value(r["change"]) < value(r["parent"])) if lower
             else (value(r["change"]) > value(r["parent"])))
        for r in runs.values())
    print(f"{name} ({m['better']} is better)")
    if not parent or not change:
        print("  a side has no correct run; gain not shown by the pairs rule")
        continue
    med_p, med_c = statistics.median(parent), statistics.median(change)
    q1, q3 = quartiles(parent)
    c1, c3 = quartiles(change)
    gap = (med_p - med_c) if lower else (med_c - med_p)
    holds = (wins >= 0.9 * len(runs) and gap > q3 - q1
             and failed["change"] <= failed["parent"])
    print(f"  parent median {med_p:.6g} (quartiles {q1:.6g}–{q3:.6g})")
    print(f"  change median {med_c:.6g} (quartiles {c1:.6g}–{c3:.6g}), ratio {med_c / med_p:.4f}")
    print(f"  change better in {wins} of {len(runs)} pairs; "
          f"gain {'holds' if holds else 'not shown'} by the pairs rule")
EOF
