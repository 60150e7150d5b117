#!/usr/bin/env bash
# A/B two revisions on one workload of the frozen benchmark harness.
#
#   .github/scripts/ab.sh <rev-a> <rev-b> <workload> <pairs> [seconds]
#
# Clones each revision into a temporary directory, builds its
# `benchmark/` harness there unedited, then runs `<pairs>` alternated
# pairs (`--seed 1 --seconds <seconds> --trace 0`, default 4 s), b first
# in odd pairs and a first in even ones. Per run it prints every metric
# of the result line plus the voluntary context switches, user time and
# system time of the child, from getrusage(RUSAGE_CHILDREN) around the
# run (on a spinning workload the user/system split moves run to run
# while their sum does not, so read them together). Then, per
# metric: each side's median and interquartile range, b/a of the medians,
# and in how many pairs b was ahead (direction from BENCHMARK.json).
# A run whose result line says `"correct": false` is flagged, not dropped.
set -euo pipefail

if [ $# -lt 4 ]; then
    echo "usage: $0 <rev-a> <rev-b> <workload> <pairs> [seconds]" >&2
    exit 2
fi
rev_a=$1 rev_b=$2 workload=$3 pairs=$4 seconds=${5:-4}
repo=$(git rev-parse --show-toplevel)
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT

for side in a b; do
    rev_var=rev_$side
    rev=${!rev_var}
    git clone -q --no-checkout "$repo" "$work/$side"
    git -C "$work/$side" checkout -q --detach "$(git -C "$repo" rev-parse "$rev")"
    echo "# $side = $rev ($(git -C "$work/$side" rev-parse --short HEAD)): building" >&2
    cargo build --offline --release --quiet --manifest-path "$work/$side/benchmark/Cargo.toml"
done

python3 - "$work" "$workload" "$pairs" "$seconds" "$repo/BENCHMARK.json" <<'EOF'
import json, resource, statistics, subprocess, sys

work, workload, pairs, seconds, spec = sys.argv[1], sys.argv[2], int(sys.argv[3]), sys.argv[4], sys.argv[5]
with open(spec) as f:
    spec = json.load(f)
better = {m["name"]: m["better"] for m in spec["end_to_end"] + spec["per_layer"]}
better.update(vcsw="lower", user_s="lower", sys_s="lower")

def run(side):
    exe = f"{work}/{side}/benchmark/target/release/raft-benchmark"
    args = [exe, "--workload", workload, "--seed", "1", "--seconds", seconds, "--trace", "0"]
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    out = subprocess.run(args, cwd=f"{work}/{side}", capture_output=True, text=True, check=True)
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    result = json.loads(out.stdout.strip().splitlines()[-1])
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    metrics["vcsw"] = after.ru_nvcsw - before.ru_nvcsw
    metrics["user_s"] = after.ru_utime - before.ru_utime
    metrics["sys_s"] = after.ru_stime - before.ru_stime
    flag = "" if result["correct"] else "  INCORRECT"
    print(f"pair {pair} {side}: " + " ".join(f"{k}={v:.6g}" for k, v in metrics.items()) + flag,
          flush=True)
    return metrics

runs = {"a": [], "b": []}
for pair in range(1, pairs + 1):
    for side in ("b", "a") if pair % 2 else ("a", "b"):
        runs[side].append(run(side))

def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, q2, q3

print(f"\n{workload}: {pairs} pairs, b/a of the medians, b ahead in n of {pairs} pairs")
print(f"{'metric':<16} {'a median':>12} {'a IQR':>11} {'b median':>12} {'b IQR':>11} {'b/a':>7} {'ahead':>6}")
for name in runs["a"][0]:
    a = [r[name] for r in runs["a"]]
    b = [r[name] for r in runs["b"]]
    (a1, am, a3), (b1, bm, b3) = quartiles(a), quartiles(b)
    sign = -1 if better.get(name) == "lower" else 1
    ahead = sum(sign * (y - x) > 0 for x, y in zip(a, b))
    ratio = bm / am if am else float("nan")
    print(f"{name:<16} {am:>12.5g} {a3 - a1:>11.3g} {bm:>12.5g} {b3 - b1:>11.3g} {ratio:>7.3f} {ahead:>6}")
EOF
