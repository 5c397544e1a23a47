#!/bin/sh
# Same-host A/B run of the repository benchmark: a base commit against the
# working tree, in interleaved pairs.
#
# Usage: scripts/perf_ab.sh BASE [WORKLOAD] [PAIRS] [SEED]
#        make perf-ab BASE=<ref> WORKLOAD=<name> PAIRS=<n> SEED=<s>
#
# BASE is exported with `git archive` into .bench_build/ab/<commit>/ and
# built there by its own perfbench/run.py; the head side is the working tree,
# uncommitted changes included. Each pair runs
#   python3 perfbench/run.py --workload W --seed S --seconds T --trace 0
# once per side, where T is BENCHMARK.json's run_seconds, and the side that
# goes first alternates from pair to pair so that drift of the host falls on
# both sides alike. Raw result lines are kept in
# .bench_build/ab/<workload>-seed<S>-<time>.txt.
#
# For each end-to-end metric of BENCHMARK.json the summary prints each
# side's median and quartiles, and head's win share: the fraction of pairs in
# which head was better in the metric's direction (ties count for neither).
set -eu
cd "$(dirname "$0")/.."

base=${1:?usage: scripts/perf_ab.sh BASE [WORKLOAD] [PAIRS] [SEED]}
workload=${2:-suite-solve}
pairs=${3:-10}
seed=${4:-1}
seconds=$(python3 -c 'import json; print(json.load(open("BENCHMARK.json"))["run_seconds"])')

rev=$(git rev-parse --verify "$base^{commit}")
basedir=.bench_build/ab/$rev
if [ ! -d "$basedir" ]; then
	rm -rf "$basedir.tmp"
	mkdir -p "$basedir.tmp"
	git archive "$rev" | tar -x -C "$basedir.tmp"
	mv "$basedir.tmp" "$basedir"
fi
out=.bench_build/ab/$workload-seed$seed-$(date +%Y%m%dT%H%M%S).txt
echo "perf_ab: base $rev vs working tree, $workload seed $seed, $pairs pairs of ${seconds}s runs" >&2
echo "perf_ab: raw results in $out" >&2

run() { # side dir
	line=$(cd "$2" && python3 perfbench/run.py --workload "$workload" --seed "$seed" \
		--seconds "$seconds" --trace 0 | tail -n 1)
	case $line in
	'{'*) echo "$1 $line" >>"$out" ;;
	*)
		echo "perf_ab: $1 run printed no result" >&2
		exit 1
		;;
	esac
}

i=1
while [ "$i" -le "$pairs" ]; do
	if [ $((i % 2)) -eq 1 ]; then
		run head . && run base "$basedir"
	else
		run base "$basedir" && run head .
	fi
	echo "perf_ab: pair $i/$pairs done" >&2
	i=$((i + 1))
done

python3 - "$out" BENCHMARK.json <<'PY'
import json, statistics, sys

rows = {"head": [], "base": []}
for line in open(sys.argv[1]):
    side, res = line.split(" ", 1)
    rows[side].append(json.loads(res))
metrics = json.load(open(sys.argv[2]))["end_to_end"]
n = min(len(rows["head"]), len(rows["base"]))

def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, q2, q3

for side in ("base", "head"):
    bad = [r for r in rows[side] if not r.get("correct")]
    print("%s: %d runs, %d not correct, failed ops %s" % (
        side, len(rows[side]), len(bad), sorted({r.get("failed") for r in rows[side]})))
print("%-16s %-8s %30s %30s %9s %6s" % ("metric", "better", "base median [q1, q3]",
                                         "head median [q1, q3]", "head/base", "wins"))
for m in metrics:
    name, sign = m["name"], (1 if m["better"] == "higher" else -1)
    vals = {s: [r["metrics"][name]["value"] for r in rows[s] if name in r["metrics"]]
            for s in rows}
    if not vals["base"] or not vals["head"]:
        print("%-16s missing" % name)
        continue
    b1, b2, b3 = quartiles(vals["base"])
    h1, h2, h3 = quartiles(vals["head"])
    wins = sum(sign * (h - b) > 0 for h, b in zip(vals["head"], vals["base"]))
    print("%-16s %-8s %12.4g [%7.4g, %7.4g] %12.4g [%7.4g, %7.4g] %9.3f %6s" % (
        name, m["better"], b2, b1, b3, h2, h1, h3,
        h2 / b2 if b2 else float("nan"), "%d/%d" % (wins, n)))
PY
