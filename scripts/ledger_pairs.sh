#!/usr/bin/env bash
# Paired ledger runs of two builds, the way a gain claim has to be produced
# (choosing-metrics guide, section 8; ROADMAP "alternating paired runs"):
#
#   scripts/ledger_pairs.sh [--smoke] [--out DIR] PARENT_BIN CHANGE_BIN WORKLOAD SEED...
#
# One pair per SEED: both `ledger` binaries run WORKLOAD end to end with that
# seed, one after the other, and the side that goes first flips every pair.
# Each run is appended to DIR/parent.jsonl or DIR/change.jsonl (default DIR:
# target/ledger_pairs) in the format `ledger compare` reads, so pairs
# accumulate over calls (and over workloads). A line names the commit its
# binary was built from, `"rev"`: HEAD of the git checkout that holds the
# binary's real path (symlinks resolved; CHECKOUT/target/release/ledger),
# with "-dirty" when that checkout has uncommitted changes. A binary outside
# any checkout (a shared or moved target directory) stops the script before
# its first run: a line that cannot name its commit is not written. A PR's lines go on to the root
# BENCH_ledger.jsonl, the trajectory of the benchmark from PR to PR. The script ends with `ledger
# compare parent.jsonl change.jsonl` — medians and spreads against the bounds
# of BENCHMARK.json — and, for WORKLOAD, the pair-by-pair score of every
# end-to-end metric: wins / ties / losses of the change, both medians, the
# distance between the parent's quartiles, and whether the rule for a gain
# holds (change wins at least nine tenths of the pairs, ties counting for
# neither, and the medians differ by more than that distance).
#
# Build the two binaries from their own checkouts first, e.g.
#   git clone . /tmp/parent && (cd /tmp/parent && git checkout PARENT &&
#     cargo build --release -p shareddb-bench --bin ledger)
# A run takes about 40 s, a `--smoke` run about 10 s. Exit status: non-zero
# when a run fails, reports a failed or incorrect statement, or `ledger
# compare` finds the change outside a bound.
set -euo pipefail

root=$(cd "$(dirname "$0")/.." && pwd)
size=()
out="$root/target/ledger_pairs"
while [ $# -gt 0 ]; do
    case "$1" in
        --smoke) size=(--smoke); shift ;;
        --out) out=$2; shift 2 ;;
        *) break ;;
    esac
done
if [ $# -lt 4 ]; then
    sed -n '2,6p' "$0" >&2
    exit 2
fi
parent=$1 change=$2 workload=$3
shift 3
mkdir -p "$out"

rev() { # binary
    local binary checkout rev
    binary=$(readlink -f "$1") || return 1
    checkout=$(git -C "$(dirname "$binary")" rev-parse --show-toplevel 2>/dev/null) || {
        echo "ledger_pairs: $1 lies in no git checkout; build it inside the checkout of its commit" >&2
        return 1
    }
    rev=$(git -C "$checkout" rev-parse HEAD) || return 1
    git -C "$checkout" diff --quiet HEAD || rev="$rev-dirty"
    echo "$rev"
}

parent_rev=$(rev "$parent") || exit 2
change_rev=$(rev "$change") || exit 2

run() { # side binary seed
    local line
    line=$("$2" --workload "$workload" --seed "$3" --seconds 25 --trace 0 "${size[@]}" | tail -n 1)
    case "$line" in
        *'"correct":true'*'"failed":0'[,}]*) ;;
        *) echo "ledger_pairs: $1 run of $workload, seed $3, failed or was incorrect: $line" >&2
           exit 1 ;;
    esac
    local rev=$parent_rev
    [ "$1" = change ] && rev=$change_rev
    printf '{"workload":"%s","seed":%s,"rev":"%s","result":%s}\n' \
        "$workload" "$3" "$rev" "$line" >>"$out/$1.jsonl"
    echo "ledger_pairs: $workload seed $3 $1 done" >&2
}

pair=0
for seed in "$@"; do
    if [ $((pair % 2)) -eq 0 ]; then
        run parent "$parent" "$seed"; run change "$change" "$seed"
    else
        run change "$change" "$seed"; run parent "$parent" "$seed"
    fi
    pair=$((pair + 1))
done

status=0
"$change" compare "$out/parent.jsonl" "$out/change.jsonl" || status=$?

python3 - "$root/BENCHMARK.json" "$out" "$workload" <<'PY'
import json, statistics, sys

contract, out, workload = sys.argv[1:]
def runs(side):
    with open(f"{out}/{side}.jsonl") as lines:
        rows = [json.loads(line) for line in lines if line.strip()]
    return {r["seed"]: r["result"]["metrics"] for r in rows if r["workload"] == workload}
parent, change = runs("parent"), runs("change")
seeds = sorted(set(parent) & set(change))
print(f"\n{workload}: {len(seeds)} pairs (seeds {' '.join(str(s) for s in seeds)})")
print(f"{'metric':<20}{'wins':>5}{'ties':>5}{'losses':>7}{'parent median':>15}"
      f"{'change median':>15}{'change':>9}{'parent IQR':>12}  gain")
for spec in json.load(open(contract))["end_to_end"]:
    name, lower = spec["name"], spec["better"] == "lower"
    a = [parent[s][name]["value"] for s in seeds]
    b = [change[s][name]["value"] for s in seeds]
    wins = sum((y < x) if lower else (y > x) for x, y in zip(a, b))
    ties = sum(x == y for x, y in zip(a, b))
    med_a, med_b = statistics.median(a), statistics.median(b)
    quartiles = statistics.quantiles(a, n=4, method="inclusive") if len(a) > 1 else [med_a] * 3
    iqr = quartiles[2] - quartiles[0]
    better = (med_a - med_b) if lower else (med_b - med_a)
    gain = len(seeds) > ties and wins >= 0.9 * (len(seeds) - ties) and better > iqr
    shift = (med_b - med_a) / med_a * 100 if med_a else 0.0
    print(f"{name:<20}{wins:>5}{ties:>5}{len(seeds) - wins - ties:>7}{med_a:>15.4f}"
          f"{med_b:>15.4f}{shift:>8.1f}%{iqr:>12.4f}  {'yes' if gain else 'no'}")
PY
exit $status
