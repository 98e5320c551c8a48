#!/usr/bin/env bash
# Same-box A/B of the repo benchmark between two git revisions.
#
#   scripts/bench_ab.sh <base-rev> <change-rev>
#
# Builds benchmark/ and the fig_read bin at each revision, once each, into
# that side's own target directory. Then runs PAIRS pairs: in each pair,
# every BENCHMARK.json workload runs untraced on both sides, and so does
# `fig_read --quick`; which side runs first flips from pair to pair.
#
# Verdicts, both over all pairs:
#   benchmark/compare.py base/ change/  fails on any `regress` row; an
#                                       `unresolved` row (a side's spread
#                                       wider than the bound) does not;
#   fig_read                            fails when the median `CL` K tps of
#                                       the change is more than
#                                       FIG_READ_BOUND below the base's.
# The exit code is non-zero on either failure, on a failed build and on a
# run that fails its own checks. Work files (sources, builds, results,
# logs) go to $BENCH_AB_DIR, or to a new temporary directory.
#
# For a working tree that is not committed, pass `$(git stash create)` as
# the change: a commit of the tracked files' current state.
set -euo pipefail

PAIRS=5
SEED=42
FIG_READ_BOUND=0.15

if (($# != 2)); then
    sed -n '2,/^set -e/{/^set -e/d;s/^# \{0,1\}//;p}' "$0" >&2
    exit 2
fi
root="$(git -C "$(dirname "${BASH_SOURCE[0]}")" rev-parse --show-toplevel)"
declare -A rev=(
    [base]="$(git -C "$root" rev-parse --short "$1^{commit}")"
    [change]="$(git -C "$root" rev-parse --short "$2^{commit}")"
)
work="${BENCH_AB_DIR:-$(mktemp -d -t bench_ab.XXXXXX)}"
mkdir -p "$work/log"
rustc_version="$(rustc --version)"
mapfile -t workloads < <(python3 -c 'import json, sys
for w in json.load(open(sys.argv[1]))["workloads"]: print(w["name"])' "$root/BENCHMARK.json")
echo "bench_ab: base ${rev[base]}, change ${rev[change]}, $PAIRS pairs, seed $SEED, work dir $work"

for side in base change; do
    src="$work/$side/src" target="$work/$side/target"
    rm -rf "$src" && mkdir -p "$src"
    git -C "$root" archive "${rev[$side]}" | tar -x -C "$src"
    echo "building $side (${rev[$side]})"
    cargo build --release --offline --quiet --manifest-path "$src/benchmark/Cargo.toml" \
        --target-dir "$target"
    cargo build --release --offline --quiet --manifest-path "$src/Cargo.toml" \
        --target-dir "$target" -p pacman_bench --bin fig_read
done

# run <side> <pair> <name> <command...>: one run, its output kept in the
# log directory; a failed run ends the A/B with the tail of its output.
run() {
    local side=$1 pair=$2 name=$3 log="$work/log/$2-$3-$1.txt" started=$SECONDS
    shift 3
    if ! "$@" >"$log" 2>&1; then
        tail -n 20 "$log" >&2
        echo "bench_ab: $name failed on $side (${rev[$side]}), pair $pair; log: $log" >&2
        exit 1
    fi
    echo "pair $pair/$PAIRS  $name  $side  $((SECONDS - started)) s"
}

for ((pair = 1; pair <= PAIRS; pair++)); do
    if ((pair % 2)); then order=(base change); else order=(change base); fi
    for w in "${workloads[@]}"; do
        for side in "${order[@]}"; do
            run "$side" "$pair" "$w" "$work/$side/target/release/pacman_benchmark" \
                --workload "$w" --seed "$SEED" --out "$work/results/$side/pair$pair" \
                --git-rev "${rev[$side]}" --rustc "$rustc_version"
        done
    done
    for side in "${order[@]}"; do
        run "$side" "$pair" fig_read "$work/$side/target/release/fig_read" --quick
    done
done

status=0
python3 "$root/benchmark/compare.py" "$work/results/base" "$work/results/change" || status=1
python3 - "$work/log" "$PAIRS" "$FIG_READ_BOUND" <<'EOF' || status=1
import pathlib, statistics, sys

log, pairs, bound = pathlib.Path(sys.argv[1]), int(sys.argv[2]), float(sys.argv[3])

def cl_ktps(side):
    values = []
    for pair in range(1, pairs + 1):
        rows = [line.split() for line in (log / f"{pair}-fig_read-{side}.txt").read_text().splitlines()]
        values += [float(row[1]) for row in rows if row[:1] == ["CL"]]
    return values

base, change = cl_ktps("base"), cl_ktps("change")
mb, mc = statistics.median(base), statistics.median(change)
worse = (mb - mc) / mb
verdict = "regress" if worse > bound else "pass"
print(f"fig_read CL K tps: base median {mb:.1f} {base}, change median {mc:.1f} {change}, "
      f"bound {bound:.2f}, change {-worse:+.1%}  {verdict}")
sys.exit(1 if verdict == "regress" else 0)
EOF
echo "bench_ab: results and logs in $work"
exit "$status"
