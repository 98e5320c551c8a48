#!/usr/bin/env bash
# Build the benchmark and run it.
#
#   benchmark/run.sh [--workload W] [--seed S] [--seconds T] [--trace [0|1]]
#                    [--smoke] [--out DIR]
#
# Without --workload every workload of BENCHMARK.json runs in turn. Each run
# prints every metric by name with its unit, writes <out>/<workload>.json
# (trace-<workload>.json and .spans with --trace), and ends with one JSON
# result line. The exit code is non-zero on a fingerprint mismatch, an
# unacknowledged transaction, a missing metric or a failed build.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"

workloads=()
args=()
out="$here/out"
while (($#)); do
    case "$1" in
    --workload) workloads+=("$2"); shift 2 ;;
    --out) out="$2"; shift 2 ;;
    --trace)
        # Both `--trace` and `--trace 0|1` are accepted.
        if [[ "${2:-}" =~ ^[01]$ ]]; then args+=(--trace "$2"); shift 2
        else args+=(--trace 1); shift; fi ;;
    --seed | --seconds) args+=("$1" "$2"); shift 2 ;;
    --smoke | --selftest) args+=("$1"); shift ;;
    *) echo "run.sh: unknown argument $1" >&2; exit 2 ;;
    esac
done
if ((${#workloads[@]} == 0)); then
    workloads=(tpcc_cl tpcc_ll smallbank_cl tpcc_cl_ckpt)
fi

# CARGO_TARGET_DIR wins when the caller sets it; otherwise the repo's own
# target directory is used, so nothing new appears at the root.
target="${CARGO_TARGET_DIR:-$root/target}"
cargo build --release --offline --quiet \
    --manifest-path "$here/Cargo.toml" --target-dir "$target" >&2

rev="$(git -C "$root" rev-parse --short HEAD 2>/dev/null || echo unknown)"
rustc_version="$(rustc --version 2>/dev/null || echo unknown)"

for w in "${workloads[@]}"; do
    "$target/release/pacman_benchmark" --workload "$w" --out "$out" \
        --git-rev "$rev" --rustc "$rustc_version" ${args[@]+"${args[@]}"}
done
