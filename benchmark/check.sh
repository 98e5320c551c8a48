#!/usr/bin/env bash
# Checks of the benchmark itself (not of the program under test).
#
#   benchmark/check.sh --selftest [--seed S]
#       Negative test of the correctness check: on a smoke-size crash image
#       of a command-log and of a tuple-log workload, a clean copy must
#       recover and verify, a copy with one flipped log byte and a copy with
#       one deleted log batch file must both be rejected with no recovery
#       time reported.
#
#   benchmark/check.sh --determinism [--seed S]
#       Two smoke-size invocations with the same seed must agree on every
#       exact count (logged_txns, log_bytes, ops, replayed_txns); a third
#       with another seed must change them.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
mode=""
seed=42
while (($#)); do
    case "$1" in
    --selftest | --determinism) mode="$1"; shift ;;
    --seed) seed="$2"; shift 2 ;;
    *) echo "check.sh: unknown argument $1" >&2; exit 2 ;;
    esac
done

case "$mode" in
--selftest)
    "$here/run.sh" --selftest --seed "$seed" --workload tpcc_cl --workload tpcc_ll
    ;;
--determinism)
    out="$here/out/determinism"
    rm -rf "$out"
    for run in a b; do
        "$here/run.sh" --smoke --seed "$seed" --out "$out/$run" >/dev/null
    done
    "$here/run.sh" --smoke --seed "$((seed + 1))" --out "$out/other" >/dev/null
    python3 - "$out" <<'EOF'
import json, pathlib, sys
out = pathlib.Path(sys.argv[1])
ok = True
for a in sorted((out / "a").glob("*.json")):
    exact = [json.loads((out / run / a.name).read_text())["exact"] for run in ("a", "b", "other")]
    same, changed = exact[0] == exact[1], exact[0] != exact[2]
    print(f"{a.stem}: same seed {exact[0]} {'==' if same else '!='} {exact[1]}; "
          f"other seed {'differs' if changed else 'IS IDENTICAL'}: {exact[2]}")
    ok &= same and changed
sys.exit(0 if ok else 1)
EOF
    ;;
*)
    echo "usage: check.sh --selftest|--determinism [--seed S]" >&2
    exit 2
    ;;
esac
