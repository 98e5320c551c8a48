#!/usr/bin/env python3
"""Compare two sets of benchmark results, or smoke-test the benchmark.

    benchmark/compare.py A/ B/
        A and B are directories of result files written by run.sh (any depth,
        e.g. A/run1/tpcc_cl.json, A/run2/tpcc_cl.json ...). Prints one row
        per (workload, end-to-end metric): both medians, both quartile
        ranges, the bound from BENCHMARK.json and a verdict:
          pass        B's median is not worse than A's by more than the bound
          regress     it is
          unresolved  either side's spread (Q3 - Q1 over the median) is
                      wider than the bound, so the row decides nothing
        Exits 1 if any row regresses.

    benchmark/compare.py --smoke
        Runs every workload at 1/50 size, untraced and traced, and checks
        that workloads and metric names are exactly those of BENCHMARK.json.
"""
import json
import pathlib
import statistics
import subprocess
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def load(directory):
    """{workload: {metric: [value per run]}} for the untraced results."""
    runs = {}
    for path in sorted(pathlib.Path(directory).rglob("*.json")):
        if path.name.startswith("trace-"):
            continue
        result = json.loads(path.read_text())
        if not result.get("correct"):
            print(f"skipping {path}: the run failed its checks", file=sys.stderr)
            continue
        per_metric = runs.setdefault(result["header"]["workload"], {})
        for name, metric in result["metrics"].items():
            per_metric.setdefault(name, []).append(metric["value"])
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def compare(dir_a, dir_b):
    a, b = load(dir_a), load(dir_b)
    print(f"{'workload':14} {'metric':18} {'A median':>13} {'A Q1..Q3':>25} "
          f"{'B median':>13} {'B Q1..Q3':>25} {'bound':>6} {'change':>8}  verdict")
    regressed = False
    for workload in (w["name"] for w in SPEC["workloads"]):
        for metric in SPEC["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            va, vb = a.get(workload, {}).get(name), b.get(workload, {}).get(name)
            if not va or not vb:
                print(f"{workload:14} {name:18} missing on {'A' if not va else 'B'}")
                continue
            ma, mb = statistics.median(va), statistics.median(vb)
            (a1, a3), (b1, b3) = quartiles(va), quartiles(vb)
            worse = (mb - ma) / ma if metric["better"] == "lower" else (ma - mb) / ma
            if max((a3 - a1) / ma, (b3 - b1) / mb) > bound:
                verdict = "unresolved"
            elif worse > bound:
                verdict = "regress"
                regressed = True
            else:
                verdict = "pass"
            print(f"{workload:14} {name:18} {ma:13.4f} {f'{a1:.4f}..{a3:.4f}':>25} "
                  f"{mb:13.4f} {f'{b1:.4f}..{b3:.4f}':>25} {bound:6.2f} {worse:+8.1%}  {verdict}")
    return 1 if regressed else 0


def smoke():
    out = HERE / "out" / "smoke"
    expected = {
        "0": {m["name"]: m["unit"] for m in SPEC["end_to_end"]},
        "1": {m["name"]: m["unit"] for m in SPEC["per_layer"]},
    }
    started = time.time()
    failures = []
    for workload in (w["name"] for w in SPEC["workloads"]):
        for trace, metrics in expected.items():
            cmd = SPEC["command"] + ["--workload", workload, "--seed", "42", "--smoke",
                                     "--trace", trace, "--out", str(out)]
            run = subprocess.run(cmd, cwd=HERE.parent, capture_output=True, text=True)
            if run.returncode != 0:
                failures.append(f"{workload} trace={trace}: exit {run.returncode}\n{run.stdout[-2000:]}")
                continue
            result = json.loads(run.stdout.strip().splitlines()[-1])
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
                failures.append(f"{workload} trace={trace}: result keys {sorted(result)}")
            if got != metrics:
                failures.append(f"{workload} trace={trace}: metrics differ from BENCHMARK.json: "
                                f"missing {sorted(set(metrics) - set(got))}, "
                                f"extra {sorted(set(got) - set(metrics))}, "
                                f"units {sorted(n for n in set(got) & set(metrics) if got[n] != metrics[n])}")
            print(f"{workload:14} trace={trace}: {len(got)} metrics, correct={result['correct']}")
    print(f"smoke: {time.time() - started:.1f} s")
    for failure in failures:
        print("FAIL:", failure)
    return 1 if failures else 0


if __name__ == "__main__":
    if sys.argv[1:] == ["--smoke"]:
        sys.exit(smoke())
    if len(sys.argv) == 3:
        sys.exit(compare(sys.argv[1], sys.argv[2]))
    print(__doc__, file=sys.stderr)
    sys.exit(2)
