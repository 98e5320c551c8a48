#!/usr/bin/env python3
"""Compare two benchmark trajectory points (BENCH_*.json documents).

Usage: bench_regress.py OLD.json NEW.json [--max-regress PCT]

Reads the stitched `{"figures": {...}}` documents the `all` bench bin
emits, prints the headline deltas, and exits non-zero when a gated
committed-transaction count (`driver.committed` of fig11, the standard
TPC-C mix, or fig_read, the read-heavy mix) regressed by more than
--max-regress percent (default 15), or when fig_latency's p99 commit
latency (`driver.commit_latency_us` p99 — an *increase* is the
regression) grew by more than --max-latency-regress percent (default
25; latency is noisier than throughput on quick shapes).

Allocation budgets are gated absolutely, not relatively: fig_alloc's
per-transaction allocator traffic (commit arena, read path, write path)
must stay at or under fixed budgets in the *newer* document. These are
deliberate engineering invariants — a budget miss is a real regression
regardless of what the older point measured.

A figure missing from the *older* document is reported as new and not
gated (the trajectory predates it); missing from the *newer* document is
a failure — a gated figure must not silently disappear.

Replay-side figures (recovery bytes over load+work time) are printed
for context but not gated: quick-mode recovery windows are short enough
that their run-to-run noise regularly exceeds any honest threshold.
"""

import argparse
import json
import sys

# Figures whose committed-transaction count is gated, in report order.
GATED_FIGURES = ("fig11", "fig_read")

# fig_alloc gauges gated against absolute budgets in the newer document:
# metric name -> (budget, unit). Missing from the older point is fine
# (the trajectory predates the gauge); missing from the newer point or
# above budget fails.
ALLOC_BUDGETS = {
    "bench.fig_alloc.commit_allocs_per_txn_arena": (2.0, "allocs/txn"),
    "bench.fig_alloc.read_allocs_per_txn": (1.0, "allocs/txn"),
    "bench.fig_alloc.write_allocs_per_txn": (1.0, "allocs/txn"),
}


def load(path):
    with open(path) as f:
        doc = json.load(f)
    figures = doc.get("figures")
    if not isinstance(figures, dict) or not figures:
        sys.exit(f"{path}: no figures — not a trajectory document?")
    return figures


def metric(figures, fig, name):
    m = figures.get(fig, {}).get("metrics", {})
    v = m.get(name)
    return v if isinstance(v, (int, float)) else None


def histo_field(figures, fig, name, field):
    """A field of a histogram metric (histograms export as objects)."""
    m = figures.get(fig, {}).get("metrics", {})
    v = m.get(name)
    if not isinstance(v, dict):
        return None
    f = v.get(field)
    return f if isinstance(f, (int, float)) else None


def replay_mbps(figures, fig):
    by = metric(figures, fig, "recovery.applied_log_bytes")
    ns = (metric(figures, fig, "recovery.load_ns") or 0) + (
        metric(figures, fig, "recovery.work_ns") or 0
    )
    if not by or not ns:
        return None
    return by / (ns / 1e9) / 1e6


def fmt_delta(old, new):
    if old is None or new is None:
        return "n/a"
    if old == 0:
        return "n/a (old=0)"
    pct = (new - old) / old * 100.0
    return f"{old:,.0f} -> {new:,.0f} ({pct:+.1f}%)"


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("old")
    ap.add_argument("new")
    ap.add_argument("--max-regress", type=float, default=15.0,
                    help="fail on a committed-throughput drop above this percent")
    ap.add_argument("--max-latency-regress", type=float, default=25.0,
                    help="fail on a p99 commit-latency increase above this percent")
    args = ap.parse_args()

    old, new = load(args.old), load(args.new)

    print(f"comparing {args.old} -> {args.new}")
    failures = []
    for fig in GATED_FIGURES:
        committed_old = metric(old, fig, "driver.committed")
        committed_new = metric(new, fig, "driver.committed")
        label = f"{fig} driver.committed:"
        if committed_new is None:
            print(f"  {label:<26} missing from {args.new}")
            failures.append(f"{fig} driver.committed missing from {args.new}")
            continue
        if committed_old is None:
            # The older trajectory point predates this figure: report,
            # don't gate — there is no baseline to regress against.
            print(f"  {label:<26} (new figure) -> {committed_new:,.0f}")
            continue
        print(f"  {label:<26} {fmt_delta(committed_old, committed_new)}")
        if committed_old > 0:
            drop = (committed_old - committed_new) / committed_old * 100.0
            if drop > args.max_regress:
                failures.append(
                    f"{fig} committed throughput dropped {drop:.1f}% "
                    f"(limit {args.max_regress:.0f}%)")

    # Latency gate: fig_latency's paced p99 commit latency. Direction
    # flips — an increase is the regression.
    p99_old = histo_field(old, "fig_latency", "driver.commit_latency_us", "p99")
    p99_new = histo_field(new, "fig_latency", "driver.commit_latency_us", "p99")
    label = "fig_latency p99 commit us:"
    if p99_new is None:
        print(f"  {label:<26} missing from {args.new}")
        failures.append(f"fig_latency commit-latency p99 missing from {args.new}")
    elif p99_old is None:
        print(f"  {label:<26} (new figure) -> {p99_new:,.0f}")
    else:
        print(f"  {label:<26} {fmt_delta(p99_old, p99_new)}")
        if p99_old > 0:
            rise = (p99_new - p99_old) / p99_old * 100.0
            if rise > args.max_latency_regress:
                failures.append(
                    f"fig_latency p99 commit latency rose {rise:.1f}% "
                    f"(limit {args.max_latency_regress:.0f}%)")

    # Allocation budgets: absolute gates on the newer point.
    for name, (budget, unit) in ALLOC_BUDGETS.items():
        short = name.removeprefix("bench.fig_alloc.")
        v_old = metric(old, "fig_alloc", name)
        v_new = metric(new, "fig_alloc", name)
        label = f"fig_alloc {short}:"
        if v_new is None:
            print(f"  {label:<40} missing from {args.new}")
            failures.append(f"fig_alloc {short} missing from {args.new}")
            continue
        old_str = "n/a" if v_old is None else f"{v_old:.3f}"
        print(f"  {label:<40} {old_str} -> {v_new:.3f} (budget {budget:g} {unit})")
        if v_new > budget:
            failures.append(
                f"fig_alloc {short} over budget: {v_new:.3f} > {budget:g} {unit}")

    for fig in ("fig14", "fig16"):
        o, n = replay_mbps(old, fig), replay_mbps(new, fig)
        if o is not None and n is not None:
            print(f"  {fig} replay MB/s:        {o:8.1f} -> {n:8.1f} "
                  f"({(n - o) / o * 100.0:+.1f}%)")

    if failures:
        sys.exit("REGRESSION: " + "; ".join(failures))
    print("ok: within regression budget")


if __name__ == "__main__":
    main()
