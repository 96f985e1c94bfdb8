#!/usr/bin/env python3
"""Perf-regression gate over google-benchmark JSON reports.

Compares the benchmarks of a freshly measured report (``current``) against a
committed baseline (``baseline``, a ``BENCH_*.json`` produced with the
``--json`` flag of ``bench/micro_kernels``) and fails when any gated row got
slower than the threshold allows.

CI machines are not the machine that recorded the baseline, so absolute
times differ by a roughly uniform factor.  ``--calibrate`` estimates that
factor as the median cpu-time ratio over the *ungated control* rows shared
by both reports (rows not matched by ``--patterns``) and gates on the
calibrated ratio instead, which catches rows that regressed relative to the
controls while tolerating overall machine-speed differences.  Patterns after
``--calibrate`` narrow the controls to the ungated rows they match: a
baseline recorded on one CPU calibrates only against single-threaded rows,
whose run conditions do not change with the runner's thread count.  (A slowdown
that hits the controls in exactly the same proportion is invisible to the
calibrated gate — that is the price of hardware independence; the committed
baseline is refreshed whenever a PR intentionally shifts the recorded
rows.)

Cross-machine ratios stay leaky (a 1-CPU baseline vs a multi-core runner
shifts parallel rows relative to serial controls), so the hard gate is
``--pairs``: invariants between two rows of the *current* report — e.g. the
plan-based SpMV must stay faster than the naive row loop measured seconds
earlier on the same machine — which no hardware difference can fake.

Short ``--benchmark_min_time`` runs are load-spike-sensitive (a background
burst landing on one side of a pair fakes a regression), so reports run
with ``--benchmark_repetitions=N`` get best-of-N treatment: repeated
iteration rows sharing a name collapse to their *minimum* cpu time before
any gating, and a spike must hit every repetition of a row to survive.
The CI invocation uses 3 repetitions for exactly this reason.

The comparison table is written to stdout and, when the environment provides
one (or ``--summary`` names a file), appended to the GitHub job summary.

Exit status: 0 when every gated row passes, 1 otherwise, 2 on usage errors.
"""

import argparse
import json
import os
import re
import statistics
import sys


TIME_UNIT_NS = {"ns": 1.0, "us": 1e3, "ms": 1e6, "s": 1e9}


def load_rows(path):
    """name -> cpu_time (normalised to ns) for the iteration rows.

    Reports measured with ``--benchmark_repetitions=N`` carry N iteration
    rows per name; they collapse to the per-name *minimum* (best-of-N), the
    noise-robust statistic for gating under background load.
    """
    try:
        with open(path, "r", encoding="utf-8") as f:
            report = json.load(f)
    except (OSError, ValueError) as e:
        print(f"bench_compare: cannot read {path}: {e}", file=sys.stderr)
        sys.exit(2)
    rows = {}
    for b in report.get("benchmarks", []):
        if b.get("run_type", "iteration") != "iteration":
            continue  # skip aggregate (mean/median/stddev) rows
        name = b.get("name")
        cpu = b.get("cpu_time")
        scale = TIME_UNIT_NS.get(b.get("time_unit", "ns"), 1.0)
        if name and isinstance(cpu, (int, float)) and cpu > 0:
            ns = float(cpu) * scale
            rows[name] = min(rows[name], ns) if name in rows else ns
    return rows


def fmt_time(ns):
    for unit, scale in (("s", 1e9), ("ms", 1e6), ("us", 1e3)):
        if ns >= scale:
            return f"{ns / scale:.2f} {unit}"
    return f"{ns:.0f} ns"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("baseline", help="committed BENCH_*.json")
    parser.add_argument("current", help="freshly measured report")
    parser.add_argument(
        "--patterns", nargs="+",
        default=["BM_McmcBuild", "BM_Spmv", "BM_BatchedGridBuild"],
        help="regexes selecting the gated benchmark names (prefix match)")
    parser.add_argument(
        "--threshold", type=float, default=0.30,
        help="maximum tolerated slowdown, e.g. 0.30 = +30%% (default)")
    parser.add_argument(
        "--calibrate", nargs="*", metavar="PATTERN",
        help="divide ratios by the median ratio over the ungated rows, or "
             "over the ungated rows matching PATTERN (prefix regexes) "
             "when any are given")
    parser.add_argument(
        "--pairs", nargs="*", default=[], metavar="FAST:SLOW:MAXRATIO",
        help="same-run invariants on the current report: fail unless "
             "cpu_time(FAST) <= MAXRATIO * cpu_time(SLOW).  Both rows come "
             "from one machine and one run, so these gate machine-"
             "independently where baseline ratios cannot.")
    parser.add_argument(
        "--top", type=int, default=0, metavar="N",
        help="also print the N largest regressions and the N largest "
             "improvements over all shared rows (gated or not) — the "
             "at-a-glance movement report for humans reading the job log")
    parser.add_argument(
        "--summary", default=os.environ.get("GITHUB_STEP_SUMMARY"),
        help="markdown file to append the comparison table to")
    args = parser.parse_args()

    base = load_rows(args.baseline)
    cur = load_rows(args.current)
    shared = sorted(set(base) & set(cur))
    if not shared:
        print("bench_compare: no common benchmark rows", file=sys.stderr)
        sys.exit(2)

    gated = [n for n in shared
             if any(re.match(p, n) for p in args.patterns)]
    missing = [p for p in args.patterns
               if not any(re.match(p, n) for n in shared)]
    if missing:
        print(f"bench_compare: no shared rows match {missing}",
              file=sys.stderr)
        sys.exit(2)

    calibrating = args.calibrate is not None
    calibration = 1.0
    if calibrating:
        # Estimate the machine-speed factor from the *ungated* control rows:
        # calibrating on the gated rows themselves would let a uniform
        # regression of the gated kernels cancel itself out.
        controls = [n for n in shared if n not in gated and (
            not args.calibrate
            or any(re.match(p, n) for p in args.calibrate))]
        if not controls:
            print("bench_compare: --calibrate needs ungated control rows "
                  "shared by both reports (the CI filter includes "
                  "BM_AliasSample/BM_InverseCdfSample for this)",
                  file=sys.stderr)
            sys.exit(2)
        calibration = statistics.median(cur[n] / base[n] for n in controls)

    limit = 1.0 + args.threshold
    lines = [
        "| benchmark | baseline | current | ratio |"
        + (" calibrated |" if calibrating else "") + " status |",
        "|---|---|---|---|" + ("---|" if calibrating else "") + "---|",
    ]
    failures = []
    for name in shared:
        ratio = cur[name] / base[name]
        adjusted = ratio / calibration
        is_gated = name in gated
        ok = adjusted <= limit
        if is_gated and not ok:
            failures.append(name)
        status = ("FAIL" if not ok else "ok") if is_gated else "info"
        row = (f"| {name} | {fmt_time(base[name])} | {fmt_time(cur[name])} "
               f"| {ratio:.2f}x |")
        if calibrating:
            row += f" {adjusted:.2f}x |"
        row += f" {status} |"
        lines.append(row)

    pair_lines = []
    if args.pairs:
        pair_lines = ["", "Same-run pair invariants (machine-independent):",
                      "", "| fast | slow | ratio | limit | status |",
                      "|---|---|---|---|---|"]
        for spec in args.pairs:
            try:
                fast, slow, max_ratio = spec.split(":")
                max_ratio = float(max_ratio)
            except ValueError:
                print(f"bench_compare: bad --pairs spec {spec!r} "
                      "(want FAST:SLOW:MAXRATIO)", file=sys.stderr)
                sys.exit(2)
            absent = [n for n in (fast, slow) if n not in cur]
            if absent:
                print(f"bench_compare: --pairs {spec!r} names benchmark "
                      f"row(s) absent from the current report: "
                      + ", ".join(repr(n) for n in absent)
                      + " — check the benchmark_filter regex covers them "
                      "and the rows were not renamed", file=sys.stderr)
                sys.exit(2)
            ratio = cur[fast] / cur[slow]
            ok = ratio <= max_ratio
            if not ok:
                failures.append(f"{fast} vs {slow}")
            pair_lines.append(f"| {fast} | {slow} | {ratio:.2f}x "
                              f"| {max_ratio:.2f}x | "
                              f"{'ok' if ok else 'FAIL'} |")

    top_lines = []
    if args.top > 0:
        # Movement report over every shared row, sorted by calibrated ratio:
        # purely informational — the gates above are the contract.
        ranked = sorted(shared, key=lambda n: cur[n] / base[n] / calibration)
        slowest = [n for n in reversed(ranked)
                   if cur[n] / base[n] / calibration > 1.0][:args.top]
        fastest = [n for n in ranked
                   if cur[n] / base[n] / calibration < 1.0][:args.top]

        def movement(names):
            return [f"| {n} | {fmt_time(base[n])} | {fmt_time(cur[n])} "
                    f"| {cur[n] / base[n] / calibration:.2f}x |"
                    for n in names]

        top_lines = ["", f"Top {args.top} movements"
                     + (" (calibrated)" if calibrating else "") + ":"]
        if slowest:
            top_lines += ["", "| largest regressions | baseline | current "
                          "| ratio |", "|---|---|---|---|"]
            top_lines += movement(slowest)
        if fastest:
            top_lines += ["", "| largest improvements | baseline | current "
                          "| ratio |", "|---|---|---|---|"]
            top_lines += movement(fastest)
        if not slowest and not fastest:
            top_lines += ["", "no row moved off a 1.00x ratio"]

    header = (f"### bench_compare: {len(gated)} gated rows, "
              f"threshold +{args.threshold:.0%}"
              + (f", calibration {calibration:.2f}x" if calibrating
                 else ""))
    table = header + "\n\n" + "\n".join(lines + top_lines + pair_lines) + "\n"
    print(table)
    if args.summary:
        try:
            with open(args.summary, "a", encoding="utf-8") as f:
                f.write(table + "\n")
        except OSError as e:
            print(f"bench_compare: cannot write summary: {e}",
                  file=sys.stderr)

    if failures:
        print(f"bench_compare: slowdown beyond +{args.threshold:.0%} in: "
              + ", ".join(failures), file=sys.stderr)
        sys.exit(1)
    print("bench_compare: all gated rows within threshold")


if __name__ == "__main__":
    main()
