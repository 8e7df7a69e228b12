#!/usr/bin/env python3
"""Warn-only perf guard over the committed throughput trajectory.

Compares the two most recent records of BENCH_backend_throughput.json
(see scripts/bench_record.sh) per backend and emits a GitHub Actions
``::warning::`` annotation for every backend whose single-thread
shots/second dropped by more than the threshold (default 20%).

Additionally checks thread scaling WITHIN the latest record (same host,
same build, so no cross-host caveat applies): for every backend carrying
a multi-thread point, its best multi-thread rate must beat its own
single-thread rate — a speedup <= 1.0 means the scheduler is burning
threads to go slower, the exact pathology the persistent worker pool
exists to prevent.

Deliberately NON-FATAL: microbenchmark numbers are machine-dependent
(records carry num_cpus so foreign-host comparisons are obvious) and a
red CI lane for a noisy 20% would teach people to ignore it.  The guard
exists to make a real regression loud in the PR annotations, not to
block the merge — always exits 0.

Usage: scripts/bench_guard.py [trajectory.json] [--threshold 0.20]
"""

import argparse
import json
import sys


def check_scaling(record) -> None:
    """Warn when a backend's best multi-thread point in `record` fails to
    beat its own single-thread point.  Older records predate the
    multi_thread section — silently nothing to check then."""
    rev = record.get("git_rev", "?")
    single = record.get("shots_per_second", {})
    multi = record.get("multi_thread", {})
    for backend in sorted(multi):
        if backend not in single or float(single[backend]) <= 0:
            continue
        m = multi[backend]
        speedup = float(m["shots_per_second"]) / float(single[backend])
        eff = speedup / m["threads"] if m.get("threads") else 0.0
        print(f"bench guard: {backend:14s} scaling x{speedup:.2f} at "
              f"{m.get('threads', '?')} threads "
              f"(efficiency {eff * 100:.0f}%)")
        if speedup <= 1.0:
            print(f"::warning::bench guard: {backend} at "
                  f"{m.get('threads', '?')} threads is no faster than "
                  f"single-threaded in {rev} "
                  f"({float(m['shots_per_second']):,.0f} vs "
                  f"{float(single[backend]):,.0f} shots/s) — thread "
                  "scaling gate failed")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("trajectory", nargs="?",
                    default="BENCH_backend_throughput.json")
    ap.add_argument("--threshold", type=float, default=0.20,
                    help="fractional single-thread drop that warns "
                         "(default 0.20)")
    args = ap.parse_args()

    try:
        with open(args.trajectory) as f:
            history = json.load(f)
    except (OSError, ValueError) as e:
        print(f"::warning::bench guard: cannot read {args.trajectory}: {e}")
        return 0

    if not isinstance(history, list) or not history:
        print(f"bench guard: no records in {args.trajectory}; "
              "nothing to check")
        return 0

    # Thread-scaling gate: within the LATEST record only, so it applies
    # even on a fresh host with no comparable prior record.
    check_scaling(history[-1])

    if len(history) < 2:
        print(f"bench guard: fewer than two records in {args.trajectory}; "
              "no trajectory to compare")
        return 0

    prev, cur = history[-2], history[-1]
    prev_sps = prev.get("shots_per_second", {})
    cur_sps = cur.get("shots_per_second", {})
    if prev.get("num_cpus") != cur.get("num_cpus"):
        print(f"bench guard: records {prev.get('git_rev')} and "
              f"{cur.get('git_rev')} come from different hosts "
              f"(num_cpus {prev.get('num_cpus')} vs {cur.get('num_cpus')}); "
              "comparison would be meaningless, skipping")
        return 0

    warned = 0
    for backend in sorted(prev_sps):
        if backend not in cur_sps:
            print(f"::warning::bench guard: backend '{backend}' present in "
                  f"{prev.get('git_rev')} is missing from "
                  f"{cur.get('git_rev')}")
            warned += 1
            continue
        before, after = float(prev_sps[backend]), float(cur_sps[backend])
        if before <= 0:
            continue
        drop = (before - after) / before
        arrow = "-" if drop >= 0 else "+"
        print(f"bench guard: {backend:14s} {before:12,.0f} -> "
              f"{after:12,.0f} shots/s ({arrow}{abs(drop) * 100:.1f}%)")
        if drop > args.threshold:
            print(f"::warning::bench guard: {backend} single-thread "
                  f"throughput regressed {drop * 100:.1f}% "
                  f"({before:,.0f} -> {after:,.0f} shots/s, "
                  f"{prev.get('git_rev')} -> {cur.get('git_rev')}, "
                  f"threshold {args.threshold * 100:.0f}%)")
            warned += 1
    for backend in sorted(set(cur_sps) - set(prev_sps)):
        print(f"bench guard: {backend} is new in {cur.get('git_rev')} "
              f"({float(cur_sps[backend]):,.0f} shots/s); no baseline")

    if warned == 0:
        print("bench guard: no single-thread regression beyond "
              f"{args.threshold * 100:.0f}%")
    # Warn-only by design: see module docstring.
    return 0


if __name__ == "__main__":
    sys.exit(main())
