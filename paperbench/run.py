#!/usr/bin/env python3
"""Paper-workload benchmark: build, run one workload, report.

    python3 paperbench/run.py --workload paper_d7_gl_ler_1t --seed 1 \
        --seconds 10 --trace 0
    python3 paperbench/run.py --workload all      # all three, one summary each
    python3 paperbench/run.py --self-check        # the check must be able to fail
    python3 paperbench/run.py --record-reference  # rewrite reference.json

The first call configures and builds the library and the binary from
source into .bench_build/paperbench (CMake, Release).  Each run prints a
human summary (every metric by name with its unit, plus
checks_failed_frac), saves the full record with provenance under
.bench_build/paperbench/results/, and ends stdout with one JSON line:
{"correct", "attempted", "failed", "metrics"}.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "paperbench")
BINARY = os.path.join(BUILD, "paperbench")
REFERENCE = os.path.join(HERE, "reference.json")
WORKLOADS = (
    "paper_d7_gl_ler_1t",
    "paper_d11_er_ler_2t",
    "fig1b_d11_gl_dlp_1t",
)
# Source trees whose content identifies the measured program.
DIGEST_PATHS = ("src", "CMakeLists.txt", "paperbench")


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def call(cmd, timeout):
    """Runs cmd with its stdout sent to our stderr; True on exit 0."""
    try:
        res = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                             timeout=timeout, check=False)
    except (OSError, subprocess.TimeoutExpired) as e:
        log(f"paperbench: {' '.join(cmd)}: {e}")
        return False
    return res.returncode == 0


def build():
    jobs = str(len(os.sched_getaffinity(0)))
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        if not call(["cmake", "-S", HERE, "-B", BUILD,
                     "-DCMAKE_BUILD_TYPE=Release"], timeout=60):
            return False
    return call(["cmake", "--build", BUILD, "--target", "paperbench",
                 "-j", jobs], timeout=840)


def source_digest():
    h = hashlib.sha256()
    for top in DIGEST_PATHS:
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for f in files:
            h.update(os.path.relpath(f, ROOT).encode())
            with open(f, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def git_provenance():
    """Rev and dirty flag when ROOT is itself a git checkout."""
    def git(*args):
        return subprocess.run(["git", "-C", ROOT, *args], capture_output=True,
                              text=True, timeout=30, check=False)
    try:
        top = git("rev-parse", "--show-toplevel")
        if top.returncode != 0 or os.path.realpath(top.stdout.strip()) != \
                os.path.realpath(ROOT):
            return {"git_rev": "unknown", "git_dirty": None}
        rev = git("rev-parse", "HEAD").stdout.strip()
        dirty = bool(git("status", "--porcelain", "--untracked-files=no")
                     .stdout.strip())
        return {"git_rev": rev, "git_dirty": dirty}
    except (OSError, subprocess.TimeoutExpired):
        return {"git_rev": "unknown", "git_dirty": None}


def run_binary(args, timeout):
    """Runs the binary; returns its last stdout line parsed, or None."""
    try:
        res = subprocess.run([BINARY, *args], capture_output=True, text=True,
                             timeout=timeout, check=False)
    except (OSError, subprocess.TimeoutExpired) as e:
        log(f"paperbench: {BINARY}: {e}")
        return None
    sys.stderr.write(res.stderr)
    lines = res.stdout.strip().splitlines()
    if res.returncode != 0 or not lines:
        log(f"paperbench: binary exited {res.returncode}")
        return None
    return json.loads(lines[-1])


def summary(rec):
    out = [f"paperbench {rec['workload']} "
           f"({'traced' if rec['trace'] else 'untraced'}, "
           f"{rec['timed_repetitions']} timed repetitions)"]
    for name, m in rec["metrics"].items():
        out.append(f"  {name:40s} {m['value']:.6g} {m['unit']}")
    frac = rec["failed"] / rec["attempted"]
    out.append(f"  {'checks_failed_frac':40s} {frac:.6g} frac "
               f"({rec['failed']}/{rec['attempted']} checks failed)")
    for c in rec["checks"]:
        if not c["ok"]:
            out.append(f"  FAILED {c['name']}:\n    " +
                       c["detail"].strip().replace("\n", "\n    "))
    cfg = rec["config"]
    out.append("  config: " + ", ".join(f"{k}={cfg[k]}" for k in (
        "backend", "batch_words", "noise_sampling", "threads", "shots",
        "seed")))
    return "\n".join(out)


def run_workload(name, seed, seconds, trace, extra):
    timeout = min(170, 60 + 3 * seconds)
    rec = run_binary(["--workload", name, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", str(trace),
                      "--reference", REFERENCE], timeout)
    if rec is None:
        return None
    rec["provenance"].update(extra)
    results = os.path.join(BUILD, "results")
    os.makedirs(results, exist_ok=True)
    path = os.path.join(results, f"{name}-seed{seed}-trace{trace}.json")
    with open(path, "w") as fh:
        json.dump(rec, fh, indent=2)
    print(summary(rec), flush=True)
    return rec


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", default="all",
                    choices=("all",) + WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-check", action="store_true")
    ap.add_argument("--record-reference", action="store_true")
    args = ap.parse_args()
    if args.seconds < 1:
        ap.error("--seconds must be >= 1")

    if not build():
        log("paperbench: build failed")
        return 1
    if args.self_check:
        return subprocess.run([BINARY, "--self-check", "--reference",
                               REFERENCE], timeout=600,
                              check=False).returncode
    if args.record_reference:
        return subprocess.run([BINARY, "--record-reference", REFERENCE],
                              timeout=600, check=False).returncode

    extra = git_provenance()
    extra["source_sha256"] = source_digest()
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    recs = []
    for name in names:
        rec = run_workload(name, args.seed, args.seconds, args.trace, extra)
        if rec is None:
            return 1
        recs.append(rec)

    def metrics_of(rec):
        return {k: {"value": v["value"], "unit": v["unit"]}
                for k, v in rec["metrics"].items()}

    if len(recs) == 1:
        metrics = metrics_of(recs[0])
    else:
        metrics = {f"{r['workload']}.{k}": v
                   for r in recs for k, v in metrics_of(r).items()}
    print(json.dumps({
        "correct": all(r["correct"] for r in recs),
        "attempted": sum(r["attempted"] for r in recs),
        "failed": sum(r["failed"] for r in recs),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
