#!/usr/bin/env bash
# Record backend throughput over time: runs the BM_BackendThroughput
# microbenchmark (shots/second per simulation backend, d=5 surface code,
# the bench/micro_speculation.cc configuration) and appends one record to
# BENCH_backend_throughput.json at the repo root — the committed
# trajectory a perf PR cites to prove its speedup and a regression hunt
# bisects over.
#
# Usage:
#   scripts/bench_record.sh              # run, append, git-commit the file
#   scripts/bench_record.sh --no-commit  # run and append only
#
# Each record: {git_rev, date, num_cpus, threads, min_time_s,
# shots_per_second: {frame: ..., batch_frame: ..., ...}, multi_thread,
# scaling, stage_frac}.
#
#  - shots_per_second is each backend's single-thread rate — the number
#    the perf trajectory compares PR over PR.
#  - multi_thread records the best multi-threaded point per backend
#    (threads + shots/s) so scheduler scaling is part of the committed
#    trajectory too.
#  - scaling records, per backend with a multi-thread row, the speedup
#    of its best multi-thread point over its single-thread point
#    and the parallel efficiency (speedup / threads) — the number the
#    thread-scaling gate (scripts/bench_guard.py) watches: speedup < 1
#    means threads made the backend SLOWER.
#  - stage_frac comes from the telemetry side channel riding along the
#    benchmark's single-thread row (src/telemetry/) — where the wall
#    time went, not just how much of it there was.
#
# The file is a JSON array, oldest first.  Older records carry fewer
# fields (plain shots_per_second only), and records before the batch
# engine became one word wide also carry chosen_batch_words and
# batch_width_sweep — readers must treat every field but
# shots_per_second as optional.  Throughput is machine-dependent — compare records
# from the same host (num_cpus is recorded to make foreign records
# obvious).
#
# The recorder FAILS (and writes nothing) if any expected benchmark row
# or counter is absent: a partial trajectory point is worse than none,
# because the regression guard would read the gap as a crash-level
# regression or silently skip the comparison.
set -euo pipefail

cd "$(dirname "$0")/.."

COMMIT=1
if [[ "${1:-}" == "--no-commit" ]]; then
    COMMIT=0
fi

OUT_FILE="BENCH_backend_throughput.json"
BENCH_BIN="build/micro_speculation"
MIN_TIME="${GLD_BENCH_MIN_TIME:-0.5}"

if [[ ! -x "${BENCH_BIN}" ]]; then
    echo "error: ${BENCH_BIN} not built (cmake --build build -j)" >&2
    exit 1
fi

RAW="$(mktemp)"
trap 'rm -f "${RAW}"' EXIT
"${BENCH_BIN}" --benchmark_filter='BM_BackendThroughput' \
    --benchmark_format=json --benchmark_min_time="${MIN_TIME}" \
    > "${RAW}"

GIT_REV="$(git rev-parse --short HEAD)" \
MIN_TIME="${MIN_TIME}" \
python3 - "${RAW}" "${OUT_FILE}" <<'EOF'
import json
import os
import sys

raw_path, out_path = sys.argv[1], sys.argv[2]
with open(raw_path) as f:
    raw = json.load(f)

results = {}
for b in raw.get("benchmarks", []):
    if b.get("run_type") != "iteration" or "label" not in b:
        continue
    if "items_per_second" not in b:
        sys.exit(f"error: row {b.get('name', '?')} has no items_per_second "
                 "counter — refusing to record a partial trajectory point")
    results[b["label"]] = b

# The full registration list of bench/micro_speculation.cc's
# BM_BackendThroughput.  Labels: backend[@t<threads>][@sparse][@ler],
# with the plain backend name at threads=1/lockstep so old records stay
# comparable.  @sparse (event-driven noise sampling) and @ler (decode
# on) fold into the trajectory's backend KEY — they are different
# measurements and must never shadow the lockstep rows.
EXPECTED = [
    "frame", "frame@t8",
    "batch_frame", "batch_frame@t8", "batch_frame@sparse",
    "batch_frame@ler",
    "tableau", "batch_tableau", "batch_tableau@sparse", "batch_tableau@t8",
]
missing = [l for l in EXPECTED if l not in results]
if missing:
    sys.exit("error: benchmark output is missing expected rows: "
             + ", ".join(missing)
             + " — refusing to record a partial trajectory point")


def parse_label(label):
    backend, threads = label.split("@")[0], 1
    for part in label.split("@")[1:]:
        if part in ("sparse", "ler"):
            # Mode suffixes become part of the backend key: a sparse or
            # decode-on row is its own trajectory series, compared PR
            # over PR against itself (and, within one record, against
            # the plain lockstep rows it was measured beside).
            backend += "@" + part
        elif part.startswith("t"):
            threads = int(part[1:])
        else:
            sys.exit(f"error: unparseable label suffix '@{part}' in "
                     f"'{label}'")
    return backend, threads


# The single-thread rate per backend, plus the best multi-threaded point
# per backend.
single = {}       # backend -> (shots/s, label)
best_multi = {}   # backend -> {threads, shots_per_second}
for label, b in sorted(results.items()):
    backend, threads = parse_label(label)
    sps = b["items_per_second"]
    if threads == 1:
        single[backend] = (sps, label)
    else:
        prev = best_multi.get(backend)
        if prev is None or sps > prev["shots_per_second"]:
            best_multi[backend] = {
                "threads": threads,
                "shots_per_second": round(sps, 1),
            }

# Thread-scaling summary: how much the best multi-thread point buys over
# the same record's single-thread point (same host, same build —
# no cross-record comparison).  speedup < 1.0 is the pathology this
# PR's pool removed: threads making the backend slower.
scaling = {}
for backend, multi in sorted(best_multi.items()):
    single_sps = single[backend][0]
    speedup = multi["shots_per_second"] / single_sps
    scaling[backend] = {
        "threads": multi["threads"],
        "speedup": round(speedup, 3),
        "efficiency": round(speedup / multi["threads"], 3),
    }

# Telemetry stage split of each backend's single-thread row: fraction of
# worker wall time in sim / policy / decode / accounting (frac_*
# counters).
stage_frac = {}
for backend, (_, label) in single.items():
    frac = {
        k[len("frac_"):]: round(v, 4)
        for k, v in sorted(results[label].items())
        if k.startswith("frac_")
    }
    if not frac:
        sys.exit(f"error: row '{label}' is missing its telemetry frac_* "
                 "counters — refusing to record a partial trajectory point")
    stage_frac[backend] = frac

record = {
    "git_rev": os.environ["GIT_REV"],
    "date": raw["context"]["date"],
    "num_cpus": raw["context"]["num_cpus"],
    # shots_per_second below is single-threaded (the backend's own rate,
    # not the scheduler's); the multi_thread section carries the scaled
    # points.
    "threads": 1,
    "min_time_s": float(os.environ["MIN_TIME"]),
    "shots_per_second": {
        backend: round(sps, 1)
        for backend, (sps, _label) in sorted(single.items())
    },
    "multi_thread": best_multi,
    "scaling": scaling,
    "stage_frac": stage_frac,
}

history = []
if os.path.exists(out_path):
    with open(out_path) as f:
        history = json.load(f)
history.append(record)
with open(out_path, "w") as f:
    json.dump(history, f, indent=2)
    f.write("\n")

per_backend = ", ".join(
    f"{k}: {v:,.0f}" for k, v in record["shots_per_second"].items())
print(f"recorded {record['git_rev']} — single-thread shots/s "
      f"{{{per_backend}}}")
EOF

if [[ "${COMMIT}" == "1" ]]; then
    git add "${OUT_FILE}"
    git commit -m "Record backend throughput at $(git rev-parse --short HEAD)" \
        -- "${OUT_FILE}"
fi
