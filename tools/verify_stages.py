"""Time the stages of ``crdcache.simulator.verify_all`` on one case.

``verify_all`` times its own stages and returns them in its report's
``stage_ns``: scheme, schedule, side_info, store, encode, decode_residual
and report_rest, as the ``simulator`` module docstring describes them.
The script reads that record and wraps nothing.  The case runs with
distinct demands (N = K files), seed 0, one warm-up call and then
``--repeats`` timed calls; every figure is the median over them, and
``verify_all`` is the wall time around each call.  ``gap_ms`` is each
call's wall time minus the sum of that same call's stages, the time the
stages do not cover (such as teardown after the last mark), as its median
and quartiles over the calls in ms; a median of stages over the median of
calls cannot show it, since both move with the host.  ``column_mb`` is the
size of the schedule's two int32 columns, 8 T 2^z bytes,
``peak_rss_mb`` the process ``ru_maxrss`` after the calls, and
``traced_peak_mb`` the ``tracemalloc`` peak of one more call after the
timed ones, which tracing would slow.

The script times whichever ``crdcache`` is importable, so that two source
trees can be compared by running it under each tree's ``PYTHONPATH`` in a
fresh process per side and case, alternating the sides:

    PYTHONPATH=src python tools/verify_stages.py --spec affine:n=5 --z 2 \\
        --file-len 256 --repeats 200 --out BENCH_N.json --side change

It can time only trees whose ``verify_all`` returns ``stage_ns``; the
stage rows of earlier BENCH files came from a version of this script that
wrapped the simulator's functions in place.

Without ``--out`` it prints the row as JSON.  With ``--out`` it appends the
row to ``verify_all_stages[side]`` of that JSON file, creating the file or
the section if needed, which is the layout ``tests/test_bench_files.py``
checks.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
import tracemalloc
from collections import defaultdict
from pathlib import Path

import numpy as np

from crdcache import simulator
from crdcache.constructions import from_spec
from crdcache.scheme import scheme_metrics


def measure(spec: str, z: int, file_len: int, repeats: int) -> dict:
    res = from_spec(spec)
    n_users = scheme_metrics(res, z).users
    n_sent = simulator.verify_all(res, z, n_users, file_len, 0).transmissions_sent  # warm-up
    per_call: dict[str, list[float]] = defaultdict(list)
    gaps = []
    for _ in range(repeats):
        start = time.perf_counter_ns()
        report = simulator.verify_all(res, z, n_users, file_len, 0)
        whole = time.perf_counter_ns() - start
        if not report.all_recovered:
            raise SystemExit(f"{spec} z={z}: verify_all reports a failed user")
        for stage, ns in [*report.stage_ns.items(), ("verify_all", whole)]:
            per_call[stage].append(ns / 1e9)
        gaps.append((whole - sum(report.stage_ns.values())) / 1e6)
        del report  # freed outside the next call's span
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    tracemalloc.start()
    try:
        simulator.verify_all(res, z, n_users, file_len, 0)
        _, traced_peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    q1, median, q3 = np.percentile(gaps, [25, 50, 75])
    return {
        "spec": spec,
        "z": z,
        "file_len": file_len,
        "K": n_users,
        "T": n_sent,
        "repeats": repeats,
        "median_s": {stage: round(statistics.median(times), 6) for stage, times in per_call.items()},
        "gap_ms": {"median": round(median, 4), "q1": round(q1, 4), "q3": round(q3, 4)},
        "column_mb": round(8 * n_sent * 2**z / 1e6, 3),
        "peak_rss_mb": round(peak_rss_mb, 1),
        "traced_peak_mb": round(traced_peak / 1e6, 3),
    }


def append_row(path: Path, side: str, row: dict) -> None:
    record = json.loads(path.read_text(encoding="utf-8")) if path.exists() else {}
    stages = record.setdefault("verify_all_stages", {})
    stages.setdefault("parent", [])
    stages.setdefault("change", [])
    stages[side].append(row)
    path.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--spec", required=True, help="design spec, e.g. affine:n=5")
    parser.add_argument("--z", type=int, required=True)
    parser.add_argument("--file-len", type=int, required=True)
    parser.add_argument("--repeats", type=int, default=10)
    parser.add_argument("--out", type=Path, help="JSON file whose verify_all_stages gets the row")
    parser.add_argument("--side", choices=("parent", "change"), default="change")
    args = parser.parse_args(argv)
    row = measure(args.spec, args.z, args.file_len, args.repeats)
    if args.out is None:
        json.dump(row, sys.stdout)
        sys.stdout.write("\n")
    else:
        append_row(args.out, args.side, row)
    return 0


if __name__ == "__main__":
    sys.exit(main())
