"""Time the stages of ``crdcache.simulator.verify_all`` on one case.

Each stage is the self time of the calls ``verify_all`` makes through the
``simulator`` module, each wrapped by a timer that subtracts the time of
timed calls nested in it:

- scheme: ``build_scheme``
- schedule: ``build_delivery_schedule``
- side_info: the side-information pass (``_side_information_pass`` where
  it exists, else ``_check_side_information_sets``)
- index: the schedule's participation index (its cached property)
- store: ``make_file_store``, ``FileStore.term_subfiles`` and the key
  marking and streaming inside it
- encode: the rest of ``encode_payloads``, its XOR included
- decode_residual: the per-user checks (``_received``, ``_reach``), the
  payload copy (``_air_rows``) and the residual ``_xor_gather``
- report_rest: ``verify_all`` minus all of the above

A stage no call reached is left out of the row.  The case runs with
distinct demands (N = K files), seed 0, one warm-up call and then
``--repeats`` timed calls; every figure is the median over them.
``column_mb`` is the nbytes of the schedule's stored int32 columns and
``peak_rss_mb`` the process ``ru_maxrss`` after the calls.

The script times whichever ``crdcache`` is importable, so that two source
trees can be compared by running it under each tree's ``PYTHONPATH`` in a
fresh process per side and case, alternating the sides:

    PYTHONPATH=src python tools/verify_stages.py --spec affine:n=5 --z 2 \\
        --file-len 256 --repeats 200 --out BENCH_N.json --side change

Without ``--out`` it prints the row as JSON.  With ``--out`` it appends the
row to ``verify_all_stages[side]`` of that JSON file, creating the file or
the section if needed, which is the layout ``tests/test_bench_files.py``
checks.
"""

from __future__ import annotations

import argparse
import functools
import json
import resource
import statistics
import sys
import time
from collections import defaultdict
from functools import cached_property
from pathlib import Path

from crdcache import simulator
from crdcache.constructions import from_spec
from crdcache.scheme import DeliverySchedule, scheme_metrics

STAGES = ("scheme", "schedule", "side_info", "index", "store", "encode", "decode_residual")


class StageTimer:
    """Self times per stage of the wrapped calls, in nanoseconds."""

    def __init__(self):
        self.totals: dict[str, int] = defaultdict(int)
        self._nested: list[int] = []

    def wrap(self, stage: str, f, outermost_only: bool = False):
        """``f`` timed under ``stage``; with ``outermost_only`` a call made
        inside another timed call is left to that call's stage."""

        @functools.wraps(f)
        def timed(*args, **kwargs):
            if outermost_only and self._nested:
                return f(*args, **kwargs)
            self._nested.append(0)
            start = time.perf_counter_ns()
            try:
                return f(*args, **kwargs)
            finally:
                elapsed = time.perf_counter_ns() - start
                self.totals[stage] += elapsed - self._nested.pop()
                if self._nested:
                    self._nested[-1] += elapsed

        return timed


def instrument(timer: StageTimer, schedules: list) -> None:
    """Wrap every stage's calls in place, and keep the last schedule built
    as the only item of ``schedules``."""
    module_stages = {
        "build_scheme": "scheme",
        "build_delivery_schedule": "schedule",
        "_side_information_pass": "side_info",
        "_check_side_information_sets": "side_info",
        "make_file_store": "store",
        "_stream_subfiles": "store",
        "encode_payloads": "encode",
        "_received": "decode_residual",
        "_reach": "decode_residual",
        "_air_rows": "decode_residual",
    }
    for name, stage in module_stages.items():
        if hasattr(simulator, name):
            setattr(simulator, name, timer.wrap(stage, getattr(simulator, name)))
    # the encoder's own XOR counts as encoding; only verify_all's is the residual
    simulator._xor_gather = timer.wrap("decode_residual", simulator._xor_gather, outermost_only=True)
    build = simulator.build_delivery_schedule

    def keeping(*args, **kwargs):
        schedule = build(*args, **kwargs)
        schedules[:] = [schedule]
        return schedule

    simulator.build_delivery_schedule = keeping
    store = simulator.FileStore
    store.term_subfiles = timer.wrap("store", store.term_subfiles)
    index = cached_property(timer.wrap("index", DeliverySchedule.participation.func))
    index.__set_name__(DeliverySchedule, "participation")
    DeliverySchedule.participation = index


def measure(spec: str, z: int, file_len: int, repeats: int) -> dict:
    res = from_spec(spec)
    n_users = scheme_metrics(res, z).users
    timer, schedules = StageTimer(), []
    instrument(timer, schedules)
    simulator.verify_all(res, z, n_users, file_len, 0)  # warm-up
    per_call: dict[str, list[float]] = defaultdict(list)
    for _ in range(repeats):
        timer.totals.clear()
        start = time.perf_counter_ns()
        report = simulator.verify_all(res, z, n_users, file_len, 0)
        whole = time.perf_counter_ns() - start
        if not report.all_recovered:
            raise SystemExit(f"{spec} z={z}: verify_all reports a failed user")
        for stage in STAGES:
            if stage in timer.totals:
                per_call[stage].append(timer.totals[stage] / 1e9)
        per_call["report_rest"].append((whole - sum(timer.totals.values())) / 1e9)
        per_call["verify_all"].append(whole / 1e9)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    (schedule,) = schedules
    return {
        "spec": spec,
        "z": z,
        "file_len": file_len,
        "K": n_users,
        "T": len(schedule.users),
        "repeats": repeats,
        "median_s": {stage: round(statistics.median(times), 6) for stage, times in per_call.items()},
        "column_mb": round((schedule.users.nbytes + schedule.subfiles.nbytes) / 1e6, 3),
        "peak_rss_mb": round(peak_rss_mb, 1),
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
