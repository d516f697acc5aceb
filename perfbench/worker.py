"""One workload in a fresh single-threaded process; prints one JSON result.

``run.py`` starts this with the package's ``src`` on PYTHONPATH and the
numpy thread variables set to 1.  Untraced, it times the workload's body
until ``--seconds`` is used up, and after every step of the body times a
fixed reference task for a share of the step's time (``reference.py``).
Traced, it alternates one untraced body with one traced iteration for as
long, reports the medians of the per-layer metrics, and writes every span
once at exit.
"""

from __future__ import annotations

import time

_T0 = time.perf_counter()
import crdcache  # noqa: E402,F401  (the first import of the package is timed)

IMPORT_S = time.perf_counter() - _T0

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy  # noqa: E402

import golden  # noqa: E402
import pipeline  # noqa: E402
import reference  # noqa: E402
from spans import SpanRecorder  # noqa: E402
from workloads import ALL_WORKLOADS, REFERENCE  # noqa: E402


def flip_first_payload_byte() -> None:
    """Negative control: byte 0 of the first payload of every broadcast is flipped."""
    encode = pipeline.simulator.encode_payloads

    def faulty(schedule, store):
        payloads = encode(schedule, store)
        payloads[0] = bytes([payloads[0][0] ^ 0xFF]) + payloads[0][1:]
        return payloads

    pipeline.simulator.encode_payloads = faulty


def run_untraced(work: pipeline.Workload, seconds: float) -> dict:
    """Times the body, with a burst of the reference task after every step."""
    pacer = reference.Pacer(reference.TASKS[REFERENCE[work.name]])
    relative: list[float] = []

    def sample() -> float | None:
        out = work.untraced_sample(pacer.step)
        if out is None:
            return None
        relative.append(out[1])
        return out[0]

    samples = pipeline.run_samples(sample, seconds)
    tail = pipeline.tail_percentile(samples) if len(samples) > 10 else None
    return {
        "samples_s": samples,
        "wall_tail": tail,
        "reference_task": REFERENCE[work.name],
        "reference_bursts_s": pacer.bursts,
        "relative": relative,
    }


def run_traced(work: pipeline.Workload, seconds: float, spans_out: Path) -> dict:
    rec = SpanRecorder()
    layers: list[dict[str, float]] = []
    stage_s: list[float] = []
    untraced: list[float] = []

    def pair() -> float:
        t0 = time.perf_counter()
        out = work.untraced_sample()
        if out is not None:
            untraced.append(out[0])
        metrics, stages = work.traced_iteration(rec)
        layers.append(metrics)
        stage_s.append(stages)
        return time.perf_counter() - t0

    gf_ns = pipeline.gf_mul_ns()
    pipeline.run_samples(pair, seconds)
    out = {name: statistics.median(m[name] for m in layers) for name in layers[0]}
    out["import_s"] = IMPORT_S
    out["gf.mul_ns"] = gf_ns
    wall = statistics.median(untraced) if untraced else 0.0
    out["trace.overhead_s"] = statistics.median(stage_s) - wall
    rec.dump(spans_out, workload=work.name, seed=work.seed, iterations=len(layers))
    return {"samples_s": untraced, "stage_s": stage_s, "layers": out, "spans_file": str(spans_out)}


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=ALL_WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--spans-out", type=Path)
    ap.add_argument("--fault", choices=("flip-payload-byte",))
    args = ap.parse_args(argv)
    if args.fault:
        flip_first_payload_byte()
    work = pipeline.Workload(args.workload, args.seed, golden.load())
    if args.trace:
        result = run_traced(work, args.seconds, args.spans_out)
    else:
        result = run_untraced(work, args.seconds)
    result.update(
        attempted=work.checks.attempted,
        failed=work.checks.failed,
        failures=work.checks.failures,
        counts=work.counts,
        closed_form=work.closed_form,
        verified_bytes=work.verified_bytes(),
        import_s=IMPORT_S,
        numpy=numpy.__version__,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
    )
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
