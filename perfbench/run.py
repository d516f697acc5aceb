"""The crdcache benchmark: one command, one workload per fresh process.

    python3 perfbench/run.py --workload sim-users --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1            # every workload
    python3 perfbench/run.py --workload all --seed 1 --trace 1  # the traced run

Untraced (``--trace 0``) it measures ``setup_s`` as the median of several
fresh interpreters that import the package and build the workload's
designs, then starts ``worker.py`` in a fresh single-threaded process that
times the workload's body for ``--seconds``.  ``wall_s``, the median time
of the body, is printed.  The metric ``wall_rel`` is the same time in units
of a fixed pure-Python reference task timed around every step of the body
(see ``reference.py``), so that it moves with the program and not with how
fast the shared host happens to run Python at that moment.  Traced
(``--trace 1``) the worker instead reports the per-layer metrics from an
in-memory span recorder.  Every output is checked; failed checks are counted, printed and
make the exit code 1.  Human-readable lines come first; the last line of
standard output is one JSON object with the metrics named in
BENCHMARK.json.  The full result, with its environment block, is written to
``.bench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
sys.path.insert(0, str(HERE))

from workloads import ALL_WORKLOADS, BENCHMARK_WORKLOADS, setup_specs  # noqa: E402

THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)
# setup_s is the median of this many fresh interpreters, half of them before
# the worker and half after it, so that one run samples the machine at two
# moments; a discarded warm-up first fills the bytecode and page caches.
# analyze's interpreters take about 0.8 s each, the sims' about 0.15 s.
SETUP_RUNS = {"analyze": 14}
SETUP_RUNS_DEFAULT = 24
SETUP_CODE = (
    "import sys, time\n"
    "t0 = time.perf_counter()\n"
    "import crdcache\n"
    "for spec in sys.argv[1:]:\n"
    "    crdcache.from_spec(spec)\n"
    "print(time.perf_counter() - t0)\n"
)
# Everything a run starts must end within the benchmark's 180 s limit.
DEADLINE_S = 170


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.update({name: "1" for name in THREAD_VARS})
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def git_commit() -> str | None:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)),
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def cpu_model() -> str | None:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def load_1m() -> float:
    return os.getloadavg()[0]


def measure_setup(workload: str, runs: int, deadline: float) -> list[float]:
    cmd = [sys.executable, "-c", SETUP_CODE, *setup_specs(workload)]
    times = []
    for _ in range(runs):
        out = subprocess.run(
            cmd, cwd=ROOT, env=child_env(), capture_output=True, text=True,
            timeout=max(1.0, deadline - time.monotonic()), check=True,
        )
        times.append(float(out.stdout.split()[-1]))
    return times


def run_worker(args: argparse.Namespace, workload: str, spans_out: Path,
               deadline: float) -> dict:
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--spans-out", str(spans_out),
    ]
    if args.fault:
        cmd += ["--fault", args.fault]
    out = subprocess.run(
        cmd, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, text=True,
        timeout=max(1.0, deadline - time.monotonic()), check=True,
    )
    return json.loads(out.stdout.splitlines()[-1])


def spread_text(values: list[float]) -> str:
    if len(values) < 2:
        return f"n={len(values)} " + " ".join(f"{v:.6g}" for v in values)
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (f"n={len(values)} median={q2:.6g} q1={q1:.6g} q3={q3:.6g} "
            f"min={min(values):.6g} max={max(values):.6g}")


def run_one(args: argparse.Namespace, workload: str, spec: dict) -> dict:
    """Runs one workload, prints its report and returns its result line."""
    deadline = time.monotonic() + DEADLINE_S
    env_block = {
        "git_commit": git_commit(),
        "seed": args.seed,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "load_1m_start": load_1m(),
        "thread_vars": {name: "1" for name in THREAD_VARS},
        "pythonhashseed": "0",
    }
    setups = []
    setup_runs = SETUP_RUNS.get(workload, SETUP_RUNS_DEFAULT)
    if not args.trace:
        setups = measure_setup(workload, 1 + setup_runs // 2, deadline)[1:]
    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{workload}-seed{args.seed}-trace{args.trace}"
    res = run_worker(args, workload, OUT_DIR / f"spans-{stem}.json", deadline)
    if not args.trace:
        setups += measure_setup(workload, setup_runs - len(setups), deadline)
    env_block["numpy"] = res.pop("numpy")
    env_block["load_1m_end"] = load_1m()

    samples = res["samples_s"]
    if args.trace:
        metrics = {m["name"]: {"value": res["layers"][m["name"]], "unit": m["unit"]}
                   for m in spec["per_layer"]}
    else:
        wall = statistics.median(samples) if samples else float("nan")
        values = {
            "setup_s": statistics.median(setups),
            "wall_rel": statistics.median(res["relative"]),
            "peak_rss_mb": res["peak_rss_mb"],
        }
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                   for m in spec["end_to_end"]}
    attempted, failed = res["attempted"], res["failed"]
    correct = failed == 0 and attempted > 0 and bool(samples)

    print(f"workload {workload}  seed {args.seed}  trace {args.trace}  "
          f"samples {len(samples)}  (worker: one process, thread variables = 1)")
    for name, m in metrics.items():
        print(f"  {name:36s} {m['value']:>14.6g} {m['unit']}")
    if not args.trace:
        print(f"  {'setup_s samples':36s} {spread_text(setups)}")
        print(f"  {'wall_s':36s} {wall:>14.6g} s (median of the samples)")
        print(f"  {'wall_s samples':36s} {spread_text(samples)}")
        refs = [t for burst in res["reference_bursts_s"] for t in burst]
        print(f"  {'reference task ' + res['reference_task']:36s} {spread_text(refs)}")
        print(f"  {'wall_rel samples':36s} {spread_text(res['relative'])}")
        tail = res["wall_tail"]
        tail_text = (f"p{tail[0]} = {tail[1]:.6g} s" if tail
                     else f"n/a (needs >= 11 samples, have {len(samples)})")
        print(f"  {'wall_s tail':36s} {tail_text}")
        if res["verified_bytes"] and samples:
            mbps = res["verified_bytes"] / 1e6 / wall
            print(f"  {'verified_mb_per_s':36s} {mbps:>14.6g} MB/s (K * file_len per wall_s)")
        else:
            print(f"  {'verified_mb_per_s':36s} {'n/a':>14s} (no simulator in this workload)")
    else:
        print(f"  {'untraced wall_s samples':36s} {spread_text(samples)}")
        print(f"  {'traced stage sums':36s} {spread_text(res['stage_s'])}")
        print(f"  {'spans written to':36s} {res['spans_file']}")
    print(f"  {'fail_ratio':36s} {failed}/{attempted} = {failed / max(attempted, 1):.6g} failed/attempted")
    for what in res["failures"]:
        print(f"    FAILED: {what}")
    print(f"  work counts (measured): {json.dumps(res['counts'], sort_keys=True)}")
    if res["closed_form"]:
        print(f"  work counts (closed form): {json.dumps(res['closed_form'], sort_keys=True)}")
    print(f"  environment: {json.dumps(env_block, sort_keys=True)}")

    summary = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    detail = dict(summary, workload=workload, environment=env_block,
                  setup_samples_s=setups, **res)
    (OUT_DIR / f"{stem}.json").write_text(json.dumps(detail, indent=2, sort_keys=True) + "\n")
    return summary


def run_all(args: argparse.Namespace, spec: dict) -> dict:
    """Every benchmark workload, each in its own worker; metrics keyed by workload."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in BENCHMARK_WORKLOADS:
        one = run_one(args, workload, spec)
        merged["correct"] &= one["correct"]
        merged["attempted"] += one["attempted"]
        merged["failed"] += one["failed"]
        for name, m in one["metrics"].items():
            merged["metrics"][f"{workload}.{name}"] = m
    return merged


def main(argv: list[str] | None = None) -> int:
    spec_path = ROOT / "BENCHMARK.json"
    if not (SRC / "crdcache" / "__init__.py").is_file() or not spec_path.is_file():
        print(f"no crdcache sources under {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=ALL_WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--fault", choices=("flip-payload-byte",),
                    help="negative control: corrupt one broadcast byte")
    args = ap.parse_args(argv)
    if args.workload == "all":
        result = run_all(args, spec)
    else:
        result = run_one(args, args.workload, spec)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
