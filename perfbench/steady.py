"""Repeat the benchmark over several seeds and record how steady it is.

    python3 perfbench/steady.py --label set1 --seeds 1-10

Runs ``run.py`` once per (workload, seed) for every workload in
BENCHMARK.json, one run at a time, untraced and with its ``run_seconds``.
For every end-to-end metric it keeps each run's value, the median, the
quartiles as ``statistics.quantiles(n=4)`` gives them and the spread
(q3 - q1) / median next to the metric's bound; the same, unbounded, for
the body's and the reference task's median seconds, the two sides of
``wall_rel``.  The set is stored under ``--label`` in
``results/steadiness.json`` (other labels are kept), so two sets of the
same code can be compared median to median.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def parse_seeds(text: str) -> list[int]:
    lo, hi = text.split("-")
    return list(range(int(lo), int(hi) + 1))


def summarize(values: list[float], bound: float | None) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {
        "values": values,
        "median": median,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / median,
        "bound": bound,
    }


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--label", required=True)
    ap.add_argument("--seeds", default="1-10", help="a range lo-hi")
    args = ap.parse_args()
    seeds = parse_seeds(args.seeds)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    result = {"seconds": spec["run_seconds"], "seeds": seeds, "workloads": {}}
    for workload in (w["name"] for w in spec["workloads"]):
        runs = []
        for seed in seeds:
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
                   "--seed", str(seed), "--seconds", str(spec["run_seconds"]), "--trace", "0"]
            t0 = time.monotonic()
            out = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=200)
            lines = out.stdout.splitlines()
            env = next((json.loads(line.split(":", 1)[1]) for line in lines
                        if line.strip().startswith("environment:")), {})
            last = json.loads(lines[-1])
            detail = json.loads((ROOT / ".bench_out" / f"{workload}-seed{seed}-trace0.json").read_text())
            runs.append({
                "seed": seed,
                "exit_code": out.returncode,
                "correct": last["correct"],
                "attempted": last["attempted"],
                "failed": last["failed"],
                "run_s": time.monotonic() - t0,
                "load_1m": [env.get("load_1m_start"), env.get("load_1m_end")],
                "metrics": {k: m["value"] for k, m in last["metrics"].items()},
                "wall_s": statistics.median(detail["samples_s"]),
                "reference_s": statistics.median(
                    t for burst in detail["reference_bursts_s"] for t in burst
                ),
            })
            print(f"{workload} seed {seed}: " + " ".join(
                f"{k}={v:.5g}" for k, v in runs[-1]["metrics"].items()
            ) + f" failed={last['failed']} ({runs[-1]['run_s']:.0f} s)", flush=True)
        metrics = {
            name: summarize([r["metrics"][name] for r in runs], bounds[name])
            for name in bounds
        }
        # wall_rel's parts, unbounded: they show how far the host drifted
        for part in ("wall_s", "reference_s"):
            metrics[part] = summarize([r[part] for r in runs], None)
        result["workloads"][workload] = {"runs": runs, "metrics": metrics}
        for name, s in metrics.items():
            print(f"  {workload} {name}: median {s['median']:.5g} q1 {s['q1']:.5g} "
                  f"q3 {s['q3']:.5g} spread {s['spread']:.4f} (bound {s['bound']})", flush=True)
        result["environment"] = env

    out_path = HERE / "results" / "steadiness.json"
    doc = json.loads(out_path.read_text()) if out_path.exists() else {}
    doc[args.label] = result
    out_path.parent.mkdir(parents=True, exist_ok=True)
    out_path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
