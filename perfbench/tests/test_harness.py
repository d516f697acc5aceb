"""Smoke runs of the whole harness, its negative control and its refusal to
run without the package's sources.  Each run takes a few seconds."""

import json
import shutil
import subprocess
import sys
from pathlib import Path
from statistics import fmean

import pytest

from pipeline import tail_percentile
from reference import Pacer

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(*args, cwd=ROOT):
    cmd = [sys.executable, str(cwd / "perfbench" / "run.py"), *args]
    out = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)
    lines = out.stdout.splitlines()
    return out.returncode, lines, out.stderr


def _smoke(trace, *extra):
    code, lines, err = _run("--workload", "smoke", "--seed", "5", "--seconds", "1",
                            "--trace", str(trace), *extra)
    return code, lines, json.loads(lines[-1]), err


def test_smoke_untraced_reports_every_end_to_end_metric():
    code, lines, result, err = _smoke(0)
    assert code == 0, err
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert [(k, m["unit"]) for k, m in result["metrics"].items()] == [
        (m["name"], m["unit"]) for m in SPEC["end_to_end"]
    ]
    assert all(m["value"] > 0 for m in result["metrics"].values())
    text = "\n".join(lines)
    for name in ("verified_mb_per_s", "fail_ratio", "environment", "work counts"):
        assert name in text


def test_smoke_traced_reports_every_per_layer_metric():
    code, _, result, err = _smoke(1)
    assert code == 0, err
    assert result["correct"] and result["failed"] == 0
    assert list(result["metrics"]) == [m["name"] for m in SPEC["per_layer"]]
    m = {k: v["value"] for k, v in result["metrics"].items()}
    # example:3 z=2 and example:9 z=4 together: T = 9 + 1, terms = 9*4 + 1*16
    assert m["scheme.transmissions"] == 10
    assert m["scheme.terms"] == 52
    assert m["simulator.air_subfiles"] == 9 * 4 + 16 * 1
    assert m["simulator.decode_s"] > 0 and m["baselines.sweep_s"] == 0


def test_flipped_payload_byte_fails_the_run():
    code, lines, result, _ = _smoke(0, "--fault", "flip-payload-byte")
    assert code != 0
    assert not result["correct"] and result["failed"] > 0
    assert any("FAILED" in line and "bytes differ" in line for line in lines)
    assert any("payload_sha256 differs" in line for line in lines)


def test_refuses_to_run_without_the_package_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    code, lines, err = _run("--workload", "sim-users", "--seed", "1", "--seconds", "1",
                            "--trace", "0", cwd=tmp_path)
    assert code != 0
    assert not any(line.startswith("{") for line in lines)
    assert "crdcache" in err


@pytest.mark.parametrize("n, pct, rank", [(5, 100, 5), (11, 9, 1), (20, 50, 10), (1372, 99, 1359)])
def test_tail_percentile_leaves_at_least_ten_samples_beyond(n, pct, rank):
    values = [float(i) for i in range(1, n + 1)]
    got_pct, value = tail_percentile(values)
    assert (got_pct, value) == (pct, float(rank))
    assert n <= 10 or sum(v > value for v in values) >= 10


def test_pacer_divides_each_step_by_the_bursts_around_it():
    pacer = Pacer(lambda: sum(range(1000)))
    rel = [pacer.step(dt) for dt in (0.002, 0.001)]
    b = pacer.bursts
    assert len(b) == 3 and all(b)
    assert rel == [0.002 / fmean(b[0] + b[1]), 0.001 / fmean(b[1] + b[2])]
