"""The committed benchmark records: every run in a BENCH_*.json file passed
its checks and reports every end-to-end metric the benchmark declares."""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCH_FILES = sorted(ROOT.glob("BENCH_*.json"))


def _end_to_end_names() -> set[str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {f"{w['name']}.{m['name']}" for w in spec["workloads"] for m in spec["end_to_end"]}


def _runs(node, in_benchmark_runs=False):
    """(run, is a full benchmark run) for every object with a ``result``."""
    if isinstance(node, dict):
        if "result" in node:
            yield node, in_benchmark_runs
        for key, value in node.items():
            yield from _runs(value, in_benchmark_runs or key == "benchmark_runs")
    elif isinstance(node, list):
        for item in node:
            yield from _runs(item, in_benchmark_runs)


def test_bench_files_are_committed():
    assert BENCH_FILES


@pytest.mark.parametrize("path", BENCH_FILES, ids=lambda p: p.name)
def test_every_run_passed_and_names_every_metric(path):
    names = _end_to_end_names()
    assert len(names) == 9
    runs = list(_runs(json.loads(path.read_text(encoding="utf-8"))))
    assert any(full for _, full in runs), "no benchmark run recorded"
    for run, full in runs:
        result = run["result"]
        assert result["correct"] is True and result["failed"] == 0, run.get("command")
        if full:
            assert names <= set(result["metrics"]), names - set(result["metrics"])


STAGE_FILES = [
    path for path in BENCH_FILES if "verify_all_stages" in json.loads(path.read_text(encoding="utf-8"))
]


@pytest.mark.parametrize("path", STAGE_FILES, ids=lambda p: p.name)
def test_every_stage_row_names_its_case_and_totals(path):
    """Where a file times verify_all's stages, each row names its case and
    carries the whole call's time and the process peak: from BENCH_11 on as
    the median of repeated calls, in BENCH_7 as one call's ``verify_all_s``."""
    stages = json.loads(path.read_text(encoding="utf-8"))["verify_all_stages"]
    rows = [row for side in ("parent", "change") for row in stages[side]]
    assert rows
    for row in rows:
        _check_stage_row(row, single_call=path.name == "BENCH_7.json")


def _check_stage_row(row: dict, single_call: bool = False) -> None:
    assert {"spec", "z", "K", "T", "peak_rss_mb"} <= set(row), row
    if single_call:
        assert "verify_all_s" in row, row["spec"]
    else:
        assert "verify_all" in row["median_s"], row["spec"]


def _tool(name: str):
    spec = importlib.util.spec_from_file_location(name, ROOT / "tools" / f"{name}.py")
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


def test_stage_tool_writes_rows_in_that_schema(tmp_path):
    """``tools/verify_stages.py`` reads verify_all's own stage record, so its
    rows name exactly the report's stages and keep the schema above; each
    row also carries the per-call gap between the span and the stage sum
    and the traced peak of one more call, both outside ``median_s``."""
    tool = _tool("verify_stages")
    row = tool.measure("example:3", 2, 16, 2)
    out = tmp_path / "BENCH_0.json"
    tool.append_row(out, "change", row)
    assert json.loads(out.read_text(encoding="utf-8"))["verify_all_stages"] == {"parent": [], "change": [row]}
    _check_stage_row(row)
    stages = ["scheme", "schedule", "side_info", "store", "encode", "decode_residual", "report_rest"]
    assert list(row["median_s"]) == [*stages, "verify_all"]
    assert (row["K"], row["T"], row["repeats"]) == (9, 9, 2)
    gap = row["gap_ms"]
    assert list(gap) == ["median", "q1", "q3"] and gap["q1"] <= gap["median"] <= gap["q3"]
    assert 0 <= gap["median"] < 1e3 * row["median_s"]["verify_all"]
    assert 0 < row["traced_peak_mb"] < row["peak_rss_mb"]


def test_output_grid_is_fixed_and_its_digests_repeat(tmp_path):
    """``tools/outputs.py`` builds the 3,055-command grid over the golden
    ladder, digests a command the same way twice, and ``--compare`` names
    exactly the commands whose digests differ or that one side lacks."""
    tool = _tool("outputs")
    golden = json.loads((ROOT / "tests" / "golden_designs.json").read_text(encoding="utf-8"))
    assert sorted(tool.SPECS) == list(golden["designs"])
    grid = tool.commands()
    kinds = {"construct": 486, "analyze": 1296, "table": 211, "sweep": 96, "schedule": 276, "simulate": 690}
    assert len(grid) == 3055 and {k: sum(a[0] == k for a in grid) for k in kinds} == kinds
    assert len({" ".join(argv) for argv in grid}) == len(grid)
    picked = [next(a for a in grid if a[0] == kind) for kind in kinds if kind != "simulate"]
    picked += [a for a in grid if a[:5] == ["simulate", "--design", "example:3", "--z", "2"]]
    one, two = tool.digests(picked), tool.digests(picked)
    assert one == two and one["commands"] == len(picked)
    assert one["exit_codes"]["simulate 0"] == 6 and one["exit_codes"]["simulate 1"] == 4
    paths = tmp_path / "a.json", tmp_path / "b.json"
    other = {**two, "digests": {**two["digests"]}}
    changed = " ".join(picked[1])
    other["digests"][changed] = "0" * 64
    del other["digests"][" ".join(picked[0])]
    paths[0].write_text(json.dumps(one), encoding="utf-8")
    paths[1].write_text(json.dumps(other), encoding="utf-8")
    assert tool.differing(one, other) == [" ".join(picked[0]), changed]
    assert tool.main(["--compare", str(paths[0]), str(paths[0])]) == 0
    assert tool.main(["--compare", *map(str, paths)]) == 1
