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


WRITER_FILES = [path for path in BENCH_FILES if "schedule_cli" in json.loads(path.read_text(encoding="utf-8"))]


@pytest.mark.parametrize("path", WRITER_FILES, ids=lambda p: p.name)
def test_writer_rows_compare_equal_outputs_on_both_sides(path):
    """Where a file times ``crdcache schedule`` on both sides, each row names
    its case and both sides' wall time and traced peak, the two sides printed
    the same bytes, and at affine:n=11 json runs at least 5x faster and text
    faster, both with a lower traced peak.  The far-demand row yields the
    same payloads under 5 MB traced, and the output grid's digest files are
    equal.  The ten pairs keep every metric within its bound, and the
    change lowers sim-users' peak RSS in at least 9 of them, by more than
    the parent's quartile spread."""
    doc = json.loads(path.read_text(encoding="utf-8"))
    rows = doc["schedule_cli"]["rows"]
    assert {(row["spec"], row["format"]) for row in rows} == {
        (f"affine:n={n}", fmt) for n in (5, 7, 9, 11) for fmt in ("json", "text")
    }
    for row in rows:
        assert row["parent"]["output_sha256"] == row["change"]["output_sha256"], row["spec"]
        for side in ("parent", "change"):
            assert {"wall_s", "traced_peak_mb", "peak_rss_mb"} <= set(row[side]), (row["spec"], side)
    big = {row["format"]: row for row in rows if row["spec"] == "affine:n=11"}
    assert big["json"]["parent"]["wall_s"]["median"] >= 5 * big["json"]["change"]["wall_s"]["median"]
    assert big["text"]["change"]["wall_s"]["median"] < big["text"]["parent"]["wall_s"]["median"]
    for fmt in ("json", "text"):
        assert big[fmt]["change"]["traced_peak_mb"] < big[fmt]["parent"]["traced_peak_mb"], fmt
    far = doc["far_demand"]
    assert far["n_files"] == 10**6 and far["change"]["traced_peak_mb"] < 5
    assert far["parent"]["payload_sha256"] == far["change"]["payload_sha256"]
    outputs = doc["outputs"]
    assert outputs["commands"] == 3055 and outputs["parent_digests_sha256"] == outputs["change_digests_sha256"]
    for workload, metrics in doc["summary"].items():
        if workload == "how":
            continue
        for name, row in metrics.items():
            assert row["parent"]["n"] == row["change"]["n"] == 10, (workload, name)
            assert row["verdict"] == "within bound", (workload, name)
    claim = doc["summary"]["sim-users"]["peak_rss_mb"]
    assert int(claim["change_lower_in_pairs"].split("/")[0]) >= 9
    assert claim["change"]["median"] < claim["parent"]["median"]
    assert claim["median_gap_over_parent_quartile_spread"] > 1
