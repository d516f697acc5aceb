"""The printed forms of a schedule: ``crdcache schedule``'s json and text and
``simulate --dump-payloads``'s hex lines are written from the columns, and
each equals what ``json.dumps`` and the transmission objects print."""

import json
import tracemalloc

import pytest

from crdcache import caps as caps_module
from crdcache.cli import main
from crdcache.constructions import from_spec
from crdcache.designs import crd_profile, resolution_from_json
from crdcache.scheme import build_delivery_schedule, build_scheme, schedule_text, schedule_to_json
from crdcache.simulator import encode_payloads, make_file_store, payload_hex_dump

from oracles import object_hex_lines, object_schedule_text

WRITER_SPECS = (
    [f"example:{i}" for i in range(1, 10)]
    + [f"affine:n={n}" for n in range(2, 6)]
    + [f"hadamard:m={m}" for m in range(1, 5)]
    + ["ag:q=2,m=4", "ag:q=3,m=3"]
)
# the budget as shipped, and one that splits every schedule above a few rows
BUDGETS = (caps_module.WORK_BYTES, 4096)


def _points():
    for spec in WRITER_SPECS:
        res = from_spec(spec)
        for z in [1, *sorted(crd_profile(res).mu)]:
            yield pytest.param(spec, z, id=f"{spec}-z{z}")


def _demand_cases(n_users: int) -> dict:
    return {
        "distinct": None,
        "equal": [1] * n_users,
        "explicit": [7 * i % n_users + 1 for i in range(n_users)],
    }


def _written(monkeypatch, budget: int, chunks) -> str:
    """The text of a writer's chunks under ``budget``, each chunk checked to
    hold at most that much text."""
    monkeypatch.setattr(caps_module, "WORK_BYTES", budget)
    chunks = list(chunks)
    assert max(map(len, chunks), default=0) <= budget
    return "".join(chunks)


@pytest.mark.parametrize("spec, z", list(_points()))
def test_writers_equal_json_dumps_and_the_objects(monkeypatch, spec, z):
    """At every admissible z and with distinct, equal and explicit demands:
    the json is ``json.dumps(schedule_to_json(s), indent=2)`` plus a newline,
    the text and the hex lines are those written from ``transmissions``, and
    no chunk outgrows ``WORK_BYTES``."""
    res = from_spec(spec)
    n_users = build_scheme(res, z, 1).n_users
    for name, demands in _demand_cases(n_users).items():
        schedule = build_delivery_schedule(build_scheme(res, z, n_users), demands)
        store = make_file_store(n_users, 24, 3)
        payloads = encode_payloads(schedule, store)
        expected = (
            json.dumps(schedule_to_json(schedule), indent=2) + "\n",
            object_schedule_text(schedule),
            "\n".join(object_hex_lines(schedule, payloads)),
        )
        for budget in BUDGETS:
            got = (
                _written(monkeypatch, budget, schedule_text(schedule, "json")),
                _written(monkeypatch, budget, schedule_text(schedule, "text")),
                _written(monkeypatch, budget, payload_hex_dump(schedule, payloads)),
            )
            assert got == expected, (name, budget)


@pytest.mark.parametrize("z", [1, 2])
def test_a_schedule_with_no_transmissions(tmp_path, capsys, z):
    """b_r = 1 leaves no pair to send: the json lists no transmission, the
    text is its header line and the hex dump prints one empty line."""
    doc = {"v": 2, "blocks": [[1, 2], [1, 2]], "classes": [[1], [2]]}
    path = tmp_path / "design.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    scheme = build_scheme(resolution_from_json(doc), z, 1)
    schedule = build_delivery_schedule(scheme, [1] * scheme.n_users)
    text = "".join(schedule_text(schedule, "json"))
    assert text == json.dumps(schedule_to_json(schedule), indent=2) + "\n"
    assert '"transmissions": []' in text
    assert "".join(schedule_text(schedule, "text")) == object_schedule_text(schedule)
    assert "".join(payload_hex_dump(schedule, encode_payloads(schedule, make_file_store(1, 8)))) == ""
    base = ["--design", str(path), "--z", str(z), "--files", "1", "--demands", "equal"]
    for fmt in ("json", "text"):
        assert main(["schedule", *base, "--format", fmt]) == 0
        assert capsys.readouterr().out == "".join(schedule_text(schedule, fmt))
    assert main(["simulate", *base, "--len", "8", "--dump-payloads"]) == 0
    assert capsys.readouterr().out.startswith("\nuser ")


@pytest.mark.parametrize("fmt", ["json", "text"])
def test_cli_writes_the_same_chunks_to_out_and_stdout(monkeypatch, tmp_path, capsys, fmt):
    monkeypatch.setattr(caps_module, "WORK_BYTES", 4096)
    argv = ["schedule", "--design", "affine:n=5", "--z", "2", "--files", "375", "--format", fmt]
    assert main(argv) == 0
    out = capsys.readouterr().out
    path = tmp_path / f"schedule.{fmt}"
    assert main([*argv, "--out", str(path)]) == 0
    assert capsys.readouterr().out == ""
    assert path.read_text(encoding="utf-8") == out
    schedule = build_delivery_schedule(build_scheme(from_spec("affine:n=5"), 2, 375))
    assert len(list(schedule_text(schedule, fmt))) > 3  # written in several chunks


def test_schedule_to_json_builds_no_transmission_objects():
    """``schedule_to_json`` reads the columns: it caches no ``transmissions``
    on the schedule, and at affine:n=7 z=2 (T = 12,348) its traced peak stays
    under 1,900 bytes a row.  The dict it returns holds about 1,410 bytes a
    row and its build adds the columns' lists; building the objects first
    peaked at 2,180 bytes a row and kept them on the schedule."""
    res = from_spec("affine:n=7")
    schedule = build_delivery_schedule(build_scheme(res, 2, 10**6))
    schedule_to_json(build_delivery_schedule(build_scheme(from_spec("example:3"), 2, 9)))  # warm-up
    tracemalloc.start()
    try:
        obj = schedule_to_json(schedule)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    n_rows = len(schedule.users)
    assert n_rows == 12348 and len(obj["transmissions"]) == n_rows
    assert "transmissions" not in schedule.__dict__
    assert peak < 1900 * n_rows, peak / n_rows
