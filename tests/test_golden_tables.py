"""Golden digests of the four formula tables ``crdcache table --name`` prints.

For each table name of the grid below, ``golden_tables.json`` holds the
SHA-256 of the exit code, standard output and standard error of
``crdcache table --name <name> --format <fmt>`` in text, json and csv, so
the error lines of the names outside a family's range or past the size cap
are pinned as well as the tables.  A change to the formula cells, the MaN
point or the rendering that alters a single byte fails here and names the
table.

The file was written once, from the ``src/`` of the commit before the
family tables were built from the scheme's closed forms, with::

    PYTHONPATH=src:tests python3 -c 'import json, test_golden_tables as g; \\
        print(json.dumps(g.digests(), indent=2, sort_keys=True))' > tests/golden_tables.json
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
from pathlib import Path

import pytest

from crdcache.cli import main

GOLDEN_PATH = Path(__file__).resolve().parent / "golden_tables.json"
FORMATS = ("text", "json", "csv")

NAMES = (
    tuple(f"affine-man:n={n}" for n in range(41))
    + tuple(f"affine-z1:n={n}" for n in range(41))
    + tuple(f"hadamard-man:m={m}" for m in range(41))
    + tuple(f"ag-man:q={q},m={m}" for q in range(1, 10) for m in range(1, 7))
    + ("ag-man:q=2,m=100000",)
)


def run_table(name: str, fmt: str) -> tuple[int, str, str]:
    """(exit code, stdout, stderr) of one ``crdcache table`` call, in process."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["table", "--name", name, "--format", fmt])
    return code, out.getvalue(), err.getvalue()


def table_digest(name: str, fmt: str) -> str:
    code, out, err = run_table(name, fmt)
    return hashlib.sha256(f"{code}\n{out}\0{err}".encode()).hexdigest()


def digests() -> dict[str, dict[str, str]]:
    return {name: {fmt: table_digest(name, fmt) for fmt in FORMATS} for name in NAMES}


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN_PATH.read_text())


@pytest.fixture(autouse=True)
def _default_caps(monkeypatch):
    monkeypatch.delenv("CRD_CACHE_CAPS", raising=False)


def test_grid_is_complete(golden):
    assert list(golden) == sorted(NAMES)
    assert len(NAMES) == 3 * 41 + 9 * 6 + 1


@pytest.mark.parametrize("name", NAMES)
def test_table(golden, name):
    assert {fmt: table_digest(name, fmt) for fmt in FORMATS} == golden[name], name
