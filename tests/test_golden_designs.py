"""Golden digests of every design and small schedule the package builds.

For each spec of the ladder below, ``golden_designs.json`` holds the
SHA-256 of the design as ``crdcache construct --format json`` prints it and
its mu profile, or the error the spec raises; and, for every design with
v <= 64 and K <= 5000, the SHA-256 of its schedule as ``crdcache schedule``
prints it (N = K, distinct demands) at every admissible z.  A change to the
constructions, the mu search or the scheduler that alters a single byte
fails here and names the spec.

The file was written once, from the ``src/`` of the commit before the
resolution label matrix, with::

    PYTHONPATH=src:tests python3 -c 'import json, test_golden_designs as g; \\
        print(json.dumps(g.digests(), indent=2, sort_keys=True))' > tests/golden_designs.json
"""

from __future__ import annotations

import hashlib
import json
from functools import cache
from math import comb
from pathlib import Path

import pytest

from crdcache import (
    CrdCacheError,
    build_delivery_schedule,
    build_scheme,
    crd_profile,
    design_to_json,
    from_spec,
    schedule_to_json,
)

GOLDEN_PATH = Path(__file__).resolve().parent / "golden_designs.json"

SPECS = (
    tuple(f"example:{i}" for i in range(1, 10))
    + tuple(f"affine:n={n}" for n in range(2, 33))
    + tuple(
        f"ag:q={q},m={m}"
        for q, m in ((2, 3), (2, 4), (2, 5), (2, 6), (3, 3), (3, 4), (4, 3), (5, 3), (8, 3))
    )
    + tuple(f"hadamard:m={m}" for m in range(1, 33))
)


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


@cache
def _build(spec: str):
    """The spec's resolution and profile, or the error it raises."""
    try:
        res = from_spec(spec)
        return res, crd_profile(res).mu
    except CrdCacheError as exc:
        return exc


def design_entry(spec: str) -> dict:
    built = _build(spec)
    if isinstance(built, CrdCacheError):
        return {"error": f"{type(built).__name__}: {built}"}
    res, mu = built
    return {
        "design_sha256": _sha(json.dumps(design_to_json(res), indent=2) + "\n"),
        "mu": {str(i): value for i, value in mu.items()},
    }


def schedule_entries(spec: str) -> dict[str, str]:
    """Schedule digests by ``"<spec> z=<z>"``, for small designs only."""
    built = _build(spec)
    if isinstance(built, CrdCacheError):
        return {}
    res, mu = built
    out = {}
    for z in [1, *mu]:
        users = comb(res.r, z) * res.b_r**z
        if res.design.v > 64 or users > 5000:
            continue
        schedule = build_delivery_schedule(build_scheme(res, z, users))
        out[f"{spec} z={z}"] = _sha(json.dumps(schedule_to_json(schedule), indent=2) + "\n")
    return out


def digests() -> dict:
    return {
        "designs": {spec: design_entry(spec) for spec in SPECS},
        "schedules": {key: d for spec in SPECS for key, d in schedule_entries(spec).items()},
    }


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN_PATH.read_text())


def test_ladder_is_complete(golden):
    assert list(golden["designs"]) == sorted(SPECS)
    assert len(SPECS) == 81
    assert len(golden["schedules"]) == 66


@pytest.mark.parametrize("spec", SPECS)
def test_design_and_profile(golden, spec):
    assert design_entry(spec) == golden["designs"][spec], spec


@pytest.mark.parametrize("spec", SPECS)
def test_schedules(golden, spec):
    expected = {key: d for key, d in golden["schedules"].items() if key.startswith(f"{spec} z=")}
    assert schedule_entries(spec) == expected, spec
