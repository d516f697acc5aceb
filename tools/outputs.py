"""Digest every CLI output of a fixed command grid, or compare two digests.

The grid is built from the spec table below: the 81 golden-ladder specs
(``tests/golden_designs.json``), the family tables, the sweeps, and the
schedule and simulate pairs with their rejected inputs.

- construct: each spec as text and json, under ``--cap-points 64`` and
  under ``--cap-intersections 5000``, as text and json.
- analyze: each spec at z = 1..4 as text, json and csv, and as text
  under ``--cap-intersections 5000``.
- table: ``zsweep`` on each spec as text and csv; ``examples-man`` and
  ``examples-spe`` as text, json and csv; ``affine-man`` and
  ``affine-z1`` at n = 2..12, ``hadamard-man`` at m = 1..11 and
  ``ag-man`` at ten (q, m).
- sweep: the affine and Hadamard families over the analyze values and
  over 2..40 (1..40), and ag at q in 2,3,4,5,7,8,9 with each m = 2..5.
  Each runs at z = 1..4 with no cap, ``--cap-points 100`` and
  ``--cap-intersections 10000``.
- schedule and simulate: every (spec, z) of a spec that builds with
  v <= 64, at z = 1 and every z of its mu profile, with N = K files.
  Demands are distinct, or the explicit vector ``(7 i mod K) + 1`` for
  i = 0..K-1.  schedule runs as text and json; simulate
  (``--len 24 --seed 3``) as text, json and ``--dump-payloads``.  Each
  pair also gets four rejected simulate inputs: ``--len 0``, K - 1
  demands, a demand of K + 1, and N = K - 1 files with distinct demands.

That is 3,055 commands.  Each runs through ``crdcache.cli.main`` in this
process; the digest is the SHA-256 of its exit code, stdout and stderr.
The script runs whichever ``crdcache`` is importable, so two trees are
compared by running it under each tree's ``PYTHONPATH``:

    PYTHONPATH=src python tools/outputs.py --out digests.json
    python tools/outputs.py --compare parent.json change.json

``--compare`` prints each command whose digest differs or that only one
file has, and exits 1 if there is one.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import sys
from collections import Counter
from math import comb
from pathlib import Path

SPECS = (
    tuple(f"example:{i}" for i in range(1, 10))
    + tuple(f"affine:n={n}" for n in range(2, 33))
    + tuple(
        f"ag:q={q},m={m}"
        for q, m in ((2, 3), (2, 4), (2, 5), (2, 6), (3, 3), (3, 4), (4, 3), (5, 3), (8, 3))
    )
    + tuple(f"hadamard:m={m}" for m in range(1, 33))
)
AG_MAN = ((2, 3), (2, 4), (3, 3), (4, 3), (5, 3), (2, 5), (3, 4), (8, 3), (2, 6), (7, 3))
SWEEPS = (
    ("affine", "2,3,4,5,7,8,9,11,13,16,25,27", None),
    ("affine", ",".join(map(str, range(2, 41))), None),
    ("hadamard", "1,2,3,4,5,6,7,8,16", None),
    ("hadamard", ",".join(map(str, range(1, 41))), None),
    *(("ag", "2,3,4,5,7,8,9", m) for m in range(2, 6)),
)
CAPS = ((), ("--cap-points", "100"), ("--cap-intersections", "10000"))


def sim_pairs() -> list[tuple[str, int, int]]:
    """(spec, z, K) of every spec that builds with v <= 64, at z = 1 and
    every z of its mu profile."""
    from crdcache import CrdCacheError, crd_profile, from_spec

    pairs = []
    for spec in SPECS:
        try:
            res = from_spec(spec)
            mu = crd_profile(res).mu
        except CrdCacheError:
            continue
        if res.design.v <= 64:
            pairs += [(spec, z, comb(res.r, z) * res.b_r**z) for z in [1, *sorted(mu)]]
    return pairs


def commands() -> list[list[str]]:
    """The grid's argv lists, in a fixed order."""
    grid = []
    for spec in SPECS:
        for caps in ((), ("--cap-points", "64"), ("--cap-intersections", "5000")):
            grid += [["construct", "--design", spec, "--format", fmt, *caps] for fmt in ("text", "json")]
    for spec in SPECS:
        for z in range(1, 5):
            base = ["analyze", "--design", spec, "--z", str(z)]
            grid += [[*base, "--format", fmt] for fmt in ("text", "json", "csv")]
            grid.append([*base, "--format", "text", "--cap-intersections", "5000"])
    for spec in SPECS:
        grid += [["table", "--name", f"zsweep:{spec}", "--format", fmt] for fmt in ("text", "csv")]
    for name in ("examples-man", "examples-spe"):
        grid += [["table", "--name", name, "--format", fmt] for fmt in ("text", "json", "csv")]
    grid += [["table", "--name", f"{name}:n={n}"] for name in ("affine-man", "affine-z1") for n in range(2, 13)]
    grid += [["table", "--name", f"hadamard-man:m={m}"] for m in range(1, 12)]
    grid += [["table", "--name", f"ag-man:q={q},m={m}"] for q, m in AG_MAN]
    for family, values, m in SWEEPS:
        fixed = () if m is None else ("--m", str(m))
        for z in range(1, 5):
            grid += [["sweep", "--family", family, "--values", values, "--z", str(z), *fixed, *caps] for caps in CAPS]
    for spec, z, users in sim_pairs():
        base = ["--design", spec, "--z", str(z)]
        explicit = ",".join(str(7 * i % users + 1) for i in range(users))
        for demands in ("distinct", explicit):
            files = ["--files", str(users), "--demands", demands]
            grid += [["schedule", *base, *files, "--format", fmt] for fmt in ("text", "json")]
            sim = ["simulate", *base, *files, "--len", "24", "--seed", "3"]
            grid += [[*sim, "--format", "text"], [*sim, "--format", "json"], [*sim, "--dump-payloads"]]
        sim = ["simulate", *base, "--seed", "3"]
        grid += [
            [*sim, "--files", str(users), "--len", "0"],
            [*sim, "--files", str(users), "--len", "24", "--demands", ",".join(["1"] * (users - 1))],
            [*sim, "--files", str(users), "--len", "24", "--demands", ",".join(["1"] * (users - 1) + [str(users + 1)])],
            [*sim, "--files", str(users - 1), "--len", "24"],
        ]
    return grid


def run(argv: list[str]) -> tuple[int, str, str]:
    """(exit code, stdout, stderr) of one command through ``cli.main``."""
    from crdcache import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse refusing its arguments
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception as exc:  # a traceback in a separate process
            code = 1
            err.write(f"uncaught {type(exc).__name__}: {exc}\n")
    return code, out.getvalue(), err.getvalue()


def digest(code: int, out: str, err: str) -> str:
    sha = hashlib.sha256()
    for part in (str(code), out, err):
        data = part.encode()
        sha.update(len(data).to_bytes(8, "big"))
        sha.update(data)
    return sha.hexdigest()


def digests(grid: list[list[str]]) -> dict:
    found, codes = {}, Counter()
    for argv in grid:
        code, out, err = run(argv)
        found[" ".join(argv)] = digest(code, out, err)
        codes[f"{argv[0]} {code}"] += 1
    return {
        "commands": len(grid),
        "kinds": dict(Counter(argv[0] for argv in grid)),
        "exit_codes": dict(sorted(codes.items())),
        "digests": found,
    }


def differing(one: dict, two: dict) -> list[str]:
    """The commands whose digests differ or that only one side ran."""
    a, b = one["digests"], two["digests"]
    return [cmd for cmd in dict.fromkeys([*a, *b]) if a.get(cmd) != b.get(cmd)]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", type=Path, help="write the digests here instead of stdout")
    parser.add_argument("--compare", nargs=2, type=Path, metavar=("A", "B"))
    args = parser.parse_args(argv)
    if args.compare:
        one, two = (json.loads(path.read_text(encoding="utf-8")) for path in args.compare)
        diff = differing(one, two)
        for cmd in diff:
            print(cmd)
        print(f"{len(diff)} of {len(set(one['digests']) | set(two['digests']))} commands differ", file=sys.stderr)
        return 1 if diff else 0
    text = json.dumps(digests(commands()), indent=2) + "\n"
    if args.out is None:
        sys.stdout.write(text)
    else:
        args.out.write_text(text, encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
