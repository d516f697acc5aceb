"""Check that the tests catch the faults the checks exist for.

Each entry of ``MUTANTS`` names a source file, an exact piece of its text,
the text that replaces it and the tests to run.  The script copies
``src/``, ``tests/`` and ``pyproject.toml`` into a temporary directory,
runs the entries' tests there once unmutated (they must pass), then
applies each entry in turn, runs its tests with ``pytest -x`` and puts the
file back.  A mutant is caught when its tests fail or time out, and
survives when they pass.  Every anchor must occur exactly once in its
file, checked before anything runs, so the list keeps up with refactors.

    python tools/mutants.py

It needs only the standard library and the test suite's own dependencies.
The exit code is 0 when every mutant is caught, 1 when one survives and 2
when an anchor is missing or the unmutated tests fail.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
TIMEOUT_S = 600  # per pytest run; a mutant that hangs counts as caught


class Mutant(NamedTuple):
    name: str
    file: str  # relative to the repository root
    old: str
    new: str
    tests: tuple[str, ...]  # pytest node ids


SIM = "src/crdcache/simulator.py"
SCHEME = "src/crdcache/scheme.py"
PASS = "tests/test_simulator.py::TestTransmissionPass"
FAULTS = "tests/test_simulator.py::TestDecoderFaults"
CLOSED = "tests/test_closed_forms.py"
GOLDEN_TABLES = "tests/test_golden_tables.py"
DESIGNS = "src/crdcache/designs.py"
CONSTRUCTIONS = "src/crdcache/constructions.py"
LABELS = "tests/test_labels.py::TestLabelSearch"
POINT_CAP = "tests/test_constructions.py::TestErrors::test_point_cap"

MUTANTS = (
    Mutant(
        "membership rows unmarked",
        SIM,
        "            doubtful = ~held.all(axis=0)\n",
        "            doubtful = np.zeros(held.shape[1], dtype=bool)\n",
        (PASS,),
    ),
    Mutant(
        "odd rows unmarked",
        SIM,
        "            doubtful[odd] = True\n",
        "",
        (PASS,),
    ),
    Mutant(
        "coverage gaps unmarked",
        SIM,
        "    unsure |= ((readable | got.T) != everything).any(axis=0)\n",
        "",
        (PASS,),
    ),
    Mutant(
        "received sum never redone as an OR",
        SIM,
        "    for scatter in np.add.at, np.bitwise_or.at:\n",
        "    for scatter in (np.add.at,):\n",
        (PASS,),
    ),
    Mutant(
        "marked users walked in descending id order",
        SIM,
        "    for user in np.flatnonzero(unsure).tolist():\n",
        "    for user in np.flatnonzero(unsure)[::-1].tolist():\n",
        (PASS,),
    ),
    Mutant(
        "strippable check skipped in _reach",
        SIM,
        "    if not strippable.all():\n",
        "    if False:\n",
        (FAULTS, PASS),
    ),
    Mutant(
        "residual participants unmarked",
        SIM,
        "        wrong[schedule.users[rows][resid.any(axis=1)]] = True\n",
        "",
        (FAULTS,),
    ),
    Mutant(
        "decode_user takes any user index",
        SIM,
        "    if not 0 <= user_idx < n_users:\n",
        "    if False:\n",
        (FAULTS,),
    ),
    Mutant(
        "decode_user takes any demand",
        SIM,
        "    if demand != schedule.demands[user_idx]:\n",
        "    if False:\n",
        (FAULTS,),
    ),
    Mutant(
        "Sylvester labels by popcount, not its parity",
        CONSTRUCTIONS,
        "np.bitwise_and(np.bitwise_count(both), 1, out=labels[rows], casting=\"unsafe\")",
        "np.copyto(labels[rows], np.bitwise_count(both), casting=\"unsafe\")",
        (f"{CLOSED}::test_parity_labels_equal_the_kronecker_matrix",),
    ),
    Mutant(
        "inclusion-exclusion sign flipped",
        SCHEME,
        "        union += (-1) ** (t + 1) * comb(z, t) * mu[t]\n",
        "        union += (-1) ** t * comb(z, t) * mu[t]\n",
        ("tests/test_scheme.py::TestMemoryFraction", CLOSED),
    ),
    Mutant(
        "MaN rate without its 1 + t",
        "src/crdcache/baselines.py",
        "        rate=Fraction(users * (b - a), b * (1 + t)),\n",
        "        rate=Fraction(users * (b - a), b),\n",
        ("tests/test_baselines.py::TestManPoint", CLOSED),
    ),
    Mutant(
        "term keys one past the subfile",
        SCHEME,
        "        keys -= 1\n",
        "",
        ("tests/test_scheme.py::TestSchedule::test_term_keys_are_the_flat_subfile_keys",),
    ),
    Mutant(
        "uneven label rows accepted",
        CONSTRUCTIONS,
        "        if uneven.any():\n",
        "        if False:\n",
        ("tests/test_constructions.py::TestFromLabels",),
    ),
    Mutant(
        "schedule's intersection sizes unchecked",
        SCHEME,
        "        if (sizes != mu_z).any():\n",
        "        if False:\n",
        ("tests/test_scheme.py::TestSchedule",),
    ),
    Mutant(
        "family cells read mu2 at z = 1",
        SCHEME,
        "transmission_count(r, b_r, z, k if z == 1 else mu[z])",
        "transmission_count(r, b_r, z, mu[max(z, 2)])",
        (GOLDEN_TABLES,),
    ),
    Mutant(
        "transmission_count without C(r, z)",
        SCHEME,
        "    return mu_z * comb(b_r, 2) ** z * comb(r, z)\n",
        "    return mu_z * comb(b_r, 2) ** z\n",
        (GOLDEN_TABLES,),
    ),
    Mutant(
        "every class subset in one schedule block",
        SCHEME,
        "    for rows in row_chunks(n_subsets if n_choices else 0, per_subset):\n",
        "    for rows in [slice(0, n_subsets if n_choices else 0)]:\n",
        ("tests/test_scheme.py::TestSchedule::test_subset_blocks_stay_within_the_budget",),
    ),
    Mutant(
        "rows that do not ascend never recomputed",
        SIM,
        "        if len(odd):\n            named, held = users[:, odd], sets[:, :, odd]\n",
        "        if False:\n            named, held = users[:, odd], sets[:, :, odd]\n",
        (PASS,),
    ),
    Mutant(
        "membership bit past the first word without the side-information AND",
        SIM,
        "            held |= np.take(point_bits[w], points) & direct[w]\n",
        "            held |= np.take(point_bits[w], points)\n",
        (PASS,),
    ),
    Mutant(
        "hadamard_crd keeps h alive",
        CONSTRUCTIONS,
        "    labels = h[1:] == -1\n    del h\n",
        "    labels = h[1:] == -1\n",
        ("tests/test_constructions.py::test_hadamard_build_drops_its_matrix_before_sorting_the_labels",),
    ),
    Mutant(
        "_xor_gather gathers a whole column",
        SIM,
        "    step = max(1, _caps.CACHE_BYTES // max(1, table.shape[1]))\n",
        "    step = max(1, len(acc))\n",
        ("tests/test_simulator.py::TestEndToEnd::test_gather_chunk_bounds_the_encoder",),
    ),
    Mutant(
        "store made after the schedule",
        SIM,
        '    store = make_file_store(n_files, file_len, seed)\n    lap("store")\n'
        "    schedule = _build_schedule(scheme, demands)\n",
        "    schedule = _build_schedule(scheme, demands)\n"
        '    store = make_file_store(n_files, file_len, seed)\n    lap("store")\n',
        ("tests/test_simulator.py::TestStageRecord",),
    ),
    Mutant(
        "mu search does not raise when the cap cuts an order",
        DESIGNS,
        "    if admitted < subsets:\n",
        "    if False:\n",
        (f"{LABELS}::test_small_caps", f"{LABELS}::test_negative_cap_raises"),
    ),
    Mutant(
        "mu search decides an order from its first block only",
        DESIGNS,
        "        count -= n\n",
        "        count = 0\n",
        (LABELS,),
    ),
    Mutant(
        "times-x map without the modulus fold",
        "src/crdcache/gf.py",
        "        times_x = add[scaled[1] % p ** (e - 1) * p, scaled[scaled[1] // p ** (e - 1), fold]]\n",
        "        times_x = scaled[1] % p ** (e - 1) * p\n",
        ("tests/test_field_tables.py::test_tables_match_digit_arithmetic",),
    ),
    Mutant(
        "affine_geometry_bibd without its point cap",
        CONSTRUCTIONS,
        '    if v > caps.max_points:\n        raise SizeCapExceeded(f"{v} points exceed the cap of {caps.max_points}")\n',
        "",
        (POINT_CAP,),
    ),
    Mutant(
        "hadamard_crd without its point cap",
        CONSTRUCTIONS,
        '    if order > caps.max_points:\n        raise SizeCapExceeded(f"{order} points exceed the cap of {caps.max_points}")\n',
        "",
        (POINT_CAP,),
    ),
    Mutant(
        "GF without its point cap",
        "src/crdcache/gf.py",
        '        if q > caps.max_points:\n            raise SizeCapExceeded(f"GF({q}) exceeds the point cap {caps.max_points}")\n',
        "",
        ("tests/test_gf.py",),
    ),
    Mutant(
        "affine_geometry_bibd without its dimension check",
        CONSTRUCTIONS,
        "    if m >= caps.max_points.bit_length():\n",
        "    if False:\n",
        ("tests/test_constructions.py::TestErrors::test_huge_dimension_is_refused_before_forming_the_power",),
    ),
    Mutant(
        "label fill writes every chunk at row 0",
        CONSTRUCTIONS,
        "        labels[rows] = part\n",
        "        labels[: len(part)] = part\n",
        ("tests/test_field_tables.py::test_label_fill_matches_per_point_dot_products",),
    ),
    Mutant(
        "label fill chunks bounded by WORK_BYTES alone",
        CONSTRUCTIONS,
        "    step = max(1, min(_caps.WORK_BYTES, _caps.CACHE_BYTES) // (12 * v))\n",
        "    step = max(1, _caps.WORK_BYTES // (12 * v))\n",
        ("tests/test_field_tables.py::test_label_fill_stays_within_the_cache_budget",),
    ),
    Mutant(
        "table text pads the last column",
        "src/crdcache/render.py",
        'zip(columns[:-1], widths)]\n    header, *rows = map("  ".join, zip(*padded, columns[-1]))\n',
        'zip(columns, widths)]\n    header, *rows = map("  ".join, zip(*padded))\n',
        ("tests/test_closed_forms.py::test_table_text_equals_the_rowwise_renderer",),
    ),
    Mutant(
        "caps.WORK_BYTES set to 1 GiB",
        "src/crdcache/caps.py",
        "WORK_BYTES = 1 << 22\n",
        "WORK_BYTES = 1 << 30\n",
        (
            "tests/test_designs.py::TestGramSearch::test_default_tile_bytes_bound_the_working_set",
            "tests/test_constructions.py::TestFromLabels::test_default_budget_bounds_the_working_set",
            "tests/test_scheme.py::TestSchedule::test_default_budget_bounds_the_term_keys",
        ),
    ),
)


def check_anchors(mutants: tuple[Mutant, ...]) -> list[str]:
    """One problem line per anchor that does not occur exactly once."""
    problems = []
    for m in mutants:
        count = (ROOT / m.file).read_text(encoding="utf-8").count(m.old)
        if count != 1:
            problems.append(f"{m.name}: anchor occurs {count} times in {m.file}")
    return problems


def run_tests(tree: Path, tests: tuple[str, ...]) -> int | None:
    """pytest's exit code on ``tests`` in ``tree``, or None on a timeout."""
    command = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *tests]
    env = {**os.environ, "PYTHONPATH": str(tree / "src")}
    try:
        return subprocess.run(command, cwd=tree, env=env, capture_output=True, timeout=TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        return None


def main() -> int:
    mutants = MUTANTS
    problems = check_anchors(mutants)
    if problems:
        print("\n".join(problems), file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory(prefix="mutants-") as tmp:
        tree = Path(tmp)
        ignore = shutil.ignore_patterns("__pycache__", ".hypothesis", "*.egg-info")
        for name in ("src", "tests"):
            shutil.copytree(ROOT / name, tree / name, ignore=ignore)
        shutil.copy2(ROOT / "pyproject.toml", tree)
        selection = tuple(dict.fromkeys(t for m in mutants for t in m.tests))
        if run_tests(tree, selection) != 0:
            print(f"the unmutated tests do not pass: {' '.join(selection)}", file=sys.stderr)
            return 2
        survived = 0
        for m in mutants:
            path = tree / m.file
            original = path.read_text(encoding="utf-8")
            path.write_text(original.replace(m.old, m.new), encoding="utf-8")
            start = time.perf_counter()
            try:
                code = run_tests(tree, m.tests)
            finally:
                path.write_text(original, encoding="utf-8")
            verdict = "survived" if code == 0 else "caught"
            survived += code == 0
            how = "timeout" if code is None else f"exit {code}"
            print(f"{verdict:8}  {time.perf_counter() - start:6.1f} s  {how:7}  {m.name}", flush=True)
    print(f"{len(mutants) - survived} of {len(mutants)} caught")
    return 1 if survived else 0


if __name__ == "__main__":
    sys.exit(main())
