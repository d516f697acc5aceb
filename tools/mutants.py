"""Check that the tests catch the faults the checks exist for.

Each entry of ``MUTANTS`` names a source file, an exact piece of its text,
the text that replaces it and the tests to run.  The script copies
``src/``, ``tests/``, ``pyproject.toml`` and ``README.md`` (which a CLI
test reads) into a temporary directory, runs the entries' tests there
once unmutated (they must pass), then applies each entry in turn, runs
its tests with ``pytest -x`` and puts the file back.  A mutant is caught
when its tests fail or time out, and survives when they pass.  Every
anchor must occur exactly once in its file, checked before anything runs,
so the list keeps up with refactors.

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
BASELINES = "src/crdcache/baselines.py"
PASS = "tests/test_simulator.py::TestTransmissionPass"
FAULTS = "tests/test_simulator.py::TestDecoderFaults"
CLOSED = "tests/test_closed_forms.py"
GOLDEN_TABLES = "tests/test_golden_tables.py"
DESIGNS = "src/crdcache/designs.py"
CONSTRUCTIONS = "src/crdcache/constructions.py"
LABELS = "tests/test_labels.py::TestLabelSearch"
POINT_CAP = "tests/test_constructions.py::TestErrors::test_point_cap"
WRITERS = "tests/test_writers.py::test_writers_equal_json_dumps_and_the_objects"
FAMILY_RANGE = "tests/test_baselines.py::TestFamilyParameters::test_out_of_range_is_a_typed_error"

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
        "        wrong[schedule.users[rows][unequal]] = True\n",
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
        BASELINES,
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
        "Payloads writes without copying",
        SIM,
        "        if not self.rows.flags.writeable:\n            self.rows = self.rows.copy()\n",
        "",
        ("tests/test_simulator.py::TestPayloads::test_a_write_copies_the_rows_and_fails_only_that_row",),
    ),
    Mutant(
        "store sifts a library that fits one stream chunk",
        SIM,
        "            table = self.library(v)  # one stream chunk: cheaper whole than sifted\n",
        "            pass\n",
        ("tests/test_simulator.py::TestFileStore::test_coded_rows_xor_the_randbytes_subfiles",),
    ),
    Mutant(
        "stream XOR drops a file's last partial word",
        SIM,
        "        lo, hi = 4 * start, min(4 * (start + raw.shape[1]), file_len)\n",
        "        lo, hi = 4 * start, min(4 * (start + raw.shape[1]), file_len // 4 * 4)\n",
        ("tests/test_simulator.py::TestFileStore::test_coded_rows_stream_crosses_the_default_chunk",),
    ),
    Mutant(
        "stream XOR applies every copy of a subfile a row names twice",
        SIM,
        "    if repeat.any():\n",
        "    if False:\n",
        ("tests/test_simulator.py::TestFileStore::test_spanning_rows_keep_the_parity_of_a_repeated_subfile",),
    ),
    Mutant(
        "store streams every file up to N",
        SIM,
        "            files = schedule.demanded_files()\n",
        "            files = np.arange(self.n_files)\n",
        ("tests/test_simulator.py::TestStreamStops::test_a_huge_library_streams_only_the_demanded_files",),
    ),
    Mutant(
        "store sizes its sift mask by the last demanded file",
        SIM,
        "            files = schedule.demanded_files()\n",
        "            files = np.arange(schedule.demanded_files()[-1] + 1)\n",
        ("tests/test_simulator.py::TestStreamStops::test_a_far_demand_keeps_no_array_over_the_files_before_it",),
    ),
    Mutant(
        "json row template swaps a term's user and subfile keys",
        SCHEME,
        '"terms": [{"user": -1, "subfile": -1}] * gain}',
        '"terms": [{"subfile": -1, "user": -1}] * gain}',
        (WRITERS,),
    ),
    Mutant(
        "text rows put the label before the row number",
        SCHEME,
        "np.hstack([number, _label_fields(schedule, rows), _term_fields(schedule, rows)])",
        "np.hstack([_label_fields(schedule, rows), number, _term_fields(schedule, rows)])",
        (WRITERS,),
    ),
    Mutant(
        "stream XOR runs past the last needed subfile",
        SIM,
        "        if g == len(needed):  # the last needed byte is read\n            return\n",
        "",
        ("tests/test_simulator.py::TestStreamStops::test_spanning_files_stop_after_the_last_needed_subfile",),
    ),
    Mutant(
        "man_point without its subpacketization cap",
        BASELINES,
        "    if _comb_bits(users, t) > _MAX_SUBPACKETIZATION_BITS:\n",
        "    if False:\n",
        ("tests/test_baselines.py::TestManPoint::test_subpacketization_cap",),
    ),
    Mutant(
        "ag-man member check without its subpacketization cap",
        BASELINES,
        "    if (m - 1) * log(q, 2) > _MAX_SUBPACKETIZATION_BITS:",
        "    if False:",
        ("tests/test_cli.py::TestTable::test_huge_ag_exponent_is_refused_before_q_to_the_m[10000000]",),
    ),
    Mutant(
        "formula tables show M'/N",
        BASELINES,
        '("CRD", _crd_column(replace(crd, m_prime_over_n=None))),',
        '("CRD", _crd_column(crd)),',
        (GOLDEN_TABLES,),
    ),
    Mutant(
        "affine-plane member check accepts n < 2",
        BASELINES,
        "    if n < 2:\n",
        "    if False:\n",
        (FAMILY_RANGE,),
    ),
    Mutant(
        "ag-man member check accepts q < 2 or m < 2",
        BASELINES,
        "    if q < 2 or m < 2:\n",
        "    if False:\n",
        (FAMILY_RANGE,),
    ),
    Mutant(
        "Hadamard member check accepts m < 1",
        BASELINES,
        "    if m < 1:\n",
        "    if False:\n",
        (FAMILY_RANGE,),
    ),
    Mutant(
        "man_point accepts a non-integer K*M/N",
        BASELINES,
        "    if rem or t < 1 or t > users:\n",
        "    if False:\n",
        ("tests/test_baselines.py::TestManPoint::test_non_integer_redundancy",),
    ),
    Mutant(
        "spe_structural accepts a non-integer K(K-2z+2)/4",
        BASELINES,
        "    if numerator <= 0 or numerator % 4:\n",
        "    if False:\n",
        ("tests/test_baselines.py::TestSpeStructural::test_non_integer",),
    ),
    Mutant(
        "sweep_family accepts an unknown family",
        BASELINES,
        "    if family not in FAMILIES:\n",
        "    if False:\n",
        ("tests/test_baselines.py::TestSweep::test_unknown_family_is_a_typed_error",),
    ),
    Mutant(
        "sweep_family runs ag without its fixed dimension",
        BASELINES,
        "    if len(keys) > 1 and m is None:\n",
        "    if False:\n",
        ("tests/test_baselines.py::TestSweep::test_needs_dimension",),
    ),
    Mutant(
        "sweep_family gives a one-parameter family a dimension",
        BASELINES,
        "    if len(keys) == 1 and m is not None:\n",
        "    if False:\n",
        ("tests/test_baselines.py::TestSweep::test_one_parameter_family_refuses_a_dimension_before_building",),
    ),
    Mutant(
        "analyze aborts on a MaN baseline over its cap",
        BASELINES,
        "    except (NonIntegerCacheRedundancy, SizeCapExceeded) as exc:\n",
        "    except NonIntegerCacheRedundancy as exc:\n",
        ("tests/test_baselines.py::TestComparisonTables::test_analyze_table_notes_a_man_baseline_over_its_cap",),
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
        for name in ("pyproject.toml", "README.md"):
            shutil.copy2(ROOT / name, tree)
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
