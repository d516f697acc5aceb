"""Command-line behaviour: outputs, exit codes, round trips, cap overrides."""

import io
import json
import os
import shlex
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import crdcache
from crdcache.baselines import FAMILY_TABLES
from crdcache.cli import main
from crdcache.constructions import FAMILIES
from test_constructions import SPEC_ITEMS, SPECS

AFFINE_SWEEP_GOLDEN = """\
param,m_over_n,m_over_n_dec,rk_crd,rk_crd_dec,rk_man,rk_man_dec,f_crd,f_man,note
2,1/2,0.5,1/16,0.0625,1/8,0.125,4,20,
3,1/3,0.333333333333,1/9,0.111111111111,2/15,0.133333333333,9,495,
4,1/4,0.25,9/64,0.140625,1/8,0.125,16,15504,
5,1/5,0.2,4/25,0.16,4/35,0.114285714286,25,593775,
6,,,,,,,,,6 is not a prime power
"""

EXAMPLES_TABLE_GOLDEN = """\
scheme,caches (b),caches per user (z),users (K),subpacketization (F),cache fraction (M/N),user fraction (M'/N),rate (R),rate per user (R/K),gain (g)
design 3 / MaN,6,1,6,15,1/3 (0.333333333333),1/3 (0.333333333333),4/3 (1.33333333333),2/9 (0.222222222222),3
design 3 / CRD,6,2,9,9,1/3 (0.333333333333),5/9 (0.555555555556),1,1/9 (0.111111111111),4
design 4 / MaN,6,1,6,20,1/2 (0.5),1/2 (0.5),3/4 (0.75),1/8 (0.125),4
design 4 / CRD,6,3,8,8,1/2 (0.5),7/8 (0.875),1/8 (0.125),1/64 (0.015625),8
"""


class TestConstruct:
    def test_text_summary(self, capsys):
        assert main(["construct", "--design", "affine:n=3"]) == 0
        out = capsys.readouterr().out
        assert "v=9 b=12 r=4 k=3 b_r=3" in out
        assert "mu2=1" in out
        assert "crn=2" in out

    def test_catalog_summary(self, capsys):
        assert main(["construct", "--design", "example:5"]) == 0
        out = capsys.readouterr().out
        assert "v=12 b=4 r=2 k=6 b_r=2" in out
        assert "mu2=3" in out

    def test_json_round_trip(self, capsys, tmp_path):
        path = tmp_path / "design.json"
        assert main(["construct", "--design", "ag:q=2,m=3", "--format", "json", "--out", str(path)]) == 0
        obj = json.loads(path.read_text())
        assert obj["v"] == 8
        assert len(obj["blocks"]) == 14
        assert main(["construct", "--design", str(path)]) == 0
        out = capsys.readouterr().out
        assert "v=8 b=14 r=7 k=4 b_r=2" in out
        assert "mu2=2" in out

    def test_rejects_non_prime_power(self, capsys):
        assert main(["construct", "--design", "affine:n=6"]) == 1
        assert "not a prime power" in capsys.readouterr().err

    def test_rejects_unknown_family(self, capsys):
        assert main(["construct", "--design", "mystery:n=3"]) == 1
        err = capsys.readouterr().err
        assert "no such file" in err.lower() or "No such file" in err


    @pytest.mark.parametrize(
        "doc, message",
        [
            ({"v": 4, "blocks": [[1, 2], [3, 4]]}, "missing the key 'classes'"),
            ([[1, 2], [3, 4]], "must be an object"),
        ],
    )
    def test_malformed_design_json_is_reported_without_traceback(self, tmp_path, doc, message):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        src = str(Path(crdcache.__file__).resolve().parent.parent)
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        out = subprocess.run(
            [sys.executable, "-m", "crdcache.cli", "construct", "--design", str(path)],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert out.returncode != 0
        assert message in out.stderr
        assert "Traceback" not in out.stderr


class TestAnalyze:
    def test_csv_cells(self, capsys):
        assert main(["analyze", "--design", "example:9", "--z", "2", "--format", "csv"]) == 0
        lines = capsys.readouterr().out.splitlines()
        crd = lines[1].split(",")
        assert crd[0] == "CRD"
        assert crd[3] == "24"  # users
        assert crd[4] == "16"  # subpacketization
        assert crd[7] == "3/2 (1.5)"
        assert crd[9] == "4"

    def test_inadmissible_z(self, capsys):
        assert main(["analyze", "--design", "example:2", "--z", "2"]) == 1
        assert "mu_2 does not exist" in capsys.readouterr().err

    def test_json_format(self, capsys):
        assert main(["analyze", "--design", "example:4", "--z", "3", "--format", "json"]) == 0
        obj = json.loads(capsys.readouterr().out)
        assert obj["columns"]["CRD"]["users (K)"] == "8"
        assert obj["columns"]["MaN"]["rate (R)"] == "3/4 (0.75)"


class TestSchedule:
    def test_json_output(self, capsys):
        assert main(["schedule", "--design", "example:3", "--z", "2", "--files", "9"]) == 0
        obj = json.loads(capsys.readouterr().out)
        assert obj["z"] == 2
        assert len(obj["transmissions"]) == 9
        first = obj["transmissions"][0]
        assert first["terms"] == [
            {"user": 1, "subfile": 5},
            {"user": 2, "subfile": 4},
            {"user": 4, "subfile": 2},
            {"user": 5, "subfile": 1},
        ]

    def test_equal_demands(self, capsys):
        assert main(
            ["schedule", "--design", "example:3", "--z", "2", "--files", "2", "--demands", "equal"]
        ) == 0
        obj = json.loads(capsys.readouterr().out)
        assert obj["demands"] == [1] * 9

    def test_explicit_demands(self, capsys):
        demands = ",".join(str(1 + (i % 3)) for i in range(9))
        assert main(
            ["schedule", "--design", "example:3", "--z", "2", "--files", "3", "--demands", demands]
        ) == 0
        obj = json.loads(capsys.readouterr().out)
        assert obj["demands"][:4] == [1, 2, 3, 1]

    def test_distinct_needs_enough_files(self, capsys):
        assert main(["schedule", "--design", "example:3", "--z", "2", "--files", "8"]) == 1
        assert "N >= K" in capsys.readouterr().err

    def test_text_format(self, capsys):
        assert main(
            ["schedule", "--design", "example:1", "--z", "1", "--files", "6", "--format", "text"]
        ) == 0
        out = capsys.readouterr().out
        assert "K=6 transmissions=6 rate=6/4" in out


class TestSimulate:
    def test_pass_lines_and_rate(self, capsys):
        code = main(
            ["simulate", "--design", "affine:n=2", "--z", "2", "--files", "12", "--len", "120"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert out.count("PASS") == 12
        assert "measured_rate=3/4" in out
        assert "all users recovered" in out

    def test_json_report(self, capsys):
        code = main(
            [
                "simulate", "--design", "example:8", "--z", "3", "--files", "27",
                "--len", "54", "--seed", "3", "--format", "json",
            ]
        )
        assert code == 0
        obj = json.loads(capsys.readouterr().out)
        assert obj["all_recovered"] is True
        assert obj["measured_rate"] == "1"
        assert len(obj["users"]) == 27

    def test_hadamard_point(self, capsys):
        code = main(
            ["simulate", "--design", "hadamard:m=2", "--z", "2", "--files", "84", "--len", "128"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert out.count("PASS") == 84
        assert "measured_rate=21/4" in out

    def test_payload_dump(self, capsys):
        code = main(
            [
                "simulate", "--design", "example:5", "--z", "2", "--files", "4",
                "--len", "24", "--dump-payloads",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "classes=1,2 pairs=1-2;3-4 s=1: " in out
        dump_lines = [line for line in out.splitlines() if line.startswith("classes=")]
        assert len(dump_lines) == 3  # mu_2 = 3 payloads for the single pair choice

    def test_inadmissible_z_fails(self, capsys):
        assert main(
            ["simulate", "--design", "example:2", "--z", "2", "--files", "4", "--len", "8"]
        ) == 1

    def test_too_few_files_for_distinct(self, capsys):
        assert main(
            ["simulate", "--design", "example:8", "--z", "3", "--files", "5", "--len", "54"]
        ) == 1
        assert "N >= K" in capsys.readouterr().err


class TestTable:
    def test_examples_csv_golden(self, capsys):
        assert main(["table", "--name", "examples-man", "--format", "csv"]) == 0
        assert capsys.readouterr().out == EXAMPLES_TABLE_GOLDEN

    def test_z_sweep(self, capsys):
        assert main(["table", "--name", "zsweep:example:9", "--format", "csv"]) == 0
        out = capsys.readouterr().out
        assert "1/256" in out
        assert out.splitlines()[0].startswith("scheme,")

    def test_family_tables(self, capsys):
        for name in ("affine-man:n=3", "affine-z1:n=3", "ag-man:q=2,m=3", "hadamard-man:m=2"):
            assert main(["table", "--name", name]) == 0
        assert main(["table", "--name", "examples-spe"]) == 0
        out = capsys.readouterr().out
        assert "between 3 and 4" in out

    def test_unknown_table(self, capsys):
        assert main(["table", "--name", "bogus"]) == 1
        assert "unknown table" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "name, message",
        [
            ("affine-man", "table 'affine-man' is missing parameter 'n'"),
            ("ag-man:q=2", "table 'ag-man:q=2' is missing parameter 'm'"),
            ("affine-man:n=0", "needs n >= 2, got n=0"),
            ("affine-z1:n=1", "needs n >= 2, got n=1"),
            ("ag-man:q=1,m=3", "needs q >= 2 and m >= 2, got q=1, m=3"),
            ("hadamard-man:m=0", "needs m >= 1, got m=0"),
        ],
    )
    def test_bad_family_parameters_are_reported_without_traceback(self, name, message):
        src = str(Path(crdcache.__file__).resolve().parent.parent)
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        out = subprocess.run(
            [sys.executable, "-m", "crdcache.cli", "table", "--name", name],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert out.returncode == 1
        lines = out.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")
        assert message in lines[0]
        assert "Traceback" not in out.stderr

    def test_huge_man_subpacketization_is_refused_at_once(self):
        start = time.perf_counter()
        code, err = _run_quietly(["table", "--name", "ag-man:q=3,m=30"])
        assert time.perf_counter() - start < 1
        assert code == 1 and len(err.splitlines()) == 1
        assert err == "error: the MaN subpacketization C(K, t) for a 49-bit K has more than 8192 bits\n"

    @pytest.mark.parametrize("name", ["affine-man:n=10000000000000000", "ag-man:q=10000000000000000,m=2"])
    def test_huge_order_is_refused_at_once(self, name):
        start = time.perf_counter()
        code, err = _run_quietly(["table", "--name", name])
        assert time.perf_counter() - start < 1
        assert code == 1 and len(err.splitlines()) == 1
        assert err == "error: the MaN subpacketization C(K, t) for a 107-bit K has more than 8192 bits\n"

    @pytest.mark.parametrize("m", [10_000_000, 100_000_000])
    def test_huge_ag_exponent_is_refused_before_q_to_the_m(self, m):
        start = time.perf_counter()
        code, err = _run_quietly(["table", "--name", f"ag-man:q=3,m={m}"])
        assert time.perf_counter() - start < 1
        assert code == 1 and len(err.splitlines()) == 1
        assert err == f"error: the MaN subpacketization C(K, t) for K > 3**{m} has more than 8192 bits\n"


class TestSweep:
    def test_affine_csv_golden(self, capsys):
        assert main(["sweep", "--family", "affine", "--values", "2,3,4,5,6"]) == 0
        assert capsys.readouterr().out == AFFINE_SWEEP_GOLDEN

    def test_out_file(self, tmp_path):
        path = tmp_path / "sweep.csv"
        assert main(
            ["sweep", "--family", "hadamard", "--values", "1,2,3", "--out", str(path)]
        ) == 0
        lines = path.read_text().splitlines()
        assert len(lines) == 4
        assert lines[1].split(",")[5] == "1/8"  # dedicated baseline R/K at m=1


class TestCaps:
    def test_env_var_cap(self, capsys, monkeypatch):
        monkeypatch.setenv("CRD_CACHE_CAPS", "points=8")
        assert main(["construct", "--design", "affine:n=3"]) == 1
        assert "exceed" in capsys.readouterr().err

    def test_flag_overrides_env(self, capsys, monkeypatch):
        monkeypatch.setenv("CRD_CACHE_CAPS", "points=8")
        assert main(["construct", "--design", "affine:n=3", "--cap-points", "64"]) == 0
        assert "v=9" in capsys.readouterr().out

    def test_intersection_cap_flag(self, capsys):
        assert main(
            ["construct", "--design", "example:6", "--cap-intersections", "3"]
        ) == 1
        assert "exceeded the cap" in capsys.readouterr().err

    @pytest.mark.parametrize("spec, mu2", [("hadamard:m=1023", 1023), ("ag:q=2,m=12", 1024)])
    def test_largest_b_r_2_designs_settle_mu2_in_seconds(self, capsys, spec, mu2):
        """About 8.4M class pairs each: the default cap admits 2.5M of them and
        raises after reading those; a cap of 4 * 10^7 admits all and finds mu_2."""
        start = time.perf_counter()
        assert main(["construct", "--design", spec]) == 1
        assert time.perf_counter() - start < 15
        err = capsys.readouterr().err
        assert err == "error: mu_2 search exceeded the cap of 10000000 intersections\n"
        start = time.perf_counter()
        assert main(["construct", "--design", spec, "--cap-intersections", "40000000"]) == 0
        assert time.perf_counter() - start < 15
        out = capsys.readouterr().out
        assert f"mu profile: mu2={mu2}\n" in out and "crn=2" in out


def _cli(argv, env=None, timeout=60):
    src = str(Path(crdcache.__file__).resolve().parent.parent)
    env = dict(os.environ, **(env or {}))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "crdcache.cli", *argv],
        capture_output=True, text=True, env=env, timeout=timeout,
    )


class TestBadInput:
    @pytest.mark.parametrize(
        "argv, env, token",
        [
            (["construct", "--design", "affine:n=abc"], {}, "parameter 'n' is not an integer: 'abc'"),
            (["construct", "--design", "affine:n=3,k=9"], {}, "unknown parameter 'k'"),
            (["construct", "--design", "affine:n=3,n=4"], {}, "repeats parameter 'n'"),
            (["construct", "--design", "mystery:n=3"], {}, "'mystery:n=3'"),
            (["construct", "--design", "example:"], {}, "parameter 'id' is not an integer: ''"),
            (["table", "--name", "affine-man:n=x"], {}, "parameter 'n' is not an integer: 'x'"),
            (["sweep", "--family", "affine", "--values", "2,x"], {}, "item 2 is not an integer: 'x'"),
            (["sweep", "--family", "ag", "--values", "2,3"], {}, "needs a fixed dimension m"),
            (
                ["schedule", "--design", "example:3", "--z", "2", "--files", "9", "--demands", "1,x"],
                {},
                "item 2 is not an integer: 'x'",
            ),
            (["construct", "--design", "example:1"], {"CRD_CACHE_CAPS": "point=8"}, "unknown parameter 'point'"),
            (
                ["construct", "--design", "example:1"],
                {"CRD_CACHE_CAPS": "points=abc"},
                "parameter 'points' is not an integer: 'abc'",
            ),
            (["sweep", "--family", "affine", "--values", "2,3", "--m", "4"], {}, "no fixed dimension, got m=4"),
            (["sweep", "--family", "hadamard", "--values", "2,3", "--m", "4"], {}, "no fixed dimension, got m=4"),
            (
                ["simulate", "--design", "example:3", "--z", "2", "--files", "9", "--len", "0"],
                {},
                "need n_files >= 1 and file_len >= 1, got 9, 0",
            ),
            (
                ["simulate", "--design", "example:3", "--z", "2", "--files", "8", "--len", "0"],
                {},
                "distinct demands need N >= K, got N=8, K=9",
            ),
        ],
    )
    def test_is_reported_on_one_line_without_traceback(self, argv, env, token):
        out = _cli(argv, env)
        assert out.returncode == 1
        lines = out.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")
        assert token in lines[0]
        assert "Traceback" not in out.stderr

    def test_huge_field_order_is_refused_at_once(self):
        # the cap comes before trial division of the prime 10**20 + 39
        out = _cli(["construct", "--design", "affine:n=100000000000000000039"], timeout=10)
        assert out.returncode == 1
        lines = out.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")
        assert "exceeds the point cap" in lines[0]
        assert "Traceback" not in out.stderr


class TestFormats:
    """Each subcommand offers only the formats it renders."""

    ARGS = {
        "construct": ["--design", "example:3"],
        "schedule": ["--design", "example:3", "--z", "2", "--files", "9"],
        "simulate": ["--design", "example:3", "--z", "2", "--files", "9", "--len", "9"],
        "sweep": ["--family", "affine", "--values", "2"],
    }

    @pytest.mark.parametrize(
        "command, fmt",
        [("construct", "csv"), ("schedule", "csv"), ("simulate", "csv"), ("sweep", "text"), ("sweep", "json")],
    )
    def test_unrendered_format_is_an_error(self, capsys, command, fmt):
        with pytest.raises(SystemExit) as exc:
            main([command, *self.ARGS[command], "--format", fmt])
        assert exc.value.code != 0
        out, err = capsys.readouterr()
        assert out == ""
        assert any(line.startswith(f"crdcache {command}: error: argument --format") for line in err.splitlines())


def _run_quietly(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


def _succeeds_or_reports_one_error(code, err):
    return (code, err) == (0, "") or (
        code == 1 and err.startswith("error: ") and len(err.splitlines()) == 1
    )


TABLE_NAMES = st.one_of(
    st.text(),
    st.builds(
        lambda name, sep, items: name + sep + ",".join(items),
        st.sampled_from(["affine-man", "affine-z1", "ag-man", "hadamard-man", "examples-man", "bogus"]),
        st.sampled_from([":", "", "::"]),
        st.lists(SPEC_ITEMS, max_size=4),
    ),
    SPECS.map(lambda spec: "zsweep:" + spec),
)


# family parameters over the whole range the grammar takes; the formula
# tables see every value, and SMALL_CAPS keeps any design they build small
FAMILY_VALUES = st.one_of(st.integers(0, 70), st.integers(0, 10**30))
SMALL_CAPS = ("--cap-points", "64", "--cap-intersections", "100000")
TABLE_KEYS = {name: keys for name, (keys, *_) in FAMILY_TABLES.items()} | {
    f"zsweep:{family}": keys for family, (keys, _) in FAMILIES.items()
}


class TestGrammarProperties:
    # the caps keep any design a name builds small: the property is about the grammar
    @settings(max_examples=150, deadline=None)
    @given(TABLE_NAMES)
    def test_table_names(self, name):
        argv = ["table", f"--name={name}", *SMALL_CAPS]
        assert _succeeds_or_reports_one_error(*_run_quietly(argv))

    @settings(max_examples=200, deadline=None)
    @given(
        st.sampled_from(sorted(TABLE_KEYS)),
        st.lists(FAMILY_VALUES, min_size=2, max_size=2),
        st.sampled_from(["text", "json", "csv"]),
    )
    def test_table_family_parameters(self, name, values, fmt):
        params = ",".join(f"{key}={value}" for key, value in zip(TABLE_KEYS[name], values))
        argv = ["table", "--name", f"{name}:{params}", "--format", fmt, *SMALL_CAPS]
        assert _succeeds_or_reports_one_error(*_run_quietly(argv))

    @settings(max_examples=150, deadline=None)
    @given(
        st.sampled_from(["affine", "ag", "hadamard"]),
        st.lists(FAMILY_VALUES, min_size=1, max_size=4),
        FAMILY_VALUES,
        st.one_of(st.none(), FAMILY_VALUES),
    )
    def test_sweep_family_parameters(self, family, values, z, m):
        argv = ["sweep", "--family", family, "--values", ",".join(map(str, values)), "--z", str(z), *SMALL_CAPS]
        if m is not None:
            argv += ["--m", str(m)]
        assert _succeeds_or_reports_one_error(*_run_quietly(argv))

    @settings(max_examples=150, deadline=None)
    @given(
        st.one_of(
            st.text(),
            st.lists(
                st.builds(
                    "".join,
                    st.tuples(
                        st.sampled_from(["points", "intersections", "point", " points", ""]),
                        st.sampled_from(["=", "", "=="]),
                        st.sampled_from(["", "x", "-1", "0", "3", "64", "9" * 30, " 8"]),
                    ),
                ),
                max_size=3,
            ).map(",".join),
        ).filter(lambda text: "\x00" not in text)
    )
    def test_caps_env(self, text):
        with mock.patch.dict(os.environ, {"CRD_CACHE_CAPS": text}):
            assert _succeeds_or_reports_one_error(*_run_quietly(["construct", "--design", "example:6"]))


def _readme_commands():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    block = readme.split("## CLI", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    commands = [shlex.split(line, comments=True)[1:] for line in block.splitlines() if line.startswith("crdcache ")]
    assert commands, "the README CLI block lists no crdcache command"
    return commands


@pytest.mark.parametrize("argv", _readme_commands(), ids=" ".join)
def test_readme_cli_examples_run(argv, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 0
