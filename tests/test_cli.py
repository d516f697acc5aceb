"""Command-line behaviour: outputs, exit codes, round trips, cap overrides."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import crdcache
from crdcache.cli import main

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
