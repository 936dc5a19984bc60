"""CLI grammar, golden outputs, and exit codes."""

import json
import math
import os
import subprocess
import sys

import zscomb
from zscomb import counting, dyck
from zscomb.cli import run


def invoke(capsys, *argv):
    code = run(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_count_sequences_golden(capsys):
    code, out = invoke(capsys, "count", "sequences", "--group", "2,2", "--length", "3")
    assert code == 0
    assert out == '{"count":"5"}\n'


def test_reciprocity_golden(capsys):
    code, out = invoke(
        capsys,
        "biject", "reciprocity",
        "--group", "7", "--other", "5", "--vector", "0,0,1,1,1,0,2",
    )
    assert code == 0
    assert out == '{"vector":"1,2,0,3,1"}\n'


def test_catalan_golden(capsys):
    code, out = invoke(capsys, "count", "catalan", "--a", "7", "--b", "5")
    assert code == 0
    assert out == '{"count":"66"}\n'


def test_count_subsets(capsys):
    code, out = invoke(capsys, "count", "subsets", "--group", "6", "--size", "4")
    assert (code, json.loads(out)) == (0, {"count": "3"})


def test_count_pair_dim(capsys):
    code, out = invoke(
        capsys,
        "count", "pair-dim", "--p", "2", "--q", "1", "--m", "1", "--group", "2",
    )
    assert (code, json.loads(out)) == (0, {"count": "3"})


def test_trivial_group_spellings(capsys):
    for spelling in ("1", ""):
        code, out = invoke(
            capsys, "count", "sequences", "--group", spelling, "--length", "5"
        )
        assert (code, json.loads(out)) == (0, {"count": "1"})


def test_enum_sequences(capsys):
    code, out = invoke(capsys, "enum", "sequences", "--group", "3", "--length", "2")
    assert code == 0
    assert json.loads(out) == {"count": "2", "items": ["2,0,0", "0,1,1"]}


def test_enum_dyck(capsys):
    code, out = invoke(capsys, "enum", "dyck", "--a", "3", "--b", "2")
    assert json.loads(out) == {"count": "2", "items": ["00111", "01011"]}


def test_enum_dyck_limit_is_a_path_budget(capsys):
    code, out = invoke(capsys, "enum", "dyck", "--a", "3", "--b", "2", "--limit", "4")
    assert (code, out) == (0, '{"count":"2","items":["00111","01011"]}\n')
    code, out = invoke(capsys, "enum", "dyck", "--a", "3", "--b", "2", "--limit", "1")
    assert code == 2
    assert json.loads(out) == {
        "error": "EnumerationLimitError",
        "reason": "2 candidates exceed the enumeration limit 1",
        "candidates": "2",
        "limit": "1",
    }


def test_enum_pairs(capsys):
    code, out = invoke(
        capsys, "enum", "pairs", "--group", "2", "--p", "1", "--k", "1"
    )
    assert json.loads(out) == {
        "count": "2",
        "items": [
            {"sequence": "1,0", "subset": "1,0"},
            {"sequence": "0,1", "subset": "0,1"},
        ],
    }


def test_biject_round_trip(capsys):
    code, out = invoke(
        capsys, "biject", "seq-to-dyck", "--group", "7", "--vector", "0,0,1,1,1,0,2"
    )
    payload = json.loads(out)
    assert payload == {"gaps": "1,1,1,0,2,0,0", "rotation": "2"}
    code, out = invoke(
        capsys, "biject", "dyck-to-seq", "--group", "7", "--gaps", payload["gaps"]
    )
    assert json.loads(out) == {"vector": "0,0,1,1,1,0,2", "shift": "5"}


def test_biject_subset_word(capsys):
    code, out = invoke(
        capsys, "biject", "subset-to-dyck", "--group", "5", "--subset", "0,1,0,0,1"
    )
    assert json.loads(out) == {"word": "00101", "rotation": "2"}
    code, out = invoke(
        capsys, "biject", "dyck-to-subset", "--group", "5", "--word", "00101"
    )
    assert json.loads(out) == {"subset": "0,1,0,0,1", "shift": "3"}


def test_biject_complement(capsys):
    code, out = invoke(
        capsys, "biject", "complement", "--group", "4", "--subset", "1,0,0,0"
    )
    assert json.loads(out)["subset"] == "1,1,0,1"
    code, out = invoke(
        capsys,
        "biject", "translate-complement", "--group", "4", "--subset", "0,1,0,1",
    )
    assert json.loads(out) == {"subset": "0,1,0,1", "translation": "1"}


def test_biject_pair(capsys):
    code, out = invoke(
        capsys,
        "biject", "pair",
        "--group", "2", "--other", "2", "--vector", "1,0", "--subset", "1,0",
    )
    assert (code, json.loads(out)) == (0, {"sequence": "0,1", "subset": "0,1"})


def test_poincare_table(capsys):
    code, out = invoke(
        capsys,
        "poincare", "table", "--group", "2", "--max-s", "2", "--max-t", "2",
    )
    assert json.loads(out) == {
        "group": "2",
        "target": 0,
        "coeffs": [["1", "1", "0"], ["1", "2", "1"], ["2", "3", "1"]],
    }


def test_poincare_check_and_verify_series(capsys):
    for argv in (
        ("poincare", "check", "--group", "2,2", "--max-s", "3", "--max-t", "3"),
        ("verify", "series", "--group", "2,2", "--max-s", "3", "--max-t", "3"),
    ):
        code, out = invoke(capsys, *argv)
        report = json.loads(out)
        assert code == 0
        assert report["theorem"] == "series" and report["failures"] == []


def test_verify_subcommands_pass(capsys):
    for argv in (
        ("verify", "subset-reci", "--max-order", "10"),
        ("verify", "gcp", "--max-order", "10", "--primes", "2,3"),
        ("verify", "cnr", "--n", "2", "--m", "6", "--r", "2"),
        ("scan", "reciprocity", "--max-order", "6"),
    ):
        code, out = invoke(capsys, *argv)
        assert code == 0
        assert json.loads(out)["failures"] == []


def test_usage_error_exit_2(capsys):
    assert run(["count"]) == 2
    assert run(["count", "sequences", "--group", "2,2"]) == 2  # missing --length
    assert run(["nonsense"]) == 2
    assert run([]) == 2


def test_precondition_error_exit_2(capsys):
    code, out = invoke(capsys, "count", "catalan", "--a", "4", "--b", "2")
    assert code == 2
    payload = json.loads(out)
    assert payload["error"] == "ValueError" and "coprime" in payload["reason"]
    code, out = invoke(capsys, "verify", "cnr", "--n", "4", "--m", "2", "--r", "2")
    assert code == 2
    assert "gcd" in json.loads(out)["reason"]


def test_limit_flag_exit_2(capsys):
    code, out = invoke(
        capsys,
        "enum", "sequences", "--group", "12", "--length", "10", "--limit", "100",
    )
    assert code == 2
    payload = json.loads(out)
    assert payload["error"] == "EnumerationLimitError"
    assert (payload["candidates"], payload["limit"]) == ("352716", "100")


def test_pretty_flag(capsys):
    code, out = invoke(
        capsys, "count", "sequences", "--group", "2,2", "--length", "3", "--pretty"
    )
    assert code == 0
    assert out.count("\n") > 1
    assert json.loads(out) == {"count": "5"}


def test_help_exits_zero(capsys):
    assert run(["--help"]) == 0
    assert "count" in capsys.readouterr().out


def test_determinism(capsys):
    a = invoke(capsys, "scan", "reciprocity", "--max-order", "6")
    b = invoke(capsys, "scan", "reciprocity", "--max-order", "6")
    assert a == b


def test_broken_invariant_exit_3(capsys, monkeypatch):
    real = dyck._cycle_lemma_start
    monkeypatch.setattr(dyck, "_cycle_lemma_start", lambda steps: (real(steps) + 1) % len(steps))
    code, out = invoke(
        capsys, "biject", "seq-to-dyck", "--group", "7", "--vector", "0,0,1,1,1,0,2"
    )
    assert code == 3
    payload = json.loads(out)
    assert payload["error"] == "InvariantError"
    assert payload["check"] == "cycle-lemma rotation is a Dyck path"
    assert payload["context"] == {"order": 7, "mass": 5, "rotation": 3}
    code, out = invoke(capsys, "biject", "subset-to-dyck", "--group", "5", "--subset", "0,1,0,0,1")
    assert code == 3
    assert json.loads(out)["context"] == {"order": 5, "size": 2, "rotation": 3}


def test_inexact_division_exit_3(capsys, monkeypatch):
    monkeypatch.setattr(counting, "comb", lambda a, b: math.comb(a, b) + 1)
    code, out = invoke(capsys, "count", "sequences", "--group", "7", "--length", "5")
    assert code == 3
    assert json.loads(out) == {
        "error": "ExactDivisionError",
        "reason": "793 is not divisible by 12",
    }


def test_invariant_check_survives_optimize_flag():
    script = (
        "import sys\n"
        "from zscomb import dyck\n"
        "real = dyck._cycle_lemma_start\n"
        "dyck._cycle_lemma_start = lambda steps: (real(steps) + 1) % len(steps)\n"
        "from zscomb.cli import run\n"
        "sys.exit(run(['biject', 'seq-to-dyck', '--group', '7', '--vector', '0,0,1,1,1,0,2']))\n"
    )
    src = os.path.dirname(os.path.dirname(os.path.abspath(zscomb.__file__)))
    proc = subprocess.run(
        [sys.executable, "-O", "-c", script],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 3, proc.stderr
    assert json.loads(proc.stdout)["error"] == "InvariantError"
