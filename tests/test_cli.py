"""CLI grammar, golden outputs, and exit codes."""

import atexit
import doctest
import importlib
import json
import math
import os
import shlex
import subprocess
import sys

import pytest

import zscomb
# necklaces too is imported here, before a BROKEN_STEPS case patches zerosum,
# so it never binds the broken cyclic_shift for the tests that follow
from zscomb import cli, counting, dyck, necklaces  # noqa: F401
from zscomb.cli import COMMANDS, LIMIT, UsageError, _plain, build_parser, main, run


def invoke(capsys, *argv):
    code = run(list(argv))
    out = capsys.readouterr().out
    return code, out


# One exact-stdout golden per leaf command, plus --pretty and the exit-2 shapes.
GOLDEN = [
    ("count sequences --group 7 --length 5", 0, '{"count":"66"}'),
    ("count subsets --group 2,2,4 --size 3 --target 5", 0, '{"count":"35"}'),
    ("count catalan --a 7 --b 5", 0, '{"count":"66"}'),
    ("count pair-dim --p 2 --q 1 --m 1 --group 2", 0, '{"count":"3"}'),
    ("enum sequences --group 3 --length 2", 0, '{"count":"2","items":["2,0,0","0,1,1"]}'),
    (
        "enum subsets --group 5 --size 2",
        0,
        '{"count":"2","items":["0,1,0,0,1","0,0,1,1,0"]}',
    ),
    ("enum dyck --a 3 --b 2", 0, '{"count":"2","items":["00111","01011"]}'),
    (
        "enum pairs --group 2 --p 1 --k 1",
        0,
        '{"count":"2","items":[{"sequence":"1,0","subset":"1,0"},'
        '{"sequence":"0,1","subset":"0,1"}]}',
    ),
    (
        "biject seq-to-dyck --group 7 --vector 0,0,1,1,1,0,2",
        0,
        '{"gaps":"1,1,1,0,2,0,0","rotation":"2"}',
    ),
    (
        "biject dyck-to-seq --group 7 --gaps 1,1,1,0,2,0,0",
        0,
        '{"vector":"0,0,1,1,1,0,2","shift":"5"}',
    ),
    ("biject subset-to-dyck --group 5 --subset 0,1,0,0,1", 0, '{"word":"00101","rotation":"2"}'),
    ("biject dyck-to-subset --group 5 --word 00101", 0, '{"subset":"0,1,0,0,1","shift":"3"}'),
    ("biject reciprocity --group 7 --other 5 --vector 0,0,1,1,1,0,2", 0, '{"vector":"1,2,0,3,1"}'),
    ("biject complement --group 4 --subset 1,0,0,0", 0, '{"subset":"1,1,0,1","shift":"2"}'),
    (
        "biject translate-complement --group 4 --subset 0,1,0,1",
        0,
        '{"subset":"0,1,0,1","translation":"1"}',
    ),
    (
        "biject pair --group 3 --other 4 --vector 2,0,0 --subset 0,1,1",
        0,
        '{"sequence":"0,0,0,1","subset":"1,1,0,0"}',
    ),
    (
        "poincare table --group 2,2 --target 0 --max-s 2 --max-t 2",
        0,
        '{"group":"2,2","target":0,"coeffs":[["1","1","0"],["1","4","6"],["4","10","12"]]}',
    ),
    (
        "poincare check --group 2 --target 1 --max-s 2 --max-t 1",
        0,
        '{"theorem":"series","scanned":6,"failures":[],"rows":[{"group":"2","target":1,'
        '"max_s":2,"max_t":1,"entries":6,"ok":true}]}',
    ),
    (
        "verify subset-reci --max-order 3",
        0,
        '{"theorem":"subset-reci","scanned":3,"failures":[],"rows":['
        '{"group":"2","k":1,"count_k":"1","count_nk":"1","predicate":true},'
        '{"group":"3","k":1,"count_k":"1","count_nk":"1","predicate":true},'
        '{"group":"3","k":2,"count_k":"1","count_nk":"1","predicate":true}]}',
    ),
    (
        "verify gcp --max-order 3 --primes 2,3",
        0,
        '{"theorem":"gcp","scanned":6,"failures":[],"rows":['
        '{"group":"1","p":2,"left":"1","right":"1","predicate":true},'
        '{"group":"1","p":3,"left":"1","right":"1","predicate":true},'
        '{"group":"2","p":2,"left":"2","right":"2","predicate":true},'
        '{"group":"2","p":3,"left":"2","right":"2","predicate":true},'
        '{"group":"3","p":2,"left":"2","right":"2","predicate":true},'
        '{"group":"3","p":3,"left":"4","right":"4","predicate":true}]}',
    ),
    (
        "verify cnr --n 2 --m 3 --r 1",
        0,
        '{"theorem":"cnr","scanned":1,"failures":[],"rows":[{"n":2,"m":3,"r":1,"left":"2",'
        '"right":"2","oracle_checked":["2","3"],"catalan":"2"}]}',
    ),
    (
        "verify series --group 2 --max-s 1 --max-t 1",
        0,
        '{"theorem":"series","scanned":4,"failures":[],"rows":[{"group":"2","target":0,'
        '"max_s":1,"max_t":1,"entries":4,"ok":true}]}',
    ),
    (
        "scan reciprocity --max-order 2",
        0,
        '{"theorem":"reciprocity-scan","scanned":3,"failures":[],"rows":['
        '{"group":"1","other":"1","left":"1","right":"1","equal":true,"coprime_orders":true},'
        '{"group":"1","other":"2","left":"1","right":"1","equal":true,"coprime_orders":true},'
        '{"group":"2","other":"2","left":"2","right":"2","equal":true,"coprime_orders":false}]}',
    ),
    ("count sequences --group 2,2 --length 3 --pretty", 0, '{\n  "count": "5"\n}'),
    ("count catalan --a 4 --b 2", 2, '{"error":"ValueError","reason":"(4, 2) are not coprime"}'),
    (
        "enum dyck --a 3 --b 2 --limit 1",
        2,
        '{"error":"EnumerationLimitError","reason":"2 candidates exceed the enumeration limit 1",'
        '"candidates":"2","limit":"1"}',
    ),
]


@pytest.mark.parametrize("argv,code,out", GOLDEN, ids=[row[0] for row in GOLDEN])
def test_golden(capsys, argv, code, out):
    assert invoke(capsys, *shlex.split(argv)) == (code, out + "\n")


README = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "README.md")


def readme_examples():
    """(argv, stdout line) of each `$ zscomb` line in the README followed by its output."""
    with open(README, encoding="utf-8") as f:
        lines = f.read().splitlines()
    return [
        (command.removeprefix("$ zscomb "), out)
        for command, out in zip(lines, lines[1:])
        if command.startswith("$ zscomb ") and not out.startswith(("$", "```"))
    ]


def test_readme_examples(capsys):
    examples = readme_examples()
    assert len(examples) >= 7
    for argv, out in examples:
        assert invoke(capsys, *shlex.split(argv, comments=True))[1] == out + "\n", argv
    # the `>>>` Python quick start, run as a doctest
    with open(README, encoding="utf-8") as f:
        block = f.read().split("```python\n", 1)[1].split("```", 1)[0]
    runner = doctest.DocTestRunner()
    runner.run(doctest.DocTestParser().get_doctest(block, {}, "quick start", README, 0))
    assert runner.summarize(verbose=False) == (0, 9), capsys.readouterr().out


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
    for argv in (
        "count sequences --group 7 --length 3 --limit 0",  # --limit only where a budget is charged
        "biject complement --group 4 --subset 1,0,0,0 --limit 5",
        "verify gcp --limit 5",
        "enum dyck --a 2 --b 3 --limit -1",
        "verify series --group 2 --limit -1",
        "count sequences --group 2,x --length 3",
        "biject seq-to-dyck --group 7 --vector 1,a",
        "biject reciprocity --group 7 --other 3,0 --vector 0,0,1,1,1,0,2",
        "biject dyck-to-seq --group 7 --gaps 1,,2",
        "biject complement --group 4 --subset x",
        "verify gcp --primes 2,,3",
        "enum dyck --a 2 --b 3 --limit x",
    ):
        assert run(shlex.split(argv)) == 2, argv
    # every usage error is one JSON line on stdout
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 16
    assert all(json.loads(line)["error"] == "UsageError" for line in lines)
    assert json.loads(lines[3]) == {
        "error": "UsageError",
        "reason": "the following arguments are required: command",
    }
    reasons = [json.loads(line)["reason"] for line in lines]
    assert reasons[4] == "unrecognized arguments: --limit 0"
    assert reasons[7] == "argument --limit: the budget must be >= 0, got -1"
    # a flag value the library refuses keeps the library's reason
    assert reasons[9:] == [
        "argument --group: bad group text '2,x'",
        "argument --vector: invalid literal for int() with base 10: 'a'",
        "argument --other: factors must be positive, got (3, 0)",
        "argument --gaps: invalid literal for int() with base 10: ''",
        "argument --subset: invalid literal for int() with base 10: 'x'",
        "argument --primes: invalid literal for int() with base 10: ''",
        "argument --limit: invalid literal for int() with base 10: 'x'",
    ]


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"), reason="no digit limit to lift")
def test_count_beyond_int_str_digit_limit(capsys):
    # C(65536, 32769)/65536 has about 19,700 digits, beyond the interpreter's
    # default int-to-str limit of 4300; run writes it through groups._decimal
    # and leaves the limit as it found it.
    limit = sys.get_int_max_str_digits()
    assert run(shlex.split("count subsets --group 65536 --size 32769")) == 0
    assert sys.get_int_max_str_digits() == limit
    text = json.loads(capsys.readouterr().out)["count"]
    assert len(text) > 4300
    sys.set_int_max_str_digits(0)
    try:
        assert int(text) == counting.count_subsets(zscomb.GroupSpec((65536,)), 32769)
    finally:
        sys.set_int_max_str_digits(limit)


# 10**4400 + 1: 4401 digits, one past the interpreter's default limit.
BIG = "1" + "0" * 4399 + "1"
LIMITED = pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"), reason="no digit limit")


@pytest.fixture
def default_digit_limit():
    """The interpreter's default int-to-str digit limit, 4300, for one test."""
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    yield 4300
    sys.set_int_max_str_digits(limit)


@LIMITED
def test_run_leaves_the_digit_limit_to_its_caller(capsys, monkeypatch, default_digit_limit):
    seen = []

    def leaf(a, b):
        seen.append(sys.get_int_max_str_digits())
        return 7

    monkeypatch.setattr(zscomb, "rational_catalan", leaf, raising=False)
    assert invoke(capsys, "count", "catalan", "--a", "3", "--b", "5") == (0, '{"count":"7"}\n')
    assert seen == [default_digit_limit]


@LIMITED
def test_in_process_argv_integer_past_the_digit_limit_exit_2(capsys, default_digit_limit):
    code, out = invoke(capsys, "count", "catalan", "--a", BIG, "--b", "1")
    assert (code, json.loads(out)["error"]) == (2, "UsageError")


@LIMITED
def test_main_in_process(capsys, monkeypatch, default_digit_limit):
    # main lifts the digit limit for its process and exits with run's code
    def out_of_memory(a, b):
        raise MemoryError

    for argv, code, out in (
        (["count", "catalan", "--a", BIG, "--b", "1"], 0, '{"count":"1"}'),
        (["count", "catalan", "--a", "3"], 2,
         '{"error":"UsageError","reason":"the following arguments are required: --b"}'),
        (["count", "catalan", "--a", "3", "--b", "5"], 5,
         '{"error":"MemoryError","reason":"out of memory"}'),
    ):
        if code == 5:
            monkeypatch.setattr(zscomb, "rational_catalan", out_of_memory, raising=False)
        monkeypatch.setattr(sys, "argv", ["zscomb", *argv])
        with pytest.raises(SystemExit) as exit_:
            main()
        assert (exit_.value.code, capsys.readouterr().out) == (code, out + "\n")
        assert sys.get_int_max_str_digits() == 0
    # entry runs the atexit handlers, then ends the process with main's code;
    # both are recorders here, as the real ones would end pytest itself
    ends = []
    monkeypatch.setattr(atexit, "_run_exitfuncs", lambda: ends.append("atexit"))
    monkeypatch.setattr(os, "_exit", ends.append)
    for argv, code, out in (
        (["count", "sequences", "--group", "7", "--length", "5"], 0, '{"count":"66"}'),
        (["count", "catalan", "--a", "3"], 2,
         '{"error":"UsageError","reason":"the following arguments are required: --b"}'),
    ):
        monkeypatch.setattr(sys, "argv", ["zscomb", *argv])
        ends.clear()
        cli.entry()
        assert (ends, capsys.readouterr().out) == (["atexit", code], out + "\n")


class _ClosedPipe:
    """A stdout whose reader is gone; its descriptor is a temporary file's."""

    def __init__(self, fd):
        self.fd = fd

    def write(self, text):
        raise BrokenPipeError

    def fileno(self):
        return self.fd


def test_main_in_process_exits_4_when_stdout_is_closed(capsys, monkeypatch, tmp_path):
    # main points the descriptor at devnull, so never hand it fd 1
    with open(tmp_path / "stdout", "w") as file, monkeypatch.context() as patch:
        patch.setattr(sys, "stdout", _ClosedPipe(file.fileno()))
        patch.setattr(sys, "argv", ["zscomb", "count", "catalan", "--a", "2", "--b", "3"])
        with pytest.raises(SystemExit) as exit_:
            main()
    assert exit_.value.code == 4
    assert capsys.readouterr() == (
        "", '{"error":"BrokenPipeError","reason":"stdout was closed early"}\n')


def test_console_entry_parses_argv_integers_past_the_digit_limit():
    proc = _python("-m", "zscomb.cli", "count", "catalan", "--a", BIG, "--b", "1")
    assert (proc.returncode, proc.stdout) == (0, '{"count":"1"}\n'), proc.stderr


@LIMITED
def test_refused_enumeration_writes_its_whole_candidate_count(capsys, default_digit_limit):
    code, out = invoke(capsys, "enum", "subsets", "--group", "65536", "--size", "32768")
    assert sys.get_int_max_str_digits() == default_digit_limit
    payload = json.loads(out)
    assert (code, payload["error"]) == (2, "EnumerationLimitError")
    sys.set_int_max_str_digits(0)
    expected = str(math.comb(65536, 32768))
    assert len(expected) == 19726 and payload["candidates"] == expected


def test_precondition_error_exit_2(capsys):
    code, out = invoke(capsys, "count", "catalan", "--a", "4", "--b", "2")
    assert code == 2
    payload = json.loads(out)
    assert payload["error"] == "ValueError" and "coprime" in payload["reason"]
    code, out = invoke(capsys, "verify", "cnr", "--n", "4", "--m", "2", "--r", "2")
    assert code == 2
    assert "gcd" in json.loads(out)["reason"]
    # a sweep's bound and primes are checked before it runs
    for argv, reason in (
        ("verify subset-reci --max-order -3", "max_order must be >= 1, got -3"),
        ("scan reciprocity --max-order -1", "max_order must be >= 1, got -1"),
        ("verify gcp --max-order 0 --primes 4", "max_order must be >= 1, got 0"),
        ("verify gcp --max-order 1 --primes 2,0", "p must be prime, got 0"),
        ("verify gcp --max-order 2 --primes 2,2",
         "need at least one prime and no repeats, got (2, 2)"),
    ):
        code, out = invoke(capsys, *shlex.split(argv))
        assert (code, json.loads(out)) == (2, {"error": "ValueError", "reason": reason}), argv


def test_limit_flag_exit_2(capsys):
    code, out = invoke(
        capsys,
        "enum", "sequences", "--group", "12", "--length", "10", "--limit", "100",
    )
    assert code == 2
    payload = json.loads(out)
    assert payload["error"] == "EnumerationLimitError"
    assert (payload["candidates"], payload["limit"]) == ("352716", "100")
    code, out = invoke(capsys, "enum", "dyck", "--a", "2", "--b", "3", "--limit", "0")
    assert code == 2
    assert json.loads(out) == {
        "error": "EnumerationLimitError",
        "reason": "2 candidates exceed the enumeration limit 0",
        "candidates": "2",
        "limit": "0",
    }


def test_series_leaves_take_no_budget(capsys):
    # the oracle expands the group algebra, so neither leaf enumerates or has --limit
    with pytest.raises(UsageError, match="^unrecognized arguments: --limit 100$"):
        build_parser().parse_args("poincare check --group 6 --max-s 3 --max-t 3 --limit 100".split())
    # 91,937,858 candidates for the histogram oracle, beyond its default budget
    code, out = invoke(capsys, *"verify series --group 2,4,4 --max-s 8 --max-t 8".split())
    assert (code, json.loads(out)["failures"]) == (0, [])


def test_bad_limit_variable_exit_2(capsys, monkeypatch):
    for bad in ("-1", "x"):
        monkeypatch.setenv("ZSCOMB_LIMIT", bad)
        code, out = invoke(capsys, "enum", "subsets", "--group", "5", "--size", "2")
        assert code == 2
        assert json.loads(out) == {
            "error": "ValueError",
            "reason": f"ZSCOMB_LIMIT must be an integer >= 0, got '{bad}'",
        }
    # an explicit --limit does not read the variable
    code, _ = invoke(capsys, "enum", "subsets", "--group", "5", "--size", "2", "--limit", "10")
    assert code == 0


# A desk-scale call of every leaf: its first passing golden, and cnr with
# both sides enumerated (220 and 495 candidates).
CALLS = {"verify cnr": "verify cnr --n 2 --m 3 --r 2"}
for argv, code, _ in GOLDEN:
    if code == 0:
        CALLS.setdefault(" ".join(argv.split()[:2]), argv)


@pytest.mark.parametrize(
    "leaf", [f"{family} {name}" for family, name, _, _, flags, _ in COMMANDS if LIMIT not in flags]
)
def test_leaves_without_limit_ignore_the_budget_variable(capsys, monkeypatch, leaf):
    monkeypatch.delenv("ZSCOMB_LIMIT", raising=False)
    expected = invoke(capsys, *CALLS[leaf].split())
    assert expected[0] == 0
    monkeypatch.setenv("ZSCOMB_LIMIT", "0")
    assert invoke(capsys, *CALLS[leaf].split()) == expected


def test_pretty_flag(capsys):
    code, out = invoke(
        capsys, "count", "sequences", "--group", "2,2", "--length", "3", "--pretty"
    )
    assert code == 0
    assert out.count("\n") > 1
    assert json.loads(out) == {"count": "5"}


# escapes, control characters, non-ASCII text (a lone surrogate too), None,
# booleans, integers and nested or empty containers
WRITER_PAYLOADS = (
    {"reason": 'say "no" \\ \t\n\r\b\f\x00\x1f\x7f /', "text": "\u00e9 \u2211 \U0001d53d \u2028"},
    {"surrogate": "\ud800", "none": None, "yes": True, "no": False, "int": -3},
    {"empty": [{}, []], "nested": [[[], {"k": [None, {}]}]], "": ""},
)


@pytest.mark.parametrize("fallback", [False, True], ids=["_json", "json"])
def test_compact_output_is_json_dumps(capsys, monkeypatch, fallback):
    if fallback:  # an interpreter without _json
        monkeypatch.setattr(cli, "make_encoder", None)

    def compact(payload):
        return json.dumps(payload, separators=(",", ":")) + "\n"

    report = zscomb.verify_subset_reciprocity(70)
    assert len(report["rows"]) >= 3000
    assert invoke(capsys, "verify", "subset-reci", "--max-order", "70") == (0, compact(report))
    error = {"error": "ValueError", "reason": "max_order must be >= 1, got 0"}
    assert invoke(capsys, *"verify gcp --max-order 0 --primes 4".split()) == (2, compact(error))
    for payload in WRITER_PAYLOADS:
        monkeypatch.setattr(cli, "_encode", lambda value, fields, payload=payload: payload)
        assert invoke(capsys, *"count catalan --a 2 --b 3".split()) == (0, compact(payload))


def test_help_exits_zero(capsys):
    assert run(["--help"]) == 0
    assert "count" in capsys.readouterr().out
    budgeted = {"enum sequences", "enum subsets", "enum dyck", "enum pairs"}
    leaves = {" ".join(argv.split()[:2]) for argv, _, _ in GOLDEN}
    assert len(leaves) == 23 and budgeted < leaves
    for leaf in leaves:
        assert run([*leaf.split(), "--help"]) == 0
        assert ("--limit" in capsys.readouterr().out) == (leaf in budgeted), leaf


def argparse_reads(argv, capsys):
    """The leaf, flag values and --pretty of argparse's namespace for argv,
    in the shape `_plain` returns; or its usage error, or its help text."""
    try:
        args = build_parser().parse_args(argv)
    except (UsageError, SystemExit) as exc:  # SystemExit: --help
        return type(exc).__name__, str(exc), capsys.readouterr().out
    target, dests, fields = args.leaf
    return target, [getattr(args, dest) for dest in dests], fields, args.pretty


# Lines the plain path must leave to argparse, each a usage error.
DECLINED = (
    "count catalan --a=3",  # --flag=value
    "count catalan --a 3 --a 5",  # a repeated flag
    "enum dyck --a 2 --b 3 --limit -3",  # a value starting with "-"
    "count catalan --a '' --b 5",  # an empty value
    "count catalan --a 3 --pretty --pretty",  # --pretty twice
    "count sequences --grou 7",  # an abbreviation
)
# Lines argparse reads without error that the plain path leaves to it.
ARGPARSE_ONLY = (
    "count catalan --a=3 --b 5", "count catalan --a 3 --b 5 --a 7",
    "count catalan --a 3 --b 5 --pretty --pretty", "count sequences --group '' --length 2",
    "count sequences --grou 7 --length 2", "count sequences --group 7 --length 2 --target -1",
)


def test_the_plain_path_reads_like_argparse(capsys):
    """`_plain` reads a line exactly as argparse does, or declines it."""
    goldens = [shlex.split(argv) for argv, _, _ in GOLDEN]
    assert all(_plain(argv) == argparse_reads(argv, capsys) for argv in goldens)
    # flags in any order; argparse converts them in argv order too
    argv = shlex.split("count catalan --b 5 --a 3 --pretty")
    expected = ("rational_catalan", [3, 5], ("count",), True)
    assert _plain(argv) == argparse_reads(argv, capsys) == expected
    argvs = [argv[:2] + ["--help"] for argv in goldens] + [argv[:1] for argv in goldens]
    for line in (
        "", "--help", "-h", "nonsense", "count nonsense", "count --help",
        "count catalan --a 3", "count catalan --a 3 --b 5 --c 1",
        "--pretty count catalan --a 3 --b 5", "count --x catalan --a 3 --b 5",
        "count -- catalan --a 3 --b 5", "count sequences --grou 7 --len 3",
        *DECLINED, *ARGPARSE_ONLY,
    ):
        argvs.append(shlex.split(line))
    for argv in argvs:
        assert _plain(argv) is None, argv
    for line in ARGPARSE_ONLY:
        assert len(argparse_reads(shlex.split(line), capsys)) == 4, line
    for line in DECLINED:
        argv = shlex.split(line)
        error, reason, _ = argparse_reads(argv, capsys)
        assert error == "UsageError", line
        expected = json.dumps({"error": "UsageError", "reason": reason}, separators=(",", ":"))
        assert invoke(capsys, *argv) == (2, expected + "\n"), line


def _python(*args):
    """Run a fresh interpreter on this checkout's zscomb."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(zscomb.__file__)))
    return subprocess.run(
        [sys.executable, *args],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        timeout=60,
    )


def test_cold_start_loads_only_the_leaf_modules():
    lazy = {"dataclasses"} | {
        f"zscomb.{m}"
        for m in ("analysis", "brute", "counting", "dyck", "necklaces", "poincare", "zerosum")
    }
    proc = _python("-c", (
        "import json, sys\n"
        "import zscomb.cli\n"
        "after_import = sorted(sys.modules)\n"
        "code = zscomb.cli.run(['count', 'catalan', '--a', '3', '--b', '5'])\n"
        "after_run = sorted(sys.modules)\n"
        "zscomb.cli.run(['count', 'catalan', '--a', '3'])\n"
        "print(json.dumps([after_import, after_run, code, sorted(sys.modules)]))\n"
    ))
    assert proc.returncode == 0, proc.stderr
    out, usage, summary = proc.stdout.splitlines()
    after_import, after_run, code, after_usage_error = json.loads(summary)
    assert (code, out) == (0, '{"count":"7"}')
    assert not lazy & set(after_import)
    added = {m for m in set(after_run) - set(after_import) if m.startswith("zscomb")}
    assert added == {"zscomb.counting"}
    assert "dataclasses" not in after_run
    # a plain line never imports argparse; a usage error does
    assert not {"argparse", "gettext"} & {*after_import, *after_run}
    assert json.loads(usage)["error"] == "UsageError" and "argparse" in after_usage_error
    proc = _python("-X", "importtime", "-m", "zscomb.cli", *"count catalan --a 2 --b 3".split())
    assert proc.stdout == '{"count":"2"}\n'
    imported = {line.split("|")[-1].strip() for line in proc.stderr.splitlines()}
    assert "zscomb.errors" in imported and not {"argparse", "gettext"} & imported
    # compact JSON comes from _json's encoder; only --pretty imports json
    assert "_json" in imported and not {"json", "json.decoder", "json.encoder"} & imported
    pretty = "count catalan --a 2 --b 3 --pretty".split()
    proc = _python("-X", "importtime", "-m", "zscomb.cli", *pretty)
    assert proc.stdout == '{\n  "count": "2"\n}\n'
    assert "json" in {line.split("|")[-1].strip() for line in proc.stderr.splitlines()}
    # a Dyck bijection compiles no counting, a table no zerosum, and a sweep no brute
    for argv, leaves in (
        ("biject seq-to-dyck --group 3 --vector 2,0,0", ("dyck", "zerosum")),
        ("biject dyck-to-subset --group 5 --word 00101", ("dyck", "zerosum")),
        ("poincare table --group 2,2 --max-s 2 --max-t 2", ("counting", "poincare")),
        ("verify gcp --max-order 12", ("analysis", "counting")),
    ):
        proc = _python("-c", (
            "import json, sys, zscomb.cli\n"
            f"code = zscomb.cli.run({argv.split()!r})\n"
            "print(json.dumps([code, sorted(m for m in sys.modules if m.startswith('zscomb.'))]))\n"
        ))
        code, loaded = json.loads(proc.stdout.splitlines()[-1])
        assert code == 0, proc.stderr
        assert loaded == sorted(f"zscomb.{m}" for m in ("cli", "errors", "groups", *leaves)), argv
    # the package resolves its names on first use, to the defining module's objects
    proc = _python("-c", (
        "import sys, zscomb\n"
        "print('zscomb.counting' in sys.modules, zscomb.counting.__name__)\n"
    ))
    assert proc.stdout.split() == ["False", "zscomb.counting"], proc.stderr
    assert zscomb.__getattr__("counting") is counting
    for name in zscomb.__all__:
        value = getattr(zscomb, name)
        assert getattr(sys.modules[value.__module__], name) is value, name
    namespace = {}
    exec("from zscomb import *", namespace)
    assert namespace.keys() - {"__builtins__"} == set(zscomb.__all__)
    assert set(zscomb.__all__) <= set(dir(zscomb))
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        zscomb.no_such_name


def test_dyck_does_not_load_the_oracles():
    # neither does poincare: its series oracle expands the group algebra
    for module in ("dyck", "poincare"):
        proc = _python("-c", f"import sys, zscomb.{module}; print('zscomb.brute' in sys.modules)")
        assert proc.stdout == "False\n", (module, proc.stderr)


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
    assert out == (
        '{"error":"InvariantError","reason":"cycle-lemma rotation is a Dyck path '
        '(order=7, mass=5, rotation=3)","check":"cycle-lemma rotation is a Dyck path",'
        '"context":{"order":7,"mass":5,"rotation":3}}\n'
    )
    code, out = invoke(capsys, "biject", "subset-to-dyck", "--group", "5", "--subset", "0,1,0,0,1")
    assert code == 3
    assert json.loads(out)["context"] == {"order": 5, "size": 2, "rotation": 3}


def test_inexact_division_exit_3(capsys, monkeypatch):
    monkeypatch.setattr(counting, "comb", lambda a, b: math.comb(a, b) + 1)
    code, out = invoke(capsys, "count", "sequences", "--group", "7", "--length", "5")
    assert (code, out) == (3, '{"error":"ExactDivisionError","reason":"926 is not divisible by 7"}\n')


def test_invariant_check_survives_optimize_flag():
    script = (
        "import sys\n"
        "from zscomb import dyck\n"
        "real = dyck._cycle_lemma_start\n"
        "dyck._cycle_lemma_start = lambda steps: (real(steps) + 1) % len(steps)\n"
        "from zscomb.cli import run\n"
        "sys.exit(run(['biject', 'seq-to-dyck', '--group', '7', '--vector', '0,0,1,1,1,0,2']))\n"
    )
    proc = _python("-O", "-c", script)
    assert proc.returncode == 3, proc.stderr
    assert json.loads(proc.stdout)["error"] == "InvariantError"


def test_failure_row_exits_1_under_optimize_flag():
    # tests/test_analysis.py reaches every verifier's failure rows in process
    script = (
        "import sys\n"
        "from zscomb import analysis\n"
        "real = analysis.rational_catalan\n"
        "analysis.rational_catalan = lambda a, b: real(a, b) + 1\n"
        "from zscomb.cli import run\n"
        "sys.exit(run(['verify', 'cnr', '--n', '2', '--m', '3', '--r', '1']))\n"
    )
    proc = _python("-O", "-c", script)
    assert proc.returncode == 1, proc.stderr
    [failure] = json.loads(proc.stdout)["failures"]
    assert (failure["catalan"], failure["reason"]) == ("3", "coprime case missed Catalan value")


# Each post-check is made to fail by a step that goes one place too far, so
# the group-sum kernel the check reads stays untouched.
BROKEN_STEPS = [
    (
        "zerosum", "cyclic_shift", "lambda vec, l: real(vec, l + 1)",
        "biject complement --group 7 --subset 0,1,0,0,0,0,1",
        "staged shift reaches the target sum",
    ),
    (
        "necklaces", "translate", "lambda group, vec, g: real(group, vec, (g + 1) % group.order)",
        "biject translate-complement --group 4 --subset 1,0,0,0",
        "translated complement is zero-sum",
    ),
    (
        # a factorization that lists 1 as a prime tests the rotation by the
        # whole size, which fixes every gap vector
        "necklaces", "factorize", "lambda n: real(n) + ((1, 1),)",
        "biject pair --group 3 --other 4 --vector 2,0,0 --subset 0,1,1",
        "blue gap vector is aperiodic",
    ),
]


@pytest.mark.parametrize(
    "module,attr,broken,line,check", BROKEN_STEPS, ids=["staged-shift", "translate", "aperiodic"]
)
def test_broken_step_fails_its_post_check(capsys, monkeypatch, module, attr, broken, line, check):
    home = importlib.import_module(f"zscomb.{module}")
    monkeypatch.setattr(home, attr, eval(broken, {"real": getattr(home, attr)}))
    code, out = invoke(capsys, *line.split())
    assert (code, json.loads(out)["error"], json.loads(out)["check"]) == (3, "InvariantError", check)
    script = (
        "import sys\n"
        f"from zscomb import {module}\n"
        f"real = {module}.{attr}\n"
        f"{module}.{attr} = {broken}\n"
        "from zscomb.cli import run\n"
        f"sys.exit(run({line.split()!r}))\n"
    )
    proc = _python("-O", "-c", script)
    assert proc.returncode == 3, proc.stderr
    assert (json.loads(proc.stdout)["error"], json.loads(proc.stdout)["check"]) == ("InvariantError", check)


def test_closed_stdout_exits_4_without_traceback():
    read_end, write_end = os.pipe()
    os.close(read_end)  # no reader is left, so the first write to stdout fails
    src = os.path.dirname(os.path.dirname(os.path.abspath(zscomb.__file__)))
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "zscomb.cli", "count", "subsets", "--group", "65536",
             "--size", "32768"],
            env={**os.environ, "PYTHONPATH": src},
            stdout=write_end,
            stderr=subprocess.PIPE,
            text=True,
            timeout=60,
        )
    finally:
        os.close(write_end)
    assert proc.returncode == 4, proc.stderr
    assert "Traceback" not in proc.stderr
    assert json.loads(proc.stderr) == {
        "error": "BrokenPipeError",
        "reason": "stdout was closed early",
    }


# The child caps its own address space at 1 GiB before it builds the table.
CAPPED_MAIN = (
    "import resource, sys\n"
    "resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))\n"
    "sys.argv = ['zscomb', 'poincare', 'table', '--group', '2', '--max-s', '0', '--max-t', {!r}]\n"
    "from zscomb.cli import main\n"
    "main()\n"
)


@pytest.mark.parametrize("max_t, error, reason", [
    ("1000000000000", "MemoryError", "out of memory"),
    ("100000000000000000000", "OverflowError", "cannot fit 'int' into an index-sized integer"),
])
def test_size_past_memory_exits_5_without_traceback(max_t, error, reason):
    proc = _python("-c", CAPPED_MAIN.format(max_t))
    assert proc.returncode == 5, proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stdout.count("\n") == 1
    assert json.loads(proc.stdout) == {"error": error, "reason": reason}


# A process reaches `entry` three ways: `python -m zscomb.cli`, the module run as
# __main__ after a patch (runpy, as -m does), and the console script's call.
LAUNCHERS = {
    "runpy": "import runpy\nrunpy.run_module('zscomb.cli', run_name='__main__')\n",
    "entry": "from zscomb.cli import entry\nentry()\n",
}
# (argv, exit code, patch as (module, name, replacement)): a patched count
# reaches exits 1, 3 and 5; `python -m` runs only the unpatched lines
PROCESS_CASES = [
    ("scan reciprocity --max-order 40", 0, None),  # about 249 KB, past a 64 KiB pipe buffer
    ("count catalan --a 3", 2, None),
    ("verify cnr --n 2 --m 3 --r 1", 1,
     ("zscomb.analysis", "rational_catalan", "lambda a, b: real(a, b) + 1")),
    ("count sequences --group 7 --length 5", 3,
     ("zscomb.counting", "comb", "lambda a, b: real(a, b) + 1")),
    ("count catalan --a 3 --b 5", 5,
     ("zscomb", "rational_catalan", "lambda a, b: [None] * (1 << 62)")),
]


@pytest.mark.parametrize("launcher,line,code,patch", [
    pytest.param(launcher, *case, id=f"{launcher}-exit-{case[1]}")
    for launcher in ("-m", *LAUNCHERS) for case in PROCESS_CASES
    if launcher != "-m" or case[2] is None
])
def test_process_entry_writes_what_run_writes(capsys, monkeypatch, launcher, line, code, patch):
    # the entry skips module teardown, yet the output arrives whole, the exit
    # code is run's, and an atexit handler registered before it still runs
    script = "import atexit, sys\natexit.register(sys.stderr.write, 'atexit handler ran\\n')\n"
    if patch:
        module, name, broken = patch
        home = importlib.import_module(module)
        monkeypatch.setattr(home, name, eval(broken, {"real": getattr(home, name)}), raising=False)
        script += f"import {module} as home\nreal = home.{name}\nhome.{name} = {broken}\n"
    want = invoke(capsys, *line.split())
    assert want[0] == code and (code == 0 or json.loads(want[1]).keys() & {"error", "failures"})
    if launcher == "-m":
        proc, marker = _python("-m", "zscomb.cli", *line.split()), ""
    else:
        proc = _python("-c", script + LAUNCHERS[launcher], *line.split())
        marker = "atexit handler ran\n"
    assert (proc.returncode, proc.stdout) == want
    assert proc.stderr == marker  # no "Exception ignored", no "Traceback"
