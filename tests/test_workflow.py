"""The CI workflow parses and its tier-1 job is well formed."""

from pathlib import Path

import pytest
from line_count import code_lines, main
from statement_report import KNOWN, unexpected

WORKFLOW = Path(__file__).resolve().parent.parent / ".github" / "workflows" / "tests.yml"


def test_tier1_job_is_well_formed():
    yaml = pytest.importorskip("yaml")
    doc = yaml.safe_load(WORKFLOW.read_text())
    assert True in doc  # PyYAML reads the bare `on:` key as the boolean True
    job = doc["jobs"]["tier1"]
    assert isinstance(job["timeout-minutes"], int) and job["timeout-minutes"] > 0
    assert job["steps"]
    for step in job["steps"]:
        assert "run" in step or "uses" in step, step


def test_ci_runs_every_map_both_ways_at_scale():
    # tier-1 runs the round trip at |G| = 10^4; this CI step is its only run at
    # order 300,000, and (5, 60000) is the group where translate-complement translates
    yaml = pytest.importorskip("yaml")
    steps = yaml.safe_load(WORKFLOW.read_text())["jobs"]["tier1"]["steps"]
    assert any(
        "timeout 20" in run
        and "every_map_both_ways" in run
        and all(order in run for order in ("300001", "150000", "60000"))
        for run in (step.get("run", "") for step in steps)
    )


def test_ci_reads_the_cli_status_behind_a_closed_pipe():
    # bash without pipefail reports the pipeline's last status (head's 0), so the
    # step must read the CLI's own from PIPESTATUS
    yaml = pytest.importorskip("yaml")
    steps = yaml.safe_load(WORKFLOW.read_text())["jobs"]["tier1"]["steps"]
    (run,) = [step["run"] for step in steps if "| head -c" in step.get("run", "")]
    assert "zscomb.cli count subsets --group 262144 --size 131072" in run
    assert 'status="${PIPESTATUS[0]}"' in run and 'test "$status" -eq 4' in run
    assert "grep -q Traceback" in run


def test_ci_compares_the_console_script_with_the_module():
    # the installed script and `python -m` both end through cli.entry; the step
    # compares a report past the pipe buffer byte for byte and keeps the exit-2 check
    yaml = pytest.importorskip("yaml")
    steps = yaml.safe_load(WORKFLOW.read_text())["jobs"]["tier1"]["steps"]
    name = "The installed console script runs"
    (run,) = [step["run"] for step in steps if step.get("name") == name]
    assert "zscomb scan reciprocity --max-order 40 >" in run
    assert "python -m zscomb.cli scan reciprocity --max-order 40 >" in run
    assert 'cmp "$RUNNER_TEMP/scan-script.json" "$RUNNER_TEMP/scan-module.json"' in run
    assert "zscomb count catalan --a 3 >" in run and 'test "$status" -eq 2' in run
    # tier-1 runs whole against the installed package, not from src/
    assert run.rstrip().endswith("env -u PYTHONPATH python -m pytest -q")


def _step(start):
    yaml = pytest.importorskip("yaml")
    steps = yaml.safe_load(WORKFLOW.read_text())["jobs"]["tier1"]["steps"]
    (step,) = [step for step in steps if step.get("name", "").startswith(start)]
    return step


def test_ci_reports_both_src_line_counts():
    step = _step("Report the src/ line total")
    assert step["if"] == "matrix.python-version == '3.11'"
    assert "wc -l src/zscomb/*.py" in step["run"]
    assert "python tests/line_count.py src/zscomb/*.py" in step["run"]


def test_code_lines_leave_out_comments_docstrings_and_blanks():
    source = (
        '"""Module\ndocstring."""\n'
        "\n"
        "# a comment\n"
        "def f(x):  # code with a comment\n"
        '    """One line."""\n'
        '    return """not a\n'
        '    docstring"""\n'
        "class C: '''doc'''; y = [\n"
        "    1,\n"
        "]\n"
    )
    # the def, the return and both lines of its string, the class line and the list's two
    assert code_lines(source) == 6


def test_line_count_prints_both_totals():
    paths = sorted((Path(__file__).resolve().parent.parent / "src" / "zscomb").glob("*.py"))
    texts = [path.read_text(encoding="utf-8") for path in paths]
    lines, code = sum(len(t.splitlines()) for t in texts), sum(map(code_lines, texts))
    assert main(paths) == f"{lines} lines, {code} of them code (a token outside comments and docstrings)"
    assert 0 < code < lines  # the total holds prose that the code count leaves out


def test_ci_gates_the_unrun_statements():
    step = _step("No src/ statement goes unrun")
    assert step["if"] == "matrix.python-version == '3.11'"
    run = step["run"]
    assert "python -m pytest -q -W error -p tests.statement_report" in run
    assert "|| status=$?" in run and run.rstrip().endswith('test "$status" -eq 0')
    assert KNOWN == {("cli.py", "make_encoder = None"), ("cli.py", "entry()")}
    missed = [("cli.py", 37, "make_encoder = None"), ("groups.py", 9, "return out"),
              ("cli.py", 293, "entry()"), ("cli.py", 12, "main()")]
    assert unexpected(missed) == [("groups.py", 9, "return out"), ("cli.py", 12, "main()")]
