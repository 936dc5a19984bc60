"""The CI workflow parses and its tier-1 job is well formed."""

from pathlib import Path

import pytest

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
