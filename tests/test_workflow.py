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
