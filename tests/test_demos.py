"""Smoke test: every walk-through under demos/ runs and prints."""

import os

import pytest

from test_cli import run_python

DEMOS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "demos")


@pytest.mark.parametrize("name", sorted(f for f in os.listdir(DEMOS) if f.endswith(".py")))
def test_demo_runs(name):
    # run_python raises CalledProcessError on a nonzero exit
    path = os.path.join(DEMOS, name)
    assert run_python(f"import runpy; runpy.run_path({path!r}, run_name='__main__')")
