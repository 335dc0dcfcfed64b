"""Smoke test: every walk-through under demos/, and the README's library example, runs and prints."""

import os

import pytest

from test_cli import run_python

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DEMOS = os.path.join(ROOT, "demos")


@pytest.mark.parametrize("name", sorted(f for f in os.listdir(DEMOS) if f.endswith(".py")))
def test_demo_runs(name):
    # run_python raises CalledProcessError on a nonzero exit
    path = os.path.join(DEMOS, name)
    assert run_python(f"import runpy; runpy.run_path({path!r}, run_name='__main__')")


def test_readme_python_example_runs():
    # the first ```python block of README.md, so the documented example keeps to the API
    with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as fh:
        code = fh.read().split("```python\n", 1)[1].split("```", 1)[0]
    assert run_python(code)
