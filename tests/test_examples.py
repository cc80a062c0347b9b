"""Smoke tests: every example script runs to completion.

Examples are part of the public surface; refactors must not break them.
The heavyweight ``validate_against_simulation.py`` (a full validation
sweep) is too slow for the suite and is not run by it; only its
presence is checked here, and the CI ``smoke`` job runs it.
"""

import pathlib
import runpy
import sys

import pytest

EXAMPLES_DIR = pathlib.Path(__file__).parent.parent / "examples"

#: Scripts cheap enough to run inside the unit-test suite.
FAST_EXAMPLES = (
    "quickstart.py",
    "buffer_sizing.py",
    "profile_saturation.py",
    "index_sizing.py",
    "capacity_planning.py",
    "recovery_tradeoff.py",
)


@pytest.mark.parametrize("script", FAST_EXAMPLES)
def test_example_runs(script, capsys, monkeypatch):
    path = EXAMPLES_DIR / script
    assert path.exists(), f"missing example {script}"
    monkeypatch.setattr(sys, "argv", [str(path)])
    runpy.run_path(str(path), run_name="__main__")
    out = capsys.readouterr().out
    assert len(out) > 100  # produced a real report


def test_every_example_has_a_docstring_and_main():
    for path in EXAMPLES_DIR.glob("*.py"):
        source = path.read_text()
        assert source.lstrip().startswith(('"""', '#!')), path.name
        assert 'if __name__ == "__main__":' in source, path.name


def test_examples_cover_the_paper_stories():
    names = {path.name for path in EXAMPLES_DIR.glob("*.py")}
    assert "quickstart.py" in names
    assert "validate_against_simulation.py" in names  # Figures 3-8
    assert "recovery_tradeoff.py" in names            # Section 7
    assert "index_sizing.py" in names                 # Section 6
    assert "capacity_planning.py" in names            # Section 1
