"""Tests for the in-text claims evaluator and its CLI exit code."""

import pytest

from repro.experiments.claims import ClaimResult, evaluate_claims
from repro.experiments.runner import main as cli_main


@pytest.fixture(scope="module")
def results():
    return evaluate_claims()


def test_every_claim_holds(results):
    failing = [r.claim_id for r in results if not r.holds]
    assert not failing, f"claims failing: {failing}"


def test_all_sections_covered(results):
    sections = {r.section.split(" ")[0] for r in results}
    assert "Section" in sections.pop() or sections  # sanity
    ids = {r.claim_id for r in results}
    assert ids == {"ordering", "rho-half-to-one", "node-size-rules",
                   "link-crossings", "recovery",
                   "restrictive-serialization"}


def test_measured_strings_are_informative(results):
    for r in results:
        assert r.measured
        assert any(ch.isdigit() for ch in r.measured)


def test_cli_claims_exit_code(tmp_path, capsys, monkeypatch):
    """A failed in-text claim fails ``btree-perf figures``."""
    from repro.experiments import claims

    fake = ClaimResult("x", "Section 0", "up is down", "no", False)
    monkeypatch.setattr(claims, "_CLAIMS", (lambda: fake,))
    code = cli_main(["figures", "fig11", "--no-cache",
                     "--formats", "svg", "--out", str(tmp_path)])
    assert code == 1
    assert "CLAIM FAILED x: no" in capsys.readouterr().err
