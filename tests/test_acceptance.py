"""Acceptance gate: every criterion at its stated tolerance, one line each.

Run with ``pytest -s tests/test_acceptance.py`` to see the PASS/FAIL lines;
the same checks back the ``univalence selftest`` CLI subcommand.
"""

import pytest

from univalence.acceptance import CHECKS, run_check


@pytest.mark.parametrize("number,check", CHECKS, ids=[f"{n}-{c.__name__}" for n, c in CHECKS])
def test_acceptance_criterion(number, check):
    result = run_check(number, check)
    assert result.passed, f"[{number}] {result.name}: {result.detail}"
