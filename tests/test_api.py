"""Public surface: the reference routes live only in univalence.oracles."""

import ast
import importlib
import pathlib

import pytest

import univalence

#: reference routes moved out of the product modules
MOVED = (
    "lemma2_coefficients",
    "criterion_terms",
    "compose_with_automorphism",
    "ps_compose",
    "psi_sequence",
    "phi_capital_combinatorial",
    "check_phi_recurrence",
)

#: duplicate routes and helpers that no longer exist
DELETED = (
    "boundedness_probe",
    "_criterion_terms_stable",
    "koebe_transform",
    "mobius_sigma_series",
    "_horner_scalar",
)

PRODUCT_MODULES = ("series", "catalog", "sequences", "transforms", "criteria", "quadrature", "cli")

SRC = pathlib.Path(univalence.__file__).parent


@pytest.mark.parametrize("module", ["univalence"] + [f"univalence.{m}" for m in PRODUCT_MODULES])
def test_product_modules_carry_no_reference_route(module):
    mod = importlib.import_module(module)
    assert [name for name in MOVED + DELETED if hasattr(mod, name)] == []


def test_reference_routes_defined_in_oracles():
    oracles = importlib.import_module("univalence.oracles")
    for name in MOVED:
        assert getattr(oracles, name).__module__ == "univalence.oracles"
    assert [name for name in DELETED if hasattr(oracles, name)] == []


def _imports_oracles(node) -> bool:
    if isinstance(node, ast.Import):
        return any(alias.name.split(".")[-1] == "oracles" for alias in node.names)
    if isinstance(node, ast.ImportFrom):
        module = node.module or ""
        if module.split(".")[-1] == "oracles":
            return True
        return module in ("", "univalence") and any(a.name == "oracles" for a in node.names)
    return False


def test_only_acceptance_imports_oracles():
    importers = {
        path.name
        for path in SRC.glob("*.py")
        if any(_imports_oracles(node) for node in ast.walk(ast.parse(path.read_text())))
    }
    assert importers == {"acceptance.py"}
