"""Public surface: the reference routes live only in univalence.oracles, only the
CLI names its flags, and each entry point leaves its argument checks to the routine
that reads the argument."""

import ast
import importlib
import pathlib
import re

import pytest

import univalence
from univalence import criteria, quadrature, transforms
from univalence.catalog import get

KOEBE = get("koebe")

#: reference routes moved out of the product modules
MOVED = (
    "lemma2_coefficients",
    "criterion_terms",
    "compose_with_automorphism",
    "ps_compose",
    "psi_sequence",
    "phi_capital_combinatorial",
    "check_phi_recurrence",
    "quadrature_grunsky_norm",
    "quadrature_identity_residual",
    "MeshSpec",
    "integrate_disk",
    "quadrature_area_integral",
    "_pullback_kernel_series",
    "_polar_rule",
    "_gauss_legendre",
    # the pointwise Grunsky kernel, which only the norm's disk quadrature integrates
    "grunsky_kernel_point",
    "_grunsky_series",
    "_default_delta",
    # series helpers and exceptions that only the reference routes use
    "gen_binomial",
    "ps_mul",
    "ps_derivative",
    "ps_eval",
    "EnumerationLimitError",
    "QuadratureError",
    "SingularSampleError",
)

#: duplicate routes and helpers that no longer exist
DELETED = (
    "boundedness_probe",
    "_criterion_terms_stable",
    "koebe_transform",
    "mobius_sigma_series",
    "_horner_scalar",
    "_radial_branch_anchor",
    "_identity_residual",
    "_grunsky",
    "_grunsky_kernel",
    "_parse_mesh",
    "_MESH_MAXIMUM",
    # each catalog family is one constructor
    "_DEFAULT_PARAMS",
    "_make_identity",
    "_make_koebe",
    "_make_rotated_koebe",
    "_make_bounded",
    "_make_sigma",
    "_make_cayley",
    "_make_exp_scale",
    "_make_quad_poly",
    "_identity_coeffs",
    "_rotated_koebe_coeffs",
    "_bounded_coeffs",
    "_sigma_coeffs",
    "_cayley_coeffs",
    "_exp_scale_coeffs",
    "_quad_poly_coeffs",
    "_const_one",
    # one derivative refusal, one range table for the integer flags
    "_require_first_derivative",
    "_MINIMUM",
    "_MAXIMUM",
    "_ENGINE_MAXIMUM",
    "_SERIES_MAXIMUM",
    # payloads hold complex values, rendered as {re, im} by the JSON and CSV writers
    "_cpx",
    "_fields",
    # every series product is taken about one center
    "CenterMismatchError",
    "_check_centers",
    "_common_order",
    # each argument is checked once, by the routine that reads it
    "_check_tol",
    # each subparser carries its runner and its lambda ceiling
    "_DISPATCH",
    "_LAMBDA_MAXIMUM",
)

PRODUCT_MODULES = ("errors", "series", "catalog", "sequences", "transforms", "criteria", "quadrature", "cli")

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


def test_series_and_errors_hold_only_product_names():
    series = importlib.import_module("univalence.series")
    errors = importlib.import_module("univalence.errors")
    assert series.__all__ == ["PowerSeries", "ps_recip", "ps_pow_real"]
    assert [name for name, obj in vars(errors).items() if isinstance(obj, type)] == [
        "UnivalenceError",
        "NonInvertibleSeriesError",
        "NormalizationError",
        "NotLocallyUnivalentError",
        "SeriesOverflowError",
        "ConfigError",
    ]


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


def _reads(tree: ast.Module, skip: str | None = None) -> set[str]:
    """Names and attributes that ``tree`` reads, outside its top-level definition ``skip``;
    an import or an ``__all__`` string is no read."""
    return {
        node.id if isinstance(node, ast.Name) else node.attr
        for top in tree.body
        if getattr(top, "name", None) != skip
        for node in ast.walk(top)
        if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load)
    }


def test_every_public_product_name_has_a_reader():
    # a public name that only its definition, its __all__ entry and re-exports mention
    # serves no product route: it belongs with the reference routes in oracles
    readers = {m: ast.parse((SRC / f"{m}.py").read_text()) for m in PRODUCT_MODULES + ("acceptance",)}
    bench = "".join(path.read_text() for path in (SRC.parents[1] / "bench").glob("*.py"))
    unread = [
        f"{module}.{name}"
        for module in PRODUCT_MODULES
        for name in getattr(importlib.import_module(f"univalence.{module}"), "__all__", ())
        if not any(name in _reads(tree, name if m == module else None) for m, tree in readers.items())
        and not re.search(rf"\b{name}\b", bench)
    ]
    assert unread == []


#: names of the disk quadrature, which only the oracle module may mention
QUADRATURE_NAMES = ("leggauss", "integrate_disk", "MeshSpec", "_polar_rule")


def test_disk_quadrature_stays_off_the_product_path():
    mentions = {
        path.name
        for path in SRC.glob("*.py")
        if any(name in path.read_text() for name in QUADRATURE_NAMES)
    }
    assert mentions == {"oracles.py"}
    assert [name for name in QUADRATURE_NAMES if hasattr(univalence, name)] == []


def test_quadrature_imports_nothing_from_transforms():
    # the sums read the engine only through criteria._partial_sums
    tree = ast.parse((SRC / "quadrature.py").read_text())
    modules = [
        node.module or "" for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
    ] + [alias.name for node in ast.walk(tree) if isinstance(node, ast.Import) for alias in node.names]
    assert [m for m in modules if m.split(".")[-1] == "transforms"] == []


def _imports_config_error(node) -> bool:
    return isinstance(node, (ast.Import, ast.ImportFrom)) and any(
        alias.name.split(".")[-1] == "ConfigError" for alias in node.names
    )


def test_only_the_cli_names_its_flags():
    # the library refuses with plain ValueErrors; cli.run names the flag
    for module in PRODUCT_MODULES:
        if module == "cli":
            continue
        text = (SRC / f"{module}.py").read_text()
        assert not any(_imports_config_error(node) for node in ast.walk(ast.parse(text))), module
        assert re.findall(r"--[a-z]", text) == [], module


ENTRIES = {
    "prawitz_integral": lambda z: quadrature.prawitz_integral(KOEBE, 0.5, z),
    "grunsky_norm": lambda z: quadrature.grunsky_norm(KOEBE, z),
    "psi_grunsky_identity_check": lambda z: quadrature.psi_grunsky_identity_check(KOEBE, z, 64),
    "decay_bound_checks": lambda z: criteria.decay_bound_checks(KOEBE, z, 4, 0.5),
    "univalence_criterion": lambda z: criteria.univalence_criterion(KOEBE, 0.5, z, 8),
    "psi_via_transform": lambda z: transforms.psi_via_transform(KOEBE, z, 4),
}


@pytest.mark.parametrize("z", [1, 2, -1j, float("nan"), complex(0.3, float("nan"))], ids=repr)
@pytest.mark.parametrize("entry", ENTRIES)
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_entries_refuse_points_off_the_disk(entry, z):
    # no entry checks the point itself: the engine or series_at, which reads it, refuses it
    with pytest.raises(ValueError):
        ENTRIES[entry](z)
