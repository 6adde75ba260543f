"""Disk quadrature, the weighted area integral, and the kernel norm."""

import numpy as np
import pytest

from univalence import quadrature
from univalence.catalog import get, list_catalog
from univalence.errors import SingularSampleError
from univalence.quadrature import (
    MeshSpec,
    QuadratureResult,
    grunsky_kernel_point,
    grunsky_norm,
    integrate_disk,
    prawitz_integral,
    psi_grunsky_identity_check,
)
from univalence.sequences import aharonov_phi
from univalence.catalog import series_at
from univalence.transforms import psi_via_transform

KOEBE = get("koebe")
IDENTITY = get("identity")
CAYLEY = get("cayley")

FAST = MeshSpec(radial_nodes=128, angular_nodes=128)


# ------------------------------------------------------------ mesh / rule


def test_meshspec_validation():
    with pytest.raises(ValueError):
        MeshSpec(radial_nodes=4)
    with pytest.raises(ValueError):
        MeshSpec(grading=0.5)
    for grading in (float("nan"), float("inf")):
        with pytest.raises(ValueError, match="finite"):
            MeshSpec(grading=grading)
    with pytest.raises(ValueError):
        MeshSpec(center=1.0)


def test_meshspec_requires_integer_node_counts():
    for radial, angular in ((16, 16.5), (100.5, 16), (16.0, 16)):
        with pytest.raises(ValueError, match="integers"):
            MeshSpec(radial_nodes=radial, angular_nodes=angular)
    assert MeshSpec(radial_nodes=np.int64(16), angular_nodes=16).radial_nodes == 16


def test_rules_are_built_once_per_node_count(monkeypatch):
    built = []
    leggauss = np.polynomial.legendre.leggauss

    def counting(n):
        built.append(n)
        return leggauss(n)

    monkeypatch.setattr(np.polynomial.legendre, "leggauss", counting)
    quadrature._gauss_legendre.cache_clear()
    prawitz_integral(KOEBE, 0.5, 0.0)
    grunsky_norm(KOEBE, 0.3)
    # the coarse and the fine radial rule, each once for both integrals
    assert built == [256, 512]


def test_cached_rule_is_read_only():
    x, wx = quadrature._gauss_legendre(16)
    assert quadrature._gauss_legendre(16)[0] is x
    assert not (x.flags.writeable or wx.flags.writeable)
    with pytest.raises(ValueError):
        x[0] = 0.0


def test_quadrature_result_validation():
    with pytest.raises(ValueError):
        QuadratureResult(value=float("inf"), error_estimate=0.0, mesh=FAST)
    with pytest.raises(ValueError):
        QuadratureResult(value=1.0, error_estimate=-1.0, mesh=FAST)


def test_disk_area_centered():
    res = integrate_disk(lambda w: np.ones(w.shape), FAST)
    assert abs(res.value - 1.0) <= 1e-10


def test_disk_area_off_center_chord_formula():
    mesh = MeshSpec(radial_nodes=128, angular_nodes=128, center=0.5)
    res = integrate_disk(lambda w: np.ones(w.shape), mesh)
    assert abs(res.value - 1.0) <= 1e-8


def test_second_moment():
    res = integrate_disk(lambda w: np.abs(w) ** 2, FAST)
    assert abs(res.value - 0.5) <= 1e-10


def test_singular_sample_reported():
    def bad(w):
        out = np.ones(w.shape)
        out[0, 0] = np.nan
        return out

    with pytest.raises(SingularSampleError, match="w="):
        integrate_disk(bad, FAST)


# ------------------------------------------------------------ area integral


def test_area_identity_vanishes_at_origin():
    res = prawitz_integral(IDENTITY, 1.0, 0.0, FAST)
    assert abs(res.value) <= 1e-8


def test_area_koebe_budget_equalities():
    res = prawitz_integral(KOEBE, 1.0, 0.0, FAST)
    assert abs(res.value - 1.0) <= 5e-3
    res = prawitz_integral(KOEBE, 0.5, 0.0, FAST)
    assert abs(res.value - 2.0) <= 1e-2


def test_area_budget_inequality_sweep():
    mesh_cache = {}
    for fn in list_catalog():
        if not fn.flags.univalent_on_disk:
            continue
        for lam in (0.25, 0.5, 1.0):
            for z in (0.0, 0.3, 0.3 + 0.2j):
                mesh = mesh_cache.setdefault(
                    z, MeshSpec(radial_nodes=128, angular_nodes=128, center=z)
                )
                res = prawitz_integral(fn, lam, z, mesh)
                assert (
                    res.value <= 1.0 / lam + 3.0 * res.error_estimate + 1e-12
                ), (fn.label, lam, z, res.value, res.error_estimate)


def test_area_refuses_non_univalent():
    with pytest.raises(ValueError, match="univalent"):
        prawitz_integral(get("exp_scale", k=4), 0.5, 0.0, FAST)


def test_area_validates_lambda_and_mesh_center():
    with pytest.raises(ValueError):
        prawitz_integral(KOEBE, 1.5, 0.0, FAST)
    with pytest.raises(ValueError, match="centered"):
        prawitz_integral(KOEBE, 0.5, 0.3, FAST)  # FAST is centered at 0


# ------------------------------------------------------------ kernel


def test_kernel_identity_vanishes():
    assert grunsky_kernel_point(IDENTITY, 0.2, 0.5) == 0.0
    w = np.array([0.1, 0.4 + 0.2j])
    assert np.max(np.abs(grunsky_kernel_point(IDENTITY, 0.2, w))) == 0.0


def test_kernel_koebe_is_constant_minus_one():
    # at the origin the slit-map kernel is identically -1
    assert grunsky_kernel_point(KOEBE, 0.0, 0.2, delta=0.01) == pytest.approx(
        -1.0, abs=1e-13
    )
    assert grunsky_kernel_point(KOEBE, 0.0, 1e-9) == pytest.approx(-1.0, abs=1e-12)


def test_kernel_diagonal_limit_is_schwarzian_over_six():
    for fn in (KOEBE, get("exp_scale", k=1.0)):
        z = 0.2 + 0.1j
        phi = aharonov_phi(series_at(fn, z, 8), 2)
        val = grunsky_kernel_point(fn, z, z + 1e-10)
        assert val == pytest.approx(-phi.values[1], abs=1e-8)


def test_kernel_dual_route_band_agreement():
    delta = 0.15
    radii = (0.5 * delta, 0.8 * delta, delta, 1.4 * delta, 2.0 * delta)
    worst = 0.0
    for fn in list_catalog():
        if not fn.flags.locally_univalent_on_disk:
            continue
        for r in radii:
            for ang in (0.4, 2.3, 4.0):
                w = 0.1 + r * np.exp(1j * ang)
                near = grunsky_kernel_point(fn, 0.1, w, delta=10.0)
                far = grunsky_kernel_point(fn, 0.1, w, delta=1e-12)
                worst = max(worst, abs(near - far))
    assert worst <= 1e-9


# ------------------------------------------------------------ kernel norm


def test_norm_vanishes_for_moebius():
    assert grunsky_norm(IDENTITY, 0.0, FAST).value <= 1e-8
    assert grunsky_norm(CAYLEY, 0.3, MeshSpec(128, 128, 2.0, 0.3)).value <= 1e-8


def test_norm_koebe_origin():
    res = grunsky_norm(KOEBE, 0.0, FAST)
    assert abs(res.value - 1.0) <= 1e-2


def test_norm_koebe_matches_exterior_sum_route():
    z = 0.3
    mesh = MeshSpec(128, 128, 2.0, z)
    res = grunsky_norm(KOEBE, z, mesh)
    psi = psi_via_transform(KOEBE, z, 64)
    n = np.arange(1, 65)
    lhs = float(np.sum(n * np.abs(psi[1:]) ** 2))
    rhs = (1 - abs(z) ** 2) ** 2 * res.value**2
    assert abs(lhs - rhs) / max(lhs, rhs) <= 1e-2


def test_norm_requires_univalent():
    with pytest.raises(ValueError):
        grunsky_norm(get("exp_scale", k=4), 0.0, FAST)


# ------------------------------------------------------------ identity check


def test_psi_identity_residual_koebe():
    assert psi_grunsky_identity_check(KOEBE, 0.0, 64, FAST) <= 2e-2
    mesh = MeshSpec(128, 128, 2.0, 0.3)
    assert psi_grunsky_identity_check(KOEBE, 0.3, 64, mesh) <= 2e-2


def test_psi_identity_requires_truncation_depth(monkeypatch):
    # refused before the quadrature runs, not after a full norm
    def no_quadrature(*args, **kwargs):
        raise AssertionError("the integrand must not be evaluated")

    monkeypatch.setattr(quadrature, "integrate_disk", no_quadrature)
    for N in (16, 31):
        with pytest.raises(ValueError, match="N must be >= 32"):
            psi_grunsky_identity_check(KOEBE, 0.0, N, FAST)


@pytest.mark.parametrize(
    "compute,value,error",
    [
        (lambda: prawitz_integral(KOEBE, 0.5, 0.0), 2.0, 4.440892098500626e-16),
        (
            lambda: prawitz_integral(get("rotated_koebe", theta=1.1), 0.3, 0.2 - 0.15j),
            3.3310030606546888,
            0.009803679150920619,
        ),
        (
            lambda: prawitz_integral(CAYLEY, 1.0, 0.25 + 0.1j),
            6.477140087012644e-29,
            2.1085946420422677e-30,
        ),
        (lambda: grunsky_norm(KOEBE, 0.3), 1.0989010989011012, 1.9195756095768916e-15),
    ],
    ids=["area-koebe", "area-rotated-koebe", "area-cayley", "norm-koebe"],
)
def test_default_mesh_results_are_pinned(compute, value, error):
    # exact figures on the default 256^2 + 512^2 mesh: a rewrite of the rule or
    # of the integrands must reproduce them bit for bit
    res = compute()
    assert (res.value, res.error_estimate) == (value, error)


def test_identity_check_residual_is_pinned():
    assert psi_grunsky_identity_check(KOEBE, 0.2 + 0.1j, 64) == 3.996802888650549e-15


def test_error_estimate_brackets_known_value():
    # the refinement estimate should not grossly understate the true error
    res = prawitz_integral(KOEBE, 1.0, 0.3, MeshSpec(64, 64, 2.0, 0.3))
    assert res.value <= 1.0 + 3.0 * res.error_estimate + 1e-12
