"""The weighted area integral and the Grunsky norm as coefficient sums, the Grunsky
kernel, and the disk quadrature that stays as their test oracle."""

import inspect
import json
import math

import numpy as np
import pytest

from univalence import criteria, oracles
from univalence.catalog import from_spec, get, list_catalog
from univalence.cli import run
from univalence.oracles import MeshSpec, SingularSampleError, integrate_disk, quadrature_area_integral
from univalence.quadrature import (
    QuadratureResult,
    grunsky_kernel_point,
    grunsky_norm,
    prawitz_integral,
    psi_grunsky_identity_check,
)
from univalence.sequences import aharonov_phi
from univalence.catalog import series_at
from univalence.criteria import univalence_criterion
from univalence.transforms import psi_via_transform

KOEBE = get("koebe")
IDENTITY = get("identity")
CAYLEY = get("cayley")

FAST = MeshSpec(radial_nodes=128, angular_nodes=128)

#: (1 - |z|^2) U_f(z) is exactly 1 for full mappings and 0 for Moebius maps
FULL_MAPPINGS = ("koebe", "rotated_koebe:theta=2", "rotated_koebe:theta=-0.7", "rotated_koebe:theta=1.1")
MOEBIUS = ("identity", "bounded:b=1", "bounded:b=0.5-0.3i", "sigma:zeta=0.3", "sigma:zeta=-0.2+0.5i", "cayley")
OTHERS = ("quad_poly:a=0.3", "quad_poly:a=0.5", "exp_scale:k=1", "exp_scale:k=0.5")
TAIL_POINTS = (0.0, 0.3, 0.2 - 0.45j, 0.6, -0.6j, 0.9, 0.95j, 0.99j, 0.995)

AREA_FULL_MAPPINGS = ("koebe", "rotated_koebe:theta=1.1", "rotated_koebe:theta=2", "rotated_koebe:theta=3.782367")


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
    oracles._gauss_legendre.cache_clear()
    quadrature_area_integral(KOEBE, 0.5, 0.0)
    oracles.quadrature_grunsky_norm(KOEBE, 0.3)
    # the coarse and the fine radial rule, each once for both integrals
    assert built == [256, 512]


def test_cached_rule_is_read_only():
    x, wx = oracles._gauss_legendre(16)
    assert oracles._gauss_legendre(16)[0] is x
    assert not (x.flags.writeable or wx.flags.writeable)
    with pytest.raises(ValueError):
        x[0] = 0.0


def test_quadrature_result_validation():
    with pytest.raises(ValueError):
        QuadratureResult(value=float("inf"), error_estimate=0.0)
    with pytest.raises(ValueError):
        QuadratureResult(value=1.0, error_estimate=-1.0)


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
    for mesh in (FAST, MeshSpec(64, 64, 2.0)):
        res = quadrature_area_integral(IDENTITY, 1.0, 0.0, mesh)
        assert abs(res.value) <= 1e-8


def test_area_koebe_budget_equalities():
    res = quadrature_area_integral(KOEBE, 1.0, 0.0, FAST)
    assert abs(res.value - 1.0) <= 5e-3
    res = quadrature_area_integral(KOEBE, 0.5, 0.0, FAST)
    assert abs(res.value - 2.0) <= 1e-2


def test_area_budget_inequality_sweep():
    for fn in list_catalog():
        if not fn.flags.univalent_on_disk:
            continue
        for lam in (0.25, 0.5, 1.0):
            for z in (0.0, 0.3, 0.3 + 0.2j):
                res = prawitz_integral(fn, lam, z)
                assert (
                    res.value <= 1.0 / lam + 3.0 * res.error_estimate + 1e-12
                ), (fn.label, lam, z, res.value, res.error_estimate)


def test_area_refuses_non_univalent():
    for route in (prawitz_integral, quadrature_area_integral):
        with pytest.raises(ValueError, match="univalent"):
            route(get("exp_scale", k=4), 0.5, 0.0)


def test_area_validates_lambda_and_mesh_center():
    for route in (prawitz_integral, quadrature_area_integral):
        for lam in (0.0, 1.5):
            with pytest.raises(ValueError, match="lam"):
                route(KOEBE, lam, 0.0)
    with pytest.raises(ValueError, match="centered"):
        quadrature_area_integral(KOEBE, 0.5, 0.3, FAST)  # FAST is centered at 0


@pytest.mark.parametrize("spec", AREA_FULL_MAPPINGS)
def test_area_sum_brackets_full_mapping_budget(spec):
    # the sum is a lower bound with no clip, and its tail estimate stops at 1/lam;
    # it reaches 1/lam up to |z| = 0.6, while at lam = 0.3 and |z| >= 0.9 it can
    # fall short of the gap
    fn = from_spec(spec)
    for lam in (0.3, 0.5, 1.0):
        for z in TAIL_POINTS:
            res = prawitz_integral(fn, lam, z)
            assert res.value <= (1.0 / lam) * (1 + 1e-14), (lam, z, res)
            assert res.value + res.error_estimate <= (1.0 / lam) * (1 + 1e-13), (lam, z, res)
            if abs(z) <= 0.6:
                assert 1.0 / lam <= (res.value + res.error_estimate) * (1 + 1e-13), (lam, z, res)


def test_area_sum_vanishes_for_moebius():
    # at lam = 1 for every Moebius map; below 1 only the identity's vanishes at z = 0
    cases = [(spec, 1.0, z) for spec in MOEBIUS for z in TAIL_POINTS]
    cases += [("identity", lam, 0.0) for lam in (0.3, 0.5)]
    for spec, lam, z in cases:
        res = prawitz_integral(from_spec(spec), lam, z)
        assert max(res.value, res.error_estimate) <= 1e-8, (spec, lam, z, res)


@pytest.mark.parametrize(
    "spec,lam,z",
    [
        ("koebe", 0.5, 0.2),
        ("quad_poly:a=0.4", 0.3, 0.2 - 0.15j),
        ("exp_scale:k=1", 0.5, 0.1 + 0.2j),
        ("cayley", 1.0, 0.25 + 0.1j),
        ("bounded:b=0.5", 0.7, -0.3),
        ("identity", 0.8, 0.3),
    ],
)
def test_area_sum_agrees_with_quadrature_oracle(spec, lam, z):
    fn = from_spec(spec)
    res = prawitz_integral(fn, lam, z)
    quad = quadrature_area_integral(fn, lam, z)
    if quad.error_estimate < 2e-15:
        assert abs(res.value - quad.value) <= 2e-15
    else:
        assert abs(res.value - quad.value) <= quad.error_estimate + res.error_estimate


def test_area_sum_stays_within_budget_where_the_quadrature_overshoots():
    # rotated Koebe at lam = 0.3, z = 0.3: the quadrature reads 3.33453 +- 3.8e-3,
    # above 1/lam; the sum reads 3.333299 with a tail of 3.4e-5 that reaches 1/lam
    fn, lam, z = get("rotated_koebe", theta=2), 0.3, 0.3
    quad = quadrature_area_integral(fn, lam, z)
    res = prawitz_integral(fn, lam, z)
    assert quad.value > 1.0 / lam
    assert res.value <= 1.0 / lam <= res.value + res.error_estimate
    assert res.error_estimate <= 1e-4
    assert abs(res.value - quad.value) <= quad.error_estimate


@pytest.mark.parametrize(
    "spec", ["koebe", "rotated_koebe:theta=1.1", "bounded:b=0.5-0.3i", "quad_poly:a=0.3", "exp_scale:k=1", "cayley"]
)
def test_area_integral_is_the_criterion_sum_over_lam_squared(spec):
    # one partial-sum routine: the same summation order, so equal bit for bit
    fn = from_spec(spec)
    for lam in (0.3, 0.5, 1.0):
        for z in (0.0, 0.3, 0.2 - 0.45j, 0.9):
            T = univalence_criterion(fn, lam, z, 4096).T_N
            assert T / lam**2 == prawitz_integral(fn, lam, z).value, (lam, z)


def test_area_routes_make_one_engine_call_and_no_quadrature(monkeypatch, capsys):
    calls = []
    engine = criteria.phi_capital_recentered

    def counting(*args):
        calls.append(args)
        return engine(*args)

    def no_quadrature(*args, **kwargs):
        raise AssertionError("the disk quadrature is off the area route")

    monkeypatch.setattr(criteria, "phi_capital_recentered", counting)
    monkeypatch.setattr(oracles, "integrate_disk", no_quadrature)
    assert prawitz_integral(KOEBE, 0.5, 0.3).value == pytest.approx(2.0, rel=1e-14)
    assert run(["area", "--fn", "koebe", "--lambda", "0.5", "--z", "0.3"]) == 0
    assert "mesh" not in json.loads(capsys.readouterr().out)
    assert [args[2:] for args in calls] == [(0.5, 4096), (0.5, 4096)]
    assert "mesh" not in inspect.signature(prawitz_integral).parameters


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
    # pure roundoff up to the circle: the tail rule must not read it as a
    # slowly decaying sum
    for spec in MOEBIUS:
        for z in TAIL_POINTS:
            res = grunsky_norm(from_spec(spec), z)
            bound = 1e-10 if abs(z) <= 0.6 else 1e-8
            assert max(res.value, res.error_estimate) <= bound, (spec, z, res)


def test_norm_koebe_origin():
    res = grunsky_norm(KOEBE, 0.0)
    assert abs(res.value - 1.0) <= 1e-2


def test_norm_koebe_matches_exterior_sum_route():
    # the quadrature norm of the oracle against the exterior coefficients
    z = 0.3
    mesh = MeshSpec(128, 128, 2.0, z)
    res = oracles.quadrature_grunsky_norm(KOEBE, z, mesh)
    psi = psi_via_transform(KOEBE, z, 64)
    n = np.arange(1, 65)
    lhs = float(np.sum(n * np.abs(psi[1:]) ** 2))
    rhs = (1 - abs(z) ** 2) ** 2 * res.value**2
    assert abs(lhs - rhs) / max(lhs, rhs) <= 1e-2


def test_norm_requires_univalent():
    with pytest.raises(ValueError):
        grunsky_norm(get("exp_scale", k=4), 0.0)


# ------------------------------------------------------------ identity check


def test_psi_identity_residual_koebe():
    assert psi_grunsky_identity_check(KOEBE, 0.0, 64) <= 2e-2
    assert psi_grunsky_identity_check(KOEBE, 0.3, 64) <= 2e-2


def test_psi_identity_requires_truncation_depth(monkeypatch):
    # refused before the engine runs: the sum has 4095 terms
    def no_engine(*args, **kwargs):
        raise AssertionError("the engine must not be called")

    monkeypatch.setattr(criteria, "phi_capital_recentered", no_engine)
    for N in (16, 31, 4096):
        with pytest.raises(ValueError, match="N must be >= 32"):
            psi_grunsky_identity_check(KOEBE, 0.0, N)


def test_norm_and_identity_share_one_exterior_sum():
    # the sum still moves past n = 32 here: the residual is the share beyond N
    fn, z = get("quad_poly", a=0.5), 0.6
    res = grunsky_norm(fn, z)
    psi = psi_via_transform(fn, z, 4095)
    partial = np.cumsum(np.arange(1, 4096) * np.abs(psi[1:]) ** 2)
    assert res.value == math.sqrt(partial[-1]) / (1 - abs(z) ** 2)
    share = (partial[-1] - partial[31]) / partial[-1]
    assert share > 1e-6
    assert psi_grunsky_identity_check(fn, z, 32) == share
    assert psi_grunsky_identity_check(fn, z, 4095) == 0.0
    # the sum is the criterion sum at lam = 1 and N = 4096, bit for bit
    for fn, z in ((fn, z), (KOEBE, 0.3), (get("exp_scale", k=1), 0.2 - 0.45j)):
        T = univalence_criterion(fn, 1.0, z, 4096).T_N
        assert grunsky_norm(fn, z).value == math.sqrt(T) / (1 - abs(z) ** 2)


def test_grunsky_routes_make_one_engine_call_and_no_quadrature(monkeypatch, capsys):
    calls = []
    engine = criteria.phi_capital_recentered

    def counting(*args):
        calls.append(args)
        return engine(*args)

    def no_quadrature(*args, **kwargs):
        raise AssertionError("the disk quadrature is off the Grunsky route")

    monkeypatch.setattr(criteria, "phi_capital_recentered", counting)
    monkeypatch.setattr(oracles, "integrate_disk", no_quadrature)
    grunsky_norm(KOEBE, 0.3)
    psi_grunsky_identity_check(KOEBE, 0.3, 64)
    assert run(["grunsky", "--fn", "koebe", "--z", "0.3", "--N", "32"]) == 0
    assert json.loads(capsys.readouterr().out)["identity_residual"] == 0.0
    assert [args[2:] for args in calls] == [(1.0, 4096)] * 3
    for route in (grunsky_norm, psi_grunsky_identity_check):
        assert "mesh" not in inspect.signature(route).parameters
    assert "mesh" not in QuadratureResult.__dataclass_fields__


@pytest.mark.parametrize("spec", FULL_MAPPINGS)
def test_norm_estimate_reaches_full_mapping_closed_form(spec):
    # the sum is a lower bound and its tail estimate reaches 1/(1-|z|^2), also
    # close to the circle where the sum to 4095 is far from done
    for z in TAIL_POINTS:
        res = grunsky_norm(from_spec(spec), z)
        exact = 1.0 / (1.0 - abs(z) ** 2)
        assert res.value <= exact * (1 + 1e-12), (z, res)
        assert exact <= (res.value + res.error_estimate) * (1 + 1e-12), (z, res)
        if abs(z) <= 0.9:
            assert res.error_estimate <= 1e-12, (z, res)


@pytest.mark.parametrize("spec", OTHERS)
def test_norm_brackets_a_longer_sum(spec):
    fn = from_spec(spec)
    for z in TAIL_POINTS:
        res = grunsky_norm(fn, z)
        psi = psi_via_transform(fn, z, 32767)
        reference = math.sqrt(np.sum(np.arange(1, 32768) * np.abs(psi[1:]) ** 2)) / (1 - abs(z) ** 2)
        assert res.value <= reference * (1 + 1e-12), (z, res, reference)
        assert reference <= (res.value + res.error_estimate) * (1 + 1e-12), (z, res, reference)


def test_tail_is_the_budget_while_the_terms_do_not_decay():
    # D1 <= D2: a tail of 0 would claim the sum is done
    partial = np.cumsum(np.full(4095, 1e-5))
    assert criteria._error(partial, 1.0) == 1.0 - partial[-1]
    # terms 1/n^2: D2/D1 is about 1/2 per doubling, and the tail about D2
    partial = np.cumsum(1.0 / np.arange(1, 4096) ** 2)
    d1, d2 = partial[2046] - partial[1022], partial[4094] - partial[2046]
    r = d2 / d1
    assert criteria._error(partial, 2.0) == d2 * r / (1 - r)
    assert d2 * r / (1 - r) == pytest.approx(1 / 4095, rel=2e-3)
    # terms at the engine's roundoff: no tail
    partial = np.cumsum(np.full(4095, 1e-25))
    assert criteria._error(partial, 1.0) == 16 * np.finfo(float).eps * partial[-1]


@pytest.mark.parametrize(
    "compute,value,error",
    [
        (lambda: oracles.quadrature_area_integral(KOEBE, 0.5, 0.0), 2.0, 4.440892098500626e-16),
        (
            lambda: oracles.quadrature_area_integral(
                get("rotated_koebe", theta=1.1), 0.3, 0.2 - 0.15j
            ),
            3.3310030606546888,
            0.009803679150920619,
        ),
        (
            lambda: oracles.quadrature_area_integral(CAYLEY, 1.0, 0.25 + 0.1j),
            6.477140087012644e-29,
            2.1085946420422677e-30,
        ),
        (
            lambda: oracles.quadrature_grunsky_norm(KOEBE, 0.3),
            1.0989010989011012,
            1.9195756095768916e-15,
        ),
    ],
    ids=["area-koebe", "area-rotated-koebe", "area-cayley", "norm-koebe"],
)
def test_default_mesh_results_are_pinned(compute, value, error):
    # exact figures on the default 256^2 + 512^2 mesh: a rewrite of the rule or
    # of the integrands must reproduce them bit for bit
    res = compute()
    assert (res.value, res.error_estimate) == (value, error)


def test_identity_check_residual_is_pinned():
    # the exterior sum to n = 64 against the oracle quadrature norm
    assert oracles.quadrature_identity_residual(KOEBE, 0.2 + 0.1j, 64) == 3.996802888650549e-15


def test_error_estimate_brackets_known_value():
    # the refinement estimate should not grossly understate the true error
    res = quadrature_area_integral(KOEBE, 1.0, 0.3, MeshSpec(64, 64, 2.0, 0.3))
    assert res.value <= 1.0 + 3.0 * res.error_estimate + 1e-12
