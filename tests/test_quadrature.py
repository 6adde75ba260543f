"""The weighted area integral and the Grunsky norm as coefficient sums, the Grunsky
kernel, and the disk quadrature that stays as their test oracle."""

import inspect
import json
import math

import numpy as np
import pytest

from univalence import criteria, oracles, quadrature
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
from univalence.series import ps_eval
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
    # fall short of the gap.  At the least lam accepted the tail is still resolved.
    fn = from_spec(spec)
    for lam in (criteria._LAM_FLOOR, 0.3, 0.5, 1.0):
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


def test_area_capped_estimate_reaches_the_budget(monkeypatch):
    # where the tail is capped at the gap lam - S, value + estimate is not below
    # 1/lam in floating point, not a few ulps short of it
    capped = []
    error = quadrature._error

    def recording(S, budget):
        err = error(S, budget)
        capped.append(err[1])
        return err

    monkeypatch.setattr(quadrature, "_error", recording)
    for spec in AREA_FULL_MAPPINGS:
        fn = from_spec(spec)
        for z in TAIL_POINTS:
            for lam in (0.01, 0.1, 0.3, 0.7):
                res = prawitz_integral(fn, lam, z)
                if capped[-1]:
                    assert res.value + res.error_estimate >= 1.0 / lam, (spec, z, lam, res)
    assert sum(capped) >= 100


def _engine_counts(monkeypatch) -> list:
    """Record the (lam, count) of every engine call the criterion routines make."""
    calls = []
    engine = criteria.phi_capital_recentered

    def counting(*args):
        calls.append(args[2:])
        return engine(*args)

    monkeypatch.setattr(criteria, "phi_capital_recentered", counting)
    return calls


def _reads_4096(spec, lam, z):
    # the cases of the table below whose S_1024 - S_512 is above roundoff; every
    # other case reads 1024 coefficients
    return (
        (lam == 0.3 and spec in ("koebe", "rotated_koebe:theta=1.1", "cayley"))
        or (lam == 0.5 and spec == "cayley")
        or (z == 0.9 and spec == "rotated_koebe:theta=1.1")
    )


@pytest.mark.parametrize(
    "spec", ["koebe", "rotated_koebe:theta=1.1", "bounded:b=0.5-0.3i", "quad_poly:a=0.3", "exp_scale:k=1", "cayley"]
)
def test_area_integral_is_the_criterion_sum_over_lam_squared(spec, monkeypatch):
    # one partial-sum routine: the same summation order, so equal bit for bit to
    # the criterion sum at the truncation K the route read
    fn = from_spec(spec)
    calls = _engine_counts(monkeypatch)
    for lam in (0.3, 0.5, 1.0):
        for z in (0.0, 0.3, 0.2 - 0.45j, 0.9):
            calls.clear()
            value = prawitz_integral(fn, lam, z).value
            K = 4096 if _reads_4096(spec, lam, z) else 1024
            assert calls[-1] == (lam, K), (lam, z, calls)
            assert univalence_criterion(fn, lam, z, K).T_N / lam**2 == value, (lam, z, K)


@pytest.mark.parametrize(
    "spec,lam",
    [(spec, lam) for spec in ("koebe", "rotated_koebe:theta=3.782367") for lam in (0.3, 0.7, 0.935078)]
    + [("cayley", 0.5), ("bounded:b=1", 0.5)],
)
def test_area_slow_tail_reads_4096_coefficients(spec, lam, monkeypatch):
    # algebraic tails: the second half of the short sum is above roundoff, so the
    # route reads A_1..A_4096 and the value is T_4096 / lam^2 as without the short
    # read.  At lam = 0.935078 that half is about 2e-14 relative, below _error's
    # 1e-13 no-tail threshold, so the stop does not rest on that branch.
    fn = from_spec(spec)
    calls = _engine_counts(monkeypatch)
    for z in (0.0, 0.9):
        calls.clear()
        value = prawitz_integral(fn, lam, z).value
        assert calls == [(lam, 1024), (lam, 4096)], (z, calls)
        assert univalence_criterion(fn, lam, z, 4096).T_N / lam**2 == value, z


def test_area_routes_make_one_engine_call_and_no_quadrature(monkeypatch, capsys):
    # a tail at roundoff by n = 1024 takes one short engine call; a slow tail
    # (koebe at lam = 0.3) takes that call and one of 4096 coefficients
    calls = _engine_counts(monkeypatch)

    def no_quadrature(*args, **kwargs):
        raise AssertionError("the disk quadrature is off the area route")

    monkeypatch.setattr(oracles, "integrate_disk", no_quadrature)
    assert prawitz_integral(KOEBE, 0.5, 0.3).value == pytest.approx(2.0, rel=1e-14)
    assert run(["area", "--fn", "koebe", "--lambda", "0.5", "--z", "0.3"]) == 0
    assert "mesh" not in json.loads(capsys.readouterr().out)
    assert calls == [(0.5, 1024), (0.5, 1024)]
    calls.clear()
    assert prawitz_integral(KOEBE, 0.3, 0.3).value == pytest.approx(1 / 0.3, rel=1e-4)
    assert calls == [(0.3, 1024), (0.3, 4096)]
    assert "mesh" not in inspect.signature(prawitz_integral).parameters


# ------------------------------------------------------------ kernel


def test_kernel_identity_vanishes():
    assert grunsky_kernel_point(IDENTITY, 0.2, 0.5) == 0.0
    w = np.array([0.1, 0.4 + 0.2j])
    assert np.max(np.abs(grunsky_kernel_point(IDENTITY, 0.2, w))) == 0.0


def test_kernel_koebe_is_constant_minus_one():
    # at the origin the slit-map kernel is identically -1
    # w = 0.2 lies outside the near-diagonal radius 0.15, so the closed form answers
    assert grunsky_kernel_point(KOEBE, 0.0, 0.2) == pytest.approx(-1.0, abs=1e-13)
    assert grunsky_kernel_point(KOEBE, 0.0, 1e-9) == pytest.approx(-1.0, abs=1e-12)


def test_kernel_diagonal_limit_is_schwarzian_over_six():
    for fn in (KOEBE, get("exp_scale", k=1.0)):
        z = 0.2 + 0.1j
        phi = aharonov_phi(series_at(fn, z, 8), 2)
        val = grunsky_kernel_point(fn, z, z + 1e-10)
        assert val == pytest.approx(-phi.values[1], abs=1e-8)


def test_kernel_dual_route_band_agreement():
    # the near-diagonal series against the closed form, at radii on both sides of
    # the kernel's switch radius 0.15 (1 - |z|) = 0.135
    z, delta = 0.1, 0.15
    radii = (0.5 * delta, 0.8 * delta, delta, 1.4 * delta, 2.0 * delta)
    worst = 0.0
    for fn in list_catalog():
        if not fn.flags.locally_univalent_on_disk:
            continue
        near_series = quadrature._grunsky_series(fn, z)
        for r in radii:
            for ang in (0.4, 2.3, 4.0):
                w = z + r * np.exp(1j * ang)
                near = ps_eval(near_series, w)
                far = fn.df(z) * fn.df(w) / (fn.f(w) - fn.f(z)) ** 2 - 1.0 / (z - w) ** 2
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


def test_norm_and_identity_share_one_exterior_sum(monkeypatch):
    # the sum still moves past n = 32 here: the residual is the share beyond N;
    # its second half is at roundoff, so it stops at n = 1023
    fn, z = get("quad_poly", a=0.5), 0.6
    res = grunsky_norm(fn, z)
    psi = psi_via_transform(fn, z, 1023)
    partial = np.cumsum(np.arange(1, 1024) * np.abs(psi[1:]) ** 2)
    assert res.value == math.sqrt(partial[-1]) / (1 - abs(z) ** 2)
    share = (partial[-1] - partial[31]) / partial[-1]
    assert share > 1e-6
    assert psi_grunsky_identity_check(fn, z, 32) == share
    assert psi_grunsky_identity_check(fn, z, 1023) == 0.0
    assert psi_grunsky_identity_check(fn, z, 4095) == 0.0
    # the sum is the criterion sum at lam = 1 and the N = K it read, bit for bit
    calls = _engine_counts(monkeypatch)
    for fn, z in ((fn, z), (KOEBE, 0.3), (get("exp_scale", k=1), 0.2 - 0.45j)):
        calls.clear()
        value = grunsky_norm(fn, z).value
        assert calls == [(1.0, 1024)], (fn.label, z, calls)
        T = univalence_criterion(fn, 1.0, z, 1024).T_N
        assert value == math.sqrt(T) / (1 - abs(z) ** 2)


def test_grunsky_routes_make_one_engine_call_and_no_quadrature(monkeypatch, capsys):
    # a tail at roundoff stops at n = 1023 after one engine call of 4096 samples;
    # N reads S_{N+1} up to N = 4095 all the same
    calls = _engine_counts(monkeypatch)

    def no_quadrature(*args, **kwargs):
        raise AssertionError("the disk quadrature is off the Grunsky route")

    monkeypatch.setattr(oracles, "integrate_disk", no_quadrature)
    norm = grunsky_norm(KOEBE, 0.3)
    psi_grunsky_identity_check(KOEBE, 0.3, 64)
    assert run(["grunsky", "--fn", "koebe", "--z", "0.3"]) == 0
    assert json.loads(capsys.readouterr().out)["grunsky_norm"] == norm.value
    assert calls == [(1.0, 1024)] * 3
    # a slow tail reads on to n = 4095 from a second call, to the same value as one call
    calls.clear()
    value = grunsky_norm(KOEBE, 0.95j).value
    assert calls == [(1.0, 1024), (1.0, 4096)]
    assert value == math.sqrt(univalence_criterion(KOEBE, 1.0, 0.95j, 4096).T_N) / (1 - 0.95**2)
    for route in (grunsky_norm, psi_grunsky_identity_check):
        assert "mesh" not in inspect.signature(route).parameters
    assert "mesh" not in QuadratureResult.__dataclass_fields__


#: U_f(0.95i) of exp_scale at k = 1/2 and k = 1, from the Taylor coefficients of
#: q(w) = (1 + conj(z) w) u/(e^u - 1), u = k(1-|z|^2) w/(1 + conj(z) w), the
#: recentered quotient at lam = 1, by a 2048-point transform on |w| = 1 at 40 digits
#: (mpmath): U = sqrt(sum (n-1)|A_n|^2)/(1-|z|^2)
_EXP_REFERENCE = {"exp_scale:k=0.5": 0.02107408855564103058, "exp_scale:k=1": 0.08749131934659193116}


def _long_sum(fn, z):
    """U_f(z), its estimate and the partial sums S_1..S_4096 at lam = 1, read as the
    Grunsky route read them before it stopped at a settled sum."""
    A = univalence_criterion(fn, 1.0, z, 4096).terms
    S = np.cumsum((np.arange(1, 4097) - 1.0) * np.abs(A) ** 2)
    value = math.sqrt(S[-1]) / (1 - abs(z) ** 2)
    return value, math.sqrt(S[-1] + criteria._error(S, 1.0)[0]) / (1 - abs(z) ** 2) - value, S


def test_norm_settled_sum_keeps_to_the_long_sum(monkeypatch):
    calls = _engine_counts(monkeypatch)
    eps = np.finfo(float).eps
    off = {}
    for spec in FULL_MAPPINGS + MOEBIUS + OTHERS:
        fn = from_spec(spec)
        for z in TAIL_POINTS:
            old, old_err, S = _long_sum(fn, z)
            calls.clear()
            res = grunsky_norm(fn, z)
            if calls[-1] == (1.0, 4096):
                # a slow tail reads on to the long sum, bit for bit
                assert abs(z) >= 0.9, (spec, z)
                assert (res.value, res.error_estimate) == (old, old_err), (spec, z)
            if spec in MOEBIUS:
                # the exact value is 0: both are roundoff, and the short sum holds less
                assert res.value <= old, (spec, z, res, old)
                continue
            within = abs(res.value - old) <= old_err * (1 + 1e-12)
            for N in (32, 64, 1000):
                residual = (S[-1] - S[N]) / max(1e-12, S[-1])
                within &= abs(psi_grunsky_identity_check(fn, z, N) - residual) <= 16 * eps
            if not within:
                off[spec, z] = old, old_err
    # the engine's roundoff, about eps against Phi_0 = 1, is in no estimate; where the
    # sum is small it moves both readings, and there the old value itself misses the
    # reference by more than its estimate
    assert set(off) == {("exp_scale:k=0.5", 0.95j), ("exp_scale:k=1", 0.95j)}
    for (spec, z), (old, old_err) in off.items():
        assert abs(old - _EXP_REFERENCE[spec]) > old_err, (spec, old, old_err)


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
    assert criteria._error(partial, 1.0) == (1.0 - partial[-1], True)
    # terms 1/n^2: D2/D1 is about 1/2 per doubling, and the tail about D2
    partial = np.cumsum(1.0 / np.arange(1, 4096) ** 2)
    d1, d2 = partial[2046] - partial[1022], partial[4094] - partial[2046]
    r = d2 / d1
    assert criteria._error(partial, 2.0) == (d2 * r / (1 - r), False)
    assert d2 * r / (1 - r) == pytest.approx(1 / 4095, rel=2e-3)
    # terms at the engine's roundoff: no tail
    partial = np.cumsum(np.full(4095, 1e-25))
    assert criteria._error(partial, 1.0) == (16 * np.finfo(float).eps * partial[-1], False)


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
