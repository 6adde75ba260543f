"""Automorphism pullbacks and the recentering routes."""

import dataclasses
from fractions import Fraction

import numpy as np
import pytest

from univalence.catalog import from_spec, get, list_catalog, series_at
from univalence.errors import UnivalenceError
from univalence.sequences import local_invariants, phi_capital_direct
from univalence.series import ps_eval
from univalence.oracles import (
    compose_with_automorphism,
    exact_moebius_coefficients,
    exact_quad_poly_coefficients,
    gen_binomial,
    lemma2_coefficients,
)
from univalence import transforms
from univalence.transforms import phi_capital_recentered

KOEBE = get("koebe")
IDENTITY = get("identity")


# -------------------------------------------------------------- sigma series


def _sigma_series(zeta, order):
    return series_at(get("sigma", zeta=zeta), 0.0, order)


def test_sigma_series_zero_is_identity():
    s = _sigma_series(0.0, 5)
    want = np.zeros(6)
    want[1] = 1.0
    assert np.allclose(s.coeffs, want)


def test_sigma_series_half():
    s = _sigma_series(0.5, 2)
    assert np.allclose(s.coeffs, [0.5, 0.75, -0.375], atol=1e-15)


def test_sigma_series_coefficient_formula():
    zeta = 0.3 - 0.4j
    s = _sigma_series(zeta, 8)
    k = np.arange(1, 9)
    want = (1 - abs(zeta) ** 2) * (-np.conj(zeta)) ** (k - 1)
    assert np.allclose(s.coeffs[1:], want, atol=1e-15)
    assert s.coeffs[0] == zeta


def test_sigma_series_rejects_boundary():
    with pytest.raises(ValueError):
        _sigma_series(1.0, 4)


# -------------------------------------------------------------- composition


def test_compose_identity_gives_shifted_sigma():
    zeta = 0.2 + 0.1j
    F = compose_with_automorphism(IDENTITY, zeta, 8)
    want = _sigma_series(zeta, 8).coeffs
    assert np.max(np.abs(F.coeffs - want)) <= 1e-14


def test_compose_zero_automorphism_is_plain_series():
    F = compose_with_automorphism(KOEBE, 0.0, 8)
    assert np.max(np.abs(F.coeffs - series_at(KOEBE, 0.0, 8).coeffs)) <= 1e-14


def test_compose_preserves_moebius_schwarzian():
    F = compose_with_automorphism(get("cayley"), 0.3, 8)
    inv = local_invariants(F)
    assert abs(inv.schwarzian) <= 1e-10


def test_compose_point_values():
    # F(w) = f(sigma_zeta(w)) pointwise
    zeta = -0.25 + 0.3j
    F = compose_with_automorphism(KOEBE, zeta, 24)
    for w in (0.1, 0.05 - 0.1j):
        sig = (w + zeta) / (1 + np.conj(zeta) * w)
        assert abs(ps_eval(F, w) - complex(KOEBE.f(sig))) <= 1e-9


# -------------------------------------------------------------- recentering sum


def test_lemma_identity_map_closed_form():
    zeta = 0.3 + 0.4j
    for lam in (0.5, 1.0, 2.5):
        Phi = phi_capital_direct(series_at(IDENTITY, zeta, 12), lam, 10)
        out = lemma2_coefficients(Phi, zeta, 0.0, 10)
        want = np.array(
            [gen_binomial(lam, n) * np.conj(zeta) ** n for n in range(11)]
        )
        assert np.max(np.abs(out - want)) <= 1e-13


def test_lemma_collapses_at_zero_shift():
    w = 0.2 - 0.3j
    Phi = phi_capital_direct(series_at(KOEBE, w, 12), 0.7, 8)
    out = lemma2_coefficients(Phi, 0.0, w, 8)
    assert np.max(np.abs(out - Phi.values[:9])) <= 1e-13


def test_lemma_matches_composed_series():
    zeta, w, lam = 0.4, 0.1, 0.5
    z = complex((w + zeta) / (1 + np.conj(zeta) * w))
    Phi = phi_capital_direct(series_at(KOEBE, z, 12), lam, 8)
    lhs = lemma2_coefficients(Phi, zeta, w, 8)
    F = compose_with_automorphism(KOEBE, zeta, 12, center=w)
    rhs = phi_capital_direct(F, lam, 8).values
    assert np.max(np.abs(lhs - rhs)) <= 1e-9


def test_lemma_requires_Phi_kind():
    from univalence.sequences import aharonov_phi

    phi = aharonov_phi(series_at(KOEBE, 0.0, 10), 8)
    with pytest.raises(ValueError):
        lemma2_coefficients(phi, 0.1, 0.0, 4)


# -------------------------------------------------------------- stable engine


def test_recentered_engine_matches_composed_series():
    worst = 0.0
    for fn in list_catalog():
        for lam in (0.5, 1.0, 1.7):
            for zeta in (0.35, -0.2 + 0.4j, 0.5j):
                A = phi_capital_recentered(fn, zeta, lam, 12)
                F = compose_with_automorphism(fn, zeta, 16)
                B = phi_capital_direct(F, lam, 12).values
                worst = max(worst, float(np.max(np.abs(A - B))))
    assert worst <= 1e-9


def test_recentered_engine_identity_closed_form():
    zeta = 0.3 + 0.4j
    A = phi_capital_recentered(IDENTITY, zeta, 0.7, 24)
    want = np.array([gen_binomial(0.7, n) * np.conj(zeta) ** n for n in range(25)])
    assert np.max(np.abs(A - want)) <= 1e-12


def test_recentered_engine_zero_shift_matches_plain_series():
    for lam in (0.5, 0.7, 1.7):
        A = phi_capital_recentered(KOEBE, 0.0, lam, 10)
        want = phi_capital_direct(series_at(KOEBE, 0.0, 12), lam, 10).values
        assert np.max(np.abs(A - want)) <= 1e-14


def test_recentered_engine_radius_fallback():
    # q winds on the circles 0.95 and 0.9 (a zero of q enclosed), so 0.82 is used
    e6 = get("exp_scale", k=6)
    A = phi_capital_recentered(e6, -0.3j, 0.5, 8)
    F = compose_with_automorphism(e6, -0.3j, 12)
    B = phi_capital_direct(F, 0.5, 8).values
    assert np.max(np.abs(A - B)) <= 1e-9


def test_recentered_engine_rejects_critical_point():
    qp = get("quad_poly", a=0.6)
    with pytest.raises(UnivalenceError):
        phi_capital_recentered(qp, -5.0 / 6.0, 0.5, 8)


@pytest.mark.parametrize(
    "spec,zeta,lam,N,last,T",
    [
        ("koebe", 0.3 + 0.1j, 0.5, 16,
         -1.3554423098664325e-11 + 7.79405244668255e-12j, 0.5000000000000003),
        ("rotated_koebe:theta=1.1", -0.435 - 0.116j, 0.5, 89,
         1.339984756308693e-13 + 5.932079271303133e-14j, 0.4999999999999999),
        ("exp_scale:k=6", -0.3j, 0.5, 8,
         -0.08706454174218982 - 0.5063463848811692j, 7.528692699135718),
        ("cayley", 0.2 - 0.15j, 1.7, 40,
         -1.2695456478164958e-05 - 1.5361218821277725e-05j, -1.9108510817751276),
        ("bounded:b=0.5", -0.2 + 0.3j, 0.7, 89,
         -4.1014037017337957e-16 - 2.6313094904337956e-16j, 0.07300016103526788),
        ("rotated_koebe:theta=2", 0.2 - 0.15j, 0.5, 1000,
         -3.4990092345629003e-17 - 4.373832691455948e-16j, 0.5000000000000001),
        ("exp_scale:k=3", 0.6j, 1.0, 1024,
         -2.1955093992830434e-16 - 2.5749801596529522e-17j, 0.5088911521474094),
    ],
)
def test_recentered_engine_short_counts_are_pinned(spec, zeta, lam, N, last, T):
    # up to N = 1024 the engine samples 4096 points, below N = 90 off the origin
    # on |w| = 0.95
    A = phi_capital_recentered(from_spec(spec), zeta, lam, N)
    n = np.arange(1, N + 1)
    assert complex(A[N]) == last
    assert float(np.sum((n - lam) * np.abs(A[1:]) ** 2)) == T


# -------------------------------------------------------------- sampling rule


def _binomial_run(lam, count, u):
    """binom(lam, n) u^n for n = 0..count, by the ratio recurrence."""
    n = np.arange(1, count + 1)
    return np.concatenate(([1.0], np.cumprod((lam - n + 1) / n * u)))


@pytest.mark.parametrize("count", [0, 1, 16, 89, 90, 500, 1024, 1025, 2000, 4096, 4097])
def test_sampling_follows_the_count(count):
    radii, samples = transforms._sampling(count)
    rho0 = radii[0]
    assert rho0 ** -max(count, 1) <= 100.0 * (1.0 + 1e-12)
    assert rho0 == (0.95 if count <= 89 else 100.0 ** (-1.0 / count))
    assert radii[1:] == tuple(r for r in transforms._RADII if r < rho0)
    assert samples == max(4096, 1 << (4 * count - 1).bit_length())
    assert samples >= 4 * count and (samples == 4096 or samples < 8 * count)


def test_unwrap_matches_numpy_bit_for_bit():
    rng = np.random.default_rng(7)
    for size in (2, 17, 4097, 16385):
        for step in (0.05, 1.0, 3.0):
            p = np.angle(np.exp(1j * np.cumsum(rng.normal(0.0, step, size))))
            p[rng.integers(size)] = np.pi
            p[rng.integers(size)] = -np.pi
            _assert_unwraps_like_numpy(p)
    # a jump of exactly +pi is kept, one of -pi is kept too
    _assert_unwraps_like_numpy(np.array([0.0, np.pi, 0.0, -np.pi, 0.0, 3.0, -3.0]))


def _assert_unwraps_like_numpy(p):
    got = p.copy()
    transforms._unwrap(got)
    assert np.array_equal(got, np.unwrap(p))


@pytest.mark.parametrize("zeta", [0.0, 0.3, 0.2 - 0.15j])
@pytest.mark.parametrize("count", [1000, 1500, 4096])
def test_recentered_engine_identity_long_counts(zeta, count):
    # 4096, 8192 and 16384 samples; A_n = binom(lam, n) conj(zeta)^n
    A = phi_capital_recentered(IDENTITY, zeta, 0.7, count)
    want = _binomial_run(0.7, count, np.conj(zeta))
    assert np.max(np.abs(A - want)) <= 1e-13


@pytest.mark.parametrize("lam", [0.25, 0.5, 0.935078])
def test_recentered_engine_koebe_long_count_at_origin(lam):
    # [w/k(w)]^lam = (1-w)^(2 lam)
    A = phi_capital_recentered(KOEBE, 0.0, lam, 4096)
    want = _binomial_run(2.0 * lam, 4096, -1.0)
    assert np.max(np.abs(A - want)) <= 1e-14


@pytest.mark.parametrize(
    "count,lam",
    [(1500, 0.5), (4096, 0.5), (1500, 1.0), (4096, 1.0)],
    ids=["1500", "4096", "1500-lam=1", "4096-lam=1"],
)
def test_recentered_engine_is_one_whole_circle_transform(count, lam):
    # the engine against the literal exp(lam log q) with np.unwrap; at lam = 1 the
    # engine transforms q itself
    fn, zeta = get("rotated_koebe", theta=2.0), 0.2 - 0.15j
    A = phi_capital_recentered(fn, zeta, lam, count)
    radii, M = transforms._sampling(count)
    rho = radii[0]
    w = rho * np.exp(2j * np.pi * np.arange(M) / M)
    F = fn.f((w + zeta) / (1.0 + np.conj(zeta) * w)) - fn.f(zeta)
    q = fn.df(zeta) * (1.0 - abs(zeta) ** 2) * w / F
    H = np.exp(lam * (np.log(np.abs(q)) + 1j * np.unwrap(np.angle(q))))
    want = np.fft.fft(H)[: count + 1] / M / rho ** np.arange(count + 1)
    assert M > 4096
    assert np.max(np.abs(A - want)) <= 1e-13


@pytest.mark.parametrize("zeta", [Fraction(0), Fraction(3, 10), Fraction(-1, 2)], ids=str)
@pytest.mark.parametrize("a", [Fraction(3, 10), Fraction(1, 2)], ids=str)
@pytest.mark.parametrize("lam", [Fraction(1, 4), Fraction(1, 2), Fraction(1)], ids=str)
def test_recentered_engine_matches_exact_quad_poly_coefficients(lam, a, zeta):
    # both branches of the power (lam = 1 and not) and the origin's sampling of f itself
    A = phi_capital_recentered(get("quad_poly", a=float(a)), float(zeta), float(lam), 96)
    want = np.array([float(x) for x in exact_quad_poly_coefficients(a, zeta, lam, 96)])
    assert np.max(np.abs(A - want)) <= 1e-14


@pytest.mark.parametrize("zeta", [Fraction(0), Fraction(3, 10), Fraction(-1, 2)], ids=str)
@pytest.mark.parametrize("b", [Fraction(1), Fraction(1, 2), Fraction(-3, 10)], ids=str)
@pytest.mark.parametrize("lam", [Fraction(1, 4), Fraction(1, 2), Fraction(1)], ids=str)
def test_recentered_engine_matches_exact_bounded_coefficients(lam, b, zeta):
    # q = 1 + g w is linear, so A_n = binom(lam, n) g^n; the worst error is about 1.1e-15
    A = phi_capital_recentered(get("bounded", b=float(b)), float(zeta), float(lam), 96)
    want = np.array([float(x) for x in exact_moebius_coefficients(-b, zeta, lam, 96)])
    assert np.max(np.abs(A - want)) <= 1e-14


@pytest.mark.parametrize("zeta", [Fraction(0), Fraction(3, 10), Fraction(-1, 2)], ids=str)
@pytest.mark.parametrize(
    "spec,c",
    [("sigma:zeta=0.3", Fraction(3, 10)), ("sigma:zeta=-0.5", Fraction(-1, 2)), ("cayley", -1)],
    ids=["sigma:3/10", "sigma:-1/2", "cayley"],
)
@pytest.mark.parametrize("lam", [Fraction(1, 4), Fraction(1, 2), Fraction(1)], ids=str)
def test_recentered_engine_matches_exact_moebius_coefficients(lam, spec, c, zeta):
    # g = (zeta + a)/(1 + a zeta) for sigma:zeta=a, and g = -1 for cayley at every zeta;
    # the worst error is about 2.1e-15
    A = phi_capital_recentered(from_spec(spec), float(zeta), float(lam), 96)
    want = np.array([float(x) for x in exact_moebius_coefficients(c, zeta, lam, 96)])
    assert np.max(np.abs(A - want)) <= 1e-14


def test_exact_bounded_coefficients_at_b_zero_are_the_identity():
    # q = 1 + zeta w for the identity: binom(1, n) zeta^n at lam = 1
    A = exact_moebius_coefficients(0, Fraction(3, 10), 1, 4)
    assert A == [1, Fraction(3, 10), 0, 0, 0]
    A = phi_capital_recentered(IDENTITY, 0.3, 0.5, 8)
    want = [float(x) for x in exact_moebius_coefficients(0, Fraction(3, 10), Fraction(1, 2), 8)]
    assert np.max(np.abs(A - want)) <= 1e-15


def test_roots_are_built_once_per_sample_count():
    transforms._roots.cache_clear()
    for count in (96, 1000, 2000, 96):
        phi_capital_recentered(KOEBE, 0.3, 0.5, count)
    # 4096 samples for the counts up to 1024, 8192 for 2000
    assert transforms._roots.cache_info()[:2] == (2, 2)


def test_cached_roots_are_read_only():
    r = transforms._roots(16)
    assert transforms._roots(16) is r
    assert np.allclose(r, np.exp(2j * np.pi * np.arange(16) / 16), rtol=0, atol=1e-15)
    assert not r.flags.writeable
    with pytest.raises(ValueError):
        r[0] = 0.0


@pytest.mark.parametrize(
    "spec,zeta,radii",
    [("koebe", 0.3, 1), ("exp_scale:k=3.3", -0.95j, 2)],
)
def test_expansion_evaluates_f_once_per_radius(spec, zeta, radii):
    # f at zeta, then all M = 16384 points of each circle tried in one call
    fn = from_spec(spec)
    sizes = []

    def counting(w):
        sizes.append(np.size(w))
        return fn._f(w)

    phi_capital_recentered(dataclasses.replace(fn, _f=counting), zeta, 0.5, 4096)
    assert sizes == [1] + [16384] * radii


@pytest.mark.parametrize(
    "lam,zeta,count,error,match",
    [
        (float("nan"), 0.3, 8, ValueError, "lam must be positive"),
        (0.5, complex("nan"), 8, ValueError, r"\|zeta\| must be < 1"),
        (0.5, complex(0.3, float("nan")), 8, ValueError, r"\|zeta\| must be < 1"),
        (0.5, 0.3, 96.0, TypeError, "integer"),
        (0.5, 0.3, -1, ValueError, "count must be >= 0"),
    ],
)
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_recentered_engine_refuses_before_sampling(lam, zeta, count, error, match):
    with pytest.raises(error, match=match):
        phi_capital_recentered(KOEBE, zeta, lam, count)


def test_psi_via_transform_refuses_negative_count():
    # count -1 would reach the engine as count 0 and come back as an empty array
    with pytest.raises(ValueError, match="count must be >= 0"):
        transforms.psi_via_transform(KOEBE, 0.3, -1)


@pytest.mark.parametrize("zeta", [0.0, 0.3])
@pytest.mark.parametrize("lam", [800.0, float("inf")])
def test_recentered_engine_refuses_non_finite_coefficients(zeta, lam):
    # the power exceeds what a double resolves on every radius, and the refusal
    # says so; no numpy warning escapes
    with pytest.raises(UnivalenceError, match="exceeds what a double resolves at rho=0.55"):
        phi_capital_recentered(KOEBE, zeta, lam, 2)


def test_recentered_engine_refuses_overflowing_fallback_radii():
    # the circle collides inside the first radius; rho^-8000 overflows for every
    # fallback radius, which leaves Phi_0 finite and the high coefficients not
    with pytest.raises(UnivalenceError, match="non-finite coefficients at rho=0.55"):
        phi_capital_recentered(get("exp_scale", k=6), -0.3j, 0.5, 8000)
