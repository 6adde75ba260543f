"""Automorphism pullbacks and the recentering routes."""

import numpy as np
import pytest

from univalence.catalog import get, list_catalog, series_at
from univalence.errors import UnivalenceError
from univalence.sequences import local_invariants, phi_capital_direct
from univalence.series import gen_binomial, ps_eval
from univalence.oracles import compose_with_automorphism, lemma2_coefficients
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


def test_recentered_engine_zero_shift_uses_plain_series():
    A = phi_capital_recentered(KOEBE, 0.0, 0.5, 10)
    want = phi_capital_direct(series_at(KOEBE, 0.0, 12), 0.5, 10).values
    assert np.array_equal(A, want)


def test_recentered_engine_radius_fallback():
    # a collision circle inside the default sampling radius forces a retry
    e6 = get("exp_scale", k=6)
    A = phi_capital_recentered(e6, -0.3j, 0.5, 8)
    F = compose_with_automorphism(e6, -0.3j, 12)
    B = phi_capital_direct(F, 0.5, 8).values
    assert np.max(np.abs(A - B)) <= 1e-9


def test_recentered_engine_rejects_critical_point():
    qp = get("quad_poly", a=0.6)
    with pytest.raises(UnivalenceError):
        phi_capital_recentered(qp, -5.0 / 6.0, 0.5, 8)
