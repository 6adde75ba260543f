"""Coefficient sequences: closed forms, cross-route agreement, invariances."""

import hashlib

import numpy as np
import pytest

from univalence import sequences
from univalence.catalog import get, list_catalog, series_at
from univalence.errors import NotLocallyUnivalentError
from univalence.oracles import (
    EnumerationLimitError,
    check_phi_recurrence,
    gen_binomial,
    phi_capital_combinatorial,
    ps_mul,
    psi_sequence,
)
from univalence.sequences import SequenceSet, aharonov_phi, local_invariants, phi_capital_direct
from univalence.series import PowerSeries, ps_recip
from univalence.transforms import psi_via_transform

KOEBE = get("koebe")
IDENTITY = get("identity")
CAYLEY = get("cayley")

#: centers of the agreement grid, |z| <= 0.6 (5x5 Cartesian, clipped)
GRID = [
    complex(a, b)
    for a in np.linspace(-0.6, 0.6, 5)
    for b in np.linspace(-0.6, 0.6, 5)
    if abs(complex(a, b)) <= 0.6
]


# ----------------------------------------------------------- invariants


def test_local_invariants_koebe():
    inv = local_invariants(series_at(KOEBE, 0.0, 4))
    assert inv.pre_schwarzian == pytest.approx(4.0, abs=1e-13)
    assert inv.schwarzian == pytest.approx(-6.0, abs=1e-13)


def test_local_invariants_identity():
    inv = local_invariants(series_at(IDENTITY, 0.17 - 0.2j, 4))
    assert abs(inv.pre_schwarzian) <= 1e-14
    assert abs(inv.schwarzian) <= 1e-14


@pytest.mark.parametrize("z", [0.0, 0.4, -0.1 + 0.5j])
def test_moebius_maps_have_zero_schwarzian(z):
    for fn in (CAYLEY, get("bounded", b=1.0), get("sigma", zeta=0.3)):
        inv = local_invariants(series_at(fn, z, 4))
        assert abs(inv.schwarzian) <= 1e-10


def test_local_invariants_need_derivative():
    qp = get("quad_poly", a=0.6)
    with pytest.raises(NotLocallyUnivalentError):
        local_invariants(series_at(qp, -5.0 / 6.0, 4))


# ----------------------------------------------------------- pinned values

#: every catalog family at its default parameters
PIN_SPECS = ("identity", "koebe", "rotated_koebe", "bounded", "sigma", "cayley", "exp_scale", "quad_poly")


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_phi_and_Phi_are_pinned_bit_for_bit():
    # one digest of phi and Phi over every family, four centers and six counts
    digest = hashlib.sha1()
    for spec in PIN_SPECS:
        fn = get(spec)
        for center in (0.0, 0.3, -0.2 + 0.25j, 0.1 - 0.4j):
            for count in (0, 1, 2, 8, 130, 300):
                s = series_at(fn, center, count + 2)
                digest.update(aharonov_phi(s, count).values.tobytes())
                for lam in (0.3, 0.5, 1.0, 1.7):
                    digest.update(phi_capital_direct(s, lam, count).values.tobytes())
    assert digest.hexdigest() == "b3efbc6f5b80bc45f861be2adab0de671df689fb"


# ----------------------------------------------------------- phi


def test_phi_koebe_origin():
    phi = aharonov_phi(series_at(KOEBE, 0.0, 10), 8)
    want = np.zeros(9)
    want[0], want[1] = -2.0, 1.0
    assert np.allclose(phi.values, want, atol=1e-13)
    assert [phi[n] for n in range(len(phi))] == phi.values.tolist()


def test_phi_identity_vanishes():
    phi = aharonov_phi(series_at(IDENTITY, 0.21 + 0.3j, 10), 8)
    assert np.max(np.abs(phi.values)) <= 1e-14


@pytest.mark.parametrize("z", [0.0, 0.3, -0.2 + 0.4j])
def test_phi_cayley_closed_form(z):
    phi = aharonov_phi(series_at(CAYLEY, z, 10), 8)
    assert phi.values[0] == pytest.approx(-1.0 / (1.0 - z), abs=1e-12)
    assert np.max(np.abs(phi.values[1:])) <= 1e-12


def test_phi_order_requirement():
    s = series_at(KOEBE, 0.0, 5)
    with pytest.raises(ValueError):
        aharonov_phi(s, 4)
    with pytest.raises(ValueError, match="count must be >= 0"):
        aharonov_phi(s, -1)
    with pytest.raises(ValueError, match="count must be >= 0"):
        phi_capital_direct(s, 0.5, -1)
    with pytest.raises(ValueError, match="local invariants need order >= 3"):
        local_invariants(series_at(KOEBE, 0.0, 2))


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_Phi_direct_refuses_nan_lambda():
    # the engine's `not lam > 0` test, before any recurrence runs
    with pytest.raises(ValueError, match="lam must be positive"):
        phi_capital_direct(series_at(KOEBE, 0.3, 10), float("nan"), 8)


@pytest.mark.parametrize("kind,routine", [("phi", "ps_recip"), ("Phi", "ps_pow_real")])
def test_schwarzian_check_fires(monkeypatch, kind, routine):
    # a first coefficient off its N_f identity is caught on the way out
    exact = getattr(sequences, routine)

    def perturbed(*args):
        c = exact(*args).coeffs.copy()
        c[1] += 1e-6
        return PowerSeries(args[0].center, c)

    monkeypatch.setattr(sequences, routine, perturbed)
    s = series_at(KOEBE, 0.3, 10)
    with pytest.raises(AssertionError, match=f"^{kind} sequence violates its Schwarzian identity"):
        aharonov_phi(s, 8) if kind == "phi" else phi_capital_direct(s, 0.5, 8)


def test_phi_rejects_critical_point():
    qp = get("quad_poly", a=0.6)
    with pytest.raises(NotLocallyUnivalentError):
        aharonov_phi(series_at(qp, -5.0 / 6.0, 8), 4)


# ----------------------------------------------------------- recurrence


def test_recurrence_identity_exact():
    assert check_phi_recurrence(IDENTITY, 0.11 + 0.2j, 3) == 0.0


@pytest.mark.parametrize("z", [0.0, 0.2, 0.1 + 0.3j])
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_recurrence_koebe_and_cayley(z, n):
    assert check_phi_recurrence(KOEBE, z, n, 1e-4) <= 1e-5
    assert check_phi_recurrence(CAYLEY, z, n, 1e-4) <= 1e-5


# ----------------------------------------------------------- Phi direct


@pytest.mark.parametrize("lam", [0.5, 1.0, 1.3])
def test_Phi_koebe_binomial_closed_form(lam):
    Phi = phi_capital_direct(series_at(KOEBE, 0.0, 14), lam, 12)
    want = np.array([(-1.0) ** n * gen_binomial(2 * lam, n) for n in range(13)])
    assert np.max(np.abs(Phi.values - want)) <= 1e-12


def test_Phi_identity():
    Phi = phi_capital_direct(series_at(IDENTITY, 0.4, 10), 0.7, 8)
    assert Phi.values[0] == 1.0
    assert np.max(np.abs(Phi.values[1:])) <= 1e-14


def test_Phi_lambda_one_shifts_phi():
    for fn in list_catalog():
        s = series_at(fn, 0.2, 14)
        Phi = phi_capital_direct(s, 1.0, 10)
        phi = aharonov_phi(s, 9)
        assert np.max(np.abs(Phi.values[1:] - phi.values[:10])) <= 1e-12


def test_Phi_starts_with_exact_one():
    Phi = phi_capital_direct(series_at(KOEBE, 0.37, 10), 1.7, 8)
    assert Phi.values[0] == 1.0 + 0.0j


# ----------------------------------------------------------- Phi enumeration


def test_combinatorial_low_orders_symbolic():
    # synthetic phi values: the n=1,2 formulas must reduce to
    # Phi_1 = lam*phi_0 and Phi_2 = lam*phi_1 + lam(lam-1)/2 phi_0^2
    vals = np.array([0.3 - 0.2j, -0.7 + 0.1j, 0.05j, 0.2])
    phi = SequenceSet(kind="phi", center=0.0, values=vals)
    for lam in (0.5, 1.0, 2.2):
        Phi = phi_capital_combinatorial(phi, lam, 2)
        assert Phi.values[1] == pytest.approx(lam * vals[0], abs=1e-14)
        want2 = lam * vals[1] + lam * (lam - 1.0) / 2.0 * vals[0] ** 2
        assert Phi.values[2] == pytest.approx(want2, abs=1e-14)


def test_combinatorial_matches_direct_koebe():
    s = series_at(KOEBE, 0.0, 12)
    phi = aharonov_phi(s, 10)
    direct = phi_capital_direct(s, 0.5, 8)
    comb = phi_capital_combinatorial(phi, 0.5, 8)
    assert np.max(np.abs(direct.values - comb.values)) <= 1e-10


def test_combinatorial_enumeration_limit():
    phi = aharonov_phi(series_at(KOEBE, 0.0, 20), 16)
    with pytest.raises(EnumerationLimitError):
        phi_capital_combinatorial(phi, 0.5, 13)


def test_three_way_agreement_grid():
    for fn in list_catalog():
        for z in GRID:
            s = series_at(fn, z, 14)
            phi = aharonov_phi(s, 12)
            for lam in (0.5, 1.0, 1.7):
                d = phi_capital_direct(s, lam, 10)
                c = phi_capital_combinatorial(phi, lam, 10)
                assert np.max(np.abs(d.values - c.values)) <= 1e-9
                if lam == 1.0:
                    assert np.max(np.abs(d.values[1:] - phi.values[:10])) <= 1e-9


# ----------------------------------------------------------- invariances


def _mobius_of_series(series, a, b, c, d):
    """Series of (a f + b)/(c f + d) about the same center."""
    n = series.order
    num = a * series.coeffs + 0j
    num[0] += b
    den = c * series.coeffs + 0j
    den[0] += d
    return ps_mul(
        PowerSeries(series.center, num), ps_recip(PowerSeries(series.center, den))
    )


@pytest.mark.parametrize("fn", [KOEBE, get("exp_scale", k=1.0)], ids=lambda f: f.label)
def test_phi_mobius_invariance(fn):
    z = 0.2 - 0.15j
    s = series_at(fn, z, 14)
    tau_s = _mobius_of_series(s, 2.0, -0.5, 0.3, 1.0)
    phi = aharonov_phi(s, 10)
    phi_tau = aharonov_phi(tau_s, 10)
    assert np.max(np.abs(phi.values[1:] - phi_tau.values[1:])) <= 1e-9


def test_Phi_affine_invariance_exact_for_power_of_two_scale():
    # chi(f) = 2f - 1: scaling by a power of two is exact in binary floats
    s = series_at(KOEBE, 0.3, 14)
    shifted = 2.0 * s.coeffs
    shifted[0] -= 1.0
    chi_s = PowerSeries(s.center, shifted)
    for lam in (0.5, 1.7):
        lhs = phi_capital_direct(s, lam, 10).values
        rhs = phi_capital_direct(chi_s, lam, 10).values
        assert np.array_equal(lhs, rhs)


def test_Phi_affine_invariance_general_scale():
    s = series_at(KOEBE, -0.25, 14)
    chi = PowerSeries(s.center, 3.0 * s.coeffs)
    lhs = phi_capital_direct(s, 0.7, 10).values
    rhs = phi_capital_direct(chi, 0.7, 10).values
    assert np.max(np.abs(lhs - rhs)) <= 1e-13


# ----------------------------------------------------------- psi


def test_psi_identity_map():
    z = 0.3 - 0.2j
    psi = psi_sequence(series_at(IDENTITY, z, 10), z, 6)
    assert psi.values[0] == pytest.approx(np.conj(z), abs=1e-14)
    assert np.max(np.abs(psi.values[1:])) <= 1e-14


def test_psi_cayley_tail_vanishes():
    psi = psi_sequence(series_at(CAYLEY, 0.3, 10), 0.3, 6)
    want0 = 0.3 + (1 - 0.09) * (-1.0 / 0.7)
    assert psi.values[0] == pytest.approx(want0, abs=1e-12)
    assert np.max(np.abs(psi.values[1:])) <= 1e-12


def test_psi_koebe_origin():
    psi = psi_sequence(series_at(KOEBE, 0.0, 12), 0.0, 8)
    # at the origin the convolution collapses to phi itself
    assert psi.values[1] == pytest.approx(1.0, abs=1e-13)
    assert np.max(np.abs(psi.values[2:])) <= 1e-13


def test_psi_center_mismatch():
    with pytest.raises(ValueError):
        psi_sequence(series_at(KOEBE, 0.1, 10), 0.2, 4)


def test_psi_matches_pullback_route():
    for fn in (KOEBE, CAYLEY, get("exp_scale", k=1.0)):
        for z in (0.25 + 0.3j, -0.4, 0.1j):
            lit = psi_sequence(series_at(fn, z, 22), z, 16).values
            sta = psi_via_transform(fn, z, 16)
            assert np.max(np.abs(lit - sta)) <= 1e-10


# ----------------------------------------------------------- SequenceSet


def test_sequenceset_phi_requires_unit_head():
    with pytest.raises(ValueError):
        SequenceSet(kind="Phi", center=0.0, values=[0.5, 1.0], lam=1.0)
    with pytest.raises(ValueError):
        SequenceSet(kind="Phi", center=0.0, values=[1.0, 0.5])  # lam missing
    with pytest.raises(ValueError):
        SequenceSet(kind="phi", center=0.0, values=[1.0], lam=0.5)
