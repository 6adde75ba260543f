"""Area sums, criterion reports, scans, probes and growth bounds."""

import math

import numpy as np
import pytest

from univalence import transforms
from univalence.catalog import from_spec, get, list_catalog, series_at
from univalence.criteria import (
    decay_bound_checks,
    default_grid,
    fullmap_scan,
    prawitz_sum_s,
    univalence_criterion,
)
from univalence.errors import NormalizationError, NotLocallyUnivalentError, UnivalenceError
from univalence.oracles import criterion_terms, gen_binomial
from univalence.sequences import phi_capital_direct
from univalence.transforms import phi_capital_recentered, psi_via_transform

KOEBE = get("koebe")
IDENTITY = get("identity")
CAYLEY = get("cayley")


# ------------------------------------------------------------ area sums


def test_prawitz_sum_identity_vanishes():
    for N in (1, 8, 64):
        assert 0.0 <= prawitz_sum_s(IDENTITY, 0.5, N) <= 1e-28


def test_prawitz_sum_koebe_exact():
    assert abs(prawitz_sum_s(KOEBE, 0.5, 2) - 0.5) <= 1e-14
    assert abs(prawitz_sum_s(KOEBE, 1.0, 2) - 1.0) <= 1e-14
    # already saturated at the first contributing terms
    assert abs(prawitz_sum_s(KOEBE, 0.5, 50) - 0.5) <= 1e-13


def test_prawitz_sum_monotone_below_budget():
    sums = [prawitz_sum_s(KOEBE, 0.25, N) for N in (4, 16, 64, 256)]
    assert all(b >= a - 1e-15 for a, b in zip(sums, sums[1:]))
    assert all(s <= 0.25 + 1e-12 for s in sums)


def test_prawitz_sum_is_the_criterion_sum_at_the_origin():
    for fn in (KOEBE, get("rotated_koebe", theta=2.0), get("quad_poly", a=0.4)):
        for lam, N in ((0.3, 16), (1.0, 1500)):
            assert prawitz_sum_s(fn, lam, N) == univalence_criterion(fn, lam, 0.0, N).T_N


@pytest.mark.parametrize("lam", [0.935078, 1.0])
def test_prawitz_sum_rotated_koebe_long_sum_meets_budget(lam):
    # the series route gathered 1.48e-9 of roundoff here at lam = 0.935078
    S = prawitz_sum_s(get("rotated_koebe", theta=3.782367), lam, 4096)
    assert abs(S - lam) <= 1e-12


def test_prawitz_sum_requires_class_S():
    with pytest.raises(NormalizationError):
        prawitz_sum_s(CAYLEY, 0.5, 8)
    with pytest.raises(NormalizationError):
        prawitz_sum_s(get("sigma", zeta=0.3), 0.5, 8)


# ------------------------------------------------------------ terms


def test_terms_identity_closed_form():
    zeta = 0.3 + 0.4j
    for lam in (0.3, 1.0, 2.5):
        A = criterion_terms(IDENTITY, lam, zeta, 12)
        want = np.array(
            [gen_binomial(lam, n) * np.conj(zeta) ** n for n in range(1, 13)]
        )
        assert np.max(np.abs(A - want)) <= 1e-13


def test_terms_zero_shift_equals_plain_Phi():
    A = criterion_terms(KOEBE, 0.7, 0.0, 10)
    Phi = phi_capital_direct(series_at(KOEBE, 0.0, 12), 0.7, 10)
    assert np.max(np.abs(A - Phi.values[1:])) <= 1e-13


def test_terms_koebe_binomial():
    for lam in (0.5, 1.0):
        A = criterion_terms(KOEBE, lam, 0.0, 8)
        want = np.array(
            [(-1.0) ** n * gen_binomial(2 * lam, n) for n in range(1, 9)]
        )
        assert np.max(np.abs(A - want)) <= 1e-13


def test_terms_literal_matches_stable_route():
    worst = 0.0
    for fn in list_catalog():
        for lam in (0.5, 1.7):
            for zeta in (0.0, 0.35, -0.2 + 0.4j):
                a = criterion_terms(fn, lam, zeta, 12)
                b = phi_capital_recentered(fn, zeta, lam, 12)[1:]
                worst = max(worst, float(np.max(np.abs(a - b))))
    assert worst <= 1e-9


# ------------------------------------------------------------ criterion


def test_criterion_koebe_at_origin():
    rep = univalence_criterion(KOEBE, 0.5, 0.0, 8)
    assert rep.T_N == pytest.approx(0.5, abs=1e-15)
    assert rep.margin == pytest.approx(0.0, abs=1e-15)
    assert rep.verdict == "consistent"
    assert rep.budget == 0.5
    assert rep.sup_abs_term == pytest.approx(1.0, abs=1e-15)
    # below n = lam every weight n - lam is negative: no sum there exceeds the budget
    rep = univalence_criterion(KOEBE, 3.0, 0.0, 2)
    assert rep.T_N <= 0.0
    assert rep.verdict == "consistent"


def test_criterion_identity_matches_series_oracle():
    rep = univalence_criterion(IDENTITY, 0.5, 0.5, 20)
    oracle = sum(
        (n - 0.5) * abs(gen_binomial(0.5, n) * 0.5**n) ** 2 for n in range(1, 21)
    )
    assert rep.T_N == pytest.approx(oracle, abs=1e-12)
    assert rep.verdict == "consistent"


def test_criterion_flags_violation_at_witness():
    e4 = get("exp_scale", k=4)
    rep = univalence_criterion(e4, 0.5, 0.0, 2)
    assert rep.verdict == "violated"
    assert rep.T_N == pytest.approx(13.0 / 24.0, abs=1e-13)


@pytest.mark.parametrize("spec", ["identity", "koebe", "bounded:b=1", "cayley"])
@pytest.mark.parametrize("zeta", [0.3, 0.2 - 0.15j])
@pytest.mark.parametrize("N", [500, 800, 1000])
def test_criterion_long_sums_of_univalent_entries_never_violated(spec, zeta, N):
    # with the first radius at 0.95 these read 'violated', with T_N up to 4.9e13
    rep = univalence_criterion(from_spec(spec), 0.5, zeta, N)
    assert rep.verdict == "consistent", rep.T_N
    assert rep.T_N <= 0.5 + 1e-12


def test_criterion_refuses_an_overflowing_sum():
    # a fallback radius 0.82 with rho^-2000 = 1e172 makes the squares overflow
    with pytest.raises(UnivalenceError, match="double range"):
        univalence_criterion(get("exp_scale", k=6), 0.5, -0.3j, 2000)


def test_exp_scale_threshold_is_sharp(monkeypatch):
    # e^{kz} is univalent on D exactly for k <= pi: no violation below the threshold on a
    # grid out to |zeta| = 0.95, and one just above it near the circle, read on the
    # first sampling radius alone, so no fallback radius decides the verdict
    grid = default_grid(radii=(0.0, 0.2, 0.4, 0.6, 0.8, 0.9, 0.95), angles=32)
    for lam in (0.5, 1.0):
        rows = fullmap_scan(get("exp_scale", k=3.1), lam, grid, 1000).rows
        assert len(rows) == 193
        assert [r.zeta for r in rows if r.verdict == "violated"] == []
    tried = []
    expand = transforms._expand

    def recording(*args):
        tried.append(args[6])  # rho
        return expand(*args)

    monkeypatch.setattr(transforms, "_expand", recording)
    for zeta in (0.95j, -0.95j):
        tried.clear()
        rep = univalence_criterion(get("exp_scale", k=3.2), 0.5, zeta, 1000)
        assert rep.verdict == "violated"
        assert rep.T_N == pytest.approx(0.70891, abs=1e-5)
        assert tried == list(transforms._sampling(1000)[0][:1])


@pytest.mark.parametrize("tol", [float("nan"), float("inf"), -1.0])
def test_tolerance_must_be_finite_and_nonnegative(tol):
    with pytest.raises(ValueError, match="tol"):
        univalence_criterion(KOEBE, 0.5, 0.3, 8, tol)
    with pytest.raises(ValueError, match="tol"):
        fullmap_scan(KOEBE, 0.5, [0.3], 8, tol)


def test_criterion_rejects_critical_point():
    qp = get("quad_poly", a=0.6)
    with pytest.raises(NotLocallyUnivalentError, match="f'\\(z\\)=0"):
        univalence_criterion(qp, 0.5, -5.0 / 6.0, 8)


def test_criterion_soundness_subset():
    for fn in (KOEBE, CAYLEY, get("bounded", b=1.0)):
        for zeta in (0.0, 0.6, -0.6j):
            rep = univalence_criterion(fn, 0.5, zeta, 64)
            assert rep.verdict == "consistent", (fn.label, zeta, rep.T_N)


def test_criterion_power_branch_anchor_off_principal_sheet():
    # here the unwrapped phase of q around the sampling circle sits a full turn
    # off the continuous branch; without the 2 pi shift the power lands on the
    # wrong sheet, the normalization check rejects rho = 0.95 and the sum at
    # rho = 0.9 reads as a violation
    rep = univalence_criterion(get("rotated_koebe", theta=1.1), 0.5, -0.435 - 0.116j, 300)
    assert rep.verdict == "consistent"
    assert -1e-9 <= rep.margin <= 0.05


def test_criterion_partial_sums_monotone_for_small_lambda():
    rep = univalence_criterion(KOEBE, 0.5, 0.3 + 0.2j, 64)
    n = np.arange(1, 65)
    partial = np.cumsum((n - 0.5) * np.abs(rep.terms) ** 2)
    assert np.all(np.diff(partial) >= -1e-15)


def test_criterion_validates_inputs():
    with pytest.raises(ValueError):
        univalence_criterion(KOEBE, -1.0, 0.0, 8)
    with pytest.raises(ValueError):
        univalence_criterion(KOEBE, 0.5, 1.0, 8)
    with pytest.raises(ValueError, match="N must be >= 1"):
        univalence_criterion(KOEBE, 0.5, 0.3, 0)
    with pytest.raises(TypeError, match="integer"):
        univalence_criterion(KOEBE, 0.5, 0.3, 96.0)


# ------------------------------------------------------------ scans


def test_scan_koebe_full_mapping_signature():
    grid = default_grid(radii=(0.0, 0.25, 0.5), angles=8)
    res = fullmap_scan(KOEBE, 0.5, grid, 128)
    assert res.full_mapping_consistent
    for row in res.rows:
        assert -1e-9 <= row.margin <= 0.05
        assert row.verdict == "consistent"


def test_scan_identity_keeps_fat_gap():
    res = fullmap_scan(IDENTITY, 0.5, [0.0], 128)
    assert res.rows[0].margin == 0.5
    assert not res.full_mapping_consistent


def test_scan_cayley_lambda_one():
    grid = default_grid(radii=(0.0, 0.4), angles=4)
    res = fullmap_scan(CAYLEY, 1.0, grid, 32)
    for row in res.rows:
        assert abs(row.T_N) <= 1e-12
        assert row.margin == pytest.approx(1.0, abs=1e-12)


def test_scan_requires_monotone_regime():
    with pytest.raises(ValueError):
        fullmap_scan(KOEBE, 1.5, [0.0], 16)


def test_scan_refuses_an_empty_grid():
    # no rows would certify nothing, not a full mapping
    with pytest.raises(ValueError, match="grid must hold at least one point"):
        fullmap_scan(KOEBE, 0.5, [], 96)


def test_scan_rows_keep_grid_order():
    grid = default_grid(radii=(0.0, 0.3), angles=4)
    res = fullmap_scan(KOEBE, 0.5, grid, 16)
    assert [r.zeta for r in res.rows] == grid


# ------------------------------------------------------------ probes


def test_probe_identity():
    assert univalence_criterion(IDENTITY, 0.5, 0.4, 30).sup_abs_term == pytest.approx(0.2, abs=1e-12)


def test_probe_koebe_origin():
    assert univalence_criterion(KOEBE, 1.0, 0.0, 10).sup_abs_term == pytest.approx(2.0, abs=1e-12)


def test_probe_uniform_bound_for_univalent():
    bound = np.sqrt(0.5 / 0.5)  # sqrt(lam/(1-lam)) at lam = 1/2
    for fn in list_catalog():
        if not fn.flags.univalent_on_disk:
            continue
        for zeta in (0.0, 0.3, -0.4j, 0.2 + 0.5j):
            assert univalence_criterion(fn, 0.5, zeta, 64).sup_abs_term <= bound + 1e-9


# ------------------------------------------------------------ growth bounds


def test_decay_identity_trivial():
    rep = decay_bound_checks(IDENTITY, 0.3 - 0.4j, 8, 0.3)
    assert rep.worst_slack >= 0.0
    assert all(r.phi_lhs == 0.0 for r in rep.rows)


def test_decay_koebe_equality_boundary():
    rep = decay_bound_checks(KOEBE, 0.0, 6, 0.3)
    first = rep.rows[0]
    assert first.phi_lhs == pytest.approx(1.0, abs=1e-13)
    assert first.phi_rhs == pytest.approx(1.0, abs=1e-13)
    assert abs(first.phi_slack) <= 1e-12


def test_decay_koebe_interior():
    rep = decay_bound_checks(KOEBE, 0.4, 10, 0.7)
    assert rep.worst_slack >= -1e-10


def _literal_majorants(az, lam, n):
    # both right-hand sides with every binomial evaluated inside the loops, as printed
    phi_rhs = sum(gen_binomial(n - 1, k - 1) * az ** (n - k) / math.sqrt(k) for k in range(1, n + 1))
    cap_rhs = 0.0
    for j in range(n + 1):
        outer = gen_binomial(lam, n - j)
        if outer == 0.0:
            continue
        for k in range(j + 1):
            b = gen_binomial(j - 1, j - k)
            if b == 0.0:
                continue
            cap_rhs += outer * b * math.sqrt(lam) / math.sqrt(abs(k - lam)) * az ** (n - k)
    return phi_rhs, cap_rhs


def test_decay_majorant_tables_match_literal_loops():
    # the array sums add in another order than the printed double sum: at most 1.7e-15
    # relative apart up to N = 200
    for fn, z, N, lam in ((CAYLEY, 0.3 - 0.2j, 40, 0.7), (KOEBE, 0.4, 60, 0.3)):
        rep = decay_bound_checks(fn, z, N, lam)
        for row in rep.rows:
            phi_rhs, cap_rhs = _literal_majorants(abs(z), lam, row.n)
            assert row.phi_rhs == pytest.approx(phi_rhs, rel=1e-14, abs=0)
            assert row.cap_rhs == pytest.approx(cap_rhs, rel=1e-14, abs=0)


def test_decay_requires_univalent_flag():
    with pytest.raises(ValueError):
        decay_bound_checks(get("exp_scale", k=4), 0.2, 6, 0.3)
    with pytest.raises(ValueError):
        decay_bound_checks(KOEBE, 0.2, 6, 1.0)
    for N in (0, -3):
        with pytest.raises(ValueError, match="N must be >= 1"):
            decay_bound_checks(KOEBE, 0.2, N, 0.3)


# ------------------------------------------------------------ covariances


def test_rotation_covariance_of_terms():
    # the rotated slit mapping probed at the rotated point sees the same moduli
    theta = 2.0
    rot = get("rotated_koebe", theta=theta)
    for lam in (0.5, 1.0):
        for zeta in (0.3, 0.2 - 0.25j):
            a = np.abs(criterion_terms(KOEBE, lam, zeta, 10))
            b = np.abs(
                criterion_terms(rot, lam, zeta * np.exp(-1j * theta), 10)
            )
            assert np.max(np.abs(a - b)) <= 1e-10


def test_lambda_one_reduction_to_exterior_sums():
    # T_N at lam=1 equals sum_{m<N} m |Psi_m|^2 at the probe point
    for fn in (KOEBE, CAYLEY, get("exp_scale", k=1.0)):
        for zeta in (0.3, -0.2 + 0.35j):
            rep = univalence_criterion(fn, 1.0, zeta, 16)
            psi = psi_via_transform(fn, zeta, 15)
            m = np.arange(1, 16)
            want = float(np.sum(m * np.abs(psi[1:]) ** 2))
            assert rep.T_N == pytest.approx(want, abs=1e-10)
