"""Truncated-series arithmetic against hand-computed and oracle values."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from univalence.errors import NonInvertibleSeriesError, NormalizationError, SeriesOverflowError
from univalence.oracles import gen_binomial, ps_compose, ps_derivative, ps_mul
from univalence.series import PowerSeries, ps_eval, ps_pow_real, ps_recip


def S(coeffs, center=0.0):
    return PowerSeries(center, coeffs)


# ---------------------------------------------------------------- binomial


@pytest.mark.parametrize("alpha", [0.0, 1.0, -2.5, 0.5, 17.0])
def test_binomial_at_zero(alpha):
    assert gen_binomial(alpha, 0) == 1.0


def test_binomial_values():
    assert gen_binomial(-1.0, 3) == -1.0
    assert gen_binomial(0.5, 2) == pytest.approx(-0.125, abs=1e-15)
    assert gen_binomial(3.0, 4) == 0.0
    assert gen_binomial(2.0, 2) == 1.0


def test_binomial_rejects_negative_m():
    with pytest.raises(ValueError):
        gen_binomial(1.0, -1)


@given(
    alpha=st.floats(min_value=-5, max_value=5, allow_nan=False),
    m=st.integers(min_value=0, max_value=12),
)
def test_binomial_reflection(alpha, m):
    # binom(-a, m) = (-1)^m binom(a+m-1, m)
    lhs = gen_binomial(-alpha, m)
    rhs = (-1.0) ** m * gen_binomial(alpha + m - 1, m)
    assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)


# ---------------------------------------------------------------- mul


def test_mul_basic():
    out = ps_mul(S([1, 1]), S([1, -1]))
    assert np.allclose(out.coeffs, [1, 0])
    a = S([2, 3, 4])
    ident = S([1, 0, 0])
    assert np.array_equal(ps_mul(a, ident).coeffs, a.coeffs)
    out = ps_mul(S([0, 1, 0]), S([0, 1, 0]))
    assert np.allclose(out.coeffs, [0, 0, 1])


def test_mul_truncates_to_shorter():
    out = ps_mul(S([1, 2, 3, 4]), S([1, 1]))
    assert out.order == 1
    assert np.allclose(out.coeffs, [1, 3])


coeff_lists = st.lists(
    st.complex_numbers(max_magnitude=2.0, allow_nan=False, allow_infinity=False),
    min_size=1,
    max_size=12,
)


@given(a=coeff_lists, b=coeff_lists, c=coeff_lists)
def test_mul_commutative_associative(a, b, c):
    A, B, C = S(a), S(b), S(c)
    ab = ps_mul(A, B)
    ba = ps_mul(B, A)
    scale = max(1.0, float(np.max(np.abs(ab.coeffs))))
    assert np.max(np.abs(ab.coeffs - ba.coeffs)) <= 1e-13 * scale
    lhs = ps_mul(ps_mul(A, B), C)
    rhs = ps_mul(A, ps_mul(B, C))
    scale = max(1.0, float(np.max(np.abs(lhs.coeffs))))
    assert np.max(np.abs(lhs.coeffs - rhs.coeffs)) <= 1e-13 * scale


def test_mul_commutative_high_order():
    rng = np.random.default_rng(7)
    a = S(rng.standard_normal(65) + 1j * rng.standard_normal(65))
    b = S(rng.standard_normal(65) + 1j * rng.standard_normal(65))
    ab, ba = ps_mul(a, b), ps_mul(b, a)
    scale = max(1.0, float(np.max(np.abs(ab.coeffs))))
    assert np.max(np.abs(ab.coeffs - ba.coeffs)) <= 1e-13 * scale


# ---------------------------------------------------------------- recip


def _long_division(denom, order):
    # schoolbook division of 1 by the series, kept independent of ps_recip
    out = [1.0 / denom[0]]
    for n in range(1, order + 1):
        acc = 0.0j
        for k in range(1, min(n, len(denom) - 1) + 1):
            acc += denom[k] * out[n - k]
        out.append(-acc / denom[0])
    return np.array(out)


def test_repr_shows_the_first_four_coefficients():
    want = "PowerSeries(center=0.5+0j, order=4, [1+0j, 2+0j, 3+0j, 4+0j, ...])"
    assert repr(S([1, 2, 3, 4, 5], 0.5)) == want
    assert repr(S([1, -2])) == "PowerSeries(center=0+0j, order=1, [1+0j, -2+0j])"


def test_recip_geometric():
    out = ps_recip(S([1, -1, 0, 0, 0]))
    assert np.allclose(out.coeffs, np.ones(5), atol=1e-14)


def test_recip_constant():
    assert np.allclose(ps_recip(S([2.0])).coeffs, [0.5])


def test_recip_alternating_matches_long_division():
    out = ps_recip(S([1, 1, 0, 0]))
    assert np.allclose(out.coeffs, [1, -1, 1, -1], atol=1e-14)
    assert np.allclose(out.coeffs, _long_division([1, 1], 3), atol=1e-14)


def test_recip_zero_constant_term():
    with pytest.raises(NonInvertibleSeriesError):
        ps_recip(S([0, 1, 2]))


@given(a=coeff_lists)
def test_recip_mul_recovers_one(a):
    a = list(a)
    a[0] = a[0] + 3.0  # keep the constant term away from zero
    A = S(a)
    prod = ps_mul(A, ps_recip(A)).coeffs
    want = np.zeros(len(a), dtype=complex)
    want[0] = 1.0
    assert np.max(np.abs(prod - want)) <= 1e-12


def test_recip_mul_high_order():
    # decaying coefficients keep the reciprocal well conditioned at order 64
    rng = np.random.default_rng(11)
    k = np.arange(65)
    c = (rng.standard_normal(65) + 1j * rng.standard_normal(65)) * 0.4**k
    c[0] = 1.0
    prod = ps_mul(S(c), ps_recip(S(c))).coeffs
    assert abs(prod[0] - 1.0) <= 1e-12
    assert np.max(np.abs(prod[1:])) <= 1e-12


# ---------------------------------------------------------------- derivative


def test_derivative_basic():
    assert np.allclose(ps_derivative(S([5.0, 0, 0])).coeffs, [0, 0])
    assert np.allclose(ps_derivative(S([0, 1, 1])).coeffs, [1, 2])


def test_derivative_of_geometric_is_square():
    geo = ps_recip(S([1, -1] + [0] * 10))
    lhs = ps_derivative(geo)
    rhs = ps_mul(geo, geo)
    assert np.max(np.abs(lhs.coeffs - rhs.coeffs[:-1])) <= 1e-12


def test_derivative_needs_order():
    with pytest.raises(ValueError):
        ps_derivative(S([1.0]))


# ---------------------------------------------------------------- pow


def test_pow_integer_square():
    out = ps_pow_real(S([1, -1, 0, 0]), 2.0)
    assert np.allclose(out.coeffs, [1, -2, 1, 0], atol=1e-14)


def test_pow_zero_exponent():
    out = ps_pow_real(S([1, 0.3, -0.7, 0.2]), 0.0)
    assert np.allclose(out.coeffs, [1, 0, 0, 0])


def test_pow_half_binomial_oracle():
    out = ps_pow_real(S([1, -1, 0, 0]), 0.5)
    want = [(-1.0) ** n * gen_binomial(0.5, n) for n in range(4)]
    assert np.allclose(out.coeffs, want, atol=1e-15)
    assert np.allclose(out.coeffs, [1, -0.5, -0.125, -0.0625], atol=1e-15)


def test_pow_requires_unit_constant():
    with pytest.raises(NormalizationError):
        ps_pow_real(S([2, 1]), 0.5)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_recip_and_pow_name_the_first_coefficient_out_of_range():
    # 1/(1 - 2t) has coefficients 2^k, past the double range from k = 1024, in a block
    with pytest.raises(SeriesOverflowError, match="series reciprocal leaves the double range at index 1024$"):
        ps_recip(S([1.0] + [-2.0] + [0.0] * 1100))
    with pytest.raises(SeriesOverflowError, match="at index 0$"):
        ps_recip(S([1e-310, 1.0]))
    with pytest.raises(SeriesOverflowError, match=r"power lam=1e\+300 of the series leaves the double range at index 2$"):
        ps_pow_real(S([1.0, 1.0, 0.0]), 1e300)


def _unit_series(seed, order):
    # constant term 1, geometrically decaying tail: powers stay O(1)
    rng = np.random.default_rng(seed)
    k = np.arange(order + 1)
    c = (rng.standard_normal(order + 1) + 1j * rng.standard_normal(order + 1)) * 0.5**k
    c[0] = 1.0
    return S(c)


@pytest.mark.parametrize("l1,l2", [(0.5, 1.7), (-0.3, 2.2), (1.0, 1.0)])
def test_pow_additivity(l1, l2):
    a = _unit_series(3, 32)
    lhs = ps_pow_real(a, l1 + l2).coeffs
    rhs = ps_mul(ps_pow_real(a, l1), ps_pow_real(a, l2)).coeffs
    scale = max(1.0, float(np.max(np.abs(lhs))))
    assert np.max(np.abs(lhs - rhs)) <= 1e-10 * scale


def test_pow_one_is_identity():
    a = _unit_series(5, 24)
    out = ps_pow_real(a, 1.0)
    assert np.max(np.abs(out.coeffs - a.coeffs)) <= 1e-12


@pytest.mark.parametrize("lam", [0.5, 1.7, -0.4])
def test_pow_differential_identity(lam):
    # (a^lam)' * a = lam * a' * a^lam, coefficient-wise
    a = _unit_series(9, 20)
    b = ps_pow_real(a, lam)
    lhs = ps_mul(ps_derivative(b), a)
    rhs = ps_mul(ps_derivative(a), b)
    assert np.max(np.abs(lhs.coeffs - lam * rhs.coeffs)) <= 1e-11


# ---------------------------------------------------------------- blocked kernels


def _recip_loop(c):
    # the per-coefficient reciprocal recurrence, kept as the reference for the first block
    b = np.zeros(len(c), dtype=np.complex128)
    b[0] = 1.0 / c[0]
    for k in range(1, len(c)):
        b[k] = -np.dot(c[1 : k + 1], b[k - 1 :: -1]) / c[0]
    return b


def _pow_loop(c, lam):
    # the per-coefficient real-power recurrence, kept as the reference for the first block
    b = np.zeros(len(c), dtype=np.complex128)
    b[0] = 1.0
    ks = np.arange(len(c), dtype=np.float64)
    for m in range(1, len(c)):
        w = (lam + 1.0) * ks[1 : m + 1] - m
        b[m] = np.dot(w * c[1 : m + 1], b[m - 1 :: -1]) / m
    return b


#: a rotation that makes every coefficient of the test series complex
ROT = np.exp(1.1j)
BLOCK_ORDERS = [127, 128, 129, 255, 256, 1000, 4096]


@pytest.mark.parametrize("order", [1, 2, 17, 64, 126, 127])
def test_kernels_below_first_block_match_loop_bitwise(order):
    a = _unit_series(13, order)
    assert np.array_equal(ps_recip(a).coeffs, _recip_loop(a.coeffs))
    for lam in (0.37, 1.7, -0.4):
        assert np.array_equal(ps_pow_real(a, lam).coeffs, _pow_loop(a.coeffs, lam))
    k = np.arange(order + 1)
    koebe = S((k + 1) * ROT**k)
    assert np.array_equal(ps_recip(koebe).coeffs, _recip_loop(koebe.coeffs))


@pytest.mark.parametrize("order", BLOCK_ORDERS)
@pytest.mark.parametrize("u", [ROT, 0.99 * ROT], ids=["unit", "inside"])
def test_recip_rotated_koebe_across_blocks(order, u):
    # 1 / sum (k+1) u^k t^k = (1 - u t)^2 exactly; with |u| = 1, conj(u) = 1/u, so
    # only the |u| < 1 case tells a convolution from a conjugating correlation
    k = np.arange(order + 1)
    out = ps_recip(S((k + 1) * u**k)).coeffs
    want = np.zeros(order + 1, dtype=complex)
    want[:3] = [1.0, -2.0 * u, u**2]
    assert np.max(np.abs(out - want)) <= 2e-8


@pytest.mark.parametrize("order", BLOCK_ORDERS)
@pytest.mark.parametrize("lam", [0.37, 1.7, -0.4])
def test_pow_rotated_linear_across_blocks(order, lam):
    # (1 - u t)^lam = sum binom(lam, n) (-u)^n t^n
    base = np.zeros(order + 1, dtype=complex)
    base[:2] = [1.0, -ROT]
    out = ps_pow_real(S(base), lam).coeffs
    n = np.arange(1, order + 1)
    binom = np.concatenate(([1.0], np.cumprod((lam - n + 1) / n)))
    want = binom * (-ROT) ** np.arange(order + 1)
    assert np.max(np.abs(out - want) / np.maximum(1.0, np.abs(want))) <= 1e-14


# ---------------------------------------------------------------- compose


def test_compose_identity_outer():
    inner = S([0, 1, 1])
    out = ps_compose(S([0, 1, 0]), inner)
    assert np.allclose(out.coeffs, inner.coeffs)


def test_compose_quadratic():
    # 1 + (t+t^2)^2 truncated to order 2 is 1 + t^2
    out = ps_compose(S([1, 0, 1]), S([0, 1, 1]))
    assert np.allclose(out.coeffs, [1, 0, 1], atol=1e-14)


def test_compose_linear():
    out = ps_compose(S([0, 1]), S([0, 2]))
    assert np.allclose(out.coeffs, [0, 2])


def test_compose_rejects_nonzero_inner_constant():
    with pytest.raises(ValueError):
        ps_compose(S([1, 1]), S([0.5, 1]))


# ---------------------------------------------------------------- eval


def test_eval_at_center():
    assert ps_eval(S(np.ones(8)), 0.0) == 1.0


def test_eval_geometric():
    val = ps_eval(S(np.ones(31)), 0.5)
    assert abs(val - 2.0) <= 1e-8


def test_eval_linear_shift():
    s = S([0, 1], center=0.2)
    assert ps_eval(s, 0.7) == pytest.approx(0.5)


# ---------------------------------------------------------------- validation


def test_series_rejects_nan():
    with pytest.raises(ValueError):
        PowerSeries(0.0, [1.0, float("nan")])


def test_series_rejects_empty():
    with pytest.raises(ValueError):
        PowerSeries(0.0, [])


def test_series_coeffs_read_only():
    s = S([1, 2, 3])
    with pytest.raises(ValueError):
        s.coeffs[0] = 5.0
