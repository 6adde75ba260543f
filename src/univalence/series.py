"""Truncated power-series arithmetic over complex coefficients.

A :class:`PowerSeries` stores the Taylor coefficients c_0..c_N of an analytic
function about a fixed center, representing sum_k c_k (w - z0)^k.  All
operations are pure functions of immutable inputs and keep the order of their
input.  Coefficients are double-precision complex; the recurrences below are
exact given exact inputs, so closed-form input series keep near machine
accuracy through reciprocal and powers.  Horner evaluation, the product and
the derivative serve only the reference routes, in :mod:`univalence.oracles`.

The reciprocal and real-power recurrences are evaluated in blocks of
``_BLOCK`` coefficients.  The first block, indices below ``_BLOCK``, is the
literal per-coefficient recurrence.  For each later block [s, e) the part of
every sum over the known coefficients b_0..b_{s-1} (the block's history) is
one ``np.convolve`` in C; only the terms inside the block stay sequential.
Each coefficient is still a sum over its own terms, so rounding stays local,
unlike a Newton iteration on FFT products, whose rounding scales with the
norm of the whole vector.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import NonInvertibleSeriesError, NormalizationError, SeriesOverflowError

__all__ = ["PowerSeries", "ps_recip", "ps_pow_real"]

#: constant-term tolerance for normalized bases (`ps_pow_real`)
_UNIT_TOL = 1e-12

#: coefficients per block of the reciprocal and real-power recurrences
_BLOCK = 128

#: _LAG[j, t] = j - t for t < j, else 0: the index k of c_k pairing b_{s+j} with b_{s+t}
#: in a block of the real-power recurrence
_LAG = np.maximum(np.subtract.outer(np.arange(_BLOCK), np.arange(_BLOCK)), 0)
_LAG.flags.writeable = False


@dataclass(frozen=True, eq=False)
class PowerSeries:
    """Truncated Taylor expansion about ``center`` with coefficients ``coeffs``."""

    center: complex
    coeffs: np.ndarray = field(repr=False)

    def __post_init__(self):
        c = np.asarray(self.coeffs, dtype=np.complex128)
        if c.ndim != 1 or c.size == 0:
            raise ValueError("coeffs must be a non-empty 1-d sequence")
        if not (np.all(np.isfinite(c.real)) and np.all(np.isfinite(c.imag))):
            raise ValueError("series coefficients must be finite")
        c = c.copy()
        c.setflags(write=False)
        object.__setattr__(self, "center", complex(self.center))
        object.__setattr__(self, "coeffs", c)

    @property
    def order(self) -> int:
        return self.coeffs.size - 1

    def __repr__(self):
        head = ", ".join(f"{c:.6g}" for c in self.coeffs[:4])
        tail = ", ..." if self.order > 3 else ""
        return f"PowerSeries(center={self.center:.6g}, order={self.order}, [{head}{tail}])"


def _checked(center: complex, b: np.ndarray, lam: float | None = None) -> PowerSeries:
    """The series of ``b``, unless its recurrence (run under errstate) left the double
    range; the error names the first such index, and ``lam`` for a real power."""
    finite = np.isfinite(b)
    if not finite.all():
        what = "series reciprocal" if lam is None else f"power lam={lam} of the series"
        raise SeriesOverflowError(f"{what} leaves the double range at index {np.argmin(finite)}")
    return PowerSeries(center, b)


@np.errstate(over="ignore", invalid="ignore")
def ps_recip(a: PowerSeries) -> PowerSeries:
    """Multiplicative inverse: the Cauchy product of ``a`` and ps_recip(a) is [1, 0, ..., 0].

    Raises :class:`NonInvertibleSeriesError` when the constant term vanishes
    (for difference-quotient series this means f'(z) = 0 at the center), and
    :class:`SeriesOverflowError` when a coefficient leaves the double range.
    """
    c = a.coeffs
    if c[0] == 0:
        raise NonInvertibleSeriesError(
            "non-invertible series: constant term is zero (f'(z)=0: "
            "not locally univalent at the center)"
        )
    n = a.order
    b = np.zeros(n + 1, dtype=np.complex128)
    b[0] = 1.0 / c[0]
    for k in range(1, min(n, _BLOCK - 1) + 1):
        b[k] = -np.dot(c[1 : k + 1], b[k - 1 :: -1]) / c[0]
    for s in range(_BLOCK, n + 1, _BLOCK):
        e = min(s + _BLOCK, n + 1)
        # hist[k - s] = sum_{i<s} c_{k-i} b_i; the block then solves the lower
        # triangular Toeplitz system with first column c[:e-s], whose inverse
        # has first column b[:e-s], already known because e - s <= s
        hist = np.convolve(c[1:e], b[:s], "valid")
        b[s:e] = -np.convolve(b[: e - s], hist)[: e - s]
    return _checked(a.center, b)


@np.errstate(over="ignore", invalid="ignore")
def ps_pow_real(a: PowerSeries, lam: float) -> PowerSeries:
    """Real power a**lam of a series with constant term 1.

    The branch is the one with constant term 1, computed by the one-pass
    recurrence n*b_n = sum_{k=1..n} ((lam+1)k - n) a_k b_{n-k}, equivalent to
    the defining relation (a^lam)' * a = lam * a' * a^lam.  Raises
    :class:`SeriesOverflowError` when a coefficient leaves the double range.
    """
    c = a.coeffs
    if abs(c[0] - 1.0) > _UNIT_TOL:
        raise NormalizationError(
            f"unnormalized base: constant term {c[0]} is not 1"
        )
    n = a.order
    b = np.zeros(n + 1, dtype=np.complex128)
    b[0] = 1.0
    ks = np.arange(n + 1, dtype=np.float64)
    for m in range(1, min(n, _BLOCK - 1) + 1):
        w = (lam + 1.0) * ks[1 : m + 1] - m
        b[m] = np.dot(w * c[1 : m + 1], b[m - 1 :: -1]) / m
    if n < _BLOCK:
        return _checked(a.center, b, lam)
    u = (lam + 1.0) * ks * c
    for s in range(_BLOCK, n + 1, _BLOCK):
        e = min(s + _BLOCK, n + 1)
        # history: sum_{i<s} ((lam+1)(m-i) - m) c_{m-i} b_i for m in [s, e)
        hist = np.convolve(u[1:e], b[:s], "valid") - ks[s:e] * np.convolve(c[1:e], b[:s], "valid")
        # the 1/m of the recurrence is not Toeplitz, so the block stays a short loop
        g = _LAG[: e - s, : e - s]
        w = ((lam + 1.0) * g - ks[s:e, None]) * c[g]
        x = b[s:e]
        for j, h in enumerate(hist.tolist()):
            x[j] = (h + np.dot(w[j, :j], x[:j])) / (s + j)
    return _checked(a.center, b, lam)

