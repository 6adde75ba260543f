"""The weighted area integral and the Grunsky norm as coefficient sums.

Both quantities read the partial sums S_K = sum_{n<=K} (n-lam)|A_n|^2 of the
recentered coefficients A_n at zeta = z, the criterion sums T_K, through
:func:`univalence.criteria._settled_sums`: K = 1024 from 4096 samples when
S_1024 - S_512 is at roundoff, else K = 4096 from 16384 samples.  The area
integral bounded by 1/lam is S_K / lam^2.  The Grunsky norm is read from the
area identity (1-|z|^2)^2 U_f(z)^2 = sum_{n>=1} n|Psi_n(f;z)|^2, whose sum to
n = K-1 is S_K at lam = 1 (Psi_n = A_{n+1}), so both sides are one sum and it
has one output.  Every term is >= 0, so each sum is a lower bound; its tail is
extrapolated from the partial sums and capped by the univalent budget.  The
disk quadratures of both quantities are test oracles in :mod:`univalence.oracles`,
and so is the pointwise Grunsky kernel U(f;z,w) that the norm's quadrature integrates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .catalog import CatalogFunction
from .criteria import _LAM_FLOOR, _LONG, _error, _settled_sums
# unused: bench/tests/test_bench.py::test_tracer_wraps_every_binding_and_removes_the_wrappers
# requires the binding univalence.quadrature.aharonov_phi until that test changes
from .sequences import aharonov_phi  # noqa: F401

__all__ = [
    "QuadratureResult",
    "prawitz_integral",
    "grunsky_norm",
    "psi_grunsky_identity_check",
]


@dataclass(frozen=True)
class QuadratureResult:
    """A value with an estimate of its absolute error."""

    value: float
    error_estimate: float

    def __post_init__(self):
        if not math.isfinite(self.value):
            raise ValueError("quadrature value must be finite")
        if self.error_estimate < 0:
            raise ValueError("error estimate must be >= 0")


# --------------------------------------------------------------------------
# weighted area integral


def prawitz_integral(fn: CatalogFunction, lam: float, z: complex) -> QuadratureResult:
    """The weighted area integral bounded by 1/lam for univalent functions.

    The integral is (1-|z|^2)^(2 lam)/pi times the disk integral of
    |P(f;z,w)|^2 / |w-z|^(2(1+lam)), where P couples the difference quotient
    of f at z with the automorphism weight.  By Parseval on circles it equals
    lam^-2 sum_{n>=1} (n-lam)|A_n|^2 over the criterion's recentered
    coefficients A_n at zeta = z, so the area theorem's budget 1/lam and the
    criterion's budget lam are one inequality.  Equality holds exactly for
    full mappings.

    The value is the partial sum S_K / lam^2: K = 1024 when the second half
    of that short sum is at roundoff, else K = 4096 from a second engine call
    (:func:`univalence.criteria._settled_sums`).  Every term is >= 0 for
    lam <= 1, so the value is a lower bound; the error estimate is the sum's
    extrapolated tail, at most 1/lam less the value rounded up by one ulp.
    Refused for lam below ``criteria._LAM_FLOOR``, about 9.1e-10, where that tail
    is under roundoff, and for entries not flagged univalent, whose integrand is
    singular where values collide.
    """
    if not 0 < lam <= 1.0:
        raise ValueError("lam must lie in (0, 1]")
    if lam < _LAM_FLOOR:
        raise ValueError(
            f"lam={lam!r} is too small: below {_LAM_FLOOR:.2g} the sum's tail is under roundoff"
        )
    if not fn.flags.univalent_on_disk:
        raise ValueError(
            f"{fn.label} is not flagged univalent; the integrand would be "
            "singular where values collide"
        )
    S = _settled_sums(fn, lam, z)
    value, (err, capped) = float(S[-1]) / lam**2, _error(S, lam)
    # the criterion's budget is sum (n-lam)|A_n|^2 <= lam.  A tail capped at the gap
    # lam - S is the gap in the integral's own units, 1/lam - value, rounded up so that
    # value + error_estimate reaches 1/lam in floating point
    err = math.nextafter(1.0 / lam - value, math.inf) if capped else err / lam**2
    return QuadratureResult(value=value, error_estimate=err)


# --------------------------------------------------------------------------
# Grunsky norm


def grunsky_norm(fn: CatalogFunction, z: complex) -> QuadratureResult:
    """U_f(z), the L2 norm over the disk of the Grunsky kernel at z, as
    sqrt(sum_{n<K} n|Psi_n(f;z)|^2)/(1-|z|^2), that is sqrt(S_K) at lam = 1
    over 1-|z|^2, a lower bound: K = 1024 when S_1024 - S_512 is at roundoff,
    else 4096.  The tail estimate of the sum goes through the square root."""
    if not fn.flags.univalent_on_disk:
        raise ValueError(f"{fn.label} is not flagged univalent")
    # Psi_n = A_{n+1} at lam = 1, so sum_{n<=K} n|Psi_n|^2 = S_{K+1}
    S = _settled_sums(fn, 1.0, z)
    total, omz = float(S[-1]), 1.0 - abs(z) ** 2
    value = math.sqrt(total) / omz
    # the univalent budget is sum n|Psi_n|^2 <= 1
    err = math.sqrt(total + _error(S, 1.0)[0]) / omz - value
    return QuadratureResult(value=value, error_estimate=err)


def psi_grunsky_identity_check(fn: CatalogFunction, z: complex, N: int) -> float:
    """The truncation share of the settled sum of ``grunsky_norm`` beyond n = N,
    (S_K - S_{min(N+1, K)})/S_K, S_K floored at 1e-12: it cannot fail, and it is kept
    only for the benchmark's disk_quadrature task, until that task reads the oracle."""
    if not 32 <= N < _LONG:
        raise ValueError(f"N must be >= 32 for a meaningful truncated sum and <= {_LONG - 1}")
    if not fn.flags.univalent_on_disk:
        raise ValueError(f"{fn.label} is not flagged univalent")
    S = _settled_sums(fn, 1.0, z)
    total = float(S[-1])
    return (total - float(S[min(N, S.size - 1)])) / max(1e-12, total)
