"""The weighted area integral and the Grunsky norm as coefficient sums; the
Grunsky kernel.

Both quantities are Parseval sums over the coefficients of one circle-engine
call of 16384 samples.  The area integral bounded by 1/lam is
lam^-2 sum_{n<=4096} (n-lam)|A_n|^2 over the recentered coefficients A_n at
zeta = z, the criterion sum T_N at N = 4096 divided by lam^2.  The Grunsky norm
follows from (1-|z|^2)^2 U_f(z)^2 = sum_{n>=1} n|Psi_n(f;z)|^2, to n = 4095.
Every term is >= 0, so each sum is a lower bound; its tail is extrapolated from
the partial sums and capped by the univalent budget.  The disk quadratures of
both quantities are test oracles in :mod:`univalence.oracles`.

The Grunsky kernel U(f;z,w) is evaluated pointwise: from its closed form away
from w = z and from a truncated series in w - z within a small radius delta.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .catalog import CatalogFunction, series_at
from .sequences import aharonov_phi
from .series import PowerSeries, ps_eval
from .transforms import _GROWTH, phi_capital_recentered, psi_via_transform

__all__ = [
    "QuadratureResult",
    "prawitz_integral",
    "grunsky_kernel_point",
    "grunsky_norm",
    "psi_grunsky_identity_check",
]

#: series order used for all near-diagonal kernel expansions
_SERIES_ORDER = 32

#: coefficients A_1..A_4096 of one engine call of 16384 samples; the exterior sum
#: takes Psi_1..Psi_4095 from the same number of samples
_COUNT = 4096
_TERMS = _COUNT - 1

#: least error estimate relative to a sum: sums land within 3 eps of closed forms
_ROUNDOFF = 16 * np.finfo(float).eps


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

    The sum runs to n = 4096 in one engine call.  Every term is >= 0 for
    lam <= 1, so the value is a lower bound; the error estimate is the sum's
    extrapolated tail, at most 1/lam less the value.  Refused for entries not
    flagged univalent, whose integrand is singular where values collide.
    """
    if not 0 < lam <= 1.0:
        raise ValueError("lam must lie in (0, 1]")
    if not fn.flags.univalent_on_disk:
        raise ValueError(
            f"{fn.label} is not flagged univalent; the integrand would be "
            "singular where values collide"
        )
    z = complex(z)
    if abs(z) >= 1.0:
        raise ValueError("|z| must be < 1")
    A = phi_capital_recentered(fn, z, lam, _COUNT)
    partial = np.cumsum((np.arange(1, _COUNT + 1) - lam) * np.abs(A[1:]) ** 2)
    # the criterion's budget is sum (n-lam)|A_n|^2 <= lam
    return QuadratureResult(
        value=float(partial[-1]) / lam**2, error_estimate=_error(partial, lam) / lam**2
    )


# --------------------------------------------------------------------------
# Grunsky kernel and norm


def _default_delta(z: complex) -> float:
    return 0.15 * (1.0 - abs(z))


def _grunsky_series(fn: CatalogFunction, z: complex) -> PowerSeries:
    """U(f;z,z+t) as a series in t: -(n+1) phi_{n+1} at slot n."""
    phi = aharonov_phi(series_at(fn, z, _SERIES_ORDER + 3), _SERIES_ORDER + 1).values
    n = np.arange(1, phi.size)
    return PowerSeries(z, -(n * phi[1:]))


def grunsky_kernel_point(
    fn: CatalogFunction,
    z: complex,
    w: complex | np.ndarray,
    delta: float | None = None,
):
    """U(f;z,w) = f'(z)f'(w)/(f(w)-f(z))^2 - 1/(z-w)^2.

    Within ``delta`` of the diagonal the removable singularity is evaluated
    through the derivative of the difference-quotient expansion,
    U = -sum_{n>=1} n phi_n(f;z) (w-z)^(n-1).
    """
    z = complex(z)
    if delta is None:
        delta = _default_delta(z)
    warr = np.asarray(w, dtype=np.complex128)
    near = np.abs(warr - z) < delta
    far = ~near
    out = np.empty_like(warr)
    if np.any(far):
        wf, fz, fpz = warr[far], complex(fn.f(z)), complex(fn.df(z))
        out[far] = fpz * fn.df(wf) / (fn.f(wf) - fz) ** 2 - 1.0 / (z - wf) ** 2
    if np.any(near):
        out[near] = ps_eval(_grunsky_series(fn, z), warr[near])
    if np.ndim(w) == 0:
        return complex(out)
    return out


def _error(partial: np.ndarray, budget: float) -> float:
    """The error of a sum of terms >= 0 from its ``partial`` sums S_1..S_K: the
    tail, at most ``budget`` less the sum and at least the sum's roundoff.

    D1 = S_{K/2} - S_{K/4} and D2 = S_K - S_{K/2} fall by r = D2/D1 per doubling
    of K for an algebraic tail, which is then D2 r/(1 - r).  There is no tail if
    D2 is at the roundoff of the sum or of K engine terms (rho^-N <= _GROWTH);
    if the differences do not shrink, the sum is far from done and the tail is
    the whole budget.
    """
    K = partial.size
    quarter, half, total = partial[K // 4 - 1], partial[K // 2 - 1], float(partial[-1])
    d1, d2 = half - quarter, total - half
    if d2 <= max(1e-13 * total, (_GROWTH * K * np.finfo(float).eps) ** 2):
        tail = 0.0
    elif d1 > d2:
        r = d2 / d1
        tail = float(d2 * r / (1.0 - r))
    else:
        tail = budget - total
    return float(max(min(tail, budget - total), _ROUNDOFF * total))


def _grunsky(fn: CatalogFunction, z: complex, N: int) -> tuple[QuadratureResult, float]:
    """U_f(z) and the share of its exterior sum beyond n = N, from one engine call."""
    if not fn.flags.univalent_on_disk:
        raise ValueError(f"{fn.label} is not flagged univalent")
    z = complex(z)
    psi = psi_via_transform(fn, z, _TERMS)
    partial = np.cumsum(np.arange(1, _TERMS + 1) * np.abs(psi[1:]) ** 2)
    total, lhs = float(partial[-1]), float(partial[N - 1])
    omz = 1.0 - abs(z) ** 2
    value = math.sqrt(total) / omz
    # the univalent budget is sum n|Psi_n|^2 <= 1
    err = math.sqrt(total + _error(partial, 1.0)) / omz - value
    residual = (total - lhs) / max(1e-12, total)
    return QuadratureResult(value=value, error_estimate=err), residual


def grunsky_norm(fn: CatalogFunction, z: complex) -> QuadratureResult:
    """U_f(z), the L2 norm over the disk of the Grunsky kernel at z, as
    sqrt(sum_{n<=4095} n|Psi_n(f;z)|^2)/(1-|z|^2), a lower bound; the tail
    estimate of the sum goes through the square root."""
    return _grunsky(fn, z, _TERMS)[0]


def psi_grunsky_identity_check(fn: CatalogFunction, z: complex, N: int) -> float:
    """Relative residual of sum_{n<=N} n |Psi_n(f;z)|^2 = (1-|z|^2)^2 U_f(z)^2: both
    sides come from one array of Psi_1..Psi_4095, so this is the share of the sum
    beyond n = N, normalized by the sum floored at 1e-12."""
    if not 32 <= N <= _TERMS:
        raise ValueError(f"N must be >= 32 for a meaningful truncated sum and <= {_TERMS}")
    return _grunsky(fn, z, N)[1]
