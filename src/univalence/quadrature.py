"""The weighted area integral and the Grunsky norm as coefficient sums; the
Grunsky kernel.

Both quantities read the partial sums S_K = sum_{n<=K} (n-lam)|A_n|^2 of the
recentered coefficients A_n at zeta = z, from one engine call of 4096
coefficients and 16384 samples (:func:`univalence.criteria._partial_sums`, the
routine behind the criterion sum T_N).  The area integral bounded by 1/lam is
S_4096 / lam^2.  The Grunsky norm follows from
(1-|z|^2)^2 U_f(z)^2 = sum_{n>=1} n|Psi_n(f;z)|^2, and Psi_n = A_{n+1} at
lam = 1, so its sum to n = K is S_{K+1} at lam = 1.  Every term is >= 0, so
each sum is a lower bound; its tail is extrapolated from the partial sums and
capped by the univalent budget.  The disk quadratures of both quantities are
test oracles in :mod:`univalence.oracles`.

The Grunsky kernel U(f;z,w) is evaluated pointwise: from its closed form away
from w = z and from a truncated series in w - z within 0.15 (1-|z|) of it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .catalog import CatalogFunction, series_at
from .criteria import _error, _partial_sums
from .sequences import aharonov_phi
from .series import PowerSeries, ps_eval

__all__ = [
    "QuadratureResult",
    "prawitz_integral",
    "grunsky_kernel_point",
    "grunsky_norm",
    "psi_grunsky_identity_check",
]

#: series order used for all near-diagonal kernel expansions
_SERIES_ORDER = 32

#: coefficients A_1..A_4096 of one engine call of 16384 samples
_COUNT = 4096


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

    The value is the partial sum S_4096 / lam^2 of one engine call.  Every
    term is >= 0 for lam <= 1, so the value is a lower bound; the error
    estimate is the sum's extrapolated tail, at most 1/lam less the value.
    Refused for entries not flagged univalent, whose integrand is singular
    where values collide.
    """
    if not 0 < lam <= 1.0:
        raise ValueError("lam must lie in (0, 1]")
    if lam**2 == 0.0:  # below about 1.5e-162 the sum over lam^2 has no double value
        raise ValueError(f"lam={lam!r} is too small: lam^2 underflows to 0")
    if not fn.flags.univalent_on_disk:
        raise ValueError(
            f"{fn.label} is not flagged univalent; the integrand would be "
            "singular where values collide"
        )
    S = _partial_sums(fn, lam, z, _COUNT)[1]
    # the criterion's budget is sum (n-lam)|A_n|^2 <= lam
    return QuadratureResult(value=float(S[-1]) / lam**2, error_estimate=_error(S, lam) / lam**2)


# --------------------------------------------------------------------------
# Grunsky kernel and norm


def _default_delta(z: complex) -> float:
    return 0.15 * (1.0 - abs(z))


def _grunsky_series(fn: CatalogFunction, z: complex) -> PowerSeries:
    """U(f;z,z+t) as a series in t: -(n+1) phi_{n+1} at slot n."""
    phi = aharonov_phi(series_at(fn, z, _SERIES_ORDER + 3), _SERIES_ORDER + 1).values
    n = np.arange(1, phi.size)
    return PowerSeries(z, -(n * phi[1:]))


def grunsky_kernel_point(fn: CatalogFunction, z: complex, w: complex | np.ndarray):
    """U(f;z,w) = f'(z)f'(w)/(f(w)-f(z))^2 - 1/(z-w)^2.

    Within 0.15 (1-|z|) of the diagonal the removable singularity is evaluated
    through the derivative of the difference-quotient expansion,
    U = -sum_{n>=1} n phi_n(f;z) (w-z)^(n-1).
    """
    z = complex(z)
    warr = np.asarray(w, dtype=np.complex128)
    near = np.abs(warr - z) < _default_delta(z)
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


def _grunsky(fn: CatalogFunction, z: complex, N: int) -> tuple[QuadratureResult, float]:
    """U_f(z) and the share of its exterior sum beyond n = N, from one engine call."""
    if not 32 <= N < _COUNT:
        raise ValueError(f"N must be >= 32 for a meaningful truncated sum and <= {_COUNT - 1}")
    if not fn.flags.univalent_on_disk:
        raise ValueError(f"{fn.label} is not flagged univalent")
    z = complex(z)
    # Psi_n = A_{n+1} at lam = 1, so sum_{n<=K} n|Psi_n|^2 = S_{K+1}
    S = _partial_sums(fn, 1.0, z, _COUNT)[1]
    total, lhs = float(S[-1]), float(S[N])
    omz = 1.0 - abs(z) ** 2
    value = math.sqrt(total) / omz
    # the univalent budget is sum n|Psi_n|^2 <= 1
    err = math.sqrt(total + _error(S, 1.0)) / omz - value
    residual = (total - lhs) / max(1e-12, total)
    return QuadratureResult(value=value, error_estimate=err), residual


def grunsky_norm(fn: CatalogFunction, z: complex) -> QuadratureResult:
    """U_f(z), the L2 norm over the disk of the Grunsky kernel at z, as
    sqrt(sum_{n<=4095} n|Psi_n(f;z)|^2)/(1-|z|^2), that is sqrt(S_4096) at
    lam = 1 over 1-|z|^2, a lower bound; the tail estimate of the sum goes
    through the square root."""
    return _grunsky(fn, z, _COUNT - 1)[0]


def psi_grunsky_identity_check(fn: CatalogFunction, z: complex, N: int) -> float:
    """Relative residual of sum_{n<=N} n |Psi_n(f;z)|^2 = (1-|z|^2)^2 U_f(z)^2: both
    sides read the partial sums S at lam = 1 of one engine call, the left side
    S_{N+1} and the right side S_4096, so this is the share of the sum beyond
    n = N, normalized by the sum floored at 1e-12."""
    return _grunsky(fn, z, N)[1]
