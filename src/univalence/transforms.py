"""The recentered coefficients of a disk-automorphism pullback.

``phi_capital_recentered`` samples the generating function of the pullback
f o sigma_zeta on a circle (closed-form point evaluation; at lam = 1 the quotient
itself, else its power on the branch fixed by the mean-value property) and
recovers Taylor coefficients by discrete Fourier inversion.  It is the one
route for the recentered coefficients at every zeta, the origin included, and
so the engine behind the area sums, the criterion sums and the Psi sequence.
Its sampling follows from the count N alone: the first radius keeps
rho^-N <= 100 (the roundoff amplification of the highest coefficient), and the
sample count is a power of two >= 4N, at least 4096.  The literal recentering
sum and truncated-series composition are reference routes in :mod:`univalence.oracles`.
"""

from __future__ import annotations

import functools
import operator

import numpy as np

from .catalog import CatalogFunction
from .errors import UnivalenceError
from .sequences import _require_derivative

__all__ = [
    "phi_capital_recentered",
    "psi_via_transform",
]

#: the fewest circle samples of any expansion
_MIN_SAMPLES = 4096
#: fallback sampling radii, tried in turn below the first radius while q vanishes
#: or winds on the circle
_RADII = (0.95, 0.9, 0.82, 0.7, 0.55)
#: largest roundoff amplification rho^-N the first radius may bring
_GROWTH = 100.0
#: largest lam * max log|q| on the circle: the transform's roundoff, eps max|q|^lam,
#: stays below the 1e-8 of the Phi_0 check
_POWER_LOG = float(np.log(1e-8 / np.finfo(float).eps))


def _sampling(count: int) -> tuple[tuple[float, ...], int]:
    """Radii to try and the sample count for coefficients 0..count."""
    rho0 = max(_RADII[0], _GROWTH ** (-1.0 / max(count, 1)))
    samples = max(_MIN_SAMPLES, 1 << (4 * count - 1).bit_length())
    return (rho0,) + tuple(r for r in _RADII if r < rho0), samples


@functools.lru_cache(maxsize=8)
def _roots(samples: int) -> np.ndarray:
    """Read-only roots of unity exp(2 pi i j / samples), built once per sample count."""
    roots = np.exp(1j * (2.0 * np.pi * np.arange(samples) / samples))
    roots.flags.writeable = False
    return roots


def phi_capital_recentered(
    fn: CatalogFunction,
    zeta: complex,
    lam: float,
    count: int,
) -> np.ndarray:
    """Phi_{lam,0..count}(f o sigma_zeta; 0) by circle sampling and FFT.

    Samples q(w) = F'(0) w / (F(w) - F(0)) with F = f o sigma_zeta (f itself at
    zeta = 0) on a circle |w| = rho using closed-form point values, takes the
    lam-th power on the branch with log q(0) = 0 (no branch at lam = 1; |q|^lam
    from |F(w) - F(0)|), and inverts the discrete Fourier transform.  Falls back
    to smaller rho when the circle meets or encloses a second preimage of F(0), a pole
    of q (non-univalent f), when the power is larger than a double resolves to the
    1e-8 of the Phi_0 check, or when the coefficients leave the double range.
    """
    if not lam > 0:
        raise ValueError("lam must be positive")
    count = operator.index(count)
    if count < 0:
        raise ValueError("count must be >= 0")
    zeta = complex(zeta)
    if not abs(zeta) < 1.0:
        raise ValueError("|zeta| must be < 1")

    radii, samples = _sampling(count)
    last_reason = "no radius attempted"
    # the samples of f, the power, the transform and the division by rho^n may leave
    # the double range (an entry that overflows on the circle, an infinite lam, or
    # rho^-n past a fallback radius); _expand refuses every non-finite result
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        fz = complex(fn.f(zeta))
        deriv0 = _require_derivative(complex(fn.df(zeta)), zeta) * (1.0 - abs(zeta) ** 2)
        for rho in radii:
            out, last_reason = _expand(fn, zeta, fz, deriv0, lam, count, rho, samples)
            if out is not None:
                return out

    raise UnivalenceError(
        f"could not expand the recentered generating function at zeta={zeta}: {last_reason}"
    )


def _unwrap(p: np.ndarray) -> None:
    """Unwrap the phases ``p`` in place, bit for bit as ``np.unwrap(p)``.

    A smooth loop of samples jumps by 2 pi only where the principal argument
    crosses its cut, a handful of places; ``np.unwrap``'s corrections
    elsewhere are exact zeros, so they are computed only at the jumps.
    """
    dd = np.diff(p)
    jumps = np.flatnonzero(np.abs(dd) >= np.pi)
    if jumps.size:
        d = dd[jumps]
        ddmod = np.mod(d + np.pi, 2.0 * np.pi) - np.pi
        np.copyto(ddmod, np.pi, where=(ddmod == -np.pi) & (d > 0))
        correction = np.zeros_like(dd)
        correction[jumps] = ddmod - d
        p[1:] += correction.cumsum()


def _expand(fn, zeta, fz, deriv0, lam, count, rho, samples):
    """Coefficients 0..count from ``samples`` points on |w| = rho, or None and the reason."""
    w = rho * _roots(samples)
    # sigma_0 is the identity
    dq = fn.f(w if zeta == 0 else (w + zeta) / (1.0 + np.conj(zeta) * w)) - fz
    if not np.isfinite(dq).all():
        return None, f"non-finite samples at rho={rho}"
    adq = np.abs(dq)
    dq_min, dq_max = float(np.min(adq)), max(1.0, float(np.max(adq)))
    if dq_min < 1e-13 * dq_max:
        return None, f"collision point on the sampling circle at rho={rho}"
    # |q| = |deriv0| rho / |dq| on the circle, largest where |dq| is least
    if lam * float(np.log(abs(deriv0) * rho / dq_min)) > _POWER_LOG:
        return None, f"the lam-th power of q exceeds what a double resolves at rho={rho}"
    q = w * (deriv0 / dq)

    loop = np.empty(samples + 1)  # arg q around the circle, closed by its first point
    loop[:-1] = np.angle(q)
    loop[-1] = loop[0]
    _unwrap(loop)
    winding = (loop[-1] - loop[0]) / (2.0 * np.pi)
    if abs(winding) > 0.25:
        return None, f"winding {winding:.2f} at rho={rho} (f takes f(zeta) again inside the circle)"
    if lam == 1.0:
        H = q  # q^1 takes no branch
    else:
        # no winding: log q is analytic on |w| <= rho with log q(0) = 0, so by the
        # mean-value property the continuous argument of q averages to 0 on the circle
        turns = np.round(np.mean(loop[:-1]) / (2.0 * np.pi))
        phase = lam * (loop[:-1] - 2.0 * np.pi * turns)
        # |q|^lam = exp(lam (log(|deriv0| rho) - log|dq|)), one real log and one real exp
        mod = np.exp(lam * (np.log(abs(deriv0) * rho) - np.log(adq)))
        H = np.empty(samples, dtype=complex)
        H.real, H.imag = mod * np.cos(phase), mod * np.sin(phase)
    out = np.fft.fft(H)[: count + 1] / samples / rho ** np.arange(count + 1)
    if not np.all(np.isfinite(out.real) & np.isfinite(out.imag)):
        return None, f"non-finite coefficients at rho={rho}"
    if not abs(out[0] - 1.0) <= 1e-8:
        return None, f"normalization check failed at rho={rho}: Phi_0={out[0]}"
    out[0] = 1.0
    return out, None


def psi_via_transform(fn: CatalogFunction, z: complex, count: int) -> np.ndarray:
    """Psi_0..Psi_count at z through the pullback route.

    Psi_n(f; z) equals phi_n(f o sigma_z; 0), i.e. the (n+1)-st coefficient of
    the recentered expansion at lam = 1; this avoids the heavy cancellation of
    the direct binomial convolution for large n.
    """
    if count < 0:
        raise ValueError("count must be >= 0")
    A = phi_capital_recentered(fn, z, 1.0, count + 1)
    return A[1:].copy()
