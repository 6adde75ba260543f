"""The recentered coefficients of a disk-automorphism pullback.

``phi_capital_recentered`` samples the generating function of the pullback
f o sigma_zeta on a circle (closed-form point evaluation, branch fixed by
the mean-value property) and recovers Taylor coefficients by discrete Fourier
inversion.  It stays near machine accuracy up to a few hundred coefficients
and is the engine behind the criterion sums and the Psi sequence.  The
literal recentering sum and truncated-series composition are kept as
reference routes in :mod:`univalence.oracles`.
"""

from __future__ import annotations

import numpy as np

from .catalog import CatalogFunction, series_at
from .errors import NotLocallyUnivalentError, UnivalenceError
from .sequences import _DERIV_TOL, phi_capital_direct

__all__ = [
    "MAX_COUNT",
    "phi_capital_recentered",
    "psi_via_transform",
]

#: circle samples per radius attempt
_SAMPLES = 4096
#: sampling radii, tried in turn until q neither vanishes nor winds on the circle
_RADII = (0.95, 0.9, 0.82, 0.7, 0.55)
#: largest coefficient index the sample budget resolves (count + 1 <= samples / 4)
MAX_COUNT = _SAMPLES // 4 - 1


def phi_capital_recentered(
    fn: CatalogFunction,
    zeta: complex,
    lam: float,
    count: int,
) -> np.ndarray:
    """Phi_{lam,0..count}(f o sigma_zeta; 0) by circle sampling and FFT.

    Samples q(w) = F'(0) w / (F(w) - F(0)) with F = f o sigma_zeta on a
    circle |w| = rho using closed-form point values, takes the lam-th power
    on the branch with log q(0) = 0, and inverts the discrete Fourier
    transform.  Falls back to smaller rho when the circle crosses or encloses
    a zero of q, which happens for non-univalent f.
    """
    if lam <= 0:
        raise ValueError("lam must be positive")
    if count < 0:
        raise ValueError("count must be >= 0")
    zeta = complex(zeta)
    if abs(zeta) >= 1.0:
        raise ValueError("|zeta| must be < 1")
    if count > MAX_COUNT:
        raise ValueError(f"count must be <= {MAX_COUNT} for the sample budget")

    if zeta == 0.0:
        return phi_capital_direct(series_at(fn, 0.0, count + 2), lam, count).values.copy()

    zb = np.conj(zeta)
    fz = complex(fn.f(zeta))
    fpz = complex(fn.df(zeta))
    if abs(fpz) <= _DERIV_TOL:
        raise NotLocallyUnivalentError(f"f'(z)=0: not locally univalent at z={zeta}")
    deriv0 = fpz * (1.0 - abs(zeta) ** 2)

    theta = 2.0 * np.pi * np.arange(_SAMPLES) / _SAMPLES
    unit = np.exp(1j * theta)

    last_reason = "no radius attempted"
    for rho in _RADII:
        w = rho * unit
        sig = (w + zeta) / (1.0 + zb * w)
        dq = fn.f(sig) - fz
        if not np.all(np.isfinite(dq.real) & np.isfinite(dq.imag)):
            last_reason = f"non-finite samples at rho={rho}"
            continue
        if np.min(np.abs(dq)) < 1e-13 * max(1.0, float(np.max(np.abs(dq)))):
            last_reason = f"collision point on the sampling circle at rho={rho}"
            continue
        q = deriv0 * w / dq

        ang = np.angle(q)
        loop = np.unwrap(np.append(ang, ang[0]))
        winding = (loop[-1] - loop[0]) / (2.0 * np.pi)
        if abs(winding) > 0.25:
            last_reason = f"winding {winding:.2f} at rho={rho} (zero of q enclosed)"
            continue
        # no winding: log q is analytic on |w| <= rho with log q(0) = 0, so by the
        # mean-value property the continuous argument of q averages to 0 on the circle
        phase = loop[:-1] - 2.0 * np.pi * np.round(np.mean(loop[:-1]) / (2.0 * np.pi))

        H = np.exp(lam * (np.log(np.abs(q)) + 1j * phase))
        coeff = np.fft.fft(H) / _SAMPLES
        out = coeff[: count + 1] / rho ** np.arange(count + 1)
        if abs(out[0] - 1.0) > 1e-8:
            last_reason = f"normalization check failed at rho={rho}: Phi_0={out[0]}"
            continue
        out[0] = 1.0
        return out

    raise UnivalenceError(
        f"could not expand the recentered generating function at zeta={zeta}: {last_reason}"
    )


def psi_via_transform(fn: CatalogFunction, z: complex, count: int) -> np.ndarray:
    """Psi_0..Psi_count at z through the pullback route.

    Psi_n(f; z) equals phi_n(f o sigma_z; 0), i.e. the (n+1)-st coefficient of
    the recentered expansion at lam = 1; this avoids the heavy cancellation of
    the direct binomial convolution for large n.
    """
    A = phi_capital_recentered(fn, z, 1.0, count + 1)
    return A[1:].copy()
