"""The recentered coefficients of a disk-automorphism pullback.

``phi_capital_recentered`` samples the generating function of the pullback
f o sigma_zeta on a circle (closed-form point evaluation, branch fixed by
the mean-value property) and recovers Taylor coefficients by discrete Fourier
inversion.  It is the one route for the recentered coefficients at every
zeta, the origin included, and so the engine behind the area sums, the
criterion sums and the Psi sequence.  Its sampling follows from the count N
alone: the first radius keeps rho^-N <= 100 (the roundoff amplification of
the highest coefficient), and the sample count is a power of two >= 4N, at
least 4096.  The literal recentering sum and truncated-series composition
are kept as reference routes in :mod:`univalence.oracles`.
"""

from __future__ import annotations

import numpy as np

from .catalog import CatalogFunction
from .errors import NotLocallyUnivalentError, UnivalenceError
from .sequences import _DERIV_TOL

__all__ = [
    "phi_capital_recentered",
    "psi_via_transform",
]

#: circle samples per block, and the fewest samples of any expansion
_BLOCK = 4096
#: fallback sampling radii, tried in turn below the first radius while q vanishes
#: or winds on the circle
_RADII = (0.95, 0.9, 0.82, 0.7, 0.55)
#: largest roundoff amplification rho^-N the first radius may bring
_GROWTH = 100.0


def _sampling(count: int) -> tuple[tuple[float, ...], int]:
    """Radii to try and the sample count for coefficients 0..count."""
    rho0 = max(_RADII[0], _GROWTH ** (-1.0 / max(count, 1)))
    samples = max(_BLOCK, 1 << (4 * count - 1).bit_length())
    return (rho0,) + tuple(r for r in _RADII if r < rho0), samples


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
    a zero of q, which happens for non-univalent f, or when the power or its
    coefficients leave the double range.

    The M samples are taken in L = M / 4096 blocks: block b is the 4096-point
    circle turned by 2 pi b / M, so sample j = r L + b of the whole circle is
    block b's r-th point.  The leading coefficients combine the blocks' own
    transforms with the twiddles exp(-2 pi i b k / M), one radix-L step of
    the full transform, and no array spans the whole circle except the phase
    and modulus of q.
    """
    if lam <= 0:
        raise ValueError("lam must be positive")
    if count < 0:
        raise ValueError("count must be >= 0")
    zeta = complex(zeta)
    if abs(zeta) >= 1.0:
        raise ValueError("|zeta| must be < 1")

    fz = complex(fn.f(zeta))
    fpz = complex(fn.df(zeta))
    if abs(fpz) <= _DERIV_TOL:
        raise NotLocallyUnivalentError(f"f'(z)=0: not locally univalent at z={zeta}")
    deriv0 = fpz * (1.0 - abs(zeta) ** 2)

    radii, samples = _sampling(count)
    last_reason = "no radius attempted"
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
    blocks = samples // _BLOCK
    zb = np.conj(zeta)
    loop = np.empty(samples + 1)  # arg q around the circle, closed by its first point
    log_abs = np.empty(samples)
    dq_min, dq_max = np.inf, 1.0
    for b in range(blocks):
        theta = 2.0 * np.pi * (np.arange(_BLOCK) * blocks + b) / samples
        w = rho * np.exp(1j * theta)
        sig = (w + zeta) / (1.0 + zb * w)
        dq = fn.f(sig) - fz
        if not np.all(np.isfinite(dq.real) & np.isfinite(dq.imag)):
            return None, f"non-finite samples at rho={rho}"
        adq = np.abs(dq)
        dq_min, dq_max = min(dq_min, float(np.min(adq))), max(dq_max, float(np.max(adq)))
        with np.errstate(divide="ignore", invalid="ignore"):  # dq = 0 is refused below
            q = deriv0 * w / dq
        loop[b:samples:blocks] = np.angle(q)
        log_abs[b::blocks] = np.log(np.abs(q))
    if dq_min < 1e-13 * dq_max:
        return None, f"collision point on the sampling circle at rho={rho}"

    loop[-1] = loop[0]
    _unwrap(loop)
    winding = (loop[-1] - loop[0]) / (2.0 * np.pi)
    if abs(winding) > 0.25:
        return None, f"winding {winding:.2f} at rho={rho} (zero of q enclosed)"
    # no winding: log q is analytic on |w| <= rho with log q(0) = 0, so by the
    # mean-value property the continuous argument of q averages to 0 on the circle
    phase = loop[:-1]
    phase -= 2.0 * np.pi * np.round(np.mean(phase) / (2.0 * np.pi))

    n = np.arange(count + 1)
    # the power, the transform and the division by rho^n may leave the double
    # range (a large lam, or rho^-n past a fallback radius); that is refused below
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        coeff = np.zeros(count + 1, dtype=np.complex128)
        for b in range(blocks):
            H = np.exp(lam * (log_abs[b::blocks] + 1j * phase[b::blocks]))
            coeff += np.exp(-2j * np.pi * b * n / samples) * np.fft.fft(H)[n % _BLOCK]
        out = coeff / samples / rho**n
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
    A = phi_capital_recentered(fn, z, 1.0, count + 1)
    return A[1:].copy()
