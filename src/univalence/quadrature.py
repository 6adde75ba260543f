"""Disk integrals: the weighted area integral, the Grunsky kernel and its norm.

Integration uses polar coordinates about a configurable origin (usually the
singular point z), Gauss-Legendre nodes in a graded radial variable along
each ray up to the exact chord length, and equal angular weights at equally
spaced angles offset half a step from zero (the periodic rectangle rule, so
spectrally accurate for smooth integrands).  Node weights and values live in
fixed-shape arrays and are reduced by numpy's pairwise summation, so results
are run-to-run identical.  Each Gauss-Legendre rule is built once per node
count per process (on first use, never at import) and shared read-only.

The integrands here are smooth except at w = z.  Inside a small radius delta
the kernels are evaluated from truncated series in w - z (which are smooth by
construction); the closed-form point values are evaluated only outside delta,
with the branch of the fractional power audited along every ray before
integration.  The series and the point values f(z), f'(z) are built once per
integral and shared by its coarse and fine mesh.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .catalog import CatalogFunction, series_at
from .errors import QuadratureError, SingularSampleError
from .sequences import _normalized_quotient, aharonov_phi
from .series import (
    PowerSeries,
    ps_derivative,
    ps_eval,
    ps_mul,
    ps_pow_real,
    ps_recip,
)
from .transforms import psi_via_transform

__all__ = [
    "MeshSpec",
    "QuadratureResult",
    "integrate_disk",
    "prawitz_integral",
    "grunsky_kernel_point",
    "grunsky_norm",
    "psi_grunsky_identity_check",
]

#: series order used for all near-diagonal kernel expansions
_SERIES_ORDER = 32


@dataclass(frozen=True)
class MeshSpec:
    """Polar product mesh on the unit disk."""

    radial_nodes: int = 256
    angular_nodes: int = 256
    grading: float = 2.0
    center: complex = 0j

    def __post_init__(self):
        for count in (self.radial_nodes, self.angular_nodes):
            if not isinstance(count, (int, np.integer)):
                raise ValueError(f"node counts must be integers, got {count!r}")
        if self.radial_nodes < 8 or self.angular_nodes < 8:
            raise ValueError("node counts must be >= 8")
        if not (math.isfinite(self.grading) and self.grading >= 1.0):
            raise ValueError(f"grading exponent must be finite and >= 1, got {self.grading!r}")
        if abs(self.center) >= 1.0:
            raise ValueError("mesh center must lie inside the disk")
        object.__setattr__(self, "center", complex(self.center))


@dataclass(frozen=True)
class QuadratureResult:
    """Integral value with a refinement-based error estimate.

    ``value`` comes from the radially refined mesh; ``error_estimate`` is the
    absolute difference against the requested mesh.
    """

    value: float
    error_estimate: float
    mesh: MeshSpec

    def __post_init__(self):
        if not math.isfinite(self.value):
            raise ValueError("quadrature value must be finite")
        if self.error_estimate < 0:
            raise ValueError("error estimate must be >= 0")


def _chord_lengths(center: complex, unit: np.ndarray) -> np.ndarray:
    """Distance from ``center`` to the unit circle along directions ``unit``."""
    p = np.real(np.conj(center) * unit)
    return -p + np.sqrt(1.0 - abs(center) ** 2 + p * p)


@functools.lru_cache(maxsize=8)
def _gauss_legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only Gauss-Legendre nodes and weights on [-1, 1], built once per ``n``."""
    x, wx = np.polynomial.legendre.leggauss(n)
    x.flags.writeable = False
    wx.flags.writeable = False
    return x, wx


def _polar_rule(mesh: MeshSpec, radial_nodes: int, angular_nodes: int):
    x, wx = _gauss_legendre(radial_nodes)
    u = 0.5 * (x + 1.0)  # interior nodes only, never the polar origin
    wu = 0.5 * wx
    A = angular_nodes
    # half-step phase: no ray points along angle 0 exactly, so integrands that
    # blow up at a boundary point in a coordinate direction are never sampled
    # on a ray through their singularity (the ray integral would diverge)
    theta = 2.0 * np.pi * (np.arange(A) + 0.5) / A
    unit = np.exp(1j * theta)
    rmax = _chord_lengths(mesh.center, unit)
    g = mesh.grading
    r = rmax[None, :] * u[:, None] ** g
    w = mesh.center + r * unit[None, :]
    # area element r dr dtheta under r = rmax * u**g, trapezoid weight 2 pi / A
    wt = (rmax[None, :] ** 2) * g * (u[:, None] ** (2.0 * g - 1.0)) * wu[:, None]
    wt = wt * (2.0 * np.pi / A)
    return w, wt


def _apply(
    integrand: Callable[[np.ndarray], np.ndarray],
    mesh: MeshSpec,
    radial_nodes: int,
    angular_nodes: int,
) -> float:
    w, wt = _polar_rule(mesh, radial_nodes, angular_nodes)
    vals = np.asarray(integrand(w), dtype=np.float64)
    if vals.shape != w.shape:
        raise ValueError("integrand must return one real value per node")
    bad = ~np.isfinite(vals)
    if bad.any():
        idx = np.argwhere(bad)[0]
        raise SingularSampleError(
            f"singular sample: integrand non-finite at node w={w[tuple(idx)]}"
        )
    return float(np.sum(vals * wt) / np.pi)


def integrate_disk(
    integrand: Callable[[np.ndarray], np.ndarray], mesh: MeshSpec
) -> QuadratureResult:
    """(1/pi) * integral over the unit disk of a nonnegative pointwise function.

    ``integrand`` receives a 2-d complex array of nodes (radial index first,
    rays in the second axis) and must return finite nonnegative reals of the
    same shape.  The error estimate is the change under one dyadic refinement
    in both directions (angular refinement is what detects the cusp error of
    boundary-singular integrands); the refined value is returned.
    """
    coarse = _apply(integrand, mesh, mesh.radial_nodes, mesh.angular_nodes)
    fine = _apply(integrand, mesh, 2 * mesh.radial_nodes, 2 * mesh.angular_nodes)
    return QuadratureResult(value=fine, error_estimate=abs(fine - coarse), mesh=mesh)


# --------------------------------------------------------------------------
# weighted area integral


def _default_delta(z: complex) -> float:
    return 0.15 * (1.0 - abs(z))


def _pullback_kernel_series(
    fn: CatalogFunction, z: complex, lam: float
) -> PowerSeries:
    """Series in t = w - z of the regularized kernel numerator P(t).

    P = [f'(w) t / (f(w)-f(z))] * [f'(z) t / (f(w)-f(z))]**lam
        - ((1-|z|^2)/(1 - conj(z) w))**(1-lam),
    which vanishes at t = 0; the constant coefficient is pinned to exactly 0.
    """
    f = series_at(fn, z, _SERIES_ORDER + 2)
    h = PowerSeries(z, f.coeffs[1:])  # (f(z+t)-f(z))/t
    g = _normalized_quotient(f)
    fp = ps_derivative(f)
    A = ps_mul(fp, ps_recip(h))
    B = ps_pow_real(ps_recip(g), lam)
    omz = 1.0 - abs(z) ** 2
    lin = np.zeros(A.order + 1, dtype=np.complex128)
    lin[0] = 1.0
    lin[1] = -np.conj(z) / omz
    C = ps_pow_real(PowerSeries(z, lin), lam - 1.0)
    P = ps_mul(A, B).coeffs - C.coeffs
    P[0] = 0.0
    return PowerSeries(z, P)


def prawitz_integral(
    fn: CatalogFunction,
    lam: float,
    z: complex,
    mesh: MeshSpec | None = None,
) -> QuadratureResult:
    """The weighted area integral bounded by 1/lam for univalent functions.

    Computes (1-|z|^2)^(2 lam)/pi times the disk integral of
    |P(f;z,w)|^2 / |w-z|^(2(1+lam)) where P couples the difference quotient of
    f at z with the automorphism weight.  Equality with 1/lam holds in the
    limit exactly for full mappings.  Refused for entries not flagged
    univalent: the integrand is genuinely singular at value collisions.

    The fractional power inside P uses the branch continuous from q = 1 at
    w = z, realized by unwrapping the phase of q = f'(z)(w-z)/(f(w)-f(z))
    outward along each quadrature ray.  The principal logarithm would be
    wrong here: q genuinely winds across the negative real axis inside the
    disk for slit-type mappings at complex z.  This needs the polar origin at
    z itself, so a caller-supplied mesh must be centered there.
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
    if mesh is None:
        mesh = MeshSpec(center=z)
    if mesh.center != z:
        raise ValueError(
            "mesh must be centered at z: the power branch is continued along rays from z"
        )
    delta = _default_delta(z)

    P_series = _pullback_kernel_series(fn, z, lam)
    fz = complex(fn.f(z))
    fpz = complex(fn.df(z))
    zb = np.conj(z)
    omz = 1.0 - abs(z) ** 2
    prefactor = omz ** (2.0 * lam)

    def integrand(w: np.ndarray) -> np.ndarray:
        t = w - z
        at = np.abs(t)
        # q on every node: the innermost node of each ray sits against the
        # center where q ~ 1, anchoring the phase continuation for the ray
        dF = fn.f(w) - fz
        q = fpz * t / dF
        ang = np.angle(q)
        if np.max(np.abs(ang[0, :])) > 0.5:
            raise QuadratureError(
                "branch anchor failed: q is not close to 1 at the innermost nodes"
            )
        phase = np.unwrap(ang, axis=0)
        near = at < delta
        far = ~near
        # the closed form only where it is used; q and its phase are dropped
        # once their far-node copies are taken, which keeps the peak down
        wf, t, dF = w[far], t[far], dF[far]
        power_q = np.exp(lam * (np.log(np.abs(q[far])) + 1j * phase[far]))
        del q, phase
        P = np.empty_like(w)
        P[far] = fn.df(wf) * t / dF * power_q - (omz / (1.0 - zb * wf)) ** (1.0 - lam)
        if np.any(near):
            P[near] = ps_eval(P_series, w[near])
        return prefactor * np.abs(P) ** 2 / at ** (2.0 * (1.0 + lam))

    return integrate_disk(integrand, mesh)


# --------------------------------------------------------------------------
# Grunsky kernel


def _grunsky_series(fn: CatalogFunction, z: complex) -> PowerSeries:
    """U(f;z,z+t) as a series in t: -(n+1) phi_{n+1} at slot n."""
    phi = aharonov_phi(series_at(fn, z, _SERIES_ORDER + 3), _SERIES_ORDER + 1).values
    n = np.arange(1, phi.size)
    return PowerSeries(z, -(n * phi[1:]))


def _grunsky_kernel(
    fn: CatalogFunction, z: complex, delta: float
) -> Callable[[np.ndarray], np.ndarray]:
    """U(f;z,.) on complex arrays, with its series and f(z), f'(z) built once."""
    U_series = _grunsky_series(fn, z)
    fz = complex(fn.f(z))
    fpz = complex(fn.df(z))

    def kernel(warr: np.ndarray) -> np.ndarray:
        near = np.abs(warr - z) < delta
        far = ~near
        out = np.empty_like(warr)
        if np.any(far):
            wf = warr[far]
            out[far] = fpz * fn.df(wf) / (fn.f(wf) - fz) ** 2 - 1.0 / (z - wf) ** 2
        if np.any(near):
            out[near] = ps_eval(U_series, warr[near])
        return out

    return kernel


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
    out = _grunsky_kernel(fn, z, delta)(np.asarray(w, dtype=np.complex128))
    if np.ndim(w) == 0:
        return complex(out)
    return out


def grunsky_norm(
    fn: CatalogFunction,
    z: complex,
    mesh: MeshSpec | None = None,
) -> QuadratureResult:
    """U_f(z): the L2 norm over the disk of the Grunsky kernel at z.

    ``value`` is the square root of (1/pi) integral |U(f;z,w)|^2 dA(w); the
    error estimate is propagated through the square root.
    """
    if not fn.flags.univalent_on_disk:
        raise ValueError(f"{fn.label} is not flagged univalent")
    z = complex(z)
    if abs(z) >= 1.0:
        raise ValueError("|z| must be < 1")
    if mesh is None:
        mesh = MeshSpec(center=z)

    kernel = _grunsky_kernel(fn, z, _default_delta(z))

    def integrand(w: np.ndarray) -> np.ndarray:
        return np.abs(kernel(w)) ** 2

    raw = integrate_disk(integrand, mesh)
    value = math.sqrt(max(raw.value, 0.0))
    if value > 1e-8:
        err = raw.error_estimate / (2.0 * value)
    else:
        err = math.sqrt(raw.error_estimate)
    return QuadratureResult(value=value, error_estimate=err, mesh=mesh)


def _identity_residual(fn: CatalogFunction, z: complex, N: int, norm: QuadratureResult) -> float:
    """Relative residual of the exterior-sum identity against a computed Grunsky norm at z."""
    z = complex(z)
    psi = psi_via_transform(fn, z, N)
    n = np.arange(1, N + 1, dtype=np.float64)
    lhs = float(np.sum(n * np.abs(psi[1:]) ** 2))
    rhs = (1.0 - abs(z) ** 2) ** 2 * norm.value**2
    return abs(lhs - rhs) / max(1e-12, lhs, rhs)


def psi_grunsky_identity_check(
    fn: CatalogFunction,
    z: complex,
    N: int,
    mesh: MeshSpec | None = None,
) -> float:
    """Relative residual of sum_{n<=N} n |Psi_n(f;z)|^2 = (1-|z|^2)^2 U_f(z)^2.

    The left side uses the pullback route for the Psi values (stable for
    large n); the right side is the quadrature norm.  The residual is
    normalized by the larger side, floored at 1e-12.
    """
    # checked before the quadrature, which costs far more than the sum
    if N < 32:
        raise ValueError("N must be >= 32 for a meaningful truncated sum")
    return _identity_residual(fn, z, N, grunsky_norm(fn, z, mesh))
