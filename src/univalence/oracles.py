"""Reference routes: the paper's printed formulas, evaluated literally.

Every function here recomputes a quantity that a product module already
computes by a stable route, straight from the published combinatorics:
double-binomial sums, tuple enumeration over weak compositions, truncated
series composition and a finite-difference recurrence.  They exist so the
acceptance suite and the tests can check the printed identities against the
production routes.  Most cancel catastrophically beyond a dozen or so terms
at moderate |z|, so nothing in the product path imports this module.  The
series product, derivative, Horner evaluation and generalized binomials live
here too, since only these routes use them, and so do the pointwise Grunsky
kernel and the exceptions that only these routes raise.

The weighted area integral and the Grunsky norm are here as the disk
integrals their definitions print, on a graded polar quadrature about z:
Gauss-Legendre nodes in a graded radial variable along each ray up to the
exact chord length, and equal angular weights at equally spaced angles offset
half a step from zero (the periodic rectangle rule, spectrally accurate for
smooth integrands).  The error estimate is the change under one dyadic
refinement in both directions.  Node weights and values live in fixed-shape
arrays reduced by numpy's pairwise summation, so results are run-to-run
identical, and each Gauss-Legendre rule is built once per node count per
process.  Within a small radius delta of w = z the kernels are evaluated from
truncated series in w - z; the closed forms only outside it, with the branch
of the fractional power continued along every ray.  The product routes are
the coefficient sums of :mod:`univalence.quadrature`, so the two cross-check
each other.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Callable

import numpy as np

from .catalog import CatalogFunction, series_at
from .errors import UnivalenceError
from .quadrature import QuadratureResult
from .sequences import SequenceSet, _normalized_quotient, aharonov_phi, phi_capital_direct
from .series import PowerSeries, ps_pow_real, ps_recip
from .transforms import psi_via_transform

__all__ = [
    "EnumerationLimitError",
    "QuadratureError",
    "SingularSampleError",
    "gen_binomial",
    "ps_mul",
    "ps_derivative",
    "ps_eval",
    "ps_compose",
    "compose_with_automorphism",
    "lemma2_coefficients",
    "criterion_terms",
    "exact_moebius_coefficients",
    "exact_quad_poly_coefficients",
    "exact_quad_poly_sum",
    "phi_capital_combinatorial",
    "check_phi_recurrence",
    "psi_sequence",
    "MeshSpec",
    "integrate_disk",
    "quadrature_area_integral",
    "grunsky_kernel_point",
    "quadrature_grunsky_norm",
    "quadrature_identity_residual",
]

#: hard cap for the tuple-enumeration route
_ENUM_LIMIT = 12

#: series order used for all near-diagonal kernel expansions
_SERIES_ORDER = 32


class EnumerationLimitError(UnivalenceError, ValueError):
    """Combinatorial enumeration requested beyond the supported index range."""


class QuadratureError(UnivalenceError, ArithmeticError):
    """Disk integration could not be carried out safely."""


class SingularSampleError(QuadratureError):
    """An integrand sample was non-finite at a quadrature node."""


# --------------------------------------------------------------------------
# series product, derivative, Horner evaluation and generalized binomials


def gen_binomial(alpha: float, m: int) -> float:
    """Generalized binomial coefficient alpha*(alpha-1)*...*(alpha-m+1)/m!.

    Defined for real ``alpha`` and integer ``m >= 0``; equals 1 at m = 0 and
    vanishes exactly when the falling factorial crosses zero (integer
    ``alpha`` with 0 <= alpha < m).
    """
    if m < 0:
        raise ValueError("m must be a non-negative integer")
    out = 1.0
    for i in range(m):
        out *= (alpha - i) / (i + 1)
    return out


def ps_mul(a: PowerSeries, b: PowerSeries) -> PowerSeries:
    """Cauchy product truncated at min(a.order, b.order); both share one center."""
    n = min(a.order, b.order)
    prod = np.convolve(a.coeffs[: n + 1], b.coeffs[: n + 1])[: n + 1]
    return PowerSeries(a.center, prod)


def ps_derivative(a: PowerSeries) -> PowerSeries:
    """Termwise derivative; the order drops by one."""
    if a.order < 1:
        raise ValueError("derivative needs order >= 1")
    k = np.arange(1, a.order + 1)
    return PowerSeries(a.center, k * a.coeffs[1:])


def ps_eval(a: PowerSeries, w: complex | np.ndarray) -> complex | np.ndarray:
    """Horner evaluation at w; convergence inside a reliable radius is the caller's concern."""
    t = np.asarray(w, dtype=np.complex128) - a.center
    acc = np.full_like(t, a.coeffs[-1])
    for k in range(a.order - 1, -1, -1):
        acc = acc * t + a.coeffs[k]
    if np.ndim(w) == 0:
        return complex(acc)
    return acc


# --------------------------------------------------------------------------
# truncated-series composition and automorphism pullbacks


def ps_compose(outer: PowerSeries, inner: PowerSeries) -> PowerSeries:
    """Truncated composition outer(inner(t)) by Horner's scheme.

    ``inner`` must have constant term exactly 0; recentring the outer series
    so that this holds is the caller's job.  The result is expanded about
    ``inner.center``.
    """
    if inner.coeffs[0] != 0:
        raise ValueError(
            f"inner series must have zero constant term, got {inner.coeffs[0]}"
        )
    n = min(outer.order, inner.order)
    inner_t = PowerSeries(inner.center, inner.coeffs[: n + 1])
    seed = np.zeros(n + 1, dtype=np.complex128)
    seed[0] = outer.coeffs[n]
    acc = PowerSeries(inner.center, seed)
    # Horner: acc <- acc*inner + c_k
    for k in range(n - 1, -1, -1):
        acc = ps_mul(acc, inner_t)
        new = acc.coeffs.copy()
        new[0] += outer.coeffs[k]
        acc = PowerSeries(inner.center, new)
    return acc


def compose_with_automorphism(
    fn: CatalogFunction, zeta: complex, order: int, center: complex = 0.0
) -> PowerSeries:
    """Series of F(w) = f(sigma_zeta(w)) about ``center`` (default 0).

    Built by recentring f at sigma_zeta(center) and composing with the shifted
    automorphism series.  Pure truncated-series arithmetic: accurate at small
    orders, but loses digits quickly for order beyond ~16 at moderate |zeta|
    (the intermediate terms grow geometrically while the result stays O(1));
    use :func:`~univalence.transforms.phi_capital_recentered` for long
    coefficient runs.
    """
    zeta = complex(zeta)
    center = complex(center)
    if abs(center) >= 1.0:
        raise ValueError("center must lie inside the disk")
    sig = series_at(_sigma_entry(zeta), center, order)
    image = sig.coeffs[0]
    shifted = sig.coeffs.copy()
    shifted[0] = 0.0
    inner = PowerSeries(center, shifted)
    outer = series_at(fn, complex(image), order)
    return ps_compose(outer, inner)


def _sigma_entry(zeta: complex) -> CatalogFunction:
    from .catalog import get

    return get("sigma", zeta=zeta)


# --------------------------------------------------------------------------
# the recentering sum


def lemma2_coefficients(
    Phi_at_z: SequenceSet, zeta: complex, w: complex, count: int
) -> np.ndarray:
    """Recentered coefficients Phi_n(f o sigma_zeta; w) from Phi_k(f; sigma_zeta(w)).

    Literal evaluation of the double binomial sum

        sum_{j=0..n} (-1)^(n-j) binom(lam, n-j)
          sum_{k=0..j} binom(j-1, j-k) (-conj(zeta))^(n-k) (1-|zeta|^2)^k
                        (1+conj(zeta) w)^(-(n+k)) Phi_k(f; z)

    with the conventions binom(-1,0)=1 and binom(j-1,j)=0 for j >= 1.
    """
    if Phi_at_z.kind != "Phi":
        raise ValueError("lemma2_coefficients expects a Phi SequenceSet")
    if count + 1 > len(Phi_at_z):
        raise ValueError(f"need Phi_0..Phi_{count}, have {len(Phi_at_z)} values")
    lam = Phi_at_z.lam
    zeta = complex(zeta)
    w = complex(w)
    if abs(zeta) >= 1.0 or abs(w) >= 1.0:
        raise ValueError("|zeta| and |w| must be < 1")
    zb = np.conj(zeta)
    omz = 1.0 - abs(zeta) ** 2
    base = 1.0 + zb * w
    phis = Phi_at_z.values
    out = np.zeros(count + 1, dtype=np.complex128)
    for n in range(count + 1):
        acc = 0j
        for j in range(n + 1):
            outer = (-1.0) ** (n - j) * gen_binomial(lam, n - j)
            if outer == 0.0:
                continue
            inner = 0j
            for k in range(j + 1):
                b = gen_binomial(j - 1, j - k)
                if b == 0.0:
                    continue
                inner += (
                    b * (-zb) ** (n - k) * omz**k * base ** (-(n + k)) * phis[k]
                )
            acc += outer * inner
        out[n] = acc
    return out


def criterion_terms(
    fn: CatalogFunction, lam: float, zeta: complex, N: int
) -> np.ndarray:
    """A_1..A_N by the literal double-binomial sum (the printed formula).

    A_n = sum_{j=0..n} (-1)^(n-j) binom(lam, n-j)
            sum_{k=0..j} binom(j-1, j-k) (-conj(zeta))^(n-k) (1-|zeta|^2)^k
                          Phi_k(f; zeta),

    i.e. the recentering identity specialized to w = 0.  Like the recentering
    sum itself this cancels heavily for large n at moderate |zeta|; it is the
    published expression and is cross-checked against the stable expansion
    route in the tests (n <= 12).
    """
    if N < 1:
        raise ValueError("N must be >= 1")
    zeta = complex(zeta)
    Phi = phi_capital_direct(series_at(fn, zeta, N + 2), lam, N)
    return lemma2_coefficients(Phi, zeta, 0.0, N)[1:]


def exact_quad_poly_coefficients(a, zeta, lam, N: int) -> list[Fraction]:
    """A_0..A_N at rational ``lam`` for quad_poly with real rational ``a`` and
    ``zeta``, exactly.

    Pulled back by sigma_zeta, f(w) = w + a w^2 has
    q(w) = (1 + zeta w)^2 / (1 + c w) with c = (a + zeta + a zeta^2)/(1 + 2 a zeta),
    so q^lam = (1 + zeta w)^(2 lam) (1 + c w)^(-lam) and
    A_n = sum_k binom(2 lam, k) zeta^k binom(-lam, n-k) c^(n-k), all real.
    """
    a, zeta, lam = Fraction(a), Fraction(zeta), Fraction(lam)
    c = (a + zeta + a * zeta**2) / (1 + 2 * a * zeta)
    # binom(2 lam, k) zeta^k, up to the first zero (an integer 2 lam or zeta = 0)
    u = [Fraction(1)]
    while len(u) <= N and u[-1]:
        k = len(u)
        u.append(u[-1] * (2 * lam - k + 1) / k * zeta)
    v = [Fraction(1)]  # binom(-lam, m) c^m
    for m in range(1, N + 1):
        v.append(v[-1] * (-lam - m + 1) / m * c)
    return [sum(u[k] * v[n - k] for k in range(min(n + 1, len(u)))) for n in range(N + 1)]


def exact_moebius_coefficients(c, zeta, lam, N: int) -> list[Fraction]:
    """A_0..A_N at rational ``lam`` for a Moebius map f(w) = (alpha w + beta)/(1 + c w)
    with real rational ``c`` and ``zeta``, exactly.

    Pulled back by sigma_zeta, every Moebius f has q(w) = 1 + g w with
    g = conj(zeta) - (1 - |zeta|^2) f''(zeta)/(2 f'(zeta)), so A_n = binom(lam, n) g^n.
    Here f''/f' = -2c/(1 + c w), so g = (zeta + c)/(1 + c zeta) at real zeta: c = 0 is
    the identity, c = -b bounded:b=b, c = a sigma:zeta=a and c = -1 cayley (g = -1).
    """
    c, zeta, lam = Fraction(c), Fraction(zeta), Fraction(lam)
    g = (zeta + c) / (1 + c * zeta)
    A = [Fraction(1)]
    for n in range(1, N + 1):
        A.append(A[-1] * (lam - n + 1) / n * g)
    return A


def exact_quad_poly_sum(a, zeta, N: int) -> Fraction:
    """T_N = sum_{n<=N} (n - 1/2) A_n^2 at lam = 1/2 for quad_poly with real
    rational ``a`` and ``zeta``, exactly, from :func:`exact_quad_poly_coefficients`."""
    A = exact_quad_poly_coefficients(a, zeta, Fraction(1, 2), N)
    return sum((n - Fraction(1, 2)) * A[n] ** 2 for n in range(1, N + 1))


# --------------------------------------------------------------------------
# sequence identities


def _weak_compositions(total: int, parts: int):
    """All tuples of ``parts`` non-negative integers summing to ``total``."""
    for cuts in combinations(range(total + parts - 1), parts - 1):
        prev = -1
        out = []
        for cut in cuts:
            out.append(cut - prev - 1)
            prev = cut
        out.append(total + parts - 2 - prev)
        yield out


def phi_capital_combinatorial(
    phi: SequenceSet, lam: float, count: int
) -> SequenceSet:
    """Phi_{lam,n} by explicit enumeration of products of phi values.

    Phi_n = sum_{j=1..n} binom(lam, j) * sum over j-tuples (k_1..k_j) of
    non-negative integers with k_1+...+k_j = n-j of phi_{k_1}...phi_{k_j}.
    Exponential in ``count``; capped at 12.
    """
    if phi.kind != "phi":
        raise ValueError("phi_capital_combinatorial expects a phi SequenceSet")
    if count > _ENUM_LIMIT:
        raise EnumerationLimitError(
            f"enumeration limit: count={count} exceeds {_ENUM_LIMIT}"
        )
    if len(phi) < count:
        raise ValueError(f"need at least {count} phi values, have {len(phi)}")
    vals = np.zeros(count + 1, dtype=np.complex128)
    vals[0] = 1.0
    pv = phi.values
    for n in range(1, count + 1):
        acc = 0j
        for j in range(1, n + 1):
            binom = gen_binomial(lam, j)
            if binom == 0.0:
                continue
            inner = 0j
            for tup in _weak_compositions(n - j, j):
                term = 1.0 + 0j
                for k in tup:
                    term *= pv[k]
                inner += term
            acc += binom * inner
        vals[n] = acc
    return SequenceSet(kind="Phi", center=phi.center, values=vals, lam=lam)


def check_phi_recurrence(
    fn: CatalogFunction, z: complex, n: int, h: float = 1e-4
) -> float:
    """Relative residual of the derivative recurrence linking phi_{n+1} to phi_n'.

    phi_n' at z is estimated by central differences with step h (real
    direction); the residual compares (n+3) phi_{n+1} with
    phi_n' - sum_{k=1..n-1} phi_k phi_{n-k}.
    """
    if n < 1:
        raise ValueError("recurrence index n must be >= 1")
    z = complex(z)
    if abs(z + h) >= 1.0 or abs(z - h) >= 1.0:
        raise ValueError("z +- h must stay inside the disk")
    order = n + 3
    phi0 = aharonov_phi(series_at(fn, z, order + 2), n + 1)
    phip = aharonov_phi(series_at(fn, z + h, order + 2), n)
    phim = aharonov_phi(series_at(fn, z - h, order + 2), n)
    dphi_n = (phip.values[n] - phim.values[n]) / (2.0 * h)
    conv = sum(phi0.values[k] * phi0.values[n - k] for k in range(1, n))
    lhs = phi0.values[n + 1]
    rhs = (dphi_n - conv) / (n + 3.0)
    return float(abs(lhs - rhs) / max(1.0, abs(lhs)))


def psi_sequence(f_series: PowerSeries, z: complex, count: int) -> SequenceSet:
    """Psi_0..Psi_count at z from the phi values via the binomial convolution.

    Psi_0 = conj(z) - (1-|z|^2) N_f(z)/2 and, for n >= 1,
    Psi_n = sum_{k=1..n} binom(n-1, n-k) (-conj(z))^{n-k} (1-|z|^2)^{k+1} phi_k.
    Accurate for moderate n; the alternating terms cancel heavily for large n
    at |z| close to 1.
    """
    z = complex(z)
    if abs(z) >= 1.0:
        raise ValueError("z must lie in the open unit disk")
    if abs(z - f_series.center) > 1e-13:
        raise ValueError(
            f"f_series is centered at {f_series.center}, not at z={z}"
        )
    if count < 0:
        raise ValueError("count must be >= 0")
    need = max(count, 1)
    phi = aharonov_phi(f_series, need)
    zb = np.conj(z)
    omz = 1.0 - abs(z) ** 2
    vals = np.zeros(count + 1, dtype=np.complex128)
    vals[0] = zb + omz * phi.values[0]
    for n in range(1, count + 1):
        acc = 0j
        for k in range(1, n + 1):
            acc += (
                gen_binomial(n - 1, n - k)
                * (-zb) ** (n - k)
                * omz ** (k + 1)
                * phi.values[k]
            )
        vals[n] = acc
    return SequenceSet(kind="Psi", center=z, values=vals)


# --------------------------------------------------------------------------
# disk quadrature


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
    return QuadratureResult(value=fine, error_estimate=abs(fine - coarse))


# --------------------------------------------------------------------------
# the weighted area integral by disk quadrature


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


def quadrature_area_integral(
    fn: CatalogFunction,
    lam: float,
    z: complex,
    mesh: MeshSpec | None = None,
) -> QuadratureResult:
    """The weighted area integral bounded by 1/lam, by disk quadrature.

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
    z itself, so a caller-supplied mesh must be centered there.  ``mesh``
    defaults to the 256^2 + 512^2 polar mesh centered at z.
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
# the Grunsky kernel and its norm by disk quadrature


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


def quadrature_grunsky_norm(
    fn: CatalogFunction, z: complex, mesh: MeshSpec | None = None
) -> QuadratureResult:
    """U_f(z) as the square root of (1/pi) integral |U(f;z,w)|^2 dA(w).

    ``mesh`` defaults to the 256^2 + 512^2 polar mesh centered at z; the
    refinement estimate is propagated through the square root.
    """
    if not fn.flags.univalent_on_disk:
        raise ValueError(f"{fn.label} is not flagged univalent")
    z = complex(z)
    if abs(z) >= 1.0:
        raise ValueError("|z| must be < 1")
    if mesh is None:
        mesh = MeshSpec(center=z)

    def integrand(w: np.ndarray) -> np.ndarray:
        return np.abs(grunsky_kernel_point(fn, z, w)) ** 2

    raw = integrate_disk(integrand, mesh)
    value = math.sqrt(max(raw.value, 0.0))
    if value > 1e-8:
        err = raw.error_estimate / (2.0 * value)
    else:
        err = math.sqrt(raw.error_estimate)
    return QuadratureResult(value=value, error_estimate=err)


def quadrature_identity_residual(fn: CatalogFunction, z: complex, N: int) -> float:
    """Relative residual of sum_{n<=N} n|Psi_n(f;z)|^2 = (1-|z|^2)^2 U_f(z)^2
    with the default-mesh quadrature norm on the right, normalized by the
    larger side floored at 1e-12."""
    z = complex(z)
    norm = quadrature_grunsky_norm(fn, z)
    psi = psi_via_transform(fn, z, N)
    n = np.arange(1, N + 1, dtype=np.float64)
    lhs = float(np.sum(n * np.abs(psi[1:]) ** 2))
    rhs = (1.0 - abs(z) ** 2) ** 2 * norm.value**2
    return abs(lhs - rhs) / max(1e-12, lhs, rhs)
