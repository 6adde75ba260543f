"""Reference routes: the paper's printed formulas, evaluated literally.

Every function here recomputes a quantity that a product module already
computes by a stable route, straight from the published combinatorics:
double-binomial sums, tuple enumeration over weak compositions, truncated
series composition and a finite-difference recurrence.  They exist so the
acceptance suite and the tests can check the printed identities against the
production routes.  Most cancel catastrophically beyond a dozen or so terms
at moderate |z|, so nothing in the product path imports this module.

The Grunsky norm is here as the disk integral its definition prints: the
square root of (1/pi) times the integral of |U(f;z,w)|^2 over the disk, on the
polar quadrature of :mod:`univalence.quadrature` about z, with the refinement
estimate through the square root.  The product route is the exterior
coefficient sum, so the two cross-check each other.
"""

from __future__ import annotations

import math
from itertools import combinations

import numpy as np

from .catalog import CatalogFunction, series_at
from .errors import EnumerationLimitError
from .quadrature import (
    MeshSpec,
    QuadratureResult,
    _default_delta,
    grunsky_kernel_point,
    integrate_disk,
)
from .sequences import SequenceSet, aharonov_phi, phi_capital_direct
from .series import PowerSeries, _common_order, gen_binomial, ps_mul
from .transforms import psi_via_transform

__all__ = [
    "ps_compose",
    "compose_with_automorphism",
    "lemma2_coefficients",
    "criterion_terms",
    "phi_capital_combinatorial",
    "check_phi_recurrence",
    "psi_sequence",
    "quadrature_grunsky_norm",
    "quadrature_identity_residual",
]

#: hard cap for the tuple-enumeration route
_ENUM_LIMIT = 12


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
    n = _common_order(outer, inner)
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
# the Grunsky norm by disk quadrature


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
    delta = _default_delta(z)

    def integrand(w: np.ndarray) -> np.ndarray:
        return np.abs(grunsky_kernel_point(fn, z, w, delta)) ** 2

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
