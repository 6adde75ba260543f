"""Coefficient sequences attached to a locally univalent analytic function.

Two families are computed from a Taylor expansion of f about a point z:

* ``aharonov_phi``: the coefficients phi_n of the regular part of
  f'(z)/(f(w)-f(z)), expanded in powers of w-z after the simple pole is
  removed.
* ``phi_capital_direct``: the coefficients Phi_{lambda,n} of
  [f'(z)(w-z)/(f(w)-f(z))]**lambda, as a real power of a series.

The exterior coefficients Psi_n come from the pullback route in
:mod:`univalence.transforms`.  The printed formulas (tuple enumeration for
Phi, the binomial convolution for Psi, the phi recurrence) are kept as
reference routes in :mod:`univalence.oracles`.

Both read one reciprocal of the normalized difference quotient: phi_n is its
coefficient n+1, so phi_n = Phi_{1,n+1}.  Its coefficients 1 and 2 are tied to
the pre-Schwarzian N_f = f''/f' and the Schwarzian S_f; those identities are
verified on every call as an internal consistency check, for phi at lambda = 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Literal

import numpy as np

from .errors import NotLocallyUnivalentError
from .series import PowerSeries, ps_pow_real, ps_recip

__all__ = [
    "LocalInvariants",
    "SequenceSet",
    "local_invariants",
    "aharonov_phi",
    "phi_capital_direct",
]

#: below this magnitude a leading Taylor coefficient is treated as a vanished derivative
_DERIV_TOL = 1e-12

#: tolerance of the built-in N_f/S_f consistency checks
_INVARIANT_TOL = 1e-11


@dataclass(frozen=True)
class LocalInvariants:
    """Pre-Schwarzian and Schwarzian of f at a point."""

    center: complex
    pre_schwarzian: complex
    schwarzian: complex


@dataclass(frozen=True, eq=False)
class SequenceSet:
    """Computed sequence values at a center, indexed from 0."""

    kind: Literal["phi", "Phi", "Psi"]
    center: complex
    values: np.ndarray
    lam: float | None = None

    def __post_init__(self):
        v = np.array(self.values, dtype=np.complex128, copy=True)
        v.setflags(write=False)
        object.__setattr__(self, "values", v)
        if self.kind == "Phi":
            if self.lam is None:
                raise ValueError("kind='Phi' requires lam")
            if v[0] != 1.0:
                raise ValueError("Phi sequences start with value 1")
        elif self.lam is not None:
            raise ValueError(f"kind={self.kind!r} takes no lam")

    def __len__(self):
        return self.values.size

    def __getitem__(self, n):
        return self.values[n]


def _require_derivative(c1: complex, z: complex) -> complex:
    """``c1``, the first derivative of f at z, unless it vanishes."""
    if abs(c1) <= _DERIV_TOL:
        raise NotLocallyUnivalentError(f"f'(z)=0: not locally univalent at z={z}")
    return c1


def local_invariants(f_series: PowerSeries) -> LocalInvariants:
    """N_f = 2 c2/c1 and S_f = 6 c3/c1 - 6 (c2/c1)^2 from Taylor coefficients."""
    if f_series.order < 3:
        raise ValueError("local invariants need order >= 3")
    c1 = _require_derivative(f_series.coeffs[1], f_series.center)
    c2, c3 = f_series.coeffs[2], f_series.coeffs[3]
    nf = 2.0 * c2 / c1
    sf = 6.0 * c3 / c1 - 6.0 * (c2 / c1) ** 2
    return LocalInvariants(f_series.center, complex(nf), complex(sf))


def _normalized_quotient(f_series: PowerSeries) -> PowerSeries:
    """g(t) = (f(z+t) - f(z))/(c1 t), a series with constant term exactly 1."""
    c1 = _require_derivative(f_series.coeffs[1], f_series.center)
    g = f_series.coeffs[1:] / c1
    g[0] = 1.0
    return PowerSeries(f_series.center, g)


def _reciprocal_quotient(f_series: PowerSeries, count: int) -> PowerSeries:
    """1/g, whose coefficient n is Phi_{1,n}; f's order must be >= count + 2."""
    if count < 0:
        raise ValueError("count must be >= 0")
    if f_series.order < count + 2:
        raise ValueError(
            f"series order {f_series.order} too small for count={count}; need >= {count + 2}"
        )
    return ps_recip(_normalized_quotient(f_series))


def _check_low_order(f_series: PowerSeries, values: np.ndarray, kind: str, lam: float) -> None:
    # Phi_{lam,1} = -lam N_f/2 and Phi_{lam,2} = -lam S_f/6 + lam(lam-1) N_f^2/8;
    # phi_n = Phi_{1,n+1}, so phi is checked on its reciprocal at lam = 1
    if f_series.order < 3:
        return
    inv = local_invariants(f_series)
    nf, sf = inv.pre_schwarzian, inv.schwarzian
    wanted = (-lam * nf / 2.0, -lam * sf / 6.0 + lam * (lam - 1.0) * nf * nf / 8.0)
    for got, want in zip(values[1:3], wanted):
        scale = max(1.0, abs(want))
        if abs(got - want) > _INVARIANT_TOL * scale:
            raise AssertionError(
                f"{kind} sequence violates its Schwarzian identity: "
                f"got {got}, expected {want}"
            )


def aharonov_phi(f_series: PowerSeries, count: int) -> SequenceSet:
    """phi_0..phi_count at f_series.center.

    phi_n is coefficient n+1 of the reciprocal of the normalized difference
    quotient g(t) = (f(z+t)-f(z))/(f'(z) t), so phi_n = Phi_{1,n+1}.  Requires
    order >= count+2 so the last coefficient is free of truncation bias.
    """
    r = _reciprocal_quotient(f_series, count).coeffs[: count + 2]
    _check_low_order(f_series, r, "phi", 1.0)
    return SequenceSet(kind="phi", center=f_series.center, values=r[1:])


def phi_capital_direct(f_series: PowerSeries, lam: float, count: int) -> SequenceSet:
    """Phi_{lam,0}..Phi_{lam,count} as the lam-th power of the reciprocal quotient."""
    if not lam > 0:
        raise ValueError("lam must be positive")
    p = ps_pow_real(_reciprocal_quotient(f_series, count), lam)
    values = p.coeffs[: count + 1].copy()
    values[0] = 1.0
    _check_low_order(f_series, values, "Phi", lam)
    return SequenceSet(kind="Phi", center=f_series.center, values=values, lam=lam)
