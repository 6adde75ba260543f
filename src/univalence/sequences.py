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

The first two coefficients of each family are tied to the pre-Schwarzian
N_f = f''/f' and the Schwarzian S_f; those identities are verified on every
call as an internal consistency check.
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


def _require_first_derivative(f_series: PowerSeries) -> complex:
    c1 = f_series.coeffs[1]
    if abs(c1) <= _DERIV_TOL:
        raise NotLocallyUnivalentError(
            f"f'(z)=0: not locally univalent at z={f_series.center}"
        )
    return c1


def local_invariants(f_series: PowerSeries) -> LocalInvariants:
    """N_f = 2 c2/c1 and S_f = 6 c3/c1 - 6 (c2/c1)^2 from Taylor coefficients."""
    if f_series.order < 3:
        raise ValueError("local invariants need order >= 3")
    c1 = _require_first_derivative(f_series)
    c2, c3 = f_series.coeffs[2], f_series.coeffs[3]
    nf = 2.0 * c2 / c1
    sf = 6.0 * c3 / c1 - 6.0 * (c2 / c1) ** 2
    return LocalInvariants(f_series.center, complex(nf), complex(sf))


def _normalized_quotient(f_series: PowerSeries) -> PowerSeries:
    """g(t) = (f(z+t) - f(z))/(c1 t), a series with constant term exactly 1."""
    c1 = _require_first_derivative(f_series)
    g = f_series.coeffs[1:] / c1
    g = g.copy()
    g[0] = 1.0
    return PowerSeries(f_series.center, g)


def _check_low_order(
    f_series: PowerSeries, values: np.ndarray, kind: str, lam: float | None
) -> None:
    # phi_0 = -N_f/2, phi_1 = -S_f/6; Phi_1 = lam*phi_0, Phi_2 = lam*phi_1 + lam(lam-1)phi_0^2/2
    if f_series.order < 3:
        return
    inv = local_invariants(f_series)
    nf, sf = inv.pre_schwarzian, inv.schwarzian
    if kind == "phi":
        checks = []
        if values.size >= 1:
            checks.append((values[0], -nf / 2.0))
        if values.size >= 2:
            checks.append((values[1], -sf / 6.0))
    else:
        checks = []
        if values.size >= 2:
            checks.append((values[1], -lam * nf / 2.0))
        if values.size >= 3:
            checks.append(
                (values[2], -lam * sf / 6.0 + lam * (lam - 1.0) * nf * nf / 8.0)
            )
    for got, want in checks:
        scale = max(1.0, abs(want))
        if abs(got - want) > _INVARIANT_TOL * scale:
            raise AssertionError(
                f"{kind} sequence violates its Schwarzian identity: "
                f"got {got}, expected {want}"
            )


def aharonov_phi(f_series: PowerSeries, count: int) -> SequenceSet:
    """phi_0..phi_count at f_series.center.

    phi_n is coefficient n+1 of the reciprocal of the normalized difference
    quotient g(t) = (f(z+t)-f(z))/(f'(z) t).  Requires order >= count+2 so
    the last coefficient is free of truncation bias.
    """
    if count < 0:
        raise ValueError("count must be >= 0")
    if f_series.order < count + 2:
        raise ValueError(
            f"series order {f_series.order} too small for count={count}; need >= {count + 2}"
        )
    g = _normalized_quotient(f_series)
    r = ps_recip(g)
    values = r.coeffs[1 : count + 2].copy()
    _check_low_order(f_series, values, "phi", None)
    return SequenceSet(kind="phi", center=f_series.center, values=values)


def phi_capital_direct(f_series: PowerSeries, lam: float, count: int) -> SequenceSet:
    """Phi_{lam,0}..Phi_{lam,count} as the lam-th power of the reciprocal quotient."""
    if lam <= 0:
        raise ValueError("lam must be positive")
    if count < 0:
        raise ValueError("count must be >= 0")
    if f_series.order < count + 2:
        raise ValueError(
            f"series order {f_series.order} too small for count={count}; need >= {count + 2}"
        )
    g = _normalized_quotient(f_series)
    p = ps_pow_real(ps_recip(g), lam)
    values = p.coeffs[: count + 1].copy()
    values[0] = 1.0
    _check_low_order(f_series, values, "Phi", lam)
    return SequenceSet(kind="Phi", center=f_series.center, values=values, lam=lam)

