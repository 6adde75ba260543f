"""Area-theorem sums and univalence-criterion evaluation.

The central quantity is the weighted tail sum T_N = sum_{n=1..N} (n-lam)|A_n|^2
built from the recentered coefficients A_n at a probe point zeta.  For a
univalent function T_N never exceeds the budget lam (for any zeta), with
equality in the limit exactly for full mappings; a partial sum already above
the budget therefore certifies non-univalence.  The same sums give the
weighted area integral and the Grunsky norm of :mod:`univalence.quadrature`:
``_partial_sums`` is the one routine that turns the engine's coefficients into
weighted sums, and ``_error`` estimates the tail of such a sum.

Verdicts are deliberately one-sided: "consistent" never certifies univalence,
it only reports that no violation was found at this truncation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Literal, Sequence

import numpy as np

from .catalog import CatalogFunction, series_at
from .errors import NormalizationError, UnivalenceError
from .sequences import aharonov_phi, phi_capital_direct
from .transforms import _GROWTH, phi_capital_recentered

__all__ = [
    "CriterionReport",
    "ScanRow",
    "ScanResult",
    "DecayRow",
    "DecayReport",
    "prawitz_sum_s",
    "univalence_criterion",
    "fullmap_scan",
    "decay_bound_checks",
    "default_grid",
]

#: default slack allowed before a partial sum is declared over budget
DEFAULT_TOL = 1e-9

#: full-mapping equality window at the default scan truncation
_EPS_SCAN = 0.05

#: least error estimate relative to a sum: sums land within 3 eps of closed forms
_ROUNDOFF = 16 * np.finfo(float).eps

Verdict = Literal["consistent", "violated"]


@dataclass(frozen=True, eq=False)
class CriterionReport:
    """Truncated criterion sum at a probe point, with verdict."""

    lam: float
    zeta: complex
    N: int
    terms: np.ndarray  # A_1..A_N
    T_N: float
    budget: float
    margin: float
    sup_abs_term: float  # max |A_n|; at most sqrt(lam/(1-lam)) for univalent f, 0 < lam < 1
    verdict: Verdict

    def __post_init__(self):
        t = np.array(self.terms, dtype=np.complex128, copy=True)
        t.setflags(write=False)
        object.__setattr__(self, "terms", t)


@dataclass(frozen=True)
class ScanRow:
    zeta: complex
    T_N: float
    margin: float
    verdict: Verdict


@dataclass(frozen=True)
class ScanResult:
    lam: float
    N: int
    rows: tuple[ScanRow, ...]
    full_mapping_consistent: bool


@dataclass(frozen=True)
class DecayRow:
    n: int
    phi_lhs: float
    phi_rhs: float
    phi_slack: float
    cap_lhs: float
    cap_rhs: float
    cap_slack: float


@dataclass(frozen=True)
class DecayReport:
    lam: float
    z: complex
    rows: tuple[DecayRow, ...]
    worst_slack: float


def prawitz_sum_s(fn: CatalogFunction, lam: float, N: int) -> float:
    """sum_{n=1..N} (n-lam)|a_n(lam)|^2 for the expansion [z/f(z)]^lam = 1 + sum a_n z^n.

    Requires the class-S normalization f(0)=0, f'(0)=1.  For univalent f the
    full sum is at most lam, with equality exactly when f is a full mapping.
    This is the criterion sum T_N at zeta = 0, where the recentered
    coefficients are the a_n themselves.
    """
    c = series_at(fn, 0.0, 1).coeffs
    if abs(c[0]) > 1e-12 or abs(c[1] - 1.0) > 1e-12:
        raise NormalizationError(
            f"{fn.label} is not normalized to f(0)=0, f'(0)=1 "
            f"(got f(0)={c[0]}, f'(0)={c[1]})"
        )
    return univalence_criterion(fn, lam, 0.0, N).T_N


def _partial_sums(
    fn: CatalogFunction, lam: float, zeta: complex, N: int
) -> tuple[np.ndarray, np.ndarray]:
    """A_1..A_N at zeta and the partial sums S_K = sum_{n<=K} (n-lam)|A_n|^2,
    K = 1..N, from one engine call; a non-finite sum is refused."""
    if N < 1:
        raise ValueError("N must be >= 1")
    A = phi_capital_recentered(fn, zeta, lam, N)[1:]
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite sum is refused below
        S = np.cumsum((np.arange(1, N + 1) - lam) * np.abs(A) ** 2)
    if not math.isfinite(S[-1]):
        raise UnivalenceError(
            f"the criterion sum at zeta={complex(zeta)} leaves the double range at N={N}"
        )
    return A, S


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


def univalence_criterion(
    fn: CatalogFunction,
    lam: float,
    zeta: complex,
    N: int,
    tol: float = DEFAULT_TOL,
) -> CriterionReport:
    """Evaluate the truncated criterion sum at zeta and classify it.

    T_N above lam + tol certifies non-univalence: such a sum runs past
    n = lam (below it every weight n - lam is negative and T_N <= 0), so the
    discarded terms carry nonnegative weight.  T_N at or below budget is
    merely consistent with univalence.
    """
    if not (math.isfinite(tol) and tol >= 0):
        raise ValueError(f"tol must be finite and >= 0, got {tol!r}")
    A, S = _partial_sums(fn, lam, zeta, N)
    T = float(S[-1])
    return CriterionReport(
        lam=lam,
        zeta=complex(zeta),
        N=N,
        terms=A,
        T_N=T,
        budget=lam,
        margin=lam - T,
        sup_abs_term=float(np.max(np.abs(A))),
        verdict="consistent" if T <= lam + tol else "violated",
    )


def default_grid(
    radii: Sequence[float] = (0.0, 0.2, 0.4, 0.6), angles: int = 16
) -> list[complex]:
    """Deterministic probe grid: given radii times equally spaced angles.

    Radius zero contributes a single point; ordering is (radius index, angle
    index) so scan output is reproducible row for row.
    """
    pts: list[complex] = []
    for r in radii:
        if r == 0.0:
            pts.append(0j)
            continue
        for a in range(angles):
            pts.append(complex(r * np.exp(2j * np.pi * a / angles)))
    return pts


def fullmap_scan(
    fn: CatalogFunction,
    lam: float,
    grid: Iterable[complex],
    N: int,
    tol: float = DEFAULT_TOL,
) -> ScanResult:
    """Tabulate T_N and the budget gap over a zeta grid (lam <= 1 only).

    The summary flag ``full_mapping_consistent`` is set when every gap lies in
    [-tol, 0.05]: the truncated sums of a full mapping approach the budget
    from below everywhere, so small positive gaps (and roundoff-size negative
    ones) are the expected signature.
    """
    if not 0 < lam <= 1.0:
        raise ValueError("fullmap_scan requires 0 < lam <= 1 (monotone regime)")
    rows = []
    ok = True
    for zeta in grid:
        rep = univalence_criterion(fn, lam, zeta, N, tol)
        rows.append(ScanRow(complex(zeta), rep.T_N, rep.margin, rep.verdict))
        if not (-tol <= rep.margin <= _EPS_SCAN):
            ok = False
    if not rows:
        raise ValueError("grid must hold at least one point")
    return ScanResult(lam, N, tuple(rows), ok)


def decay_bound_checks(
    fn: CatalogFunction, z: complex, N: int, lam: float
) -> DecayReport:
    """Slack of the two growth bounds satisfied by univalent functions.

    For each n <= N, compares

    * (1-|z|^2)^(n+1) |phi_n| against sum_{k=1..n} binom(n-1,k-1)|z|^(n-k)/sqrt(k),
    * (1-|z|^2)^n |Phi_{lam,n}| against the double-binomial majorant
      sum_{j<=n} binom(lam,n-j)|z|^(n-j) B_j, with B_0 = 1 and
      B_j = sum_{k=1..j} binom(j-1,k-1)|z|^(j-k) sqrt(lam/|k-lam|).

    Both right sides are array sums over one table of binom(m,i)|z|^(m-i); the
    printed double sum is the test oracle ``_literal_majorants`` in
    ``tests/test_criteria.py``.  Slack = bound - value; the report's worst slack
    must be >= -tol for the bounds to hold.
    """
    if not fn.flags.univalent_on_disk:
        raise ValueError(f"{fn.label} is not flagged univalent; bounds do not apply")
    if not 0 < lam < 1:
        raise ValueError("lam must lie in (0,1)")
    if N < 1:
        raise ValueError("N must be >= 1")
    z = complex(z)
    s = series_at(fn, z, N + 2)
    phi = aharonov_phi(s, N).values
    Phi = phi_capital_direct(s, lam, N).values
    az = abs(z)
    omz = 1.0 - az**2
    # Q[m, i] = binom(m, i)|z|^(m-i), the coefficients of (|z| + x)^m, by Pascal's rule
    Q = np.zeros((N, N))
    Q[0, 0] = 1.0
    for m in range(1, N):
        Q[m] = az * Q[m - 1]
        Q[m, 1:] += Q[m - 1, :-1]
    k = np.arange(1.0, N + 1)
    phi_rhs = Q @ (1.0 / np.sqrt(k))
    B = np.concatenate(([1.0], Q @ np.sqrt(lam / np.abs(k - lam))))
    # binom(lam, m)|z|^m for m = 0..N
    outer = np.cumprod(np.concatenate(([1.0], (lam - k + 1.0) / k * az)))
    cap_rhs = np.convolve(outer, B)[1 : N + 1]
    rows = []
    for n, p_rhs, c_rhs in zip(range(1, N + 1), phi_rhs.tolist(), cap_rhs.tolist()):
        phi_lhs = float(omz ** (n + 1) * abs(phi[n]))
        cap_lhs = float(omz**n * abs(Phi[n]))
        rows.append(DecayRow(n, phi_lhs, p_rhs, p_rhs - phi_lhs, cap_lhs, c_rhs, c_rhs - cap_lhs))
    worst = min(min(r.phi_slack, r.cap_slack) for r in rows)
    return DecayReport(lam=lam, z=z, rows=tuple(rows), worst_slack=worst)
