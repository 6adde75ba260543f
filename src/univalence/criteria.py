"""Area-theorem sums and univalence-criterion evaluation.

The central quantity is the weighted tail sum T_N = sum_{n=1..N} (n-lam)|A_n|^2
built from the recentered coefficients A_n at a probe point zeta.  For a
univalent function T_N never exceeds the budget lam (for any zeta), with
equality in the limit exactly for full mappings; a partial sum already above
the budget therefore certifies non-univalence whenever the discarded tail
cannot be negative (lam <= 1, or truncation beyond lam).

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
from .series import gen_binomial
from .transforms import phi_capital_recentered

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

Verdict = Literal["consistent", "violated", "indeterminate"]


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
    if lam <= 0:
        raise ValueError("lam must be positive")
    if N < 1:
        raise ValueError("N must be >= 1")
    c = series_at(fn, 0.0, 1).coeffs
    if abs(c[0]) > 1e-12 or abs(c[1] - 1.0) > 1e-12:
        raise NormalizationError(
            f"{fn.label} is not normalized to f(0)=0, f'(0)=1 "
            f"(got f(0)={c[0]}, f'(0)={c[1]})"
        )
    return univalence_criterion(fn, lam, 0.0, N).T_N


def _check_tol(tol: float) -> None:
    if not (math.isfinite(tol) and tol >= 0):
        raise ValueError(f"tol must be finite and >= 0, got {tol!r}")


def _verdict(T_N: float, lam: float, N: int, tol: float) -> Verdict:
    if T_N <= lam + tol:
        return "consistent"
    # above budget: certifiable only when the discarded tail is nonnegative
    if lam <= 1.0 or N >= lam:
        return "violated"
    return "indeterminate"


def univalence_criterion(
    fn: CatalogFunction,
    lam: float,
    zeta: complex,
    N: int,
    tol: float = DEFAULT_TOL,
) -> CriterionReport:
    """Evaluate the truncated criterion sum at zeta and classify it.

    T_N above lam + tol certifies non-univalence (the remaining terms all
    carry nonnegative weight once n exceeds lam); T_N at or below budget is
    merely consistent with univalence.
    """
    if lam <= 0:
        raise ValueError("lam must be positive")
    _check_tol(tol)
    zeta = complex(zeta)
    if abs(zeta) >= 1.0:
        raise ValueError("|zeta| must be < 1")
    A = phi_capital_recentered(fn, zeta, lam, N)[1:]
    n = np.arange(1, N + 1, dtype=np.float64)
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite sum is refused below
        T = float(np.sum((n - lam) * np.abs(A) ** 2))
    if not math.isfinite(T):
        raise UnivalenceError(
            f"the criterion sum at zeta={zeta} leaves the double range at N={N}"
        )
    sup = float(np.max(np.abs(A)))
    return CriterionReport(
        lam=lam,
        zeta=zeta,
        N=N,
        terms=A,
        T_N=T,
        budget=lam,
        margin=lam - T,
        sup_abs_term=sup,
        verdict=_verdict(T, lam, N, tol),
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
    _check_tol(tol)
    rows = []
    ok = True
    for zeta in grid:
        rep = univalence_criterion(fn, lam, zeta, N, tol)
        rows.append(ScanRow(complex(zeta), rep.T_N, rep.margin, rep.verdict))
        if not (-tol <= rep.margin <= _EPS_SCAN):
            ok = False
    return ScanResult(lam, N, tuple(rows), ok)


def decay_bound_checks(
    fn: CatalogFunction, z: complex, N: int, lam: float
) -> DecayReport:
    """Slack of the two growth bounds satisfied by univalent functions.

    For each n <= N, compares

    * (1-|z|^2)^(n+1) |phi_n| against sum_{k=1..n} binom(n-1,k-1)|z|^(n-k)/sqrt(k),
    * (1-|z|^2)^n |Phi_{lam,n}| against the double-binomial majorant with
      factors sqrt(lam)/sqrt(|k-lam|), evaluated literally as printed.

    Slack = bound - value; the report's worst slack must be >= -tol for the
    bounds to hold.
    """
    if not fn.flags.univalent_on_disk:
        raise ValueError(f"{fn.label} is not flagged univalent; bounds do not apply")
    if not 0 < lam < 1:
        raise ValueError("lam must lie in (0,1)")
    z = complex(z)
    if abs(z) >= 1.0:
        raise ValueError("|z| must be < 1")
    s = series_at(fn, z, N + 2)
    phi = aharonov_phi(s, N).values
    Phi = phi_capital_direct(s, lam, N).values
    omz = 1.0 - abs(z) ** 2
    az = abs(z)
    # the same binomials recur for every n, so they are tabulated once:
    # lam_binom[m] = binom(lam, m) and int_binom[j][m] = binom(j-1, m), m <= j
    lam_binom = [gen_binomial(lam, m) for m in range(N + 1)]
    int_binom = [[gen_binomial(j - 1, m) for m in range(j + 1)] for j in range(N + 1)]
    rows = []
    worst = math.inf
    for n in range(1, N + 1):
        phi_rhs = sum(
            int_binom[n][k - 1] * az ** (n - k) / math.sqrt(k)
            for k in range(1, n + 1)
        )
        phi_lhs = omz ** (n + 1) * abs(phi[n])
        cap_rhs = 0.0
        for j in range(n + 1):
            outer = lam_binom[n - j]
            if outer == 0.0:
                continue
            for k in range(j + 1):
                b = int_binom[j][j - k]
                if b == 0.0:
                    continue
                cap_rhs += (
                    outer * b * math.sqrt(lam) / math.sqrt(abs(k - lam)) * az ** (n - k)
                )
        cap_lhs = omz**n * abs(Phi[n])
        row = DecayRow(
            n=n,
            phi_lhs=float(phi_lhs),
            phi_rhs=float(phi_rhs),
            phi_slack=float(phi_rhs - phi_lhs),
            cap_lhs=float(cap_lhs),
            cap_rhs=float(cap_rhs),
            cap_slack=float(cap_rhs - cap_lhs),
        )
        rows.append(row)
        worst = min(worst, row.phi_slack, row.cap_slack)
    return DecayReport(lam=lam, z=z, rows=tuple(rows), worst_slack=float(worst))
