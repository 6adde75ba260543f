"""Acceptance checks: every contract the library must satisfy, in one place.

Each check returns an :class:`AcceptanceResult` with a pass flag and a short
detail string.  The pytest suite asserts each check individually and the CLI
``selftest`` subcommand runs the same list, printing one line per check, so
the shipped package can prove itself outside the test tree.

Expected values are closed forms (the slit mapping forces equality in the
area sums) or were computed once from the independent oracle noted next to
each check and then frozen.
"""

from __future__ import annotations

import time
import unittest.mock
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import catalog, criteria, oracles, quadrature, sequences, transforms
from .errors import NotLocallyUnivalentError

__all__ = ["AcceptanceResult", "CHECKS", "run_all"]


@dataclass(frozen=True)
class AcceptanceResult:
    name: str
    passed: bool
    detail: str


#: probe points with |z| <= 0.6 used by the agreement checks
FIVE_CENTERS = (0.0, 0.3, -0.25, 0.1 + 0.3j, -0.2 - 0.35j)

#: coarse recentering grid, |zeta|,|w| <= 0.5
COARSE_POINTS = (0.4, -0.2 + 0.3j, 0.25j)

#: nine probe points with |zeta| <= 0.6 for the soundness check
NINE_GRID = (0.0, 0.3, 0.6, -0.3, -0.6, 0.3j, 0.6j, -0.3j, -0.6j)

#: frozen violation witness for exp_scale(4) at lam = 1/2, found by the
#: deterministic pre-build scan over |zeta| in {0,0.2,0.4,0.6} x 16 angles,
#: N = 96: the sum is already over budget at the origin after two terms
#: (T_2 = 13/24 > 1/2, from N_f(0) = 4 and S_f(0) = -8)
WITNESS_ZETA = 0.0
WITNESS_N = 2

LAMBDAS_AGREE = (0.5, 1.0, 1.7)


def _zgrid_cartesian() -> list[complex]:
    vals = np.linspace(-0.6, 0.6, 5)
    return [complex(a, b) for a in vals for b in vals if abs(complex(a, b)) <= 0.6]


def check_prawitz_equality() -> AcceptanceResult:
    """Coefficient-route area sums for the slit mapping hit the budget exactly."""
    k = catalog.get("koebe")
    t0 = time.perf_counter()
    s_half = criteria.prawitz_sum_s(k, 0.5, 2)
    s_one = criteria.prawitz_sum_s(k, 1.0, 2)
    s_quarter = criteria.prawitz_sum_s(k, 0.25, 4096)
    elapsed = time.perf_counter() - t0
    ok = (
        abs(s_half - 0.5) <= 1e-12
        and abs(s_one - 1.0) <= 1e-12
        and abs(s_quarter - 0.25) <= 1e-4
        and elapsed < 1.0
    )
    return AcceptanceResult(
        "prawitz-equality-coefficients",
        ok,
        f"S(1/2,2)={s_half!r} S(1,2)={s_one!r} |S(1/4,4096)-0.25|={abs(s_quarter-0.25):.2e} "
        f"runtime={elapsed:.2f}s",
    )


def check_three_way_agreement() -> AcceptanceResult:
    """Power route, tuple enumeration, and the shifted phi sequence agree."""
    t0 = time.perf_counter()
    worst = 0.0
    worst_shift = 0.0
    for fn in catalog.list_catalog():
        for z in FIVE_CENTERS:
            s = catalog.series_at(fn, z, 14)
            phi = sequences.aharonov_phi(s, 12)
            for lam in LAMBDAS_AGREE:
                d = sequences.phi_capital_direct(s, lam, 10)
                c = oracles.phi_capital_combinatorial(phi, lam, 10)
                worst = max(worst, float(np.max(np.abs(d.values - c.values))))
            d1 = sequences.phi_capital_direct(s, 1.0, 10)
            worst_shift = max(
                worst_shift, float(np.max(np.abs(d1.values[1:] - phi.values[:10])))
            )
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-9 and worst_shift <= 1e-9 and elapsed < 5.0
    return AcceptanceResult(
        "phi-three-way-agreement",
        ok,
        f"direct-vs-enumeration max={worst:.2e} lam=1 shift max={worst_shift:.2e} "
        f"runtime={elapsed:.2f}s",
    )


def check_recentering_identity() -> AcceptanceResult:
    """The literal recentering sum equals the composed-series expansion."""
    worst = 0.0
    for fn in catalog.list_catalog():
        for lam in LAMBDAS_AGREE:
            for zeta in COARSE_POINTS:
                for w in COARSE_POINTS:
                    z = complex((w + zeta) / (1.0 + np.conj(zeta) * w))
                    Phi_z = sequences.phi_capital_direct(
                        catalog.series_at(fn, z, 12), lam, 8
                    )
                    lhs = oracles.lemma2_coefficients(Phi_z, zeta, w, 8)
                    F = oracles.compose_with_automorphism(fn, zeta, 12, center=w)
                    rhs = sequences.phi_capital_direct(F, lam, 8).values
                    worst = max(worst, float(np.max(np.abs(lhs - rhs))))
    ok = worst <= 1e-8
    return AcceptanceResult(
        "recentering-executable-identity", ok, f"max deviation n<=8: {worst:.2e}"
    )


def check_identity_closed_form() -> AcceptanceResult:
    """For f(z)=z the criterion terms are binom(lam,n) conj(zeta)^n exactly."""
    idn = catalog.get("identity")
    worst = 0.0
    for lam in (0.3, 1.0, 2.5):
        for zeta in (0.5, 0.3 + 0.4j):
            A = oracles.criterion_terms(idn, lam, zeta, 20)
            want = np.array(
                [oracles.gen_binomial(lam, n) * np.conj(zeta) ** n for n in range(1, 21)]
            )
            worst = max(worst, float(np.max(np.abs(A - want))))
    ok = worst <= 1e-12
    return AcceptanceResult(
        "identity-map-closed-form", ok, f"max |A_n - binom*zetabar^n| = {worst:.2e}"
    )


def check_recurrence_residual() -> AcceptanceResult:
    """Finite-difference check of the derivative recurrence for phi."""
    worst = 0.0
    for fn_id in ("koebe", "cayley"):
        fn = catalog.get(fn_id)
        for z in (0.0, 0.2, 0.1 + 0.3j):
            for n in range(1, 5):
                worst = max(worst, oracles.check_phi_recurrence(fn, z, n, 1e-4))
    ok = worst <= 1e-5
    return AcceptanceResult(
        "phi-derivative-recurrence", ok, f"max relative residual = {worst:.2e}"
    )


def check_duality() -> AcceptanceResult:
    """Scaled quadrature integral equals scaled coefficient sum (both sides tend to 1)."""
    k = catalog.get("koebe")
    t0 = time.perf_counter()
    details = []
    ok = True
    for lam in (0.5, 1.0):
        r = oracles.quadrature_area_integral(k, lam, 0.0)
        s = criteria.prawitz_sum_s(k, lam, 4096)
        diff = abs(lam * r.value - s / lam)
        allow = 5e-3 + lam * r.error_estimate
        ok = ok and diff <= allow
        details.append(f"lam={lam}: |lam*I - S/lam|={diff:.2e} (allow {allow:.2e})")
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 30.0
    return AcceptanceResult(
        "coefficient-integral-duality",
        ok,
        "; ".join(details) + f" runtime={elapsed:.1f}s",
    )


def check_grunsky_equality() -> AcceptanceResult:
    """Area equality for the full slit mapping; zero for the identity."""
    k = catalog.get("koebe")
    idn = catalog.get("identity")
    vk = quadrature.prawitz_integral(k, 1.0, 0.0).value
    vi = quadrature.prawitz_integral(idn, 1.0, 0.0).value
    ok = abs(vk - 1.0) <= 5e-3 and abs(vi) <= 1e-8
    return AcceptanceResult(
        "grunsky-equality-case", ok, f"koebe={vk!r} identity={vi:.2e}"
    )


def _identity_sides(fn, z: complex, norm: float) -> tuple[float, float]:
    """sum_{n<=64} n|Psi_n(f;z)|^2 and (1-|z|^2)^2 U_f(z)^2 from a kernel norm."""
    psi = transforms.psi_via_transform(fn, z, 64)
    n = np.arange(1, 65, dtype=np.float64)
    return float(np.sum(n * np.abs(psi[1:]) ** 2)), (1.0 - abs(z) ** 2) ** 2 * norm**2


def check_psi_grunsky_identity() -> AcceptanceResult:
    """Weighted exterior-coefficient sums against the quadrature kernel norm."""
    k = catalog.get("koebe")
    r0 = oracles.quadrature_identity_residual(k, 0.0, 64)
    norm = quadrature.grunsky_norm(k, 0.3)
    quad = oracles.quadrature_grunsky_norm(k, 0.3)
    gap = abs(norm.value - quad.value)
    lhs3, rhs3 = _identity_sides(k, 0.3, quad.value)
    r3 = abs(lhs3 - rhs3) / max(1e-12, lhs3, rhs3)
    cay = catalog.get("cayley")
    lhs, rhs = _identity_sides(cay, 0.3, oracles.quadrature_grunsky_norm(cay, 0.3).value)
    ok = (
        r0 <= 2e-2
        and r3 <= 2e-2
        and gap <= norm.error_estimate + quad.error_estimate + 1e-12
        and lhs <= 1e-10
        and rhs <= 1e-10
    )
    return AcceptanceResult(
        "psi-grunsky-identity",
        ok,
        f"residual(z=0)={r0:.2e} residual(z=0.3)={r3:.2e} sum-quadrature norm gap(z=0.3)="
        f"{gap:.1e} cayley sides=({lhs:.1e},{rhs:.1e})",
    )


def check_criterion_soundness() -> AcceptanceResult:
    """No false violation for univalent entries; the frozen witness violates;
    the vanished-derivative point is refused."""
    bad = []
    for fn in catalog.list_catalog():
        if not fn.flags.univalent_on_disk:
            continue
        for lam in (0.25, 0.5, 1.0):
            for zeta in NINE_GRID:
                rep = criteria.univalence_criterion(fn, lam, zeta, 64, tol=1e-9)
                if rep.verdict != "consistent":
                    bad.append(f"{fn.label}@lam={lam},zeta={zeta}:{rep.verdict}")
    e4 = catalog.get("exp_scale", k=4)
    wit = criteria.univalence_criterion(e4, 0.5, WITNESS_ZETA, WITNESS_N, tol=1e-9)
    witness_ok = wit.verdict == "violated" and abs(wit.T_N - 13.0 / 24.0) < 1e-12
    qp = catalog.get("quad_poly", a=0.6)
    try:
        criteria.univalence_criterion(qp, 0.5, -5.0 / 6.0, 8)
        rejected = False
        message = "no error raised"
    except NotLocallyUnivalentError as exc:
        rejected = "f'(z)=0" in str(exc)
        message = str(exc)
    ok = not bad and witness_ok and rejected
    return AcceptanceResult(
        "criterion-soundness",
        ok,
        f"false-violations={bad or 'none'}; witness T_{WITNESS_N}={wit.T_N!r} "
        f"verdict={wit.verdict}; quad_poly(0.6) rejection: {message}",
    )


def check_decay_bounds() -> AcceptanceResult:
    """Growth bounds for univalent entries hold with slack >= -1e-10."""
    worst = np.inf
    for fn in catalog.list_catalog():
        if not fn.flags.univalent_on_disk:
            continue
        for z in _zgrid_cartesian():
            for lam in (0.3, 0.7):
                rep = criteria.decay_bound_checks(fn, z, 10, lam)
                worst = min(worst, rep.worst_slack)
    ok = worst >= -1e-10
    return AcceptanceResult("decay-bounds", ok, f"worst slack = {worst:.2e}")


def check_fullmap_scan() -> AcceptanceResult:
    """Scan gaps for the full mapping stay in [0, 0.05] (within roundoff
    tolerance 1e-9), partial sums are monotone, and the identity keeps a
    fat gap."""
    k = catalog.get("koebe")
    grid = criteria.default_grid(radii=(0.0, 0.25, 0.5), angles=8)
    res = criteria.fullmap_scan(k, 0.5, grid, 128)
    margins = [row.margin for row in res.rows]
    gaps_ok = all(-1e-9 <= m <= 0.05 for m in margins)
    monotone = True
    for zeta in (0.0, 0.25, 0.5j):
        rep = criteria.univalence_criterion(k, 0.5, zeta, 128)
        n = np.arange(1, 129, dtype=np.float64)
        partial = np.cumsum((n - 0.5) * np.abs(rep.terms) ** 2)
        monotone = monotone and bool(np.all(np.diff(partial) >= -1e-15))
    idn = catalog.get("identity")
    id_margin = criteria.fullmap_scan(idn, 0.5, [0.0], 128).rows[0].margin
    ok = gaps_ok and monotone and id_margin >= 0.4 and res.full_mapping_consistent
    return AcceptanceResult(
        "full-mapping-scan",
        ok,
        f"koebe margins in [{min(margins):.1e}, {max(margins):.1e}], monotone={monotone}, "
        f"identity margin at 0 = {id_margin!r}",
    )


def check_exp_threshold_sharpness() -> AcceptanceResult:
    """e^{kz} is univalent exactly for k <= pi: no violation at k = 3.1 on 193 points
    out to |zeta| = 0.95 at N = 1000, and a violation at k = 3.2, zeta = +-0.95i, read
    on the engine's first sampling radius alone."""
    grid = criteria.default_grid(radii=(0.0, 0.2, 0.4, 0.6, 0.8, 0.9, 0.95), angles=32)
    below = catalog.get("exp_scale", k=3.1)
    violated = [
        sum(r.verdict == "violated" for r in criteria.fullmap_scan(below, lam, grid, 1000).rows)
        for lam in (0.5, 1.0)
    ]
    above = catalog.get("exp_scale", k=3.2)
    reps, radii = [], set()
    for zeta in (0.95j, -0.95j):
        with unittest.mock.patch.object(transforms, "_expand", wraps=transforms._expand) as expand:
            reps.append(criteria.univalence_criterion(above, 0.5, zeta, 1000))
        radii.update(call.args[6] for call in expand.call_args_list)
    first = transforms._sampling(1000)[0][0]
    ok = violated == [0, 0] and all(r.verdict == "violated" for r in reps) and radii == {first}
    return AcceptanceResult(
        "exp-threshold-sharpness",
        ok,
        f"k=3.1 violated at {violated[0]}/{violated[1]} of {len(grid)} points (lam=1/2, 1); "
        f"k=3.2 at +-0.95i: "
        + ", ".join(f"T_N={r.T_N:.5f} {r.verdict}" for r in reps)
        + f" on radii {', '.join(f'{r:.5f}' for r in sorted(radii))} (first {first:.5f})",
    )


CHECKS: tuple[tuple[str, Callable[[], AcceptanceResult]], ...] = (
    ("1", check_prawitz_equality),
    ("2", check_three_way_agreement),
    ("3", check_recentering_identity),
    ("4", check_identity_closed_form),
    ("5", check_recurrence_residual),
    ("6", check_duality),
    ("7", check_grunsky_equality),
    ("8", check_psi_grunsky_identity),
    ("9", check_criterion_soundness),
    ("10", check_decay_bounds),
    ("11", check_fullmap_scan),
    ("12", check_exp_threshold_sharpness),
)


def run_all() -> list[AcceptanceResult]:
    """Run every acceptance check, printing one PASS/FAIL line each."""
    results = []
    for number, fn in CHECKS:
        res = fn()
        results.append(res)
        status = "PASS" if res.passed else "FAIL"
        print(f"{status} [{number}] {res.name}: {res.detail}")
    return results
