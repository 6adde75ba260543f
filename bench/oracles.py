"""Closed-form ground truth for the benchmark's checks.

Every value here comes from algebra on the catalog's closed forms, never from
the library's own routes, so a check passes only when the library agrees with
an independent answer.

For f(w) = (a w + b)/(c w + d) (identity, bounded, sigma, cayley) the
quotient q(w) = f'(z)(w-z)/(f(w)-f(z)) is 1 + beta t with t = w - z and
beta = c/(cz+d); for the quadratic z + a z^2 it is 1/(1 + beta t) with
beta = a/(1+2az); for the Koebe function it is (1-st)^2/(1-rt) with
s = 1/(1-z), r = z/(1-z^2).  phi_n is the coefficient of t^(n+1) of q and
Phi_{lam,n} the coefficient of t^n of q^lam.
"""

from __future__ import annotations

import cmath

import numpy as np


def binomials(alpha: float, n: int) -> np.ndarray:
    """binom(alpha, k) for k = 0..n by the running product."""
    k = np.arange(1, n + 1, dtype=np.float64)
    return np.concatenate(([1.0], np.cumprod((alpha - k + 1.0) / k)))


def _powers(x: complex, n: int) -> np.ndarray:
    return x ** np.arange(n + 1)


def _mobius_beta(family: str, p: complex, z: complex) -> complex:
    if family == "identity":
        return 0j
    if family == "bounded":
        return -p / (1.0 - p * z)
    if family == "sigma":
        pb = p.conjugate()
        return pb / (1.0 + pb * z)
    if family == "cayley":
        return -1.0 / (1.0 - z)
    raise ValueError(family)


def quotient_power(family: str, p: complex, z: complex, lam: float, n: int):
    """Coefficients 0..n of q^lam about z, and the matching magnitude scale.

    The scale is the coefficientwise sum of absolute products, the natural
    size of the rounding error of any route that builds the same series.
    """
    if family in ("koebe", "rotated_koebe"):
        u = cmath.exp(1j * p.real) if family == "rotated_koebe" else 1.0
        zz = u * z
        s, r = 1.0 / (1.0 - zz), zz / (1.0 - zz * zz)
        x = binomials(2.0 * lam, n) * _powers(-s, n)
        y = binomials(-lam, n) * _powers(-r, n)
        vals = np.convolve(x, y)[: n + 1] * _powers(u, n)
        scale = np.convolve(np.abs(x), np.abs(y))[: n + 1]
        return vals, scale
    if family == "quad_poly":
        beta, alpha = p / (1.0 + 2.0 * p * z), -lam
    else:
        beta, alpha = _mobius_beta(family, p, z), lam
    vals = binomials(alpha, n) * _powers(beta, n)
    return vals, np.abs(vals)


def phi(family: str, p: complex, z: complex, n: int):
    """phi_0..phi_n about z, with a magnitude scale."""
    if family in ("koebe", "rotated_koebe"):
        u = cmath.exp(1j * p.real) if family == "rotated_koebe" else 1.0
        zz = u * z
        s, r = 1.0 / (1.0 - zz), zz / (1.0 - zz * zz)
        m = np.arange(1, n + 2)
        rp = _powers(r, n + 1)
        q = rp[m].copy()
        q -= 2.0 * s * rp[m - 1]
        q[1:] += s * s * rp[m[1:] - 2]
        scale = np.abs(rp[m]) + 2.0 * abs(s) * np.abs(rp[m - 1])
        scale[1:] += abs(s) ** 2 * np.abs(rp[m[1:] - 2])
        return q * u ** m, scale
    if family == "quad_poly":
        beta = p / (1.0 + 2.0 * p * z)
        vals = _powers(-beta, n + 1)[1:]
        return vals, np.abs(vals)
    vals = np.zeros(n + 1, dtype=np.complex128)
    vals[0] = _mobius_beta(family, p, z)
    return vals, np.abs(vals)


def taylor_at_zero(family: str, p: complex, n: int) -> np.ndarray:
    """Taylor coefficients c_0..c_n of the entry about 0."""
    k = np.arange(n + 1)
    c = np.zeros(n + 1, dtype=np.complex128)
    if family == "identity":
        c[1] = 1.0
    elif family == "koebe":
        c[:] = k
    elif family == "rotated_koebe":
        c[:] = k * cmath.exp(1j * p.real) ** (k - 1.0)
    elif family == "bounded":
        c[1:] = p ** (k[1:] - 1)
    elif family == "sigma":
        c[0] = p
        c[1:] = (1.0 - abs(p) ** 2) * (-p.conjugate()) ** (k[1:] - 1)
    elif family == "cayley":
        c[:] = 1.0
    elif family == "exp_scale":
        c[0] = 1.0
        for j in range(1, n + 1):
            c[j] = c[j - 1] * p / j
    elif family == "quad_poly":
        c[1] = 1.0
        if n >= 2:
            c[2] = p
    else:
        raise ValueError(family)
    return c


def area_sum(family: str, p: complex, lam: float, N: int) -> float:
    """sum_{n=1..N} (n-lam)|a_n|^2 for [z/f(z)]^lam = sum a_n z^n (class-S entries).

    z/f is (1-z)^2, (1-uz)^2, 1, 1-bz and 1/(1+az), so a_n = binom(alpha,n)(-beta)^n.
    """
    alpha, beta = {
        "koebe": (2.0 * lam, 1.0),
        "rotated_koebe": (2.0 * lam, 1.0),
        "identity": (lam, 0.0),
        "bounded": (lam, abs(p)),
        "quad_poly": (-lam, abs(p)),
    }[family]
    n = np.arange(1, N + 1, dtype=np.float64)
    a2 = binomials(alpha, N)[1:] ** 2 * beta ** (2.0 * n)
    return float(np.sum((n - lam) * a2))


def koebe_psi_ok(values: np.ndarray, tol: float) -> bool:
    """Psi_n of a (rotated) Koebe function: |Psi_0| = 2, Psi_1 = Psi_0^2/4, Psi_n = 0 beyond.

    The Koebe transform of a rotated Koebe function is again one, and its
    regular part 1/w - 2u + u^2 w gives the three values.
    """
    v = np.asarray(values)
    return (
        abs(abs(v[0]) - 2.0) <= tol
        and abs(v[1] - v[0] ** 2 / 4.0) <= tol
        and bool(np.all(np.abs(v[2:]) <= tol))
    )


def koebe_grunsky_norm(z: complex) -> float:
    """U_f(z) for a (rotated) Koebe function: sum n|Psi_n|^2 = 1 = (1-|z|^2)^2 U^2."""
    return 1.0 / (1.0 - abs(z) ** 2)
