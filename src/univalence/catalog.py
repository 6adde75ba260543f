"""Closed-form analytic test functions on the unit disk.

Each entry carries hard-coded ground-truth flags (locally univalent /
univalent / full mapping, with a one-line proof note) and produces its Taylor
expansion about any interior center from a closed form.  Expansions are never
obtained by numerical differentiation; they come from differentiated
geometric series, the exponential series, or low-degree algebra, so they are
oracle-grade.

Each family is one constructor: its keyword defaults are the family's default
parameters, it refuses parameters the family cannot take, and its Taylor rule
sits next to its ``f`` and ``f'``.  Entries are addressable by a spec string
such as ``"koebe"``, ``"exp_scale:k=4"`` or ``"quad_poly:a=0.4+0i"``; a
non-finite parameter is refused for every family.
"""

from __future__ import annotations

import cmath
import inspect
import math
import re
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import SeriesOverflowError
from .series import PowerSeries

__all__ = [
    "CatalogFlags",
    "CatalogFunction",
    "series_at",
    "list_catalog",
    "get",
    "from_spec",
    "parse_complex",
]


@dataclass(frozen=True)
class CatalogFlags:
    locally_univalent_on_disk: bool
    univalent_on_disk: bool
    full_mapping: bool

    def __post_init__(self):
        if self.univalent_on_disk and not self.locally_univalent_on_disk:
            raise ValueError("univalent implies locally univalent")
        if self.full_mapping and not self.univalent_on_disk:
            raise ValueError("full mapping implies univalent")


@dataclass(frozen=True)
class CatalogFunction:
    """Named analytic function with closed-form expansions and truth flags."""

    id: str
    params: dict
    flags: CatalogFlags
    note: str
    _coeffs: Callable[[complex, int], np.ndarray]
    _f: Callable[[np.ndarray], np.ndarray]
    _df: Callable[[np.ndarray], np.ndarray]

    def f(self, w):
        """Pointwise value f(w); accepts scalars or numpy arrays."""
        return self._f(np.asarray(w, dtype=np.complex128))

    def df(self, w):
        """Pointwise derivative f'(w); accepts scalars or numpy arrays."""
        return self._df(np.asarray(w, dtype=np.complex128))

    @property
    def label(self) -> str:
        if not self.params:
            return self.id
        inner = ",".join(f"{k}={_fmt_param(v)}" for k, v in self.params.items())
        return f"{self.id}:{inner}"

    def __repr__(self):
        return f"CatalogFunction({self.label!r})"


def _fmt_param(v) -> str:
    v = complex(v)
    if v.imag == 0:
        return repr(v.real)
    return f"{v.real!r}{v.imag:+}i"


def series_at(fn: CatalogFunction, center: complex, order: int) -> PowerSeries:
    """Taylor expansion of ``fn`` about ``center`` (|center| < 1) to ``order``.

    Returned even where the function is not locally univalent (c_1 may then
    be zero); downstream operations decide whether that is an error.  Raises
    :class:`SeriesOverflowError` when a coefficient up to ``order`` leaves the
    double range, which happens at high order close to a singularity.
    """
    center = complex(center)
    if not abs(center) < 1.0:
        raise ValueError(f"center {center} outside the open unit disk")
    if order < 1:
        raise ValueError("order must be >= 1")
    # the closed forms raise powers of 1/(1 - a); non-finite results are refused below
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        coeffs = fn._coeffs(center, order)
    bad = np.flatnonzero(~np.isfinite(coeffs))
    if bad.size:
        raise SeriesOverflowError(
            f"{fn.label}: Taylor coefficients about {_fmt_param(center)} leave the "
            f"double range at index {bad[0]}; order {order} cannot be expanded there"
        )
    return PowerSeries(center, coeffs)


# --------------------------------------------------------------------------
# the families, one constructor each (see the module docstring)


def _koebe_coeffs_at(a: complex, n: int) -> np.ndarray:
    # z/(1-z)^2 = 1/(1-z)^2 - 1/(1-z); both expand geometrically about a
    k = np.arange(n + 1)
    u = 1.0 / (1.0 - a)
    return (k + 1) * u ** (k + 2) - u ** (k + 1)


def _identity() -> CatalogFunction:
    def coeffs(a: complex, n: int) -> np.ndarray:
        c = np.zeros(n + 1, dtype=np.complex128)
        c[0] = a
        c[1] = 1.0
        return c

    return CatalogFunction(
        id="identity",
        params={},
        flags=CatalogFlags(True, True, False),
        note="f(z)=z maps D onto D; injective, complement of image has full measure",
        _coeffs=coeffs,
        _f=lambda w: w,
        _df=lambda w: np.ones_like(w),
    )


def _koebe() -> CatalogFunction:
    return CatalogFunction(
        id="koebe",
        params={},
        flags=CatalogFlags(True, True, True),
        note="z/(1-z)^2 maps D onto the plane minus the ray (-inf,-1/4]; a slit has measure zero",
        _coeffs=_koebe_coeffs_at,
        _f=lambda w: w / (1.0 - w) ** 2,
        _df=lambda w: (1.0 + w) / (1.0 - w) ** 3,
    )


def _rotated_koebe(theta=2.0) -> CatalogFunction:
    theta = complex(theta)
    if theta.imag != 0:
        raise ValueError("rotated_koebe theta must be real")
    theta = theta.real
    u = np.exp(1j * theta)

    def coeffs(a: complex, n: int) -> np.ndarray:
        # z/(1-uz)^2 = (1/u) * koebe(uz); chain rule scales coefficient k by u^k
        k = np.arange(n + 1)
        return u ** (k - 1) * _koebe_coeffs_at(u * a, n)

    return CatalogFunction(
        id="rotated_koebe",
        params={"theta": theta},
        flags=CatalogFlags(True, True, True),
        note="z/(1-e^{i theta} z)^2 omits a rotated radial slit of measure zero",
        _coeffs=coeffs,
        _f=lambda w: w / (1.0 - u * w) ** 2,
        _df=lambda w: (1.0 + u * w) / (1.0 - u * w) ** 3,
    )


def _bounded(b=1.0) -> CatalogFunction:
    b = complex(b)
    if abs(b) > 1.0 + 1e-15:
        raise ValueError(f"bounded map requires |b| <= 1, got |b|={abs(b):.6g}")

    def coeffs(a: complex, n: int) -> np.ndarray:
        c = np.zeros(n + 1, dtype=np.complex128)
        u = 1.0 / (1.0 - b * a)
        c[0] = a * u
        k = np.arange(1, n + 1)
        c[1:] = b ** (k - 1) * u ** (k + 1)
        return c

    return CatalogFunction(
        id="bounded",
        params={"b": b},
        flags=CatalogFlags(True, True, False),
        note="z/(1-bz) is a Moebius map with pole 1/b outside D; image omits a set of positive measure",
        _coeffs=coeffs,
        _f=lambda w: w / (1.0 - b * w),
        _df=lambda w: 1.0 / (1.0 - b * w) ** 2,
    )


def _sigma(zeta=0.3) -> CatalogFunction:
    zeta = complex(zeta)
    if abs(zeta) >= 1.0:
        raise ValueError(f"disk automorphism requires |zeta| < 1, got {abs(zeta):.6g}")
    zb = np.conj(zeta)

    def coeffs(a: complex, n: int) -> np.ndarray:
        c = np.zeros(n + 1, dtype=np.complex128)
        denom = 1.0 + zb * a
        c[0] = (a + zeta) / denom
        k = np.arange(1, n + 1)
        # (-1)^(k+1) zb^(k-1): derivative chain of (1 - (1-|zeta|^2)/(1+zb w))/zb
        c[1:] = (1.0 - abs(zeta) ** 2) * (-1.0) ** (k + 1) * zb ** (k - 1) / denom ** (k + 1)
        return c

    return CatalogFunction(
        id="sigma",
        params={"zeta": zeta},
        flags=CatalogFlags(True, True, False),
        note="(w+zeta)/(1+conj(zeta)w) is a disk automorphism; image D is not full",
        _coeffs=coeffs,
        _f=lambda w: (w + zeta) / (1.0 + zb * w),
        _df=lambda w: (1.0 - abs(zeta) ** 2) / (1.0 + zb * w) ** 2,
    )


def _cayley() -> CatalogFunction:
    def coeffs(a: complex, n: int) -> np.ndarray:
        return (1.0 / (1.0 - a)) ** (np.arange(n + 1) + 1)

    return CatalogFunction(
        id="cayley",
        params={},
        flags=CatalogFlags(True, True, False),
        note="1/(1-z) maps D onto the half-plane Re > 1/2; Moebius, not full",
        _coeffs=coeffs,
        _f=lambda w: 1.0 / (1.0 - w),
        _df=lambda w: 1.0 / (1.0 - w) ** 2,
    )


def _exp_scale(k=1.0) -> CatalogFunction:
    k = complex(k)
    if k == 0:
        raise ValueError("exp_scale requires k != 0: e^{0z} is constant, so f' vanishes on D")

    def coeffs(a: complex, n: int) -> np.ndarray:
        j = np.arange(n + 1)
        logfact = np.concatenate(([0.0], np.cumsum(np.log(np.arange(1, n + 1)))))
        return np.exp(k * a) * np.exp(j * np.log(k) - logfact)

    return CatalogFunction(
        id="exp_scale",
        params={"k": k},
        flags=CatalogFlags(True, abs(k) <= math.pi + 1e-15, False),
        note="e^{kz}: derivative never vanishes; injective iff kD contains no pair differing by 2*pi*i, i.e. |k| <= pi",
        _coeffs=coeffs,
        _f=lambda w: np.exp(k * w),
        _df=lambda w: k * np.exp(k * w),
    )


def _quad_poly(a=0.4) -> CatalogFunction:
    qa = complex(a)
    nice = abs(qa) <= 0.5 + 1e-15

    def coeffs(a: complex, n: int) -> np.ndarray:
        c = np.zeros(n + 1, dtype=np.complex128)
        c[0] = a + qa * a * a
        c[1] = 1.0 + 2.0 * qa * a
        if n >= 2:
            c[2] = qa
        return c

    return CatalogFunction(
        id="quad_poly",
        params={"a": qa},
        flags=CatalogFlags(nice, nice, False),
        note="z+az^2: f' vanishes at -1/(2a), inside D iff |a|>1/2; univalent iff |a| <= 1/2 since z1+z2 = -1/a is impossible in D",
        _coeffs=coeffs,
        _f=lambda w: w + qa * w * w,
        _df=lambda w: 1.0 + 2.0 * qa * w,
    )


_FACTORIES: dict[str, Callable[..., CatalogFunction]] = {
    "identity": _identity,
    "koebe": _koebe,
    "rotated_koebe": _rotated_koebe,
    "bounded": _bounded,
    "sigma": _sigma,
    "cayley": _cayley,
    "exp_scale": _exp_scale,
    "quad_poly": _quad_poly,
}


def get(fn_id: str, **params) -> CatalogFunction:
    """Construct a catalog entry by id, overriding default parameters."""
    if fn_id not in _FACTORIES:
        known = ", ".join(sorted(_FACTORIES))
        raise ValueError(f"unknown catalog id {fn_id!r}; known ids: {known}")
    make = _FACTORIES[fn_id]
    allowed = inspect.signature(make).parameters
    for key, val in params.items():
        if key not in allowed:
            raise ValueError(f"{fn_id} takes no parameter {key!r}")
        if not cmath.isfinite(complex(val)):
            raise ValueError(f"{fn_id} parameter {key} must be finite, got {val!r}")
    return make(**params)


def list_catalog() -> list[CatalogFunction]:
    """The default registry: one representative instance per entry family."""
    return [get(fn_id) for fn_id in _FACTORIES]


_COMPLEX_RE = re.compile(r"^[0-9eEij+\-. ]+$")


def parse_complex(text: str) -> complex:
    """Parse '0.4+0i'-style literals (also bare reals); 'i' and 'j' both accepted."""
    s = text.strip().replace(" ", "").replace("i", "j")
    if not s or not _COMPLEX_RE.match(text.strip()):
        raise ValueError(f"cannot parse complex literal {text!r}")
    try:
        return complex(s)
    except ValueError as exc:
        raise ValueError(f"cannot parse complex literal {text!r}") from exc


def from_spec(spec: str) -> CatalogFunction:
    """Build an entry from a spec string like 'exp_scale:k=4'."""
    name, _, paramstr = spec.partition(":")
    params = {}
    if paramstr:
        for item in paramstr.split(","):
            key, eq, val = item.partition("=")
            if not eq:
                raise ValueError(f"malformed parameter {item!r} in {spec!r}")
            params[key.strip()] = parse_complex(val)
    return get(name.strip(), **params)
