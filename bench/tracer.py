"""Per-layer tracing from outside the package.

:class:`Tracer` replaces every public function of the package's layer modules
with a wrapper that records a span (name, start, end, parent span, task id,
amount of work).  A function is replaced wherever the package binds it: its
module attribute and every ``from .x import y`` rebinding in other modules.
``CatalogFunction.f``/``df`` are wrapped on the class, the integrand handed
to ``quadrature.integrate_disk`` is wrapped per call, and numpy's
``leggauss`` is wrapped for the duration of the trace because only
``quadrature`` calls it.  :meth:`Tracer.uninstall` puts every original back.

Spans stay in memory; :func:`layer_metrics` turns them into per-layer counts
and self times (a span's duration minus the time its child spans cover).
"""

from __future__ import annotations

import functools
import gzip
import importlib
import inspect
import os
import sys
import time

import numpy as np

LAYERS = ("catalog", "series", "sequences", "transforms", "criteria", "quadrature", "cli")

_MARK = "__bench_trace_wrapper__"


def _result_size(args, kwargs, result):
    return result.coeffs.size


def _array_size(args, kwargs, result):
    return np.size(args[1] if len(args) > 1 else kwargs["w"])


def _out_bytes(args, kwargs, result):
    argv = list(args[0] if args else kwargs.get("argv") or ())
    if "--out" in argv:
        path = argv[argv.index("--out") + 1]
        if os.path.exists(path):
            return os.path.getsize(path)
    return 0


#: work counted per span, by span name
_AMOUNTS = {
    "series.ps_recip": _result_size,
    "series.ps_pow_real": _result_size,
    "transforms.phi_capital_recentered": lambda a, k, r: r.size,
    "catalog.f": _array_size,
    "catalog.df": _array_size,
    "quadrature.integrand": lambda a, k, r: np.size(a[0]),
    "quadrature.leggauss": lambda a, k, r: int(a[0]),
    "cli.run": _out_bytes,
}


class Tracer:
    """Installs span-recording wrappers into the imported package ``uv``."""

    def __init__(self, uv):
        self.uv = uv
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.spans: list = []
        self.task = -1
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        amount = _AMOUNTS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                t1 = clock()
                stack.pop()
                spans[idx] = (nid, t0, t1, stack[-1] if stack else -1, self.task, 0)
                raise
            t1 = clock()
            stack.pop()
            spans[idx] = (nid, t0, t1, stack[-1] if stack else -1, self.task,
                          amount(args, kwargs, result) if amount else 0)
            return result

        setattr(wrapper, _MARK, True)
        return wrapper

    def _public_functions(self):
        for layer in LAYERS:
            mod = getattr(self.uv, layer)
            for attr in getattr(mod, "__all__", ()):
                obj = getattr(mod, attr)
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    yield f"{layer}.{attr}", obj

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        wrappers = {}
        for name, fn in self._public_functions():
            target = self._hook_integrand(fn) if name == "quadrature.integrate_disk" else fn
            wrappers[id(fn)] = (fn, self._wrap(name, target))
        for mod in self._package_modules():
            for attr, val in list(vars(mod).items()):
                hit = wrappers.get(id(val))
                if hit and hit[0] is val:
                    self._patch(mod, attr, hit[1])
        cls = self.uv.catalog.CatalogFunction
        for attr in ("f", "df"):
            self._patch(cls, attr, self._wrap(f"catalog.{attr}", cls.__dict__[attr]))
        legendre = importlib.import_module("numpy.polynomial.legendre")
        self._patch(legendre, "leggauss", self._wrap("quadrature.leggauss", legendre.leggauss))

    def _hook_integrand(self, integrate_disk):
        @functools.wraps(integrate_disk)
        def hooked(integrand, mesh):
            return integrate_disk(self._wrap("quadrature.integrand", integrand), mesh)

        return hooked

    def _patch(self, owner, attr, value) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def _package_modules(self):
        name = self.uv.__name__
        return [m for k, m in list(sys.modules.items()) if k == name or k.startswith(name + ".")]

    def uninstall(self) -> bool:
        """Restore every original; True when no wrapper is left anywhere."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)
        return not self.leftover_wrappers()

    def leftover_wrappers(self) -> list[str]:
        owners = self._package_modules() + [
            self.uv.catalog.CatalogFunction,
            importlib.import_module("numpy.polynomial.legendre"),
        ]
        return [
            f"{getattr(o, '__name__', o)}.{attr}"
            for o in owners
            for attr, val in list(vars(o).items())
            if getattr(val, _MARK, False)
        ]

    def write_spans(self, path: str) -> None:
        with gzip.open(path, "wt") as fh:
            fh.write("name\tstart\tend\tparent\ttask\tamount\n")
            for nid, t0, t1, parent, task, amount in self.spans:
                fh.write(f"{self.names[nid]}\t{t0:.9f}\t{t1:.9f}\t{parent}\t{task}\t{amount}\n")


def _bucket(name: str) -> str:
    special = {
        "series.ps_recip": "series.recip",
        "series.ps_pow_real": "series.pow_real",
        "transforms.phi_capital_recentered": "transforms.recentered",
        "catalog.series_at": "catalog.series_at",
        "catalog.f": "catalog.eval",
        "catalog.df": "catalog.eval",
        "quadrature.integrand": "quadrature.integrand",
        "quadrature.leggauss": "quadrature.rule",
        "quadrature.integrate_disk": "quadrature.integrals",
    }
    if name in special:
        return special[name]
    layer = name.split(".")[0]
    return {"series": "series.other", "transforms": "transforms.other", "catalog": "catalog.other"}.get(layer, layer)


def layer_metrics(names: list[str], spans: list, tasks: int) -> dict[str, float]:
    """Per-layer metrics from spans; counts and times are per task."""
    buckets = [_bucket(n) for n in names]
    calls, amount, self_s = {}, {}, {}
    children = [0.0] * len(spans)
    for nid, t0, t1, parent, _, _ in spans:
        if parent >= 0:
            children[parent] += t1 - t0
    in_recentered = [False] * len(spans)
    eval_in_recentered = 0
    for i, (nid, t0, t1, parent, _, amt) in enumerate(spans):
        b = buckets[nid]
        calls[b] = calls.get(b, 0) + 1
        amount[b] = amount.get(b, 0) + amt
        self_s[b] = self_s.get(b, 0.0) + (t1 - t0) - children[i]
        inside = parent >= 0 and in_recentered[parent]
        in_recentered[i] = inside or b == "transforms.recentered"
        if inside and b == "catalog.eval":
            eval_in_recentered += amt

    def per_task(table, key):
        return table.get(key, 0) / tasks

    recentered = calls.get("transforms.recentered", 0)
    integrals = calls.get("quadrature.integrals", 0)
    return {
        "series.recip.calls": per_task(calls, "series.recip"),
        "series.recip.coeffs": per_task(amount, "series.recip"),
        "series.recip.self_s": per_task(self_s, "series.recip"),
        "series.pow_real.calls": per_task(calls, "series.pow_real"),
        "series.pow_real.coeffs": per_task(amount, "series.pow_real"),
        "series.pow_real.self_s": per_task(self_s, "series.pow_real"),
        "series.other.self_s": per_task(self_s, "series.other"),
        "sequences.calls": per_task(calls, "sequences"),
        "sequences.self_s": per_task(self_s, "sequences"),
        "criteria.calls": per_task(calls, "criteria"),
        "criteria.self_s": per_task(self_s, "criteria"),
        "transforms.recentered.calls": per_task(calls, "transforms.recentered"),
        "transforms.recentered.coeffs": per_task(amount, "transforms.recentered"),
        "transforms.recentered.self_s": per_task(self_s, "transforms.recentered"),
        "transforms.recentered.eval_points_per_call": eval_in_recentered / recentered if recentered else 0.0,
        "transforms.other.self_s": per_task(self_s, "transforms.other"),
        "catalog.series_at.calls": per_task(calls, "catalog.series_at"),
        "catalog.series_at.self_s": per_task(self_s, "catalog.series_at"),
        "catalog.eval.points": per_task(amount, "catalog.eval"),
        "catalog.eval.self_s": per_task(self_s, "catalog.eval"),
        "quadrature.integrals": per_task(calls, "quadrature.integrals"),
        "quadrature.nodes": per_task(amount, "quadrature.integrand"),
        "quadrature.nodes_per_integral": amount.get("quadrature.integrand", 0) / integrals if integrals else 0.0,
        "quadrature.integrand_s": per_task(self_s, "quadrature.integrand"),
        "quadrature.rule_builds": per_task(calls, "quadrature.rule"),
        "quadrature.rule_s": per_task(self_s, "quadrature.rule"),
        "quadrature.self_s": (self_s.get("quadrature", 0.0) + self_s.get("quadrature.integrals", 0.0)) / tasks,
        "cli.runs": per_task(calls, "cli"),
        "cli.self_s": per_task(self_s, "cli"),
        "cli.bytes_out": per_task(amount, "cli"),
    }
