"""Command-line front end: JSON and CSV output for every computation.

Output is deterministic for a fixed configuration: stable field order, floats
rendered with 17 significant digits, complex numbers as {re, im} pairs.  Each
subcommand builds one JSON payload and names its CSV table in one of three forms:
a complex coefficient array, rendered in one pass that fills its repeated
per-element template with a single ``%``; a list of row dicts (scan, bounds); or
a tuple of scalar keys (area, grunsky), one row.  Exit codes: 0 success, 1 numeric
failure (with its analytic meaning in the message), 2 configuration error naming
the offending flag, 141 when the reader closes stdout early.
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import sys

import numpy as np

from . import catalog, criteria, quadrature, sequences, transforms
from .errors import ConfigError, UnivalenceError

__all__ = ["main", "run"]

SCHEMA_VERSION = 1

#: accepted range of each integer flag, by sequence kind or subcommand, and of the
#: number of ``scan --grid`` points, with the reason for its cap.  The recentering
#: engine's counts stop at 4096 ("engine cost"): past 1024 its samples, and so its
#: time, grow with the count; Psi_0..Psi_count takes count + 1 of them, so its count
#: stops at 4095.  A scan makes one engine call per point.  The Grunsky sum reads
#: at most 4096 coefficients, and N only picks its partial sum to n = N, so N
#: stops at the long sum's truncation n = 4095.  The counts read from a
#: Taylor series about z stop at 4096 too ("series length"): its coefficients, and
#: so the output, grow with the count.  ``bounds`` reads its left sides from series
#: about z, which lose digits.
_RANGE = {
    ("series", "count"): (1, 4096, "series length"),
    ("phi", "count"): (0, 4096, "series length"),
    ("Phi", "count"): (0, 4096, "series length"),
    ("Psi", "count"): (0, 4095, "engine cost"),
    ("criterion", "N"): (1, 4096, "engine cost"),
    ("scan", "N"): (1, 4096, "engine cost"),
    ("scan", "grid"): (1, 4096, "engine cost"),
    ("bounds", "N"): (1, 200, "left sides from series about z"),
    ("grunsky", "N"): (32, criteria._LONG - 1, "truncation of the Grunsky sum"),
}


# --------------------------------------------------------------------------
# deterministic rendering


def _fmt(x: float) -> str:
    return "%.17g" % (float(x) + 0.0)  # adding 0.0 turns negative zero into zero


def _parts(arr: np.ndarray) -> tuple[float, ...]:
    """Real and imaginary parts of a complex array, interleaved, with negative zero
    turned into zero as :func:`_fmt` does."""
    return tuple((arr + 0.0).view(float).tolist())


#: the JSON object of one complex number at indent ``pad``, with its two parts to fill
_COMPLEX_JSON = '{{\n{pad}  "re": %.17g,\n{pad}  "im": %.17g\n{pad}}}'


def _render_json(obj, indent: int = 0) -> str:
    pad = "  " * indent
    if isinstance(obj, np.ndarray):  # a list of complex numbers, rendered at once
        item = f"{pad}  " + _COMPLEX_JSON.format(pad=pad + "  ")
        return "[\n" + ",\n".join([item] * obj.size) % _parts(obj) + f"\n{pad}]"
    if isinstance(obj, dict):
        items = [
            f'{pad}  "{key}": {_render_json(val, indent + 1)}'
            for key, val in obj.items()
        ]
        return "{\n" + ",\n".join(items) + f"\n{pad}}}"
    if isinstance(obj, (list, tuple)):
        items = [f"{pad}  {_render_json(val, indent + 1)}" for val in obj]
        return "[\n" + ",\n".join(items) + f"\n{pad}]"
    if isinstance(obj, complex):
        return _COMPLEX_JSON.format(pad=pad) % (obj.real + 0.0, obj.imag + 0.0)
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, float):
        return _fmt(obj)
    if isinstance(obj, str):
        return '"' + obj.replace("\\", "\\\\").replace('"', '\\"') + '"'
    raise TypeError(f"cannot render {type(obj)}")


def _csv_value(v) -> str:
    if isinstance(v, complex):
        return f"{_fmt(v.real)},{_fmt(v.imag)}"
    return _fmt(v) if isinstance(v, float) else str(v)


def _render_csv(payload: dict, table) -> str:
    """CSV view of ``payload``.  ``table`` is ``(key, index, start)`` for the complex
    array ``payload[key]``, rendered at once under columns index (counted from
    start), re and im; a list of row dicts; or a tuple of scalar keys, one row.  A
    complex value in a row gives two columns, name_re and name_im."""
    if isinstance(table, list):
        rows = table
    elif isinstance(arr := payload[table[0]], np.ndarray):
        _, index, start = table
        lines = "".join([f"{i},%.17g,%.17g\n" for i in range(start, start + arr.size)])
        return f"{index},re,im\n" + lines % _parts(arr)
    else:
        rows = [{key: payload[key] for key in table}]
    names = [f"{k}_re,{k}_im" if isinstance(v, complex) else k for k, v in rows[0].items()]
    lines = [",".join(names)] + [",".join(map(_csv_value, row.values())) for row in rows]
    return "\n".join(lines) + "\n"


def _emit(args, payload: dict, table) -> None:
    if args.format == "csv":
        text = _render_csv(payload, table)
    else:
        text = _render_json(payload) + "\n"
    if args.out is not None:
        try:
            with open(args.out, "w") as fh:
                fh.write(text)
        except OSError as exc:
            raise ConfigError("--out", f"cannot write {args.out!r}: {exc.strerror}") from exc
    else:
        sys.stdout.write(text)


# --------------------------------------------------------------------------
# argument handling


def _parse_complex_flag(value: str, flag: str) -> complex:
    try:
        z = catalog.parse_complex(value)
    except ValueError as exc:
        raise ConfigError(flag, str(exc)) from exc
    if not abs(z) < 1.0:
        raise ConfigError(flag, f"must lie in the open unit disk, got {value!r}")
    return z


def _check_flags(args) -> None:
    """Domain checks on the parsed flags, so that a bad value exits 2 naming its flag."""
    for dest in ("z", "zeta"):
        if hasattr(args, dest):
            setattr(args, dest, _parse_complex_flag(getattr(args, dest), f"--{dest}"))
    for dest in ("count", "N"):
        if (bounds := _RANGE.get((getattr(args, "kind", args.command), dest))) is None:
            continue
        low, high, reason = bounds
        value = getattr(args, dest)
        if value < low:
            raise ConfigError(f"--{dest}", f"must be >= {low}, got {value}")
        if value > high:
            raise ConfigError(f"--{dest}", f"must be <= {high} ({reason}), got {value}")
    lam = getattr(args, "lam", None)
    if lam is None:
        if getattr(args, "kind", None) == "Phi":
            raise ConfigError("--lambda", "required for kind=Phi")
    elif getattr(args, "kind", None) in ("phi", "Psi"):
        raise ConfigError("--lambda", f"not used by kind={args.kind}")
    elif not (math.isfinite(lam) and lam > 0):
        raise ConfigError("--lambda", f"must be finite and > 0, got {lam!r}")
    elif (rule := args.lam_max) and (lam > 1 or lam == 1 and rule == "<"):
        raise ConfigError("--lambda", f"must be {rule} 1 for {args.command}, got {lam!r}")
    tol = getattr(args, "tol", None)
    if tol is not None and not (math.isfinite(tol) and tol >= 0):
        raise ConfigError("--tol", f"must be finite and >= 0, got {tol!r}")


def _parse_grid(spec: str) -> list[complex]:
    if spec == "default":
        return criteria.default_grid()
    radii_part, sep, angles_part = spec.partition("x")
    if not sep:
        raise ConfigError("--grid", f"expected 'default' or 'r1,r2,...xM', got {spec!r}")
    try:
        radii = [float(r) for r in radii_part.split(",")]
        angles = int(angles_part)
    except ValueError as exc:
        raise ConfigError("--grid", str(exc)) from exc
    if not all(0 <= r < 1 for r in radii) or angles < 1:
        raise ConfigError("--grid", "radii must lie in [0,1) and angle count >= 1")
    if len(set(radii)) < len(radii):
        raise ConfigError("--grid", f"radii must be distinct, got {radii_part!r}")
    # radius zero is one point, every other radius one per angle
    points = sum(1 if r == 0 else angles for r in radii)
    _, high, reason = _RANGE[("scan", "grid")]
    if points > high:
        raise ConfigError("--grid", f"must have <= {high} points ({reason}), got {points}")
    return criteria.default_grid(radii=tuple(radii), angles=angles)


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and kept: ``parse_args`` leaves it
    unchanged, and the usage width is read from COLUMNS when a message is printed."""
    parser = argparse.ArgumentParser(
        prog="univalence",
        description="Coefficient sequences, area sums and univalence "
        "criteria for analytic functions on the unit disk.",
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")

    def add_common(p, run, lam_max=None):
        # run(args, fn) computes the subcommand, and lam_max bounds --lambda: the area
        # theorem and the scan's monotone regime take lambda <= 1, the growth bounds < 1
        p.add_argument("--fn", required=True, help="catalog id, e.g. koebe or exp_scale:k=4")
        p.add_argument("--format", choices=("json", "csv"), default=None)
        p.add_argument("--out", default=None, help="output path (default stdout)")
        p.set_defaults(run=run, lam_max=lam_max)

    p = sub.add_parser("series", help="Taylor coefficients of a catalog entry")
    add_common(p, _cmd_series)
    p.add_argument("--z", default="0", help="expansion center")
    p.add_argument("--count", type=int, default=16, help="expansion order")

    p = sub.add_parser("sequence", help="phi/Phi/Psi coefficient tables")
    add_common(p, _cmd_sequence)
    p.add_argument("--kind", choices=("phi", "Phi", "Psi"), required=True)
    p.add_argument("--z", default="0")
    p.add_argument("--count", type=int, default=10)
    p.add_argument("--lambda", dest="lam", type=float, default=None)

    p = sub.add_parser("criterion", help="criterion sum report at one probe point")
    add_common(p, _cmd_criterion)
    p.add_argument("--lambda", dest="lam", type=float, required=True)
    p.add_argument("--zeta", default="0")
    p.add_argument("--N", type=int, default=64)
    p.add_argument("--tol", type=float, default=criteria.DEFAULT_TOL)

    p = sub.add_parser("scan", help="criterion gaps over a probe grid (CSV by default)")
    add_common(p, _cmd_scan, "<=")
    p.add_argument("--lambda", dest="lam", type=float, required=True)
    p.add_argument("--grid", default="default")
    p.add_argument("--N", type=int, default=96)
    p.add_argument("--tol", type=float, default=criteria.DEFAULT_TOL)
    p.set_defaults(format="csv")

    p = sub.add_parser("bounds", help="growth-bound slack table for a univalent entry")
    add_common(p, _cmd_bounds, "<")
    p.add_argument("--lambda", dest="lam", type=float, required=True)
    p.add_argument("--z", default="0")
    p.add_argument("--N", type=int, default=10)

    p = sub.add_parser("area", help="weighted area integral with budget 1/lambda")
    add_common(p, _cmd_area, "<=")
    p.add_argument("--lambda", dest="lam", type=float, required=True)
    p.add_argument("--z", default="0")

    p = sub.add_parser("grunsky", help="Grunsky norm and the exterior-sum identity residual")
    add_common(p, _cmd_grunsky)
    p.add_argument("--z", default="0")
    p.add_argument("--N", type=int, default=64)

    p = sub.add_parser("selftest", help="run the acceptance suite")
    return parser


# --------------------------------------------------------------------------
# subcommands: each returns its payload body and the shape of its CSV table


def _cmd_series(args, fn):
    s = catalog.series_at(fn, args.z, args.count)
    body = {
        "center": s.center,
        "order": s.order,
        "coeffs": s.coeffs,
    }
    return body, ("coeffs", "k", 0)


def _cmd_sequence(args, fn):
    if args.kind == "Psi":
        values = transforms.psi_via_transform(fn, args.z, args.count)
    else:
        s = catalog.series_at(fn, args.z, args.count + 2)
        if args.kind == "phi":
            values = sequences.aharonov_phi(s, args.count).values
        else:
            values = sequences.phi_capital_direct(s, args.lam, args.count).values
    body = {
        "kind": args.kind,
        "z": args.z,
        "values": values,
    }
    if args.kind == "Phi":
        body["lambda"] = args.lam
    return body, ("values", "n", 0)


def _cmd_criterion(args, fn):
    rep = criteria.univalence_criterion(fn, args.lam, args.zeta, args.N, args.tol)
    body = {
        "lambda": rep.lam,
        "zeta": rep.zeta,
        "N": rep.N,
        "T_N": rep.T_N,
        "budget": rep.budget,
        "margin": rep.margin,
        "sup_abs_term": rep.sup_abs_term,
        "verdict": rep.verdict,
        "terms": rep.terms,
    }
    return body, ("terms", "n", 1)


def _cmd_scan(args, fn):
    res = criteria.fullmap_scan(fn, args.lam, _parse_grid(args.grid), args.N, args.tol)
    body = {
        "lambda": res.lam,
        "N": res.N,
        "full_mapping_consistent": res.full_mapping_consistent,
        "rows": [vars(r) for r in res.rows],
    }
    return body, body["rows"]


def _cmd_bounds(args, fn):
    rep = criteria.decay_bound_checks(fn, args.z, args.N, args.lam)
    body = {
        "lambda": rep.lam,
        "z": rep.z,
        "worst_slack": rep.worst_slack,
        "rows": [vars(r) for r in rep.rows],
    }
    return body, body["rows"]


def _cmd_area(args, fn):
    res = quadrature.prawitz_integral(fn, args.lam, args.z)
    body = {
        "lambda": args.lam,
        "z": args.z,
        "value": res.value,
        "error_estimate": res.error_estimate,
        "budget": 1.0 / args.lam,
    }
    return body, ("value", "error_estimate", "budget")


def _cmd_grunsky(args, fn):
    norm, residual = quadrature._grunsky(fn, args.z, args.N)
    body = {
        "z": args.z,
        "N": args.N,
        "grunsky_norm": norm.value,
        "error_estimate": norm.error_estimate,
        "identity_residual": residual,
    }
    return body, ("grunsky_norm", "error_estimate", "identity_residual")


def run(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "selftest":
            # the acceptance suite loads the reference routes; no other command needs them
            from . import acceptance

            results = acceptance.run_all()
            return 0 if all(r.passed for r in results) else 1
        _check_flags(args)
        try:
            fn = catalog.from_spec(args.fn)
        except ValueError as exc:
            raise ConfigError("--fn", str(exc)) from exc
        body, table = args.run(args, fn)
        payload = {"schema": SCHEMA_VERSION, "command": args.command, "fn": fn.label}
        payload.update(body)
        _emit(args, payload, table)
        return 0
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (UnivalenceError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    # a reader that closed stdout early gets no traceback; see the note on SIGPIPE
    # in the documentation of Python's signal module
    try:
        code = run()
        sys.stdout.flush()
    except BrokenPipeError:
        # what remains buffered is flushed at exit, into devnull
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 141  # 128 + SIGPIPE, as the shell reports a process that SIGPIPE ends
    sys.exit(code)


if __name__ == "__main__":
    main()
