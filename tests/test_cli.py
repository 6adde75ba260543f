"""Command-line interface: output schemas, determinism, exit codes."""

import json
import os
import pathlib
import re
import shlex
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, strategies as st

import univalence
from univalence.catalog import get
from univalence.cli import _parse_grid, _render_csv, _render_json, run
from univalence.errors import ConfigError
from univalence.quadrature import grunsky_norm


def _capture(capsys, argv):
    try:
        code = run(argv)
    except SystemExit as exc:  # argparse refuses an unknown flag
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_criterion_json_payload(capsys):
    code, out, _ = _capture(
        capsys, ["criterion", "--fn", "koebe", "--lambda", "0.5", "--zeta", "0", "--N", "8"]
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["schema"] == 1
    assert payload["T_N"] == pytest.approx(0.5, abs=1e-15)
    assert payload["margin"] == pytest.approx(0.0, abs=1e-15)
    assert payload["verdict"] == "consistent"
    assert payload["terms"][0] == pytest.approx({"re": -1.0, "im": 0.0}, abs=1e-15)
    with pytest.raises(TypeError, match="cannot render"):
        _render_json(object())


def test_sequence_identity_all_zero(capsys):
    code, out, _ = _capture(
        capsys,
        ["sequence", "--fn", "identity", "--kind", "phi", "--z", "0.2", "--count", "5"],
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["kind"] == "phi"
    assert all(v["re"] == 0.0 and v["im"] == 0.0 for v in payload["values"])


def test_sequence_Phi_requires_lambda(capsys):
    code, _, err = _capture(
        capsys, ["sequence", "--fn", "koebe", "--kind", "Phi", "--count", "4"]
    )
    assert code == 2
    assert "--lambda" in err


def test_scan_finds_violation_for_wide_exponential(capsys):
    code, out, _ = _capture(
        capsys,
        ["scan", "--fn", "exp_scale:k=4", "--lambda", "0.5", "--grid", "default", "--N", "96"],
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "zeta_re,zeta_im,T_N,margin,verdict"
    assert any(line.endswith("violated") for line in lines[1:])


def test_scan_json_format(capsys):
    code, out, _ = _capture(
        capsys,
        ["scan", "--fn", "koebe", "--lambda", "0.5", "--grid", "0.25x4",
         "--N", "32", "--format", "json"],
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["full_mapping_consistent"] is True
    assert len(payload["rows"]) == 4


# ---------------------------------------------------------------- array rendering


def _fmt_loop(x):
    # one format call per number, negative zero canonicalized
    x = float(x)
    return format(0.0 if x == 0.0 else x, ".17g")


def _json_loop(obj, indent):
    # the per-number JSON renderer of a list of complex numbers, kept as the reference
    # for the array path
    pad = "  " * indent
    if isinstance(obj, list):
        items = [f"{pad}  {_json_loop(val, indent + 1)}" for val in obj]
        return "[\n" + ",\n".join(items) + f"\n{pad}]"
    return f'{{\n{pad}  "re": {_fmt_loop(obj.real)},\n{pad}  "im": {_fmt_loop(obj.imag)}\n{pad}}}'


def _csv_loop(values, index, start):
    # the per-number CSV rows of a list of complex numbers, kept as the reference for
    # the array path
    rows = [[(index, i), ("re", z.real), ("im", z.imag)] for i, z in enumerate(values, start)]
    lines = [",".join(name for name, _ in rows[0])]
    lines.extend(",".join(_fmt_loop(v) if isinstance(v, float) else str(v) for _, v in row)
                 for row in rows)
    return "\n".join(lines) + "\n"


def _csv_cells(item):
    # (column, value) pairs of one CSV row: one column per key and two, name_re and
    # name_im, per complex value
    cells = []
    for name, value in item.items():
        if isinstance(value, complex):
            cells += [(f"{name}_re", value.real), (f"{name}_im", value.imag)]
        else:
            cells.append((name, value))
    return cells


def _rows_loop(items):
    # the per-cell CSV table of a list of row dicts, kept as the reference for the row
    # model of the row and scalar tables
    def cell(v):
        if isinstance(v, float):
            return _fmt_loop(v)
        return str(v)

    rows = [_csv_cells(item) for item in items]
    lines = [",".join(name for name, _ in rows[0])]
    lines.extend(",".join(cell(v) for _, v in row) for row in rows)
    return "\n".join(lines) + "\n"


#: negative zero, subnormals, the ends of the double range, integer values, and
#: the points where %.17g switches between fixed and exponent notation
EDGES = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e300, -1e300, 1e-300,
         -1e-300, 1.7976931348623157e308, 1.0, -2.0, 3.0, 1e15, -4096.0, 9007199254740994.0]
EDGES += [float(y) for x in (1e-5, 1e-4, 1e16, 1e17)
          for y in (x, -x, np.nextafter(x, 0.0), np.nextafter(x, np.inf))]
doubles = st.sampled_from(EDGES) | st.floats(allow_nan=False, allow_infinity=False)
complexes = st.builds(complex, doubles, doubles)
complex_arrays = st.lists(st.tuples(doubles, doubles), min_size=1, max_size=24).map(
    lambda pairs: np.array(pairs, dtype=np.float64).view(np.complex128).ravel())


@given(arr=complex_arrays)
def test_array_json_matches_per_number_rendering(arr):
    for indent in (1, 2):
        assert _render_json(arr, indent) == _json_loop(arr.tolist(), indent)


@given(arr=complex_arrays)
def test_array_csv_matches_per_number_rendering(arr):
    for start in (0, 1):
        got = _render_csv({"values": arr}, ("values", "n", start))
        assert got == _csv_loop(arr.tolist(), "n", start)


def test_array_rendering_edges_are_reached():
    # every edge value in both parts, and negative zero printed as zero
    arr = np.array([complex(x, -x) for x in EDGES])
    assert _render_json(arr, 1) == _json_loop(arr.tolist(), 1)
    assert _render_csv({"k": arr}, ("k", "k", 1)) == _csv_loop(arr.tolist(), "k", 1)
    assert _render_csv({"k": np.array([complex(-0.0, -0.0)])}, ("k", "n", 0)) == "n,re,im\n0,0,0\n"
    for z in arr.tolist():  # a complex scalar fills the array's per-element template
        assert _render_json(z, 2) == _json_loop(z, 2)
    rows = [{"zeta": complex(x, -x), "T_N": x, "margin": -x, "verdict": "violated"} for x in EDGES]
    assert _render_csv({"rows": rows}, rows) == _rows_loop(rows)


#: rows shaped as those of scan (zeta, T_N, margin, verdict) and of bounds (n, then the
#: six sides and slacks)
scan_rows = st.lists(st.fixed_dictionaries({
    "zeta": complexes, "T_N": doubles, "margin": doubles,
    "verdict": st.sampled_from(["consistent", "violated"])}), min_size=1, max_size=12)
bounds_rows = st.lists(st.fixed_dictionaries({
    "n": st.integers(0, 200),
    **{key: doubles for key in ("phi_lhs", "phi_rhs", "phi_slack", "cap_lhs", "cap_rhs", "cap_slack")}}),
    min_size=1, max_size=12)
scalars = st.dictionaries(st.sampled_from(["value", "error_estimate", "budget", "zeta"]),
                          doubles | complexes, min_size=1)


@given(rows=scan_rows | bounds_rows)
def test_row_table_csv_matches_per_cell_rendering(rows):
    assert _render_csv({"rows": rows}, rows) == _rows_loop(rows)


@given(values=scalars)
def test_scalar_table_csv_matches_per_cell_rendering(values):
    payload = {"schema": 1, "command": "area", **values}
    assert _render_csv(payload, tuple(values)) == _rows_loop([values])


def test_series_csv(capsys):
    code, out, _ = _capture(
        capsys,
        ["series", "--fn", "koebe", "--z", "0", "--count", "3", "--format", "csv"],
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "k,re,im"
    assert lines[1] == "0,0,0"
    assert lines[2] == "1,1,0"
    assert lines[3] == "2,2,0"


def test_bounds_csv_header_frozen(capsys):
    code, out, _ = _capture(
        capsys,
        ["bounds", "--fn", "koebe", "--lambda", "0.3", "--z", "0.2", "--N", "3",
         "--format", "csv"],
    )
    assert code == 0
    header = out.splitlines()[0]
    assert header == "n,phi_lhs,phi_rhs,phi_slack,cap_lhs,cap_rhs,cap_slack"


def test_area_small_mesh(capsys):
    # the identity's area integral vanishes at z = 0; the command reads it from the
    # coefficient sum and prints no mesh (the 64x64 quadrature case is in test_quadrature)
    code, out, _ = _capture(capsys, ["area", "--fn", "identity", "--lambda", "1", "--z", "0"])
    assert code == 0
    payload = json.loads(out)
    assert abs(payload["value"]) <= 1e-8
    assert abs(payload["error_estimate"]) <= 1e-8
    assert payload["budget"] == 1.0
    assert "mesh" not in payload


def test_grunsky_estimate_reaches_koebe_norm_near_the_circle(capsys):
    # the sum to n = 4095 holds 7% of sum n|Psi_n|^2 = 1 here; the rest is tail
    code, out, _ = _capture(capsys, ["grunsky", "--fn", "koebe", "--z", "0.99i"])
    assert code == 0
    payload = json.loads(out)
    assert payload["grunsky_norm"] <= 1.0 / (1.0 - 0.99**2)
    assert payload["grunsky_norm"] + payload["error_estimate"] >= 50.25


def test_config_error_names_field(capsys):
    code, _, err = _capture(
        capsys, ["criterion", "--fn", "bogus", "--lambda", "0.5"]
    )
    assert code == 2
    assert "--fn" in err

    code, _, err = _capture(
        capsys,
        ["scan", "--fn", "koebe", "--lambda", "0.5", "--grid", "nope"],
    )
    assert code == 2
    assert "--grid" in err


def test_numeric_error_exit_code(capsys):
    code, _, err = _capture(
        capsys,
        ["criterion", "--fn", "quad_poly:a=0.6", "--lambda", "0.5",
         "--zeta=-0.8333333333333334", "--N", "8"],
    )
    assert code == 1
    assert "f'(z)=0" in err


@pytest.mark.parametrize(
    "argv,code,named",
    # pytest names these cases argv0, argv1, ... by position: a new case goes at the end,
    # so that no recorded id moves
    [
        (["criterion", "--fn", "koebe", "--lambda", "0.5", "--N", "0"], 2, "--N"),
        (["scan", "--fn", "koebe", "--lambda", "0.5", "--N", "0"], 2, "--N"),
        (["bounds", "--fn", "koebe", "--lambda", "0.3", "--N", "0"], 2, "--N"),
        # the Grunsky norm is one sum and takes no N: argparse refuses the flag
        (["grunsky", "--fn", "koebe", "--N", "32"], 2, "--N"),
        (["series", "--fn", "koebe", "--count", "0"], 2, "--count"),
        (["sequence", "--fn", "koebe", "--kind", "phi", "--count", "-1"], 2, "--count"),
        (["criterion", "--fn", "koebe", "--lambda", "-1"], 2, "--lambda"),
        (["sequence", "--fn", "koebe", "--kind", "Phi", "--lambda", "0"], 2, "--lambda"),
        (["area", "--fn", "koebe", "--lambda", "nan"], 2, "--lambda"),
        (["series", "--fn", "koebe", "--z", "2"], 2, "--z"),
        (["sequence", "--fn", "koebe", "--kind", "Psi", "--z", "1i"], 2, "--z"),
        (["criterion", "--fn", "koebe", "--lambda", "0.5", "--zeta=-1"], 2, "--zeta"),
        (["criterion", "--fn", "quad_poly:a=0.6", "--lambda", "0.5",
          "--zeta=-0.8333333333333334", "--N", "8"], 1, "f'(z)=0"),
        (["criterion", "--fn", "koebe", "--lambda", "0.5", "--N", "65537"], 2, "--N"),
        (["scan", "--fn", "koebe", "--lambda", "0.5", "--N", "4097"], 2, "--N"),
        (["sequence", "--fn", "koebe", "--kind", "Psi", "--count", "4097"], 2, "--count"),
        # a scan makes one engine call per point, so it keeps the cap of 4096
        (["scan", "--fn", "koebe", "--lambda", "0.5", "--N", "65536"], 2, "--N"),
        (["bounds", "--fn", "koebe", "--lambda", "0.3", "--N", "201"], 2, "--N"),
        (["series", "--fn", "koebe", "--z", "0.3", "--count", "4096"], 1, "about 0.3 leave"),
        # the disk quadrature left the product, and --mesh with it: argparse refuses it
        (["area", "--fn", "koebe", "--lambda", "0.5", "--mesh", "24,24,2"], 2, "--mesh"),
        (["area", "--fn", "koebe", "--lambda", "0.5", "--mesh=1025,24,2"], 2, "--mesh"),
        (["area", "--fn", "koebe", "--lambda", "0.5", "--z", "0.3", "--mesh", "64,64"], 2, "--mesh"),
        (["grunsky", "--fn", "koebe", "--mesh", "24,1025,2"], 2, "--mesh"),
        (["criterion", "--fn", "koebe", "--lambda", "800", "--zeta", "0.3", "--N", "2"], 1,
         "could not expand"),
        (["criterion", "--fn", "koebe", "--lambda", "800", "--N", "2"], 1, "could not expand"),
        (["criterion", "--fn", "koebe", "--lambda", "inf", "--zeta", "0.3", "--N", "2"], 2,
         "--lambda"),
        (["criterion", "--fn", "exp_scale:k=6", "--lambda", "0.5", "--zeta=-0.3i", "--N", "2000"],
         1, "double range"),
        (["criterion", "--fn", "koebe", "--lambda", "0.5", "--zeta", "0.3", "--N", "8",
          "--tol", "nan"], 2, "--tol"),
        (["criterion", "--fn", "koebe", "--lambda", "0.5", "--zeta", "0.3", "--N", "8",
          "--tol", "-1"], 2, "--tol"),
        (["scan", "--fn", "koebe", "--lambda", "0.5", "--tol", "inf"], 2, "--tol"),
        # Psi_0..Psi_count takes count + 1 engine coefficients
        (["sequence", "--fn", "koebe", "--kind", "Psi", "--count", "4096"], 2, "--count"),
        (["grunsky", "--fn", "koebe", "--N", "4095"], 2, "--N"),
        # the area theorem and the scan hold for lambda <= 1, the growth bounds for lambda < 1
        (["area", "--fn", "koebe", "--lambda", "1.5"], 2,
         "--lambda: must be <= 1 for area, got 1.5"),
        (["scan", "--fn", "koebe", "--lambda", "1.5"], 2,
         "--lambda: must be <= 1 for scan, got 1.5"),
        (["bounds", "--fn", "koebe", "--lambda", "1"], 2,
         "--lambda: must be < 1 for bounds, got 1.0"),
        (["criterion", "--fn", "identity", "--lambda", "800", "--zeta", "0.3", "--N", "2"], 1,
         "could not expand"),
        (["scan", "--fn", "koebe", "--lambda", "0.5", "--grid", "nanx4"], 2, "--grid"),
        # e^{0z} is constant, and no family takes a non-finite parameter
        (["criterion", "--fn", "exp_scale:k=0", "--lambda", "0.5"], 2, "--fn"),
        (["criterion", "--fn", "rotated_koebe:theta=1e999", "--lambda", "0.5", "--zeta", "0.3",
          "--N", "8"], 2, "--fn"),
        (["series", "--fn", "exp_scale:k=1e999"], 2, "--fn"),
        # the counts read from a series about z stop at 4096, as the engine's do
        (["series", "--fn", "identity", "--count", "4097"], 2, "--count"),
        (["sequence", "--fn", "koebe", "--kind", "phi", "--count", "4097"], 2, "--count"),
        # a series reciprocal or power that leaves the double range names its first bad index
        (["sequence", "--fn", "koebe", "--kind", "Phi", "--lambda", "1e300", "--z", "0.3",
          "--count", "8"], 1, "power lam=1e+300 of the series leaves the double range at index 2"),
        (["sequence", "--fn", "koebe", "--kind", "Phi", "--lambda", "1e300", "--z", "0",
          "--count", "8"], 1, "power lam=1e+300 of the series leaves the double range at index 2"),
        (["sequence", "--fn", "quad_poly:a=0.6", "--kind", "phi", "--z=-0.8333333", "--count",
          "64"], 1, "series reciprocal leaves the double range at index 43"),
        (["bounds", "--fn", "quad_poly:a=0.5", "--lambda", "0.5", "--z=-0.9999999", "--N", "64"],
         1, "series reciprocal leaves the double range at index"),
        # an entry that overflows on the sampling circle is refused by the engine's checks
        (["criterion", "--fn", "exp_scale:k=1000", "--lambda", "0.5", "--zeta", "0.3"], 1,
         "non-finite samples"),
        (["criterion", "--fn", "exp_scale:k=1e300", "--lambda", "0.5", "--zeta", "0"], 1,
         "non-finite samples"),
        (["sequence", "--fn", "exp_scale:k=1000", "--kind", "Psi", "--z", "0.3"], 1,
         "non-finite samples"),
        (["sequence", "--fn", "exp_scale:k=1e300", "--kind", "Psi", "--z", "0"], 1,
         "non-finite samples"),
        # below the area sum's least lambda, as are the table's last two rows
        (["area", "--fn", "koebe", "--lambda", "1e-300", "--z", "0"], 1, "lam=1e-300"),
        (["area", "--fn", "bounded:b=0.5", "--lambda", "1e-200"], 1, "lam=1e-200"),
        # a scan makes one engine call per point
        (["scan", "--fn", "koebe", "--lambda", "0.5", "--grid", "0.5x5000", "--N", "1"], 2,
         "--grid: must have <= 4096 points (engine cost), got 5000"),
        # a repeated radius would repeat its probe points
        (["scan", "--fn", "koebe", "--lambda", "0.5", "--grid", "0,0,0.5x4"], 2,
         "--grid: radii must be distinct"),
        (["scan", "--fn", "koebe", "--lambda", "0.5", "--grid", "0.5,0.5x4"], 2,
         "--grid: radii must be distinct"),
        # an empty path is a path that cannot be written, not stdout
        (["criterion", "--fn", "koebe", "--lambda", "0.5", "--N", "1", "--out", ""], 2,
         "--out: cannot write ''"),
        # a spec names each parameter once, rather than keeping its last value
        (["criterion", "--fn", "exp_scale:k=4,k=5", "--lambda", "0.5", "--N", "2"], 2,
         "--fn: parameter 'k' repeated"),
        # only Phi reads lambda; the payloads of phi and Psi would not echo it
        (["sequence", "--fn", "koebe", "--kind", "phi", "--lambda", "0.5", "--count", "2"], 2,
         "--lambda: not used by kind=phi"),
        (["sequence", "--fn", "koebe", "--kind", "Psi", "--lambda", "0.5", "--count", "2"], 2,
         "--lambda: not used by kind=Psi"),
        # a non-real theta, a literal only complex() refuses, and a radius that is no number
        (["criterion", "--fn", "rotated_koebe:theta=1+1i", "--lambda", "0.5"], 2, "--fn"),
        (["criterion", "--fn", "exp_scale:k=1e", "--lambda", "0.5"], 2, "--fn"),
        (["scan", "--fn", "koebe", "--lambda", "0.5", "--grid", "abcx4"], 2, "--grid"),
        # the area sum scales like lambda^2, and below about 9.1e-10 its tail is under
        # the absolute roundoff floor of its error estimate
        (["area", "--fn", "koebe", "--lambda", "1e-10"], 1, "lam=1e-10 is too small"),
        (["area", "--fn", "cayley", "--lambda", "1e-20", "--z", "0.9"], 1,
         "lam=1e-20 is too small"),
    ],
)
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_exit_code_table(capsys, argv, code, named):
    got, out, err = _capture(capsys, argv)
    assert (got, out) == (code, "")
    assert named in err
    if "800" in argv:  # the refusal names the power of q, not a check it then fails
        assert "the lam-th power of q exceeds what a double resolves" in err
    assert "RuntimeWarning" not in err


@pytest.mark.parametrize(
    "spec,zeta,verdict,T_N,margin",
    [
        # pi + 0.0034: at lambda = 1/2 the witness needs N past 4096, where 0.98i reads -0.069
        ("exp_scale:k=3.145", "0.98i", "violated", 0.5121267260, -0.0121267260),
        # just below pi, univalent: the margin stays clear at the same N
        ("exp_scale:k=3.14159", "0.995i", "consistent", 0.4297787937, 0.0702212063),
    ],
)
def test_criterion_reads_to_N_65536_at_the_exp_threshold(tmp_path, capsys, spec, zeta, verdict,
                                                          T_N, margin):
    path = tmp_path / "report.json"
    code, _, err = _capture(capsys, ["criterion", "--fn", spec, "--lambda", "0.5", "--zeta", zeta,
                                     "--N", "65536", "--out", str(path)])
    assert code == 0, err
    payload = json.loads(path.read_text())
    assert (payload["N"], len(payload["terms"]), payload["verdict"]) == (65536, 65536, verdict)
    assert payload["T_N"] == pytest.approx(T_N, abs=1e-9)
    assert payload["margin"] == pytest.approx(margin, abs=1e-9)


def test_winding_refusal_names_a_second_preimage(capsys):
    # q = F'(0) w/(F(w) - F(0)) has no zeros on the disk of the circle, only a pole
    # where f takes f(zeta) again, so a circle winds by -1 around each such point
    argv = ["criterion", "--fn", "quad_poly:a=0.51", "--lambda", "0.5", "--zeta=-0.98", "--N", "64"]
    code, out, err = _capture(capsys, argv)
    assert (code, out) == (1, "")
    assert err.endswith("winding -1.00 at rho=0.55 (f takes f(zeta) again inside the circle)\n")


def _psi_values(capsys, fn, z):
    code, out, _ = _capture(
        capsys, ["sequence", "--fn", fn, "--kind", "Psi", f"--z={z}", "--count", "64"]
    )
    assert code == 0
    return np.array([complex(v["re"], v["im"]) for v in json.loads(out)["values"]])


def test_psi_koebe_closed_form_at_long_count(capsys):
    psi = _psi_values(capsys, "koebe", "0.5")
    assert abs(psi[0] + 2.0) <= 1e-12
    assert abs(psi[1] - 1.0) <= 1e-12
    assert np.max(np.abs(psi[2:])) <= 1e-12


@pytest.mark.parametrize("fn,z", [("koebe", "0.3+0.2i"), ("rotated_koebe:theta=1.1", "0.2-0.25i")])
def test_psi_full_mapping_exterior_area_equality(capsys, fn, z):
    # a full mapping's exterior coefficients exhaust the area theorem: sum n|Psi_n|^2 = 1
    psi = _psi_values(capsys, fn, z)
    n = np.arange(psi.size)
    assert abs(1.0 - np.sum(n * np.abs(psi) ** 2)) <= 1e-9


def test_output_deterministic(capsys):
    argv = ["criterion", "--fn", "koebe", "--lambda", "0.5", "--zeta", "0.3+0.1i", "--N", "16"]
    _, out1, _ = _capture(capsys, argv)
    _, out2, _ = _capture(capsys, argv)
    assert out1 == out2


def test_out_flag_writes_file(tmp_path, capsys):
    path = tmp_path / "report.json"
    code, out, _ = _capture(
        capsys,
        ["criterion", "--fn", "koebe", "--lambda", "0.5", "--zeta", "0",
         "--N", "4", "--out", str(path)],
    )
    assert code == 0
    assert out == ""
    payload = json.loads(path.read_text())
    assert payload["T_N"] == pytest.approx(0.5, abs=1e-15)


@pytest.mark.parametrize("spec,points", [("0.5x4096", 4096), ("0,0.5x4095", 4096),
                                         ("0,0.2,0.4,0.6x1365", 4096)])
def test_grid_point_cap_boundary(spec, points):
    assert len(_parse_grid(spec)) == points


@pytest.mark.parametrize("spec", ["0.5x4097", "0,0.5x4096", "0.1,0.2x2049", "0.5x5000"])
def test_grid_point_cap_refusal(spec):
    with pytest.raises(ConfigError, match="--grid: must have <= 4096 points"):
        _parse_grid(spec)


@pytest.mark.parametrize("target", ["", "missing/x.json"], ids=["directory", "missing_parent"])
def test_out_path_that_cannot_be_written_is_a_config_error(tmp_path, target):
    proc = _run_module("criterion", "--fn", "koebe", "--lambda", "0.5", "--N", "4",
                       "--out", str(tmp_path / target))
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr.startswith("config error: --out: cannot write")
    assert "Traceback" not in proc.stderr


def test_selftest_passes(capsys, monkeypatch):
    # tests/test_acceptance.py runs each real check; here only the wiring
    from univalence import acceptance

    assert len(acceptance.CHECKS) == 12
    passing = ("0", lambda: acceptance.AcceptanceResult("always-passes", True, "forced"))
    monkeypatch.setattr(acceptance, "CHECKS", (passing,))
    code, out, _ = _capture(capsys, ["selftest"])
    assert code == 0
    assert re.fullmatch(r"PASS \[0\] always-passes: forced \(\d+\.\d\ds\)\n", out)


def test_selftest_fails_a_check_past_its_time_budget(capsys, monkeypatch):
    from univalence import acceptance

    passing = ("0", lambda: acceptance.AcceptanceResult("always-passes", True, "forced"))
    monkeypatch.setattr(acceptance, "CHECKS", (passing,))
    monkeypatch.setattr(acceptance, "BUDGETS", {"0": 0.0})
    code, out, _ = _capture(capsys, ["selftest"])
    assert code == 1
    assert re.fullmatch(r"FAIL \[0\] always-passes: forced; over its 0 s budget \(\d+\.\d\ds\)\n", out)


def test_selftest_fails_on_a_failing_check(capsys, monkeypatch):
    from univalence import acceptance

    failing = ("0", lambda: acceptance.AcceptanceResult("always-fails", False, "forced"))
    monkeypatch.setattr(acceptance, "CHECKS", (failing,))
    code, out, _ = _capture(capsys, ["selftest"])
    assert code == 1
    assert "FAIL [0] always-fails: forced" in out


def _run_module(*argv, stdout=subprocess.PIPE, **env):
    src = str(pathlib.Path(univalence.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    return subprocess.run(
        [sys.executable, "-m", "univalence.cli", *argv],
        stdout=stdout,
        stderr=subprocess.PIPE,
        text=True,
        env={**os.environ, **env, "PYTHONPATH": path},
        timeout=60,
    )


def test_module_entry_point_prints_json():
    proc = _run_module("series", "--fn", "koebe", "--count", "2")
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["coeffs"] == [
        {"re": 0, "im": 0}, {"re": 1, "im": 0}, {"re": 2, "im": 0}
    ]


@pytest.mark.parametrize("unbuffered", ["", "1"], ids=["fails_at_flush", "fails_at_write"])
def test_closed_stdout_exits_without_a_traceback(unbuffered):
    # the reader is gone before the child writes; a buffered stdout fails only when
    # it is flushed
    read, write = os.pipe()
    os.close(read)
    try:
        proc = _run_module("criterion", "--fn", "koebe", "--lambda", "0.5", "--N", "8",
                           stdout=write, PYTHONUNBUFFERED=unbuffered)
    finally:
        os.close(write)
    assert (proc.returncode, proc.stderr) == (141, "")


def test_grunsky_prints_the_norm_and_its_estimate_only(capsys):
    # both sides of the Grunsky area identity are one settled sum, so the command has
    # no N to pick a share of it and no residual to print
    code, out, err = _capture(capsys, ["grunsky", "--fn", "koebe", "--N", "32"])
    assert (code, out) == (2, "")
    assert err.endswith("error: unrecognized arguments: --N 32\n")
    code, out, _ = _capture(capsys, ["grunsky", "--fn", "koebe", "--z", "0.3"])
    assert code == 0
    payload = json.loads(out)
    assert list(payload) == ["schema", "command", "fn", "z", "grunsky_norm", "error_estimate"]
    res = grunsky_norm(get("koebe"), 0.3)
    assert (payload["grunsky_norm"], payload["error_estimate"]) == (res.value, res.error_estimate)


def test_series_overflow_refused_without_numpy_warnings():
    # the expansion overflows at index ~2000; the refusal names the center and the order
    proc = _run_module("series", "--fn", "koebe", "--z", "0.3", "--count", "4096")
    assert (proc.returncode, proc.stdout) == (1, "")
    assert "about 0.3" in proc.stderr and "order 4096" in proc.stderr
    assert "RuntimeWarning" not in proc.stderr


def test_engine_refusal_without_numpy_warnings():
    # the lambda-th power of q exceeds what a double resolves on every sampling radius
    for fn in ("koebe", "identity"):
        proc = _run_module("criterion", "--fn", fn, "--lambda", "800", "--zeta", "0.3", "--N", "2")
        assert (proc.returncode, proc.stdout) == (1, "")
        assert "could not expand" in proc.stderr
        assert "the lam-th power of q exceeds what a double resolves at rho=0.55" in proc.stderr
        assert "RuntimeWarning" not in proc.stderr


def _readme_commands():
    # every `univalence <command> ...` line of the README's sh blocks, without its comment
    readme = (pathlib.Path(__file__).parents[1] / "README.md").read_text()
    blocks = re.findall(r"^```sh\n(.*?)^```", readme, flags=re.M | re.S)
    lines = [shlex.split(line, comments=True) for block in blocks for line in block.splitlines()]
    return [argv[1:] for argv in lines if argv[:1] == ["univalence"] and argv[1:2] != ["selftest"]]


README_COMMANDS = _readme_commands()


def test_readme_lists_its_cli_examples():
    assert len(README_COMMANDS) >= 9


@pytest.mark.parametrize("argv", README_COMMANDS, ids=" ".join)
def test_readme_cli_examples_run(capsys, argv):
    code, _, err = _capture(capsys, argv)
    assert code == 0, err
