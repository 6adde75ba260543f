"""Golden CLI transcripts: exit code, stdout, stderr and the --out file, byte for byte.

Every subcommand except ``selftest`` runs in JSON and in CSV, plus one
``--out`` run and the error cases.  The files under ``tests/golden/`` are
the recorded transcripts; after a deliberate output change, re-record them
with ``PYTHONPATH=src python tests/test_golden.py [NAME ...]``, which rewrites
only the transcripts that changed and prints the diff of each.
Long outputs are pinned by the sha256 of their stdout instead (``DIGESTS``);
the same command prints the old and new value of each digest that moved.
"""

import contextlib
import difflib
import hashlib
import io
import os
import pathlib
import sys
import tempfile
import unittest.mock

import pytest

from univalence.cli import _build_parser, run

GOLDEN = pathlib.Path(__file__).parent / "golden"

#: placeholder in an argv for the path of the --out file
OUT = "@OUT@"

CASES = {
    "series_json": ["series", "--fn", "koebe", "--z", "0.3+0.1i", "--count", "8"],
    "series_csv": ["series", "--fn", "exp_scale:k=2", "--z", "-0.2", "--count", "6", "--format", "csv"],
    "sequence_phi_json": ["sequence", "--fn", "rotated_koebe:theta=1.1", "--kind", "phi",
                          "--z", "0.2-0.1i", "--count", "8"],
    "sequence_phi_csv": ["sequence", "--fn", "cayley", "--kind", "phi", "--z", "0.3",
                         "--count", "5", "--format", "csv"],
    "sequence_Phi_json": ["sequence", "--fn", "koebe", "--kind", "Phi", "--lambda", "0.5",
                          "--z", "0.3", "--count", "10"],
    "sequence_Phi_csv": ["sequence", "--fn", "quad_poly:a=0.4", "--kind", "Phi", "--lambda", "1.7",
                         "--z=-0.1+0.2i", "--count", "6", "--format", "csv"],
    "sequence_Psi_json": ["sequence", "--fn", "koebe", "--kind", "Psi", "--z", "0.5", "--count", "64"],
    "sequence_Psi_csv": ["sequence", "--fn", "cayley", "--kind", "Psi", "--z", "0.3",
                         "--count", "8", "--format", "csv"],
    "criterion_json": ["criterion", "--fn", "koebe", "--lambda", "0.5", "--zeta", "0.3+0.1i", "--N", "16"],
    "criterion_csv": ["criterion", "--fn", "bounded:b=0.5", "--lambda", "0.7", "--zeta=-0.2+0.3i",
                      "--N", "12", "--format", "csv"],
    "scan_csv": ["scan", "--fn", "koebe", "--lambda", "0.5", "--grid", "0,0.3x4", "--N", "32"],
    "scan_json": ["scan", "--fn", "exp_scale:k=4", "--lambda", "0.5", "--grid", "0,0.4x4",
                  "--N", "32", "--format", "json"],
    "bounds_json": ["bounds", "--fn", "koebe", "--lambda", "0.3", "--z", "0.2", "--N", "6"],
    "bounds_csv": ["bounds", "--fn", "cayley", "--lambda", "0.7", "--z", "0.1-0.2i", "--N", "6",
                   "--format", "csv"],
    "area_json": ["area", "--fn", "koebe", "--lambda", "0.5", "--z", "0.2"],
    "area_csv": ["area", "--fn", "bounded:b=0.5", "--lambda", "0.7", "--z", "-0.3", "--format", "csv"],
    "grunsky_json": ["grunsky", "--fn", "koebe", "--z", "0.3"],
    "grunsky_csv": ["grunsky", "--fn", "quad_poly:a=0.3", "--z", "0.1+0.2i", "--format", "csv"],
    "out_json": ["criterion", "--fn", "koebe", "--lambda", "0.5", "--zeta", "0", "--N", "4", "--out", OUT],
    "error_unknown_fn": ["criterion", "--fn", "bogus", "--lambda", "0.5"],
    "error_mesh": ["area", "--fn", "koebe", "--lambda", "0.5", "--mesh", "64,64"],
    "error_grid": ["scan", "--fn", "koebe", "--lambda", "0.5", "--grid", "nope"],
    "error_Phi_without_lambda": ["sequence", "--fn", "koebe", "--kind", "Phi", "--count", "4"],
    "error_complex_literal": ["series", "--fn", "koebe", "--z", "abc"],
    "error_critical_point": ["criterion", "--fn", "quad_poly:a=0.6", "--lambda", "0.5",
                             "--zeta=-0.8333333333333334", "--N", "8"],
    "error_not_univalent": ["bounds", "--fn", "exp_scale:k=4", "--lambda", "0.3", "--z", "0.2", "--N", "4"],
}

#: sha256 of stdout for outputs too long to keep as transcripts.  The criterion terms
#: past n = 1, and the Koebe Psi_n past n = 1, are roundoff of the engine's FFT, so
#: their last digits, and with them these four digests, may differ under another
#: numpy's pocketfft.
DIGESTS = {
    "series_json": (["series", "--fn", "koebe", "--z", "0.3+0.1i", "--count", "1000"],
                    "a3efa079661d897a1ecbb509dfa6a5ac166207660308abeb8bbc492f95b8fa22"),
    "series_csv": (["series", "--fn", "koebe", "--z", "0.3+0.1i", "--count", "1000", "--format", "csv"],
                   "a9218a7eaf3d138b859cb27c633b184635b37f60729b35d038cb06a8e0b4ea9f"),
    "criterion_json": (["criterion", "--fn", "koebe", "--lambda", "0.5", "--zeta", "0.3", "--N", "1000"],
                       "05c6f2c87e33ff2e05ea420de41e568ad6ff61942b9186de426e4080d5d7deea"),
    "criterion_csv": (["criterion", "--fn", "koebe", "--lambda", "0.5", "--zeta", "0.3", "--N", "1000",
                       "--format", "csv"],
                      "a243200675775ad50600addcce8cf17e245e8cceee55f6a2f7cf240784237d72"),
    "sequence_Psi_json": (["sequence", "--fn", "koebe", "--kind", "Psi", "--z", "0.5", "--count", "1000"],
                          "abd3faf0493e7548ce70acbe26fee142bc1f0a5925f0f32cbf9296436d8c44ba"),
    "sequence_Psi_csv": (["sequence", "--fn", "koebe", "--kind", "Psi", "--z", "0.5", "--count", "1000",
                          "--format", "csv"],
                         "1bc876624a88bb42d187858eafd6e7322a57f635a87735c4781c0ce22ccb4dcd"),
    "scan_json": (["scan", "--fn", "koebe", "--lambda", "0.5", "--grid", "0,0.3,0.6x8", "--N", "96",
                   "--format", "json"],
                  "e89131e49f86cb967ca5eacc13fdaa942320cd6f54b21ceec2299d761038b0fc"),
    "bounds_json": (["bounds", "--fn", "koebe", "--lambda", "0.3", "--z", "0.2", "--N", "200"],
                    "cac97c3c17813c49ad0f5258eef64afbbd213937e8c5576cae04e158a5120603"),
    "bounds_csv": (["bounds", "--fn", "koebe", "--lambda", "0.3", "--z", "0.2", "--N", "200",
                    "--format", "csv"],
                   "f46074e473ed36378c721441689276769f4f2725935d78aecf94870768340850"),
}


def transcript(argv: list[str]) -> str:
    """Exit code, stdout, stderr and (with --out) the written file of one run."""
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "out")
        argv = [path if a == OUT else a for a in argv]
        # argparse wraps its usage line to the terminal width, which it reads from COLUMNS
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
                unittest.mock.patch.dict(os.environ, {"COLUMNS": "80"}):
            try:
                code = run(argv)
            except SystemExit as exc:  # argparse refuses an unknown flag
                code = exc.code
        text = f"exit {code}\n--- stdout\n{out.getvalue()}--- stderr\n{err.getvalue()}"
        if os.path.exists(path):
            with open(path) as fh:
                text += f"--- file\n{fh.read()}"
    return text


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_transcript(name):
    want = (GOLDEN / f"{name}.txt").read_text()
    assert transcript(CASES[name]) == want


@pytest.mark.parametrize("name", sorted(DIGESTS))
def test_long_output_digest(name):
    argv, want = DIGESTS[name]
    assert digest(argv) == want


def digest(argv: list[str]) -> str:
    """sha256 of the stdout of one successful run."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert run(argv) == 0
    return hashlib.sha256(out.getvalue().encode()).hexdigest()


# The parser is built once per process; these runs share it.


def test_cached_parser_keeps_each_subcommand_default_format():
    # scan defaults to CSV on its own subparser, criterion to JSON
    for name in ("scan_csv", "criterion_json", "scan_csv"):
        assert transcript(CASES[name]) == (GOLDEN / f"{name}.txt").read_text()


def test_cached_parser_survives_an_argparse_refusal():
    for name in ("error_mesh", "criterion_json"):
        assert transcript(CASES[name]) == (GOLDEN / f"{name}.txt").read_text()


def test_cached_parser_wraps_usage_at_the_width_of_each_run(monkeypatch):
    _build_parser.cache_clear()
    monkeypatch.setenv("COLUMNS", "200")
    _build_parser()
    assert transcript(CASES["error_mesh"]) == (GOLDEN / "error_mesh.txt").read_text()
    # a subcommand's usage line is longer than 80 columns: it wraps under COLUMNS=80 only
    missing_kind = ["sequence", "--fn", "koebe"]
    assert max(len(line) for line in transcript(missing_kind).splitlines()) <= 80
    with contextlib.redirect_stderr(err := io.StringIO()), pytest.raises(SystemExit):
        run(missing_kind)
    assert len(err.getvalue().splitlines()[0]) > 80


if __name__ == "__main__":
    # rewrite only the transcripts whose text changed, and print each one's diff
    GOLDEN.mkdir(exist_ok=True)
    only = set(sys.argv[1:])
    for name, argv in CASES.items():
        if only and name not in only:
            continue
        path = GOLDEN / f"{name}.txt"
        old = path.read_text() if path.exists() else ""
        new = transcript(argv)
        if new != old:
            path.write_text(new)
            print(f"re-recorded {name}")
            sys.stdout.writelines(difflib.unified_diff(
                old.splitlines(keepends=True), new.splitlines(keepends=True),
                f"a/{path.name}", f"b/{path.name}"))
    # the digests are pinned in this file: print each one that moved, to re-pin by hand
    for name, (argv, want) in DIGESTS.items():
        if not only or name in only:
            got = digest(argv)
            if got != want:
                print(f"moved digest {name}: {want} -> {got}")
