"""Golden CLI transcripts: exit code, stdout, stderr and the --out file, byte for byte.

Every subcommand except ``selftest`` runs in JSON and in CSV, plus one
``--out`` run and the error cases.  The files under ``tests/golden/`` are
the recorded transcripts; after a deliberate output change, re-record them
with ``PYTHONPATH=src python tests/test_golden.py`` and review the diff.
"""

import contextlib
import io
import os
import pathlib
import sys
import tempfile

import pytest

from univalence.cli import run

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
    "area_json": ["area", "--fn", "koebe", "--lambda", "0.5", "--z", "0.2", "--mesh", "24,24,2"],
    "area_csv": ["area", "--fn", "bounded:b=0.5", "--lambda", "0.7", "--z", "-0.3", "--mesh", "24,24,2",
                 "--format", "csv"],
    "grunsky_json": ["grunsky", "--fn", "koebe", "--z", "0.3", "--N", "32", "--mesh", "24,24,2"],
    "grunsky_csv": ["grunsky", "--fn", "quad_poly:a=0.3", "--z", "0.1+0.2i", "--N", "32",
                    "--mesh", "24,24,2", "--format", "csv"],
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


def transcript(argv: list[str]) -> str:
    """Exit code, stdout, stderr and (with --out) the written file of one run."""
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "out")
        argv = [path if a == OUT else a for a in argv]
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = run(argv)
        text = f"exit {code}\n--- stdout\n{out.getvalue()}--- stderr\n{err.getvalue()}"
        if os.path.exists(path):
            with open(path) as fh:
                text += f"--- file\n{fh.read()}"
    return text


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_transcript(name):
    want = (GOLDEN / f"{name}.txt").read_text()
    assert transcript(CASES[name]) == want


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    only = set(sys.argv[1:])
    for name, argv in CASES.items():
        if not only or name in only:
            (GOLDEN / f"{name}.txt").write_text(transcript(argv))
