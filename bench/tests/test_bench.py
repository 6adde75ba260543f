"""Tests of the benchmark itself (not part of the package's test suite).

Run from the repository root with ``python3 -m pytest bench/tests``.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import tracer  # noqa: E402
import workloads  # noqa: E402

END_TO_END = {"setup_s", "tasks_per_s", "latency_p50_ms", "latency_tail_ms", "peak_rss_mb"}


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_seed_fixes_the_inputs(workload):
    assert workloads.build_tasks(workload, 7) == workloads.build_tasks(workload, 7)
    assert workloads.build_tasks(workload, 7) != workloads.build_tasks(workload, 8)


def test_inputs_do_not_depend_on_the_hash_seed():
    code = "import workloads; print(repr([workloads.build_tasks(w, 3) for w in workloads.WORKLOADS]))"
    outs = {
        subprocess.run(
            [sys.executable, "-c", code], cwd=BENCH, capture_output=True, text=True, check=True,
            env={**os.environ, "PYTHONHASHSEED": h},
        ).stdout
        for h in ("1", "2")
    }
    assert len(outs) == 1


def _bindings(uv):
    import importlib

    owners = [m for k, m in sys.modules.items() if k == "univalence" or k.startswith("univalence.")]
    owners += [uv.catalog.CatalogFunction, importlib.import_module("numpy.polynomial.legendre")]
    return {(id(o), attr): id(val) for o in owners for attr, val in list(vars(o).items())}


def test_tracer_wraps_every_binding_and_removes_the_wrappers():
    import univalence
    import univalence.cli  # noqa: F401

    koebe = univalence.catalog.get("koebe")
    before = _bindings(univalence)
    t = tracer.Tracer(univalence)
    t.install()
    try:
        wrapped = set(t.leftover_wrappers())
        for name in (
            "univalence.series_at",  # package re-export
            "univalence.criteria.phi_capital_recentered",  # from .transforms import ...
            "univalence.quadrature.aharonov_phi",
            "univalence.sequences.ps_recip",
            "univalence.transforms.phi_capital_recentered",
            "CatalogFunction.f",
            "numpy.polynomial.legendre.leggauss",
        ):
            assert name in wrapped
        t.task = 0
        univalence.criteria.univalence_criterion(koebe, 0.5, 0.3, 8)
    finally:
        assert t.uninstall()
    assert _bindings(univalence) == before
    names = [t.names[s[0]] for s in t.spans]
    parent = {t.names[s[0]]: s[3] for s in t.spans}
    assert names[0] == "criteria.univalence_criterion"
    assert "transforms.phi_capital_recentered" in names and "catalog.f" in names
    assert parent["transforms.phi_capital_recentered"] == 0
    m = tracer.layer_metrics(t.names, t.spans, tasks=1)
    assert m["transforms.recentered.calls"] == 1
    assert m["transforms.recentered.eval_points_per_call"] > 4096


def test_self_time_excludes_children():
    names = ["criteria.univalence_criterion", "transforms.phi_capital_recentered", "catalog.f"]
    spans = [(0, 0.0, 10.0, -1, 0, 0), (1, 2.0, 8.0, 0, 0, 9), (2, 3.0, 4.0, 1, 0, 100)]
    m = tracer.layer_metrics(names, spans, tasks=2)
    assert m["criteria.self_s"] == pytest.approx(2.0)
    assert m["transforms.recentered.self_s"] == pytest.approx(2.5)
    assert m["catalog.eval.self_s"] == pytest.approx(0.5)
    assert m["transforms.recentered.eval_points_per_call"] == 100


def _run(args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, os.path.join("bench", "run.py"), *args], cwd=cwd, capture_output=True, text=True, timeout=170
    )


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_smoke_run(workload):
    proc = _run(["--workload", workload, "--seed", "1", "--seconds", "1", "--trace", "0"])
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["attempted"] >= 1
    assert set(result["metrics"]) == END_TO_END
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_smoke_traced_run():
    proc = _run(["--workload", "cli_session", "--seed", "1", "--seconds", "1", "--trace", "1"])
    assert proc.returncode == 0, proc.stderr
    info, result = (json.loads(line) for line in proc.stdout.strip().splitlines()[-2:])
    assert result["correct"] and info["traced_outputs_identical"] and info["wrappers_removed"]
    assert result["metrics"]["cli.runs"]["value"] == 1.0
    assert result["metrics"]["trace.overhead_ratio"]["value"] > 0


def test_refuses_a_tree_without_the_package(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = _run(["--workload", "area_sums", "--seed", "1", "--seconds", "1", "--trace", "0"], cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
