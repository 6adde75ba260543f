"""Benchmark of the univalence package: four workloads, end to end and per layer.

Run from the root of a checkout:

    python3 bench/run.py                       # every workload, untraced then traced
    python3 bench/run.py --workload area_sums --seed 3 --seconds 15 --trace 0

Each workload runs in fresh single-threaded child processes (``worker.py``)
as a closed loop with one client: a task starts when the previous one ends.
With ``--trace 0`` the result holds the end-to-end metrics; with
``--trace 1`` an untraced and a traced child run the same whole cycles and
the result holds the per-layer metrics and the tracing overhead.  The last
line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the line before it records the environment,
the failures by known defect and the tail percentile.  Outputs, the full
report and the spans go to ``.bench_out/`` in the checkout.

``attempted`` is the number of distinct tasks in the workload's seeded
cycle and ``failed`` the number of them that failed a check; each child
checks every task of the cycle once before its timed loop, so both depend
on the seed only.  A run is correct when every output was checked, every
repeated task gave the same outcome as its first run, and each failed check
is one of the library's known defects (``workloads.KNOWN_DEFECTS``); those
failures still count in ``failed``.  A traced run is correct only if its outputs and
failures equal the untraced run's and every wrapper was removed.
"""

from __future__ import annotations

import argparse
import collections
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, BENCH_DIR)

from workloads import WORKLOADS  # noqa: E402

#: fresh interpreters timed per run for setup_s, on top of the measuring child
SETUP_REPEATS = 6
#: tasks per window of the latency estimates
TAIL_WINDOW = 250
#: a run must end within this many seconds
RUN_LIMIT_S = 170.0

THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)

END_TO_END_UNITS = {
    "setup_s": "s",
    "tasks_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "peak_rss_mb": "MB",
}


class BenchError(Exception):
    pass


def _child_env(root: str) -> dict:
    env = dict(os.environ)
    env.update({k: "1" for k in THREAD_VARS})
    env["PYTHONPATH"] = os.path.join(root, "src")
    env["PYTHONHASHSEED"] = "0"
    return env


class _Child:
    """A worker process; ``setup_s`` is the time from spawn to its ready line."""

    def __init__(self, root, workload, seed, mode, deadline, seconds=0.0, cycles=0):
        self.deadline = deadline
        cmd = [
            sys.executable, os.path.join(BENCH_DIR, "worker.py"),
            "--workload", workload, "--seed", str(seed), "--mode", mode,
            "--seconds", repr(seconds), "--cycles", str(cycles), "--root", root,
        ]
        t0 = time.perf_counter()
        self.proc = subprocess.Popen(
            cmd, cwd=root, env=_child_env(root), stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True
        )
        first = self.proc.stdout.readline()
        self.setup_s = time.perf_counter() - t0
        if first.strip() != "ready":
            self._fail("did not become ready")

    def result(self) -> dict:
        try:
            out, err = self.proc.communicate(timeout=max(1.0, self.deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.communicate()
            raise BenchError("worker timed out")
        if self.proc.returncode != 0:
            raise BenchError(f"worker exited {self.proc.returncode}:\n{err[-2000:]}")
        return json.loads(out.strip().splitlines()[-1]) if out.strip() else {}

    def _fail(self, why):
        self.proc.kill()
        _, err = self.proc.communicate()
        raise BenchError(f"worker {why}:\n{err[-2000:]}")


def _windowed(latencies: list[float], stat) -> float:
    """Mean over consecutive windows of ``TAIL_WINDOW`` tasks of ``stat(window)``.

    On a shared host the processor can switch between a fast and a slow
    state every few tens of seconds.  A median over a whole run then jumps
    to whichever state held longer; the mean over windows weighs both by
    the time spent in them.  A run shorter than one window is one window; a remainder shorter
    than a window is left out.
    """
    size = min(len(latencies), TAIL_WINDOW)
    return statistics.fmean(
        stat(sorted(latencies[i:i + size])) for i in range(0, len(latencies) - size + 1, size)
    )


def _failure_summary(failures: list[dict]) -> tuple[dict, list[dict]]:
    by_defect = collections.Counter(f["defect"] or "unexpected" for f in failures)
    unexpected = [f for f in failures if f["defect"] is None]
    return dict(by_defect), unexpected[:5]


def _source_id(root: str) -> dict:
    info = {}
    if os.path.isdir(os.path.join(root, ".git")):
        try:
            info["git_commit"] = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, timeout=10
            ).stdout.strip()
        except (OSError, subprocess.TimeoutExpired):
            pass
    h = hashlib.sha256()
    pkg = os.path.join(root, "src", "univalence")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(name.encode() + fh.read())
    info.setdefault("git_commit", "unknown (not a git checkout)")
    info["src_sha256"] = h.hexdigest()[:16]
    return info


def run_untraced(root: str, workload: str, seed: int, seconds: float, deadline: float) -> tuple[dict, dict]:
    def setup_only():
        child = _Child(root, workload, seed, "setup", deadline)
        child.result()
        return child.setup_s

    # set-up is timed before and after the measured run, so a change of
    # machine load during the run does not shift every sample at once
    setups = [setup_only() for _ in range(SETUP_REPEATS // 2)]
    child = _Child(root, workload, seed, "run", deadline, seconds=seconds)
    setups.append(child.setup_s)
    rep = child.result()
    setups += [setup_only() for _ in range(SETUP_REPEATS - SETUP_REPEATS // 2)]

    lat = rep["latencies_s"]
    window = min(len(lat), TAIL_WINDOW)
    beyond = min(10, window - 1)
    failures, unexpected = _failure_summary(rep["failures"])
    metrics = {
        "setup_s": statistics.median(setups),
        "tasks_per_s": rep["loop_tasks"] / rep["wall_s"],
        "latency_p50_ms": _windowed(lat, statistics.median) * 1e3,
        "latency_tail_ms": _windowed(lat, lambda w: w[len(w) - 1 - beyond]) * 1e3,
        "peak_rss_mb": rep["peak_rss_kb"] / 1024.0,
    }
    result = {
        "correct": not unexpected and not rep["mismatches"],
        "attempted": rep["attempted"],
        "failed": len(rep["failures"]),
        "metrics": {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in metrics.items()},
    }
    info = {
        "workload": workload,
        "seed": seed,
        "trace": 0,
        "fail_ratio": len(rep["failures"]) / rep["attempted"],
        "failures_by_defect": failures,
        "unexpected_failures": unexpected,
        "mismatched_repeats": rep["mismatches"],
        "loop_tasks": rep["loop_tasks"],
        "latency_tail": {
            "percentile": 100.0 * (window - beyond) / window,
            "samples_beyond": beyond,
            "window": window,
            "samples": len(lat),
        },
        "setup_samples_s": setups,
        "cycle_tasks": rep["cycle"],
        "env": rep["env"],
    }
    return result, info


def run_traced(root: str, workload: str, seed: int, seconds: float, deadline: float) -> tuple[dict, dict]:
    base = _Child(root, workload, seed, "base", deadline, seconds=seconds / 2.0).result()
    cycles = base["loop_tasks"] // base["cycle"]
    traced = _Child(root, workload, seed, "trace", deadline, cycles=cycles).result()

    same_outputs = base["digests"] == traced["digests"]
    same_failures = base["failures"] == traced["failures"]
    failures, unexpected = _failure_summary(traced["failures"])
    layers = dict(traced["layers"])
    layers["trace.overhead_ratio"] = traced["wall_s"] / base["wall_s"]
    result = {
        "correct": (
            same_outputs and same_failures and traced["restored"] and not unexpected
            and not base["mismatches"] and not traced["mismatches"]
        ),
        "attempted": traced["attempted"],
        "failed": len(traced["failures"]),
        "metrics": {k: {"value": v, "unit": layer_unit(k)} for k, v in layers.items()},
    }
    info = {
        "workload": workload,
        "seed": seed,
        "trace": 1,
        "cycles": cycles,
        "spans": traced["spans"],
        "fail_ratio": len(traced["failures"]) / traced["attempted"],
        "failures_by_defect": failures,
        "unexpected_failures": unexpected,
        "traced_outputs_identical": same_outputs,
        "traced_failures_identical": same_failures,
        "mismatched_repeats": sorted(set(base["mismatches"]) | set(traced["mismatches"])),
        "wrappers_removed": traced["restored"],
        "leftover_wrappers": traced["leftover"],
    }
    return result, info


def layer_unit(name: str) -> str:
    if name == "trace.overhead_ratio":
        return "ratio"
    if name.endswith(("_per_call", "_per_integral")):
        return "count"
    if name.endswith("_s"):
        return "s/task"
    return "B/task" if name.endswith("bytes_out") else "count/task"


def run_one(root, workload, seed, seconds, trace) -> tuple[dict, dict]:
    deadline = time.monotonic() + RUN_LIMIT_S
    runner = run_traced if trace else run_untraced
    result, info = runner(root, workload, seed, seconds, deadline)
    info["source"] = _source_id(root)
    info["nproc"] = {"cpu_count": os.cpu_count(), "affinity": len(os.sched_getaffinity(0))}
    info["seconds"] = seconds
    os.makedirs(os.path.join(root, ".bench_out"), exist_ok=True)
    with open(os.path.join(root, ".bench_out", f"result-{workload}-{seed}-trace{int(trace)}.json"), "w") as fh:
        json.dump({"result": result, "info": info}, fh, indent=1)
    return result, info


def _print_table(workload: str, result: dict, info: dict) -> None:
    print(f"== {workload} (seed {info['seed']}, trace {info['trace']}): correct={result['correct']} "
          f"attempted={result['attempted']} failed={result['failed']} fail_ratio={info['fail_ratio']:.4f}")
    for name, m in result["metrics"].items():
        print(f"   {name:46s} {m['value']:14.6g} {m['unit']}")
    if "latency_tail" in info:
        t = info["latency_tail"]
        print(f"   latency_tail_ms is p{t['percentile']:.2f}: {t['samples_beyond']} of {t['window']} samples beyond "
              f"per window, mean over the windows of {t['samples']} samples")
    print(f"   failures by defect: {info['failures_by_defect']}")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=WORKLOADS, help="one workload (default: all, untraced then traced)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "univalence", "__init__.py")):
        print("error: run from the root of a checkout holding src/univalence", file=sys.stderr)
        return 2
    try:
        if args.workload:
            result, info = run_one(root, args.workload, args.seed, args.seconds, args.trace)
            print(json.dumps(info))
            print(json.dumps(result))
            return 0
        summary = {}
        for workload in WORKLOADS:
            for trace in (0, 1):
                result, info = run_one(root, workload, args.seed, args.seconds, trace)
                _print_table(workload, result, info)
                summary[f"{workload}.trace{trace}"] = result
        print(json.dumps(summary))
        return 0
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
