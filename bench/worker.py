"""One workload in one fresh, single-threaded process.

Spawned by ``run.py`` with ``PYTHONPATH`` pointing at the checkout's ``src``
and BLAS/OpenMP pinned to one thread.  It imports the package, builds the
seeded task list, prints ``ready`` on its protocol stream (the parent times
set-up up to that line) and then, depending on ``--mode``:

* ``setup``: exits at once;
* ``run``: runs the task cycle in a closed loop (one task after the other)
  for ``--seconds`` and reports every task latency;
* ``base``: runs whole cycles until ``--seconds`` have passed and reports a
  digest of every output;
* ``trace``: runs ``--cycles`` whole cycles under :class:`tracer.Tracer` and
  reports the same digests plus the per-layer metrics.

The report is one JSON line on the protocol stream, a duplicate of the
original stdout; the package's own prints go to stderr.

Every mode but ``setup`` first runs one untimed pass over the whole cycle.
It checks each task once and warms up first-call costs.  ``attempted`` is
the number of tasks in the cycle and ``failed`` the number of them that
failed a check in that pass or in any later run, so both depend on the
seed only, not on where the time-bounded loop stops.  A repeated task whose
outcome differs from its first one is reported as a mismatch.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time

def _environment(np) -> dict:
    info = {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "threads": {k: v for k, v in os.environ.items() if k.endswith("_NUM_THREADS")},
    }
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]
        info["blas"] = {k: deps[k].get("name", "") + " " + deps[k].get("version", "") for k in ("blas", "lapack") if k in deps}
    except (TypeError, KeyError):  # older numpy without mode="dicts"
        info["blas"] = "unknown"
    return info


def _import_package(root: str):
    import univalence

    src = os.path.join(root, "src")
    if os.path.commonpath([os.path.abspath(univalence.__file__), src]) != src:
        raise ImportError(f"univalence imported from {univalence.__file__}, not from {src}")
    import univalence.cli  # noqa: F401  (not imported by the package itself)

    return univalence


def main(argv=None) -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--mode", choices=("setup", "run", "base", "trace"), required=True)
    p.add_argument("--seconds", type=float, default=0.0)
    p.add_argument("--cycles", type=int, default=0)
    p.add_argument("--root", required=True)
    args = p.parse_args(argv)

    proto = os.fdopen(os.dup(sys.stdout.fileno()), "w")
    sys.stdout = sys.stderr

    import numpy as np

    import workloads

    uv = _import_package(args.root)
    tasks = workloads.build_tasks(args.workload, args.seed)
    out_dir = os.path.join(args.root, ".bench_out", args.workload)
    runner = workloads.Runner(uv, tasks, out_dir)
    proto.write("ready\n")
    proto.flush()
    if args.mode == "setup":
        return 0

    first = [runner.run(task) for task in tasks]
    failures = {
        i: {"task": i, "defect": workloads.known_defect(tasks[i]), "detail": out.failure[:300]}
        for i, out in enumerate(first)
        if out.failure is not None
    }

    tracer = None
    if args.mode == "trace":
        import tracer as tracing

        tracer = tracing.Tracer(uv)
        tracer.install()

    latencies, digests, mismatches = [], [], []
    t0 = time.perf_counter()
    deadline = t0 + args.seconds
    n = 0
    while True:
        now = time.perf_counter()
        if args.mode == "run" and now >= deadline:
            break
        if n % len(tasks) == 0 and n and (
            (args.mode == "base" and now >= deadline) or (args.mode == "trace" and n // len(tasks) >= args.cycles)
        ):
            break
        i = n % len(tasks)
        if tracer is not None:
            tracer.task = n
        out = runner.run(tasks[i])
        latencies.append(out.latency)
        digests.append(out.digest)
        if out.failure is not None and i not in failures:
            failures[i] = {"task": i, "defect": workloads.known_defect(tasks[i]), "detail": out.failure[:300]}
        if out.digest != first[i].digest or (out.failure is None) != (first[i].failure is None):
            mismatches.append(i)
        n += 1
    wall = time.perf_counter() - t0

    report = {
        "attempted": len(tasks),
        "loop_tasks": n,
        "wall_s": wall,
        "cycle": len(tasks),
        "failures": [failures[i] for i in sorted(failures)],
        "mismatches": sorted(set(mismatches)),
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if args.mode == "run":
        report["latencies_s"] = latencies
        report["env"] = _environment(np)
    else:
        report["digests"] = digests
    if tracer is not None:
        report["restored"] = tracer.uninstall()
        report["leftover"] = tracer.leftover_wrappers()
        report["layers"] = tracing.layer_metrics(tracer.names, tracer.spans, n)
        report["spans"] = len(tracer.spans)
        tracer.write_spans(os.path.join(args.root, ".bench_out", f"spans-{args.workload}-{args.seed}.tsv.gz"))
    proto.write(json.dumps(report) + "\n")
    proto.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
