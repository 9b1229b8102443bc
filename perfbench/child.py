"""One measured process of the benchmark; run.py starts it fresh each time.

    python3 perfbench/child.py setup WORKLOAD CONFIG
    python3 perfbench/child.py call  WORKLOAD CONFIG
    python3 perfbench/child.py trace WORKLOAD CONFIG TRACE_OUT RUN_S CPU_S

``setup`` times importing ``homstab.cli`` and building the config's
instance, bracket category and (for stability) coefficient system.
``call`` times one ``homstab.cli.main`` call; the report is captured,
reduced to its checked fields and otherwise discarded.  Both also time
the speed probe next to the timed work (``probe_s``: the mean of a probe
before and after a call, the probe after a setup), so that run.py can
tell the program's cost from the machine's speed at that moment.
``trace`` makes the same call with the per-layer wrappers installed and
writes the spans to TRACE_OUT; RUN_S and CPU_S are the untraced medians
it is compared against.  Each mode prints one JSON line.
"""

from __future__ import annotations

import contextlib
import gc
import io
import json
import resource
import statistics
import sys
import time
from pathlib import Path

import workloads

ROOT = Path(__file__).resolve().parent.parent
PACKAGE_DIR = ROOT / "src" / "homstab"


def _check_source(module) -> None:
    """Refuse to measure any homstab but the one in this checkout."""
    if Path(module.__file__).resolve().parent != PACKAGE_DIR:
        raise SystemExit(f"homstab imported from {module.__file__}, "
                         f"not from {PACKAGE_DIR}")


PROBE_REPEATS = 5


def _probe_once() -> None:
    # dict/tuple work, as in the category layers, and int64 numpy
    # scalars indexed from Python, as in the numpy span kernel
    import numpy
    table: dict = {}
    for i in range(20_000):
        key = (i % 31, i % 29)
        table[key] = table.get(key, 0) + key[0] * key[1]
    rows = numpy.arange(8_000, dtype=numpy.int64) % 97
    vals = numpy.arange(8_000, dtype=numpy.int64)
    v = numpy.zeros(97, dtype=numpy.int64)
    for t in range(8_000):
        v[rows[t]] += vals[t]


def probe_s() -> float:
    """Median time of a fixed piece of work that runs none of the
    program's code: the machine's speed right now.  Garbage collection is off
    so that the heap a call leaves behind does not change the probe."""
    gc.disable()
    try:
        times = []
        for _ in range(PROBE_REPEATS):
            t0 = time.perf_counter()
            _probe_once()
            times.append(time.perf_counter() - t0)
    finally:
        gc.enable()
    return statistics.median(times)


def setup(workload: str, config_path: str) -> dict:
    start = time.perf_counter()
    from homstab import verifier
    from homstab.bracket import BracketCategory
    cfg = verifier.load_config(config_path)
    cat = BracketCategory(verifier.build_instance(cfg))
    if workloads.WORKLOADS[workload]["command"] == "stability":
        verifier.build_system(cfg, cat)
    setup_s = time.perf_counter() - start
    _check_source(verifier)
    # only after: a probe before would import numpy outside the timer
    return {"setup_s": setup_s, "probe_s": probe_s()}


def call(workload: str, config_path: str, tracer=None) -> dict:
    from homstab import cli, kernels
    import numpy
    _check_source(cli)
    argv = workloads.cli_argv(workload, config_path)
    sink = io.StringIO()
    probe0 = probe_s()
    cpu0 = time.process_time()
    start = time.perf_counter()
    with contextlib.redirect_stdout(sink):
        if tracer is None:
            exit_code = cli.main(argv)
        else:
            exit_code = tracer.span("cli.main", cli.main, (argv,), {})
    run_s = time.perf_counter() - start
    cpu_s = time.process_time() - cpu0
    probe = (probe0 + probe_s()) / 2
    report = json.loads(sink.getvalue())
    return {
        "run_s": run_s,
        "cpu_s": cpu_s,
        "probe_s": probe,
        "exit_code": exit_code,
        "cells": workloads.cells_of(report),
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "backend": kernels.backend_name(),
        "numpy": numpy.__version__,
    }


def trace(workload: str, config_path: str, out_path: str,
          untraced_run_s: float, untraced_cpu_s: float) -> dict:
    import probes
    from tracer import Tracer, self_times
    tracer = Tracer()
    import homstab.cli  # noqa: F401  (load every layer before patching)
    probes.install(tracer)
    try:
        out = call(workload, config_path, tracer)
    finally:
        tracer.restore()
    out["layers"] = probes.layer_metrics(tracer, untraced_run_s,
                                         out["run_s"], untraced_cpu_s)
    spans = tracer.spans()
    selfs = self_times(spans)
    dump = {
        "workload": workload,
        "spans": [{"id": s.id, "name": s.name, "start": s.start,
                   "end": s.end, "self": selfs[s.id], "parent": s.parent,
                   "cell": s.cell, "thread": s.thread} for s in spans],
        "folded": [{"name": name, "cell": cell, "calls": calls,
                    "self": self_s}
                   for (name, cell), (calls, self_s)
                   in sorted(tracer.folds().items(), key=repr)],
        "counted": [{"name": name, "cell": cell, "calls": n}
                    for (name, cell), n
                    in sorted(tracer.counts().items(), key=repr)],
        "layers": out["layers"],
    }
    with open(out_path, "w") as fh:
        json.dump(dump, fh, default=str)
    return out


def main(argv: list[str]) -> None:
    sys.path.insert(0, str(ROOT / "src"))
    mode, workload, config_path, *rest = argv
    if mode == "setup":
        out = setup(workload, config_path)
    elif mode == "call":
        out = call(workload, config_path)
    elif mode == "trace":
        out_path, run_s, cpu_s = rest
        out = trace(workload, config_path, out_path, float(run_s),
                    float(cpu_s))
    else:
        raise SystemExit(f"unknown mode {mode!r}")
    print(json.dumps(out))


if __name__ == "__main__":
    main(sys.argv[1:])
