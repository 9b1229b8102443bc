"""homstab benchmark: end-to-end metrics of one CLI workload, or the
per-layer metrics of a traced call.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from a source checkout; nothing needs installing.  Every measured
call is a fresh process (child.py), and only one runs at a time.

--trace 0  runs timed ``homstab.cli.main`` calls for about S seconds
           (at least two) with ``setup`` children between them, checks
           every report against expected.json and prints run_s, setup_s
           and peak_rss_mb: medians over the run, the two times scaled
           to the reference machine speed (see ``at_reference_speed``).
--trace 1  runs untraced calls for about S/2 seconds, then one call with
           the per-layer wrappers of probes.py installed, and prints the
           per-layer metrics; the spans are written to .perfbench_out/.

The last line of output is one JSON object: correct, attempted, failed
(cells) and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads
from probes import PER_LAYER

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench_out"
SETUP_RUNS = 7
TIME_LIMIT_S = 170.0
# child.probe_s() at the fastest tenth of a minute's timings on the
# baseline machine (2 CPUs, Python 3.11.7, numpy 2.4.6).  It fixes the
# speed the scaled times refer to; both sides of a comparison use it.
REFERENCE_PROBE_S = 0.0065


class ChildFailed(RuntimeError):
    pass


def run_child(mode: str, *args: str, deadline: float) -> dict:
    """Run child.py to completion and return its JSON line."""
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise ChildFailed("time limit reached")
    cmd = [sys.executable, str(HERE / "child.py"), mode, *args]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=remaining)
    except subprocess.TimeoutExpired as exc:
        raise ChildFailed(f"{mode} child exceeded the time limit") from exc
    if proc.returncode != 0:
        raise ChildFailed(f"{mode} child exited {proc.returncode}:\n"
                          f"{proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def environment() -> dict:
    """Machine and software stamp (the child reports numpy and backend)."""
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": len(os.sched_getaffinity(0)), "cpu": cpu,
            "python": platform.python_version(), "commit": git_commit()}


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        ref_file = ROOT / ".git" / name
        if ref_file.is_file():
            return ref_file.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def at_reference_speed(measurement: dict, key: str) -> float:
    """The time ``measurement[key]`` scaled by the speed probe timed
    around it: the time it would have taken while the probe took
    REFERENCE_PROBE_S.

    The baseline machine shares its cores.  For seconds to minutes at a
    time it runs the same code up to 1.5 times slower, even at its
    fastest moments, so the raw times of ten runs of the same code spread
    by 0.2 to 0.3.  The probe slows down with it, and the medians of the
    scaled times of ten runs spread by 0.035 to 0.075.  A change to the
    program still moves the scaled time by the same share as the raw one,
    because the probe does not run any of the program's code."""
    return measurement[key] * REFERENCE_PROBE_S / measurement["probe_s"]


def timed_calls(workload, config_path, seconds, deadline, min_calls,
                setups=None) -> list[dict]:
    """Fresh-process calls, one at a time, while the next one is expected
    to end within ``seconds`` (and at least ``min_calls`` of them).

    With a ``setups`` list, a ``setup`` child runs before each call and
    the rest of the SETUP_RUNS after the last, so that setup is measured
    over the whole run rather than only at its start."""
    calls, walls = [], []
    start = time.monotonic()
    while True:
        if setups is not None and len(setups) < SETUP_RUNS:
            setups.append(run_child("setup", workload, config_path,
                                    deadline=deadline))
        t0 = time.monotonic()
        calls.append(run_child("call", workload, config_path,
                               deadline=deadline))
        walls.append(time.monotonic() - t0)
        expected_end = time.monotonic() - start + statistics.median(walls)
        if len(calls) >= min_calls and expected_end > seconds:
            while setups is not None and len(setups) < SETUP_RUNS:
                setups.append(run_child("setup", workload, config_path,
                                        deadline=deadline))
            return calls


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + TIME_LIMIT_S

    if not (ROOT / "src" / "homstab" / "cli.py").is_file():
        print(f"no homstab source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    with open(HERE / "expected.json") as fh:
        expected = json.load(fh)[args.workload]
    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}"
    config_path = OUT_DIR / f"{stem}.json"
    config_path.write_text(json.dumps(
        workloads.make_config(args.workload, args.seed), indent=2))
    config = str(config_path)

    try:
        setups = []
        if args.trace:
            # half the time for untraced calls, half for the traced one
            calls = timed_calls(args.workload, config, args.seconds / 2,
                                deadline, min_calls=1)
        else:
            calls = timed_calls(args.workload, config, args.seconds,
                                deadline, min_calls=2, setups=setups)
        run_s = statistics.median(c["run_s"] for c in calls)
        if args.trace:
            calls.append(run_child(
                "trace", args.workload, config,
                str(OUT_DIR / f"{stem}-trace.json"), repr(run_s),
                repr(statistics.median(c["cpu_s"] for c in calls)),
                deadline=deadline))
    except ChildFailed as exc:
        print(exc, file=sys.stderr)
        return 1

    attempted = failed = 0
    for c in calls:
        bad = workloads.failed_cells(expected, c["exit_code"], c["cells"])
        attempted += len(expected["cells"])
        failed += len(bad)
        if bad:
            print(f"failed cells (exit {c['exit_code']}): {bad}",
                  file=sys.stderr)

    env = environment()
    env.update(numpy=calls[0]["numpy"], backend=calls[0]["backend"],
               workload=args.workload, seed=args.seed, calls=len(calls))
    print("env " + json.dumps(env, sort_keys=True))
    if args.trace:
        metrics = {name: {"value": calls[-1]["layers"][name], "unit": unit}
                   for name, unit in PER_LAYER.items()}
    else:
        print(f"wall run_s {run_s} s (median, unscaled)")
        print(f"wall setup_s {statistics.median(s['setup_s'] for s in setups)}"
              " s (median, unscaled)")
        metrics = {
            "run_s": {"value": statistics.median(
                at_reference_speed(c, "run_s") for c in calls),
                "unit": "s"},
            "setup_s": {"value": statistics.median(
                at_reference_speed(s, "setup_s") for s in setups),
                "unit": "s"},
            "peak_rss_mb": {"value": statistics.median(
                c["rss_mb"] for c in calls), "unit": "MB"},
        }
    for name, m in metrics.items():
        print(f"{name} {m['value']} {m['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
