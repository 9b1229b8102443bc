"""Record expected.json: the checked report fields of every workload.

    python3 perfbench/record_expected.py

Run it only at a commit whose results are known to be right (the file in
the repository was recorded at the seed commit); the benchmark compares
every later run against it.
"""

from __future__ import annotations

import json
import time

import workloads
from run import HERE, OUT_DIR, run_child


def main() -> None:
    OUT_DIR.mkdir(exist_ok=True)
    expected = {}
    for name in workloads.WORKLOADS:
        path = OUT_DIR / f"{name}-record.json"
        path.write_text(json.dumps(workloads.make_config(name, 0)))
        out = run_child("call", name, str(path),
                        deadline=time.monotonic() + 600)
        expected[name] = {"exit_code": out["exit_code"],
                          "cells": out["cells"]}
        print(name, out["exit_code"], len(out["cells"]), "cells")
    with open(HERE / "expected.json", "w") as fh:
        json.dump(expected, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
