"""Benchmark the lattice span: span_columns against the int64 kernel.

Times span_columns (sparse exact elimination, the path the verifier
runs) against the int64 kernel kernels.span_batch_int64, normalized, on
the shapes that dominate verifier runs: random sparse integer columns and
the bar boundary d2 of Sym(5).  Both must give the same normalized row
HNF; a case on which the kernel's int64 guard trips prints "overflow".

Usage: python3 benchmarks/bench_kernels.py [--repeat N]
"""

import argparse
import os
import random
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                "..", "src"))

from homstab import kernels  # noqa: E402
from homstab.exact_linalg import span_columns  # noqa: E402


def workloads():
    rng = random.Random(20260826)

    def random_sparse(dim, ncols, nnz):
        cols = []
        for _ in range(ncols):
            col = {}
            for _ in range(nnz):
                col[rng.randrange(dim)] = rng.choice((-1, 1))
            cols.append(col)
        return dim, cols

    yield "boundary-like 600x1800, nnz 4", random_sparse(600, 1800, 4)
    yield "boundary-like 1000x3000, nnz 3", random_sparse(1000, 3000, 3)

    from homstab.groups import symmetric_group
    from homstab.homology_engine import trivial_module, resolve, BarBudget
    d2 = resolve(trivial_module(symmetric_group(5)), BarBudget(),
                 top=3).boundary(2)
    yield "bar d2 of S5 (trivial Z)", (d2.nrows, d2.cols)


def best_of(repeat, fn, *args):
    best, result = None, None
    for _ in range(repeat):
        t0 = time.perf_counter()
        result = fn(*args)
        dt = time.perf_counter() - t0
        best = dt if best is None else min(best, dt)
    return best, result


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--repeat", type=int, default=3)
    args = ap.parse_args()

    print(f"backend: {kernels.backend_name()}")
    cases = list(workloads())
    width = max(len(name) for name, _ in cases)
    head = (f"{'workload':<{width}}  {'rank':>6}  {'span_columns':>12}  "
            f"{'int64 kernel':>12}  {'kernel/span':>11}")
    print(head)
    for name, (dim, cols) in cases:
        t_span, span = best_of(args.repeat, span_columns, cols, dim)
        t_kern, kern = best_of(args.repeat, kernels.span_columns_int64,
                               cols, dim)
        line = f"{name:<{width}}  {span.rank():>6}  {t_span:>11.4f}s  "
        if kern is None:
            # the kernel's int64 guard tripped
            print(line + f"{'overflow':>12}")
            continue
        assert span.basis() == kern.basis(), f"bases differ on {name}"
        print(line + f"{t_kern:>11.4f}s  {t_kern / t_span:>10.2f}x")


if __name__ == "__main__":
    main()
