"""Int64 row-HNF lattice-span kernel: an independent oracle for spans.

Lattice spans in the verifier use sparse exact elimination in
:class:`homstab.exact_linalg.LatticeSpan`.  The functions here compute
the same normalized row HNF independently, in fixed-width int64 numpy
arithmetic: the test suite and ``benchmarks/bench_kernels.py`` compare
:func:`span_columns_int64` with :func:`homstab.exact_linalg.span_columns`
basis for basis.  Every scaled row operation is guarded with a float
bound before it runs, so int64 wraparound cannot happen silently; on a
guard trip the kernel reports overflow instead of a basis.
"""

import numpy as np

from .exact_linalg import LatticeSpan, xgcd

# every scaled row operation is admitted only when the float estimate of
# |c1|*max|row1| + |c2|*max|row2| stays below LIMIT; 2**60 leaves a 4x
# margin below int64 capacity to absorb float rounding of the estimate
LIMIT = float(1 << 60)


def _maxabs(row):
    if row.shape[0] == 0:
        return 0.0
    return float(np.abs(row).max())


def _combine_ok(c1, m1, c2, m2):
    # safe to form c1*row1 + c2*row2 in int64?
    a = float(c1)
    if a < 0.0:
        a = -a
    b = float(c2)
    if b < 0.0:
        b = -b
    return a * float(m1) + b * float(m2) < LIMIT


def _reduce_row_unit(H, present, i, dim):
    # reduce the tail of row i against all later pivots (keeps entries
    # bounded by the pivot sizes); returns -1 on magnitude overflow
    for j in range(i + 1, dim):
        c = H[i, j]
        if c != 0 and present[j]:
            q = c // H[j, j]
            if q != 0:
                if not _combine_ok(1, _maxabs(H[i, j:]),
                                   q, _maxabs(H[j, j:])):
                    return -1
                H[i, j:] -= q * H[j, j:]
    return 0


def _clear_unit_column(H, present, i):
    # reduce column i of all earlier rows modulo the new pivot; without
    # this maintenance intermediate entries swell past int64
    d = H[i, i]
    for p in range(i):
        if present[p]:
            c = H[p, i]
            if c != 0:
                q = c // d
                if q != 0:
                    if not _combine_ok(1, _maxabs(H[p, i:]),
                                       q, _maxabs(H[i, i:])):
                        return -1
                    H[p, i:] -= q * H[i, i:]
    return 0


def _span_insert(H, present, v, dim):
    # Insert v into the row-HNF basis H (rows keyed by leading index).
    # Returns 1 if the basis changed, 0 if v reduced to zero, -1 on
    # magnitude overflow.  v is consumed (zeroed) unless overflow aborts.
    changed = 0
    i = 0
    while i < dim:
        if v[i] == 0:
            i += 1
            continue
        if present[i]:
            a = H[i, i]
            q = v[i] // a
            if q != 0:
                if not _combine_ok(1, _maxabs(v[i:]), q, _maxabs(H[i, i:])):
                    return -1
                v[i:] -= q * H[i, i:]
            r = v[i]
            if r != 0:
                # combine row and vector so the pivot becomes gcd(a, r)
                g, x, y = xgcd(a, r)
                mh = _maxabs(H[i, i:])
                mv = _maxabs(v[i:])
                if not (_combine_ok(x, mh, y, mv)
                        and _combine_ok(a // g, mv, r // g, mh)):
                    return -1
                new_row = x * H[i, i:] + y * v[i:]
                v[i:] = (a // g) * v[i:] - (r // g) * H[i, i:]
                H[i, i:] = new_row
                changed = 1
                if _reduce_row_unit(H, present, i, dim) < 0:
                    return -1
                if _clear_unit_column(H, present, i) < 0:
                    return -1
            i += 1
        else:
            if v[i] < 0:
                v[i:] = -v[i:]
            H[i, i:] = v[i:]
            v[i:] = 0
            if float(_maxabs(H[i, i:])) > LIMIT:
                return -1
            present[i] = True
            if _reduce_row_unit(H, present, i, dim) < 0:
                return -1
            if _clear_unit_column(H, present, i) < 0:
                return -1
            return 1
    return changed


def _span_batch(rows, vals, colptr, dim, H, present):
    # Insert each sparse column into the basis. Returns (ncols, -1) on
    # success, (-1, col) on overflow.
    ncols = colptr.shape[0] - 1
    v = np.zeros(dim, dtype=np.int64)
    for c in range(ncols):
        for t in range(colptr[c], colptr[c + 1]):
            v[rows[t]] += vals[t]
        if _span_insert(H, present, v, dim) < 0:
            return -1, c
    return ncols, -1


def span_batch_int64(rows, vals, colptr, dim):
    """Row-HNF basis of the lattice spanned by sparse int64 columns.

    Returns (H, present) or None on overflow.
    """
    H = np.zeros((dim, dim), dtype=np.int64)
    present = np.zeros(dim, dtype=np.bool_)
    done, _bad = _span_batch(
        np.asarray(rows, dtype=np.int64),
        np.asarray(vals, dtype=np.int64),
        np.asarray(colptr, dtype=np.int64),
        dim, H, present)
    if done < 0:
        return None
    return H, present


def span_columns_int64(cols, dim):
    """Normalized LatticeSpan of sparse dict columns computed by
    :func:`span_batch_int64`, or None when an entry reaches 2**30 or the
    kernel overflows."""
    nnz = sum(len(c) for c in cols)
    rows = np.empty(nnz, dtype=np.int64)
    vals = np.empty(nnz, dtype=np.int64)
    colptr = np.empty(len(cols) + 1, dtype=np.int64)
    t = 0
    lim = 1 << 30
    for j, col in enumerate(cols):
        colptr[j] = t
        for i, v in col.items():
            if abs(v) >= lim:
                return None
            rows[t] = i
            vals[t] = v
            t += 1
    colptr[len(cols)] = t
    out = span_batch_int64(rows, vals, colptr, dim)
    if out is None:
        return None
    H, present = out
    span = LatticeSpan(dim)
    for i in np.flatnonzero(present):
        row = H[i]
        span.rows[int(i)] = {int(k): int(row[k]) for k in np.flatnonzero(row)}
    span.normalize()
    return span


def backend_name():
    """The span backend: "python" (sparse exact elimination)."""
    return "python"
