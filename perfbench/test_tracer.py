"""Tests of the benchmark's tracer: self-time arithmetic, per-thread
stacks, folding, counting, and patching every namespace then restoring.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import sys
import threading
import types
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

import probes
from tracer import COUNT, FOLD, Span, Tracer, self_times, union_length

SRC = Path(__file__).resolve().parent.parent / "src"


class Clock:
    """A clock that moves only when a test advances it."""

    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def work(self, seconds):
        self.now += seconds


def test_union_length():
    assert union_length([]) == 0.0
    assert union_length([(0, 1), (2, 4)]) == 3.0
    assert union_length([(0, 3), (1, 2)]) == 3.0           # nested
    assert union_length([(0, 2), (1, 4), (5, 6)]) == 5.0   # overlapping
    assert union_length([(3, 5), (0, 1), (1, 3)]) == 5.0   # touching


def test_self_times_subtract_union_and_folds():
    spans = [
        Span(1, "root", 0.0, 10.0, None, None, 0, fold_cover=1.0),
        # two cells on worker threads overlap in [3, 5]
        Span(2, "cell", 2.0, 5.0, 1, "a", 1),
        Span(3, "cell", 3.0, 7.0, 1, "b", 2, fold_cover=0.5),
        Span(4, "leaf", 3.0, 4.0, 3, "b", 2),
    ]
    selfs = self_times(spans)
    assert selfs[1] == pytest.approx(10.0 - 1.0 - 5.0)
    assert selfs[2] == pytest.approx(3.0)
    assert selfs[3] == pytest.approx(4.0 - 0.5 - 1.0)
    assert selfs[4] == pytest.approx(1.0)


def test_nested_spans_and_folds_on_one_thread():
    clock = Clock()
    t = Tracer(clock)
    inner = t.wrapper("inner", lambda: clock.work(2.0))
    folded = t.wrapper("folded", lambda: clock.work(0.25), FOLD)

    def outer():
        clock.work(1.0)
        inner()
        for _ in range(4):
            folded()
    t.span("outer", outer, (), {})
    totals = t.totals()
    assert totals["outer"] == [1, pytest.approx(1.0)]
    assert totals["inner"] == [1, pytest.approx(2.0)]
    assert totals["folded"] == [4, pytest.approx(1.0)]
    (root,) = [s for s in t.spans() if s.name == "outer"]
    (child,) = [s for s in t.spans() if s.name == "inner"]
    assert child.parent == root.id


def test_span_inside_fold_is_folded():
    clock = Clock()
    t = Tracer(clock)
    enum = t.wrapper("enumerate", lambda: clock.work(3.0))

    def canon():
        clock.work(1.0)
        enum()
    canon_w = t.wrapper("canon", canon, FOLD)
    t.span("root", canon_w, (), {})
    assert [s.name for s in t.spans()] == ["root"]
    totals = t.totals()
    assert totals["root"][1] == pytest.approx(0.0)
    assert totals["canon"] == [1, pytest.approx(1.0)]
    assert totals["enumerate"] == [1, pytest.approx(3.0)]


def test_count_only_outermost_call():
    t = Tracer()
    leaf = t.wrapper("leaf", lambda: None, COUNT)
    outer = t.wrapper("outer", lambda: [leaf(), leaf()], COUNT)
    outer()
    leaf()
    assert t.counts() == {("outer", None): 1, ("leaf", None): 1}


def test_one_stack_per_thread():
    t = Tracer()
    barrier = threading.Barrier(2)

    def body():
        barrier.wait(timeout=10)
        return t.current_span()
    results = {}

    def run(name):
        results[name] = t.span(name, body, (), {})
    threads = [threading.Thread(target=run, args=(n,)) for n in "ab"]
    for th in threads:
        th.start()
    for th in threads:
        th.join(timeout=10)
        assert not th.is_alive()
    spans = {s.name: s for s in t.spans()}
    assert {results["a"], results["b"]} == {spans["a"].id, spans["b"].id}
    assert spans["a"].parent is None and spans["b"].parent is None
    assert spans["a"].thread != spans["b"].thread


def test_traced_pool_links_cells_to_the_submitting_span():
    t = Tracer()
    pool_cls = probes.traced_pool(t, ThreadPoolExecutor)

    def run():
        with pool_cls(max_workers=2) as pool:
            return list(pool.map(lambda x: x * x, [1, 2, 3]))
    assert t.span("run", run, (), {}) == [1, 4, 9]
    spans = t.spans()
    (pool_map,) = [s for s in spans if s.name == "verifier.pool_map"]
    cells = [s for s in spans if s.name == "verifier.cell"]
    assert sorted(s.cell for s in cells) == [1, 2, 3]
    assert all(s.parent == pool_map.id for s in cells)
    assert self_times(spans)[pool_map.id] == pytest.approx(
        pool_map.duration - union_length([(s.start, s.end) for s in cells]))


def test_patch_every_namespace_and_restore():
    def original():
        return "original"
    pkg = types.ModuleType("fakepkg")
    mod_a = types.ModuleType("fakepkg.a")
    mod_b = types.ModuleType("fakepkg.b")
    other = types.ModuleType("otherpkg")
    mod_a.f = original
    mod_b.f_alias = original
    other.f = original
    sys.modules.update({"fakepkg": pkg, "fakepkg.a": mod_a,
                        "fakepkg.b": mod_b, "otherpkg": other})
    try:
        t = Tracer()
        t.patch(mod_a, "f", t.wrapper("f", original), "fakepkg")
        assert mod_a.f is not original and mod_b.f_alias is mod_a.f
        assert other.f is original
        assert mod_b.f_alias() == "original"
        assert [s.name for s in t.spans()] == ["f"]
        t.restore()
        assert mod_a.f is original and mod_b.f_alias is original
    finally:
        for name in ("fakepkg", "fakepkg.a", "fakepkg.b", "otherpkg"):
            sys.modules.pop(name)


@pytest.fixture
def homstab():
    sys.path.insert(0, str(SRC))
    try:
        import homstab.cli  # noqa: F401
        yield sys.modules["homstab"]
    finally:
        sys.path.remove(str(SRC))


def test_install_patches_importers_and_restore_undoes_it(homstab):
    from homstab import (exact_linalg, homology_engine, simplicial,
                         verifier, groups, bracket)
    before = {
        "span_columns": exact_linalg.span_columns,
        "homology_of_pair": exact_linalg.homology_of_pair,
        "pool": verifier.ThreadPoolExecutor,
        "perm_mul": groups.perm_mul,
        "canonicalize": bracket.BracketCategory.canonicalize,
    }
    t = Tracer()
    probes.install(t)
    try:
        assert homology_engine.span_columns is exact_linalg.span_columns
        assert exact_linalg.span_columns is not before["span_columns"]
        for mod in (exact_linalg, homology_engine, simplicial):
            assert mod.homology_of_pair is not before["homology_of_pair"]
        assert issubclass(verifier.ThreadPoolExecutor, before["pool"])
        assert groups.perm_mul is not before["perm_mul"]
    finally:
        t.restore()
    assert exact_linalg.span_columns is before["span_columns"]
    assert homology_engine.span_columns is before["span_columns"]
    for mod in (exact_linalg, homology_engine, simplicial):
        assert mod.homology_of_pair is before["homology_of_pair"]
    assert verifier.ThreadPoolExecutor is before["pool"]
    assert groups.perm_mul is before["perm_mul"]
    assert bracket.BracketCategory.canonicalize is before["canonicalize"]


def test_traced_stability_call_counts(homstab):
    from homstab import verifier
    cfg = verifier.load_config({
        "family": {"kind": "symmetric"}, "A": 0, "X": 1,
        "coeff": {"kind": "constant", "params": {"r_max": 1, "N_max": 0}},
        "k": 2, "n_max": 3, "i_max": 1, "theorems": ["A"]})
    t = Tracer()
    probes.install(t)
    try:
        report = t.span("root", verifier.run_stability, (cfg,),
                        {"jobs": 2})
    finally:
        t.restore()
    metrics = probes.layer_metrics(t, 0.0, 0.0, 0.0)
    assert set(metrics) == set(probes.PER_LAYER)
    cells = [s for s in t.spans() if s.name == "verifier.cell"]
    assert len(cells) == len(report["cells"]) == 6
    assert metrics["exact_linalg.span_calls"] > 0
    assert metrics["groups.mul_calls"] > 0
    assert (metrics["homology_engine.boundaries_distinct"]
            <= metrics["homology_engine.boundaries_built"])
    assert all(v >= 0 for v in metrics.values())
