import pytest

from homstab import homology_engine
from homstab.exact_linalg import SparseCols
from homstab.groupoids import make_symmetric, make_wreath, \
    make_general_linear, FiniteRing
from homstab.groups import DEFAULT_GROUP_BUDGET, cyclic_group
from homstab.bracket import BracketCategory
from homstab.homology_engine import StabilizationSetup
from tests.oracles import check_transports, phi_injective_on_elements


@pytest.fixture(autouse=True)
def phi_element_oracle(monkeypatch):
    """After each test, phi of every stabilization setup the test
    verified, on a small group within the default group budget, takes
    |G_small| distinct values: the element pass that the left-inverse
    certificate of `StabilizationSetup.verify` replaces.  It runs after
    the test, so what the test counts is not disturbed."""
    verified = []
    verify = StabilizationSetup.verify

    def recorded(setup):
        verify(setup)
        verified.append(setup)
    monkeypatch.setattr(StabilizationSetup, "verify", recorded)
    yield
    for setup in verified:
        if setup.small.group.order <= DEFAULT_GROUP_BUDGET:
            assert phi_injective_on_elements(setup)


@pytest.fixture(autouse=True)
def transport_oracle(monkeypatch):
    """After each test, every unit-pair reduction that a presented
    complex ran in it paired free rows only, and its chain maps pi and
    iota commute with the boundaries and satisfy pi iota = id, on every
    cell (`oracles.check_transports`).  It runs after the test, so what
    the test counts or times is not disturbed."""
    runs = []
    reduce = homology_engine.reduce_unit_pairs

    def recorded(ds, orders):
        raw = [SparseCols(d.nrows, [dict(c) for c in d.cols]) for d in ds]
        raw_orders = [list(o) for o in orders]
        transports = reduce(ds, orders)
        runs.append((raw, raw_orders, ds, orders, transports))
        return transports
    monkeypatch.setattr(homology_engine, "reduce_unit_pairs", recorded)
    yield
    for run in runs:
        check_transports(*run)


@pytest.fixture(scope="session")
def sym_cat():
    return BracketCategory(make_symmetric())


@pytest.fixture(scope="session")
def wreath_cat():
    return BracketCategory(make_wreath(cyclic_group(2)))


@pytest.fixture(scope="session")
def gl2_cat():
    return BracketCategory(make_general_linear(FiniteRing(2), budget=25000))
