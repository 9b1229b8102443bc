import pytest

from homstab.groupoids import make_symmetric, make_wreath, \
    make_general_linear, FiniteRing
from homstab.groups import DEFAULT_GROUP_BUDGET, cyclic_group
from homstab.bracket import BracketCategory
from homstab.homology_engine import StabilizationSetup
from tests.oracles import phi_injective_on_elements


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


@pytest.fixture(scope="session")
def sym_cat():
    return BracketCategory(make_symmetric())


@pytest.fixture(scope="session")
def wreath_cat():
    return BracketCategory(make_wreath(cyclic_group(2)))


@pytest.fixture(scope="session")
def gl2_cat():
    return BracketCategory(make_general_linear(FiniteRing(2), budget=25000))
