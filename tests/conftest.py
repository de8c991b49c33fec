import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from oracles import crooked_p3_order
from tanglekit.fixtures import (
    chain2_system,
    p3_universe,
    p4_universe,
    ptriv_system,
    single_sep_system,
)
from tanglekit.universe import bipartition_universe, is_structurally_submodular


@pytest.fixture(scope="session")
def p3():
    return p3_universe()


@pytest.fixture(scope="session")
def p4():
    return p4_universe()


@pytest.fixture(scope="session")
def bip2():
    return bipartition_universe([1, 2])


@pytest.fixture(scope="session")
def bip3():
    return bipartition_universe([1, 2, 3])


@pytest.fixture(scope="session")
def bip4():
    return bipartition_universe([1, 2, 3, 4])


@pytest.fixture(scope="session")
def ptriv():
    return ptriv_system()


@pytest.fixture(scope="session")
def chain2():
    return chain2_system()


@pytest.fixture(scope="session")
def single():
    return single_sep_system()


@pytest.fixture(scope="session")
def p3_crooked_order(p3):
    """An order on the P3 universe that is not structurally submodular."""
    u, _ = p3
    o = crooked_p3_order(u)
    assert not is_structurally_submodular(u, o)[0]
    return o
