import pytest

from lcong.bernoulli import BernoulliCache
from lcong.characters import character, chi_minus4


@pytest.fixture(scope="session")
def chi4():
    return chi_minus4()


@pytest.fixture(scope="session")
def chi8():
    """The even quadratic character mod 8 (value -1 at 3 and 5, +1 at 7)."""
    return character(2, 3, (0, 1))


@pytest.fixture(scope="session")
def chi_minus8():
    """The odd quadratic character mod 8."""
    return character(2, 3, (1, 1))


@pytest.fixture(scope="session")
def memo():
    """One value memo shared by the tests that only read values."""
    return BernoulliCache()
