import numpy as np
import pytest

import kontact as kt
from kontact.manifold import sample_coords
from oracles import values


@pytest.fixture(scope="session")
def pair3():
    return kt.standard_pair(3)


@pytest.fixture(scope="session")
def pair5():
    return kt.standard_pair(5)


@pytest.fixture(scope="session")
def angle3(pair3):
    return pair3.angle_function()


@pytest.fixture(scope="session")
def angle5(pair5):
    return pair5.angle_function()


@pytest.fixture(scope="session")
def pts3(angle3):
    return sample_coords(60, 42, 4, exclusion=lambda x: np.abs(values(angle3, x)) > 0.9)


@pytest.fixture(scope="session")
def pts5(angle5):
    return sample_coords(40, 42, 6, exclusion=lambda x: np.abs(values(angle5, x)) > 0.9)


@pytest.fixture(scope="session")
def pts3_plain():
    return sample_coords(40, 7, 4)


@pytest.fixture
def rng():
    return np.random.default_rng(1234)
