import pytest
from hypothesis import settings

from gmtlab import corpus
from gmtlab.measures import DiscreteMeasure, EllipseField

# Every property test is reproducible: a fixed example sequence, no example
# database on disk and no per-example deadline (LP solves vary in time).
# Each test sets only its own max_examples.
settings.register_profile("gmtlab", derandomize=True, database=None,
                          deadline=None)
settings.load_profile("gmtlab")


@pytest.fixture(scope="session")
def line_entry():
    return corpus.gen_line(0.001, extent=1.0)


@pytest.fixture(scope="session")
def half_line_entry():
    return corpus.gen_half_line(0.001, extent=1.5)


@pytest.fixture(scope="session")
def cross_entry():
    return corpus.gen_cross(0.001, extent=1.0)


@pytest.fixture(scope="session")
def circle_entry():
    return corpus.gen_circle(0.001, radius=1.0)


@pytest.fixture(scope="session")
def cantor7_entry():
    return corpus.gen_four_corner_cantor(7)


@pytest.fixture(scope="session")
def sine_graph_entry():
    return corpus.gen_sine_graph(0.001, amplitude=0.1, frequency=1.0, extent=2.0)


@pytest.fixture(scope="session")
def identity2():
    return EllipseField.identity(2)


def random_cloud(rng, count, dim=2, spread=0.7):
    return DiscreteMeasure(rng.normal(size=(count, dim)) * spread,
                           rng.uniform(0.1, 1.0, count))
