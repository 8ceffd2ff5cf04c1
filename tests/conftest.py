"""Shared fixtures: small datasets and pre-built LTE artifacts.

Session-scoped so the expensive pieces (clustering, preprocessing,
meta-training) are built once per pytest run.
"""

import numpy as np
import pytest
from hypothesis import settings

from repro.core.meta_task import MetaTaskGenerator
from repro.core.preprocessing import TabularPreprocessor
from repro.core.uis import UISMode
from repro.data import make_car, make_sdss


# ``--hypothesis-profile=x10``: ten times the examples, for the tests that
# leave the count to the profile (CI's train and serving lanes run their
# oracle-parity modules under it).
settings.register_profile(
    "x10", max_examples=10 * settings.default.max_examples)


@pytest.fixture(scope="session")
def sdss_small():
    return make_sdss(n_rows=4000, seed=11)


@pytest.fixture(scope="session")
def car_small():
    return make_car(n_rows=4000, seed=13)


@pytest.fixture(scope="session")
def subspace_data(sdss_small):
    """2-D (ra, dec) projection used by most core tests."""
    return sdss_small.data[:, [2, 3]]


@pytest.fixture(scope="session")
def subspace_attrs(sdss_small):
    return [sdss_small.attributes[2], sdss_small.attributes[3]]


@pytest.fixture(scope="session")
def task_generator(subspace_data):
    return MetaTaskGenerator(subspace_data, ku=40, ks=15, kq=60,
                             mode=UISMode(alpha=2, psi=8), delta=5, seed=3)


@pytest.fixture(scope="session")
def preprocessor(subspace_data, subspace_attrs, task_generator):
    prep = TabularPreprocessor(subspace_attrs, n_components=4, seed=3)
    prep.fit(subspace_data)
    prep.attach_centers(task_generator.summary.centers_u)
    return prep


@pytest.fixture(scope="session")
def meta_tasks(task_generator):
    return task_generator.generate(12)


@pytest.fixture()
def rng():
    return np.random.default_rng(0)


@pytest.fixture()
def hull_calls(monkeypatch):
    """Counts of ``Hull.__init__`` and ``PackedHulls.membership`` calls
    while the test runs (recursive sub-hull constructions of degenerate
    sets included): ``{"hulls": n, "membership": n}``."""
    from repro.geometry.convex_hull import Hull
    from repro.geometry.engine import PackedHulls
    counts = {"hulls": 0, "membership": 0}
    build, membership = Hull.__init__, PackedHulls.membership

    def counted_build(self, points):
        counts["hulls"] += 1
        build(self, points)

    def counted_membership(self, points):
        counts["membership"] += 1
        return membership(self, points)

    monkeypatch.setattr(Hull, "__init__", counted_build)
    monkeypatch.setattr(PackedHulls, "membership", counted_membership)
    return counts
