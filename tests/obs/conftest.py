"""Fixtures for the observability suite: a tiny trained LTE + obs reset.

The process-default registry is dropped between tests so cumulative
counters never leak across cases, and no span sink is installed unless
a test installs one.
"""

import pytest

from repro import obs
from repro.core import LTE, LTEConfig
from repro.core.meta_training import MetaHyperParams
from repro.data import make_car


@pytest.fixture(autouse=True)
def _fresh_obs_state():
    obs.reset_default_registry()
    previous_sink = obs.set_sink(None)
    yield
    obs.set_sink(previous_sink)
    obs.reset_default_registry()


@pytest.fixture(scope="session")
def obs_lte():
    table = make_car(n_rows=1500, seed=41)
    lte = LTE(LTEConfig(budget=20, ku=25, kq=30, n_tasks=6,
                        meta=MetaHyperParams(epochs=1, local_steps=2,
                                             batch_size=3,
                                             pretrain_epochs=1),
                        basic_steps=15, online_steps=4))
    lte.fit_offline(table)
    return lte


@pytest.fixture(scope="session")
def obs_subspaces(obs_lte):
    return list(obs_lte.states)[:2]


@pytest.fixture(scope="session")
def make_oracle(obs_lte, obs_subspaces):
    """Factory: a distinct conjunctive ground-truth oracle per seed."""
    from repro.bench import subspace_region
    from repro.core.uis import UISMode
    from repro.explore import ConjunctiveOracle

    def factory(seed, subspaces=None):
        subspaces = subspaces or obs_subspaces
        return ConjunctiveOracle({
            s: subspace_region(obs_lte.states[s], UISMode(1, 10),
                               seed=seed + i)
            for i, s in enumerate(subspaces)})

    return factory


@pytest.fixture()
def eval_rows(obs_lte):
    return obs_lte.table.sample_rows(200, seed=5)
