"""End-to-end parity of the pooled batched offline phase.

``LTE.fit_offline`` interleaves and fuses the meta-training of all
subspaces; it must produce bit-identical trainers — and therefore
bit-identical online sessions and F1 scores — to training every
subspace task at a time (``_sequential_oracle.fit_offline_sequential``),
for every variant.
"""

import numpy as np
import pytest

from _sequential_oracle import fit_offline_sequential
from repro.core import LTE, LTEConfig
from repro.core.meta_training import MetaHyperParams
from repro.core.uis import UISMode
from repro.data import make_car

pytestmark = pytest.mark.train


def small_config():
    return LTEConfig(budget=20, ku=20, kq=25, n_tasks=5,
                     meta=MetaHyperParams(epochs=2, local_steps=2,
                                          batch_size=3, pretrain_epochs=1),
                     basic_steps=10, online_steps=3)


@pytest.fixture(scope="module")
def offline_pair():
    table = make_car(n_rows=1500, seed=41)
    sequential = fit_offline_sequential(LTE(small_config()), table)
    batched = LTE(small_config()).fit_offline(table)
    return table, sequential, batched


def test_trainers_bit_identical(offline_pair):
    _, sequential, batched = offline_pair
    assert list(sequential.states) == list(batched.states)
    for subspace in sequential.states:
        a = sequential.states[subspace].trainer
        b = batched.states[subspace].trainer
        assert np.array_equal(a.model.flat_parameters(),
                              b.model.flat_parameters()), subspace
        assert a.history == b.history
        if a.memories is not None:
            sa, sb = a.memories.state_dict(), b.memories.state_dict()
            for key in ("M_vR", "M_R", "M_CP"):
                assert np.array_equal(sa[key], sb[key])


@pytest.mark.parametrize("variant", ["basic", "meta", "meta_star"])
def test_session_f1_parity(offline_pair, variant):
    from repro.bench import subspace_region
    from repro.explore import ConjunctiveOracle, run_lte_exploration

    table, sequential, batched = offline_pair
    subspaces = list(sequential.states)[:2]
    eval_rows = table.sample_rows(250, seed=5)
    results = []
    for lte in (sequential, batched):
        oracle = ConjunctiveOracle({
            s: subspace_region(lte.states[s], UISMode(1, 8), seed=17 + i)
            for i, s in enumerate(subspaces)})
        results.append(run_lte_exploration(lte, oracle, eval_rows,
                                           variant=variant,
                                           subspaces=subspaces))
    assert results[0].f1 == results[1].f1
    assert np.array_equal(results[0].predictions, results[1].predictions)


def test_progress_reports_per_epoch_losses(offline_pair):
    table, _, batched = offline_pair
    events = []
    lte = LTE(small_config())
    lte.fit_offline(table, progress=lambda s, stage: events.append((s, stage)))
    prepared = [s for s, stage in events if stage == "prepared"]
    trained = [s for s, stage in events if stage == "trained"]
    assert prepared == list(lte.states)
    assert sorted(trained, key=str) == sorted(lte.states, key=str)
    epochs = [(s, stage) for s, stage in events
              if isinstance(stage, tuple) and stage[0] == "epoch"]
    # every subspace reports every meta epoch, and the reported mean
    # query losses equal the trainer history
    n_epochs = small_config().meta.epochs
    assert len(epochs) == n_epochs * len(lte.states)
    for subspace in lte.states:
        losses = [stage[2] for s, stage in epochs if s is subspace]
        assert losses == lte.states[subspace].trainer.history
