"""An adapted classifier scores from what it keeps, with the logits a
one-pass kernel gives, to the last bit.

``AdaptedClassifier`` holds its trained tuple and classification blocks
(Basic also its UIS block) and a ``Retrieval`` — ``emb_R``, ``W = M2 +
M3 * emb_R`` and ``emb_R @ M1^T`` — and each call runs only the
row-wise products (``constant_logits``).  Pinned here, for small and
paper-size nets, with and without a conversion matrix (Meta / Meta* and
Basic), against the whole model the classifier stands for
(``tests/train/_sequential_oracle.whole_model``):

* **logits** — what ``predict_proba`` scores equals, bit for bit,
  ``inference_logits`` of the whole model and the kernel as it was
  before the split (:func:`one_pass_logits`: every product in one call,
  ``emb_R @ M1^T`` after ``emb_tau @ W^T``), on the first call and on
  later calls with other row counts;
* **lifecycle** — a classifier rebuilt ``from_state_dict`` (recomputing
  a Meta retrieval through ``task_retrieval``) and the new classifier of
  a re-adaptation score with the bits of a fresh one;
* **what is kept where** — ``state_dict`` and manager snapshots carry no
  constants (a Meta classifier's retrieval is a digest there), pickles
  and deep copies score alike, and no few-shot optimizer's memoized
  zone-map boxes travel.

Example counts come from the hypothesis profile (``x10`` in CI's store
lane, registered in ``tests/conftest.py``).
"""

import copy
import os
import pickle
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from test_conjunction import drive
from test_predict_oracle_parity import draw_rows
from repro.core import meta_training
from repro.core.meta_learner import UISClassifier
from repro.core.meta_training import (AdaptedClassifier, MetaHyperParams,
                                      MetaTrainer)
from repro.core.optimizer import FewShotOptimizer
from repro.data.schema import Table
from repro.nn.batching import inference_logits, stable_sigmoid
from repro.nn.layers import Linear, ReLU, Sequential
from repro.serve import SessionManager

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                os.pardir, "train"))
from _sequential_oracle import (adapted_of, retrieved_model,  # noqa: E402
                                whole_model)

#: (variant, label-oracle seed, subspaces explored) on the small nets.
SESSIONS = [("meta_star", 3, (0, 1)), ("meta", 6, (1, 2)),
            ("basic", 7, (0, 2))]


def layers_of(block):
    if isinstance(block, Sequential):
        for child in block:
            yield from layers_of(child)
    else:
        yield block


def apply(block, x):
    for layer in layers_of(block):
        if isinstance(layer, Linear):
            x = np.matmul(x, layer.weight.data)
            if layer.bias is not None:
                x = x + layer.bias.data
        elif isinstance(layer, ReLU):
            x = x * (x > 0)
    return x


def one_pass_logits(model, feature_vector, conversion, rows):
    """The inference kernel before its constants were split off: both
    embeddings, then ``emb_tau @ (M2 + M3 * emb_R)^T + emb_R @ M1^T`` in
    that order (or the combined row without a conversion matrix), then
    the classification block."""
    emb_r = apply(model.uis_block, feature_vector.reshape(1, -1))
    emb_x = apply(model.tuple_block, np.asarray(rows, dtype=np.float64))
    if conversion is not None:
        ne = conversion.shape[0]
        m1, m2, m3 = (conversion[:, :ne], conversion[:, ne:2 * ne],
                      conversion[:, 2 * ne:])
        w = m3 * emb_r
        w += m2
        combined = emb_x @ w.T
        combined += emb_r @ m1.T
    else:
        combined = np.concatenate(
            [np.repeat(emb_r, len(emb_x), axis=0), emb_x, emb_r * emb_x],
            axis=1)
    return apply(model.clf_block, combined).reshape(-1)


def served_logits(adapted, rows):
    """``(logits, proba)`` of one ``predict_proba`` call, the logits read
    off the kernel it calls."""
    kernel, seen = meta_training.constant_logits, []
    with pytest.MonkeyPatch.context() as monkeypatch:
        monkeypatch.setattr(meta_training, "constant_logits",
                            lambda *args: seen.append(kernel(*args))
                            or seen[-1])
        proba = adapted.predict_proba(rows)
    assert len(seen) == 1
    return seen[0], proba


def assert_logits(adapted, rows, trainer=None):
    """The served logits of ``adapted`` are those of the whole model it
    stands for (its retrieval recomputed from ``trainer``)."""
    logits, proba = served_logits(adapted, rows)
    model, conversion = whole_model(adapted, trainer)
    assert np.array_equal(logits, inference_logits(
        model, adapted.feature_vector, rows, conversion=conversion))
    assert np.array_equal(logits, one_pass_logits(
        model, adapted.feature_vector, conversion, rows))
    assert np.array_equal(proba, stable_sigmoid(logits))


def paper_classifier(rng, use_conversion):
    """A paper-size classifier (Ne = 100, hidden 64) and its trainer: for
    Meta / Meta*, a trainer's retrieval for a random v_R; for Basic, a
    random model of its own (no trainer)."""
    seed = int(rng.integers(2 ** 31))
    feature = (rng.random(50) < 0.5).astype(np.float64)
    if not use_conversion:
        model = UISClassifier(
            ku=50, input_width=12, embed_size=100, hidden_size=64,
            use_conversion=False, seed=seed)
        return adapted_of(model, feature, trains_uis=True), None
    trainer = MetaTrainer(ku=50, input_width=12, embed_size=100,
                          hidden_size=64, params=MetaHyperParams(),
                          seed=seed)
    model, conversion, _ = retrieved_model(trainer, feature)
    return adapted_of(model, feature, conversion), trainer


@pytest.fixture(scope="module")
def served(serve_lte, make_oracle):
    manager = SessionManager(serve_lte)
    ids = [drive(manager, serve_lte, make_oracle, entry, index)
           for index, entry in enumerate(SESSIONS)]
    manager.flush()
    return manager, ids


def subsessions(manager, ids):
    for sid in ids:
        yield from manager.session(sid)._subsessions.values()


@settings(deadline=None)
@given(st.lists(st.integers(0, 300), min_size=1, max_size=4),
       st.integers(0, 2 ** 32 - 1))
def test_small_net_logits_keep_their_bits(served, counts, seed):
    manager, ids = served
    lte = manager.lte
    assert {sub.adapted.retrieval.weight is None
            for sub in subsessions(manager, ids)} == {True, False}
    for n_rows in counts:
        rows = draw_rows(lte, seed, n_rows)
        for subsession in subsessions(manager, ids):
            state = subsession.state
            assert_logits(subsession.adapted, state.encode(
                rows[:, list(state.subspace.columns)]), state.trainer)


@settings(deadline=None)
@given(st.booleans(), st.lists(st.integers(0, 400), min_size=1, max_size=4),
       st.integers(0, 2 ** 32 - 1))
def test_paper_net_logits_keep_their_bits(use_conversion, counts, seed):
    rng = np.random.default_rng(seed)
    adapted, trainer = paper_classifier(rng, use_conversion)
    for n_rows in counts:
        assert_logits(adapted, rng.random((n_rows, 12)), trainer)
    restored = AdaptedClassifier.from_state_dict(adapted.state_dict(),
                                                 trainer)
    rows = rng.random((max(counts) + 1, 12))
    assert_logits(restored, rows, trainer)
    assert np.array_equal(served_logits(restored, rows)[0],
                          served_logits(adapted, rows)[0])


def test_a_readaptation_scores_with_its_own_constants(serve_lte,
                                                      make_oracle):
    """A label round's classifier scores with its newly trained blocks
    (Meta / Meta* over the retrieval it carries on, by reference)."""
    manager = SessionManager(serve_lte)
    ids = [drive(manager, serve_lte, make_oracle, entry, 20 + index)
           for index, entry in enumerate(SESSIONS)]
    manager.flush()
    rows = draw_rows(serve_lte, 4, 500)
    before = {}
    for sid in ids:
        for subspace, subsession in manager.session(sid)._subsessions.items():
            encoded = subsession.state.encode(rows[:, list(subspace.columns)])
            assert_logits(subsession.adapted, encoded,
                          subsession.state.trainer)
            before[sid, subspace] = (subsession.adapted, encoded)
    for sid in ids:
        subspace = next(iter(manager.session(sid)._subsessions))
        state = manager.session(sid)._subsessions[subspace].state
        manager.add_labels(sid, subspace, state.to_raw(state.data[40:43]),
                           np.array([1, 0, 1]))
    manager.flush()
    for (sid, subspace), (old, encoded) in before.items():
        subsession = manager.session(sid)._subsessions[subspace]
        adapted = subsession.adapted
        if adapted is old:              # a subspace that got no labels
            continue
        assert_logits(adapted, encoded, subsession.state.trainer)
        assert not np.array_equal(served_logits(adapted, encoded)[0],
                                  served_logits(old, encoded)[0])
    assert manager.predict_many(ids, rows).keys() == set(ids)


def test_no_constants_or_boxes_are_checkpointed_or_boxes_copied(
        serve_lte, make_oracle):
    manager = SessionManager(serve_lte)
    ids = [drive(manager, serve_lte, make_oracle, entry, 30 + index)
           for index, entry in enumerate(SESSIONS)]
    manager.flush()
    rows = draw_rows(serve_lte, 8, 1200)
    store = Table("CAR", serve_lte.table.attributes, rows) \
        .to_store(chunk_rows=200)
    manager.predict_many_store(ids, store)
    live = list(subsessions(manager, ids))
    optimizers = [sub.optimizer for sub in live
                  if sub.optimizer is not None]
    assert optimizers and all(o._boxes is not None for o in optimizers)
    for sub in live:
        adapted = sub.adapted
        trained = {"tuple_block", "clf_block"}
        kept = trained | {"uis_block"} if sub.variant == "basic" \
            else trained | {"retrieval_digest"}
        assert set(adapted.state_dict()) == {"config", "feature_vector"} \
            | kept
        for clone in (pickle.loads(pickle.dumps(adapted)),
                      copy.deepcopy(adapted)):
            encoded = sub.state.encode(rows[:50, list(sub.state.subspace
                                                      .columns)])
            assert np.array_equal(served_logits(clone, encoded)[0],
                                  served_logits(adapted, encoded)[0])
    for optimizer in optimizers:
        assert set(optimizer.state_dict()) == {"n_sup", "n_sub", "outer",
                                               "inner", "hulls"}
        for clone in (pickle.loads(pickle.dumps(optimizer)),
                      copy.deepcopy(optimizer)):
            assert clone._boxes is None

    def walk(value):
        assert not isinstance(value, (AdaptedClassifier, FewShotOptimizer,
                                      Linear))
        if isinstance(value, dict):
            assert not any(word in str(key) for key in value
                           for word in ("constants", "boxes"))
            for item in value.values():
                walk(item)
        elif isinstance(value, (list, tuple)):
            for item in value:
                walk(item)

    snapshot = manager.snapshot()
    walk(snapshot)
    restored = SessionManager.restore(serve_lte, snapshot)
    for sub in subsessions(restored, ids):
        assert sub.optimizer is None or sub.optimizer._boxes is None
    answers = manager.predict_many(ids, rows)
    again = restored.predict_many(ids, rows)
    assert all(np.array_equal(answers[sid], again[sid]) for sid in ids)


def test_boxes_filled_by_racing_threads_agree(serve_lte, make_oracle):
    """Six threads score and plan through the same classifiers and
    optimizers while their boxes are unset, under a short switch
    interval: every logit and keep mask equals the serial one."""
    import sys
    import threading

    from repro.store.scan import plan_conjunctions

    manager = SessionManager(serve_lte)
    ids = [drive(manager, serve_lte, make_oracle, entry, 40 + index)
           for index, entry in enumerate(SESSIONS)]
    manager.flush()
    rows = draw_rows(serve_lte, 12, 700)
    store = Table("CAR", serve_lte.table.attributes, rows) \
        .to_store(chunk_rows=100)
    conjunctions = {sid: manager.session(sid)._subsessions for sid in ids}
    owed = {sid: index for index, sid in enumerate(ids)}
    live = list(subsessions(manager, ids))
    encoded = [sub.state.encode(rows[:, list(sub.state.subspace.columns)])
               for sub in live]
    want_logits = [served_logits(sub.adapted, x)[0]
                   for sub, x in zip(live, encoded)]
    want_plan = plan_conjunctions(store, conjunctions, owed)
    failures = []

    def work():
        try:
            for _ in range(5):
                for sub, x, want in zip(live, encoded, want_logits):
                    assert np.array_equal(sub.adapted.predict_proba(x),
                                          stable_sigmoid(want))
                first, keep = plan_conjunctions(store, conjunctions, owed)
                assert first == want_plan[0]
                assert all(np.array_equal(keep[sid], want_plan[1][sid])
                           for sid in want_plan[1])
        except AssertionError as error:
            failures.append(error)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(3):
            for sub in live:
                if sub.optimizer is not None:
                    sub.optimizer._boxes = None
            threads = [threading.Thread(target=work) for _ in range(6)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            assert not any(thread.is_alive() for thread in threads)
    finally:
        sys.setswitchinterval(interval)
    assert failures == []
