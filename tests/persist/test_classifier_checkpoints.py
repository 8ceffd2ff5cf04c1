"""A Meta / Meta* classifier checkpoints what its labels moved.

A Meta / Meta* ``AdaptedClassifier`` keeps the tuple and classification
blocks it trained, v_R and its retrieval's constants; a checkpoint holds
the blocks and v_R plus a digest of the constants, and a restore
recomputes them through ``MetaTrainer.task_retrieval``.  Pinned here:

* **size** — a paper-size Meta* classifier's state holds at most 0.35x
  the elements of the layout before it (the whole classifier, M_cp and
  v_R);
* **bits** — a manager saved and loaded answers, classifies and carries
  on labelling bit for bit like the one saved;
* **one layout** — a classifier state of that earlier layout is refused
  with a ``CheckpointError`` naming the field it lacks;
* **the right retrieval** — a restore against a subspace refreshed over
  drifted data, or whose meta-learner trained further, is refused; so
  is a save of a session that adapted before such a change (its
  restore would be), while the sessions opened since round-trip.
"""

import copy
import os
import sys

import numpy as np
import pytest

from repro import persist
from repro.core.meta_training import (AdaptedClassifier, MetaHyperParams,
                                      MetaTrainer)
from repro.data.schema import Table
from repro.persist import CheckpointError
from repro.serve import SessionManager

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                os.pardir, "train"))
from _sequential_oracle import (assert_same_classifier,  # noqa: E402
                                retrieved_model)


def fed_manager(lte, subspaces, make_oracle, variants, manager=None):
    """One session per variant, its initial labels and one warm round,
    on ``manager`` or a new one."""
    manager = manager or SessionManager(lte)
    sids = []
    for k, variant in enumerate(variants):
        sid = manager.open_session(variant=variant, subspaces=subspaces,
                                   seed=k)
        oracle = make_oracle(730 + k)
        for subspace, tuples in manager.initial_tuples(sid).items():
            manager.submit_labels(sid, subspace,
                                  oracle.label_subspace(subspace, tuples))
        sids.append(sid)
    manager.flush()
    for k, sid in enumerate(sids):
        subspace = subspaces[k % len(subspaces)]
        state = lte.states[subspace]
        tuples = state.to_raw(state.data[50:54])
        manager.add_labels(sid, subspace, tuples,
                           make_oracle(730 + k).label_subspace(subspace,
                                                               tuples))
    manager.flush()
    return manager, sids


def elements(node):
    """Array elements in a nested state."""
    if isinstance(node, np.ndarray):
        return node.size
    if isinstance(node, dict):
        return sum(elements(value) for value in node.values())
    if isinstance(node, (list, tuple)):
        return sum(elements(item) for item in node)
    return 0


def test_a_paper_size_meta_star_checkpoint_holds_a_third_of_the_parents():
    """Paper nets: ku = 100, Ne = 100, hidden 64 and a 118-wide encoding,
    so the whole classifier and M_cp are 58 529 elements, of which the
    tuple and classification blocks are 18 429."""
    trainer = MetaTrainer(ku=100, input_width=118, embed_size=100,
                          hidden_size=64, params=MetaHyperParams(), seed=3)
    rng = np.random.default_rng(3)
    feature = (rng.random(100) < 0.3).astype(np.float64)
    ys = (rng.random(30) < 0.4).astype(np.float64)
    ys[:2] = (1.0, 0.0)
    adapted, _ = trainer.adapt(feature, rng.normal(size=(30, 118)), ys,
                               local_steps=2)
    model, conversion, _ = retrieved_model(trainer, feature)
    parent = model.num_parameters() + conversion.size + feature.size
    assert parent == 58_529 + 100
    state = adapted.state_dict()
    assert elements(state) == 18_429 + 100
    assert elements(state) <= 0.35 * parent
    restored = AdaptedClassifier.from_state_dict(state, trainer)
    assert_same_classifier(restored, adapted)


def test_a_loaded_manager_answers_and_carries_on_bit_for_bit(
        tmp_path, persist_lte, persist_subspaces, make_oracle, eval_rows):
    manager, sids = fed_manager(persist_lte, persist_subspaces, make_oracle,
                                ("meta_star", "meta", "basic"))
    persist.save_manager(tmp_path / "serving", manager)
    restored = persist.load_manager(tmp_path / "serving", persist_lte)
    for front in (manager, restored):
        for sid in sids:
            subspace = persist_subspaces[0]
            state = persist_lte.states[subspace]
            tuples = state.to_raw(state.data[70:73])
            front.add_labels(sid, subspace, tuples, np.array([1, 0, 1]))
    for round_ in range(2):
        want = manager.predict_many(sids, eval_rows)
        got = restored.predict_many(sids, eval_rows)
        for sid in sids:
            assert np.array_equal(got[sid], want[sid])
            for subspace in persist_subspaces:
                assert_same_classifier(
                    restored.session(sid)._subsessions[subspace].adapted,
                    manager.session(sid)._subsessions[subspace].adapted)
        manager.flush()
        restored.flush()


@pytest.mark.parametrize("variant, field", [("meta_star", "tuple_block"),
                                            ("basic", "uis_block")])
def test_a_parent_layout_classifier_is_refused_by_name(
        tmp_path, persist_lte, persist_subspaces, make_oracle, variant,
        field):
    """The layout before: the whole classifier under ``model`` and M_cp
    under ``conversion``."""
    manager, _ = fed_manager(persist_lte, persist_subspaces, make_oracle,
                             (variant,))
    persist.save_manager(tmp_path / "serving", manager)
    state, info = persist.load_checkpoint(tmp_path / "serving")
    for entry in state["snapshot"]["sessions"]:
        for sub_state in entry["state"]["sessions"]:
            adapted = sub_state["adapted"]
            sub_state["adapted"] = {
                "config": adapted["config"],
                "model": {"tuple_block.m0.weight": np.zeros((2, 2))},
                "feature_vector": adapted["feature_vector"],
                "conversion": None if variant == "basic"
                else np.zeros((2, 6))}
    parent = tmp_path / "parent-serving"
    persist.save_checkpoint(parent, "session-manager", state,
                            meta=info["meta"])
    with pytest.raises(CheckpointError, match="'{}'".format(field)):
        persist.load_manager(parent, persist_lte)


def refreshed(lte, subspace):
    """``lte``, ``subspace`` refreshed over drifted data."""
    drifted = lte.table.data.copy()
    drifted[:, list(subspace.columns)] *= 1.5
    lte.refresh_subspace(Table("CAR", lte.table.attributes, drifted),
                         subspace, train=True)
    return lte


def trained_further(lte, subspace):
    """``lte``, its ``subspace`` meta-learner trained on in place."""
    state = lte.states[subspace]
    state.trainer.train(copy.deepcopy(state.task_generator).generate(3),
                        state.encode_scaled)
    return lte


@pytest.mark.parametrize("change", [refreshed, trained_further])
def test_a_restore_against_another_retrieval_is_refused(
        tmp_path, persist_lte, persist_subspaces, make_oracle, change):
    manager, sids = fed_manager(persist_lte, persist_subspaces, make_oracle,
                                ("meta_star", "meta"))
    persist.save_manager(tmp_path / "serving", manager)
    persist.save_session(tmp_path / "session", manager.session(sids[0]))
    other = change(copy.deepcopy(persist_lte), persist_subspaces[1])
    with pytest.raises(CheckpointError, match="does not fit.*retrieves"):
        persist.load_manager(tmp_path / "serving", other)
    with pytest.raises(CheckpointError, match="does not fit.*retrieves"):
        persist.load_session(tmp_path / "session", other)
    # Against the system it was saved over, both restore.
    persist.load_manager(tmp_path / "serving", persist_lte)
    persist.load_session(tmp_path / "session", persist_lte)


@pytest.mark.parametrize("change", [refreshed, trained_further])
def test_a_session_adapted_before_a_change_is_refused_at_save(
        tmp_path, persist_lte, persist_subspaces, make_oracle, eval_rows,
        change):
    """The live manager serves on a Meta* session that adapted before its
    subspace was refreshed or trained on, but a checkpoint of it would
    not restore: saving it is refused and writes nothing.  With it
    closed, the sessions opened since save, load and answer bit for
    bit."""
    lte = copy.deepcopy(persist_lte)
    manager, (stale,) = fed_manager(lte, persist_subspaces, make_oracle,
                                    ("meta_star",))
    change(lte, persist_subspaces[1])
    manager.predict_many([stale], eval_rows)
    with pytest.raises(CheckpointError, match="not checkpointed.*retrieves"):
        persist.save_manager(tmp_path / "serving", manager)
    with pytest.raises(CheckpointError, match="not checkpointed.*retrieves"):
        persist.save_session(tmp_path / "session", manager.session(stale))
    assert not os.listdir(tmp_path)
    manager.close_session(stale)
    _, sids = fed_manager(lte, persist_subspaces, make_oracle,
                          ("meta_star", "meta", "basic"), manager=manager)
    persist.save_manager(tmp_path / "serving", manager)
    restored = persist.load_manager(tmp_path / "serving", lte)
    want = manager.predict_many(sids, eval_rows)
    got = restored.predict_many(sids, eval_rows)
    for sid in sids:
        assert np.array_equal(got[sid], want[sid])
