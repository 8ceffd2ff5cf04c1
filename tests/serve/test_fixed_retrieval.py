"""Online adaptation keeps the task-wise retrieved initialization.

Meta and Meta* train only the tuple and classification blocks online:
a classifier holds those two blocks and the retrieval's constants
(``emb_R``, ``W = M2 + M3 * emb_R`` and ``c = emb_R @ M1^T``), and after
the initial round and every warm one those constants are exactly what
``MetaTrainer.task_retrieval`` returns for its feature vector (theta_R
= phi_R - sigma * omega_R, Eq. 6; M_cp, Eq. 10) — the very arrays of
round 0, carried by reference by every warm round — in a lone session,
through a ``SessionManager`` and in the workers of a 2-worker
``ShardGateway``.  Basic retrieved nothing and trains all of its
classifier.  Meta-training's inner loop keeps the retrieval too; the
parameter memory then reads theta_R's query
gradient (Eq. 15) and the conversion memory the retrieved M_cp moved by
one query-gradient step (Eq. 16).
"""

import copy
import json

import numpy as np
import pytest

from repro.core import VARIANTS, framework
from repro.core.meta_learner import UISClassifier
from repro.nn.batching import (flat_leaves, retrieval_constants,
                               stack_parameters)
from repro.serve import SessionManager
from repro.shard import ShardGateway
from repro.train import (MetaBatchSlot, apply_meta_batch,
                         build_meta_batch_inputs, compute_meta_batch,
                         encode_task_sets, engine)

ROUNDS = 2
SEEDS = (0, 1)


def extra_tuples(lte, subspace, round_, session):
    state = lte.states[subspace]
    start = 60 + 13 * round_ + 5 * session
    return state.to_raw(state.data[start:start + 5])


def fresh_uis(state, cfg):
    """The UIS block of Basic's fresh classifier for ``state``."""
    return UISClassifier(
        ku=state.summary.ku, input_width=state.preprocessor.width,
        embed_size=cfg.embed_size, hidden_size=cfg.hidden_size,
        use_conversion=False, seed=cfg.seed).uis_block.flat_parameters()


def uis_flat(adapted):
    """The UIS block a Basic classifier trained, as one flat vector."""
    return np.concatenate([array.ravel()
                           for leaf in adapted.blocks["uis_block"]
                           if leaf is not None for array in leaf])


def start_uis(request):
    """The UIS block a Basic request starts from."""
    if request.start is not None:
        return uis_flat(request.start)
    return fresh_uis(request.state, request.config)


def kept_retrieval(state, adapted):
    """Whether ``adapted`` holds no UIS block and its retrieval's
    constants are, bit for bit, those ``task_retrieval`` computes for its
    feature vector."""
    retrieval, _ = state.trainer.task_retrieval(adapted.feature_vector)
    return "uis_block" not in adapted.blocks and all(
        (want is None and got is None) or (
            want is not None and got is not None
            and np.array_equal(got, want))
        for got, want in zip(adapted.retrieval, retrieval))


def rounds(front, lte, sids, user, subspaces, flush):
    """The initial labels, then ``ROUNDS`` warm rounds, each flushed."""
    for sid in sids:
        for subspace, tuples in front.initial_tuples(sid).items():
            front.submit_labels(sid, subspace,
                                user.label_subspace(subspace, tuples))
    flush()
    yield 0
    for round_ in range(1, ROUNDS + 1):
        for k, sid in enumerate(sids):
            for subspace in subspaces:
                tuples = extra_tuples(lte, subspace, round_, k)
                front.add_labels(sid, subspace, tuples,
                                 user.label_subspace(subspace, tuples))
        flush()
        yield round_


def check_classifiers(lte, variant, classifiers):
    """``classifiers``: ``[(subspace, adapted, start), ...]``, ``start``
    the UIS block a Basic classifier started from, and for Meta / Meta*
    the classifier a warm round continued (None at round 0)."""
    for subspace, adapted, start in classifiers:
        if variant == "basic":
            assert adapted.retrieval.weight is None
            assert not np.array_equal(uis_flat(adapted), start)
        else:
            assert kept_retrieval(lte.states[subspace], adapted)
            if start is not None:
                assert adapted.retrieval is start.retrieval


@pytest.mark.parametrize("variant", VARIANTS)
def test_lone_and_managed_rounds_keep_the_retrieved_initialization(
        serve_lte, serve_subspaces, make_oracle, variant):
    user = make_oracle(97)
    lone = [serve_lte.start_session(variant=variant,
                                    subspaces=serve_subspaces, seed=s)
            for s in SEEDS]
    manager = SessionManager(serve_lte)
    sids = [manager.open_session(variant=variant, subspaces=serve_subspaces,
                                 seed=s) for s in SEEDS]
    previous = {}
    for round_ in rounds(manager, serve_lte, sids, user, serve_subspaces,
                         manager.flush):
        for k, session in enumerate(lone):
            for subspace in serve_subspaces:
                if round_ == 0:
                    tuples = session.initial_tuples()[subspace]
                    session.submit_labels(
                        subspace, user.label_subspace(subspace, tuples))
                else:
                    tuples = extra_tuples(serve_lte, subspace, round_, k)
                    session.add_labels(subspace, tuples,
                                       user.label_subspace(subspace, tuples))
        classifiers = []
        for k, sid in enumerate(sids):
            for session in (lone[k], manager.session(sid)):
                for subspace in serve_subspaces:
                    adapted = session._subsessions[subspace].adapted
                    key = (id(session), subspace)
                    if variant == "basic":
                        start = previous.get(key, fresh_uis(
                            serve_lte.states[subspace], serve_lte.config))
                        previous[key] = uis_flat(adapted)
                    else:
                        start = previous.get(key)
                        previous[key] = adapted
                    classifiers.append((subspace, adapted, start))
        check_classifiers(serve_lte, variant, classifiers)


@pytest.mark.parametrize("variant", VARIANTS)
def test_sharded_rounds_keep_the_retrieved_initialization(
        tmp_path, monkeypatch, serve_lte, serve_subspaces, make_oracle,
        variant):
    """Each worker checks the classifiers its flushes adapt and logs the
    verdicts to a file (the workers are forked after the wrapper is in
    place, so they run it)."""
    log = tmp_path / "verdicts.jsonl"
    real = framework._adapt_bucket

    def checked(requests):
        adapted = real(requests)
        with open(log, "a", encoding="utf-8") as fh:
            for request, result in zip(requests, adapted):
                if request.variant == "basic":
                    verdict = not np.array_equal(uis_flat(result),
                                                 start_uis(request))
                else:
                    verdict = kept_retrieval(request.state, result) and (
                        request.start is None
                        or result.retrieval is request.start.retrieval)
                fh.write(json.dumps({"warm": request.start is not None,
                                     "ok": bool(verdict)}) + "\n")
        return adapted

    monkeypatch.setattr(framework, "_adapt_bucket", checked)
    user = make_oracle(101)
    with ShardGateway(serve_lte, n_workers=2) as gateway:
        gids = [gateway.open_session(variant=variant,
                                     subspaces=serve_subspaces, seed=s)
                for s in SEEDS]
        assert len({gateway._sessions[gid] for gid in gids}) == 2
        for _ in rounds(gateway, serve_lte, gids, user, serve_subspaces,
                        gateway.flush_all):
            pass
    verdicts = [json.loads(line) for line in log.read_text().splitlines()]
    per_round = len(SEEDS) * len(serve_subspaces)
    assert len(verdicts) == per_round * (ROUNDS + 1)
    assert sum(v["warm"] for v in verdicts) == per_round * ROUNDS
    assert all(v["ok"] for v in verdicts)


@pytest.mark.train
def test_meta_training_keeps_the_retrieval_and_feeds_the_memories(
        serve_lte, monkeypatch):
    """A meta-batch's inner loop leaves each task's theta_R bit-equal to
    its retrieval and reads the constants of that theta_R and the
    retrieved M_cp; theta_R's query
    gradient is non-zero and moves M_R (Eq. 15), and M_cp's moves M_CP
    (Eq. 16)."""
    state = serve_lte.states[list(serve_lte.states)[0]]
    trainer = copy.deepcopy(state.trainer)
    tasks = copy.deepcopy(state.task_generator).generate(3)
    encoded = encode_task_sets(tasks, state.encode_scaled)
    slots = [MetaBatchSlot(trainer, encoded, [0, 1, 2])]
    models, inputs = build_meta_batch_inputs(slots)
    adapted = []
    real_adapt = engine.fused_local_adapt

    def kept(*args, **kwargs):
        out = real_adapt(*args, **kwargs)
        adapted.append((args[1], kwargs["retrieved"]))
        return out

    monkeypatch.setattr(engine, "fused_local_adapt", kept)
    result = compute_meta_batch(models, trainer.params, inputs)
    (batched, retrieved), = adapted
    for k in range(3):
        uis = np.concatenate([param.data[k].ravel() for param in
                              stack_parameters(batched, ["uis_block"])])
        assert np.array_equal(uis, inputs.shifts[k])
        want = retrieval_constants(
            flat_leaves(trainer.model.uis_block, inputs.shifts[k]),
            inputs.features[k].reshape(1, -1), inputs.conversions[k])
        for got_part, want_part in zip(retrieved, want):
            assert np.array_equal(got_part[k], want_part)
        assert all(np.any(grad[k] != 0.0)
                   for name, grad in result.grad_stacks.items()
                   if name.startswith("uis_block."))
        assert not np.array_equal(result.conversion_data[k],
                                  inputs.conversions[k])
    memory = trainer.memories.state_dict()
    apply_meta_batch(slots, inputs, result)
    assert not np.array_equal(trainer.memories.M_R, memory["M_R"])
    assert not np.array_equal(trainer.memories.M_CP, memory["M_CP"])
