"""Online adaptation keeps the task-wise retrieved initialization.

Meta and Meta* train only the tuple and classification blocks online:
after the initial round and every warm one, each classifier's UIS block
(theta_R = phi_R - sigma * omega_R, Eq. 6) and conversion matrix (M_cp,
Eq. 10) are exactly what ``MetaTrainer.task_retrieval`` returns for its
feature vector — in a lone session, through a ``SessionManager`` and in
the workers of a 2-worker ``ShardGateway``.  Basic retrieved nothing and
trains all of its classifier.  Meta-training's inner loop keeps the
retrieval too, without an autograd graph; the parameter memory then
reads theta_R's query gradient (Eq. 15) and the conversion memory the
retrieved M_cp moved by one query-gradient step (Eq. 16).
"""

import copy
import json

import numpy as np
import pytest

from repro.core import VARIANTS, framework
from repro.core.meta_learner import UISClassifier
from repro.nn.tensor import Tensor
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


def start_uis(request):
    """The UIS block a Basic request starts from."""
    if request.start is not None:
        return request.start.model.uis_block.flat_parameters()
    return fresh_uis(request.state, request.config)


def kept_retrieval(state, adapted):
    """Whether ``adapted``'s UIS block and conversion are, bit for bit,
    the task-wise initialization of its feature vector."""
    local, conversion, _ = state.trainer.task_retrieval(
        adapted.feature_vector)
    same_uis = np.array_equal(adapted.model.uis_block.flat_parameters(),
                              local.uis_block.flat_parameters())
    if conversion is None:
        return same_uis and adapted.conversion is None
    return same_uis and np.array_equal(adapted.conversion.data, conversion)


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
    """``classifiers``: ``[(subspace, adapted, start_uis), ...]``."""
    for subspace, adapted, uis in classifiers:
        if variant == "basic":
            assert adapted.conversion is None
            assert not np.array_equal(
                adapted.model.uis_block.flat_parameters(), uis)
        else:
            assert kept_retrieval(lte.states[subspace], adapted)


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
                    classifiers.append((subspace, adapted, previous.get(
                        key, fresh_uis(serve_lte.states[subspace],
                                       serve_lte.config))))
                    previous[key] = \
                        adapted.model.uis_block.flat_parameters().copy()
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
                    verdict = not np.array_equal(
                        result.model.uis_block.flat_parameters(),
                        start_uis(request))
                else:
                    verdict = kept_retrieval(request.state, result)
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
    """A meta-batch's inner loop leaves each task's theta_R and M_cp
    bit-equal to its retrieval and builds no autograd graph (no
    ``Tensor`` node), while its query pass builds one; theta_R's query
    gradient is non-zero and moves M_R (Eq. 15), and M_cp's moves M_CP
    (Eq. 16)."""
    state = serve_lte.states[list(serve_lte.states)[0]]
    trainer = copy.deepcopy(state.trainer)
    tasks = copy.deepcopy(state.task_generator).generate(3)
    encoded = encode_task_sets(tasks, state.encode_scaled)
    slots = [MetaBatchSlot(trainer, encoded, [0, 1, 2])]
    models, inputs = build_meta_batch_inputs(slots)
    adapted, nodes, inside = [], [0], [0]
    real_adapt, real_from_op = engine.fused_local_adapt, Tensor._from_op

    def counted_from_op(*args):
        nodes[0] += 1
        return real_from_op(*args)

    def kept(*args, **kwargs):
        before = nodes[0]
        out = real_adapt(*args, **kwargs)
        inside[0] += nodes[0] - before
        adapted.append(out)
        return out

    monkeypatch.setattr(Tensor, "_from_op", staticmethod(counted_from_op))
    monkeypatch.setattr(engine, "fused_local_adapt", kept)
    result = compute_meta_batch(models, trainer.params, inputs)
    (batched, conversion, _), = adapted
    assert inside[0] == 0
    assert nodes[0] > 0
    for k in range(3):
        uis = np.concatenate([param.data[k].ravel() for param in
                              batched.uis_block.parameters()])
        assert np.array_equal(uis, inputs.shifts[k])
        assert np.array_equal(conversion.data[k], inputs.conversions[k])
        assert all(np.any(grad[k] != 0.0)
                   for name, grad in result.grad_stacks.items()
                   if name.startswith("uis_block."))
        assert not np.array_equal(result.conversion_data[k],
                                  inputs.conversions[k])
    memory = trainer.memories.state_dict()
    apply_meta_batch(slots, inputs, result)
    assert not np.array_equal(trainer.memories.M_R, memory["M_R"])
    assert not np.array_equal(trainer.memories.M_CP, memory["M_CP"])
