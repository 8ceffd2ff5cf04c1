"""Two halves on two threads vs one stack: the fan-out keeps every bit.

``repro.nn.cores.run_stack`` trains a stack of tasks whole or as two
halves on two threads (``fan_out``), with numpy's OpenBLAS held at one
thread either way.  The stacked program is block-diagonal, so the halves
must return exactly the whole stack's slices.  ``LTE.fit_offline`` and
the refresh path prepare their subspaces the same way, two contiguous
halves of the subspace list on two threads, and a state depends only on
its table, config, subspace and index.  The tests force the choice —
every stack of two or more tasks and every preparation of two or more
subspaces splits, or none does — by patching the thresholds and the core
count, so the thread path runs on a runner of any size, and compare bit
for bit at each of the four seams: the serving flush's adapt buckets,
the meta-batch, the pooled pretrain epoch and subspace
preparation; then a paper-size fit with its flush and answers.  The rest
pins the primitive's behaviour: exceptions, nesting, concurrent callers,
the restored BLAS thread count.
"""

import contextlib
import copy
import dataclasses
import math
import pickle
import sys
import threading
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.core import LTE, LTEConfig, VARIANTS, run_adapt_requests
from repro.core import framework, meta_training
from repro.core.meta_training import MetaHyperParams, MetaTrainer
from repro.data import Table, make_car, make_sdss
from repro.data.subspaces import random_decomposition
from repro.nn import cores
from repro.serve import SessionManager
from repro.train import (MetaBatchSlot, OfflineRun, TrainerSchedule,
                         build_meta_batch_inputs, compute_meta_batch,
                         encode_task_sets, engine, run_meta_batch_fused)
from repro.train.engine import run_pretrain_group

import _sequential_oracle as oracle

pytestmark = pytest.mark.train

needs_blas = pytest.mark.skipif(
    cores._BLAS is None,
    reason="no OpenBLAS thread setter: every fan-out runs whole")


@contextlib.contextmanager
def stacks(split):
    """Every stack of two or more tasks and every preparation of two or
    more subspaces splits (``split``) or none does, as on a host of two
    cores."""
    saved = (cores.SPLIT_MACS, framework._PREPARE_SPLIT_WORK,
             cores._STATE.threads)
    cores.SPLIT_MACS = framework._PREPARE_SPLIT_WORK = \
        0 if split else math.inf
    cores._STATE.threads = 2
    try:
        yield
    finally:
        (cores.SPLIT_MACS, framework._PREPARE_SPLIT_WORK,
         cores._STATE.threads) = saved


def both(run):
    """``(run() with every stack split, run() with none)``."""
    with stacks(True):
        split = run()
    with stacks(False):
        whole = run()
    return split, whole


def counter(name):
    return obs.default_registry().value(name)


def assert_arrays_equal(a, b):
    assert len(a) == len(b)
    for x, y in zip(a, b):
        if x is None:
            assert y is None
        else:
            assert np.array_equal(x, y)


# ----------------------------------------------------------------------
# Seam 1: the serving flush's adapt buckets
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def fan_lte():
    table = make_car(n_rows=1500, seed=41)
    lte = LTE(LTEConfig(budget=20, ku=20, kq=25, n_tasks=5,
                        meta=MetaHyperParams(epochs=1, local_steps=2,
                                             batch_size=3,
                                             pretrain_epochs=1),
                        basic_steps=6, online_steps=4))
    return lte.fit_offline(table)


def adapt_requests(lte, variant, k, seed, optimizer, balance):
    """``k`` initial requests of one bucket, under ``optimizer`` and
    ``balance`` (the trainer's and the config's, patched)."""
    subspace = list(lte.states)[0]
    state = copy.copy(lte.states[subspace])
    state.trainer = copy.copy(state.trainer)
    state.trainer.params = replace(state.trainer.params,
                                   local_optimizer=optimizer,
                                   balance_classes=balance)
    config = replace(lte.config, meta=replace(lte.config.meta,
                                              balance_classes=balance))
    rng = np.random.default_rng(seed)
    requests = []
    for i in range(k):
        session = lte.start_session(variant=variant, subspaces=[subspace],
                                    seed=seed + i)
        subsession = session._subsessions[subspace]
        labels = (rng.random(len(subsession.initial_x)) < 0.4).astype(int)
        labels[:2] = (1, 0)
        requests.append(replace(subsession.build_initial_request(labels),
                                state=state, config=config))
    return requests


def adapted_arrays(results):
    return [array for adapted, _ in results
            for array in oracle.classifier_arrays(adapted)]


@settings(deadline=None)
@given(st.sampled_from(VARIANTS), st.integers(2, 7),
       st.sampled_from(["adam", "sgd"]), st.booleans(),
       st.integers(0, 10 ** 6))
def test_adapt_buckets_split_equal_whole(fan_lte, variant, k, optimizer,
                                         balance, seed):
    """Meta*, Meta and Basic; Adam and SGD; odd and even K; class
    balancing on and off: the halves' weights and conversion matrices
    are the whole bucket's."""
    requests = adapt_requests(fan_lte, variant, k, seed, optimizer, balance)
    assert len({r.shape_key() for r in requests}) == 1
    split, whole = both(lambda: adapted_arrays(run_adapt_requests(requests)))
    assert_arrays_equal(split, whole)


@needs_blas
def test_a_forced_bucket_splits_once(fan_lte):
    requests = adapt_requests(fan_lte, "meta", 5, 3, "adam", True)
    before = counter("nn.fan_out.split")
    with stacks(True):
        run_adapt_requests(requests)
    assert counter("nn.fan_out.split") == before + 1


# ----------------------------------------------------------------------
# Seam 2: the meta-batch
# ----------------------------------------------------------------------
def build_trainer(task_generator, preprocessor, use_memories=True, seed=0,
                  **overrides):
    params = dict(epochs=1, local_steps=3, batch_size=4, pretrain_epochs=1,
                  rho=0.02, lam=1e-3)
    params.update(overrides)
    return MetaTrainer(ku=task_generator.summary.ku,
                       input_width=preprocessor.width,
                       embed_size=12, hidden_size=8,
                       params=MetaHyperParams(**params),
                       use_memories=use_memories, seed=seed)


@settings(deadline=None)
@given(st.integers(1, 12), st.booleans(), st.sampled_from(["adam", "sgd"]),
       st.booleans(), st.integers(0, 10 ** 6))
def test_meta_batch_split_equals_whole(task_generator, preprocessor,
                                       meta_tasks, n_tasks, use_memories,
                                       optimizer, balance, seed):
    """A meta-batch split or whole: losses, gradient stacks and the
    conversion memory's M_cp stacks, stitched in task order."""
    encoded = encode_task_sets(meta_tasks[:n_tasks], preprocessor.transform)
    trainer = build_trainer(task_generator, preprocessor,
                            use_memories=use_memories, seed=seed,
                            local_optimizer=optimizer,
                            balance_classes=balance)
    models, inputs = build_meta_batch_inputs(
        [MetaBatchSlot(trainer, encoded, list(range(len(encoded))))])
    split, whole = both(lambda: compute_meta_batch(models, trainer.params,
                                                   inputs))
    assert split.losses == whole.losses
    assert split.grad_stacks.keys() == whole.grad_stacks.keys()
    for name, grad in whole.grad_stacks.items():
        assert np.array_equal(split.grad_stacks[name], grad), name
    assert_arrays_equal([split.conversion_data], [whole.conversion_data])


# ----------------------------------------------------------------------
# Seam 3: the pooled pretrain epoch
# ----------------------------------------------------------------------
def pretrain_state(schedule):
    state = schedule.pretrain_opt_state
    return ([schedule.trainer.model.flat_parameters(), state["step"]]
            + list(state["m"]) + list(state["v"]))


@settings(deadline=None)
@given(st.integers(2, 5), st.booleans(), st.integers(0, 10 ** 6))
def test_pretrain_groups_split_equal_whole(task_generator, preprocessor,
                                           meta_tasks, s, use_memories,
                                           seed):
    """Two epochs, the Adam moments carried across the boundary through
    each schedule's slice: phi and moments of a split group are the
    whole group's."""
    encoded = encode_task_sets(meta_tasks[:6], preprocessor.transform)

    def run():
        group = [TrainerSchedule(build_trainer(
            task_generator, preprocessor, use_memories=use_memories,
            seed=seed + i), encoded) for i in range(s)]
        for _ in range(2):
            run_pretrain_group(group)
        return [array for schedule in group
                for array in pretrain_state(schedule)]

    split, whole = both(run)
    assert_arrays_equal(split, whole)


class _Killed(Exception):
    pass


def resume_config():
    return LTEConfig(budget=20, ku=20, kq=25, n_tasks=5,
                     meta=MetaHyperParams(epochs=1, local_steps=2,
                                          batch_size=3, pretrain_epochs=2),
                     basic_steps=6, online_steps=3)


def trainer_arrays(lte):
    out = []
    for state in lte.states.values():
        out.append(state.trainer.model.flat_parameters())
        out.extend(state.trainer.memories.state_dict()[key]
                   for key in ("M_vR", "M_R", "M_CP"))
    return out


@pytest.mark.parametrize("first,then", [(True, False), (False, True)])
def test_pretrain_checkpoint_resumes_across_the_split(tmp_path, first, then):
    """A ``pretrain-run`` checkpoint written after a split pretrain epoch
    (cursor 1/2, Adam moments carried) resumes whole to the
    uninterrupted run's phi, and the reverse."""
    table = make_car(n_rows=1500, seed=41)
    subspaces = random_decomposition(table, dim=2, seed=0)[:3]
    checkpoint = str(tmp_path / "run")

    def progress(subspace, stage):
        if stage == ("pretrain", 1):
            raise _Killed()

    with stacks(first), pytest.raises(_Killed):
        LTE(resume_config()).fit_offline(table, subspaces=subspaces,
                                         progress=progress,
                                         checkpoint=checkpoint)
    with stacks(then):
        resumed = LTE(resume_config()).fit_offline(
            table, subspaces=subspaces, checkpoint=checkpoint)
    with stacks(first):
        uninterrupted = LTE(resume_config()).fit_offline(
            table, subspaces=subspaces)
    assert_arrays_equal(trainer_arrays(resumed),
                        trainer_arrays(uninterrupted))


# ----------------------------------------------------------------------
# Seam 4: subspace preparation
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def nine_attributes():
    """Nine attributes of clustered rows: ``random_decomposition`` emits
    four 2-D subspaces and a 1-D trailing one."""
    rng = np.random.default_rng(17)
    centres = rng.uniform(-5.0, 5.0, size=(6, 9))
    data = centres[rng.integers(6, size=1500)] \
        + rng.normal(scale=0.6, size=(1500, 9))
    table = Table("nine", ["a{}".format(i) for i in range(9)], data)
    subspaces = random_decomposition(table, dim=2, seed=0)
    assert [s.dim for s in subspaces] == [2, 2, 2, 2, 1]
    return table, subspaces


def prepared_fields(lte):
    """Every array a prepared state holds, subspace by subspace: the
    normalized sample, the scaler's bounds, each cluster-summary array,
    the pickled preprocessor and the quantization baseline."""
    out = []
    for subspace, state in lte.states.items():
        summary = state.summary
        out += [np.asarray(subspace.columns), state.data, state.scaler.min_,
                state.scaler.max_]
        out += [getattr(summary, f.name) for f in dataclasses.fields(summary)
                if f.compare]
        out += [np.frombuffer(pickle.dumps(state.preprocessor), np.uint8),
                np.float64(state.quantization_baseline)]
    return out


def prepare(table, subspaces, config=None):
    return LTE(config or resume_config()).fit_offline(
        table, subspaces=subspaces, train=False)


@pytest.mark.parametrize("n", [1, 2, 3, 5])
@pytest.mark.parametrize("backend", ["memory", "store"])
def test_preparation_halves_equal_whole(nine_attributes, backend, n):
    """One to five subspaces, the fifth the 1-D trailing one, over a
    table and over a chunk store (zone-map scaler, chunk sample)."""
    table, subspaces = nine_attributes
    if backend == "store":
        table = table.to_store(chunk_rows=256)
    split, whole = both(lambda: prepared_fields(
        prepare(table, subspaces[:n])))
    assert_arrays_equal(split, whole)


@needs_blas
@pytest.mark.parametrize("config", [resume_config(), LTEConfig()],
                         ids=["small", "paper"])
def test_preparation_on_one_blas_thread_equals_the_default(config):
    """Preparation in a half runs with OpenBLAS held at one thread; the
    clustering products give the default thread count's bits, at small
    and at paper-size cluster counts."""
    table = make_sdss(3000, seed=5)
    subspaces = random_decomposition(table, dim=2, seed=0)[:2]
    with stacks(False):
        default = prepared_fields(prepare(table, subspaces, config))
        with cores.one_blas_thread():
            held = prepared_fields(prepare(table, subspaces, config))
    assert_arrays_equal(held, default)


def test_preparation_metrics_are_the_same_split_or_whole(nine_attributes):
    table, subspaces = nine_attributes
    registry = obs.default_registry

    def run():
        before = (registry().value("ml.kmeans.iterations"),
                  registry().histogram("core.offline.prepare.seconds").count)
        prepare(table, subspaces)
        return (registry().value("ml.kmeans.iterations") - before[0],
                registry().histogram("core.offline.prepare.seconds").count
                - before[1])

    split, whole = both(run)
    assert split == whole
    assert whole[1] == len(subspaces) and whole[0] >= 3 * len(subspaces)


def test_prepared_events_follow_every_preparation_in_order(nine_attributes):
    """``"prepared"`` fires once a subspace, in index order, after every
    state is installed."""
    table, subspaces = nine_attributes

    def run():
        lte = LTE(resume_config())
        events = []

        def progress(subspace, stage):
            if stage == "prepared":
                events.append((subspace, len(lte.states)))

        lte.fit_offline(table, subspaces=subspaces, train=False,
                        progress=progress)
        return events

    split, whole = both(run)
    assert split == whole == [(s, len(subspaces)) for s in subspaces]


@needs_blas
def test_a_split_preparation_splits_once(nine_attributes):
    table, subspaces = nine_attributes
    with stacks(True):
        before = counter("nn.fan_out.split")
        prepare(table, subspaces)
        assert counter("nn.fan_out.split") == before + 1


@needs_blas
def test_a_preparation_beside_a_fan_out_runs_whole(nine_attributes):
    """Another thread holds the fan-out lock: the fit prepares whole, on
    this thread, to the states it prepares alone."""
    table, subspaces = nine_attributes
    taken, release = threading.Event(), threading.Event()

    def holder():
        with cores._STATE.fan_out:
            taken.set()
            release.wait(60)

    with stacks(True):
        alone = prepared_fields(prepare(table, subspaces))
        thread = threading.Thread(target=holder)
        thread.start()
        try:
            assert taken.wait(60)
            split = counter("nn.fan_out.split")
            whole = counter("nn.fan_out.whole")
            beside = prepared_fields(prepare(table, subspaces))
            assert counter("nn.fan_out.split") == split
            assert counter("nn.fan_out.whole") == whole + 1
        finally:
            release.set()
            thread.join(60)
    assert_arrays_equal(beside, alone)


class _Flagged:
    """A freshness monitor that flags a fixed list of subspaces."""

    def __init__(self, subspaces):
        self.subspaces = list(subspaces)
        self.registered = []

    def drifted(self):
        return list(self.subspaces)

    def register(self, subspace, columns, lo, hi):
        self.registered.append(subspace)


def test_refresh_drifted_equals_a_loop_of_refresh_subspace(nine_attributes):
    """Three of four subspaces, out of index order, refreshed on shifted
    rows: split through ``refresh_drifted`` and whole through one
    ``refresh_subspace`` a subspace, the states and trainers are equal
    and each refreshed subspace kept its index (hence its seeds)."""
    table, subspaces = nine_attributes
    subspaces = subspaces[:4]
    fitted = prepare(table, subspaces)
    shifted = Table("shifted", table.attribute_names,
                    table.data * 1.5 + 2.0)
    targets = [subspaces[3], subspaces[0], subspaces[2]]
    one, loop = copy.deepcopy(fitted), copy.deepcopy(fitted)
    monitor = _Flagged(targets)
    with stacks(True):
        assert one.refresh_drifted(shifted, monitor) == targets
    with stacks(False):
        for subspace in targets:
            loop.refresh_subspace(shifted, subspace)
    assert monitor.registered == targets
    assert list(one.states) == list(loop.states) == subspaces
    assert_arrays_equal(prepared_fields(one), prepared_fields(loop))
    assert_arrays_equal(
        [one.states[s].trainer.model.flat_parameters() for s in targets],
        [loop.states[s].trainer.model.flat_parameters() for s in targets])


# ----------------------------------------------------------------------
# All three at paper size
# ----------------------------------------------------------------------
@pytest.mark.slow
def test_paper_size_fit_flush_and_answers_split_equal_whole():
    """Paper-size nets (Ne = 100, H = 64, ku = 100, kq = 200): a
    two-subspace ``fit_offline``, a flush of four sessions (eight tasks),
    a round of extra labels and the answers — forced split vs forced
    whole."""
    table = make_sdss(3000, seed=5)
    config = LTEConfig(n_tasks=4, meta=MetaHyperParams(
        epochs=1, local_steps=2, batch_size=4, pretrain_epochs=1))

    def run():
        lte = LTE(config).fit_offline(table, subspaces=subspaces)
        manager = SessionManager(lte)
        rng = np.random.default_rng(7)
        sids = [manager.open_session(subspaces=subspaces, seed=i)
                for i in range(4)]
        for sid in sids:
            for subspace, tuples in manager.initial_tuples(sid).items():
                labels = (rng.random(len(tuples)) < 0.4).astype(int)
                manager.submit_labels(sid, subspace, labels)
        manager.flush()
        for sid in sids:
            for subspace in subspaces:
                extra = subspace.project(table.data[rng.integers(3000,
                                                                 size=5)])
                manager.add_labels(sid, subspace, extra,
                                   (rng.random(5) < 0.4).astype(int))
        manager.flush()
        answers = manager.predict_many(sids, rows)
        out = trainer_arrays(lte) + [answers[sid] for sid in sids]
        for sid in sids:
            for subsession in manager.session(sid)._subsessions.values():
                out.extend(oracle.classifier_arrays(subsession.adapted))
        return out

    subspaces = random_decomposition(table, dim=2, seed=0)[:2]
    rows = table.sample_rows(300, seed=3)
    split, whole = both(run)
    assert_arrays_equal(split, whole)


# ----------------------------------------------------------------------
# The primitive's behaviour
# ----------------------------------------------------------------------
@needs_blas
def test_a_helper_exception_re_raises_with_its_type():
    def fn(part):
        if part == ["helper"]:
            raise KeyError("the helper's half")
        return part

    with stacks(True):
        with pytest.raises(KeyError, match="the helper's half"):
            cores.fan_out(fn, ["caller"], ["helper"])
        assert cores.fan_out(fn, ["caller"], ["other"]) == \
            [["caller"], ["other"]]


@needs_blas
def test_a_failed_half_leaves_the_queue_for_a_retry(fan_lte, monkeypatch):
    """The helper half of a flush fails: the flush re-raises its error
    and nothing is installed — every item stays queued (the manager's
    retry contract), and the retry answers what an untroubled manager
    answers."""
    real = meta_training.fused_local_adapt

    def flaky(*args, **kwargs):
        if threading.current_thread().name == "repro-fan-out":
            raise FloatingPointError("the helper's half")
        return real(*args, **kwargs)

    subspaces = list(fan_lte.states)[:2]
    rows = fan_lte.table.sample_rows(200, seed=5)

    def fed_manager():
        manager = SessionManager(fan_lte)
        rng = np.random.default_rng(11)
        sids = [manager.open_session(subspaces=subspaces, seed=i)
                for i in range(4)]
        for sid in sids:
            for subspace, tuples in manager.initial_tuples(sid).items():
                labels = (rng.random(len(tuples)) < 0.4).astype(int)
                manager.submit_labels(sid, subspace, labels)
        return manager, sids

    with stacks(True):
        manager, sids = fed_manager()
        queued = manager.pending()
        monkeypatch.setattr(meta_training, "fused_local_adapt", flaky)
        with pytest.raises(FloatingPointError, match="the helper's half"):
            manager.flush()
        assert manager.pending() == queued
        assert all(not ss.adapted for sid in sids for ss in
                   manager.session(sid)._subsessions.values())
        monkeypatch.setattr(meta_training, "fused_local_adapt", real)
        assert manager.flush() == len(queued)
        reference, ref_sids = fed_manager()
        reference.flush()
    got = manager.predict_many(sids, rows)
    want = reference.predict_many(ref_sids, rows)
    for sid, ref_sid in zip(sids, ref_sids):
        assert np.array_equal(got[sid], want[ref_sid])


def meta_state(trainer):
    memories = trainer.memories.state_dict()
    return [trainer.model.flat_parameters()] + [
        memories[key] for key in ("M_vR", "M_R", "M_CP")]


@needs_blas
def test_a_failed_half_leaves_the_trainer_for_a_retry(task_generator,
                                                      preprocessor,
                                                      meta_tasks,
                                                      monkeypatch):
    """The helper half of a meta-batch fails: the batch re-raises its
    error before the ordered reduction, so phi and the memories are
    untouched, and the retry trains what an untroubled batch trains."""
    real = engine.fused_local_adapt

    def flaky(*args, **kwargs):
        if threading.current_thread().name == "repro-fan-out":
            raise FloatingPointError("the helper's half")
        return real(*args, **kwargs)

    encoded = encode_task_sets(meta_tasks[:6], preprocessor.transform)

    def slots(trainer):
        return [MetaBatchSlot(trainer, encoded, [4, 0, 5, 2])]

    with stacks(True):
        trainer = build_trainer(task_generator, preprocessor)
        before = meta_state(trainer)
        monkeypatch.setattr(engine, "fused_local_adapt", flaky)
        with pytest.raises(FloatingPointError, match="the helper's half"):
            run_meta_batch_fused(slots(trainer))
        assert_arrays_equal(meta_state(trainer), before)
        monkeypatch.setattr(engine, "fused_local_adapt", real)
        losses = run_meta_batch_fused(slots(trainer))
        reference = build_trainer(task_generator, preprocessor)
        assert run_meta_batch_fused(slots(reference)) == losses
    assert_arrays_equal(meta_state(trainer), meta_state(reference))


def test_epoch_events_are_the_same_split_or_whole(task_generator,
                                                  preprocessor, meta_tasks):
    """Two fused schedules report every pretrain and meta epoch in the
    same order with the same losses whether their stacks split."""
    encoded = encode_task_sets(meta_tasks[:6], preprocessor.transform)

    def run():
        schedules = [TrainerSchedule(build_trainer(
            task_generator, preprocessor, seed=seed, epochs=2), encoded)
            for seed in (0, 1)]
        events = []
        OfflineRun(schedules, on_epoch=lambda s, kind, epoch, loss:
                   events.append((schedules.index(s), kind, epoch, loss))
                   ).run()
        return events

    split, whole = both(run)
    assert split == whole
    assert [event[:3] for event in whole] == [
        (0, "pretrain", 0), (1, "pretrain", 0), (0, "meta", 0),
        (1, "meta", 0), (0, "meta", 1), (1, "meta", 1)]


@needs_blas
def test_no_fan_out_nests():
    """Inside a half, a fan-out or a splitting stack runs whole, on the
    thread of the half that asked."""
    threads = {}

    def inner(part):
        threads.setdefault(part[0], set()).add(
            threading.current_thread().name)
        return part

    def outer(part):
        nested = cores.fan_out(inner, part, [part[0] + "'"])
        stacked = cores.run_stack(inner, [part[0] + "2", part[0] + "3"], 0)
        return len(nested), len(stacked)

    with stacks(True):
        assert cores.fan_out(outer, ["a"], ["b"]) == [(1, 1), (1, 1)]
    assert threads["a"] | threads["a2"] == {threading.current_thread().name}
    assert threads["b"] == threads["b2"] == {"repro-fan-out"}


@needs_blas
def test_two_managers_flushing_beside_a_predicting_thread(fan_lte):
    """Two managers flush from two threads — one fans out, the other
    finds the lock taken and runs whole — while a third thread loops
    ``predict_many``: every answer is the serial replay's."""
    subspaces = list(fan_lte.states)[:2]
    row_sets = [fan_lte.table.sample_rows(150, seed=s) for s in range(6)]

    def fed_manager(seed, n):
        manager = SessionManager(fan_lte)
        rng = np.random.default_rng(seed)
        sids = [manager.open_session(subspaces=subspaces, seed=seed + i)
                for i in range(n)]
        for sid in sids:
            for subspace, tuples in manager.initial_tuples(sid).items():
                labels = (rng.random(len(tuples)) < 0.4).astype(int)
                manager.submit_labels(sid, subspace, labels)
        return manager, sids

    def answers(manager, sids):
        return [manager.predict_many(sids, rows) for rows in row_sets]

    with stacks(True):
        serial = []
        for seed, n in ((1, 4), (2, 3), (3, 2)):
            manager, sids = fed_manager(seed, n)
            manager.flush()
            serial.append(answers(manager, sids))

        (first, first_sids), (second, second_sids), (third, third_sids) = \
            [fed_manager(seed, n) for seed, n in ((1, 4), (2, 3), (3, 2))]
        third.flush()
        barrier = threading.Barrier(3)
        looped = []

        def flush(manager):
            barrier.wait()
            manager.flush()

        def predict():
            barrier.wait()
            looped.append(answers(third, third_sids))

        workers = [threading.Thread(target=flush, args=(first,)),
                   threading.Thread(target=flush, args=(second,)),
                   threading.Thread(target=predict)]
        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join(timeout=120)
        finally:
            sys.setswitchinterval(switch)
        assert not any(worker.is_alive() for worker in workers)
        concurrent = [answers(first, first_sids),
                      answers(second, second_sids), looped[0]]
    for got, want in zip(concurrent, serial):
        for got_round, want_round in zip(got, want):
            assert [list(a) for a in got_round.values()] == \
                [list(a) for a in want_round.values()]


@needs_blas
def test_the_blas_thread_count_is_restored():
    """One BLAS thread inside every half; the count found before a
    fan-out — a split, a nested hold, a failed half — is back after."""
    set_threads, get_threads = cores._BLAS
    seen = []

    def fn(part):
        seen.append(get_threads())
        if part == ["fail"]:
            raise RuntimeError("boom")
        return part

    before = get_threads()
    try:
        set_threads(3)
        with stacks(True):
            cores.fan_out(fn, ["a"], ["b"])
            assert get_threads() == 3
            cores.run_stack(fn, ["a", "b", "c"], 0)
            assert get_threads() == 3
            for parts in ((["fail"], ["b"]), (["a"], ["fail"])):
                with pytest.raises(RuntimeError):
                    cores.fan_out(fn, *parts)
                assert get_threads() == 3
        with stacks(False):
            cores.run_stack(fn, ["a", "b"], 0)
            assert get_threads() == 3
        assert set(seen) == {1}
    finally:
        set_threads(before)


@needs_blas
def test_holds_from_many_threads_restore_the_count():
    """Eight threads, each splitting or running whole twenty stacks at
    once under a short switch interval: every stack trains on one BLAS
    thread, and the count the first hold found is back after the last —
    a lost update to the holds' count would break either."""
    set_threads, get_threads = cores._BLAS
    before = get_threads()
    seen, results = [], []

    def fn(part):
        seen.append(get_threads())
        return sum(part)

    def loop(offset):
        for i in range(20):
            parts = cores.run_stack(fn, [offset, i, 1], 0)
            results.append(sum(parts) == offset + i + 1)

    threads = [threading.Thread(target=loop, args=(offset,))
               for offset in range(8)]
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with stacks(True):
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
    finally:
        sys.setswitchinterval(switch)
    assert not any(thread.is_alive() for thread in threads)
    assert len(results) == 160 and all(results)
    assert set(seen) == {1}
    assert get_threads() == before


@pytest.mark.parametrize("conversion", [True, False])
def test_step_macs_counts_the_parameters_a_step_trains(conversion):
    """An online step trains the tuple and classification blocks only:
    its estimate drops the UIS block and the conversion matrix."""
    config = dict(ku=100, input_width=118, embed_size=100, hidden_size=64,
                  use_conversion=conversion)
    frozen = (100 + 1) * 100 + (3 * 100 * 100 if conversion else 0)
    assert cores.step_macs(config, 8, 30) \
        - cores.step_macs(config, 8, 30, keep_retrieved=True) == 8 * frozen
