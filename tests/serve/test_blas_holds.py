"""Which OpenBLAS thread count each serving product runs on.

``repro.nn.cores.one_blas_thread`` holds numpy's OpenBLAS at one thread
for all of an adaptation — the task-wise initialization's memory
retrieval included — and for every prediction over caller rows, lone
and managed.  A store scan's blocks keep the process's count.  A fake
setter/getter pair stands in for the library at two threads, and each
product records the count it would have run on.
"""

import pytest

from repro.core import framework, meta_training
from repro.core.meta_training import MetaTrainer
from repro.nn import cores
from repro.serve import SessionManager
from repro.serve import manager as serve_manager
from repro.store import ChunkStore

pytestmark = pytest.mark.smoke

PROCESS_THREADS = 2


class Recorder:
    """The fake OpenBLAS thread count, and ``(product, count)`` per
    recorded call."""

    def __init__(self):
        self.threads = PROCESS_THREADS
        self.log = []

    def set_threads(self, n):
        self.threads = n

    def record(self, product, fn):
        def recorded(*args, **kwargs):
            self.log.append((product, self.threads))
            return fn(*args, **kwargs)
        return recorded

    def take(self):
        """The counts recorded since the last take, by product."""
        seen = {}
        for product, threads in self.log:
            seen.setdefault(product, set()).add(threads)
        self.log.clear()
        return seen


@pytest.fixture()
def blas(monkeypatch):
    recorder = Recorder()
    monkeypatch.setattr(cores, "_BLAS",
                        (recorder.set_threads, lambda: recorder.threads))
    monkeypatch.setattr(MetaTrainer, "task_retrieval", recorder.record(
        "retrieval", MetaTrainer.task_retrieval))
    monkeypatch.setattr(meta_training, "fused_local_adapt", recorder.record(
        "adapt", meta_training.fused_local_adapt))
    predict = recorder.record("predict", framework.predict_conjunctions)
    monkeypatch.setattr(framework, "predict_conjunctions", predict)
    monkeypatch.setattr(serve_manager, "predict_conjunctions", predict)
    yield recorder
    assert recorder.threads == PROCESS_THREADS      # every hold let go


def label_initial(front, user, sid=None):
    ids = () if sid is None else (sid,)
    for subspace, tuples in front.initial_tuples(*ids).items():
        front.submit_labels(*ids, subspace,
                            user.label_subspace(subspace, tuples))


def label_round(front, lte, user, subspace, sid=None):
    ids = () if sid is None else (sid,)
    state = lte.states[subspace]
    tuples = state.to_raw(state.data[40:45])
    front.add_labels(*ids, subspace, tuples,
                     user.label_subspace(subspace, tuples))


def test_adaptation_runs_held_retrieval_included(
        blas, serve_lte, serve_subspaces, make_oracle):
    user = make_oracle(5)
    session = serve_lte.start_session(variant="meta_star",
                                      subspaces=serve_subspaces)
    label_initial(session, user)
    assert blas.take() == {"retrieval": {1}, "adapt": {1}}
    label_round(session, serve_lte, user, serve_subspaces[0])
    assert blas.take() == {"adapt": {1}}

    manager = SessionManager(serve_lte)
    sid = manager.open_session(variant="meta_star",
                               subspaces=serve_subspaces)
    label_initial(manager, user, sid)
    manager.flush()
    assert blas.take() == {"retrieval": {1}, "adapt": {1}}
    label_round(manager, serve_lte, user, serve_subspaces[0], sid)
    manager.flush()
    assert blas.take() == {"adapt": {1}}


def test_caller_row_predictions_run_held_store_scans_do_not(
        blas, serve_lte, serve_subspaces, make_oracle, eval_rows):
    user = make_oracle(6)
    subspace = serve_subspaces[0]
    points = subspace.project(eval_rows)
    store = ChunkStore.from_table(serve_lte.table, chunk_rows=512)
    session = serve_lte.start_session(variant="meta",
                                      subspaces=serve_subspaces)
    label_initial(session, user)
    manager = SessionManager(serve_lte)
    sid = manager.open_session(variant="meta", subspaces=serve_subspaces)
    label_initial(manager, user, sid)
    manager.flush()
    blas.take()

    held = {
        "lone predict": lambda: session.predict(eval_rows),
        "lone predict_subspace":
            lambda: session.predict_subspace(subspace, points),
        "lone retrieve": lambda: session.retrieve(eval_rows),
        "predict_many": lambda: manager.predict_many([sid], eval_rows),
        "predict": lambda: manager.predict(sid, eval_rows),
        "predict_subspace":
            lambda: manager.predict_subspace(sid, subspace, points),
        "retrieve": lambda: manager.retrieve(sid, eval_rows),
    }
    scans = {
        "lone predict_store": lambda: session.predict_store(store),
        "predict_many_store": lambda: manager.predict_many_store([sid],
                                                                 store),
    }
    for name, call in held.items():
        call()
        assert blas.take() == {"predict": {1}}, name
    for name, call in scans.items():
        call()
        assert blas.take() == {"predict": {PROCESS_THREADS}}, name
    session._store_marks.clear()
    manager.session(sid)._store_marks.clear()
    manager.predict_store(sid, store)
    assert blas.take() == {"predict": {PROCESS_THREADS}}
