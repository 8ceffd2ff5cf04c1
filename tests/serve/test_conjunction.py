"""Answering the conjunction returns the answers of "score every row in
every subspace, then refine, then AND" (``_predict_oracle.py``).

``predict_conjunctions`` lets every subspace's hulls decide first and
then encodes and scores only the rows still open *and* alive, so what a
classifier sees in one subspace depends on the session's other
subspaces.  Three things are pinned here:

* **answers** — 0/1 vectors ``array_equal`` to the oracle on every path
  (session, manager, 2-worker gateway; a store scanned incrementally or
  cold), over sessions with *different* subspace sets and several state
  generations in one call, for fuzzed row sets that include the empty,
  the tiny, rows far outside every hull and rows at hull centres;
* **mechanism** — by wrapping ``AdaptedClassifier.predict_proba`` and
  ``TabularPreprocessor.transform``: a kernel call sees exactly the rows
  ``open ∩ alive`` of its session, an encode exactly the union of its
  group's kernel calls, and neither runs for a block geometry settles;
* **repeats** — a repeated call recomputes and answers alike, and every
  returned answer is the caller's to mutate.

Example counts come from the hypothesis profile (``x10`` in CI's serving
lane, registered in ``tests/conftest.py``).
"""

import copy

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import _predict_oracle as oracle
import _refine_oracle as refine_oracle
from test_predict_oracle_parity import draw_rows, forget_marks, labels_for
from test_serving_bugfixes import _perturb_phi
from repro.core.meta_training import AdaptedClassifier
from repro.core.preprocessing import TabularPreprocessor
from repro.data.schema import Table
from repro.persist import load_pretrained, save_pretrained
from repro.serve import SessionManager
from repro.shard import ShardGateway

SETTLED, SCORED, SKIPPED = ("serve.manager.predict.rows." + kind
                            for kind in ("settled", "scored", "skipped"))

#: (variant, label-oracle seed(s), subspaces explored), as in the PR-16
#: module.  The subspace *sets* differ — and so does their order — so one
#: ``predict_many`` call mixes conjunctions of one, two and three, and a
#: subspace group holds sessions whose other subspaces differ.
FLEET = [("meta_star", 3, (0, 1)), ("meta_star", 4, (0, 1, 2)),
         ("meta_star", (5, None), (0, 1)), ("meta", 6, (1, 2)),
         ("basic", 7, (0, 2)), ("meta_star", 8, (1,)),
         ("meta_star", 9, (2, 0)), ("basic", 10, (0, 1, 2)),
         ("meta", 11, (1, 0)), ("meta_star", (None, 12, 13), (2, 1, 0))]
#: Every FLEET entry is opened once per generation.  Generations 0 and 1
#: exist on all three fronts; generation 2 (a subspace refreshed over
#: drifted data) only where the table can drift: manager and sessions.
GENERATIONS = 3
ON_GATEWAY = 2 * len(FLEET)


def drive(front, lte, make_oracle, entry, index):
    """Open and label one FLEET session on a manager or gateway."""
    variant, seed, explored = entry
    subspaces = [list(lte.states)[i] for i in explored]
    sid = front.open_session(variant=variant, subspaces=subspaces,
                             seed=index)
    for position, (subspace, tuples) in enumerate(
            front.initial_tuples(sid).items()):
        front.submit_labels(sid, subspace, labels_for(
            make_oracle, lte, seed, subspace, tuples, position))
    return sid


@pytest.fixture(scope="module")
def fleet(serve_lte, make_oracle, tmp_path_factory):
    """FLEET x GENERATIONS sessions on one manager, as sequential
    ``ExplorationSession`` twins and (the first two generations) on a
    2-worker gateway.

    Generation 1 is a model broadcast: subspace 0 re-prepared (a new
    state object, equal artifacts) and a perturbed phi installed in
    every subspace — ``publish_model(path, refresh=...)`` on the gateway,
    the same two steps by hand on the manager's LTE.  Generation 2
    refreshes subspace 1 over drifted data, so its scaler and encoder
    really differ from the ones older sessions adapted under.
    """
    lte = copy.deepcopy(serve_lte)
    subspaces = list(lte.states)
    manager = SessionManager(lte)
    gateway = ShardGateway(lte, n_workers=2)
    sessions, manager_ids, gateway_ids = [], [], []

    def open_generation(fronts):
        for entry in FLEET:
            variant, seed, explored = entry
            index = len(manager_ids)
            manager_ids.append(drive(manager, lte, make_oracle, entry,
                                     index))
            if gateway in fronts:
                gateway_ids.append(drive(gateway, lte, make_oracle, entry,
                                         index))
            # The sequential twin adapts on its own, now, under the
            # states this generation sees.
            twin = lte.start_session(
                variant=variant, seed=index,
                subspaces=[subspaces[i] for i in explored])
            for position, (subspace, tuples) in enumerate(
                    twin.initial_tuples().items()):
                twin.submit_labels(subspace, labels_for(
                    make_oracle, lte, seed, subspace, tuples, position))
            sessions.append(twin)
        manager.flush()
        gateway.flush_all()

    open_generation((manager, gateway))

    path = str(tmp_path_factory.mktemp("conjunction") / "phi-v2")
    save_pretrained(path, _perturb_phi(serve_lte))
    gateway.publish_model(path, refresh=[list(subspaces[0].names)])
    lte.refresh_subspace(lte.table, subspaces[0], train=False)
    oracle.FORMER_TRAINERS.extend(state.trainer
                                  for state in lte.states.values())
    load_pretrained(path, lte)
    open_generation((manager, gateway))

    drifted = lte.table.data.copy()
    drifted[:, list(subspaces[1].columns)] *= 1.4
    lte.refresh_subspace(Table("CAR", lte.table.attributes, drifted),
                         subspaces[1], train=True)
    open_generation((manager,))
    yield {"lte": lte, "subspaces": subspaces, "sessions": sessions,
           "manager": manager, "manager_ids": manager_ids,
           "gateway": gateway, "gateway_ids": gateway_ids}
    gateway.close()


def test_the_fleet_spans_state_generations(fleet):
    """The fixture is what the docstring says: per subspace the sessions
    hold two or three distinct state objects, and the last refresh
    changed a scaler."""
    states = {}
    for sid in fleet["manager_ids"]:
        for subspace, subsession in \
                fleet["manager"].session(sid)._subsessions.items():
            states.setdefault(subspace, {})[id(subsession.state)] = \
                subsession.state
    zero, one, two = fleet["subspaces"]
    assert len(states[zero]) == 2 and len(states[one]) == 2
    assert len(states[two]) == 1
    old, new = states[one].values()
    assert not np.array_equal(old.scaler.max_, new.scaler.max_)
    for session, sid in zip(fleet["sessions"], fleet["manager_ids"]):
        served = fleet["manager"].session(sid)
        for subspace, subsession in session._subsessions.items():
            assert subsession.state is served._subsessions[subspace].state
            assert np.array_equal(
                subsession.adapted.retrieval.emb_r,
                served._subsessions[subspace].adapted.retrieval.emb_r)


def hull_centres(fleet, subspace):
    """Raw-coordinate centres of every inner hull any session built in
    ``subspace`` (rows there are settled 1 by that session's geometry)."""
    centres = []
    for sid in fleet["manager_ids"]:
        subsession = fleet["manager"].session(sid)._subsessions.get(subspace)
        if subsession is None or subsession.optimizer is None \
                or subsession.optimizer.inner_region is None:
            continue
        centres.append(subsession.state.to_raw(np.vstack(
            [hull.points.mean(axis=0)
             for hull in subsession.optimizer.inner_region.hulls])))
    return np.vstack(centres)


def make_rows(fleet, kind, n_rows, seed):
    """``n_rows`` full-space rows: drawn off the table (half jittered, a
    few far out), all far outside every hull, or assembled from hull
    centres subspace by subspace."""
    rows = draw_rows(fleet["lte"], seed, n_rows)
    if kind == "far":
        return rows * 50.0
    if kind == "centres":
        rng = np.random.default_rng(seed)
        for subspace in fleet["subspaces"]:
            centres = hull_centres(fleet, subspace)
            rows[:, list(subspace.columns)] = \
                centres[rng.integers(len(centres), size=n_rows)]
    return rows


picks = st.lists(st.integers(0, GENERATIONS * len(FLEET) - 1), min_size=1,
                 max_size=8, unique=True)
row_counts = st.one_of(st.sampled_from([0, 1, 7, 1000]),
                       st.integers(0, 1200))
kinds = st.sampled_from(["table", "table", "far", "centres"])
seeds = st.integers(0, 2 ** 32 - 1)


@settings(deadline=None)
@given(picks, kinds, row_counts, seeds)
def test_session_manager_and_gateway_answer_like_the_oracle(
        fleet, pick, kind, n_rows, seed):
    rows = make_rows(fleet, kind, n_rows, seed)
    manager = fleet["manager"]
    sids = [fleet["manager_ids"][i] for i in pick]
    want = oracle.predict_many([manager.session(sid) for sid in sids], rows)

    served = manager.predict_many(sids, rows)
    remote = [i for i in pick if i < ON_GATEWAY]
    sharded = fleet["gateway"].predict_many(
        [fleet["gateway_ids"][i] for i in remote], rows) if remote else {}
    for i, sid, expected in zip(pick, sids, want):
        session = fleet["sessions"][i]
        # "Score everything, AND afterwards" one session at a time is the
        # grouped oracle's answer too.
        assert np.array_equal(oracle.predict_session(session, rows),
                              expected)
        answers = [session.predict(rows), served[sid]]
        if i < ON_GATEWAY:
            answers.append(sharded[fleet["gateway_ids"][i]])
        for got in answers:
            assert got.dtype == np.int64 and got.shape == (n_rows,)
            assert np.array_equal(got, expected)
        # A subspace query is a conjunction of one.
        for subspace, subsession in session._subsessions.items():
            points = subspace.project(rows)
            alone = oracle.predict_subspace(subsession, points)
            assert np.array_equal(
                session.predict_subspace(subspace, points), alone)
            assert np.array_equal(
                manager.predict_subspace(sid, subspace, points), alone)


@settings(deadline=None)
@given(picks, kinds, st.integers(1, 1200), st.integers(1, 400),
       st.sampled_from([64, 128, 256]), seeds)
def test_store_scan_incremental_and_cold_answer_like_the_oracle(
        fleet, pick, kind, n_rows, n_appended, chunk_rows, seed):
    lte, manager = fleet["lte"], fleet["manager"]
    sids = [fleet["manager_ids"][i] for i in pick]
    rows = make_rows(fleet, kind, n_rows + n_appended, seed)
    store = Table("CAR", lte.table.attributes, rows[:n_rows]) \
        .to_store(chunk_rows=chunk_rows)
    forget_marks(manager, sids)

    first = manager.predict_many_store(sids, store)
    store.append_blocks([rows[n_rows:]])
    incremental = manager.predict_many_store(sids, store)
    # Cold: no watermark to lean on.
    forget_marks(manager, sids)
    cold = manager.predict_many_store(sids, store)
    assert manager.last_store_scan["watermark_skipped"] == 0
    forget_marks(manager, sids)

    want = oracle.predict_many([manager.session(sid) for sid in sids], rows)
    for i, sid, expected in zip(pick, sids, want):
        assert incremental[sid].dtype == np.int64
        assert np.array_equal(first[sid], expected[:n_rows])
        assert np.array_equal(incremental[sid], expected)
        assert np.array_equal(cold[sid], expected)
        session = fleet["sessions"][i]
        session._store_marks.clear()
        assert np.array_equal(session.predict_store(store), expected)


# ----------------------------------------------------------------------
# Mechanism
# ----------------------------------------------------------------------
class Recorder:
    """Wraps the two layers a row can reach after geometry: every
    classifier call (``AdaptedClassifier.predict_proba``: which model,
    which encoded rows) and every ``TabularPreprocessor.transform`` call
    (which scaled rows in, which encoded rows out)."""

    def __init__(self, monkeypatch):
        self.kernel_calls, self.encodes = [], []
        kernel, transform = (AdaptedClassifier.predict_proba,
                             TabularPreprocessor.transform)

        def predict_proba(adapted, tuple_vectors):
            self.kernel_calls.append((adapted, np.array(tuple_vectors)))
            return kernel(adapted, tuple_vectors)

        def recorded_transform(preprocessor, points):
            encoded = transform(preprocessor, points)
            self.encodes.append((preprocessor, np.array(points), encoded))
            return encoded

        monkeypatch.setattr(AdaptedClassifier, "predict_proba",
                            predict_proba)
        monkeypatch.setattr(TabularPreprocessor, "transform",
                            recorded_transform)


def geometry_of(subsession, scaled):
    """(inner, open) boolean masks of one subsession over scaled rows."""
    optimizer = subsession.optimizer
    if optimizer is None or (optimizer.outer_region is None
                             and optimizer.inner_region is None):
        return (np.zeros(len(scaled), dtype=bool),
                np.ones(len(scaled), dtype=bool))
    answers, open_rows = refine_oracle.decide(optimizer, scaled)
    open_mask = np.zeros(len(scaled), dtype=bool)
    open_mask[open_rows] = True
    return answers.astype(bool), open_mask


def expected_reads(sessions, rows):
    """What each classifier may read, from the oracle's per-subspace
    answers: the (subspace, state) groups in first-appearance order,
    ``open & alive`` per session.  Returns ``{group: (state, scaled,
    {id(classifier): reads mask})}`` and the (settled, scored, skipped)
    counts."""
    groups, per_session = {}, []
    for session in sessions:
        info = {}
        for subspace, subsession in session._subsessions.items():
            group = (subspace, id(subsession.state))
            points = subspace.project(rows)
            scaled = subsession.state.to_scaled(points)
            groups.setdefault(group, (subsession.state, scaled, {}))
            info[group] = (subsession,) + geometry_of(subsession, scaled) \
                + (oracle.predict_subspace(subsession, points) == 1,)
        per_session.append(info)
    settled = scored = skipped = 0
    for info in per_session:
        alive = np.ones(len(rows), dtype=bool)
        for _, inner, open_mask, _ in info.values():
            alive &= inner | open_mask
            settled += int((~open_mask).sum())
        for group in groups:
            if group not in info:
                continue
            subsession, _, open_mask, positive = info[group]
            reads = open_mask & alive
            scored += int(reads.sum())
            skipped += int((open_mask & ~alive).sum())
            groups[group][2][id(subsession.adapted)] = reads
            alive &= ~(reads & ~positive)
    return groups, (settled, scored, skipped)


@settings(deadline=None, max_examples=25)
@given(picks, kinds, st.sampled_from([1, 7, 300, 1000]), seeds)
def test_kernels_see_open_and_alive_rows_encodes_their_union(
        fleet, pick, kind, n_rows, seed):
    rows = make_rows(fleet, kind, n_rows, seed)
    manager = fleet["manager"]
    sids = [fleet["manager_ids"][i] for i in pick]
    sessions = [manager.session(sid) for sid in sids]
    groups, counts = expected_reads(sessions, rows)
    assert sum(counts) == n_rows * sum(len(session._subsessions)
                                       for session in sessions)
    before = [manager.metrics.value(name)
              for name in (SETTLED, SCORED, SKIPPED)]

    with pytest.MonkeyPatch.context() as monkeypatch:
        recorder = Recorder(monkeypatch)
        manager.predict_many(sids, rows)

    after = [manager.metrics.value(name)
             for name in (SETTLED, SCORED, SKIPPED)]
    assert tuple(b - a for a, b in zip(before, after)) == counts
    assert sum(len(x) for _, x in recorder.kernel_calls) == counts[1]

    kernel_rows = {id(model): vectors
                   for model, vectors in recorder.kernel_calls}
    assert len(kernel_rows) == len(recorder.kernel_calls)
    encodes = {id(preprocessor): (scaled, encoded)
               for preprocessor, scaled, encoded in recorder.encodes}
    assert len(encodes) == len(recorder.encodes)
    for state, scaled, reads_by_model in groups.values():
        union = np.zeros(n_rows, dtype=bool)
        for reads in reads_by_model.values():
            union |= reads
        if not union.any():
            # Nothing to read: the group is neither encoded nor scored.
            assert id(state.preprocessor) not in encodes
            assert not set(reads_by_model) & set(kernel_rows)
            continue
        # One encode a group, over the union of what its kernels read —
        # never a row more ...
        encoded_in, encoded_out = encodes.pop(id(state.preprocessor))
        assert np.array_equal(encoded_in, scaled[union])
        position = np.cumsum(union) - 1
        for model_id, reads in reads_by_model.items():
            if not reads.any():
                assert model_id not in kernel_rows
                continue
            # ... and each kernel call reads exactly its session's open
            # and alive rows out of it.
            assert np.array_equal(kernel_rows.pop(model_id),
                                  encoded_out[position[reads]])
    assert not encodes and not kernel_rows


def settled_everywhere(session, rows):
    """Whether geometry alone answers every row: 0 by some subspace's
    outer hulls, or 1 by every subspace's inner hulls."""
    dead = np.zeros(len(rows), dtype=bool)
    certain = np.ones(len(rows), dtype=bool)
    for subspace, subsession in session._subsessions.items():
        inner, open_mask = geometry_of(
            subsession, subsession.state.to_scaled(subspace.project(rows)))
        dead |= ~inner & ~open_mask
        certain &= inner
    return bool((dead | certain).all())


def test_a_settled_block_reaches_neither_encoder_nor_kernel(fleet):
    """A block geometry settles is answered without an encode or a
    kernel call: rows far outside every hull (all 0) for a group of
    sessions, and rows at a session's own inner-hull centres in every
    subspace (all 1)."""
    manager = fleet["manager"]
    far = make_rows(fleet, "far", 300, 1)
    chosen = [i for i, session in enumerate(fleet["sessions"])
              if settled_everywhere(session, far)]
    assert len(chosen) >= 6
    blocks = [(chosen, far, 0)]
    for i, session in enumerate(fleet["sessions"]):
        if len(session._subsessions) < 2 or any(
                ss.optimizer is None or ss.optimizer.inner_region is None
                for ss in session._subsessions.values()):
            continue
        rows = draw_rows(fleet["lte"], i, 40)
        for subspace, subsession in session._subsessions.items():
            centres = subsession.state.to_raw(np.vstack(
                [hull.points.mean(axis=0)
                 for hull in subsession.optimizer.inner_region.hulls]))
            rows[:, list(subspace.columns)] = \
                centres[np.arange(len(rows)) % len(centres)]
        assert settled_everywhere(session, rows)
        blocks.append(([i], rows, 1))
    assert len(blocks) >= 1 + 2 * GENERATIONS

    for chosen, rows, answer in blocks:
        sids = [fleet["manager_ids"][i] for i in chosen]
        with pytest.MonkeyPatch.context() as monkeypatch:
            recorder = Recorder(monkeypatch)
            served = manager.predict_many(sids, rows)
            alone = [fleet["sessions"][i].predict(rows) for i in chosen]
        assert recorder.kernel_calls == [] and recorder.encodes == []
        want = oracle.predict_many(
            [manager.session(sid) for sid in sids], rows)
        for sid, answers, expected in zip(sids, alone, want):
            assert (expected == answer).all()
            assert np.array_equal(answers, expected)
            assert np.array_equal(served[sid], expected)


# ----------------------------------------------------------------------
# Repeats
# ----------------------------------------------------------------------
@pytest.fixture()
def pair(serve_lte, serve_subspaces, make_oracle):
    """A fresh manager with two fed two-subspace Meta* sessions."""
    manager = SessionManager(serve_lte)
    sids = [drive(manager, serve_lte, make_oracle,
                  ("meta_star", 30 + i, (0, 1)), i) for i in range(2)]
    manager.flush()
    return manager, sids


class TestRepeats:
    def test_a_repeated_call_answers_alike_and_answers_are_the_callers(
            self, pair, eval_rows):
        manager, sids = pair
        first = manager.predict_many(sids, eval_rows)
        again = manager.predict_many(sids, eval_rows)
        for sid in sids:
            assert np.array_equal(first[sid], again[sid])
            again[sid][:] = 9
        assert np.array_equal(manager.predict(sids[0], eval_rows),
                              first[sids[0]])

    def test_a_label_round_on_one_subspace_of_two_answers_like_the_oracle(
            self, pair, serve_lte, serve_subspaces, make_oracle, eval_rows):
        manager, sids = pair
        manager.predict_many(sids, eval_rows)
        subspace = serve_subspaces[1]
        state = serve_lte.states[subspace]
        extra = state.to_raw(state.data[40:46])
        manager.add_labels(sids[0], subspace, extra,
                           make_oracle(30).label_subspace(subspace, extra))
        answers = manager.predict_many(sids, eval_rows)
        want = oracle.predict_many([manager.session(sid) for sid in sids],
                                   eval_rows)
        for sid, expected in zip(sids, want):
            assert np.array_equal(answers[sid], expected)

    def test_subspace_queries_and_to_the_whole(self, pair, serve_subspaces,
                                               eval_rows):
        manager, sids = pair
        whole = manager.predict(sids[0], eval_rows)
        parts = [manager.predict_subspace(sids[0], subspace,
                                          subspace.project(eval_rows))
                 for subspace in serve_subspaces]
        assert np.array_equal(parts[0] & parts[1], whole)
