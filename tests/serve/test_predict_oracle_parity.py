"""Geometry-first predictions return the answers of "score every row,
then refine" (``_predict_oracle.py``, the old code verbatim).

The contract is on **answers**: the 0/1 vectors must be ``array_equal``
on every serving path (session, manager, 2-worker gateway) and over a
store scanned incrementally or cold.  Logits are compared only where the
kernel and the ``Tensor`` forward see the same rows in one call — there
they are the same products in the same order, hence the same bits; a
kernel call over the gathered open rows of a chunk may differ from the
full-chunk forward in the last place (BLAS picks its kernel by shape),
which is why :func:`test_smallest_logit_leaves_a_margin` measures how far
the fuzz's logits stay from the decision boundary.

Example counts come from the hypothesis profile, so CI's serving lane
raises them ten-fold with ``--hypothesis-profile=x10`` (registered in
``tests/conftest.py``).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import _predict_oracle as oracle
import _refine_oracle as refine_oracle
from repro.data.schema import Table
from repro.nn.batching import inference_logits
from repro.serve import SessionManager
from repro.shard import ShardGateway

#: (variant, label-oracle seed, subspaces explored).  A ``None`` seed labels
#: every tuple 0, so the session has no positive anchor and its optimizer
#: no subregion; a tuple of seeds is one per explored subspace (no anchor
#: in one subspace only).  Many sessions explore ONE subspace, so their
#: answer is that subspace's and a wrong bit cannot hide behind the
#: conjunction; every variant is also there as a 2- and a 3-subspace
#: session, where what one subspace scores depends on the others.
FLEET = [("meta_star", 3, (0, 1, 2)), ("meta_star", 4, (0,)),
         ("meta", 5, (0,)), ("basic", 6, (0,)), ("meta_star", 7, (1,)),
         ("meta_star", None, (1,)), ("basic", 8, (1,)),
         ("meta_star", 9, (2,)), ("meta", 10, (2,)),
         ("meta_star", 11, (2,)), ("meta_star", 12, (0, 1)),
         ("basic", 13, (1, 2)), ("meta_star", 14, (0,)),
         ("meta_star", 15, (1,)), ("meta_star", None, (2,)),
         ("meta", 16, (0, 1)), ("meta", 17, (2, 1, 0)),
         ("basic", 18, (0, 1, 2)), ("meta_star", 19, (2, 0)),
         ("meta_star", (20, None), (0, 1)),
         ("meta_star", (None, 21, 22), (0, 1, 2))]


def labels_for(make_oracle, lte, seed, subspace, tuples, position=0):
    """0/1 labels of a session's ``position``-th explored subspace."""
    if isinstance(seed, tuple):
        seed = seed[position]
    if seed is None:
        return np.zeros(len(tuples), dtype=np.int64)
    return make_oracle(seed, subspaces=list(lte.states)) \
        .label_subspace(subspace, tuples)


@pytest.fixture(scope="module")
def fleet(serve_lte, make_oracle):
    """The same twenty-one sessions — all three variants, all three subspaces
    (car's odd attribute count makes the last one 1-D) — driven three
    ways: sequential ``ExplorationSession``s, one ``SessionManager`` and
    a 2-worker ``ShardGateway``."""
    manager = SessionManager(serve_lte)
    gateway = ShardGateway(serve_lte, n_workers=2)
    sessions, manager_ids, gateway_ids = [], [], []
    for index, (variant, seed, explored) in enumerate(FLEET):
        subspaces = [list(serve_lte.states)[i] for i in explored]
        session = serve_lte.start_session(variant=variant,
                                          subspaces=subspaces, seed=index)
        for position, (subspace, tuples) in enumerate(
                session.initial_tuples().items()):
            session.submit_labels(subspace, labels_for(
                make_oracle, serve_lte, seed, subspace, tuples, position))
        sessions.append(session)
        for front, ids in ((manager, manager_ids), (gateway, gateway_ids)):
            sid = front.open_session(variant=variant, subspaces=subspaces,
                                     seed=index)
            for position, (subspace, tuples) in enumerate(
                    front.initial_tuples(sid).items()):
                front.submit_labels(sid, subspace, labels_for(
                    make_oracle, serve_lte, seed, subspace, tuples,
                    position))
            ids.append(sid)
    manager.flush()
    gateway.flush_all()
    yield {"lte": serve_lte, "sessions": sessions, "manager": manager,
           "manager_ids": manager_ids, "gateway": gateway,
           "gateway_ids": gateway_ids}
    gateway.close()


def forget_marks(manager, sids):
    """Drop the sessions' store-scan watermarks, so the next scan
    evaluates every chunk they owe; their hull memos stay."""
    for sid in sids:
        manager.session(sid)._store_marks.clear()


def draw_rows(lte, seed, n_rows):
    """Table rows with replacement, half of them jittered off the grid
    the clustering saw, plus a few far outside every hull."""
    rng = np.random.default_rng(seed)
    data = lte.table.data
    rows = data[rng.integers(len(data), size=n_rows)].copy()
    jitter = rng.random(n_rows) < 0.5
    rows[jitter] *= 1.0 + 0.05 * rng.normal(size=(int(jitter.sum()),
                                                  data.shape[1]))
    rows[rng.random(n_rows) < 0.02] *= 10.0
    return rows


picks = st.lists(st.integers(0, len(FLEET) - 1), min_size=1, max_size=9,
                 unique=True)
row_counts = st.one_of(st.integers(0, 3), st.integers(0, 1500))
seeds = st.integers(0, 2 ** 32 - 1)


@settings(deadline=None)
@given(picks, row_counts, seeds)
def test_every_serving_path_answers_like_the_oracle(fleet, pick, n_rows,
                                                    seed):
    rows = draw_rows(fleet["lte"], seed, n_rows)
    manager = fleet["manager"]
    want = oracle.predict_many(
        [manager.session(fleet["manager_ids"][i]) for i in pick], rows)

    for i, expected in zip(pick, want):
        session = fleet["sessions"][i]
        got = session.predict(rows)
        assert got.dtype == np.int64 and got.shape == (n_rows,)
        assert np.array_equal(got, expected)
        # The sequential twin is its own oracle's twin too.
        assert np.array_equal(oracle.predict_session(session, rows),
                              expected)

    served = manager.predict_many([fleet["manager_ids"][i] for i in pick],
                                  rows)
    sharded = fleet["gateway"].predict_many(
        [fleet["gateway_ids"][i] for i in pick], rows)
    for i, expected in zip(pick, want):
        for answers in (served[fleet["manager_ids"][i]],
                        sharded[fleet["gateway_ids"][i]]):
            assert answers.dtype == np.int64 and answers.shape == (n_rows,)
            assert np.array_equal(answers, expected)


@settings(deadline=None)
@given(picks, st.integers(1, 1200), st.integers(1, 400),
       st.sampled_from([64, 128, 256]), seeds)
def test_store_scan_incremental_and_cold_answer_like_the_oracle(
        fleet, pick, n_rows, n_appended, chunk_rows, seed):
    lte, manager = fleet["lte"], fleet["manager"]
    sids = [fleet["manager_ids"][i] for i in pick]
    rows = draw_rows(lte, seed, n_rows + n_appended)
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
    for sid, expected in zip(sids, want):
        assert incremental[sid].dtype == np.int64
        assert np.array_equal(first[sid], expected[:n_rows])
        assert np.array_equal(incremental[sid], expected)
        assert np.array_equal(cold[sid], expected)
        assert np.array_equal(
            fleet["sessions"][fleet["manager_ids"].index(sid)]
            .predict_store(store), expected)


def subsessions_of(fleet):
    for sid in fleet["manager_ids"]:
        yield from fleet["manager"].session(sid)._subsessions.values()


def test_kernel_logits_equal_tensor_forward_bits(fleet):
    """Same rows in one call: the kernel runs the products of
    ``UISClassifier.forward`` in the same order (``x * (x > 0)``, not
    ``maximum``), so the logits — and with them ``predict_proba`` and
    ``predict`` — are equal to the last bit, at every row count."""
    for subsession in subsessions_of(fleet):
        adapted, state = subsession.adapted, subsession.state
        for n_rows in (0, 1, 2, 63, 64, 200, 1024):
            encoded = state.encode(draw_rows(
                fleet["lte"], n_rows, n_rows)[:, list(
                    state.subspace.columns)])
            conv = None if adapted.conversion is None \
                else adapted.conversion.data
            logits = inference_logits(adapted.model, adapted.feature_vector,
                                      encoded, conversion=conv)
            assert logits.shape == (n_rows,)
            assert np.array_equal(logits,
                                  oracle.tensor_logits(adapted, encoded))
            assert np.array_equal(adapted.predict_proba(encoded),
                                  oracle.predict_proba(adapted, encoded))
            assert np.array_equal(adapted.predict(encoded),
                                  oracle.predict(adapted, encoded))


def test_smallest_logit_leaves_a_margin(fleet, record_property):
    """The answer-level contract rests on no logit sitting within a few
    ulps of the boundary: over a fixed sweep of the fuzz's rows, record
    the smallest |logit| of a row the classifier decides, and the largest
    difference between scoring a row inside the full batch and inside
    its session's gathered open band."""
    smallest, widest = np.inf, 0.0
    for seed in range(5):
        rows = draw_rows(fleet["lte"], seed, 1500)
        for subsession in subsessions_of(fleet):
            state = subsession.state
            scaled = state.to_scaled(rows[:, list(state.subspace.columns)])
            encoded = state.encode_scaled(scaled)
            full = oracle.tensor_logits(subsession.adapted, encoded)
            open_rows = None if subsession.optimizer is None \
                else refine_oracle.decide(subsession.optimizer, scaled)[1]
            if open_rows is None:
                open_rows = np.arange(len(rows))
            if not open_rows.size:
                continue
            adapted = subsession.adapted
            conv = None if adapted.conversion is None \
                else adapted.conversion.data
            gathered = inference_logits(
                adapted.model, adapted.feature_vector, encoded[open_rows],
                conversion=conv)
            smallest = min(smallest, float(np.abs(full[open_rows]).min()))
            widest = max(widest, float(
                np.abs(gathered - full[open_rows]).max()))
    record_property("smallest_abs_logit", smallest)
    record_property("widest_logit_difference", widest)
    print("smallest |logit| {:.3e}, widest gathered-vs-full difference "
          "{:.3e}".format(smallest, widest))
    # Differences are a few ulps of O(1) logits; the nearest logit is
    # orders of magnitude further from 0 than that.
    assert widest < 1e-12
    assert smallest > 1e3 * max(widest, np.finfo(np.float64).eps)
