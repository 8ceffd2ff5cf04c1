"""Store-backed prediction is bit-identical to in-memory prediction.

The acceptance contract of the chunked substrate: for every variant
(basic / meta / meta_star), predicting a session over a chunk store —
sequentially, through the serving engine, or out of core from disk —
produces the exact bits the dense in-memory path produces, while the
zone-map planner is free to skip chunks.  Also covers the store-backed
offline phase (bounded-memory fit), scoring helpers, retrieval and the
provenance recorded in checkpoint manifests.
"""

import numpy as np
import pytest

from repro.data import make_car
from repro.explore.session import (run_concurrent_explorations,
                                   run_lte_exploration, score_session)
from repro.serve import SessionManager

pytestmark = [pytest.mark.store, pytest.mark.smoke]


@pytest.fixture(scope="module")
def eval_store(store_table):
    return store_table.to_store(chunk_rows=256)


@pytest.mark.parametrize("variant", ["basic", "meta", "meta_star"])
def test_sequential_store_parity(store_lte, store_subspaces, store_table,
                                 eval_store, make_oracle, variant):
    mem = run_lte_exploration(store_lte, make_oracle(seed=5),
                              store_table.data, variant=variant,
                              subspaces=store_subspaces, seed=11)
    via_store = run_lte_exploration(store_lte, make_oracle(seed=5),
                                    eval_store, variant=variant,
                                    subspaces=store_subspaces, seed=11)
    assert np.array_equal(mem.predictions, via_store.predictions)
    assert np.array_equal(mem.ground_truth, via_store.ground_truth)
    assert mem.f1 == via_store.f1
    assert mem.labels_used == via_store.labels_used


def test_predict_store_prunes_but_matches(store_lte, store_subspaces,
                                          store_table, eval_store,
                                          make_oracle):
    oracle = make_oracle(seed=9)
    session = store_lte.start_session(variant="meta_star",
                                      subspaces=store_subspaces, seed=3)
    for subspace, tuples in session.initial_tuples().items():
        session.submit_labels(subspace, oracle.label_subspace(subspace,
                                                              tuples))
    dense = session.predict(store_table.data)
    chunked = session.predict_store(eval_store)
    assert np.array_equal(dense, chunked)
    # The pruning hook is live for meta_star sessions.
    assert any(subsession.optimizer.gate_boxes(subsession.state) is not None
               for subsession in session._subsessions.values())


def test_manager_store_parity_and_watermark(store_lte, store_subspaces,
                                            store_table, eval_store,
                                            make_oracle):
    manager = SessionManager(store_lte)
    oracles = make_oracle(seed=21, count=3)
    mem = run_concurrent_explorations(store_lte, oracles, store_table.data,
                                      variant="meta_star",
                                      subspaces=store_subspaces,
                                      manager=manager)
    via_store = run_concurrent_explorations(
        store_lte, make_oracle(seed=21, count=3), eval_store,
        variant="meta_star", subspaces=store_subspaces, manager=manager)
    for a, b in zip(mem, via_store):
        assert np.array_equal(a.predictions, b.predictions)
        assert a.f1 == b.f1

    # A repeated scan over an unchanged model and store.
    oracle = make_oracle(seed=22)
    sid = manager.open_session(variant="meta_star",
                               subspaces=store_subspaces)
    for subspace, tuples in manager.initial_tuples(sid).items():
        manager.submit_labels(sid, subspace,
                              oracle.label_subspace(subspace, tuples))
    first = manager.predict_store(sid, eval_store)
    second = manager.predict_store(sid, eval_store)
    assert np.array_equal(first, second)
    # The repeat is served wholesale from the session's freshness
    # watermark: same store version, same model versions — zero chunks
    # touched.
    assert manager.last_store_scan["chunk_evals"] == 0
    assert manager.last_store_scan["sessions_served_from_mark"] == 1
    # With the watermark dropped, the session rescans what it owes.
    manager.session(sid)._store_marks.clear()
    third = manager.predict_store(sid, eval_store)
    assert np.array_equal(first, third)
    assert manager.last_store_scan["chunk_evals"] > 0
    assert manager.last_store_scan["watermark_skipped"] == 0
    assert np.array_equal(first, manager.predict(sid, store_table.data))
    manager.close_session(sid)


@pytest.mark.parametrize("variant", ["basic", "meta_star"])
def test_store_backed_offline_fit_end_to_end(store_config, store_table,
                                             variant):
    from repro.bench.workloads import convex_oracles
    from repro.core import LTE

    store = store_table.to_store(chunk_rows=256)
    lte = LTE(store_config)
    lte.fit_offline(store, subspaces=None)
    subspaces = list(lte.states)[:2]
    oracle = convex_oracles(lte, subspaces, 1, psi_choices=(12, 10),
                            seed=5)[0]
    result = run_lte_exploration(lte, oracle, store, variant=variant,
                                 subspaces=subspaces, seed=11)
    assert result.predictions.shape == (store.n_rows,)
    assert 0.0 <= result.f1 <= 1.0
    # The per-subspace working set is bounded by store_sample_rows,
    # not the table.
    for state in lte.states.values():
        assert len(state.data) <= store_config.store_sample_rows
    # Scoring and retrieval ride the store too.
    session = lte.start_session(variant=variant, subspaces=subspaces,
                                seed=11)
    for subspace, tuples in session.initial_tuples().items():
        session.submit_labels(subspace,
                              oracle.label_subspace(subspace, tuples))
    scored = score_session(session, oracle, store)
    assert 0.0 <= scored.f1 <= 1.0
    retrieved = session.retrieve(limit=7)
    assert retrieved.shape[1] == store.n_attributes
    assert len(retrieved) <= 7


def test_pruning_drops_chunks_on_clustered_store_bit_identically(
        store_config, store_table):
    """The load-bearing case: a year-clustered store + Meta* sessions.

    With chunk locality the planner must actually skip chunks (not just
    degenerate to a full scan) while staying bit-identical to the dense
    path — both sequentially and through the serving engine.
    """
    from repro.bench.workloads import convex_oracles
    from repro.core import LTE
    from repro.data.schema import Table
    from repro.store.scan import session_chunk_keep

    order = np.argsort(store_table.data[:, 2])     # cluster by 'year'
    sorted_table = Table("CAR", store_table.attributes,
                         store_table.data[order])
    store = sorted_table.to_store(chunk_rows=64)
    lte = LTE(store_config)
    lte.fit_offline(sorted_table)
    subspaces = list(lte.states)[:2]
    oracle = convex_oracles(lte, subspaces, 1, psi_choices=(8, 6),
                            seed=9)[0]
    session = lte.start_session(variant="meta_star", subspaces=subspaces,
                                seed=3)
    for subspace, tuples in session.initial_tuples().items():
        session.submit_labels(subspace,
                              oracle.label_subspace(subspace, tuples))
    keep = session_chunk_keep(store, session._subsessions)
    assert (~keep).sum() > 0                       # pruning really fires
    dense = session.predict(sorted_table.data)
    assert np.array_equal(dense, session.predict_store(store))

    manager = SessionManager(lte)
    sid = manager.open_session(variant="meta_star", subspaces=subspaces,
                               seed=3)
    for subspace, tuples in manager.initial_tuples(sid).items():
        manager.submit_labels(sid, subspace,
                              oracle.label_subspace(subspace, tuples))
    assert np.array_equal(dense, manager.predict_store(sid, store))
    manager.close_session(sid)


def test_out_of_core_disk_store_parity(tmp_path, store_lte, store_subspaces,
                                       store_table, make_oracle):
    disk = store_table.to_store(chunk_rows=256,
                                directory=str(tmp_path / "car"))
    mem = run_lte_exploration(store_lte, make_oracle(seed=33),
                              store_table.data, variant="meta_star",
                              subspaces=store_subspaces, seed=2)
    ooc = run_lte_exploration(store_lte, make_oracle(seed=33), disk,
                              variant="meta_star",
                              subspaces=store_subspaces, seed=2)
    assert np.array_equal(mem.predictions, ooc.predictions)
    assert np.array_equal(mem.ground_truth, ooc.ground_truth)


def test_checkpoint_manifest_records_provenance(tmp_path, store_config,
                                                store_table):
    from repro.core import LTE
    from repro.persist import save_pretrained
    from repro.persist.checkpoint import inspect_checkpoint

    store = store_table.to_store(chunk_rows=512)
    lte = LTE(store_config)
    lte.fit_offline(store, subspaces=None, train=False)
    save_pretrained(str(tmp_path / "ckpt"), lte)
    meta = inspect_checkpoint(str(tmp_path / "ckpt"))["meta"]
    assert meta["dataset"]["builder"] == "car"
    assert meta["dataset"]["n_rows"] == store.n_rows
    assert meta["dataset"]["store_digest"] == store.digest

    # In-memory tables record the builder provenance alone.
    lte_mem = LTE(store_config)
    lte_mem.fit_offline(make_car(n_rows=1200, seed=8), train=False)
    save_pretrained(str(tmp_path / "ckpt-mem"), lte_mem)
    meta = inspect_checkpoint(str(tmp_path / "ckpt-mem"))["meta"]
    assert meta["dataset"] == {"builder": "car", "n_rows": 1200, "seed": 8}
