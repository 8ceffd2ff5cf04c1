"""Regression tests for the serving-layer bugfix trio.

1. An encode cache keyed by ``(subspace, rows-digest)`` alone served
   encodes computed under the *old* artifacts after a hot swap (a
   :mod:`repro.shard` model broadcast installing a re-pretrained phi via
   :func:`repro.persist.load_pretrained`, a drift refresh).  The cache
   and the generation token that versioned it are gone — sessions are
   grouped by the state object they adapted under — and what stays
   tested is the behaviour: live sessions keep their answers bit for
   bit across both swaps, new sessions answer from the new artifacts.
2. ``poll(session_id, advance=True)`` ran a global ``flush()`` that
   re-raised the first error, so one session's bad label batch raised
   into unrelated sessions' polls.  Errors are now attributed to the
   owning session and surfaced only in *its* poll result.
3. ``predict_many``'s all-ones ``&=`` conjunction meant a session with
   no subspaces reported every row interesting.  Empty sessions are
   rejected at ``start_session`` and guarded at predict time.
"""

import copy

import numpy as np
import pytest

from repro.serve import SessionManager


@pytest.fixture()
def manager(serve_lte):
    return SessionManager(serve_lte)


def _perturb_phi(lte, scale=1.5, shift=0.1):
    """Return a deep copy of ``lte`` whose meta-learned weights differ
    (a stand-in for a re-pretrained phi with the same identity)."""
    swapped = copy.deepcopy(lte)
    for state in swapped.states.values():
        if state.trainer is None:
            continue
        sd = state.trainer.state_dict()

        def twist(node):
            if isinstance(node, np.ndarray) and \
                    np.issubdtype(node.dtype, np.floating):
                return node * scale + shift
            if isinstance(node, dict):
                return {k: twist(v) for k, v in node.items()}
            if isinstance(node, list):
                return [twist(v) for v in node]
            return node

        sd["model"] = twist(sd["model"])
        state.trainer.load_state_dict(sd)
    return swapped


class TestArtifactGenerations:
    def test_live_sessions_keep_answers_new_ones_use_new_artifacts(
            self, serve_lte, serve_subspaces, make_oracle, eval_rows,
            tmp_path):
        """Swap phi through the real broadcast path (save_pretrained ->
        load_pretrained), then refresh one subspace over drifted data:
        three sessions, one per generation, answered by ONE predict_many
        call over a cold cache."""
        from repro.data.schema import Table
        from repro.persist import load_pretrained, save_pretrained

        lte = copy.deepcopy(serve_lte)
        manager = SessionManager(lte)
        truth = make_oracle(71)

        def drive(front, seed=3):
            """The same user each time: same draw, same labels."""
            if isinstance(front, SessionManager):
                sid = front.open_session(variant="meta_star",
                                         subspaces=serve_subspaces,
                                         seed=seed)
                for subspace, tuples in front.initial_tuples(sid).items():
                    front.submit_labels(
                        sid, subspace, truth.label_subspace(subspace, tuples))
                front.flush()
                return sid
            session = front.start_session(variant="meta_star",
                                          subspaces=serve_subspaces,
                                          seed=seed)
            for subspace, tuples in session.initial_tuples().items():
                session.submit_labels(
                    subspace, truth.label_subspace(subspace, tuples))
            return session

        first = drive(manager)
        answers = {first: manager.predict(first, eval_rows)}

        # Generation 2: a re-pretrained phi.  Only the trainer is
        # swapped, the state objects (scaler, encoder) stay.
        states = dict(lte.states)
        swapped = _perturb_phi(serve_lte)
        save_pretrained(tmp_path / "phi-v2", swapped)
        load_pretrained(tmp_path / "phi-v2", lte)
        assert all(lte.states[s] is state for s, state in states.items())
        second = drive(manager)
        answers[second] = manager.predict(second, eval_rows)
        assert np.array_equal(answers[second],
                              drive(swapped).predict(eval_rows))

        # Generation 3: one subspace refreshed over drifted data — its
        # state object is replaced, its scaler spans a wider range.
        target = serve_subspaces[0]
        drifted = lte.table.data.copy()
        drifted[:, list(target.columns)] *= 1.5
        lte.refresh_subspace(Table("CAR", lte.table.attributes, drifted),
                             target, train=True)
        assert lte.states[target] is not states[target]
        assert not np.array_equal(lte.states[target].scaler.max_,
                                  states[target].scaler.max_)
        third = drive(manager)
        twin = drive(lte)
        assert manager.session(third)._subsessions[target].state \
            is lte.states[target]
        assert manager.session(first)._subsessions[target].state \
            is states[target]

        served = manager.predict_many([first, second, third], eval_rows)
        for sid, before in answers.items():
            assert np.array_equal(served[sid], before)
        assert np.array_equal(served[third], twin.predict(eval_rows))
        # The three generations really differ.
        assert not np.array_equal(
            manager.session(first)._subsessions[target].adapted
            .retrieval.emb_r,
            manager.session(second)._subsessions[target].adapted
            .retrieval.emb_r)


class TestPerSessionErrorAttribution:
    def _bad_and_good(self, manager, serve_subspaces, make_oracle):
        oracle = make_oracle(31)
        subspace = serve_subspaces[0]
        sid_bad = manager.open_session(subspaces=[subspace])
        sid_good = manager.open_session(subspaces=[subspace])
        tuples = manager.initial_tuples(sid_bad)[subspace]
        labels = oracle.label_subspace(subspace, tuples)
        manager.submit_labels(sid_bad, subspace, labels)
        manager.submit_labels(sid_good, subspace, labels)

        def boom(labels):
            raise RuntimeError("corrupt session")

        manager.session(sid_bad)._subsessions[subspace] \
            .build_initial_request = boom
        return sid_bad, sid_good, subspace

    def test_poll_never_raises_another_sessions_error(self, manager,
                                                      serve_subspaces,
                                                      make_oracle):
        sid_bad, sid_good, subspace = self._bad_and_good(
            manager, serve_subspaces, make_oracle)
        # The buggy poll ran flush() with raise_errors and blew up here.
        result = manager.poll(sid_good)
        assert result["errors"] == []
        assert result["ready"] == [subspace]

    def test_error_surfaces_in_owning_sessions_poll(self, manager,
                                                    serve_subspaces,
                                                    make_oracle):
        sid_bad, sid_good, subspace = self._bad_and_good(
            manager, serve_subspaces, make_oracle)
        manager.poll(sid_good)                      # flushes everything
        result = manager.poll(sid_bad)
        assert len(result["errors"]) == 1
        entry = result["errors"][0]
        assert entry["subspace"] == list(subspace.names)
        assert "RuntimeError: corrupt session" in entry["error"]
        # Reported errors are cleared, not re-delivered forever.
        assert manager.poll(sid_bad)["errors"] == []

    def test_direct_flush_still_raises(self, manager, serve_subspaces,
                                       make_oracle):
        sid_bad, _, _ = self._bad_and_good(manager, serve_subspaces,
                                           make_oracle)
        with pytest.raises(RuntimeError, match="corrupt session"):
            manager.flush()

    def test_wave_failure_keeps_recorded_errors(self, manager, serve_lte,
                                                serve_subspaces,
                                                make_oracle, monkeypatch):
        """A training crash in a later wave used to discard the
        per-item errors already collected; they are now recorded per
        session at catch time."""
        import repro.serve.manager as manager_module

        sid_bad, sid_good, subspace = self._bad_and_good(
            manager, serve_subspaces, make_oracle)
        # Queue a second batch for the good session so a second wave
        # exists, and make training fail only on that wave.
        oracle = make_oracle(31)
        state = serve_lte.states[subspace]
        extra = state.to_raw(state.data[5:7])
        manager.add_labels(sid_good, subspace, extra,
                           oracle.label_subspace(subspace, extra))

        real = manager_module.run_adapt_requests
        calls = {"n": 0}

        def flaky(requests):
            calls["n"] += 1
            if calls["n"] == 2:
                raise MemoryError("simulated")
            return real(requests)

        monkeypatch.setattr(manager_module, "run_adapt_requests", flaky)
        with pytest.raises(MemoryError):
            manager.flush(raise_errors=False)
        # The bad session's wave-1 error survived the wave-2 crash.
        result = manager.poll(sid_bad, advance=False)
        assert len(result["errors"]) == 1
        assert "corrupt session" in result["errors"][0]["error"]


class TestEmptySessionGuard:
    def test_start_session_rejects_empty_subspaces(self, serve_lte):
        with pytest.raises(ValueError, match="at least one subspace"):
            serve_lte.start_session(subspaces=[])

    def test_manager_rejects_empty_session_list(self, manager):
        with pytest.raises(ValueError, match="at least one subspace"):
            manager.open_session(subspaces=[])

    def test_predict_many_guards_empty_session(self, manager,
                                               serve_subspaces,
                                               make_oracle, eval_rows):
        """A session stripped of subspaces must raise, not report every
        row interesting through the all-ones conjunction."""
        oracle = make_oracle(7)
        sid = manager.open_session(subspaces=[serve_subspaces[0]])
        tuples = manager.initial_tuples(sid)[serve_subspaces[0]]
        manager.submit_labels(sid, serve_subspaces[0],
                              oracle.label_subspace(serve_subspaces[0],
                                                    tuples))
        manager.flush()
        # Simulate the corrupted state the bug silently accepted.
        manager.session(sid)._subsessions.clear()
        with pytest.raises(RuntimeError, match="no subspaces"):
            manager.predict_many([sid], eval_rows)
        with pytest.raises(RuntimeError, match="no subspaces"):
            manager.predict(sid, eval_rows)

    def test_predict_many_store_guards_empty_session(self, manager,
                                                     serve_lte,
                                                     serve_subspaces,
                                                     make_oracle):
        from repro.store import ChunkStore

        oracle = make_oracle(7)
        sid = manager.open_session(subspaces=[serve_subspaces[0]])
        tuples = manager.initial_tuples(sid)[serve_subspaces[0]]
        manager.submit_labels(sid, serve_subspaces[0],
                              oracle.label_subspace(serve_subspaces[0],
                                                    tuples))
        manager.flush()
        store = ChunkStore.from_table(serve_lte.table, chunk_rows=512)
        manager.session(sid)._subsessions.clear()
        with pytest.raises(RuntimeError, match="no subspaces"):
            manager.predict_many_store([sid], store)
