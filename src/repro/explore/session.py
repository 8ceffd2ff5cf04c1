"""End-to-end exploration runs: LTE session + oracle + evaluation.

Convenience wrappers that execute the full online loop the paper times:
present initial tuples, collect oracle labels, adapt, predict, score.
"""

from __future__ import annotations

import numpy as np

from .metrics import f1_score
from .oracle import ConjunctiveOracle

__all__ = ["run_lte_exploration", "run_concurrent_explorations",
           "score_session", "ExplorationResult"]


class ExplorationResult:
    """Outcome of one exploration run."""

    def __init__(self, f1, labels_used, adapt_seconds, predictions,
                 ground_truth):
        self.f1 = f1
        self.labels_used = labels_used
        self.adapt_seconds = adapt_seconds
        self.predictions = predictions
        self.ground_truth = ground_truth

    def __repr__(self):
        return ("ExplorationResult(f1={:.3f}, labels={}, adapt_s={:.4f})"
                .format(self.f1, self.labels_used,
                        self.adapt_seconds or float("nan")))


def run_lte_exploration(lte, oracle, eval_rows, variant="meta_star",
                        subspaces=None, seed=None):
    """Run one full LTE online exploration against an oracle.

    Parameters
    ----------
    lte:
        A fitted :class:`~repro.core.framework.LTE`.
    oracle:
        A :class:`~repro.explore.oracle.ConjunctiveOracle` whose subspace
        keys match the LTE meta-subspaces being explored.
    eval_rows:
        Full-space rows on which the final F1 is measured — an array or
        a :class:`~repro.store.ChunkStore` (evaluated chunk-wise with
        zone-map pruning, bit-identically).
    variant:
        ``"basic"``, ``"meta"`` or ``"meta_star"``.

    Returns
    -------
    :class:`ExplorationResult`, as :func:`score_session` reports it.
    """
    if not isinstance(oracle, ConjunctiveOracle):
        raise TypeError("run_lte_exploration needs a ConjunctiveOracle")
    session = lte.start_session(variant=variant, subspaces=subspaces,
                                seed=seed)
    for subspace, tuples in session.initial_tuples().items():
        session.submit_labels(subspace, oracle.label_subspace(subspace,
                                                              tuples))
    return score_session(session, oracle, eval_rows)


def score_session(session, oracle, eval_rows):
    """Score an adapted session (what :func:`run_lte_exploration` returns).

    The missing half of resumable exploration: a session restored from a
    checkpoint (:func:`repro.persist.load_session`) carries its adapted
    models and labels but no live oracle counter, so ``labels_used`` is
    recomputed from the labels the session has actually accumulated
    (initial + iterative rounds).  Works identically on a live session.

    Parameters
    ----------
    session:
        An adapted :class:`~repro.core.ExplorationSession` (every
        subspace must have its labels submitted).
    oracle:
        The :class:`~repro.explore.oracle.ConjunctiveOracle` holding the
        session's ground truth.
    eval_rows:
        Full-space rows on which F1 is measured.

    Returns
    -------
    :class:`ExplorationResult`
    """
    if not isinstance(oracle, ConjunctiveOracle):
        raise TypeError("score_session needs a ConjunctiveOracle")
    if not hasattr(eval_rows, "iter_chunks"):
        eval_rows = np.atleast_2d(np.asarray(eval_rows, dtype=np.float64))
    labels_used = 0
    for subsession in session._subsessions.values():
        if subsession.labels is None:
            raise RuntimeError(
                "labels not yet submitted for subspace {}".format(
                    subsession.state.subspace))
        labels_used += int(subsession.labels.size)
        if subsession.extra_y is not None:
            labels_used += int(subsession.extra_y.size)
    predictions = session.predict(eval_rows)
    truth = oracle.ground_truth(eval_rows)
    return ExplorationResult(
        f1=f1_score(truth, predictions),
        labels_used=labels_used,
        adapt_seconds=session.adapt_seconds,
        predictions=predictions,
        ground_truth=truth,
    )


def run_concurrent_explorations(lte, oracles, eval_rows, variant="meta_star",
                                subspaces=None, seeds=None, manager=None):
    """Run many exploration sessions with one batched adaptation pass.

    Opens one managed session per oracle, queues every session's initial
    labels, adapts them all in fused batches via a
    :class:`~repro.serve.SessionManager`, and scores each session exactly
    like :func:`run_lte_exploration` would.

    Parameters
    ----------
    oracles:
        One :class:`~repro.explore.oracle.ConjunctiveOracle` per
        concurrent session.
    seeds:
        Optional per-session seeds (default: the LTE config seed for
        every session, i.e. identical initial tuples).
    manager:
        Reuse an existing manager (and its watermarks); default: a fresh
        one.

    Returns
    -------
    List of :class:`ExplorationResult`, one per oracle.
    """
    from ..serve import SessionManager

    if manager is None:
        manager = SessionManager(lte)
    elif manager.lte is not lte:
        raise ValueError("manager serves a different LTE system than the "
                         "one passed; sessions would use the wrong model")
    if not hasattr(eval_rows, "iter_chunks"):
        eval_rows = np.atleast_2d(np.asarray(eval_rows, dtype=np.float64))
    sids, befores = [], []
    try:
        for i, oracle in enumerate(oracles):
            if not isinstance(oracle, ConjunctiveOracle):
                raise TypeError(
                    "run_concurrent_explorations needs ConjunctiveOracles")
            sid = manager.open_session(
                variant=variant, subspaces=subspaces,
                seed=None if seeds is None else seeds[i])
            befores.append(oracle.labels_given)
            for subspace, tuples in manager.initial_tuples(sid).items():
                manager.submit_labels(sid, subspace,
                                      oracle.label_subspace(subspace, tuples))
            sids.append(sid)
        manager.flush()   # one fused adaptation across all sessions
        predictions_by_sid = manager.predict_many(sids, eval_rows)

        results = []
        for sid, oracle, before in zip(sids, oracles, befores):
            predictions = predictions_by_sid[sid]
            truth = oracle.ground_truth(eval_rows)
            results.append(ExplorationResult(
                f1=f1_score(truth, predictions),
                labels_used=oracle.labels_given - before,
                adapt_seconds=manager.session(sid).adapt_seconds,
                predictions=predictions,
                ground_truth=truth,
            ))
        return results
    finally:
        # The session ids are not part of the return value, so leaving
        # the sessions open on a caller-provided manager would leak them.
        for sid in sids:
            manager.close_session(sid)
