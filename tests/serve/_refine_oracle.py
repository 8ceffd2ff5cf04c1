"""The classifier-first spelling of the hull decision, as the oracle.

``FewShotOptimizer.decide`` / ``refine`` / ``refine_batch`` /
``_overlay`` kept the signature the paper describes — the classifier
answers every row, then the few-shot hulls overrule it — as wrappers
over :meth:`FewShotOptimizer.decide_batch`, equal for any 0/1 input.
The serving path decides by geometry first and never held a prediction
for every row, so the wrappers had no caller left in ``src/``; their
bodies are below, moved verbatim (methods became functions of the
optimizer, and a lone optimizer no longer carries a compiled-pack
cache of its own).  Nothing in ``src/`` imports this module.
"""

import numpy as np

from repro.core.optimizer import FewShotOptimizer


def decide(optimizer, points):
    """:meth:`FewShotOptimizer.decide_batch` for one optimizer alone."""
    return FewShotOptimizer.decide_batch([optimizer], points)[0]


def overlay(decision, predictions):
    """The refined answer: the classifier's on the open rows, the
    hulls' everywhere else."""
    answers, open_rows = decision
    predictions = np.asarray(predictions).astype(np.int64)
    if open_rows is None:
        return predictions.copy()
    if len(answers) != len(predictions):
        raise ValueError("points/predictions length mismatch")
    answers[open_rows] = predictions[open_rows]
    return answers


def refine_batch(optimizers, points, predictions_list, pack_cache=None):
    """Refine many sessions' full-row predictions over one point set.

    The classifier-first spelling of ``decide_batch``, for callers that
    already hold a prediction for every row: result i keeps
    ``predictions_list[i]`` on the rows optimizer i leaves open and
    takes the hulls' answer elsewhere; entries whose optimizer is None
    pass through unchanged.  Result i equals
    ``refine(optimizers[i], points, predictions_list[i])``.
    """
    decisions = FewShotOptimizer.decide_batch(optimizers, points,
                                              pack_cache=pack_cache)
    return [overlay(decision, predictions)
            for decision, predictions in zip(decisions, predictions_list)]


def refine(optimizer, points, predictions):
    """Apply the FP then FN corrections to raw 0/1 predictions.

    ``points`` are raw subspace tuples (n x d); ``predictions`` the
    classifier's 0/1 output for them.  The single-session case of
    :func:`refine_batch`.
    """
    if len(np.atleast_2d(np.asarray(points))) != \
            len(np.asarray(predictions).ravel()):
        raise ValueError("points/predictions length mismatch")
    return overlay(decide(optimizer, points), predictions)
