"""Today's order as the oracle: score every row, then refine.

Until the geometry-first change, a Meta* prediction ran the classifier
over *every* row as an autograd program under ``no_grad`` (one
``UISClassifier.forward`` for a lone session, one stacked forward
for a group) and only then let the
few-shot hulls overrule it (``refine_batch``).  The bodies below are
that code, moved here verbatim when the serving path stopped using it:
the parity suite compares every serving path's 0/1 answers against
them.  Nothing in ``src/`` imports this module.
"""

import os
import sys

import numpy as np

from repro.geometry.engine import union_masks

for _oracles in ("train", "nn"):
    sys.path.insert(0, os.path.join(
        os.path.dirname(os.path.abspath(__file__)), os.pardir, _oracles))
from _autograd_oracle import forward, no_grad  # noqa: E402
from _graph_oracle import stack_models, stacked_predict  # noqa: E402
from _sequential_oracle import whole_model  # noqa: E402


#: Meta-learners a state held before ``load_pretrained`` swapped in
#: another: a classifier adapted under one of them stands for a model of
#: its retrieval, not of the state's current trainer.
FORMER_TRAINERS = []


def _whole(subsession):
    """The subsession's classifier as a whole model and M_cp."""
    return whole_model(subsession.adapted,
                       [subsession.state.trainer] + FORMER_TRAINERS)


def _forward(subsession, tuple_vectors):
    """The autograd forward under ``no_grad``: (n,) logits."""
    model, conv = _whole(subsession)
    with no_grad():
        return forward(model, subsession.adapted.feature_vector,
                       tuple_vectors, conversion=conv)


def tensor_logits(subsession, tuple_vectors):
    """Raw logits of the autograd forward, shape (n,)."""
    return _forward(subsession, tuple_vectors).data


def predict_proba(subsession, tuple_vectors):
    """``AdaptedClassifier.predict_proba`` as it was."""
    return _forward(subsession, tuple_vectors).sigmoid().numpy()


def predict(subsession, tuple_vectors, threshold=0.5):
    """``AdaptedClassifier.predict`` as it was."""
    return (predict_proba(subsession, tuple_vectors) >= threshold) \
        .astype(np.int64)


def predict_adapted_batch(subsessions, tuple_vectors, threshold=0.5):
    """``repro.serve.batched.predict_adapted_batch`` as it was: K
    structurally identical models stacked into one forward over the
    stride-0 broadcast rows."""
    wholes = [_whole(subsession) for subsession in subsessions]
    config = wholes[0][0].config
    stack = stack_models([model for model, _ in wholes])
    features = np.stack([subsession.adapted.feature_vector
                         for subsession in subsessions])
    conversion = None
    if config["use_conversion"]:
        conversion = np.stack([conv for _, conv in wholes])
    tuple_vectors = np.asarray(tuple_vectors, dtype=np.float64)
    xs = np.broadcast_to(tuple_vectors,
                         (len(wholes),) + tuple_vectors.shape)
    return stacked_predict(config, stack, features, xs,
                           conversion=conversion, threshold=threshold)


def refine_batch(optimizers, points, predictions_list, pack_cache=None):
    """``FewShotOptimizer.refine_batch`` as it was: FP fix, then FN fix,
    on predictions that already cover every row."""
    points = np.atleast_2d(np.asarray(points, dtype=np.float64))
    active = [o for o in optimizers
              if o is not None and (o.outer_region is not None
                                    or o.inner_region is not None)]
    hull_lists = []
    for optimizer in active:
        for region in (optimizer.outer_region, optimizer.inner_region):
            hull_lists.append([] if region is None else region.hulls)
    masks = iter(union_masks(hull_lists, points, pack_cache=pack_cache))

    results = []
    for optimizer, predictions in zip(optimizers, predictions_list):
        predictions = np.asarray(predictions).astype(np.int64).copy()
        if optimizer is None or (optimizer.outer_region is None
                                 and optimizer.inner_region is None):
            results.append(predictions)
            continue
        if len(points) != len(predictions):
            raise ValueError("points/predictions length mismatch")
        outer_mask, inner_mask = next(masks), next(masks)
        if optimizer.outer_region is not None:
            # FP fix: a positive prediction outside the
            # outer-subregion is beyond any plausible extension of
            # the labelled interest.
            predictions[~outer_mask & (predictions == 1)] = 0
        if optimizer.inner_region is not None:
            # FN fix: points within the conservative inner-subregion
            # are inside the real UIS.
            predictions[inner_mask & (predictions == 0)] = 1
        results.append(predictions)
    return results


def predict_subspace(subsession, raw_points):
    """``_SubspaceSession.predict`` as it was."""
    raw_points = np.atleast_2d(np.asarray(raw_points, dtype=np.float64))
    scaled = subsession.state.to_scaled(raw_points)
    predictions = predict(subsession,
                          subsession.state.encode_scaled(scaled))
    if subsession.optimizer is not None:
        # The optimizer's hull geometry lives in normalized space.
        predictions = refine_batch([subsession.optimizer], scaled,
                                   [predictions])[0]
    return predictions


def predict_session(session, rows):
    """``ExplorationSession.predict`` as it was (conjunctive)."""
    rows = np.atleast_2d(np.asarray(rows, dtype=np.float64))
    result = np.ones(len(rows), dtype=np.int64)
    for subspace, subsession in session._subsessions.items():
        result &= predict_subspace(subsession, subspace.project(rows))
    return result


def predict_group(subsessions, raw_points):
    """The miss branch of ``SessionManager._predict_group`` as it was:
    misses sub-grouped by model configuration, a lone session on the
    per-session forward, a group on one stacked forward, then one
    ``refine_batch`` per sub-group.  ``subsessions`` share one subspace
    state; returns their answers in input order."""
    state = subsessions[0].state
    scaled = state.to_scaled(raw_points)
    encoded = state.encode_scaled(scaled)
    misses = {}
    for index, subsession in enumerate(subsessions):
        group = misses.setdefault(
            tuple(sorted(subsession.adapted.config.items())), [])
        group.append((index, subsession))
    out = [None] * len(subsessions)
    for group in misses.values():
        if len(group) == 1:
            stacked = predict(group[0][1], encoded)[None, :]
        else:
            stacked = predict_adapted_batch(
                [subsession for _, subsession in group], encoded)
        refined = refine_batch(
            [subsession.optimizer for _, subsession in group],
            scaled, stacked)
        for (index, _), predictions in zip(group, refined):
            out[index] = predictions
    return out


def predict_many(sessions, rows):
    """``SessionManager.predict_many`` as it was, minus its caches:
    ``sessions`` is a list of ``ExplorationSession``; returns their
    conjunctive answers in input order.  A subspace's sessions are
    sub-grouped by the state they adapted under, as the old code did by
    artifact generation (here: the state object)."""
    rows = np.atleast_2d(np.asarray(rows, dtype=np.float64))
    results = [np.ones(len(rows), dtype=np.int64) for _ in sessions]
    groups = {}
    for index, session in enumerate(sessions):
        for subspace, subsession in session._subsessions.items():
            groups.setdefault((subspace, id(subsession.state)), []) \
                .append((index, subsession))
    for (subspace, _), members in groups.items():
        answers = predict_group([subsession for _, subsession in members],
                                subspace.project(rows))
        for (index, _), predictions in zip(members, answers):
            results[index] &= predictions
    return results
