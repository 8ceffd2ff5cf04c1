"""Vectorized multi-task adaptation: the serving hot path.

Online adaptation of one (session, subspace) pair is a few-shot
fine-tuning loop over a tiny :class:`~repro.core.meta_learner.UISClassifier`
— individually far too small to saturate anything, and dominated by
Python/autograd overhead.  The stacking substrate lives in
:mod:`repro.nn.batching` (shared with the offline meta-training engine,
:mod:`repro.train`): a :class:`~repro.nn.BatchedUISClassifier` holds
(K, ...) parameter stacks, the loss reduces per task along the last
axis, and one Adam instance updates all K tasks at once.  Because the
tasks are independent, the stacked computation is block-diagonal: every
task receives exactly the gradients and updates the sequential path
would give it, which the parity suite (``tests/serve``) verifies for all
three variants.

This module keeps only the *serving-specific* layer: turning
:class:`~repro.core.framework.AdaptRequest` objects (any mix of
variants, sessions and subspaces) into shape buckets, replaying the
task-wise initialization (memory retrievals), and rebuilding per-request
``(AdaptedClassifier, FewShotOptimizer | None)`` results exactly like
the sequential :func:`~repro.core.framework.run_adapt_request`.
"""

from __future__ import annotations

import numpy as np

from ..nn.batching import BatchedUISClassifier, fused_local_adapt
from ..nn.tensor import Parameter
from ..core.framework import run_adapt_request
from ..core.meta_learner import UISClassifier
from ..core.meta_training import AdaptedClassifier
from ..core.optimizer import FewShotOptimizer

__all__ = ["BatchedUISClassifier", "run_adapt_requests",
           "predict_adapted_batch"]


def _prepare_local_models(requests):
    """Per-task initial models + conversion matrices for one bucket.

    Replays exactly the task-wise initialization of the sequential paths:
    Basic builds a fresh seed-``config.seed`` classifier; Meta/Meta* clone
    the subspace's meta-learned phi and apply the memory retrievals
    (attention -> theta_R shift, conversion matrix).
    """
    models, conversions = [], []
    for request in requests:
        cfg = request.config
        state = request.state
        if request.variant == "basic":
            model = UISClassifier(
                ku=state.summary.ku, input_width=state.preprocessor.width,
                embed_size=cfg.embed_size, hidden_size=cfg.hidden_size,
                use_conversion=False, seed=cfg.seed)
            conversions.append(None)
        else:
            trainer = state.trainer
            model = trainer.model.clone(seed=trainer.seed)
            if trainer.use_memories:
                attention = trainer.memories.attention(request.feature)
                omega = trainer.memories.omega_r(attention)
                model.set_theta_r_flat(
                    model.get_theta_r_flat() - trainer.params.sigma * omega)
                conversions.append(trainer.memories.conversion(attention))
            else:
                conversions.append(None)
        models.append(model)
    return models, conversions


def _adapt_bucket(requests):
    """Fused adaptation of shape-compatible requests (one per task)."""
    first = requests[0]
    models, conversions = _prepare_local_models(requests)

    features = np.stack([r.feature for r in requests])        # (K, ku)
    xs = np.stack([r.encoded for r in requests])              # (K, n, w)
    ys = np.stack([r.targets for r in requests])              # (K, n)

    # Step-count parity: the sequential basic trainer runs exactly
    # ``basic_steps`` iterations, while ``MetaTrainer.adapt`` floors its
    # local steps at 1.
    steps = first.steps if first.variant == "basic" else max(1, first.steps)
    batched, conversion = fused_local_adapt(
        models, features, xs, ys, conversions=conversions, steps=steps,
        lr=first.lr, optimizer_kind=first.optimizer_kind,
        balance_classes=first.balance_classes)

    batched.unstack_into(models)
    results = []
    for i, request in enumerate(requests):
        conv = Parameter(conversion.data[i].copy()) \
            if conversion is not None else None
        results.append(AdaptedClassifier(models[i], request.feature, conv))
    return results


def predict_adapted_batch(adapted_classifiers, tuple_vectors):
    """0/1 predictions of K adapted classifiers on shared rows, (K, n):
    one call of the Tensor-free kernel per classifier, nothing stacked.
    (The manager scores each session over the rows *its* hulls left
    open instead: ``AdaptedClassifier.predict_open``.)"""
    tuple_vectors = np.asarray(tuple_vectors, dtype=np.float64)
    return np.stack([adapted.predict(tuple_vectors)
                     for adapted in adapted_classifiers])


def run_adapt_requests(requests):
    """Batched drop-in for running many sequential ``run_adapt_request``s.

    Requests are grouped into shape-compatible buckets (same variant,
    label count, representation width, hyper-parameters — sessions and
    subspaces may differ freely inside a bucket) and each bucket trains
    as one fused autograd graph.  Few-shot optimizers for ``meta_star``
    requests are then batch-built with shared proximity sorts.

    Returns ``[(AdaptedClassifier, FewShotOptimizer | None), ...]`` in
    input order, element-for-element equivalent to
    ``[run_adapt_request(r) for r in requests]``.
    """
    requests = list(requests)
    adapted = [None] * len(requests)
    buckets = {}
    for i, request in enumerate(requests):
        buckets.setdefault(request.shape_key(), []).append(i)
    for indices in buckets.values():
        group = [requests[i] for i in indices]
        if len(group) == 1:
            # A lone request gains nothing from stacking; run it on the
            # sequential executor (identical math either way).
            result, optimizer = run_adapt_request(group[0])
            adapted[indices[0]] = (result, optimizer)
            continue
        for i, result in zip(indices, _adapt_bucket(group)):
            adapted[i] = (result, None)

    # Batch-build the geometric optimizers for meta_star requests that
    # went through the fused path.
    pending = [i for i, request in enumerate(requests)
               if request.builds_optimizer and adapted[i][1] is None]
    if pending:
        fitted = FewShotOptimizer.fit_batch(
            [(requests[i].state.summary, requests[i].center_bits,
              requests[i].config.n_sup_ratio, requests[i].config.n_sub_ratio)
             for i in pending])
        for i, optimizer in zip(pending, fitted):
            adapted[i] = (adapted[i][0], optimizer)
    return adapted
