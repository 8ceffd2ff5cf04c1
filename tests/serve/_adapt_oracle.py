"""One request at a time as the oracle of ``run_adapt_requests``.

Until a lone request became a stack of one, ``core/framework.py`` kept
a sequential executor beside the stacked one: ``run_adapt_request``
(with ``_train_basic_classifier`` for the Basic variant and the eager
``MetaTrainer.adapt`` for Meta / Meta*) served
``ExplorationSession.submit_labels`` / ``add_labels`` and every bucket
of one.  The two bodies below are that code, moved here verbatim (the
eager ``adapt`` is the one of ``tests/train/_sequential_oracle.py``);
the parity suite compares ``run_adapt_requests``, the sessions, the
manager and the gateway against them.  A re-adaptation (a request with a
``start`` classifier) runs :func:`_continue`: the same sequential loop
from a clone of that classifier, for the request's (warm) step count.
Meta and Meta* step the tuple and classification blocks only, in both:
theta_R and M_cp keep the values the memories retrieved.  Nothing in
``src/`` imports this module.

:func:`submit_labels` / :func:`add_labels` drive a session the way
``_SubspaceSession`` did: build the request, run it here, install the
result.
"""

import os
import sys

from repro.core.meta_learner import UISClassifier
from repro.core.meta_training import AdaptedClassifier
from repro.core.optimizer import FewShotOptimizer
from repro.nn import SGD, Adam, Parameter
from repro.nn.functional import (balanced_pos_weight,
                                 binary_cross_entropy_with_logits)

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                os.pardir, "train"))
from _sequential_oracle import adapt  # noqa: E402


def _train_basic_classifier(request):
    """Train the Basic (non-meta) classifier for one request."""
    cfg = request.config
    state = request.state
    model = UISClassifier(
        ku=state.summary.ku, input_width=state.preprocessor.width,
        embed_size=cfg.embed_size, hidden_size=cfg.hidden_size,
        use_conversion=False, seed=cfg.seed)
    optimizer = Adam(model.parameters(), lr=cfg.basic_lr)
    targets = request.targets
    pos_weight = balanced_pos_weight(targets) \
        if cfg.meta.balance_classes else None
    for _ in range(cfg.basic_steps):
        optimizer.zero_grad()
        logits = model.forward(request.feature, request.encoded)
        loss = binary_cross_entropy_with_logits(logits, targets,
                                                pos_weight=pos_weight)
        loss.backward()
        optimizer.step()
    return AdaptedClassifier(model, request.feature)


def _continue(request):
    """A re-adaptation: the one-task local loop from a clone of the
    request's ``start`` classifier, with fresh optimizer moments; Basic
    trains all of it, Meta / Meta* the tuple and classification blocks."""
    start = request.start
    model = start.model.clone()
    conversion = None if start.conversion is None \
        else Parameter(start.conversion.data.copy())
    if request.variant == "basic":
        trainable = list(model.parameters())
    else:
        trainable = [*model.tuple_block.parameters(),
                     *model.clf_block.parameters()]
    optimizer = (Adam if request.optimizer_kind == "adam" else SGD)(
        trainable, lr=request.lr)
    targets = request.targets
    pos_weight = balanced_pos_weight(targets) \
        if request.balance_classes else None
    for _ in range(request.steps):
        optimizer.zero_grad()
        logits = model.forward(request.feature, request.encoded,
                               conversion=conversion)
        loss = binary_cross_entropy_with_logits(logits, targets,
                                                pos_weight=pos_weight)
        loss.backward()
        optimizer.step()
    return AdaptedClassifier(model, request.feature, conversion)


def run_adapt_request(request):
    """Execute one request sequentially.

    Returns ``(AdaptedClassifier, FewShotOptimizer | None)`` — the
    few-shot optimizer only for initial ``meta_star`` requests.
    """
    cfg = request.config
    state = request.state
    if request.start is not None:
        adapted = _continue(request)
    elif request.variant == "basic":
        adapted = _train_basic_classifier(request)
    else:
        adapted, _ = adapt(
            state.trainer,
            request.feature, request.encoded, request.targets,
            local_steps=cfg.online_steps, local_lr=cfg.online_lr)
    optimizer = None
    if request.builds_optimizer:
        optimizer = FewShotOptimizer(
            state.summary, n_sup_ratio=cfg.n_sup_ratio,
            n_sub_ratio=cfg.n_sub_ratio).fit(request.center_bits)
    return adapted, optimizer


def submit_labels(session, subspace, labels):
    """``ExplorationSession.submit_labels`` over :func:`run_adapt_request`."""
    subsession = session._subsessions[subspace]
    request = subsession.build_initial_request(labels)
    adapted, optimizer = run_adapt_request(request)
    subsession.install_adaptation(request, adapted, optimizer, 0.0)


def add_labels(session, subspace, tuples, labels):
    """``ExplorationSession.add_labels`` over :func:`run_adapt_request`."""
    subsession = session._subsessions[subspace]
    request, extras = subsession.build_readapt_request_for(tuples, labels)
    adapted, _ = run_adapt_request(request)
    subsession.install_readaptation(adapted, extras)
