"""Workload builders shared by the paper's experiments.

Centralizes (and caches) the expensive artifacts — synthetic datasets and
offline-trained LTE systems — and generates the ground-truth test UIRs of
Section VIII: convex+conjunctive regions for the baseline comparison
(alpha=1, psi in {20,15,10,5}) and generalized regions for the UIS-mode
study (Table III modes M1-M7).  Test regions are drawn by the same
machinery as meta-tasks but from an *independent* RNG stream, so the
meta-learner is never evaluated on regions it trained on.
"""

from __future__ import annotations

import numpy as np

from ..core.framework import LTE, LTEConfig
from ..core.meta_training import MetaHyperParams
from ..core.uis import PAPER_MODES, UISGenerator, UISMode
from ..data.datasets import load_dataset
from ..explore.oracle import ConjunctiveOracle
from ..geometry.regions import ScaledRegion
from .config import get_scale

__all__ = ["get_table", "build_lte", "convex_oracles", "mode_oracles",
           "mixed_mode_oracles", "subspace_region", "eval_rows_for",
           "clear_caches"]

_TABLE_CACHE = {}
_LTE_CACHE = {}


def clear_caches():
    """Drop cached tables and trained systems (tests use this)."""
    _TABLE_CACHE.clear()
    _LTE_CACHE.clear()


def get_table(dataset="sdss", scale=None, backend="memory"):
    """Cached synthetic dataset at the given bench scale.

    ``backend`` selects the data substrate: ``"memory"`` (default) for
    the dense in-memory :class:`~repro.data.Table`, ``"store"`` for the
    same rows chunked into a :class:`~repro.store.ChunkStore`.
    """
    scale = scale or get_scale()
    key = (dataset, scale.dataset_rows, backend)
    if key not in _TABLE_CACHE:
        _TABLE_CACHE[key] = load_dataset(dataset, n_rows=scale.dataset_rows,
                                         backend=backend)
    return _TABLE_CACHE[key]


def make_config(budget=30, mode=None, scale=None, preprocessing_mode="auto",
                use_memories=True, center_affinity=True, seed=7):
    """LTEConfig tuned to a bench scale (paper defaults otherwise)."""
    scale = scale or get_scale()
    meta = MetaHyperParams(epochs=scale.epochs,
                           local_steps=scale.local_steps)
    return LTEConfig(
        budget=budget,
        task_mode=mode or UISMode(4, 20),
        n_tasks=scale.n_tasks,
        preprocessing_mode=preprocessing_mode,
        use_memories=use_memories,
        center_affinity=center_affinity,
        basic_steps=scale.basic_steps,
        meta=meta,
        seed=seed,
    )


def build_lte(dataset="sdss", budget=30, mode=None, scale=None,
              preprocessing_mode="auto", use_memories=True,
              center_affinity=True, seed=7, train=True):
    """Offline-train (and cache) an LTE system for a bench configuration."""
    scale = scale or get_scale()
    mode = mode or UISMode(4, 20)
    key = (dataset, budget, mode, scale.name, preprocessing_mode,
           use_memories, center_affinity, seed, train)
    if key not in _LTE_CACHE:
        table = get_table(dataset, scale)
        lte = LTE(make_config(budget=budget, mode=mode, scale=scale,
                              preprocessing_mode=preprocessing_mode,
                              use_memories=use_memories,
                              center_affinity=center_affinity, seed=seed))
        lte.fit_offline(table, train=train)
        _LTE_CACHE[key] = lte
    return _LTE_CACHE[key]


def eval_rows_for(lte, scale=None, seed=101):
    """Evaluation row sample from the system's table."""
    scale = scale or get_scale()
    return lte.table.sample_rows(scale.eval_rows, seed=seed)


# ----------------------------------------------------------------------
# Ground-truth test UIR generation
# ----------------------------------------------------------------------
def subspace_region(state, mode, seed):
    """Ground-truth UIS for one subspace, queryable in raw coordinates.

    The region geometry is built over the normalized cluster summary; the
    ScaledRegion wrapper converts raw attribute values on the way in.
    """
    generator = UISGenerator(state.summary.centers_u,
                             state.summary.proximity_u, mode, seed=seed)
    region, _ = generator.generate()
    return ScaledRegion(region, state.scaler)


def convex_oracles(lte, subspaces, n_uirs, psi_choices=(50, 40, 30, 20),
                   seed=12345):
    """Test UIRs for the baseline comparison (Section VIII-B).

    Each subspace gets a convex UIS (alpha=1) whose psi is drawn from
    ``psi_choices``; the full-space UIR is their conjunction (and therefore
    convex, satisfying DSM's assumption).

    The default psi range follows the *training* setting of Section VIII-B
    (alpha=1, psi=50) rather than the generalized-mode test psis of
    Table III: with 2-4 conjoined subspaces, smaller psis drive the joint
    positive rate below what any competitor (or an F1 evaluation on a
    uniform sample) can resolve.
    """
    rng = np.random.default_rng(seed)
    oracles = []
    for _ in range(n_uirs):
        regions = {}
        for subspace in subspaces:
            psi = int(rng.choice(psi_choices))
            regions[subspace] = subspace_region(
                lte.states[subspace], UISMode(alpha=1, psi=psi),
                seed=int(rng.integers(2 ** 31)))
        oracles.append(ConjunctiveOracle(regions))
    return oracles


def mode_oracles(lte, subspaces, mode, n_uirs, seed=54321):
    """Generalized test UIRs for one (alpha, psi) mode (Section VIII-C)."""
    rng = np.random.default_rng(seed)
    oracles = []
    for _ in range(n_uirs):
        regions = {
            subspace: subspace_region(lte.states[subspace], mode,
                                      seed=int(rng.integers(2 ** 31)))
            for subspace in subspaces
        }
        oracles.append(ConjunctiveOracle(regions))
    return oracles


def mixed_mode_oracles(lte, subspaces, n_uirs, seed):
    """UIRs whose per-subspace modes cycle through Table III."""
    modes = list(PAPER_MODES.values())
    return [mode_oracles(lte, subspaces, modes[i % len(modes)], n_uirs=1,
                         seed=seed + i)[0] for i in range(n_uirs)]
