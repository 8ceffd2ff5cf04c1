"""Concurrent sessions: serve many simulated users from one LTE system.

Demonstrates the serving layer (``repro.serve``):

1. offline: pretrain one shared LTE over two meta-subspaces;
2. online: 16 simulated users open sessions concurrently; every label
   submission queues up and ONE fused tensor program adapts all of them
   (``SessionManager.flush``) — the batched path is bit-identical to
   adapting each session sequentially, just several times faster;
3. each user polls, retrieves their interesting tuples (cached,
   stacked prediction) and keeps exploring with extra labels.

Run:  python examples/concurrent_sessions.py
"""

import time

import numpy as np

from repro.bench import subspace_region
from repro.core import LTE, LTEConfig, UISMode
from repro.core.meta_training import MetaHyperParams
from repro.data import make_sdss
from repro.data.subspaces import random_decomposition
from repro.explore import ConjunctiveOracle, f1_score
from repro.serve import SessionManager

N_USERS = 16


def main():
    print("Building a synthetic SDSS table (10K tuples)...")
    table = make_sdss(n_rows=10_000, seed=7)

    config = LTEConfig(budget=30, ku=40, kq=60, n_tasks=40,
                       embed_size=32, hidden_size=32,
                       meta=MetaHyperParams(epochs=1, local_steps=6),
                       online_steps=30)
    lte = LTE(config)
    subspaces = random_decomposition(table, dim=config.subspace_dim,
                                     seed=config.seed)[:2]
    print("Offline phase: meta-training {} shared subspace learners..."
          .format(len(subspaces)))
    lte.fit_offline(table, subspaces=subspaces)

    # Each simulated user has their own ground-truth interest region.
    rng = np.random.default_rng(42)
    oracles = [
        ConjunctiveOracle({
            s: subspace_region(lte.states[s], UISMode(alpha=1, psi=40),
                               seed=int(rng.integers(2 ** 31)))
            for s in subspaces})
        for _ in range(N_USERS)
    ]

    manager = SessionManager(lte)
    print("\nOnline phase: {} users submit labels concurrently..."
          .format(N_USERS))
    sids = []
    for oracle in oracles:
        sid = manager.open_session(variant="meta_star", subspaces=subspaces)
        for subspace, tuples in manager.initial_tuples(sid).items():
            manager.submit_labels(
                sid, subspace, oracle.label_subspace(subspace, tuples))
        sids.append(sid)
    print("  queued adaptations: {}".format(len(manager.pending())))

    start = time.perf_counter()
    adapted = manager.flush()
    print("  ONE fused batch adapted {} (session, subspace) tasks "
          "in {:.2f}s".format(adapted, time.perf_counter() - start))

    eval_rows = table.sample_rows(2000, seed=1)
    predictions = manager.predict_many(sids, eval_rows)   # stacked forward
    f1s = [f1_score(oracle.ground_truth(eval_rows), predictions[sid])
           for sid, oracle in zip(sids, oracles)]
    print("  mean F1 across users: {:.3f}".format(float(np.mean(f1s))))

    # One user keeps exploring: extra labels queue, re-adapt, re-predict.
    sid, oracle = sids[0], oracles[0]
    subspace = subspaces[0]
    state = lte.states[subspace]
    extra = state.to_raw(state.data[:5])
    manager.add_labels(sid, subspace, extra,
                       oracle.label_subspace(subspace, extra))
    status = manager.poll(sid)          # drives the queued re-adaptation
    print("\nUser 0 added labels; model versions now {}".format(
        {str(s): v for s, v in status["versions"].items()}))
    value = manager.metrics.value
    print("Serving metrics: {} live sessions, {} flushes adapted {} "
          "tasks; {} row·subspaces scored by a classifier, {} settled by "
          "hulls".format(
              value("serve.manager.sessions.live"),
              value("serve.manager.adapt.batches"),
              value("serve.manager.adapt.total"),
              value("serve.manager.predict.rows.scored"),
              value("serve.manager.predict.rows.settled")))


if __name__ == "__main__":
    main()
