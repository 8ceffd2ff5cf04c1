"""Checkpoint & restore: survive a process restart mid-workload.

Demonstrates the persist subsystem (``repro.persist``):

1. offline: pretrain one shared LTE and ship it as an ``lte-pretrained``
   checkpoint (npz + JSON manifest with schema version + content digest);
2. online: users open serving sessions, label, adapt, and predict; the
   whole serving engine — sessions, a still-pending label batch, the
   serving counters — is snapshotted to disk mid-workload;
3. "the process dies": every live object is dropped;
4. restart: the offline artifacts are re-prepared cheaply
   (``fit_offline(train=False)``), the pretrained weights restore
   instantly, the serving snapshot restores, and the workload continues —
   producing BIT-IDENTICAL predictions (and the same model versions and
   serving counters) as a control run that was never interrupted.

Run:  python examples/checkpoint_restore.py
"""

import os
import tempfile
import time

import numpy as np

from repro import persist
from repro.bench import subspace_region
from repro.core import LTE, LTEConfig, UISMode
from repro.core.meta_training import MetaHyperParams
from repro.data import make_sdss
from repro.data.subspaces import random_decomposition
from repro.explore import ConjunctiveOracle
from repro.serve import SessionManager

N_USERS = 6


def build_config():
    return LTEConfig(budget=30, ku=40, kq=60, n_tasks=20,
                     embed_size=32, hidden_size=32,
                     meta=MetaHyperParams(epochs=1, local_steps=4),
                     online_steps=20)


def run_workload_until_snapshot(lte, subspaces, oracles, eval_rows):
    """Open sessions, adapt, predict, and leave one batch pending."""
    manager = SessionManager(lte)
    sids = []
    for oracle in oracles:
        sid = manager.open_session(variant="meta_star", subspaces=subspaces)
        for subspace, tuples in manager.initial_tuples(sid).items():
            manager.submit_labels(
                sid, subspace, oracle.label_subspace(subspace, tuples))
        sids.append(sid)
    manager.flush()
    for sid in sids:
        manager.predict(sid, eval_rows)
    # User 0 submits an extra label round that is still *queued* when the
    # snapshot is taken — pending work survives the restart too.
    subspace = subspaces[0]
    state = lte.states[subspace]
    extra = state.to_raw(state.data[:5])
    manager.add_labels(sids[0], subspace, extra,
                       oracles[0].label_subspace(subspace, extra))
    return manager, sids


def continue_workload(manager, sids, eval_rows):
    """The post-restart half: drain the queue, re-predict everything."""
    manager.flush()
    return {sid: manager.predict(sid, eval_rows) for sid in sids}


def model_versions(manager, sids):
    """{session: {subspace names: model version}}."""
    return {sid: {tuple(s.names): version for s, version in
                  manager.poll(sid, advance=False)["versions"].items()}
            for sid in sids}


def serving_counters(manager):
    """The manager's counters and gauges from its metrics registry."""
    return {name: entry["value"]
            for name, entry in manager.metrics.snapshot().items()
            if name.startswith("serve.manager.")
            and entry["kind"] in ("counter", "gauge")}


def main():
    workdir = tempfile.mkdtemp(prefix="repro-checkpoints-")
    lte_path = os.path.join(workdir, "lte-pretrained")
    serving_path = os.path.join(workdir, "serving-snapshot")

    print("Building a synthetic SDSS table (8K tuples)...")
    table = make_sdss(n_rows=8_000, seed=7)
    config = build_config()
    lte = LTE(config)
    subspaces = random_decomposition(table, dim=config.subspace_dim,
                                     seed=config.seed)[:2]
    print("Offline phase: meta-training {} shared subspace learners..."
          .format(len(subspaces)))
    start = time.perf_counter()
    lte.fit_offline(table, subspaces=subspaces)
    cold_seconds = time.perf_counter() - start
    persist.save_pretrained(lte_path, lte, meta={"demo": "restart"})
    print("  pretrained artifact saved to {}".format(lte_path))

    rng = np.random.default_rng(42)
    oracles = [
        ConjunctiveOracle({
            s: subspace_region(lte.states[s], UISMode(alpha=1, psi=40),
                               seed=int(rng.integers(2 ** 31)))
            for s in subspaces})
        for _ in range(N_USERS)
    ]
    eval_rows = table.sample_rows(1500, seed=1)

    print("\nOnline phase: {} users adapt + predict, then SNAPSHOT "
          "mid-workload...".format(N_USERS))
    manager, sids = run_workload_until_snapshot(lte, subspaces, oracles,
                                                eval_rows)
    print("  pending at snapshot time: {}".format(manager.pending()))
    persist.save_manager(serving_path, manager)
    summary = persist.inspect_checkpoint(serving_path)
    print("  serving snapshot: {} arrays, {} bytes, digest {} ({})".format(
        summary["n_arrays"], summary["total_bytes"], summary["digest"],
        "verified" if summary["digest_ok"] else "CORRUPT"))

    # Control: the same manager continues uninterrupted.
    control = continue_workload(manager, sids, eval_rows)
    control_versions = model_versions(manager, sids)
    control_counters = serving_counters(manager)

    print("\nSimulated crash: dropping the LTE system and the manager.")
    del manager, lte

    print("Restart: re-prepare offline artifacts (no training) + restore.")
    start = time.perf_counter()
    lte = LTE(build_config())
    lte.fit_offline(table, subspaces=subspaces, train=False)
    persist.load_pretrained(lte_path, lte)
    warm_seconds = time.perf_counter() - start
    restored = persist.load_manager(serving_path, lte)
    print("  warm start took {:.2f}s vs {:.2f}s cold pretraining "
          "({:.1f}x faster)".format(warm_seconds, cold_seconds,
                                    cold_seconds / max(warm_seconds, 1e-9)))
    print("  restored pending queue: {}".format(restored.pending()))

    resumed = continue_workload(restored, sids, eval_rows)
    identical = all(np.array_equal(control[sid], resumed[sid])
                    for sid in sids)
    print("\nRestore-and-continue vs uninterrupted run:")
    print("  predictions bit-identical for all {} users: {}".format(
        len(sids), identical))
    same_versions = control_versions == model_versions(restored, sids)
    print("  model versions preserved: {}".format(same_versions))
    restored_counters = serving_counters(restored)
    same_counters = control_counters == restored_counters
    print("  serving counters preserved: {} ({} counters, {} adaptations)"
          .format(same_counters, len(restored_counters),
                  restored_counters.get("serve.manager.adapt.total", 0)))
    if not (identical and same_versions and same_counters):
        raise SystemExit("restore parity violated — this is a bug")
    print("\nCheckpoints kept at {} — try:".format(workdir))
    print("  python -m repro.persist inspect {}".format(serving_path))


if __name__ == "__main__":
    main()
