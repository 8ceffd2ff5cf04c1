"""Data-parallel offline pretraining with resumable checkpoints.

The offline phase (Algorithm 2) is LTE's expensive part.  This example
runs the same ``fit_offline`` three ways —

* in this process (the default),
* data-parallel over 2 forked workers (``workers=2``), and
* data-parallel again, streaming the encoded meta-tasks through an
  on-disk chunk store (``stream=...``) so peak memory stays bounded by
  the chunk size instead of the task count —

and verifies the determinism contract the engine guarantees: every phi,
loss history and memory bank is **bit-identical** across all three.  It
then kills a checkpointed 2-worker run mid-training and resumes it in
process, showing that epoch-granular ``pretrain-run`` checkpoints
interchange freely between worker counts (they are written only at
epoch reduction barriers).

Run:  python examples/parallel_pretraining.py
"""

import shutil
import tempfile
import time

import numpy as np

from repro.core import LTE, LTEConfig
from repro.core.meta_training import MetaHyperParams
from repro.data import make_sdss


def config():
    return LTEConfig(budget=30, ku=32, kq=40, n_tasks=24,
                     embed_size=16, hidden_size=16, n_components=4,
                     meta=MetaHyperParams(epochs=2, local_steps=6,
                                          pretrain_epochs=1))


def fit(table, **kwargs):
    lte = LTE(config())
    start = time.perf_counter()
    lte.fit_offline(table, **kwargs)
    return lte, time.perf_counter() - start


def phi_of(lte):
    return {s: state.trainer.model.flat_parameters()
            for s, state in lte.states.items()}


def assert_same_phi(a, b, label):
    for subspace in a.states:
        assert np.array_equal(phi_of(a)[subspace], phi_of(b)[subspace]), \
            "{}: phi diverged on {}".format(label, subspace)
    print("  {:<28} -> bit-identical phi".format(label))


def main():
    table = make_sdss(n_rows=5000, seed=7)
    print("SDSS table: {} rows; {} meta-tasks per subspace".format(
        table.n_rows, config().n_tasks))

    print("\n1. The same offline run, three ways:")
    batched, t_batched = fit(table)
    print("  in process                   -> {:.2f}s".format(t_batched))
    parallel, t_parallel = fit(table, workers=2)
    print("  workers=2                    -> {:.2f}s".format(t_parallel))
    assert_same_phi(batched, parallel, "2 workers vs in process")

    stream_dir = tempfile.mkdtemp(prefix="repro-example-stream-")
    try:
        streamed, t_streamed = fit(table, workers=2, stream=stream_dir)
        print("  workers=2 + streamed tasks   -> {:.2f}s "
              "(encoded tasks spilled under {})".format(
                  t_streamed, stream_dir))
        assert_same_phi(batched, streamed, "streamed vs in process")
    finally:
        shutil.rmtree(stream_dir, ignore_errors=True)

    print("\n2. Kill a checkpointed 2-worker run mid-training, resume "
          "in process:")
    checkpoint = tempfile.mkdtemp(prefix="repro-example-ckpt-")
    try:
        class Killed(Exception):
            pass

        def kill_after_first_meta_epoch(subspace, stage):
            if isinstance(stage, tuple) and stage[0] == "epoch" \
                    and stage[1] == 0:
                raise Killed()

        interrupted = LTE(config())
        try:
            interrupted.fit_offline(table, workers=2,
                                    checkpoint=checkpoint,
                                    progress=kill_after_first_meta_epoch)
        except Killed:
            print("  killed after the first meta epoch; checkpoint "
                  "written at the epoch barrier")

        resumed = LTE(config())
        resumed.fit_offline(table, checkpoint=checkpoint)
        assert_same_phi(batched, resumed, "resumed vs uninterrupted")
    finally:
        shutil.rmtree(checkpoint, ignore_errors=True)

    print("\nEvery path converged to the same weights, bit for bit.")


if __name__ == "__main__":
    main()
