"""The sweep that sizes ``repro.nn.cores.SPLIT_MACS``.

For small nets (``benchmarks/e2e``'s ``shard_fleet``) and paper-size
nets (``paper_nets``), a stack of K Meta tasks over n rows a task runs
one ``fused_local_adapt`` of 30 Adam steps three ways: whole on the
process's BLAS threads (how every stack ran before the fan-out), whole
on one BLAS thread, and as two halves on two threads
(``repro.nn.cores.fan_out``).  Each line gives the stack's estimated
multiply-adds a step (``repro.nn.cores.step_macs``), the median of
``--repeats`` runs of each, the split's speed-up over the one-thread
whole and whether the halves returned the whole stack's bits.

    PYTHONPATH=src python benchmarks/sweep_fan_out.py [--repeats 5]
"""

from __future__ import annotations

import argparse
import time

import numpy as np

from repro.core.meta_learner import UISClassifier
from repro.nn import cores
from repro.nn.batching import fused_local_adapt

#: (name, ku, representation width, Ne, H) of the two workloads' nets.
NETS = [("small", 40, 50, 32, 32), ("paper", 100, 118, 100, 64)]
#: (K, rows): a flush's 30-odd labels, and the 100 / 230 rows of a
#: meta-batch's query sets and a pretrain epoch's tasks.
STACKS = [(2, 30), (4, 30), (6, 30), (8, 30), (12, 30), (16, 30), (32, 30),
          (48, 30), (64, 30), (2, 100), (3, 100), (4, 100), (8, 100),
          (2, 230), (4, 230)]
STEPS = 30


def make_stack(k, rows, ku, width, ne, hidden, seed=0):
    rng = np.random.default_rng(seed)
    models = [UISClassifier(ku, width, ne, hidden, use_conversion=True,
                            seed=seed + i) for i in range(k)]
    base = np.hstack([np.eye(ne)] * 3) / 3.0
    conversions = [base + rng.normal(0.0, 0.01, size=base.shape)
                   for _ in range(k)]
    features = rng.normal(size=(k, ku))
    xs = rng.normal(size=(k, rows, width))
    ys = (rng.random((k, rows)) < 0.4).astype(np.float64)
    return models, conversions, features, xs, ys


def train(stack, tasks):
    """The adapted parameters of ``tasks`` of the stack, as arrays."""
    models, conversions, features, xs, ys = stack
    batched, conversion, _ = fused_local_adapt(
        [models[i] for i in tasks], features[tasks], xs[tasks], ys[tasks],
        conversions=[conversions[i] for i in tasks], steps=STEPS, lr=0.01)
    return [p.data for p in batched.parameters()] + [conversion.data]


def timed(run, repeats):
    seconds = []
    for _ in range(repeats):
        start = time.perf_counter()
        out = run()
        seconds.append(time.perf_counter() - start)
    return 1e3 * float(np.median(seconds)), out


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--repeats", type=int, default=5)
    args = parser.parse_args()
    if cores._BLAS is None or cores.compute_threads() < 2:
        raise SystemExit("needs two cores and numpy's OpenBLAS")
    print("{:6} {:>3} {:>4} {:>8} {:>9} {:>9} {:>9} {:>6} {}".format(
        "nets", "K", "rows", "Mmac", "default", "1-thread", "split",
        "x", "bits"))
    for name, ku, width, ne, hidden in NETS:
        config = dict(ku=ku, input_width=width, embed_size=ne,
                      hidden_size=hidden, use_conversion=True)
        for k, rows in STACKS:
            stack = make_stack(k, rows, ku, width, ne, hidden)
            tasks = list(range(k))
            half = (k + 1) // 2
            default, _ = timed(lambda: train(stack, tasks), args.repeats)
            with cores._one_blas_thread():
                held, whole = timed(lambda: train(stack, tasks),
                                    args.repeats)
                split, parts = timed(lambda: cores.fan_out(
                    lambda part: train(stack, part), tasks[:half],
                    tasks[half:]), args.repeats)
            same = all(np.array_equal(w, np.concatenate([a, b]))
                       for w, a, b in zip(whole, *parts))
            print("{:6} {:3d} {:4d} {:8.2f} {:9.1f} {:9.1f} {:9.1f} "
                  "{:6.2f} {}".format(
                      name, k, rows, cores.step_macs(config, k, rows) / 1e6,
                      default, held, split, held / split,
                      "equal" if same else "DIFFER"))


if __name__ == "__main__":
    main()
