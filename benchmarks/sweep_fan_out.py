"""The sweeps that size the two fan-out thresholds.

``repro.nn.cores.SPLIT_MACS`` for training stacks and
``repro.core.framework._PREPARE_SPLIT_WORK`` for subspace preparation.

**Training stacks.**  For small nets (``benchmarks/e2e``'s
``shard_fleet``) and paper-size nets (``paper_nets``), a stack of K Meta
tasks over n rows a task runs one ``fused_local_adapt`` of 30 Adam steps
three ways: whole on the process's BLAS threads (how every stack ran
before the fan-out), whole on one BLAS thread, and as two halves on two
threads (``repro.nn.cores.fan_out``).  Each line gives the stack's
estimated multiply-adds a step (``repro.nn.cores.step_macs``), the
median of ``--repeats`` runs of each, the split's speed-up over the
one-thread whole and whether the halves returned the whole stack's bits.

**Subspace preparation.**  ``fit_offline(train=False)`` over four 2-D
subspaces of a 10 000-row SDSS table, for cluster counts from the
``shard_fleet`` nets' to the paper's: the serial loop on the process's
BLAS threads (whole) against two halves of two subspaces each on two
threads (halves).  Each line gives one subspace's clustering work
(``LTE._clustering_work``, ``n · (ku + ks + kq)``), the medians, the
halves' speed-up and whether every prepared state — data, scaler,
cluster summary, pickled preprocessor, quantization baseline — is the
whole loop's, bit for bit.

    PYTHONPATH=src python benchmarks/sweep_fan_out.py [--repeats 5]
        [--only stacks|prep]
"""

from __future__ import annotations

import argparse
import pickle
import time

import numpy as np

from repro.core import LTE, LTEConfig, framework
from repro.core.meta_learner import UISClassifier
from repro.data import make_sdss
from repro.data.subspaces import random_decomposition
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
#: (ku, kq) of the preparation sweep, ks = 25 throughout: the
#: ``shard_fleet`` nets', two between, the paper's.
CLUSTERS = [(40, 60), (60, 100), (80, 140), (100, 200)]
PREP_ROWS, PREP_SUBSPACES = 10_000, 4


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


def sweep_stacks(repeats):
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
            default, _ = timed(lambda: train(stack, tasks), repeats)
            with cores._one_blas_thread():
                held, whole = timed(lambda: train(stack, tasks), repeats)
                split, parts = timed(lambda: cores.fan_out(
                    lambda part: train(stack, part), tasks[:half],
                    tasks[half:]), repeats)
            same = all(np.array_equal(w, np.concatenate([a, b]))
                       for w, a, b in zip(whole, *parts))
            print("{:6} {:3d} {:4d} {:8.2f} {:9.1f} {:9.1f} {:9.1f} "
                  "{:6.2f} {}".format(
                      name, k, rows, cores.step_macs(config, k, rows) / 1e6,
                      default, held, split, held / split,
                      "equal" if same else "DIFFER"))


def prepared_fields(lte):
    """Every array and value a prepared state carries, in order."""
    out = []
    for state in lte.states.values():
        summary = state.summary
        out += [state.data, state.scaler.min_, state.scaler.max_,
                summary.centers_u, summary.centers_s, summary.centers_q,
                summary.proximity_u, summary.proximity_s,
                np.frombuffer(pickle.dumps(state.preprocessor), np.uint8),
                np.float64(state.quantization_baseline)]
    return out


def sweep_preparation(repeats):
    table = make_sdss(PREP_ROWS, seed=0)
    subspaces = random_decomposition(table, dim=2, seed=7)[:PREP_SUBSPACES]
    print("{:>4} {:>4} {:>8} {:>9} {:>9} {:>6} {}".format(
        "ku", "kq", "work", "whole", "halves", "x", "bits"))
    saved = framework._PREPARE_SPLIT_WORK
    try:
        for ku, kq in CLUSTERS:
            config = LTEConfig(ku=ku, kq=kq)

            def prepare(split):
                framework._PREPARE_SPLIT_WORK = 0 if split else np.inf
                return LTE(config).fit_offline(table, subspaces=subspaces,
                                               train=False)

            whole, a = timed(lambda: prepare(False), repeats)
            halves, b = timed(lambda: prepare(True), repeats)
            same = all(np.array_equal(x, y) for x, y in
                       zip(prepared_fields(a), prepared_fields(b)))
            print("{:4d} {:4d} {:8d} {:9.1f} {:9.1f} {:6.2f} {}".format(
                ku, kq, LTE(config)._clustering_work(table), whole, halves,
                whole / halves, "equal" if same else "DIFFER"))
    finally:
        framework._PREPARE_SPLIT_WORK = saved


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument("--only", choices=("stacks", "prep"))
    args = parser.parse_args()
    if cores._BLAS is None or cores.compute_threads() < 2:
        raise SystemExit("needs two cores and numpy's OpenBLAS")
    if args.only != "prep":
        sweep_stacks(args.repeats)
    if args.only != "stacks":
        sweep_preparation(args.repeats)


if __name__ == "__main__":
    main()
