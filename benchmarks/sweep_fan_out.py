"""The sweeps that size the two fan-out thresholds and the BLAS holds.

``repro.nn.cores.SPLIT_MACS`` for training stacks and
``repro.core.framework._PREPARE_SPLIT_WORK`` for subspace preparation.

**Training stacks.**  For small nets (``benchmarks/e2e``'s
``shard_fleet``) and paper-size nets (``paper_nets``), a stack of K Meta
tasks over n rows a task runs 30 Adam steps of the stacked step program
(a flush's 30-row stacks as ``fused_local_adapt``'s online local phase,
over the tuple and classification blocks; the larger ones as pretrain
steps, over all three blocks against a constant conversion) three ways:
whole on the process's BLAS threads (how every stack ran before the
fan-out), whole on one BLAS thread, and as two halves on two threads
(``repro.nn.cores.fan_out``).  Each line gives the stack's estimated
multiply-adds a step (``repro.nn.cores.step_macs``), the median of
``--repeats`` runs of each, the split's speed-up over the one-thread
whole and whether the halves returned the whole stack's bits.

**Subspace preparation.**  ``fit_offline(train=False)`` over four 2-D
subspaces of a 10 000-row SDSS table, for cluster counts from the
``shard_fleet`` nets' to the paper's: the serial loop on the process's
BLAS threads (whole) against two halves of two subspaces each on two
threads (halves).  Each line gives one subspace's clustering work
(``LTE._clustering_work``, ``n · (ku + ks + kq)``), the medians, the
halves' speed-up and whether every prepared state — data, scaler,
cluster summary, pickled preprocessor, quantization baseline — is the
whole loop's, bit for bit.

**OpenBLAS's spinning worker** (``--only spin``).  After a product that
ran on two BLAS threads, OpenBLAS's worker spins on the other core for
about 0.13 s before it sleeps; a fan-out that starts inside that window
shares a core with it.  Three readings, each the median of
``--repeats``:

* a label round's warm adapt bucket — K = 16 paper-size tasks of 30
  labels, 10 steps, split as the flush splits it — timed after a 0.3 s
  pause, right after a 1 000-row prediction on the process's BLAS
  threads, and right after the same prediction held at one thread;
* caller-row predictions of a paper-size Meta* session over 1 000,
  8 192 and 65 536 rows, held at one BLAS thread against the process's
  count: throughput and whether the answers are equal;
* a paper-size fit (``benchmarks/e2e``'s ``paper_nets`` measured fit)
  right after a threaded product against after a 0.3 s pause: the whole
  fit and its subspace preparation.  A store scan keeps two BLAS
  threads, so a fit after one still starts beside the spinner.

    PYTHONPATH=src python benchmarks/sweep_fan_out.py [--repeats 5]
        [--only stacks|prep|spin]
"""

from __future__ import annotations

import argparse
import contextlib
import pickle
import time
from functools import partial

import numpy as np

from repro.bench import subspace_region
from repro.core import LTE, LTEConfig, framework
from repro.core.meta_learner import UISClassifier
from repro.core.meta_training import MetaHyperParams
from repro.core.uis import UISMode
from repro.data import make_sdss
from repro.data.subspaces import random_decomposition
from repro.explore import ConjunctiveOracle
from repro.geometry.engine import HullPackCache
from repro.nn import Adam, cores
from repro.nn.batching import (BatchedUISClassifier, block_leaves,
                               fused_local_adapt, inference_logits,
                               retrieval_constants, step_program)
from repro.nn.functional import batched_pos_weight

#: (name, ku, representation width, Ne, H) of the two workloads' nets.
NETS = [("small", 40, 50, 32, 32), ("paper", 100, 118, 100, 64)]
#: (K, rows): a flush's 30-odd labels (``FLUSH_ROWS``, trained online),
#: and the 100 / 230 rows of a meta-batch's query sets and a pretrain
#: epoch's tasks.
STACKS = [(2, 30), (4, 30), (6, 30), (8, 30), (12, 30), (16, 30), (32, 30),
          (48, 30), (64, 30), (2, 100), (3, 100), (4, 100), (8, 100),
          (2, 230), (4, 230)]
STEPS = 30
FLUSH_ROWS = 30
#: (ku, kq) of the preparation sweep, ks = 25 throughout: the
#: ``shard_fleet`` nets', two between, the paper's.
CLUSTERS = [(40, 60), (60, 100), (80, 140), (100, 200)]
PREP_ROWS, PREP_SUBSPACES = 10_000, 4
#: The spin sweep's warm adapt bucket (K, rows, steps), the pause that
#: lets OpenBLAS's worker fall asleep, the preview a wave predicts on
#: and the caller-row prediction sizes.
SPIN_BUCKET = (16, 30, 10)
IDLE_S = 0.3
PREVIEW_ROWS = 1000
PREDICT_ROWS = (1000, 8192, 65_536)


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


def train(stack, tasks, steps=STEPS, keep_retrieved=False):
    """The trained parameters of ``tasks`` of the stack, as arrays: the
    online local phase with ``keep_retrieved``, else pretrain steps."""
    models, conversions, features, xs, ys = stack
    batched = BatchedUISClassifier([models[i] for i in tasks])
    conversion = np.stack([conversions[i] for i in tasks])
    features, xs, ys = features[tasks], xs[tasks], ys[tasks]
    if keep_retrieved:
        fused_local_adapt(batched, features, xs, ys, steps=steps, lr=0.01,
                          retrieved=retrieval_constants(
                              block_leaves(batched.uis_block),
                              features[:, None], conversion))
    else:
        loss_backward = step_program(batched, xs.shape, conversion=conversion)
        optimizer = Adam(batched.parameters(), lr=0.01)
        for _ in range(steps):
            loss_backward(features, xs, ys, batched_pos_weight(ys))
            optimizer.step()
    return [p.data for p in batched.parameters()]


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
            run = partial(train, stack, keep_retrieved=rows == FLUSH_ROWS)
            default, _ = timed(lambda: run(tasks), repeats)
            with cores.one_blas_thread():
                held, whole = timed(lambda: run(tasks), repeats)
                split, parts = timed(lambda: cores.fan_out(
                    run, tasks[:half], tasks[half:]), repeats)
            same = all(np.array_equal(w, np.concatenate([a, b]))
                       for w, a, b in zip(whole, *parts))
            print("{:6} {:3d} {:4d} {:8.2f} {:9.1f} {:9.1f} {:9.1f} "
                  "{:6.2f} {}".format(
                      name, k, rows, cores.step_macs(
                          config, k, rows, rows == FLUSH_ROWS) / 1e6,
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


def sweep_spin(repeats):
    name, ku, width, ne, hidden = NETS[1]
    config = dict(ku=ku, input_width=width, embed_size=ne,
                  hidden_size=hidden, use_conversion=True)
    k, rows, steps = SPIN_BUCKET
    stack = make_stack(k, rows, ku, width, ne, hidden)
    macs = cores.step_macs(config, k, rows, keep_retrieved=True)
    models, conversions, features, _, _ = stack
    preview = np.random.default_rng(1).normal(size=(PREVIEW_ROWS, width))

    def predict_preview():
        inference_logits(models[0], features[0], preview, conversions[0])

    def held_preview():
        with cores.one_blas_thread():
            predict_preview()

    def bucket():
        return cores.run_stack(
            lambda part: train(stack, part, steps, keep_retrieved=True),
            list(range(k)), macs)

    befores = {"after a pause": lambda: time.sleep(IDLE_S),
               "after a prediction": predict_preview,
               "after a held one": held_preview}
    bucket()                    # compile Adam, fill the allocator
    seconds = {case: [] for case in befores}
    for _ in range(repeats):
        for case, before in befores.items():
            before()
            start = time.perf_counter()
            bucket()
            seconds[case].append(time.perf_counter() - start)
    print("{} warm adapt bucket, K = {}, {} rows, {} steps ({:.1f} Mmac "
          "a step):".format(name, k, rows, steps, macs / 1e6))
    idle = np.median(seconds["after a pause"])
    for case, times in seconds.items():
        print("  {:20} {:7.1f} ms  x{:.2f}".format(
            case, 1e3 * np.median(times), np.median(times) / idle))

    table = make_sdss(16_384, seed=0)
    subspaces = random_decomposition(table, dim=2, seed=7)[:4]
    fit_config = LTEConfig(n_tasks=6, meta=MetaHyperParams(local_steps=10))

    def fit():
        prepared = []
        start = time.perf_counter()
        lte = LTE(fit_config).fit_offline(
            table, subspaces=subspaces,
            progress=lambda subspace, stage: prepared.append(
                time.perf_counter()) if stage == "prepared" else None)
        return lte, time.perf_counter() - start, prepared[-1] - start

    lte, _, _ = fit()
    fits = {"after a pause": [], "after a prediction": []}
    for _ in range(repeats):
        for case, times in fits.items():
            befores[case]()
            times.append(fit()[1:])
    print("paper-size fit ({} subspaces, {} tasks each):".format(
        len(subspaces), fit_config.n_tasks))
    for case, times in fits.items():
        whole, prepare = np.median(times, axis=0)
        print("  {:20} fit {:6.2f} s, preparation {:6.2f} s".format(
            case, whole, prepare))

    oracle = ConjunctiveOracle({
        s: subspace_region(lte.states[s], UISMode(1, 20), seed=i)
        for i, s in enumerate(subspaces)})
    session = lte.start_session(variant="meta_star", subspaces=subspaces)
    for subspace, tuples in session.initial_tuples().items():
        session.submit_labels(subspace,
                              oracle.label_subspace(subspace, tuples))
    rows = make_sdss(max(PREDICT_ROWS), seed=1).data
    cache = HullPackCache(capacity=len(subspaces))
    print("{:>7} {:>12} {:>12} {:>6} {}".format(
        "rows", "rows/s", "held rows/s", "x", "answers"))
    for n in PREDICT_ROWS:
        block = rows[:n]

        def answer(held):
            hold = cores.one_blas_thread if held else contextlib.nullcontext
            with hold():
                answers, _ = framework.predict_conjunctions(
                    {None: session._subsessions},
                    lambda subspace: subspace.project(block), n, cache)
            return answers[None]

        answer(False)           # compile the packs, fill the allocator
        answers, seconds = {}, {False: [], True: []}
        for _ in range(repeats):
            for held, times in seconds.items():
                start = time.perf_counter()
                answers[held] = answer(held)
                times.append(time.perf_counter() - start)
        unheld_s, held_s = np.median(seconds[False]), np.median(seconds[True])
        print("{:7d} {:12.0f} {:12.0f} {:6.2f} {}".format(
            n, n / unheld_s, n / held_s, unheld_s / held_s,
            "equal" if np.array_equal(answers[False], answers[True])
            else "DIFFER"))


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument("--only", choices=("stacks", "prep", "spin"))
    args = parser.parse_args()
    if cores._BLAS is None or cores.compute_threads() < 2:
        raise SystemExit("needs two cores and numpy's OpenBLAS")
    sweeps = {"stacks": sweep_stacks, "prep": sweep_preparation,
              "spin": sweep_spin}
    for name, sweep in sweeps.items():
        if args.only in (None, name):
            sweep(args.repeats)


if __name__ == "__main__":
    main()
