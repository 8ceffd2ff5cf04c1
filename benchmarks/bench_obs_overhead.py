"""Observability overhead: an instrumented serving wave vs metrics off.

The ``repro.obs`` contract is *near-zero cost*: counters, histograms
and spans on the serving hot path must not tax throughput.  This bench
drives the same 32-session serving wave twice through a
:class:`~repro.serve.SessionManager` —

* **on** — observability enabled (the default), with a live span sink
  collecting events, so every histogram observe, cache counter and
  span on the hot path is really exercised;
* **off** — ``repro.obs`` disabled (the ``REPRO_OBS=off`` fast path:
  null metrics, shared no-op span) over an identical fresh manager —

and asserts the relative overhead stays under 5%
(``REPRO_OBS_MAX_OVERHEAD``, a fraction).  The estimator is built for
noisy shared machines: waves alternate between the modes (GC held off
during each timed region), and the overhead is computed from the
**fastest wave of each mode** — external interference only ever adds
time, so the per-mode minimum over many repeats converges on the true
compute cost while scheduler bursts fall away.  The per-pair ratios
are recorded in the baseline for context.  The no-interference
guarantee rides along: predictions from the two modes must be
bit-identical.

``benchmarks/BENCH_obs.json`` holds the recorded baseline; set
``REPRO_OBS_BASELINE=/path.json`` to re-record.
"""

import gc
import json
import os
import time

import numpy as np
import pytest

from repro import obs
from repro.bench import print_series, subspace_region
from repro.core import LTE, LTEConfig
from repro.core.meta_training import MetaHyperParams
from repro.core.uis import UISMode
from repro.data import make_sdss
from repro.data.subspaces import random_decomposition
from repro.explore import ConjunctiveOracle
from repro.serve import SessionManager

VARIANT = "meta_star"
WAVE = 32                       # concurrent sessions per serving wave
N_ORACLES = 16
REPEATS = 11                    # timed (on, off) pairs; best-of per mode
MAX_OVERHEAD = float(os.environ.get("REPRO_OBS_MAX_OVERHEAD", "0.05"))
BASELINE = os.environ.get("REPRO_OBS_BASELINE")


def _build_lte():
    """Smoke-sized system (mirrors bench_serving_throughput): the
    serving regime is many sessions over small per-subspace learners."""
    table = make_sdss(n_rows=6000, seed=7)
    config = LTEConfig(budget=30, ku=40, kq=60, n_tasks=10,
                       embed_size=32, hidden_size=32, n_components=4,
                       meta=MetaHyperParams(epochs=1, local_steps=3,
                                            pretrain_epochs=1),
                       online_steps=30)
    lte = LTE(config)
    subspaces = random_decomposition(table, dim=config.subspace_dim,
                                     seed=config.seed)[:2]
    lte.fit_offline(table, subspaces=subspaces)
    return lte, subspaces


def _oracles(lte, subspaces, count):
    return [
        ConjunctiveOracle({
            s: subspace_region(lte.states[s], UISMode(1, 30),
                               seed=100 + 7 * k + i)
            for i, s in enumerate(subspaces)})
        for k in range(count)
    ]


def _wave(lte, subspaces, oracles, eval_rows):
    """One timed 32-session serving wave on a fresh manager.

    Returns (seconds, predictions) — a fresh manager per run so both
    modes pay identical cache-cold costs and neither inherits the
    other's adapted sessions.
    """
    manager = SessionManager(lte)
    # GC pauses at these sub-second durations are the dominant noise
    # source, and they land asymmetrically (whichever wave crosses a
    # collection threshold pays); collect up front and keep the
    # collector out of the timed region on both sides.
    gc.collect()
    gc.disable()
    try:
        start = time.perf_counter()
        sids = [manager.open_session(variant=VARIANT, subspaces=subspaces,
                                     seed=k)
                for k in range(WAVE)]
        for k, sid in enumerate(sids):
            for subspace, tuples in manager.initial_tuples(sid).items():
                manager.submit_labels(
                    sid, subspace,
                    oracles[k % len(oracles)].label_subspace(subspace,
                                                             tuples))
        manager.flush()
        predictions = manager.predict_many(sids, eval_rows)
        # A second scoring pass over the same rows recomputes every
        # answer at unchanged model versions.
        manager.predict_many(sids, eval_rows)
        seconds = time.perf_counter() - start
    finally:
        gc.enable()
    return seconds, {sid: predictions[sid].copy() for sid in sids}


@pytest.mark.obs
@pytest.mark.benchmark(group="obs")
def test_obs_overhead(benchmark, scale, report):

    def run():
        lte, subspaces = _build_lte()
        eval_rows = lte.table.sample_rows(400, seed=1)
        oracles = _oracles(lte, subspaces, N_ORACLES)
        on_pred, off_pred = None, None
        events = 0
        ratios, on_times, off_times = [], [], []
        # One untimed warm-up wave: the first wave of the process pays
        # allocator/cache warm-up that would otherwise land entirely on
        # whichever mode runs first.
        _wave(lte, subspaces, oracles, eval_rows)

        def timed_on():
            nonlocal on_pred, events
            with obs.enabled_scope(True):
                with obs.capture() as captured:
                    seconds, on_pred = _wave(lte, subspaces, oracles,
                                             eval_rows)
                events = max(events, len(captured))
            return seconds

        def timed_off():
            nonlocal off_pred
            with obs.enabled_scope(False):
                seconds, off_pred = _wave(lte, subspaces, oracles,
                                          eval_rows)
            return seconds

        for repeat in range(REPEATS):
            # Alternate which mode runs first so ordering bias inside a
            # pair cancels across repeats.
            if repeat % 2 == 0:
                on_s, off_s = timed_on(), timed_off()
            else:
                off_s, on_s = timed_off(), timed_on()
            on_times.append(on_s)
            off_times.append(off_s)
            ratios.append(on_s / off_s)
        return ratios, on_times, off_times, events, on_pred, off_pred

    (ratios, on_times, off_times, events, on_pred, off_pred), = \
        [benchmark.pedantic(run, rounds=1, iterations=1)]
    on_seconds, off_seconds = min(on_times), min(off_times)
    overhead = on_seconds / off_seconds - 1.0
    with report():
        print_series(
            "Observability overhead ({} sessions/wave, {} timed pairs)"
            .format(WAVE, REPEATS), "mode", ["on", "off"],
            {"best_seconds": [on_seconds, off_seconds],
             "sessions/s": [WAVE / on_seconds, WAVE / off_seconds]})
        print("  overhead (best-of-{} per mode): {:+.2%} (max {:.0%});"
              " {} span events captured".format(REPEATS, overhead,
                                                MAX_OVERHEAD, events))

    if BASELINE:
        with open(BASELINE, "w") as fh:
            json.dump({"scale": scale.name, "wave": WAVE,
                       "repeats": REPEATS,
                       "cpu_count": os.cpu_count() or 1,
                       "on_seconds": on_seconds,
                       "off_seconds": off_seconds,
                       "pair_ratios": ratios,
                       "overhead": overhead,
                       "span_events": events}, fh, indent=2,
                      sort_keys=True)

    # The instrumentation really fired on the on side...
    assert events > 0
    # ...and never touched a prediction: bit-for-bit identical output.
    assert sorted(on_pred) == sorted(off_pred)
    for sid, ref_sid in zip(sorted(on_pred), sorted(off_pred)):
        assert np.array_equal(on_pred[sid], off_pred[ref_sid])
    # The acceptance bar: < 5% overhead on the 32-session wave
    # (REPRO_OBS_MAX_OVERHEAD relaxes it on noisy shared runners).
    assert overhead < MAX_OVERHEAD, \
        "observability overhead was {:+.2%} (max {:.0%})".format(
            overhead, MAX_OVERHEAD)
