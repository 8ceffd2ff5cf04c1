"""Metrics of one run, made from the facts :func:`loop.run` returns.

End-to-end metrics need only the driver's own clock readings.  Per-layer
metrics need the spans and the registry windows of a traced run; a layer
the workload does not use reads 0.
"""

import resource
import statistics
import time

import numpy as np

from spans import Recorder

MEASURED = ("phase.fit", "phase.waves", "phase.store")


def median(values):
    values = list(values)
    return statistics.median(values) if values else 0.0


def ratio(part, whole):
    return part / whole if whole else 0.0


def rusage(workers=True):
    """(user s, system s, minor faults, peak RSS MiB) of the driver plus
    the children it has waited for.  Peak RSS adds the largest child to
    the driver when the workload has ``workers``, since they live beside
    it; without workers the only children are the interpreters that
    timed the imports, which a user does not run."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return (own.ru_utime + kids.ru_utime, own.ru_stime + kids.ru_stime,
            own.ru_minflt + kids.ru_minflt,
            (own.ru_maxrss + bool(workers) * kids.ru_maxrss) / 1024.0)


def faster_half(timings):
    """The mean over the faster half of a run's units — fits, waves,
    full scans, store cycles.  Disturbances of this host only ever slow
    a unit down, and a disturbed run has them in some units and not in
    others: its faster half is the part that resembles an undisturbed
    run, its slower half is where runs of one commit differ.  Over six
    collections of ten runs this statistic had the smallest worst-case
    spread (README.md, "Noise"); the fastest unit alone, the median and
    the mean each did worse in some state of the host."""
    timings = sorted(timings)
    return statistics.fmean(timings[:(len(timings) + 1) // 2])


def end_to_end(facts, import_seconds):
    """Every timing is that of the faster half of the run's units; a
    latency percentile is taken within a wave (a store cycle) first."""
    sizes = facts["sizes"]
    waves, store = facts["waves"], facts["store"]
    fit_s = faster_half(f["seconds"] for f in facts["fits"])
    wave_s = faster_half(w["seconds"] for w in waves)
    row_s = faster_half(s["seconds"] / s["rows"]
                        for s in store["scans"] if s["full"])
    return {
        "setup_s": import_seconds
        + median(s["seconds"] for s in facts["setup"]),
        "peak_rss_mb": rusage(sizes["workers"])[3],
        "f1_mean": facts["f1_mean"],
        "pretrain_tasks_per_s":
            sizes["fit_subspaces"] * sizes["fit_tasks"] / fit_s,
        "sessions_per_s": sizes["clients"] / wave_s,
        "label_to_prediction_p50_ms": 1e3 * faster_half(
            np.percentile(w["samples"], 50) for w in waves),
        "label_to_prediction_p90_ms": 1e3 * faster_half(
            np.percentile(w["samples"], 90) for w in waves),
        "scan_row_sessions_per_s": sizes["store_sessions"] / row_s,
        "label_to_fresh_p50_ms": 1e3 * faster_half(
            median(cycle) for cycle in store["fresh"]),
    }


def series(facts):
    """Every measured second the end-to-end metrics are made of, and
    every burst of the host-speed kernel (calibrate.py)."""
    store = facts["store"]
    return {
        "setup": [s["seconds"] for s in facts["setup"]],
        "fit": [f["seconds"] for f in facts["fits"]],
        "wave": [w["seconds"] for w in facts["waves"]],
        "label_to_prediction": [w["samples"] for w in facts["waves"]],
        "full_scan": [s["seconds"] for s in store["scans"] if s["full"]],
        "full_scan_rows": [s["rows"] for s in store["scans"] if s["full"]],
        "label_to_fresh": store["fresh"],
        "bursts": {name: window.bursts
                   for name, window in facts["windows"].items()},
    }


def sample_counts(facts):
    store = facts["store"]
    return {
        "setup_repeats": len(facts["setup"]),
        "fits": len(facts["fits"]),
        "waves": len(facts["waves"]),
        "label_to_prediction": sum(len(w["samples"])
                                   for w in facts["waves"]),
        "full_scans": sum(s["full"] for s in store["scans"]),
        "appends": sum(len(cycle) for cycle in store["fresh"]),
        "f1_sessions": facts["f1_sessions"],
    }


def span_cost():
    """Seconds one kept span costs the driver, measured here and now."""
    scratch = Recorder(keep=True)
    start = time.perf_counter()
    for _ in range(2000):
        with scratch.span("x"):
            pass
    return (time.perf_counter() - start) / 2000


def per_layer(facts, rec):
    sizes, windows = facts["sizes"], facts["windows"]
    setup, store = facts["setup"], facts["store"]
    phases = [s for s in rec.spans if s.name in MEASURED]
    measured_wall = sum(s.seconds for s in phases)

    def measured(span):
        return any(p.start <= span.start and span.end <= p.end
                   for p in phases)

    def spans(name, inside=False):
        return [s.seconds for s in rec.named(name)
                if not inside or measured(s)]

    def wave_spans(name):
        """Spans of the wave phases; where a gateway serves the waves,
        the in-process manager's spans of the whole run."""
        return [s.seconds for s in rec.named(name)
                if any(p.name == "phase.waves" and p.start <= s.start
                       and s.end <= p.end for p in phases)] or spans(name)

    def total(names, key):
        """Sum of one registry metric over the named windows."""
        field = "sum" if key.endswith(".seconds") else "value"
        return sum(windows[n].delta.get(key, {}).get(field, 0)
                   for n in names if n in windows)

    def hit_ratio(prefix):
        hits = total(serving, prefix + ".hits")
        return ratio(hits, hits + total(serving, prefix + ".misses"))

    serving, everywhere = ("waves", "store"), ("fit", "waves", "store")
    manager = "serve.manager."
    scan = manager + "store_scan."
    scanned_rows = sum(s["rows"] for s in store["scans"])
    row_sessions = scanned_rows * sizes["store_sessions"]
    evals, marked, pruned = (total(["store"], scan + k) for k in
                             ("chunk_evals", "watermark_skipped",
                              "pruned_skipped"))
    adapt = total(serving, manager + "adapt.train.seconds")
    forward_store = total(["store"], manager + "predict.forward.seconds")
    wave_s = [w["seconds"] for w in facts["waves"]]
    quarter = max(1, len(wave_s) // 4)
    samples = [s for w in facts["waves"] for s in w["samples"]]
    sharded = bool(sizes["workers"])
    workers = windows["waves"].worker_delta
    busy = sum(workers.get(manager + key, {}).get("sum", 0.0)
               for key in ("flush.seconds", "predict.seconds"))
    single = ratio(sizes["clients"], facts["replay"]["served"])
    rpc_calls = total(["waves"], "shard.gateway.rpc.calls")
    rpc_s = total(["waves"], "shard.gateway.rpc.seconds")
    user_s, sys_s, faults, _ = rusage()
    self_s = sum(rec.self_seconds(rec.spans.index(p)) for p in phases)
    kept = sum(measured(s) for s in rec.spans)

    def setup_median(key):
        return median(s.get(key, 0.0) for s in setup)

    return {
        "data.make_table_ms": 1e3 * setup_median("make_table"),
        "data.build_store_rows_per_s":
            ratio(sizes["store_rows"], setup_median("build_store")),
        "store.open_ms": 1e3 * setup_median("store_open"),
        "store.append_ms_p50": 1e3 * median(spans("store.append", True)),
        "store.append_rows_per_s":
            ratio(len(spans("store.append", True)) * sizes["chunk_rows"],
                  sum(spans("store.append", True))),
        "store.freshness_observe_ms":
            1e3 * facts.get("freshness_observe", 0.0),
        "store.scan.chunk_evals": evals,
        "store.scan.watermark_skipped": marked,
        "store.scan.pruned_skipped": pruned,
        "store.scan.skip_ratio":
            ratio(marked + pruned, evals + marked + pruned),
        "core.prep_s": median(f["prep"] for f in facts["fits"]),
        "core.encode_s":
            total(serving, manager + "predict.encode.seconds"),
        "core.encode_us_per_row": 1e6 * ratio(
            total(["store"], manager + "predict.encode.seconds"),
            scanned_rows),
        "core.refresh_drifted_s": facts.get("refresh_drifted", 0.0),
        "train.fit_offline_s": sum(f["seconds"] for f in facts["fits"]),
        "train.quick_pretrain_s": setup_median("fit"),
        "train.pretrain_epochs_s":
            total(["fit"], "train.offline.pretrain_epoch.seconds"),
        "train.meta_epochs_s":
            total(["fit"], "train.offline.meta_epoch.seconds"),
        "nn.adapt_train_s": adapt,
        "nn.adapt_ms_per_task":
            1e3 * ratio(adapt, total(serving, manager + "adapt.total")),
        "nn.forward_s":
            total(serving, manager + "predict.forward.seconds"),
        "nn.forward_us_per_row_session":
            1e6 * ratio(forward_store, row_sessions),
        "nn.plan_cache_hits":
            total(everywhere, "nn.compile.plan_cache.hits"),
        "nn.plan_cache_misses":
            total(everywhere, "nn.compile.plan_cache.misses"),
        "nn.backend_replays":
            total(everywhere, "nn.compile.backend.replays"),
        "nn.backend_fallbacks":
            total(everywhere, "nn.compile.backend.fallbacks"),
        "geometry.refine_s":
            total(serving, manager + "predict.refine.seconds"),
        "geometry.refine_us_per_row_session": 1e6 * ratio(
            total(["store"], manager + "predict.refine.seconds"),
            row_sessions),
        "geometry.pack_cache_hit_ratio": hit_ratio("geometry.pack_cache"),
        "serve.submit_ms_p50": 1e3 * median(wave_spans("serve.submit")),
        "serve.flush_ms_p50": 1e3 * median(wave_spans("serve.flush")),
        "serve.flush_s": sum(spans("serve.flush", True)),
        "serve.predict_many_ms_p50":
            1e3 * median(wave_spans("serve.predict_many")),
        "serve.predict_many_s": sum(spans("serve.predict_many", True)),
        "serve.predict_many_store_s":
            sum(spans("serve.predict_many_store", True)),
        "serve.queue_wait_s":
            total(serving, manager + "queue.wait.seconds"),
        "serve.adapt_build_s":
            total(serving, manager + "adapt.build.seconds"),
        "serve.adapt_install_s":
            total(serving, manager + "adapt.install.seconds"),
        "serve.encode_cache_hit_ratio":
            hit_ratio(manager + "encode_cache"),
        "serve.prediction_cache_hit_ratio":
            hit_ratio("serve.cache.prediction"),
        "serve.first_wave_ms": 1e3 * facts["first_wave"],
        "serve.wave_drift_pct": 100.0 * (ratio(
            median(wave_s[-quarter:]), median(wave_s[:quarter])) - 1.0),
        "shard.spawn_s": setup_median("spawn"),
        "shard.submit_ms_p50": 1e3 * median(spans("shard.submit")),
        "shard.flush_all_ms_p50": 1e3 * median(spans("shard.flush")),
        "shard.predict_many_ms_p50":
            1e3 * median(spans("shard.predict_many")),
        "shard.rpc_calls": rpc_calls,
        "shard.rpc_s": rpc_s,
        "shard.rpc_us_per_call": 1e6 * ratio(rpc_s, rpc_calls),
        "shard.rpc_payload_bytes_per_wave": facts.get("payload_bytes", 0),
        "shard.worker_busy_share": ratio(
            busy, sizes["workers"] * windows["waves"].seconds),
        "shard.single_process_sessions_per_s": single if sharded else 0.0,
        "shard.scaling_x": ratio(ratio(
            sizes["clients"], median(w["served"] for w in facts["waves"])),
            single) if sharded else 0.0,
        "shard.label_to_prediction_p99_ms":
            1e3 * np.percentile(samples, 99) if sharded else 0.0,
        "shard.wide_preview_round_ms_p50":
            1e3 * median(facts.get("wide_rounds", ())),
        "shard.wide_preview_round_ms_p90": 1e3 * float(np.percentile(
            facts.get("wide_rounds", [0.0]), 90)),
        "shard.publish_model_s": facts.get("publish_model", 0.0),
        "shard.close_s": (spans("shard.close") or [0.0])[-1],
        "persist.save_pretrained_ms":
            1e3 * facts.get("save_pretrained", 0.0),
        "persist.load_pretrained_ms":
            1e3 * facts.get("load_pretrained", 0.0),
        "persist.checkpoint_bytes": facts.get("checkpoint_bytes", 0),
        "persist.save_manager_ms": 1e3 * facts.get("save_manager", 0.0),
        "persist.load_manager_ms": 1e3 * facts.get("load_manager", 0.0),
        "explore.oracle_label_s": sum(spans("explore.oracle_label", True)),
        "driver.self_share": ratio(self_s, measured_wall),
        "proc.user_s": user_s,
        "proc.sys_s": sys_s,
        "proc.minor_faults": faults,
        "obs.traced_overhead_pct":
            100.0 * ratio(kept * span_cost(), measured_wall),
        "host.burst_ms": 1e3 * median(
            b for window in windows.values() for b in window.bursts),
    }
