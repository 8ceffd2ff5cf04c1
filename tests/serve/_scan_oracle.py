"""A chunk at a time as the oracle of ``scan_conjunctions``.

Until the store scan answered *runs* of chunks as blocks,
``ExplorationSession.predict_store`` and
``SessionManager.predict_many_store`` each walked the chunks themselves
— validate the watermark, copy the remembered prefix, ``for ci in
range(n_chunks)``, one ``predict_conjunctions`` call (the manager: one
``_answer_block``) per chunk, re-mark.  The two
bodies below are that code, moved here with ``self`` spelled
``session`` / ``manager``.  Since then both keep their watermarks on
the session and report one ``last_store_scan`` shape, and the bodies
follow.  ``test_scan_blocks.py`` compares answers, ``last_store_scan``
and marks of the block scan against them.  Nothing in ``src/`` imports
this module.
"""

import numpy as np

from repro.obs import span
from repro.store.scan import session_chunk_keep


def predict_store(session, store):
    """``ExplorationSession.predict_store`` as it was."""
    session._require_predictable()
    uid = getattr(store, "uid", None)
    models = tuple(ss.model_version
                   for ss in session._subsessions.values())
    mark = session._store_marks.get(uid) if uid is not None else None
    valid = (
        mark is not None and mark["models"] == models
        and store.store_version >= mark["version"]
        and store.n_chunks >= mark["closed"]
        and (mark["closed"] == 0
             or store.zone_maps.digests[mark["closed"] - 1]
             == mark["tail_digest"]))
    if valid and store.store_version == mark["version"] \
            and store.n_rows == mark["n_rows"]:
        session.last_store_scan = {
            "sessions": 1, "chunks": int(store.n_chunks),
            "chunk_evals": 0, "chunk_evals_possible": int(store.n_chunks),
            "watermark_skipped": int(store.n_chunks), "pruned_skipped": 0,
            "sessions_served_from_mark": 1,
        }
        return mark["result"].astype(np.int64)
    start_chunk, prefix_rows = (mark["closed"], mark["closed_rows"]) \
        if valid else (0, 0)
    keep = session_chunk_keep(store, session._subsessions)
    result = np.zeros(store.n_rows, dtype=np.int64)
    if prefix_rows:
        result[:prefix_rows] = mark["result"][:prefix_rows]
    scanned = 0
    for ci in np.flatnonzero(keep):
        if ci < start_chunk:
            continue
        block = store.chunk(ci)
        start = int(store.offsets[ci])
        result[start:start + len(block)] = session._answer(
            session._subsessions,
            lambda subspace: subspace.project(block), len(block))
        scanned += 1
    session.last_store_scan = {
        "sessions": 1, "chunks": int(store.n_chunks),
        "chunk_evals": scanned, "chunk_evals_possible": int(store.n_chunks),
        "watermark_skipped": int(start_chunk),
        "pruned_skipped": int(store.n_chunks - start_chunk - scanned),
        "sessions_served_from_mark": 0,
    }
    if uid is not None:
        closed = store.closed_chunks
        session._store_marks[uid] = {
            "version": int(store.store_version),
            "n_rows": int(store.n_rows),
            "closed": int(closed),
            "closed_rows": int(store.offsets[closed]),
            "tail_digest": store.zone_maps.digests[closed - 1]
            if closed else None,
            "models": models,
            "result": result.astype(np.int8),
        }
    return result


def predict_many_store(manager, session_ids, store):
    """``SessionManager.predict_many_store`` as it was."""
    with manager._lock, span("serve.manager.store_scan") as scan_span:
        manager.flush(raise_errors=False)
        sessions = {sid: session._subsessions for sid, session
                    in manager._answerable(session_ids).items()}
        uid = getattr(store, "uid", None)
        n_chunks = store.n_chunks
        results = {sid: np.zeros(store.n_rows, dtype=np.int64)
                   for sid in sessions}
        model_versions, start_chunk = {}, {}
        served_from_mark = 0
        for sid, subsessions in sessions.items():
            models = tuple(ss.model_version
                           for ss in subsessions.values())
            model_versions[sid] = models
            mark = manager.session(sid)._store_marks.get(uid) \
                if uid is not None else None
            valid = (
                mark is not None and mark["models"] == models
                and store.store_version >= mark["version"]
                and n_chunks >= mark["closed"]
                and (mark["closed"] == 0
                     or store.zone_maps.digests[mark["closed"] - 1]
                     == mark["tail_digest"]))
            if valid and store.store_version == mark["version"] \
                    and store.n_rows == mark["n_rows"]:
                results[sid] = mark["result"].astype(np.int64)
                start_chunk[sid] = n_chunks
                served_from_mark += 1
            elif valid:
                start_chunk[sid] = mark["closed"]
                results[sid][:mark["closed_rows"]] = \
                    mark["result"][:mark["closed_rows"]]
            else:
                start_chunk[sid] = 0
        session_keep = {
            sid: session_chunk_keep(store, subsessions)
            for sid, subsessions in sessions.items()}
        evals = {sid: 0 for sid in sessions}
        for ci in range(n_chunks):
            live = {sid: subsessions
                    for sid, subsessions in sessions.items()
                    if ci >= start_chunk[sid] and session_keep[sid][ci]}
            if not live:
                continue
            block = store.chunk(ci)
            start = int(store.offsets[ci])
            answers = manager._answer_block(
                live, lambda subspace: np.ascontiguousarray(
                    block[:, list(subspace.columns)]),
                len(block))
            for sid, predictions in answers.items():
                results[sid][start:start + len(block)] = predictions
                evals[sid] += 1
        manager.last_store_scan = {
            "sessions": len(sessions),
            "chunks": int(n_chunks),
            "chunk_evals": int(sum(evals.values())),
            "chunk_evals_possible": int(len(sessions) * n_chunks),
            "watermark_skipped": int(sum(start_chunk.values())),
            "pruned_skipped": int(sum(
                n_chunks - start_chunk[sid] - evals[sid]
                for sid in sessions)),
            "sessions_served_from_mark": int(served_from_mark),
        }
        scan = manager.last_store_scan
        scan_span.annotate(chunk_evals=scan["chunk_evals"],
                           watermark_skipped=scan["watermark_skipped"],
                           pruned_skipped=scan["pruned_skipped"])
        manager.metrics.counter(
            "serve.manager.store_scan.chunk_evals") \
            .inc(scan["chunk_evals"])
        manager.metrics.counter(
            "serve.manager.store_scan.watermark_skipped") \
            .inc(scan["watermark_skipped"])
        manager.metrics.counter(
            "serve.manager.store_scan.pruned_skipped") \
            .inc(scan["pruned_skipped"])
        if uid is not None:
            closed = store.closed_chunks
            closed_rows = int(store.offsets[closed])
            tail_digest = store.zone_maps.digests[closed - 1] \
                if closed else None
            for sid in sessions:
                manager.session(sid)._store_marks[uid] = {
                    "version": int(store.store_version),
                    "n_rows": int(store.n_rows),
                    "closed": int(closed),
                    "closed_rows": closed_rows,
                    "tail_digest": tail_digest,
                    "models": model_versions[sid],
                    "result": results[sid].astype(np.int8),
                }
        return results
