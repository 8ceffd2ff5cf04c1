"""Versioned, dependency-free checkpoint files (npz + JSON manifest).

A checkpoint is a *directory* holding exactly two files:

* ``arrays.npz``    — every numpy array of the saved state, flat;
* ``manifest.json`` — schema version, checkpoint kind, optional user
  metadata, a content digest, and the JSON *tree* describing how the
  arrays reassemble into the original nested state.

The state handed to :func:`save_checkpoint` is a nested structure of
dicts / lists / tuples whose leaves are numpy arrays, numbers, booleans,
strings or ``None`` — exactly what the ``state_dict`` methods across
``repro.nn`` / ``repro.core`` / ``repro.serve`` produce.  Pickle is never
used (``allow_pickle=False`` end to end), so checkpoints are safe to load
from untrusted sources and portable across Python versions.

Integrity is defense-in-depth: a truncated ``arrays.npz``, a digest
mismatch and an unknown schema version each raise a typed
:class:`CheckpointError` with an actionable message — a checkpoint never
loads silently wrong.
"""

from __future__ import annotations

import hashlib
import json
import os
import zipfile

import numpy as np

__all__ = ["CheckpointError", "SCHEMA_VERSION", "save_checkpoint",
           "load_checkpoint", "inspect_checkpoint"]

#: Bump when the on-disk layout changes incompatibly.  Readers refuse
#: checkpoints written with any other version instead of guessing.
SCHEMA_VERSION = 1

_MANIFEST = "manifest.json"
_ARRAYS = "arrays.npz"
_RESERVED = ("__array__", "__tuple__")


class CheckpointError(RuntimeError):
    """A checkpoint could not be written, read or verified.

    Raised for every failure mode of the persist subsystem — missing or
    corrupt files, truncated archives, digest mismatches, unknown schema
    versions, unsupported state types — always with a message saying what
    went wrong and what to do about it.  Never catch-and-ignore this:
    a failed load means the state on disk must not be trusted.
    """


# ----------------------------------------------------------------------
# Tree codec: nested python state <-> (JSON-safe tree, flat array dict)
# ----------------------------------------------------------------------
def _encode(node, arrays):
    if node is None or isinstance(node, (bool, str)):
        return node
    if isinstance(node, (np.bool_,)):
        return bool(node)
    if isinstance(node, (int, np.integer)):
        return int(node)
    if isinstance(node, (float, np.floating)):
        return float(node)
    if isinstance(node, np.ndarray):
        if node.dtype == object:
            raise CheckpointError(
                "cannot checkpoint object-dtype arrays; convert the state "
                "to numeric/bool arrays first")
        ref = "a{}".format(len(arrays))
        arrays[ref] = node
        return {"__array__": ref}
    if isinstance(node, tuple):
        return {"__tuple__": [_encode(item, arrays) for item in node]}
    if isinstance(node, list):
        return [_encode(item, arrays) for item in node]
    if isinstance(node, dict):
        out = {}
        for key, value in node.items():
            if not isinstance(key, str):
                raise CheckpointError(
                    "checkpoint dict keys must be strings, got {!r}; "
                    "stringify the key at the state_dict layer".format(key))
            if key in _RESERVED:
                raise CheckpointError(
                    "dict key {!r} is reserved by the checkpoint "
                    "format".format(key))
            out[key] = _encode(value, arrays)
        return out
    raise CheckpointError(
        "unsupported type {} in checkpoint state; supported leaves are "
        "numpy arrays, int, float, bool, str and None".format(type(node)))


def _decode(node, arrays):
    if isinstance(node, dict):
        if "__array__" in node:
            ref = node["__array__"]
            if ref not in arrays:
                raise CheckpointError(
                    "manifest references array {!r} missing from "
                    "arrays.npz — the checkpoint is incomplete".format(ref))
            return arrays[ref]
        if "__tuple__" in node:
            return tuple(_decode(item, arrays) for item in node["__tuple__"])
        return {key: _decode(value, arrays) for key, value in node.items()}
    if isinstance(node, list):
        return [_decode(item, arrays) for item in node]
    return node


def _canonical_json(tree):
    return json.dumps(tree, sort_keys=True, separators=(",", ":"))


def _digest(kind, tree, arrays):
    """128-bit content digest over the kind, tree and every array."""
    h = hashlib.blake2b(digest_size=16)
    h.update(kind.encode())
    h.update(_canonical_json(tree).encode())
    for ref in sorted(arrays):
        array = np.ascontiguousarray(arrays[ref])
        h.update(ref.encode())
        h.update(str(array.dtype).encode())
        h.update(str(array.shape).encode())
        h.update(array.tobytes())
    return h.hexdigest()


# ----------------------------------------------------------------------
# Public API
# ----------------------------------------------------------------------
def save_checkpoint(path, kind, state, meta=None):
    """Write ``state`` as a checkpoint directory at ``path``.

    Parameters
    ----------
    path:
        Target directory (created if missing; existing checkpoint files
        are overwritten).
    kind:
        A short string naming what the checkpoint holds (e.g.
        ``"session-manager"``); :func:`load_checkpoint` can enforce it.
    state:
        Nested dict/list/tuple structure of arrays and scalars.
    meta:
        Optional JSON-able dict of user metadata, stored verbatim in the
        manifest (not covered by the content digest, so it is editable).

    Returns the manifest dict that was written.
    """
    if not isinstance(kind, str) or not kind:
        raise CheckpointError("checkpoint kind must be a non-empty string")
    arrays = {}
    tree = _encode(state, arrays)
    manifest = {
        "schema_version": SCHEMA_VERSION,
        "kind": kind,
        "meta": meta or {},
        "digest": _digest(kind, tree, arrays),
        "n_arrays": len(arrays),
        "tree": tree,
    }
    os.makedirs(path, exist_ok=True)
    # Write-then-rename: a crash during the (long) array write leaves a
    # previous checkpoint untouched; the worst remaining window is the
    # instant between the two renames, which the digest check turns into
    # a loud CheckpointError rather than a silent wrong-weights load.
    # (np.savez appends ".npz" to names lacking it, so keep the suffix.)
    arrays_tmp = os.path.join(path, "arrays.tmp.npz")
    manifest_tmp = os.path.join(path, _MANIFEST + ".tmp")
    np.savez(arrays_tmp, **arrays)
    with open(manifest_tmp, "w") as fh:
        json.dump(manifest, fh, sort_keys=True, indent=1)
    os.replace(arrays_tmp, os.path.join(path, _ARRAYS))
    os.replace(manifest_tmp, os.path.join(path, _MANIFEST))
    return manifest


def _read_manifest(path):
    manifest_path = os.path.join(path, _MANIFEST)
    if not os.path.isfile(manifest_path):
        raise CheckpointError(
            "no checkpoint at {!r}: {} is missing (expected a directory "
            "written by repro.persist.save_checkpoint)".format(
                path, _MANIFEST))
    try:
        with open(manifest_path) as fh:
            manifest = json.load(fh)
    except (OSError, ValueError) as error:
        raise CheckpointError(
            "checkpoint manifest {!r} is unreadable or not valid JSON "
            "({}); the checkpoint is corrupt — re-save it".format(
                manifest_path, error))
    schema = manifest.get("schema_version")
    if schema != SCHEMA_VERSION:
        raise CheckpointError(
            "checkpoint at {!r} uses schema version {!r} but this build "
            "reads version {}; upgrade repro (newer checkpoint) or "
            "re-save the state with this build (older/unknown "
            "checkpoint)".format(path, schema, SCHEMA_VERSION))
    kind = manifest.get("kind")
    if not isinstance(kind, str) or not kind:
        raise CheckpointError(
            "checkpoint manifest at {!r} carries no valid 'kind' field "
            "({!r}); the manifest is corrupt — re-save the "
            "checkpoint".format(path, kind))
    return manifest


def _read_arrays(path):
    arrays_path = os.path.join(path, _ARRAYS)
    try:
        with np.load(arrays_path, allow_pickle=False) as npz:
            return {name: npz[name] for name in npz.files}
    except (OSError, ValueError, EOFError, zipfile.BadZipFile) as error:
        raise CheckpointError(
            "checkpoint archive {!r} cannot be read ({}: {}); the file is "
            "missing, truncated or corrupt — restore it from a backup or "
            "re-save the state".format(
                arrays_path, type(error).__name__, error))


def load_checkpoint(path, expected_kind=None):
    """Load and verify a checkpoint written by :func:`save_checkpoint`.

    Verifies the schema version, the archive integrity and the content
    digest *before* reconstructing the state; any failure raises
    :class:`CheckpointError` — a wrong-weights load is impossible.

    Returns ``(state, info)`` where ``info`` carries ``kind``, ``meta``,
    ``digest`` and ``schema_version``.
    """
    manifest = _read_manifest(path)
    kind = manifest.get("kind")
    if expected_kind is not None and kind != expected_kind:
        raise CheckpointError(
            "checkpoint at {!r} holds kind {!r}, expected {!r}; you are "
            "loading the wrong artifact into this API".format(
                path, kind, expected_kind))
    arrays = _read_arrays(path)
    digest = _digest(kind, manifest.get("tree"), arrays)
    if digest != manifest.get("digest"):
        raise CheckpointError(
            "content digest mismatch for checkpoint at {!r} (manifest "
            "says {}, arrays hash to {}); the checkpoint was modified or "
            "partially written — refusing to load".format(
                path, manifest.get("digest"), digest))
    state = _decode(manifest.get("tree"), arrays)
    info = {"kind": kind, "meta": manifest.get("meta", {}),
            "digest": digest, "schema_version": SCHEMA_VERSION}
    return state, info


def inspect_checkpoint(path):
    """Summarize a checkpoint without reconstructing its state.

    Returns a dict with ``kind``, ``schema_version``, ``meta``,
    ``digest``, ``n_arrays``, ``total_bytes`` and ``digest_ok`` (full
    verification against ``arrays.npz``); raises :class:`CheckpointError`
    only when the manifest itself is missing/corrupt or from an unknown
    schema version.
    """
    manifest = _read_manifest(path)
    summary = {
        "kind": manifest.get("kind"),
        "schema_version": manifest.get("schema_version"),
        "meta": manifest.get("meta", {}),
        "digest": manifest.get("digest"),
        "n_arrays": manifest.get("n_arrays"),
        "total_bytes": None,
        "digest_ok": False,
        "error": None,
    }
    try:
        arrays = _read_arrays(path)
    except CheckpointError as error:
        summary["error"] = str(error)
        return summary
    summary["total_bytes"] = int(sum(a.nbytes for a in arrays.values()))
    digest = _digest(manifest.get("kind"), manifest.get("tree"), arrays)
    summary["digest_ok"] = digest == manifest.get("digest")
    if not summary["digest_ok"]:
        summary["error"] = "content digest mismatch"
    return summary
