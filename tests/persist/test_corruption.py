"""Corruption & forward-compat: every bad checkpoint fails loudly.

A truncated archive, a digest mismatch and an unknown schema version must
each raise the typed :class:`~repro.persist.CheckpointError` with an
actionable message — a silent wrong-weights load is the one failure mode
this subsystem may never have.
"""

import json
import os

import numpy as np
import pytest

from repro.persist import (CheckpointError, SCHEMA_VERSION,
                           inspect_checkpoint, load_checkpoint,
                           save_checkpoint)


@pytest.fixture()
def checkpoint(tmp_path):
    path = tmp_path / "ck"
    state = {"weights": np.arange(12, dtype=np.float64).reshape(3, 4),
             "step": 7, "name": "unit"}
    save_checkpoint(path, "unit-test", state, meta={"origin": "test"})
    return path


pytestmark = pytest.mark.smoke


def test_clean_checkpoint_loads(checkpoint):
    state, info = load_checkpoint(checkpoint, expected_kind="unit-test")
    assert state["step"] == 7
    assert info["meta"] == {"origin": "test"}
    summary = inspect_checkpoint(checkpoint)
    assert summary["digest_ok"]
    assert summary["error"] is None


def test_truncated_npz_raises(checkpoint):
    arrays = checkpoint / "arrays.npz"
    payload = arrays.read_bytes()
    arrays.write_bytes(payload[:len(payload) // 2])
    with pytest.raises(CheckpointError,
                       match="missing, truncated or corrupt"):
        load_checkpoint(checkpoint)
    assert not inspect_checkpoint(checkpoint)["digest_ok"]


def test_missing_npz_raises(checkpoint):
    os.remove(checkpoint / "arrays.npz")
    with pytest.raises(CheckpointError, match="cannot be read"):
        load_checkpoint(checkpoint)


def test_digest_mismatch_raises(checkpoint):
    # Rewrite the archive with one tampered value: structurally valid,
    # but the contents no longer match the manifest digest.
    with np.load(checkpoint / "arrays.npz") as npz:
        arrays = {name: npz[name].copy() for name in npz.files}
    first = sorted(arrays)[0]
    arrays[first].flat[0] += 1
    np.savez(checkpoint / "arrays.npz", **arrays)
    with pytest.raises(CheckpointError, match="digest mismatch"):
        load_checkpoint(checkpoint)
    summary = inspect_checkpoint(checkpoint)
    assert not summary["digest_ok"]
    assert "digest mismatch" in summary["error"]


def test_unknown_schema_version_raises(checkpoint):
    manifest_path = checkpoint / "manifest.json"
    manifest = json.loads(manifest_path.read_text())
    manifest["schema_version"] = SCHEMA_VERSION + 1
    manifest_path.write_text(json.dumps(manifest))
    with pytest.raises(CheckpointError, match="schema version"):
        load_checkpoint(checkpoint)
    with pytest.raises(CheckpointError, match="upgrade repro"):
        inspect_checkpoint(checkpoint)


def test_corrupt_manifest_raises(checkpoint):
    (checkpoint / "manifest.json").write_text("{not json")
    with pytest.raises(CheckpointError, match="not valid JSON"):
        load_checkpoint(checkpoint)


def test_missing_kind_field_raises(checkpoint):
    manifest_path = checkpoint / "manifest.json"
    manifest = json.loads(manifest_path.read_text())
    del manifest["kind"]
    manifest_path.write_text(json.dumps(manifest))
    with pytest.raises(CheckpointError, match="no valid 'kind'"):
        load_checkpoint(checkpoint)
    with pytest.raises(CheckpointError, match="no valid 'kind'"):
        inspect_checkpoint(checkpoint)


def test_missing_checkpoint_raises(tmp_path):
    with pytest.raises(CheckpointError, match="manifest.json is missing"):
        load_checkpoint(tmp_path / "nowhere")


def test_wrong_kind_raises(checkpoint):
    with pytest.raises(CheckpointError, match="wrong artifact"):
        load_checkpoint(checkpoint, expected_kind="session-manager")


def test_unsupported_state_rejected(tmp_path):
    with pytest.raises(CheckpointError, match="object-dtype"):
        save_checkpoint(tmp_path / "ck", "bad",
                        {"a": np.array([object()])})
    with pytest.raises(CheckpointError, match="keys must be strings"):
        save_checkpoint(tmp_path / "ck", "bad", {1: "x"})
    with pytest.raises(CheckpointError, match="reserved"):
        save_checkpoint(tmp_path / "ck", "bad", {"__array__": "x"})
    with pytest.raises(CheckpointError, match="unsupported type"):
        save_checkpoint(tmp_path / "ck", "bad", {"f": lambda: None})


def test_dangling_array_reference_raises(checkpoint):
    manifest_path = checkpoint / "manifest.json"
    manifest = json.loads(manifest_path.read_text())
    # Re-point the weights leaf at an array the archive does not hold,
    # recomputing nothing: the digest check fires first by design, so
    # rewrite digest too to reach the decode layer.
    from repro.persist.checkpoint import _digest
    manifest["tree"]["weights"]["__array__"] = "a999"
    with np.load(checkpoint / "arrays.npz") as npz:
        arrays = {name: npz[name].copy() for name in npz.files}
    manifest["digest"] = _digest(manifest["kind"], manifest["tree"], arrays)
    manifest_path.write_text(json.dumps(manifest))
    with pytest.raises(CheckpointError, match="incomplete"):
        load_checkpoint(checkpoint)


def test_cli_reports_corruption(tmp_path, capsys):
    from repro.persist.cli import main
    assert main(["inspect", str(tmp_path / "nowhere")]) == 2
    err = capsys.readouterr().err
    assert "manifest.json is missing" in err


def test_save_leaves_no_temp_files(checkpoint):
    """Write-then-rename: only the two canonical files remain."""
    assert sorted(os.listdir(checkpoint)) == ["arrays.npz", "manifest.json"]


def test_overwrite_keeps_checkpoint_loadable(checkpoint):
    save_checkpoint(checkpoint, "unit-test", {"step": 8})
    state, _ = load_checkpoint(checkpoint, expected_kind="unit-test")
    assert state["step"] == 8
    assert sorted(os.listdir(checkpoint)) == ["arrays.npz", "manifest.json"]


# ----------------------------------------------------------------------
# Mismatched targets: wrong-system restores fail with CheckpointError too
# ----------------------------------------------------------------------
def test_mismatched_fingerprint_raises(tmp_path, persist_lte, persist_table,
                                       persist_config, persist_subspaces):
    import dataclasses

    from repro import persist
    from repro.core import LTE

    persist.save_pretrained(tmp_path / "pre", persist_lte)
    other = dataclasses.replace(persist_config,
                                seed=persist_config.seed + 1)
    lte2 = LTE(other)
    lte2.fit_offline(persist_table, subspaces=persist_subspaces,
                     train=False)
    with pytest.raises(CheckpointError, match="pretrained under config"):
        persist.load_pretrained(tmp_path / "pre", lte2)


def test_session_restore_against_wrong_lte_raises(tmp_path, persist_lte,
                                                  persist_table,
                                                  persist_config,
                                                  persist_subspaces,
                                                  make_oracle):
    from repro import persist
    from repro.core import LTE
    from repro.serve import SessionManager

    oracle = make_oracle(600)
    manager = SessionManager(persist_lte)
    sid = manager.open_session(variant="meta", subspaces=persist_subspaces,
                               seed=1)
    for subspace, tuples in manager.initial_tuples(sid).items():
        manager.submit_labels(sid, subspace,
                              oracle.label_subspace(subspace, tuples))
    manager.flush()
    persist.save_session(tmp_path / "sess", manager.session(sid))
    persist.save_manager(tmp_path / "serving", manager)

    narrow = LTE(persist_config)   # prepared over a smaller decomposition
    narrow.fit_offline(persist_table, subspaces=persist_subspaces[:1],
                       train=False)
    with pytest.raises(CheckpointError, match="does not fit"):
        persist.load_session(tmp_path / "sess", narrow)
    with pytest.raises(CheckpointError, match="does not fit"):
        persist.load_manager(tmp_path / "serving", narrow)

    # A same-shape system over a *different table* must also fail loudly:
    # restored models paired with foreign scalers/encoders would silently
    # serve garbage.
    from repro.data import make_car
    other_table = make_car(n_rows=1500, seed=999)
    foreign = LTE(persist_config)
    foreign.fit_offline(other_table, subspaces=persist_subspaces,
                        train=False)
    with pytest.raises(CheckpointError, match="captured over"):
        persist.load_manager(tmp_path / "serving", foreign)
    with pytest.raises(CheckpointError, match="captured over"):
        persist.load_session(tmp_path / "sess", foreign)


def test_a_state_lacking_a_field_names_the_field(tmp_path, monkeypatch,
                                                 persist_lte,
                                                 persist_subspaces,
                                                 make_oracle):
    """A whole state that misses one field is an incompatible build's
    checkpoint, not a foreign system's: the error names the field."""
    from repro import persist
    from repro.serve import SessionManager

    oracle = make_oracle(601)
    manager = SessionManager(persist_lte)
    sid = manager.open_session(variant="meta", subspaces=persist_subspaces,
                               seed=1)
    for subspace, tuples in manager.initial_tuples(sid).items():
        manager.submit_labels(sid, subspace,
                              oracle.label_subspace(subspace, tuples))
    manager.flush()

    snapshot = manager.snapshot()
    del snapshot["metrics"]
    monkeypatch.setattr(manager, "snapshot", lambda: snapshot)
    persist.save_manager(tmp_path / "serving", manager)
    with pytest.raises(CheckpointError,
                       match="lacks the expected field 'metrics'"):
        persist.load_manager(tmp_path / "serving", persist_lte)

    session = manager.session(sid)
    state = session.state_dict()
    del state["sessions"][0]["model_version"]
    monkeypatch.setattr(session, "state_dict", lambda: state)
    persist.save_session(tmp_path / "sess", session)
    with pytest.raises(CheckpointError,
                       match="lacks the expected field 'model_version'"):
        persist.load_session(tmp_path / "sess", persist_lte)
