"""Command-line interface: ``python -m repro.persist {save,load,inspect}``.

* ``save OUT``     — pretrain a smoke-sized LTE system and write it as an
  ``lte-pretrained`` checkpoint (the zero-to-artifact demo, also used by
  the CI persist lane);
* ``load PATH``    — fully load and verify a checkpoint of any kind,
  printing a kind-specific summary; exits non-zero with the actionable
  :class:`~repro.persist.CheckpointError` message on any corruption;
* ``inspect PATH`` — print the manifest summary (kind, schema version,
  metadata, array count/bytes) plus a digest verification verdict.
"""

from __future__ import annotations

import argparse
import sys

from .checkpoint import CheckpointError, inspect_checkpoint, load_checkpoint
from .state import _session_state

__all__ = ["main"]


def _cmd_save(args):
    from ..core import LTE, LTEConfig
    from ..core.meta_training import MetaHyperParams
    from ..data import make_car
    from .state import save_pretrained

    table = make_car(n_rows=args.rows, seed=args.seed)
    config = LTEConfig(budget=20, ku=25, kq=30, n_tasks=args.n_tasks,
                       meta=MetaHyperParams(epochs=1, local_steps=2,
                                            pretrain_epochs=1),
                       basic_steps=15, online_steps=4, seed=args.seed)
    lte = LTE(config)
    lte.fit_offline(table)
    manifest = save_pretrained(
        args.path, lte,
        meta={"rows": args.rows, "seed": args.seed, "n_tasks": args.n_tasks,
              "source": "repro.persist CLI demo artifact"})
    print("saved lte-pretrained checkpoint to {}".format(args.path))
    print("  subspaces: {}   arrays: {}   digest: {}".format(
        len(lte.states), manifest["n_arrays"], manifest["digest"]))
    return 0


def _describe_dataset(meta):
    """One-line provenance summary from a manifest's dataset metadata."""
    dataset = (meta or {}).get("dataset")
    if not dataset:
        return None
    parts = []
    if dataset.get("builder"):
        parts.append("builder={}".format(dataset["builder"]))
    if dataset.get("n_rows") is not None:
        parts.append("n_rows={}".format(dataset["n_rows"]))
    if dataset.get("seed") is not None:
        parts.append("seed={}".format(dataset["seed"]))
    if dataset.get("store_digest"):
        parts.append("store_digest={}".format(dataset["store_digest"]))
    return " ".join(parts) if parts else None


def _summarize_state(kind, state, path):
    if kind == "lte-pretrained":
        trained = sum(1 for e in state["subspaces"]
                      if e["trainer"] is not None)
        print("  subspaces: {} ({} meta-trained)".format(
            len(state["subspaces"]), trained))
        for entry in state["subspaces"]:
            trainer = entry["trainer"]
            detail = "untrained" if trainer is None else \
                "ku={} width={} memories={}".format(
                    trainer["config"]["ku"],
                    trainer["config"]["input_width"],
                    trainer["use_memories"])
            print("    {}: {}".format(",".join(entry["names"]), detail))
    elif kind == "session-manager":
        snapshot = state["snapshot"]
        uids = [uid for entry in snapshot["sessions"]
                for uid in _session_state(entry["state"], path)["store_marks"]]
        print("  sessions: {}   queued: {}   watermarks: {} "
              "(stores {})".format(
                  len(snapshot["sessions"]), len(snapshot["queue"]),
                  len(uids), len(set(uids))))
    elif kind == "exploration-session":
        print("  variant: {}   subspaces: {}".format(
            state["session"]["variant"],
            len(state["session"]["subspaces"])))
    elif kind == "pretrain-run":
        print("  resumable offline run over {} subspaces".format(
            len(state["subspaces"])))
        for entry in state["subspaces"]:
            schedule = entry["schedule"]
            print("    {}: pretrain {}/{}  meta {}/{}".format(
                ",".join(entry["names"]),
                schedule["pretrain_done"], schedule["pretrain_total"],
                schedule["meta_done"], schedule["meta_total"]))


def _cmd_load(args):
    state, info = load_checkpoint(args.path)
    print("checkpoint at {} verified OK".format(args.path))
    print("  kind: {}   schema: {}   digest: {}".format(
        info["kind"], info["schema_version"], info["digest"]))
    dataset = _describe_dataset(info.get("meta"))
    if dataset:
        print("  trained on: {}".format(dataset))
    _summarize_state(info["kind"], state, args.path)
    return 0


def _cmd_inspect(args):
    summary = inspect_checkpoint(args.path)
    print("checkpoint at {}".format(args.path))
    print("  kind: {}   schema: {}".format(summary["kind"],
                                           summary["schema_version"]))
    print("  arrays: {}   bytes: {}".format(summary["n_arrays"],
                                            summary["total_bytes"]))
    print("  digest: {}   verified: {}".format(
        summary["digest"], "OK" if summary["digest_ok"] else "FAILED"))
    dataset = _describe_dataset(summary.get("meta"))
    if dataset:
        print("  trained on: {}".format(dataset))
    if summary["meta"]:
        print("  meta: {}".format(summary["meta"]))
    if summary["error"]:
        print("  error: {}".format(summary["error"]), file=sys.stderr)
        return 2
    return 0


def main(argv=None):
    """Entry point; returns a process exit code."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.persist",
        description="Checkpoint tooling for pretrained LTE artifacts and "
                    "serving snapshots.")
    sub = parser.add_subparsers(dest="command", required=True)

    save = sub.add_parser(
        "save", help="pretrain a smoke-sized LTE and checkpoint it")
    save.add_argument("path", help="output checkpoint directory")
    save.add_argument("--rows", type=int, default=2000,
                      help="synthetic table rows (default 2000)")
    save.add_argument("--seed", type=int, default=7)
    save.add_argument("--n-tasks", type=int, default=6,
                      help="meta-tasks per subspace (default 6)")
    save.set_defaults(func=_cmd_save)

    load = sub.add_parser(
        "load", help="load + fully verify a checkpoint, print its contents")
    load.add_argument("path", help="checkpoint directory")
    load.set_defaults(func=_cmd_load)

    inspect = sub.add_parser(
        "inspect", help="print the manifest summary and verify the digest")
    inspect.add_argument("path", help="checkpoint directory")
    inspect.set_defaults(func=_cmd_inspect)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CheckpointError as error:
        print("error: {}".format(error), file=sys.stderr)
        return 2
