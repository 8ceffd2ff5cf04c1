"""CLI: render observability captures.

Usage::

    python -m repro.obs summarize capture.jsonl [snapshot.jsonl]

``summarize`` reads a JSONL file of span events (and optionally a JSONL
metrics snapshot, one ``{"name": ..., ...snapshot}`` row per metric or
a single ``{"type": "snapshot", "metrics": {...}}`` row) and prints
latency percentiles plus hit-ratio tables.
"""

from __future__ import annotations

import argparse
import sys

from .export import format_summary, read_jsonl, summarize_events


def _load_snapshot(records):
    """Accept either snapshot-row JSONL or an embedded snapshot event."""
    snapshot = {}
    for record in records:
        if record.get("type") == "snapshot" and "metrics" in record:
            snapshot.update(record["metrics"] or {})
        elif "name" in record and "kind" in record:
            entry = dict(record)
            name = entry.pop("name")
            snapshot[name] = entry
    return snapshot


def main(argv=None):
    """Entry point for ``python -m repro.obs``."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs",
        description="Render repro.obs captures and snapshots.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_sum = sub.add_parser(
        "summarize", help="latency percentiles + hit-ratio tables")
    p_sum.add_argument("events", help="JSONL span-event capture")
    p_sum.add_argument("snapshot", nargs="?", default=None,
                       help="optional JSONL metrics snapshot")

    args = parser.parse_args(argv)
    if args.command == "summarize":
        records = read_jsonl(args.events)
        events = [r for r in records if r.get("type") == "span"]
        snapshot = _load_snapshot(records)
        if args.snapshot:
            snapshot.update(_load_snapshot(read_jsonl(args.snapshot)))
        sys.stdout.write(format_summary(summarize_events(events, snapshot)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
