"""Exporters: JSONL snapshots and summaries.

Two consumers of the same data:

* :func:`write_jsonl` / :func:`read_jsonl` persist snapshots or span
  events as JSON lines;
* :func:`summarize_events` + :func:`format_summary` turn a span capture
  and/or snapshot into human-readable latency-percentile and hit-ratio
  tables — the engine behind ``python -m repro.obs summarize``.
"""

from __future__ import annotations

import json

from .registry import Histogram

__all__ = ["write_jsonl", "read_jsonl", "summarize_events",
           "format_summary"]


def write_jsonl(path, records):
    """Append dict records (span events or snapshot rows) as JSONL."""
    with open(str(path), "a", encoding="utf-8") as fh:
        for record in records:
            fh.write(json.dumps(record, sort_keys=True) + "\n")


def read_jsonl(path):
    """Load JSONL records, skipping blank lines."""
    records = []
    with open(str(path), "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if line:
                records.append(json.loads(line))
    return records


def _histogram_from_events(seconds_list):
    hist = Histogram()
    for value in seconds_list:
        hist.observe(value)
    return hist


def summarize_events(events, snapshot=None):
    """Reduce a span capture (+ optional snapshot) into summary rows.

    Returns ``{"spans": [...], "ratios": [...], "counters": [...]}``:

    * ``spans`` — per span name: count, total seconds, mean, and
      deterministic p50/p90/p99 bucket-bound estimates;
    * ``ratios`` — every ``<base>.hits`` / ``<base>.misses`` counter
      pair in the snapshot, with the hit ratio;
    * ``counters`` — remaining counters and gauges from the snapshot.

    Histogram metrics in the snapshot are folded into ``spans`` rows so
    one table covers both capture- and registry-sourced latencies.
    """
    by_name = {}
    for event in events or []:
        if event.get("type") != "span" or "seconds" not in event:
            continue
        by_name.setdefault(event["name"], []).append(float(event["seconds"]))

    span_rows = []
    for name in sorted(by_name):
        hist = _histogram_from_events(by_name[name])
        span_rows.append(_latency_row(name, hist))

    ratio_rows = []
    counter_rows = []
    snapshot = snapshot or {}
    hit_bases = {}
    for name, entry in snapshot.items():
        if entry is None:
            continue
        if entry["kind"] == "histogram":
            hist = Histogram()
            hist.merge(entry)
            span_rows.append(_latency_row(name, hist))
        elif name.endswith(".hits"):
            hit_bases.setdefault(name[:-5], [None, None])[0] = entry["value"]
        elif name.endswith(".misses"):
            hit_bases.setdefault(name[:-7], [None, None])[1] = entry["value"]
        else:
            counter_rows.append({"name": name, "kind": entry["kind"],
                                 "value": entry["value"]})
    for base in sorted(hit_bases):
        hits, misses = hit_bases[base]
        if hits is None or misses is None:
            # An unpaired hits/misses counter is still worth listing.
            suffix = ".hits" if misses is None else ".misses"
            counter_rows.append({"name": base + suffix, "kind": "counter",
                                 "value": hits if misses is None else misses})
            continue
        total = hits + misses
        ratio_rows.append({"name": base, "hits": hits, "misses": misses,
                           "ratio": (hits / total) if total else None})

    span_rows.sort(key=lambda row: row["name"])
    counter_rows.sort(key=lambda row: row["name"])
    return {"spans": span_rows, "ratios": ratio_rows,
            "counters": counter_rows}


def _latency_row(name, hist):
    return {"name": name, "count": hist.count,
            "total": hist.total, "mean": hist.mean,
            "p50": hist.percentile(0.50), "p90": hist.percentile(0.90),
            "p99": hist.percentile(0.99), "max": hist.vmax}


def _fmt_seconds(value):
    if value is None:
        return "-"
    if value >= 1.0:
        return "{:.3f}s".format(value)
    if value >= 1e-3:
        return "{:.3f}ms".format(value * 1e3)
    return "{:.1f}us".format(value * 1e6)


def format_summary(summary):
    """Render :func:`summarize_events` output as aligned text tables."""
    lines = []
    spans = summary.get("spans") or []
    if spans:
        lines.append("latency (percentiles are bucket upper bounds)")
        header = ("name", "count", "total", "mean", "p50", "p90", "p99",
                  "max")
        rows = [header]
        for row in spans:
            rows.append((row["name"], str(row["count"]),
                         _fmt_seconds(row["total"]),
                         _fmt_seconds(row["mean"]), _fmt_seconds(row["p50"]),
                         _fmt_seconds(row["p90"]), _fmt_seconds(row["p99"]),
                         _fmt_seconds(row["max"])))
        lines.extend(_align(rows))
        lines.append("")
    ratios = summary.get("ratios") or []
    if ratios:
        lines.append("hit ratios")
        rows = [("name", "hits", "misses", "ratio")]
        for row in ratios:
            ratio = row["ratio"]
            rows.append((row["name"], str(row["hits"]), str(row["misses"]),
                         "-" if ratio is None else "{:.1%}".format(ratio)))
        lines.extend(_align(rows))
        lines.append("")
    counters = summary.get("counters") or []
    if counters:
        lines.append("counters and gauges")
        rows = [("name", "kind", "value")]
        for row in counters:
            rows.append((row["name"], row["kind"], str(row["value"])))
        lines.extend(_align(rows))
        lines.append("")
    if not lines:
        return "(no observability data)\n"
    return "\n".join(lines)


def _align(rows):
    widths = [max(len(row[i]) for row in rows) for i in range(len(rows[0]))]
    out = []
    for row in rows:
        out.append("  ".join(
            cell.ljust(width) for cell, width in zip(row, widths)).rstrip())
    return out
