"""``benchmarks/paper.py``: run rows of the experiment table, compare records.

``run [ids...] [--scale quick|medium|paper] [--out rec.json]`` measures,
prints and checks rows of :data:`~repro.bench.experiments.FIGURES` (all by
default) and writes a record: the ``commit``, the ``source`` digest of the
``src/`` tree that ran (:func:`source_digest`; ``git describe --dirty``
names only the commit below uncommitted work), the ``scale`` and one cell
(figure, dataset, x, method, seed, value) per measurement.  ``compare A B``
names each cell of A missing from B or whose seed mean in B is more than
``max(0.04, 3 sd / sqrt(n))`` from A's (A's sd over its n seeds; timings
are not compared), and each method's average over a dataset's x values
(Table II's mode average) that moved by more than its paired band: the
mean over the n seeds both records measured of B's average minus A's,
against ``max(0.01, 3 sd / sqrt(n))`` with sd that of the per-seed
differences (two records of one row share build seeds, so the seed's
own variance cancels); then it runs the table's checks on B.  Both exit
1 naming what failed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import subprocess
import time

from .config import SCALES, get_scale
from .experiments import FIGURES
from .harness import print_matrix, print_series

__all__ = ["run", "compare", "write_record", "source_digest", "main"]


def _mean(values):
    return sum(values) / len(values) if values else float("nan")


def _by_key(cells):
    """``(figure, dataset, x, method) -> [value per seed]``, in order."""
    out = {}
    for c in cells:
        key = (c["figure"], c["dataset"], c["x"], c["method"])
        out.setdefault(key, []).append(c["value"])
    return out


def _x_averages(cells):
    """``(figure, dataset, method) -> {seed: average over x}``, for
    methods measured at two or more x values (at one x the average is
    the cell), over the seeds measured at every x."""
    grid = {}
    for c in cells:
        key = (c["figure"], c["dataset"], c["method"])
        grid.setdefault(key, {}).setdefault(c["seed"], {})[c["x"]] = \
            c["value"]
    out = {}
    for key, seeds in grid.items():
        xs = set().union(*seeds.values())
        if len(xs) >= 2:
            out[key] = {seed: _mean(list(by_x.values()))
                        for seed, by_x in sorted(seeds.items())
                        if set(by_x) == xs}
    return out


def _moved(name, ref, new, floor):
    """A line naming how ``new``'s mean left the band of ``ref``'s
    seeds, ``max(floor, 3 sd / sqrt(n))``, or None inside it."""
    mean, new = _mean(ref), _mean(new)
    sd = math.sqrt(sum((v - mean) ** 2 for v in ref) / max(1, len(ref) - 1))
    tolerance = max(floor, 3 * sd / math.sqrt(len(ref)))
    if abs(new - mean) <= tolerance:
        return None
    return "{}: moved, A {:.3f} (sd {:.3f}, {} seeds) B {:.3f}, tolerance " \
        "{:.3f}".format(name, mean, sd, len(ref), new, tolerance)


def _moved_paired(name, ref, new, floor):
    """A line naming how the mean of ``new[seed] - ref[seed]`` over the
    seeds of both left its band, ``max(floor, 3 sd / sqrt(n))`` with sd
    that of the n differences, or None inside it."""
    seeds = sorted(set(ref) & set(new))
    if not seeds:
        return name + ": no seed in both records"
    diffs = [new[seed] - ref[seed] for seed in seeds]
    shift = _mean(diffs)
    sd = math.sqrt(sum((d - shift) ** 2 for d in diffs)
                   / max(1, len(diffs) - 1))
    band = max(floor, 3 * sd / math.sqrt(len(diffs)))
    if abs(shift) <= band:
        return None
    return "{}: moved, A {:.3f} B {:.3f}, paired shift {:+.3f} (sd {:.3f}, " \
        "{} seeds), band {:.3f}".format(
            name, _mean([ref[seed] for seed in seeds]),
            _mean([new[seed] for seed in seeds]), shift, sd, len(seeds),
            band)


def _tables(fig, by_key):
    """``(tag, title, {series: [seed mean per x]})`` per printed table."""
    groups = [fig.datasets] if fig.merged else [(d,) for d in fig.datasets]
    return [(fig.id if fig.merged else "{}[{}]".format(fig.id, group[0]),
             fig.title.format(dataset=group[0].upper()),
             {"{}({})".format(m, d.upper()) if fig.merged else m:
              [_mean(by_key.get((fig.id, d, x, m), [])) for x in fig.xs]
              for d in group for m in fig.methods})
            for group in groups]


def _check(fig, tables):
    """Print failed checks and the notes; return the failed checks."""
    failed = []
    for tag, _, series in tables:
        failed += ["{}: {}".format(tag, name)
                   for name, holds in fig.checks.items() if not holds(series)]
        for name, holds in fig.notes.items():
            print("  note {}: {} {}".format(
                tag, name, "holds" if holds(series) else "does not hold"))
    for name in failed:
        print("  FAILED " + name)
    return failed


def source_digest(root):
    """Hex blake2b digest of every file under ``root`` as read — its
    path relative to ``root`` and its bytes, in sorted order — less
    ``__pycache__`` directories and compiled ``.pyc`` files."""
    h = hashlib.blake2b(digest_size=16)
    for folder, dirs, files in os.walk(root):
        dirs[:] = sorted(d for d in dirs if d != "__pycache__")
        for name in sorted(files):
            if name.endswith(".pyc"):
                continue
            path = os.path.join(folder, name)
            h.update(os.path.relpath(path, root).replace(os.sep, "/")
                     .encode() + b"\0")
            with open(path, "rb") as fh:
                data = fh.read()
            h.update(str(len(data)).encode() + b"\0" + data)
    return h.hexdigest()


def run(figures, scale, commit="unknown"):
    """Measure, print and check ``figures``; return ``(record, failed)``."""
    cells, failed = [], []
    for fig in figures:
        start, rows = time.perf_counter(), []
        for seed in fig.seeds:
            for dataset in fig.datasets:
                for x in fig.xs:
                    values = fig.cell(scale, dataset, x, seed)
                    rows += [{"figure": fig.id, "dataset": dataset, "x": x,
                              "method": m, "seed": seed,
                              "value": float(values[m])}
                             for m in fig.methods]
        tables = _tables(fig, _by_key(rows))
        for _, title, series in tables:
            if len(fig.seeds) > 1:
                title += " — mean of seeds " + ", ".join(map(str, fig.seeds))
            xs = [fig.x_format.format(x) for x in fig.xs]
            if fig.matrix:
                print_matrix(title, list(series), xs, list(series.values()))
            else:
                print_series(title, fig.x_name, xs, series)
        failed += _check(fig, tables)
        print("  {}: {:.1f} s".format(fig.id, time.perf_counter() - start))
        cells += rows
    return {"commit": commit, "scale": scale.name, "cells": cells}, failed


def compare(a, b):
    """Print how record ``b`` differs from reference ``a``; return
    ``(moved, failed)``: moved or missing cells and failed checks."""
    print("A: commit {} source {} scale {}\nB: commit {} source {} "
          "scale {}".format(a["commit"], a.get("source", "unknown"),
                            a["scale"], b["commit"],
                            b.get("source", "unknown"), b["scale"]))
    in_a, in_b = _by_key(a["cells"]), _by_key(b["cells"])
    timing = {fig.id for fig in FIGURES.values() if fig.unit == "s"}
    moved, compared = [], 0
    for key in in_a:
        name = "{} {} x={} {}".format(*key)
        if key[0] in timing:
            continue
        if key not in in_b:
            moved.append(name + ": missing from B")
            continue
        compared += 1
        moved.append(_moved(name, in_a[key], in_b[key], 0.04))
    averages_a, averages_b = _x_averages(a["cells"]), _x_averages(b["cells"])
    averaged = [key for key in averages_a
                if key[0] not in timing and averages_b.get(key)]
    moved += [_moved_paired("{} {} average over x {}".format(*key),
                            averages_a[key], averages_b[key], 0.01)
              for key in averaged]
    moved = [line for line in moved if line is not None]
    for line in moved:
        print("  " + line)
    in_record = {key[0] for key in in_b}
    failed = [name for fig in FIGURES.values() if fig.id in in_record
              for name in _check(fig, _tables(fig, in_b))]
    print("{} cells and {} averages over x compared (timings are not): {} "
          "moved or missing, {} checks failed".format(
              compared, len(averaged), len(moved), len(failed)))
    return moved, failed


def write_record(record, path):
    """Write ``record`` as JSON, one cell per line."""
    head = "".join(" {}: {},\n".format(json.dumps(k), json.dumps(v))
                   for k, v in record.items() if k != "cells")
    cells = ",\n".join("  " + json.dumps(c) for c in record["cells"])
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("{\n" + head + ' "cells": [\n' + cells + "\n ]\n}\n")


def main(argv=None):
    """Entry point of ``benchmarks/paper.py``."""
    parser = argparse.ArgumentParser(
        prog="benchmarks/paper.py",
        description="Run the paper's experiments or compare two records.")
    sub = parser.add_subparsers(dest="command", required=True)
    p_run = sub.add_parser("run", help="measure, print and check figures")
    p_run.add_argument("ids", nargs="*", metavar="id",
                       help="figure ids (default: all): "
                       + ", ".join(FIGURES))
    p_run.add_argument("--scale", default="quick", choices=sorted(SCALES))
    p_run.add_argument("--out", help="write the per-cell record here")
    p_cmp = sub.add_parser("compare", help="diff record B against A")
    p_cmp.add_argument("a", help="reference record")
    p_cmp.add_argument("b", help="new record")
    args = parser.parse_args(argv)
    if args.command == "compare":
        with open(args.a, encoding="utf-8") as a, \
                open(args.b, encoding="utf-8") as b:
            moved, failed = compare(json.load(a), json.load(b))
        return 1 if moved or failed else 0
    unknown = [i for i in args.ids if i not in FIGURES]
    if unknown:
        parser.error("unknown figure id {!r}; options: {}".format(
            unknown[0], ", ".join(FIGURES)))
    git = subprocess.run(["git", "describe", "--always", "--dirty"],
                         cwd=os.path.dirname(os.path.abspath(__file__)),
                         capture_output=True, text=True)
    record, failed = run([FIGURES[i] for i in args.ids or FIGURES],
                         get_scale(args.scale),
                         commit=git.stdout.strip() or "unknown")
    record["source"] = source_digest(os.path.dirname(os.path.dirname(
        os.path.dirname(os.path.abspath(__file__)))))
    if args.out:
        write_record(record, args.out)
    print("{} checks failed".format(len(failed)))
    return 1 if failed else 0
