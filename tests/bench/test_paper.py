"""Tests for the experiment table and ``paper.py run|compare`` (tiny scale)."""

import copy
import dataclasses
import json
import math

import pytest

from repro.bench import clear_caches, paper
from repro.bench.config import BenchScale
from repro.bench.experiments import FIGURES

TINY = BenchScale(name="tiny", dataset_rows=2500, n_tasks=4, epochs=1,
                  local_steps=2, n_test_uirs=2, eval_rows=300, pool_size=100,
                  basic_steps=5)


@pytest.fixture(autouse=True)
def fresh_caches():
    clear_caches()
    yield
    clear_caches()


def _record(values):
    cells = [{"figure": "demo", "dataset": "car", "x": x, "method": m,
              "seed": seed, "value": v}
             for (x, m, seed), v in values.items()]
    return {"commit": "abc", "scale": "tiny", "cells": cells}


DEMO = _record({(30, "Meta", 7): 0.5, (30, "Meta", 8): 0.7,
                ("M1", "SVM", 7): 0.25, (1e-4, "Basic", 7): 0.125})


@pytest.mark.slow
def test_every_row_runs_end_to_end(capsys):
    # Each row at its first seed and x: every cell function, table and
    # check runs (the full grid is `paper.py run`'s).
    rows = [dataclasses.replace(fig, seeds=fig.seeds[:1], xs=fig.xs[:1])
            for fig in FIGURES.values()]
    record, failed = paper.run(rows, TINY, commit="abc")
    out = capsys.readouterr().out
    assert record["scale"] == "tiny" and record["commit"] == "abc"
    for fig in rows:
        cells = [c for c in record["cells"] if c["figure"] == fig.id]
        assert len(cells) == (len(fig.datasets) * len(fig.xs)
                              * len(fig.methods)), fig.id
        assert all(math.isfinite(c["value"]) for c in cells), fig.id
        assert "  {}: ".format(fig.id) in out
    # Shapes need quick scale; at this size only the names are checked.
    names = {"{}: {}".format(tag, name) for fig in rows
             for tag, _, _ in paper._tables(fig, {})
             for name in fig.checks}
    assert set(failed) <= names


def test_record_json_round_trip(tmp_path):
    path = tmp_path / "rec.json"
    paper.write_record(DEMO, path)
    assert json.loads(path.read_text()) == DEMO


def test_compare_with_itself_moves_nothing(capsys):
    moved, failed = paper.compare(DEMO, copy.deepcopy(DEMO))
    assert moved == [] and failed == []
    assert "0 moved" in capsys.readouterr().out


def test_compare_names_the_perturbed_cell(tmp_path, capsys):
    perturbed = copy.deepcopy(DEMO)
    perturbed["cells"][2]["value"] += 0.05       # ("M1", "SVM"): 0.25
    moved, _ = paper.compare(DEMO, perturbed)
    assert len(moved) == 1 and moved[0].startswith("demo car x=M1 SVM")
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    paper.write_record(DEMO, a)
    paper.write_record(perturbed, b)
    assert paper.main(["compare", str(a), str(b)]) == 1
    assert "demo car x=M1 SVM: moved" in capsys.readouterr().out
    assert paper.main(["compare", str(a), str(a)]) == 0


def test_compare_band_widens_with_seed_spread():
    # Meta at x=30 has seeds 0.5 / 0.7: sd 0.141, band 3 sd / sqrt(2).
    shifted = copy.deepcopy(DEMO)
    for cell in shifted["cells"][:2]:
        cell["value"] += 0.25
    assert paper.compare(DEMO, shifted)[0] == []
    for cell in shifted["cells"][:2]:
        cell["value"] += 0.1
    assert len(paper.compare(DEMO, shifted)[0]) == 1


def test_compare_names_missing_cells_and_skips_timings():
    timing = {"figure": "fig6", "dataset": "sdss", "x": 30,
              "method": "DSM(4D)", "seed": 7, "value": 1.0}
    a = dict(DEMO, cells=DEMO["cells"] + [timing])
    b = dict(DEMO, cells=DEMO["cells"][:3] + [dict(timing, value=9.0)])
    moved, _ = paper.compare(a, b)
    assert moved == ["demo car x=0.0001 Basic: missing from B"]
    assert paper.compare(b, a)[0] == []        # cells new in B are fine


def test_compare_runs_the_table_checks_on_the_new_record():
    fig = FIGURES["fig7budget"]
    cells = [{"figure": fig.id, "dataset": "car", "x": x, "method": m,
              "seed": 7, "value": v}
             for x, m, v in ((55, "Meta", 0.5), (55, "Basic", 0.5),
                             (80, "Meta", 0.5), (80, "Basic", 0.9))]
    record = {"commit": "abc", "scale": "tiny", "cells": cells}
    moved, failed = paper.compare(record, record)
    assert moved == []
    assert failed == ["fig7budget[car]: Meta at B=55 >= Basic at B=80 - 0.15"]


def test_unknown_figure_id_fails_with_a_message(capsys):
    with pytest.raises(SystemExit) as exc:
        paper.main(["run", "fig99"])
    assert exc.value.code == 2
    assert "unknown figure id 'fig99'" in capsys.readouterr().err


def test_unknown_scale_fails_with_a_message(capsys):
    with pytest.raises(SystemExit) as exc:
        paper.main(["run", "table2", "--scale", "gigantic"])
    assert exc.value.code == 2
    assert "invalid choice: 'gigantic'" in capsys.readouterr().err


def test_every_paper_figure_has_a_row_and_table2_is_the_fidelity_row():
    assert list(FIGURES) == [
        "table2", "rounds", "steps", "fig4a", "fig4b", "fig5a", "fig5b", "fig5c", "fig5d",
        "fig6", "fig7ab", "fig7budget", "fig7c", "fig8a", "fig8b", "fig8c",
        "fig8d", "ablations", "dsmf"]
    assert all(fig.id == key for key, fig in FIGURES.items())
    table2 = FIGURES["table2"]
    assert table2.seeds == (7, 8, 9, 10, 11)
    assert table2.methods == ("Meta*", "Meta", "Basic", "SVMr", "SVM")
    assert table2.xs == ("M1", "M2", "M3", "M4", "M5", "M6", "M7")
    rounds = FIGURES["rounds"]
    assert rounds.seeds == table2.seeds and rounds.xs == (0, 1, 2, 3)
    assert rounds.methods == ("Meta*", "Meta", "Basic")
    steps = FIGURES["steps"]
    assert steps.seeds == table2.seeds and steps.xs == (1, 5, 10, 30)
    assert steps.methods == rounds.methods
    assert FIGURES["fig8d"].seeds == table2.seeds


def test_compare_bands_each_methods_average_over_x():
    # Five seeds at two modes, 0.01 apart from seed to seed: the average
    # over x has sd 0.016, but the seeds' own spread cancels in the
    # per-seed differences B - A, whose sd sets the band.
    values = {(x, "Meta*", seed): 0.7 + 0.01 * (seed - 7)
              for x in ("M1", "M2") for seed in range(7, 12)}
    a = _record(values)
    b = copy.deepcopy(a)
    for cell in b["cells"]:
        cell["value"] -= 0.015           # inside every cell's 0.04 band
    moved, failed = paper.compare(a, b)
    assert failed == []
    assert len(moved) == 1 and moved[0] == (
        "demo car average over x Meta*: moved, A 0.720 B 0.705, paired "
        "shift -0.015 (sd 0.000, 5 seeds), band 0.010")
    # Differences that scatter widen the band to 3 sd / sqrt(5): the
    # same mean shift with sd 0.020 is inside 0.027.
    for cell in b["cells"]:
        cell["value"] += (-0.02, 0.02, -0.02, 0.02, 0.0)[cell["seed"] - 7]
    assert paper.compare(a, b)[0] == []


def test_source_digest_reads_the_tree_as_it_is(tmp_path):
    """The record's ``source`` digest names the files that ran: an edit
    or a new file changes it, compiled caches do not."""
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "a.py").write_text("x = 1\n")
    (tmp_path / "b.py").write_text("y = 2\n")
    first = paper.source_digest(tmp_path)
    assert paper.source_digest(tmp_path) == first
    (tmp_path / "pkg" / "__pycache__").mkdir()
    (tmp_path / "pkg" / "__pycache__" / "a.cpython-311.pyc").write_bytes(
        b"\0")
    # The import system's temporary while it writes a cache file.
    (tmp_path / "pkg" / "__pycache__" /
     "a.cpython-311.pyc.140234").write_bytes(b"\0")
    (tmp_path / "pkg" / "c.pyc").write_bytes(b"\0")
    assert paper.source_digest(tmp_path) == first
    (tmp_path / "pkg" / "a.py").write_text("x = 2\n")
    edited = paper.source_digest(tmp_path)
    assert edited != first
    (tmp_path / "pkg" / "d.py").write_text("")
    assert paper.source_digest(tmp_path) not in (first, edited)


def test_compare_prints_the_source_and_tolerates_records_without(capsys):
    stamped = dict(DEMO, source="0123abcd")
    unstamped = {key: value for key, value in DEMO.items()
                 if key != "source"}
    assert paper.compare(unstamped, stamped) == ([], [])
    out = capsys.readouterr().out
    assert "A: commit {} source unknown".format(DEMO["commit"]) in out
    assert "B: commit {} source 0123abcd".format(DEMO["commit"]) in out
