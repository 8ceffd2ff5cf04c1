"""Tests for the benchmark harness infrastructure."""

import numpy as np
import pytest

from repro.bench import (baseline_oracle_pairs, budget_to_reach, get_scale,
                         paper, print_matrix, print_series)
from repro.bench.config import BenchScale
from repro.data.subspaces import Subspace
from repro.explore import ConjunctiveOracle
from repro.geometry import BoxRegion


class TestScale:
    def test_presets_exist(self):
        for name in ("quick", "medium", "paper"):
            scale = get_scale(name)
            assert isinstance(scale, BenchScale)
            assert scale.name == name

    def test_scale_option(self, monkeypatch):
        """``paper.py run --scale NAME`` picks the preset; quick is the
        default."""
        seen = []

        def fake_run(figures, scale, commit):
            seen.append((scale.name, [fig.id for fig in figures]))
            return {"cells": []}, []

        monkeypatch.setattr(paper, "run", fake_run)
        assert paper.main(["run", "table2", "--scale", "medium"]) == 0
        assert paper.main(["run"]) == 0
        assert seen[0] == ("medium", ["table2"])
        assert seen[1][0] == "quick" and len(seen[1][1]) > 1
        assert get_scale().name == "quick"

    def test_unknown_scale(self):
        with pytest.raises(ValueError):
            get_scale("gigantic")

    def test_paper_scale_matches_paper_parameters(self):
        paper = get_scale("paper")
        assert paper.n_tasks == 5000
        assert paper.dataset_rows == 100_000


class TestBudgetToReach:
    def test_picks_smallest_sufficient(self):
        table = {30: 0.5, 50: 0.8, 40: 0.76}
        assert budget_to_reach(table, 0.75) == 40

    def test_none_when_unreachable(self):
        assert budget_to_reach({30: 0.1}, 0.75) is None


class TestPrinting:
    def test_print_series_smoke(self, capsys):
        print_series("Fig X", "B", [30, 40],
                     {"meta": [0.5, 0.6], "dsm": [0.4, None]})
        out = capsys.readouterr().out
        assert "Fig X" in out and "0.600" in out and "-" in out

    def test_print_matrix_smoke(self, capsys):
        print_matrix("Table II", ["Meta*"], ["M1", "M2"], [[0.8, 0.7]])
        out = capsys.readouterr().out
        assert "Table II" in out and "0.800" in out


class TestBaselineOraclePairs:
    def test_projection_reconstructs_full_rows(self):
        s_a = Subspace(["a", "b"], [0, 1])
        s_c = Subspace(["c"], [3])
        oracle = ConjunctiveOracle({
            s_a: BoxRegion([0, 0], [1, 1]),
            s_c: BoxRegion([0], [1]),
        })
        pairs = baseline_oracle_pairs([oracle], [s_a, s_c])
        assert len(pairs) == 1
        _, project = pairs[0]
        user_rows = np.array([[0.5, 0.5, 0.7]])  # columns (0, 1, 3)
        full = project(user_rows)
        assert full.shape == (1, 4)
        assert full[0, 0] == 0.5 and full[0, 1] == 0.5 and full[0, 3] == 0.7

    def test_oracle_evaluates_projected_rows(self):
        s_a = Subspace(["a", "b"], [0, 1])
        oracle = ConjunctiveOracle({s_a: BoxRegion([0, 0], [1, 1])})
        pairs = baseline_oracle_pairs([oracle], [s_a])
        orc, project = pairs[0]
        assert orc.ground_truth(project(np.array([[0.5, 0.5]])))[0] == 1
        assert orc.ground_truth(project(np.array([[5.0, 0.5]])))[0] == 0
