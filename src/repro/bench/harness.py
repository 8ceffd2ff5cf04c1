"""Competitor runners and table printers for :mod:`repro.bench.experiments`.

Budget accounting: LTE methods and the
SVM/SVMr competitors label B tuples *per subspace* (the C_s centers plus
delta random tuples, exactly the paper's initial-exploration protocol);
the full-space baselines DSM and AL-SVM label B full tuples total, with
free query-agnostic seed sampling (the paper excludes the baselines'
initial-sampling cost too).
"""

from __future__ import annotations

import numpy as np

from ..baselines.aide import AIDEExplorer
from ..baselines.al_svm import ALSVMExplorer
from ..baselines.dsm import DSMExplorer
from ..baselines.dsm_factorized import FactorizedDSMExplorer
from ..baselines.svm_variants import SubspaceSVMExplorer
from ..explore.metrics import f1_score
from ..explore.session import run_lte_exploration

__all__ = ["print_series", "print_matrix", "baseline_oracle_pairs",
           "run_methods", "subspaces_for_dims", "budget_to_reach"]


def print_series(title, x_label, xs, series):
    """Print an x vs many-series table (one paper figure panel)."""
    print("\n== {} ==".format(title))
    header = [x_label] + list(series)
    widths = [max(10, len(h) + 2) for h in header]
    print("".join(h.ljust(w) for h, w in zip(header, widths)))
    for i, x in enumerate(xs):
        row = [str(x)]
        for name in series:
            value = series[name][i]
            row.append("{:.3f}".format(value) if value is not None else "-")
        print("".join(c.ljust(w) for c, w in zip(row, widths)))


def print_matrix(title, row_names, col_names, values):
    """Print a row x column matrix (e.g. Table II)."""
    print("\n== {} ==".format(title))
    widths = [12] + [max(8, len(c) + 2) for c in col_names]
    print("".join(h.ljust(w) for h, w in zip([""] + list(col_names), widths)))
    for name, row in zip(row_names, values):
        cells = [name] + ["{:.3f}".format(v) for v in row]
        print("".join(c.ljust(w) for c, w in zip(cells, widths)))


LTE_VARIANTS = {"Meta*": "meta_star", "Meta": "meta", "Basic": "basic"}
BASELINES = {"DSM": DSMExplorer, "AL-SVM": ALSVMExplorer,
             "AIDE": AIDEExplorer}


def baseline_oracle_pairs(oracles, subspaces):
    """Adapt conjunctive oracles to a baseline's user-space row layout.

    Baselines see rows laid out as the concatenation of the chosen
    subspaces' columns (the user-interest space); this returns
    ``(oracle, project)`` pairs where ``project`` maps user-space rows back
    to full-table layout for the oracle.
    """
    columns = [c for s in subspaces for c in s.columns]
    n_full = max(columns) + 1

    def project(points):
        points = np.atleast_2d(np.asarray(points, dtype=np.float64))
        rows = np.zeros((len(points), n_full))
        rows[:, columns] = points
        return rows

    return [(oracle, project) for oracle in oracles]


def run_methods(methods, lte, oracles, eval_rows, subspaces, budget=30,
                pool_size=1500):
    """``{label: mean F1}`` of each named competitor over the oracles:
    LTE explorations (``Meta*``, ``Meta``, ``Basic``); ``SVM`` / ``SVMr``
    (raw / tabular features) and factorized ``DSM-F`` on LTE's initial
    tuples; full-space ``DSM`` / ``AL-SVM`` / ``AIDE`` on the user-space
    columns of the first 4 000 rows.  Oracle i seeds them i.
    """
    columns = [c for s in subspaces for c in s.columns]
    states = {s: lte.states[s] for s in subspaces}
    scores = {label: [] for label in methods}
    for i, (oracle, project) in enumerate(
            baseline_oracle_pairs(oracles, subspaces)):
        truth = oracle.ground_truth(eval_rows)
        for label in methods:
            if label in LTE_VARIANTS:
                scores[label].append(run_lte_exploration(
                    lte, oracle, eval_rows, variant=LTE_VARIANTS[label],
                    subspaces=subspaces).f1)
                continue
            if label in BASELINES:
                explorer = BASELINES[label](budget=budget,
                                            pool_size=pool_size, seed=i)
                explorer.explore(lte.table.data[:4000, columns],
                                 lambda pts: oracle.ground_truth(project(pts)))
                pred = explorer.predict(eval_rows[:, columns])
            else:
                explorer = FactorizedDSMExplorer(states, seed=i) \
                    if label == "DSM-F" else SubspaceSVMExplorer(
                        states, encoded=label == "SVMr", seed=i)
                session = lte.start_session(variant="basic",
                                            subspaces=subspaces, seed=i)
                for sub, tuples in session.initial_tuples().items():
                    explorer.fit_subspace(sub, tuples,
                                          oracle.label_subspace(sub, tuples))
                pred = explorer.predict(eval_rows)
            scores[label].append(f1_score(truth, pred))
    return {label: float(np.mean(v)) for label, v in scores.items()}


def subspaces_for_dims(lte, n_dims):
    """First ceil(n_dims / subspace_dim) meta-subspaces of the system."""
    per = lte.config.subspace_dim
    need = max(1, n_dims // per)
    subs = list(lte.states)[:need]
    if len(subs) < need:
        raise ValueError("system has only {} subspaces".format(len(subs)))
    return subs


def budget_to_reach(f1_at_budget, target):
    """Smallest budget of a ``{budget: f1}`` map whose F1 reaches
    ``target`` (None if never)."""
    for budget in sorted(f1_at_budget):
        if f1_at_budget[budget] >= target:
            return budget
    return None
