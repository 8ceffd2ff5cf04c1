"""SDSS scenario: exploring concave and disconnected interest regions.

The paper's motivating example: Bob is an astronomer whose interest over
photometric attributes is too complex for SQL filters — here his interest
region is a *union of several convex parts* per subspace (concave and even
disconnected), exactly the generality that separates LTE from convexity-
bound systems like DSM.  We compare LTE's variants against a per-subspace
SVM fed the same labelled tuples (the paper's Section VIII-C protocol).

Run:  python examples/sdss_complex_interests.py
"""

import numpy as np

from repro.baselines import SubspaceSVMExplorer
from repro.bench import subspace_region
from repro.core import LTE, LTEConfig
from repro.core.meta_training import MetaHyperParams
from repro.core.uis import PAPER_MODES
from repro.data import make_sdss
from repro.explore import ConjunctiveOracle, f1_score, run_lte_exploration


def build_oracle(lte, subspaces, mode, seed):
    rng = np.random.default_rng(seed)
    regions = {
        subspace: subspace_region(lte.states[subspace], mode,
                                  seed=int(rng.integers(2 ** 31)))
        for subspace in subspaces
    }
    return ConjunctiveOracle(regions)


def run_svm_competitor(lte, oracle, subspaces, eval_rows, encoded):
    explorer = SubspaceSVMExplorer(
        {s: lte.states[s] for s in subspaces}, encoded=encoded, seed=0)
    session = lte.start_session(variant="basic", subspaces=subspaces)
    for subspace, tuples in session.initial_tuples().items():
        labels = oracle.label_subspace(subspace, tuples)
        explorer.fit_subspace(subspace, tuples, labels)
    return f1_score(oracle.ground_truth(eval_rows),
                    explorer.predict(eval_rows))


def main():
    table = make_sdss(n_rows=20_000, seed=7)
    lte = LTE(LTEConfig(budget=30, n_tasks=80,
                        meta=MetaHyperParams(epochs=1, local_steps=8)))
    print("Offline meta-training ({} tuples)...".format(table.n_rows))
    lte.fit_offline(table)

    subspaces = list(lte.states)[:2]
    eval_rows = table.sample_rows(5000, seed=3)

    print("\nBob's interests, from mildly to severely complex "
          "(modes of Table III):")
    header = "{:<6s} {:>9s} {:>8s} {:>8s} {:>8s} {:>8s}".format(
        "mode", "Meta*", "Meta", "Basic", "SVMr", "SVM")
    print(header)
    for index, mode_name in enumerate(("M5", "M7", "M1", "M3")):
        # alpha = 1, 3, 4, 4
        mode = PAPER_MODES[mode_name]
        scores = {label: [] for label in ("Meta*", "Meta", "Basic",
                                          "SVMr", "SVM")}
        for trial in range(3):  # average a few region draws per mode
            oracle = build_oracle(lte, subspaces, mode,
                                  seed=3 * index + trial)
            for variant, label in (("meta_star", "Meta*"),
                                   ("meta", "Meta"), ("basic", "Basic")):
                result = run_lte_exploration(lte, oracle, eval_rows,
                                             variant=variant,
                                             subspaces=subspaces)
                scores[label].append(result.f1)
            scores["SVMr"].append(run_svm_competitor(
                lte, oracle, subspaces, eval_rows, encoded=True))
            scores["SVM"].append(run_svm_competitor(
                lte, oracle, subspaces, eval_rows, encoded=False))
        means = {label: float(np.mean(vals))
                 for label, vals in scores.items()}
        print("{:<6s} {:>9.3f} {:>8.3f} {:>8.3f} {:>8.3f} {:>8.3f}".format(
            mode_name, means["Meta*"], means["Meta"], means["Basic"],
            means["SVMr"], means["SVM"]))
    print("\n(alpha, psi) per mode: M5=(1,20) M7=(3,20) M1=(4,20) M3=(4,10)")
    print("Half the regions are concave or disconnected; SVM cannot "
          "represent them while\nthe NN classifier with meta-knowledge "
          "degrades gracefully.")


if __name__ == "__main__":
    main()
