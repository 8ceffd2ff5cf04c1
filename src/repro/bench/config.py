"""Benchmark scale presets.

The paper's full parameter scale (|TM| = 5000 meta-tasks per subspace,
2500 test UIRs, 100K-tuple evaluation) takes hours; experiments default
to a *quick* preset that preserves every qualitative shape while
finishing on a laptop.  ``benchmarks/paper.py run --scale paper`` runs
the full configuration.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["BenchScale", "get_scale"]


@dataclass(frozen=True)
class BenchScale:
    """Knobs that trade fidelity for runtime in the benchmark harness."""

    name: str
    dataset_rows: int        # synthetic table size
    n_tasks: int             # meta-tasks per meta-subspace
    epochs: int              # meta-training epochs
    local_steps: int         # local adaptation steps (offline)
    n_test_uirs: int         # ground-truth regions per configuration
    eval_rows: int           # rows scored per F1 measurement
    pool_size: int           # baseline active-learning pool
    basic_steps: int         # online steps for the Basic variant


SCALES = {
    "quick": BenchScale(
        name="quick", dataset_rows=20_000, n_tasks=80, epochs=1,
        local_steps=8, n_test_uirs=4, eval_rows=5000, pool_size=800,
        basic_steps=80),
    "medium": BenchScale(
        name="medium", dataset_rows=50_000, n_tasks=300, epochs=2,
        local_steps=10, n_test_uirs=10, eval_rows=3000, pool_size=1500,
        basic_steps=100),
    "paper": BenchScale(
        name="paper", dataset_rows=100_000, n_tasks=5000, epochs=3,
        local_steps=20, n_test_uirs=100, eval_rows=10_000, pool_size=2000,
        basic_steps=200),
}


def get_scale(name="quick"):
    """The named bench scale preset (``quick`` by default)."""
    try:
        return SCALES[name.lower()]
    except KeyError:
        raise ValueError("unknown scale {!r}; options: {}".format(
            name, sorted(SCALES))) from None
