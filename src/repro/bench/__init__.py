"""Benchmark harness: scale presets, workload builders, experiment runners."""

from .config import BenchScale, get_scale
from .harness import (baseline_oracle_pairs, budget_to_reach, print_matrix,
                      print_series)
from .workloads import (build_lte, clear_caches, convex_oracles,
                        eval_rows_for, get_table, make_config, mode_oracles,
                        subspace_region)

__all__ = [
    "BenchScale", "get_scale",
    "build_lte", "get_table", "make_config", "convex_oracles", "mode_oracles",
    "subspace_region", "eval_rows_for", "clear_caches",
    "baseline_oracle_pairs", "budget_to_reach", "print_series", "print_matrix",
]
