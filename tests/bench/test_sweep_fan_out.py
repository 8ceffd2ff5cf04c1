"""``benchmarks/sweep_fan_out.py``'s stack training, at a tiny size.

The sweep times a stack whole and as two halves and prints whether the
halves returned the whole stack's bits.  This runs that "equal" check
without the timing and without needing two cores, so an API change the
script depends on fails here rather than in a sweep nobody runs.
"""

import importlib.util
import pathlib

import numpy as np
import pytest

SCRIPT = pathlib.Path(__file__).resolve().parents[2] / "benchmarks" \
    / "sweep_fan_out.py"


@pytest.fixture(scope="module")
def sweep():
    spec = importlib.util.spec_from_file_location("sweep_fan_out", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("keep_retrieved", [True, False])
def test_halves_train_the_whole_stacks_bits(sweep, keep_retrieved):
    stack = sweep.make_stack(4, 6, ku=5, width=4, ne=3, hidden=3)
    whole = sweep.train(stack, [0, 1, 2, 3], steps=2,
                        keep_retrieved=keep_retrieved)
    halves = [sweep.train(stack, tasks, steps=2,
                          keep_retrieved=keep_retrieved)
              for tasks in ([0, 1], [2, 3])]
    assert len(whole) == 8
    for got, first, second in zip(whole, *halves):
        assert got.shape[0] == 4
        assert np.array_equal(got, np.concatenate([first, second]))
    # It trained: the classification block moved off its start.
    start = stack[0][0].clf_block.m0.weight.data
    assert not np.array_equal(whole[4][0], start)
