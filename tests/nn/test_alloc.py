"""The allocator policy of repro.nn: a freed working set is not faulted
in again (see ``repro/nn/alloc.py``)."""

import os
import platform
import subprocess
import sys

import pytest

import repro
from repro.nn.alloc import retain_freed_memory

glibc_only = pytest.mark.skipif(
    platform.libc_ver()[0] != "glibc", reason="the policy is glibc's")

# Rounds of a 64 MiB working set of 8 MiB arrays, written and dropped:
# prints the pages each round after the first two faulted in.
_ROUNDS = """
import resource
import numpy as np
import repro.nn

def faults():
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt

counts = []
for _ in range(5):
    before = faults()
    arrays = [np.ones(1 << 20) for _ in range(8)]
    del arrays
    counts.append(faults() - before)
print(*counts[2:])
"""


@glibc_only
def test_glibc_takes_both_thresholds():
    assert retain_freed_memory() is True


@glibc_only
def test_a_freed_working_set_is_not_faulted_in_again():
    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    env = {k: v for k, v in os.environ.items() if not k.startswith("MALLOC_")}
    env["PYTHONPATH"] = src
    done = subprocess.run([sys.executable, "-c", _ROUNDS], env=env,
                          check=True, capture_output=True, text=True)
    later_rounds = [int(count) for count in done.stdout.split()]
    # Under glibc's default policy every round maps its arrays afresh:
    # ~4 100 faults a round here.
    assert max(later_rounds) < 256, later_rounds
