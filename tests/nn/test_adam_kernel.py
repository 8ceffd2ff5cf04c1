"""Adam's compiled loop against its numpy kernel.

The two must give the same bits for every element, whatever the values
(NaN, infinities, subnormals), sizes, layouts and gradients; and a host
where the loop cannot be built or cached runs the numpy kernel, with the
same bits, and counts it.
"""

import os
import subprocess
import sys
import threading

import numpy as np
import pytest

import repro
from repro.nn import Adam, optim
from repro.nn.tensor import Parameter
from repro.obs import default_registry

BLOCK = optim._BLOCK
MIB = (1 << 20) // 8            # float64 elements in one MiB
SRC = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))

needs_compiler = pytest.mark.skipif(optim._compiler() is None,
                                    reason="no C compiler on this host")


def _normal(rng, *shape):
    return rng.normal(size=shape)


def _extremes(rng, n):
    """Gradients that reach every IEEE corner of the update."""
    special = np.array([np.nan, np.inf, -np.inf, 0.0, -0.0, 5e-324,
                        -2.2e-308, 1e300, -1e-300, 1e-160, 3.0])
    grad = rng.normal(size=n) * 10.0 ** rng.integers(-200, 200, size=n)
    grad[rng.integers(0, n, size=special.size)] = special
    return grad


# name -> rng -> (list of starting ``param.data``, list of per-step
# gradient lists, one entry per parameter, None for "no gradient")
CASES = {
    "size 1": lambda rng: (
        [_normal(rng, 1)], [[_normal(rng, 1)] for _ in range(5)]),
    "odd sizes": lambda rng: (
        [_normal(rng, 7), _normal(rng, 3, 11), _normal(rng, 1001)],
        [[_normal(rng, 7), _normal(rng, 3, 11), _normal(rng, 1001)]
         for _ in range(4)]),
    "above 1 MiB": lambda rng: (
        [_normal(rng, MIB + 3), _normal(rng, 2, MIB // 2 + 1)],
        [[_normal(rng, MIB + 3), _normal(rng, 2, MIB // 2 + 1)]
         for _ in range(2)]),
    "across blocks": lambda rng: (
        [_normal(rng, 3, BLOCK + 1)],
        [[_normal(rng, 3, BLOCK + 1)] for _ in range(3)]),
    "NaN and infinite gradients": lambda rng: (
        [_normal(rng, 257), _normal(rng, 31)],
        [[_extremes(rng, 257), _extremes(rng, 31)] for _ in range(4)]),
    "NaN and infinite data": lambda rng: (
        [np.array([np.nan, np.inf, -np.inf, 1e308, -5e-324, 0.0])],
        [[_extremes(rng, 6)] for _ in range(3)]),
    "stride-0 gradient": lambda rng: (
        [_normal(rng, 3, 6)],
        [[np.broadcast_to(_normal(rng, 6), (3, 6))] for _ in range(3)]),
    "broadcast gradient": lambda rng: (
        [_normal(rng, 4, 5)], [[_normal(rng, 1, 5)] for _ in range(3)]),
    "strided gradient": lambda rng: (
        [_normal(rng, 4, 5, 3)],
        [[np.swapaxes(_normal(rng, 4, 3, 5), -1, -2)] for _ in range(3)]),
    "non-contiguous data": lambda rng: (
        [np.swapaxes(_normal(rng, 5, 4, 3), 0, 1)],
        [[_normal(rng, 4, 5, 3)] for _ in range(3)]),
    "read-only broadcast data": lambda rng: (
        [np.broadcast_to(_normal(rng, 6), (3, 6))],
        [[_normal(rng, 3, 6)] for _ in range(3)]),
    "missing gradients": lambda rng: (
        [_normal(rng, 9), _normal(rng, 9)],
        [[_normal(rng, 9), None], [None, _normal(rng, 9)],
         [_normal(rng, 9), _normal(rng, 9)]]),
}


def adam_state(case, kernel, step=None):
    """Every parameter, first and second moment after running ``case``
    through ``kernel`` (None: the numpy kernel), by ``Adam.step`` when
    ``step`` is given."""
    starts, grad_steps = CASES[case](np.random.default_rng(len(case)))
    params = [Parameter(start) for start in starts]
    optimizer = Adam(params, lr=0.01)
    with np.errstate(all="ignore"):
        for grads in grad_steps:
            for param, grad in zip(params, grads):
                param.grad = grad
            if step is None:
                optimizer._step_with(kernel)
            else:
                step(optimizer)
    return [param.data for param in params] + optimizer._m + optimizer._v


def assert_same_bits(ours, reference):
    assert len(ours) == len(reference)
    for a, b in zip(ours, reference):
        assert a.shape == b.shape and a.dtype == b.dtype
        assert a.tobytes() == b.tobytes()


@needs_compiler
@pytest.mark.parametrize("case", sorted(CASES))
def test_compiled_loop_equals_numpy_kernel_bit_for_bit(case):
    kernel = optim._adam_kernel()
    assert kernel is not None, "a C compiler is found, yet the loop failed"
    compiled = adam_state(case, kernel)
    assert_same_bits(compiled, adam_state(case, None))
    if case == "NaN and infinite gradients":
        assert np.isnan(compiled[0]).any() and np.isfinite(compiled[0]).any()


def counted_numpy_steps():
    return default_registry().value("nn.optim.adam.numpy_steps")


@pytest.mark.parametrize("host", ["no compiler", "unwritable cache"])
def test_without_the_loop_the_numpy_kernel_runs_with_the_same_bits(
        host, monkeypatch, tmp_path):
    reference = adam_state("odd sizes", None)
    monkeypatch.setattr(optim, "_KERNEL", [])
    if host == "no compiler":
        monkeypatch.setattr(optim, "_compiler", lambda: None)
    else:
        # A file where the cache's parent directory should be: no
        # directory can be made under it, whoever the user is.
        blocker = tmp_path / "not-a-directory"
        blocker.write_text("")
        monkeypatch.setattr(optim, "_cache_dir",
                            lambda: str(blocker / "repro"))
    before = counted_numpy_steps()
    ours = adam_state("odd sizes", None, step=Adam.step)
    assert counted_numpy_steps() - before == len(
        CASES["odd sizes"](np.random.default_rng(0))[1])
    assert optim._KERNEL == [None]
    assert_same_bits(ours, reference)


@needs_compiler
def test_the_compiled_loop_counts_no_numpy_step():
    before = counted_numpy_steps()
    adam_state("odd sizes", None, step=Adam.step)
    assert counted_numpy_steps() == before


def test_threads_that_step_first_at_once_build_the_loop_once(monkeypatch):
    """Adapts run on several threads: the first steps of a process race
    to build the loop, and exactly one builds it for all."""
    monkeypatch.setattr(optim, "_KERNEL", [])
    built = []
    real = optim._build_kernel

    def counted():
        built.append(None)
        return real()

    monkeypatch.setattr(optim, "_build_kernel", counted)
    found = []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(
            target=lambda: found.append(optim._adam_kernel()))
            for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert len(built) == 1 and len(found) == 8
    assert all(kernel is found[0] for kernel in found)


@needs_compiler
def test_two_processes_compiling_at_once_both_load_a_whole_library(
        tmp_path):
    code = ("from repro.nn import optim\n"
            "assert optim._adam_kernel() is not None\n"
            "print(sorted(__import__('os').listdir(optim._cache_dir())))\n")
    env = dict(os.environ, PYTHONPATH=SRC, XDG_CACHE_HOME=str(tmp_path))
    children = [subprocess.Popen([sys.executable, "-c", code], env=env,
                                 stdout=subprocess.PIPE,
                                 stderr=subprocess.PIPE, text=True)
                for _ in range(2)]
    outputs = [child.communicate(timeout=300) for child in children]
    for child, (out, err) in zip(children, outputs):
        assert child.returncode == 0, err
    # One library, no temporary left behind, and it loads in a third.
    libraries = os.listdir(tmp_path / "repro")
    assert len(libraries) == 1 and libraries[0].startswith("adam-") \
        and libraries[0].endswith(".so"), libraries
    third = subprocess.run([sys.executable, "-c", code], env=env,
                           capture_output=True, text=True, timeout=300)
    assert third.returncode == 0, third.stderr
    assert third.stdout.strip() == str(libraries)


def test_importing_repro_starts_no_compiler_and_writes_no_cache(tmp_path):
    """The loop is built by the first ``Adam.step``, never at import:
    a fresh interpreter that imports every module of ``repro`` has
    started no process and has an empty cache."""
    code = (
        "import importlib, pkgutil, sys\n"
        "started = []\n"
        "sys.addaudithook(lambda event, args: started.append(event)\n"
        "                 if event in ('subprocess.Popen', 'os.exec',\n"
        "                              'os.posix_spawn', 'os.spawn',\n"
        "                              'os.system', 'os.fork') else None)\n"
        "import repro\n"
        "for module in pkgutil.walk_packages(repro.__path__, 'repro.'):\n"
        "    if not module.name.endswith('__main__'):\n"
        "        importlib.import_module(module.name)\n"
        "from repro.nn import optim\n"
        "assert optim._KERNEL == [], optim._KERNEL\n"
        "print(started)\n")
    env = dict(os.environ, PYTHONPATH=SRC, XDG_CACHE_HOME=str(tmp_path))
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"
    assert not list(tmp_path.iterdir())
