"""Core policy of the array engine: which threads train, and on what.

numpy releases the GIL inside its loops and BLAS products, so two
threads each training half of a task stack run on two cores at once —
*if* the BLAS library does not put its own threads under each of them.
OpenBLAS starts one thread per core and splits every large enough
product over all of them; two halves on two threads then share two
cores among four threads, and a 200-row paper-size stack runs ×0.43–0.92
as fast as whole.  The policy, stated once here the way
:mod:`repro.nn.alloc` states the malloc policy:

* **A process owns a number of compute threads**
  (:func:`compute_threads`): its CPU-affinity count, or
  ``max(1, cores // n)`` in each of the ``n`` forked workers of a
  ``ShardGateway``, which also set their BLAS thread count to that
  share at start (:func:`claim_share`).  Training runs in one process,
  which the halves below spread over its cores.
* **Every product runs on one BLAS thread but a store scan's.**
  Every stack the training seams hand to :func:`run_stack` — the
  serving flush's adapt buckets, the meta-batch runs, the pooled
  pretrain epochs, whole or split — runs while numpy's OpenBLAS is held
  at one thread (:func:`one_blas_thread`), under a process-wide count
  of such holds; the last one out restores the previous thread count.
  OpenBLAS picks a product's kernel by its shape *and* its thread
  count, and for some shapes (a paper-size net at 60 labels, say) the
  two kernels disagree in the last place: held at one thread, a stack's
  bits depend on neither the host's core count, nor a shard worker's
  share, nor whether it was split.  The serving layer holds the rest of
  a label round too: all of ``core.framework.run_adapt_requests`` (the
  task-wise initialization's memory retrievals are threaded products
  at paper sizes) and every prediction over caller rows (a session's
  or a manager's ``predict``, ``predict_many``, ``predict_subspace``,
  ``retrieve``).  The reason is OpenBLAS's worker thread: after a
  product that ran on two threads it spins on the other core for about
  0.13 s before it sleeps, and a flush that starts within that window
  runs its halves beside the spinner (README, "Two cores": a paper-size
  K = 16 warm adapt bucket takes ×1.6 as long right after a threaded
  1 000-row prediction as after a pause).  Only a store scan's blocks
  keep the process's count: a scan's 8 192-row blocks are large enough
  to gain from the second thread, and held they run ×0.85–0.96 as fast.
* **A training stack worth two threads runs as two halves**
  (:func:`run_stack`): at least two tasks, at least :data:`SPLIT_MACS`
  estimated multiply-adds a step (:func:`step_macs`), and two compute
  threads.  :func:`fan_out` runs the second half on a helper thread and
  the first on the caller, under one process-wide lock; the stacked
  program is block-diagonal, so each half computes exactly its tasks'
  slices of the whole stack, and the seams stitch the halves back in
  task order.
* **Subspace preparation fans out too.**  ``LTE.fit_offline`` and the
  refresh path hand :func:`fan_out` two contiguous halves of their
  subspace list when one subspace's clustering work reaches
  ``core.framework._PREPARE_SPLIT_WORK``; a prepared state is a function
  of its table, config, subspace and index alone.  A half prepares on
  one BLAS thread, like every fan-out, and that costs no bits: the
  clustering step's products (k-means distances, the quantization
  baseline) gave equal states held at one thread and at the default two
  in every case sized — paper and small cluster counts, table and store,
  one to five subspaces (``tests/train/test_fan_out.py``).  A
  preparation below the threshold runs serially, unheld.

A fan-out that cannot take the lock — another thread is fanning out, or
this call is nested inside a half — runs whole, and so does every
fan-out in a process where no OpenBLAS thread setter is found (a numpy
built on another BLAS, whose own threads would oversubscribe the cores
a fan-out means to share); such a process holds nothing either.
``openblas_set_num_threads_local`` is not used: the OpenBLAS numpy
bundles treats it as a global set, and two threads setting and
restoring it race.
"""

from __future__ import annotations

import contextlib
import ctypes
import glob
import os
import threading
import time

import numpy as np

from ..obs import default_registry

__all__ = ["SPLIT_MACS", "compute_threads", "claim_share", "fan_out",
           "one_blas_thread", "run_stack", "step_macs"]

#: Estimated multiply-adds of one training step from which a stack of
#: two or more tasks trains as two halves (README, "Two cores": the
#: sweep over K × rows for small and paper nets that sized it).
SPLIT_MACS = 1 << 23


def _affinity():
    try:
        return len(os.sched_getaffinity(0))
    except (AttributeError, OSError):    # not Linux
        return os.cpu_count() or 1


def _find_blas():
    """``(set, get)`` of the OpenBLAS thread count numpy's products run
    on, or None.  The wheels bundle it next to the package
    (``numpy.libs``, ``numpy/.dylibs``) under a prefixed name."""
    root = os.path.dirname(np.__file__)
    paths = sorted(glob.glob(os.path.join(root + ".libs", "*openblas*"))
                   + glob.glob(os.path.join(root, ".dylibs", "*openblas*")))
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for prefix in ("scipy_openblas", "openblas"):
            for suffix in ("64_", ""):
                setter = getattr(lib, prefix + "_set_num_threads" + suffix,
                                 None)
                getter = getattr(lib, prefix + "_get_num_threads" + suffix,
                                 None)
                if setter is not None and getter is not None:
                    setter.argtypes, setter.restype = [ctypes.c_int], None
                    getter.argtypes, getter.restype = [], ctypes.c_int
                    return setter, getter
    return None


_BLAS = _find_blas()


class _State:
    """The process's share of the cores and its BLAS holds."""

    def __init__(self, threads):
        self.threads = threads
        self.fan_out = threading.Lock()     # one fan-out at a time
        self.holds = threading.Lock()       # guards depth / previous
        self.depth = 0
        self.previous = None


_STATE = _State(_affinity())


def compute_threads():
    """How many compute threads this process owns."""
    return _STATE.threads


def claim_share(workers):
    """Take a forked shard worker's share of the cores: ``max(1, cores
    // workers)`` compute threads, and as many BLAS threads.  Called
    once, first thing, by each worker of a ``ShardGateway`` of
    ``workers`` processes; returns the share."""
    global _STATE
    # A fresh state: a hold or fan-out of another parent thread at fork
    # time left its locks held and its depth counted.
    _STATE = _State(max(1, _affinity() // max(1, int(workers))))
    if _BLAS is not None:
        _BLAS[0](_STATE.threads)
    return _STATE.threads


@contextlib.contextmanager
def one_blas_thread():
    """Hold numpy's OpenBLAS at one thread; the last hold out restores
    the count the first one found.  Holds nest and may overlap across
    threads; where no OpenBLAS setter was found, nothing is held."""
    state = _STATE
    if _BLAS is None:
        yield
        return
    set_threads, get_threads = _BLAS
    with state.holds:
        if state.depth == 0:
            state.previous = get_threads()
            set_threads(1)
        state.depth += 1
    try:
        yield
    finally:
        with state.holds:
            state.depth -= 1
            if state.depth == 0:
                set_threads(state.previous)


def step_macs(config, k, rows, keep_retrieved=False):
    """Estimated multiply-adds of one training step of a ``k``-task stack
    of classifiers with ``config`` (``UISClassifier.config``) over
    ``rows`` rows a task: ``K · (P + n · (w·Ne + Ne² + Ne·H))``, P the
    parameters a task trains: all of them (its conversion matrix
    included), or with ``keep_retrieved`` the tuple and classification
    blocks only (``fused_local_adapt``'s online local phase)."""
    ku, width = config["ku"], config["input_width"]
    ne, hidden = config["embed_size"], config["hidden_size"]
    conversion = config["use_conversion"]
    params = ((width + 1) * ne
              + ((ne if conversion else 3 * ne) + 1) * hidden + hidden + 1)
    if not keep_retrieved:
        params += (ku + 1) * ne + (3 * ne * ne if conversion else 0)
    return k * (params + rows * (width * ne + ne * ne + ne * hidden))


def run_stack(fn, tasks, macs):
    """``fn`` over a training stack of tasks, whole or as two halves,
    with numpy's OpenBLAS held at one thread either way.

    ``tasks`` is a list; ``fn(tasks)`` trains that stack and
    ``fn(first + second)`` must equal ``fn(first)`` and ``fn(second)``
    stitched in order — the stacked program's partition invariance.
    Returns the list of results to stitch: ``[fn(tasks)]``, or the two
    halves' when the stack splits (see :func:`fan_out`).
    """
    tasks = list(tasks)
    if len(tasks) >= 2 and macs >= SPLIT_MACS:
        middle = (len(tasks) + 1) // 2
        return fan_out(fn, tasks[:middle], tasks[middle:])
    with one_blas_thread():
        if len(tasks) >= 2:
            default_registry().counter("nn.fan_out.whole").inc()
        return [fn(tasks)]


def fan_out(fn, first, second):
    """``[fn(first), fn(second)]``, the second on a helper thread.

    Under the process's one fan-out lock and a one-thread BLAS hold, the
    caller starts the helper, runs its own half and joins; an exception
    the helper raised re-raises here with its type, after the join, and
    one the caller's half raised wins over the helper's — the error of
    the earliest failing item when ``fn`` walks its items in order.
    Without the lock (a concurrent or nested fan-out), without a second
    compute thread or without a BLAS setter it returns
    ``[fn(first + second)]`` instead.
    """
    metrics = default_registry()
    state = _STATE
    with one_blas_thread():
        if _BLAS is None or state.threads < 2 \
                or not state.fan_out.acquire(blocking=False):
            metrics.counter("nn.fan_out.whole").inc()
            return [fn(first + second)]
        try:
            outcome = {}

            def helper():
                try:
                    outcome["result"] = fn(second)
                except BaseException as error:    # re-raised by the caller
                    outcome["error"] = error

            thread = threading.Thread(target=helper, name="repro-fan-out",
                                      daemon=True)
            thread.start()
            try:
                mine = fn(first)
            finally:
                waited = time.perf_counter()
                thread.join()
                metrics.histogram("nn.fan_out.wait.seconds").observe(
                    time.perf_counter() - waited)
        finally:
            state.fan_out.release()
    if "error" in outcome:
        raise outcome["error"]
    metrics.counter("nn.fan_out.split").inc()
    return [mine, outcome["result"]]
