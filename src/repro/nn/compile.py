"""Name of the one nn executor, for the end-to-end benchmark's record.

There is a single execution path — the stacked array program of
:mod:`repro.nn.batching`.  ``benchmarks/e2e/run.py`` imports
``get_backend`` from this module for the ``nn_backend`` field of its
environment block, and benchmark files are frozen between PRs; nothing
in ``src/`` calls it.
"""

from collections import namedtuple

__all__ = ["get_backend"]

_REFERENCE = namedtuple("Backend", ["name"])("reference")


def get_backend():
    """The constant executor descriptor (``name == "reference"``)."""
    return _REFERENCE
