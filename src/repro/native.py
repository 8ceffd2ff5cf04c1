"""The package's compiled loops: one build for every C source.

Two loops are compiled: Adam's element-wise update (``nn/_adam.c``, for
:meth:`repro.nn.optim.Adam.step`) and k-means' assignment and k-means++
step (``ml/_kmeans.c``, for :meth:`repro.ml.kmeans.KMeans.fit`).  Each
is a :class:`Kernel`: built at its first :meth:`Kernel.get` in a
process, never at import, with the Python build's C compiler
(``sysconfig`` ``CC``, else ``cc``) and the fixed flags :data:`CFLAGS`,
into a per-user cache (``$XDG_CACHE_HOME/repro``, else
``~/.cache/repro``) under a name keyed by a hash of the source, the
flags, the compiler's version and the machine.  A build writes a
temporary name and ``os.replace``s it, so processes that build at once
each load a whole library.  Before the first use a process checks the
library against the module's numpy kernel on a few values; a kernel
whose library is missing or disagrees is None, and its module runs the
numpy kernel, which stays the reference.  There is no switch.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import platform
import shlex
import shutil
import subprocess
import sysconfig
import tempfile
import threading

__all__ = ["CFLAGS", "Kernel", "compiler", "cache_dir", "load_library"]

#: Flags of every compiled loop.  No fused multiply-add and no
#: fast-math, so a loop keeps its numpy kernel's bits;
#: ``-fno-math-errno`` lets ``sqrt`` vectorize.  No ``-march=native``:
#: the generic build measured as fast, and a cached library stays valid
#: on any host of the same machine type.
CFLAGS = ("-O3", "-fPIC", "-shared", "-ffp-contract=off",
          "-fno-math-errno")


def compiler():
    """The Python build's C compiler command (``sysconfig`` ``CC``),
    else ``cc``; None when neither is on the ``PATH``."""
    for command in (sysconfig.get_config_var("CC") or "", "cc"):
        argv = shlex.split(command)
        if argv and shutil.which(argv[0]):
            return argv
    return None


def cache_dir():
    """The per-user directory the compiled loops are kept in."""
    base = os.environ.get("XDG_CACHE_HOME") \
        or os.path.join(os.path.expanduser("~"), ".cache")
    return os.path.join(base, "repro")


def load_library(source):
    """The ``ctypes.CDLL`` of the C file ``source``, built into the cache
    as ``<name>-<hash>.so`` (``name`` the file's stem without its
    leading underscore) unless a library of the same source, flags,
    compiler and machine is there; None when there is no compiler, the
    cache is not writable or the build fails."""
    command = compiler()
    if command is None:
        return None
    name = os.path.splitext(os.path.basename(source))[0].lstrip("_")
    try:
        with open(source, "rb") as fh:
            text = fh.read()
        version = subprocess.run(
            command + ["--version"], capture_output=True, check=True,
            timeout=60).stdout
        key = hashlib.sha256(b"\0".join([
            text, " ".join(command + list(CFLAGS)).encode(), version,
            platform.machine().encode()])).hexdigest()[:20]
        folder = cache_dir()
        path = os.path.join(folder, "{}-{}.so".format(name, key))
        if not os.path.exists(path):
            os.makedirs(folder, exist_ok=True)
            fd, partial = tempfile.mkstemp(prefix=".{}-".format(name),
                                           suffix=".so", dir=folder)
            os.close(fd)
            try:
                subprocess.run(command + list(CFLAGS)
                               + ["-o", partial, source, "-lm"],
                               capture_output=True, check=True, timeout=300)
                os.replace(partial, path)
            finally:
                if os.path.exists(partial):
                    os.unlink(partial)
        return ctypes.CDLL(path)
    except (OSError, subprocess.SubprocessError):
        return None


class Kernel:
    """The functions of one C source, built once per process.

    ``bind(library)`` declares and returns what the module calls (its
    ctypes functions); ``agrees(functions)`` says whether they give the
    numpy kernel's bits on the module's check values.  :meth:`get`
    returns those functions, or None when only the numpy kernel can
    run; threads that ask first at once build it once for all.
    """

    def __init__(self, source, bind, agrees):
        self.source = source
        self._bind = bind
        self._agrees = agrees
        # Empty until the first get; then [functions or None].
        self._loaded = []
        self._lock = threading.Lock()

    def get(self):
        if not self._loaded:
            with self._lock:
                if not self._loaded:
                    self._loaded.append(self._build())
        return self._loaded[0]

    def _build(self):
        library = load_library(self.source)
        if library is None:
            return None
        functions = self._bind(library)
        return functions if self._agrees(functions) else None
