"""Gradient-descent optimizers for the NN substrate.

``SGD`` performs the plain update of Eq. 12 (local, learning rate rho) and
Eq. 13 (global, learning rate lambda); ``Adam`` is the practical default
of the local phase, of joint pretraining and of the Basic (non-meta)
classifier.  One class serves serving adapts, the meta-training local
phase and pretraining alike.

**Adam's step is one compiled loop.**  ``Adam.step`` computes its
per-step scalars in Python and then, once per parameter, hands the
raveled ``param.data``, gradient and moment buffers to the C function
of ``_adam.c`` through :mod:`ctypes`: one pass that applies the update's
thirteen operations to each element, where numpy makes thirteen passes.
``ctypes`` releases the GIL for the call, so two fan-out halves
(:func:`repro.nn.cores.run_stack`) step their optimizers on two cores.
The library is built at the first ``Adam.step`` of a process, never at
import, by :mod:`repro.native` (one build and cache for every compiled
loop of the package), and checked before its first use against the
numpy kernel on a few values (NaN, infinities and a subnormal
included).

**The numpy kernel** (``Adam._numpy_step``) is the reference and the
only path where no compiler is found, the cache is not writable or the
check fails, and for a gradient that is not float64; there is no
switch between the two.  It walks the raveled arrays in blocks of
:data:`_BLOCK` elements and evaluates the update with ``out=`` ufuncs
into one scratch block owned by the optimizer instance.  Every Adam
step that runs it counts in ``nn.optim.adam.numpy_steps``.  ``SGD`` is
numpy only, with the same blocks.

**Bit-exactness contract.**  The compiled loop evaluates each element
in the numpy kernel's order with its scalars, and is built without
fused multiply-adds or fast-math, so the two give the same bits
(``tests/nn/test_adam_kernel.py`` compares them on NaN, infinite,
broadcast and strided inputs, and ``tests/nn/test_optim.py`` runs every
case on both; README.md, "Compiled loops: ``Adam.step`` and k-means",
has the measurements).  The update is element-wise with per-step
scalars, so an element's new value depends
only on its own old value, gradient and moments — never on which
block, parameter or stack it sits in.  Every execution path shares
this class, hence stacked (K, ...) optimizers equal K per-slice ones,
batched adapts equal sequential ones, and 1/2/4-worker pretraining
equals the fused engine, bit for bit (``tests/nn/test_optim.py``,
``tests/serve``, ``tests/train``).  The bias corrections are folded
into two scalars (``lr / bias1`` and ``1 / sqrt(bias2)``, eps outside
the correction — PyTorch's formulation) instead of dividing every
element of ``m`` and ``v``, which moves the last ulp of a parameter
update against the textbook form; that form survives as the
plain-numpy oracle of the tests.

**Aliasing.**  ``step`` mutates ``param.data`` instead of rebinding it,
and :class:`~repro.nn.Parameter` wraps a float64 array without a copy:
whoever hands it one and wants to keep it copies it first.  A
non-contiguous or read-only ``param.data`` (a ``swapaxes`` view, a
stride-0 broadcast) is replaced by a contiguous copy on its first step,
once.  Gradients are only read;
one that is strided or broadcast is copied contiguous for the compiled
loop, which the training paths never need.

A step allocates nothing.  The temporaries of the old one happened to
keep glibc from trimming the heap between training steps;
:mod:`repro.nn.alloc` now says so to the allocator outright.
"""

from __future__ import annotations

import ctypes
import math
import os

import numpy as np

from ..native import Kernel
from ..obs import default_registry
from .layers import Parameter

__all__ = ["Optimizer", "SGD", "Adam"]

#: Elements per block of the numpy step: five float64 streams (data,
#: grad, two moments, scratch) of 32k elements are 1.25 MiB, inside a
#: 2 MiB L2.  A constant, not a knob — results do not depend on it.
_BLOCK = 1 << 15

def _bind(library):
    function = library.repro_adam_step
    function.restype = None
    function.argtypes = [ctypes.c_void_p] * 4 + [ctypes.c_size_t] \
        + [ctypes.c_double] * 7
    return function


def _agrees_with_numpy(function):
    """Whether ``function`` gives the numpy kernel's bits on a few values
    that a contracted or fast-math build would round differently."""
    rng = np.random.default_rng(0)
    grad = np.concatenate([rng.normal(size=29) * 10.0 ** rng.integers(
        -12, 12, size=29), [np.nan, np.inf, -np.inf, 5e-324, 0.0]])
    start = rng.normal(size=grad.size)
    results = []
    for kernel in (function, None):
        param = Parameter(start.copy())
        param.grad = grad
        optimizer = Adam([param], lr=0.01)
        with np.errstate(all="ignore"):
            for _ in range(3):
                optimizer._step_with(kernel)
        results.append(np.concatenate([param.data] + optimizer._m
                                      + optimizer._v))
    return results[0].tobytes() == results[1].tobytes()


_ADAM = Kernel(os.path.join(os.path.dirname(os.path.abspath(__file__)),
                            "_adam.c"), _bind, _agrees_with_numpy)


def _adam_kernel():
    """The compiled Adam loop of this process, built on first call;
    None when only the numpy kernel can run."""
    return _ADAM.get()


class Optimizer:
    """Base optimizer over an explicit parameter list."""

    def __init__(self, params, lr):
        self.params = list(params)
        if not self.params:
            raise ValueError("optimizer got an empty parameter list")
        if lr <= 0:
            raise ValueError("learning rate must be positive, got {}".format(lr))
        self.lr = lr
        # Per instance, never module-level: adapts run on several threads.
        self._scratch = np.empty(
            min(_BLOCK, max(p.data.size for p in self.params)))

    def zero_grad(self):
        for param in self.params:
            param.zero_grad()

    def step(self):
        raise NotImplementedError

    @staticmethod
    def _writable(param):
        """``param.data``, replaced by a contiguous copy first if it is
        strided or read-only."""
        data = param.data
        if not (data.flags.c_contiguous and data.flags.writeable):
            data = param.data = np.array(data, order="C")
        return data

    def _blocks(self, param, *buffers):
        """Aligned flat blocks ``(data, grad, *buffers, scratch)`` of
        one parameter, every one but ``grad`` a writable view."""
        data = self._writable(param)
        grad = param.grad
        if grad.shape != data.shape:
            grad = np.broadcast_to(grad, data.shape)
        flats = [array.reshape(-1) for array in (data, grad) + buffers]
        for lo in range(0, data.size, _BLOCK):
            block = [flat[lo:lo + _BLOCK] for flat in flats]
            block.append(self._scratch[:block[0].size])
            yield block

    # -- state dict protocol ---------------------------------------------
    def state_dict(self):
        """Checkpointable optimizer state (hyper-params + buffers).

        Parameter *values* are not included — they belong to the module's
        own ``state_dict``; this captures everything else needed so that
        ``load_state_dict`` followed by further ``step`` calls is
        bit-identical to never having serialized at all.
        """
        return {"kind": type(self).__name__.lower(), "lr": float(self.lr)}

    def load_state_dict(self, state):
        """Restore buffers written by :meth:`state_dict` (in place)."""
        if state.get("kind") != type(self).__name__.lower():
            raise ValueError("optimizer state is for {!r}, not {!r}".format(
                state.get("kind"), type(self).__name__.lower()))
        self.lr = float(state["lr"])

    def _check_buffers(self, buffers, name):
        if len(buffers) != len(self.params):
            raise ValueError(
                "optimizer state has {} {} buffers for {} parameters"
                .format(len(buffers), name, len(self.params)))
        for buffer, param in zip(buffers, self.params):
            if np.shape(buffer) != param.data.shape:
                raise ValueError(
                    "{} buffer shape {} does not match parameter shape {}"
                    .format(name, np.shape(buffer), param.data.shape))


class SGD(Optimizer):
    """Stochastic gradient descent with optional momentum."""

    def __init__(self, params, lr, momentum=0.0):
        super().__init__(params, lr)
        if not 0.0 <= momentum < 1.0:
            raise ValueError("momentum must be in [0, 1)")
        self.momentum = momentum
        self._velocity = [np.zeros(p.data.shape) for p in self.params]

    def state_dict(self):
        state = super().state_dict()
        state["momentum"] = float(self.momentum)
        state["velocity"] = [v.copy() for v in self._velocity]
        return state

    def load_state_dict(self, state):
        super().load_state_dict(state)
        self._check_buffers(state["velocity"], "velocity")
        self.momentum = float(state["momentum"])
        self._velocity = [np.asarray(v, dtype=np.float64).copy()
                          for v in state["velocity"]]

    def step(self):
        """``velocity = momentum * velocity + grad`` (when momentum is
        set), then ``param -= lr * velocity``."""
        lr, momentum = self.lr, self.momentum
        for param, velocity in zip(self.params, self._velocity):
            if param.grad is None:
                continue
            if momentum:
                for data, grad, vel, out in self._blocks(param, velocity):
                    vel *= momentum
                    vel += grad
                    np.multiply(vel, lr, out=out)
                    data -= out
            else:
                for data, grad, out in self._blocks(param):
                    np.multiply(grad, lr, out=out)
                    data -= out


class Adam(Optimizer):
    """Adam (Kingma & Ba, 2015)."""

    def __init__(self, params, lr=1e-3, betas=(0.9, 0.999), eps=1e-8):
        super().__init__(params, lr)
        self.beta1, self.beta2 = betas
        self.eps = eps
        self._step = 0
        self._m = [np.zeros(p.data.shape) for p in self.params]
        self._v = [np.zeros(p.data.shape) for p in self.params]
        # Per parameter: (data, m, v, their addresses) as last stepped;
        # reading an address through ``ndarray.ctypes`` costs ~2 us.
        self._addresses = [None] * len(self.params)

    def state_dict(self):
        state = super().state_dict()
        state.update({
            "beta1": float(self.beta1), "beta2": float(self.beta2),
            "eps": float(self.eps), "step": int(self._step),
            "m": [m.copy() for m in self._m],
            "v": [v.copy() for v in self._v],
        })
        return state

    def load_state_dict(self, state):
        super().load_state_dict(state)
        self._check_buffers(state["m"], "first-moment")
        self._check_buffers(state["v"], "second-moment")
        self.beta1 = float(state["beta1"])
        self.beta2 = float(state["beta2"])
        self.eps = float(state["eps"])
        self._step = int(state["step"])
        self._m = [np.asarray(m, dtype=np.float64).copy()
                   for m in state["m"]]
        self._v = [np.asarray(v, dtype=np.float64).copy()
                   for v in state["v"]]

    def step(self):
        """``m = b1 m + (1 - b1) g``, ``v = b2 v + (1 - b2) g^2``, then
        ``param -= (lr / bias1) * m / (sqrt(v) / sqrt(bias2) + eps)``."""
        if self._step_with(_adam_kernel()):
            default_registry().counter("nn.optim.adam.numpy_steps").inc()

    def _step_with(self, kernel):
        """One step through ``kernel`` (the compiled loop), or through
        the numpy kernel when it is None; whether the numpy kernel ran."""
        self._step += 1
        b1, b2 = self.beta1, self.beta2
        scalars = (b1, 1.0 - b1, b2, 1.0 - b2,
                   1.0 / math.sqrt(1.0 - b2 ** self._step), self.eps,
                   self.lr / (1.0 - b1 ** self._step))
        on_numpy = False
        for i, (param, m, v) in enumerate(zip(self.params, self._m,
                                               self._v)):
            grad = param.grad
            if grad is None:
                continue
            if kernel is None or grad.dtype != np.float64 \
                    or param.data.dtype != np.float64:
                on_numpy = True
                self._numpy_step(param, m, v, scalars)
                continue
            data = self._writable(param)
            known = self._addresses[i]
            if known is None or known[0] is not data or known[1] is not m \
                    or known[2] is not v:
                if not all(buffer.shape == data.shape
                           and buffer.dtype == np.float64
                           and buffer.flags.c_contiguous
                           and buffer.flags.writeable for buffer in (m, v)):
                    raise ValueError(
                        "Adam moments must be writable contiguous float64 "
                        "arrays of the parameter's shape {}"
                        .format(data.shape))
                known = self._addresses[i] = (
                    data, m, v, data.ctypes.data, m.ctypes.data,
                    v.ctypes.data)
            if grad.shape != data.shape or not grad.flags.c_contiguous:
                grad = np.ascontiguousarray(
                    np.broadcast_to(grad, data.shape))
            kernel(known[3], grad.ctypes.data, known[4], known[5],
                   data.size, *scalars)
        return on_numpy

    def _numpy_step(self, param, m_full, v_full, scalars):
        b1, one_minus_b1, b2, one_minus_b2, inv_sqrt_bias2, eps, \
            step_size = scalars
        for data, grad, m, v, out in self._blocks(param, m_full, v_full):
            m *= b1
            np.multiply(grad, one_minus_b1, out=out)
            m += out
            v *= b2
            np.multiply(grad, grad, out=out)
            out *= one_minus_b2
            v += out
            np.sqrt(v, out=out)
            out *= inv_sqrt_bias2
            out += eps
            np.divide(m, out, out=out)
            out *= step_size
            data -= out
