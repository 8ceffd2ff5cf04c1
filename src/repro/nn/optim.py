"""Gradient-descent optimizers for the NN substrate.

``SGD`` performs the plain update of Eq. 12 (local, learning rate rho) and
Eq. 13 (global, learning rate lambda); ``Adam`` is the practical default
of the local phase, of joint pretraining and of the Basic (non-meta)
classifier.  One class serves serving adapts, the meta-training local
phase and pretraining alike.

**The step is a fused, blocked, in-place kernel.**  Per parameter,
``step`` walks the raveled ``param.data``, its gradient and its moment
buffers in blocks of :data:`_BLOCK` elements, evaluates the update with
``out=`` ufuncs into one scratch block owned by the optimizer instance
and writes ``param.data`` and the moments in place: a handful of arrays
small enough to stay in L2 instead of a dozen full passes and six fresh
full-size temporaries per parameter.

**Bit-exactness contract.**  The kernel is element-wise with per-step
scalars, so an element's new value depends only on its own old value,
gradient and moments — never on which block, parameter or stack it sits
in.  Every execution path shares this class, hence stacked (K, ...)
optimizers equal K per-slice ones, batched adapts equal sequential
ones, and 1/2/4-worker pretraining equals the fused engine, bit for bit
(``tests/nn/test_optim.py``, ``tests/serve``, ``tests/train``).
Relative to the PR-12 arithmetic only the last ulp of Adam's parameter
update moved (its moments and all of SGD keep their bits): the bias
corrections are folded into two scalars (``lr / bias1`` and
``1 / sqrt(bias2)``, eps outside the correction — PyTorch's
formulation) where PR 12 divided every element of ``m`` and ``v``; the
textbook form survives as the plain-numpy oracle of the tests.

**Aliasing.**  ``step`` mutates ``param.data`` instead of rebinding it:
whoever hands an array to :class:`~repro.nn.tensor.Parameter` and wants
to keep it copies it first.  A non-contiguous or read-only
``param.data`` (a ``swapaxes`` view, a stride-0 broadcast) is replaced
by a contiguous copy on its first step, once.  Gradients are only read.

A step allocates nothing.  The temporaries of the old one happened to
keep glibc from trimming the heap between training steps;
:mod:`repro.nn.alloc` now says so to the allocator outright.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["Optimizer", "SGD", "Adam"]

#: Elements per block of the fused step: five float64 streams (data,
#: grad, two moments, scratch) of 32k elements are 1.25 MiB, inside a
#: 2 MiB L2.  A constant, not a knob — results do not depend on it.
_BLOCK = 1 << 15


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

    def _blocks(self, param, *buffers):
        """Aligned flat blocks ``(data, grad, *buffers, scratch)`` of
        one parameter, every one but ``grad`` a writable view."""
        data = param.data
        if not (data.flags.c_contiguous and data.flags.writeable):
            data = param.data = np.array(data, order="C")
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
        self._step += 1
        b1, b2, eps = self.beta1, self.beta2, self.eps
        step_size = self.lr / (1.0 - b1 ** self._step)
        inv_sqrt_bias2 = 1.0 / math.sqrt(1.0 - b2 ** self._step)
        for param, m_full, v_full in zip(self.params, self._m, self._v):
            if param.grad is None:
                continue
            for data, grad, m, v, out in self._blocks(param, m_full, v_full):
                m *= b1
                np.multiply(grad, 1.0 - b1, out=out)
                m += out
                v *= b2
                np.multiply(grad, grad, out=out)
                out *= 1.0 - b2
                v += out
                np.sqrt(v, out=out)
                out *= inv_sqrt_bias2
                out += eps
                np.divide(m, out, out=out)
                out *= step_size
                data -= out
