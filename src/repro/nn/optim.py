"""Gradient-descent optimizers for the NN substrate.

``SGD`` performs the plain update of Eq. 12 (local, learning rate rho) and
Eq. 13 (global, learning rate lambda); ``Adam`` is provided for the Basic
(non-meta) classifier which in the paper is trained conventionally.
"""

from __future__ import annotations

import numpy as np

__all__ = ["Optimizer", "SGD", "Adam"]


class Optimizer:
    """Base optimizer over an explicit parameter list."""

    def __init__(self, params, lr):
        self.params = list(params)
        if not self.params:
            raise ValueError("optimizer got an empty parameter list")
        if lr <= 0:
            raise ValueError("learning rate must be positive, got {}".format(lr))
        self.lr = lr

    def zero_grad(self):
        for param in self.params:
            param.zero_grad()

    def step(self):
        raise NotImplementedError

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
        self._velocity = [np.zeros_like(p.data) for p in self.params]

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
        for param, velocity in zip(self.params, self._velocity):
            if param.grad is None:
                continue
            if self.momentum:
                velocity *= self.momentum
                velocity += param.grad
                update = velocity
            else:
                update = param.grad
            param.data = param.data - self.lr * update


class Adam(Optimizer):
    """Adam (Kingma & Ba, 2015)."""

    def __init__(self, params, lr=1e-3, betas=(0.9, 0.999), eps=1e-8):
        super().__init__(params, lr)
        self.beta1, self.beta2 = betas
        self.eps = eps
        self._step = 0
        self._m = [np.zeros_like(p.data) for p in self.params]
        self._v = [np.zeros_like(p.data) for p in self.params]

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
        self._step += 1
        b1, b2 = self.beta1, self.beta2
        bias1 = 1.0 - b1 ** self._step
        bias2 = 1.0 - b2 ** self._step
        for param, m, v in zip(self.params, self._m, self._v):
            if param.grad is None:
                continue
            m *= b1
            m += (1 - b1) * param.grad
            v *= b2
            v += (1 - b2) * param.grad ** 2
            # In-place evaluation of
            #   param - (lr * (m / bias1)) / (sqrt(v / bias2) + eps)
            # in exactly that floating-point order — the serving layer's
            # parity guarantee relies on sequential and batched updates
            # producing identical bits, so only the temporaries differ.
            update = m / bias1
            update *= self.lr
            denom = v / bias2
            np.sqrt(denom, out=denom)
            denom += self.eps
            update /= denom
            param.data = param.data - update
