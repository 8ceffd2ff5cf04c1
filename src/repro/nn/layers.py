"""Neural-network modules: Parameter, Linear, ReLU, Sequential, MLP.

A :class:`Module` owns named :class:`Parameter` objects and supports the
state-dict save/load protocol used by the meta-training loop to reset
local (task-wise) parameters from the meta-learned initialization
(Algorithm 2, lines 4-5), and a module tree is the checkpoint layout of
phi.  Modules hold parameters; they compute nothing: every stacked
training step is :func:`repro.nn.batching.step_program`, over leaf
arrays stacked out of the layers (:func:`repro.nn.batching.stack_leaves`),
and every prediction :func:`repro.nn.batching.inference_logits`, over
the layers' arrays.
"""

from __future__ import annotations

from collections import OrderedDict

import numpy as np

from . import init

__all__ = ["Parameter", "Module", "Linear", "ReLU", "Sequential", "MLP"]


class Parameter:
    """A trainable float64 array and its gradient.

    ``data`` wraps the given array without copying it when it already
    is float64 (any other dtype is converted), and the optimizers update
    ``data`` in place: hand over a copy of any array that must survive
    training.  ``grad`` is None until a step program sets it.
    """

    __slots__ = ("data", "grad")

    def __init__(self, data):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad = None

    @property
    def shape(self):
        return self.data.shape

    @property
    def size(self):
        return self.data.size

    def zero_grad(self):
        self.grad = None

    def copy_(self, data):
        """In-place overwrite of the parameter value (keeps identity)."""
        array = np.asarray(data)
        if array.shape != self.data.shape:
            raise ValueError("shape mismatch in copy_: {} vs {}".format(
                array.shape, self.data.shape))
        self.data = array.astype(np.float64).copy()
        return self

    # -- state dict protocol (mirrors Module, for standalone parameters) --
    def state_dict(self):
        """Deep copy of the parameter value (checkpointable leaf)."""
        return self.data.copy()

    def load_state_dict(self, state):
        """Inverse of :meth:`state_dict`; in-place, keeps identity."""
        return self.copy_(state)


class Module:
    """Base class for NN building blocks."""

    def __init__(self):
        self._parameters = OrderedDict()
        self._modules = OrderedDict()

    # -- attribute bookkeeping ------------------------------------------
    def __setattr__(self, name, value):
        if isinstance(value, Parameter):
            self.__dict__.setdefault("_parameters", OrderedDict())[name] = value
        elif isinstance(value, Module):
            self.__dict__.setdefault("_modules", OrderedDict())[name] = value
        object.__setattr__(self, name, value)

    # -- parameter access -----------------------------------------------
    def named_parameters(self, prefix=""):
        """Yield ``(dotted_name, Parameter)`` pairs, depth first."""
        for name, param in self._parameters.items():
            yield prefix + name, param
        for name, module in self._modules.items():
            yield from module.named_parameters(prefix + name + ".")

    def parameters(self):
        for _, param in self.named_parameters():
            yield param

    def num_parameters(self):
        """Total number of scalar parameters in the module tree."""
        return sum(p.size for p in self.parameters())

    def zero_grad(self):
        for param in self.parameters():
            param.zero_grad()

    # -- state dict protocol ----------------------------------------------
    def state_dict(self):
        """Deep-copied mapping of parameter names to numpy arrays."""
        return {name: param.data.copy()
                for name, param in self.named_parameters()}

    def load_state_dict(self, state):
        """Overwrite parameters in place from :meth:`state_dict` output."""
        params = dict(self.named_parameters())
        missing = set(params) - set(state)
        unexpected = set(state) - set(params)
        if missing or unexpected:
            raise KeyError("state dict mismatch: missing={} unexpected={}"
                           .format(sorted(missing), sorted(unexpected)))
        for name, array in state.items():
            params[name].copy_(array)

    def clone(self):
        """Structural twin: the same module tree and plain attributes,
        parameter values deep-copied, gradients dropped.

        Unlike constructing the module anew and loading the state dict,
        this draws no random initialization only to overwrite it.  Plain
        attributes are shared by reference; a subclass that keeps a
        mutable one copies it in its own ``clone``.
        """
        twin = object.__new__(type(self))
        twin.__dict__.update(self.__dict__)
        twin._parameters = OrderedDict()
        twin._modules = OrderedDict()
        for name, param in self._parameters.items():
            setattr(twin, name, Parameter(param.data.copy()))
        for name, module in self._modules.items():
            setattr(twin, name, module.clone())
        return twin

    # -- flat parameter vector (used by the UIS-feature memory M_R) -------
    def flat_parameters(self):
        """All parameters concatenated into one 1-D numpy vector."""
        return np.concatenate([p.data.ravel() for p in self.parameters()]) \
            if self._has_params() else np.zeros(0)

    def load_flat_parameters(self, vector):
        """Inverse of :meth:`flat_parameters`."""
        vector = np.asarray(vector, dtype=np.float64)
        offset = 0
        for param in self.parameters():
            size = param.size
            param.copy_(vector[offset:offset + size].reshape(param.data.shape))
            offset += size
        if offset != vector.size:
            raise ValueError("flat vector size mismatch: {} != {}"
                             .format(vector.size, offset))

    def _has_params(self):
        return any(True for _ in self.parameters())


class Linear(Module):
    """Affine map ``y = x W + b`` with Kaiming-uniform initialization."""

    def __init__(self, in_features, out_features, rng=None, bias=True):
        super().__init__()
        rng = rng or np.random.default_rng()
        self.in_features = in_features
        self.out_features = out_features
        self.weight = Parameter(
            init.kaiming_uniform(in_features, out_features, rng))
        self.bias = Parameter(np.zeros(out_features)) if bias else None

    def __repr__(self):
        return "Linear({}, {})".format(self.in_features, self.out_features)


class ReLU(Module):
    """Elementwise rectified linear activation."""

    def __repr__(self):
        return "ReLU()"


class Sequential(Module):
    """Chain of modules applied in order."""

    def __init__(self, *modules):
        super().__init__()
        self._order = []
        for i, module in enumerate(modules):
            name = "m{}".format(i)
            setattr(self, name, module)
            self._order.append(name)

    def __iter__(self):
        return (getattr(self, name) for name in self._order)

    def __repr__(self):
        inner = ", ".join(repr(m) for m in self)
        return "Sequential({})".format(inner)


class MLP(Sequential):
    """Fully connected network with ReLU between hidden layers.

    The paper's embedding and classification blocks are stacks of fully
    connected layers with ReLU activations (Section VIII-A); this helper
    builds them from a list of layer widths.
    """

    def __init__(self, sizes, rng=None, final_activation=None):
        if len(sizes) < 2:
            raise ValueError("MLP needs at least input and output sizes")
        rng = rng or np.random.default_rng()
        modules = []
        for i in range(len(sizes) - 1):
            modules.append(Linear(sizes[i], sizes[i + 1], rng=rng))
            if i < len(sizes) - 2:
                modules.append(ReLU())
        if final_activation is not None:
            modules.append(final_activation)
        super().__init__(*modules)
        self.sizes = tuple(sizes)
