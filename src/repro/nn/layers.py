"""Neural-network modules: Parameter, Linear, ReLU, Sequential, MLP.

A :class:`Module` owns named :class:`Parameter` objects and supports the
state-dict save/load protocol used by the meta-training loop to reset
local (task-wise) parameters from the meta-learned initialization
(Algorithm 2, lines 4-5).  Modules hold parameters; they compute
nothing: every stacked training step is
:func:`repro.nn.batching.step_program` and every prediction
:func:`repro.nn.batching.inference_logits`, both over the layers'
arrays.
"""

from __future__ import annotations

from collections import OrderedDict

import numpy as np

from . import init

__all__ = ["Parameter", "Module", "Linear", "ReLU", "Sequential", "MLP",
           "BatchedLinear", "batch_modules", "unstack_modules"]


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


class BatchedLinear(Module):
    """K independent affine maps fused into one stacked tensor op.

    Holds ``weight`` of shape (K, in, out) and ``bias`` of shape
    (K, 1, out); the step program maps a stacked input (K, n, in) to
    (K, n, out) with a single batched matmul, so K per-task layers train
    as one stacked program.  Slice k computes exactly what the k-th
    source :class:`Linear` would — the serving layer relies on this for
    bit-level parity with sequential adaptation.
    """

    def __init__(self, k, in_features, out_features, rng=None, bias=True):
        super().__init__()
        rng = rng or np.random.default_rng()
        self.k = int(k)
        self.in_features = in_features
        self.out_features = out_features
        self.weight = Parameter(np.stack(
            [init.kaiming_uniform(in_features, out_features, rng)
             for _ in range(self.k)]))
        self.bias = Parameter(np.zeros((self.k, 1, out_features))) \
            if bias else None

    @classmethod
    def from_linears(cls, linears):
        """Stack structurally identical :class:`Linear` layers.

        Built directly from the source parameters (no throwaway random
        initialization) — this runs on the serving hot path for every
        adaptation bucket.
        """
        first = linears[0]
        for lin in linears:
            if (lin.in_features, lin.out_features) != (first.in_features,
                                                       first.out_features):
                raise ValueError("cannot batch Linear layers of mixed shape")
            if (lin.bias is None) != (first.bias is None):
                raise ValueError("cannot batch Linear layers of mixed bias")
        out = cls.__new__(cls)
        Module.__init__(out)
        out.k = len(linears)
        out.in_features = first.in_features
        out.out_features = first.out_features
        out.weight = Parameter(np.stack([lin.weight.data
                                         for lin in linears]))
        out.bias = Parameter(np.stack([lin.bias.data[None, :]
                                       for lin in linears])) \
            if first.bias is not None else None
        return out

    def unstack_into(self, linears):
        """Write the per-slice parameters back into K Linear layers."""
        if len(linears) != self.k:
            raise ValueError("expected {} layers, got {}".format(
                self.k, len(linears)))
        for i, lin in enumerate(linears):
            lin.weight.copy_(self.weight.data[i])
            if lin.bias is not None:
                lin.bias.copy_(self.bias.data[i, 0])

    def __repr__(self):
        return "BatchedLinear(k={}, {}, {})".format(
            self.k, self.in_features, self.out_features)


def batch_modules(modules):
    """Fuse K structurally identical modules into one batched module.

    ``Linear`` layers become a :class:`BatchedLinear`; ``Sequential``
    containers (including :class:`MLP`) are batched child by child;
    a ``ReLU`` passes through; anything else is a ``TypeError``.  The
    result consumes stacked (K, n, features) inputs.
    """
    first = modules[0]
    if isinstance(first, Linear):
        return BatchedLinear.from_linears(modules)
    if isinstance(first, Sequential):
        children = [batch_modules([getattr(m, name) for m in modules])
                    for name in first._order]
        return Sequential(*children)
    if isinstance(first, ReLU):
        return ReLU()
    raise TypeError("cannot batch modules of type {}".format(type(first)))


def unstack_modules(batched, modules):
    """Inverse of :func:`batch_modules`: copy slice k back into module k."""
    if isinstance(batched, BatchedLinear):
        batched.unstack_into(modules)
    elif isinstance(batched, Sequential):
        for b_name, s_name in zip(batched._order, modules[0]._order):
            child = getattr(batched, b_name)
            if isinstance(child, (BatchedLinear, Sequential)):
                unstack_modules(child, [getattr(m, s_name) for m in modules])
    elif not isinstance(batched, ReLU):
        raise TypeError("cannot unstack module of type {}".format(
            type(batched)))


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
