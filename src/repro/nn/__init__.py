"""From-scratch neural-network substrate (autograd, layers, optimizers).

The paper implements its meta-learner on PyTorch; this package provides the
equivalent functionality on plain numpy so the reproduction has no deep
learning framework dependency.
"""

from . import functional, init
from .alloc import retain_freed_memory
from .batching import (BatchedUISClassifier, fused_local_adapt, grad_stacks,
                       load_flat_stack, stack_conversions, step_program)
from .layers import (MLP, BatchedLinear, Linear, Module, ReLU, Sequential,
                     Sigmoid, batch_modules, unstack_modules)
from .optim import Adam, Optimizer, SGD
from .tensor import Parameter, Tensor, no_grad

__all__ = [
    "Tensor", "Parameter", "no_grad",
    "Module", "Linear", "ReLU", "Sigmoid", "Sequential", "MLP",
    "BatchedLinear", "batch_modules", "unstack_modules",
    "BatchedUISClassifier", "fused_local_adapt", "stack_conversions",
    "load_flat_stack", "grad_stacks", "step_program",
    "Optimizer", "SGD", "Adam",
    "functional", "init",
]

retain_freed_memory()
