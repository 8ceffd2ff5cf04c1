"""From-scratch neural-network substrate (parameters, layers, the stacked
step program, optimizers).

The paper implements its meta-learner on PyTorch; this package provides
what the reproduction needs of it on plain numpy, with no deep learning
framework dependency and no autograd graph: modules hold parameters,
every stacked training step is one array program with an explicit
backward (:func:`step_program`) and every prediction a raw-array kernel
(:func:`repro.nn.batching.inference_logits`).
"""

from . import functional, init
from .alloc import retain_freed_memory
from .batching import (BatchedUISClassifier, fused_local_adapt, grad_stacks,
                       load_flat_stack, stack_conversions, step_program)
from .layers import (MLP, BatchedLinear, Linear, Module, Parameter, ReLU,
                     Sequential, batch_modules, unstack_modules)
from .optim import Adam, Optimizer, SGD

__all__ = [
    "Parameter",
    "Module", "Linear", "ReLU", "Sequential", "MLP",
    "BatchedLinear", "batch_modules", "unstack_modules",
    "BatchedUISClassifier", "fused_local_adapt", "stack_conversions",
    "load_flat_stack", "grad_stacks", "step_program",
    "Optimizer", "SGD", "Adam",
    "functional", "init",
]

retain_freed_memory()
