"""From-scratch neural-network substrate (parameters, layers, the stacked
step program, optimizers).

The paper implements its meta-learner on PyTorch; this package provides
what the reproduction needs of it on plain numpy, with no deep learning
framework dependency and no autograd graph: modules hold parameters
(phi's container and checkpoint layout), every stacked training step is
one array program with an explicit backward (:func:`step_program`) over
K tasks' leaf arrays stacked into parameters (:func:`stack_leaves`), and
every prediction a raw-array kernel
(:func:`repro.nn.batching.inference_logits`).
"""

from . import functional, init
from .alloc import retain_freed_memory
from .batching import fused_local_adapt, stack_leaves, step_program
from .layers import MLP, Linear, Module, Parameter, ReLU, Sequential
from .optim import Adam, Optimizer, SGD

__all__ = [
    "Parameter",
    "Module", "Linear", "ReLU", "Sequential", "MLP",
    "stack_leaves", "fused_local_adapt", "step_program",
    "Optimizer", "SGD", "Adam",
    "functional", "init",
]

retain_freed_memory()
