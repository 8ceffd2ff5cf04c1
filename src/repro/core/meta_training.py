"""Meta-learning training (paper Section VI-C, Algorithm 2).

The trainer owns the meta-learned initialization phi = {phi_R, phi_tau,
phi_clf} (held in a template :class:`UISClassifier`) and the two
:class:`~repro.core.memory.MetaMemories`.  Each training iteration:

* **local phase** (support set, Eq. 12): a working copy of the classifier
  is initialized task-wise — theta_R = phi_R - sigma * omega_R (Eq. 6),
  theta_tau / theta_clf copied from phi (Eq. 11), M_cp retrieved by
  attention (Eq. 10) — then theta_tau and theta_clf train for a few
  steps while theta_R and M_cp keep their retrieved values;
* **global phase** (query set, Eq. 13): the query loss of the adapted copy
  is backpropagated and its parameter gradients are applied to phi in one
  aggregated step (a first-order / one-step global update, "like [54]"),
  while the memories take their attentive EMA updates (Eqs. 14-16):
  M_R reads theta_R's query gradient, M_CP the retrieved M_cp moved by
  one query-gradient step (:class:`~repro.core.memory.MetaMemories`).

Online adaptation (the underlined steps of Algorithm 2) runs the same
local phase on real user labels (:meth:`MetaTrainer.adapt`,
:meth:`MetaTrainer.evaluate` and the serving path alike).  That theta_R
and M_cp do not train in it is a deviation from Eq. 12, after ANIL's
finding that fast adaptation mostly reuses meta-learned features; phi_R
still learns, through theta_R's query gradient.

**Stacked execution.**  Meta-tasks inside one Eq. 13 batch are mutually
independent, so :meth:`MetaTrainer.train` runs the whole batch's local
phase as ONE stacked array program over ``(K, ...)`` parameter stacks
and computes all K query losses in one fused forward/backward
(:mod:`repro.train.engine`, built on :mod:`repro.nn.batching` — the same
substrate the online serving path uses).  **Eq. 13 semantics are
unchanged**: the fused global phase accumulates the per-task query
gradients in task order and applies one averaged step to phi.  The
memory EMA updates (Eqs. 14-16) are applied *after* the batch's global
phase, in the original task order — i.e. every retrieval inside a batch
reads the memories as they stood at the start of that batch.  The
task-at-a-time spelling of the same semantics is the test oracle
(``tests/train/_sequential_oracle.py``); the stacked executors match it
bit for bit (property-fuzzed in ``tests/train``).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from ..nn.batching import (constant_logits, fused_local_adapt,
                           inference_constants)
from ..nn.tensor import Parameter, stable_sigmoid
from .memory import MetaMemories
from .meta_learner import UISClassifier

__all__ = ["MetaHyperParams", "AdaptedClassifier", "MetaTrainer",
           "check_count"]


def check_count(name, value, least):
    """``value``, or a ``ValueError`` naming ``name`` when it is below
    ``least``."""
    if value < least:
        raise ValueError("{} must be >= {}, got {}".format(
            name, least, value))
    return value


@dataclass
class MetaHyperParams:
    """Hyper-parameters of Algorithm 2 (paper Section VIII-A defaults)."""

    eta: float = 0.01        # M_vR EMA rate (Eq. 14)
    beta: float = 0.01       # M_R EMA rate (Eq. 15)
    gamma: float = 0.01      # M_CP EMA rate (Eq. 16)
    sigma: float = 0.01      # task-wise init shift scale (Eq. 6)
    rho: float = 0.01        # local learning rate (Eq. 12)
    lam: float = 5e-3        # global learning rate (Eq. 13)
    m: int = 4               # number of implicit memory modes
    epochs: int = 2
    local_steps: int = 10
    batch_size: int = 10
    local_optimizer: str = "adam"   # "adam" (practical default) or "sgd"
    #: Eq. 12 prescribes plain gradient descent; with a handful of local
    #: steps on this numpy substrate Adam converges far faster at the same
    #: step count, so it is the default.  ``"sgd"`` restores the literal rule.
    pretrain_epochs: int = 4
    pretrain_lr: float = 0.01
    balance_classes: bool = True
    #: weight positive examples by n_neg/n_pos (capped) in every loss —
    #: interest regions often cover a small fraction of the labelled
    #: tuples, and an unweighted loss collapses to "all negative" at
    #: exploration budgets.
    #: Joint multi-task pretraining of phi (minimize the query loss of the
    #: *unadapted* meta-learner across all meta-tasks) before the MAML
    #: loop.  At the reproduction's task counts this supplies the bulk of
    #: the zero-shot quality that the paper obtains from |TM|=5000 tasks
    #: of pure meta-gradients; set pretrain_epochs=0 for the literal
    #: Algorithm 2.

    #: The least value of each count, checked on every assignment, at
    #: construction and after it: zero epochs skip a phase.
    _COUNT_FLOORS = {"local_steps": 1, "batch_size": 1, "m": 1,
                     "epochs": 0, "pretrain_epochs": 0}

    def __setattr__(self, name, value):
        if name in self._COUNT_FLOORS:
            check_count(name, value, self._COUNT_FLOORS[name])
        super().__setattr__(name, value)

    def __post_init__(self):
        for name in ("eta", "beta", "gamma", "sigma"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError("{} must be in [0,1]".format(name))
        if self.rho <= 0 or self.lam <= 0:
            raise ValueError("learning rates must be positive")
        if self.local_optimizer not in ("adam", "sgd"):
            raise ValueError("local_optimizer must be 'adam' or 'sgd'")


class AdaptedClassifier:
    """A task-adapted classifier: model copy + its conversion matrix + v_R.

    Never changed once built (a label round trains a copy), so its
    :func:`~repro.nn.batching.inference_constants` are computed on the
    first prediction and kept — in no checkpoint, pickle or copy.
    """

    def __init__(self, model, feature_vector, conversion=None):
        self.model = model
        self.feature_vector = np.asarray(feature_vector, dtype=np.float64)
        self.conversion = conversion
        self._constants = None

    def __getstate__(self):
        return dict(self.__dict__, _constants=None)

    def predict_proba(self, tuple_vectors):
        if self._constants is None:
            self._constants = inference_constants(
                self.model, self.feature_vector, None
                if self.conversion is None else self.conversion.data)
        return stable_sigmoid(constant_logits(self._constants,
                                              tuple_vectors))

    def predict(self, tuple_vectors, threshold=0.5):
        return (self.predict_proba(tuple_vectors) >= threshold).astype(np.int64)

    # ------------------------------------------------------------------
    def state_dict(self):
        """Checkpointable state: model config + weights, v_R, M_cp."""
        return {
            "config": dict(self.model.config),
            "model": self.model.state_dict(),
            "feature_vector": self.feature_vector.copy(),
            "conversion": None if self.conversion is None
            else self.conversion.data.copy(),
        }

    @classmethod
    def from_state_dict(cls, state):
        """Rebuild an adapted classifier from :meth:`state_dict` output."""
        model = UISClassifier.from_config(state["config"])
        model.load_state_dict(state["model"])
        conversion = None if state["conversion"] is None \
            else Parameter(np.array(state["conversion"], dtype=np.float64))
        return cls(model, state["feature_vector"], conversion)


class MetaTrainer:
    """Trains and serves the meta-learner of one meta-subspace.

    Parameters
    ----------
    ku:
        UIS feature-vector length (|C_u|).
    input_width:
        Preprocessed tuple representation width.
    params:
        :class:`MetaHyperParams`; defaults follow the paper.
    use_memories:
        Ablation switch; ``False`` degrades to plain first-order MAML with
        a fixed identity-style conversion (still trainable via phi).
    """

    def __init__(self, ku, input_width, embed_size=100, hidden_size=64,
                 params=None, use_memories=True, seed=None):
        self.params = params or MetaHyperParams()
        self.use_memories = bool(use_memories)
        self.seed = seed
        self.model = UISClassifier(
            ku=ku, input_width=input_width, embed_size=embed_size,
            hidden_size=hidden_size, use_conversion=self.use_memories,
            seed=seed)
        self.memories = MetaMemories(
            m=self.params.m, ku=ku, theta_r_size=self.model.theta_r_size,
            embed_size=embed_size, seed=seed) if self.use_memories else None
        self.history = []  # per-epoch mean query loss

    # ------------------------------------------------------------------
    # Local phase (shared by offline training and online adaptation)
    # ------------------------------------------------------------------
    def task_retrieval(self, feature_vector):
        """Task-wise initialization of a working copy (Eqs. 6, 10, 11).

        Returns ``(local_model, conversion_matrix | None,
        attention | None)``: a clone of phi with the memory-retrieved
        theta_R shift applied and the retrieved conversion matrix, read
        from the *current* memory state — the one spelling of the
        task-wise initialization that :meth:`adapt`, the online requests
        and batched evaluation share.
        """
        feature_vector = np.asarray(feature_vector, dtype=np.float64)
        local = self.model.clone(seed=self.seed)
        conversion = None
        attention = None
        if self.use_memories:
            attention = self.memories.attention(feature_vector)
            omega = self.memories.omega_r(attention)
            local.set_theta_r_flat(
                local.get_theta_r_flat() - self.params.sigma * omega)
            conversion = self.memories.conversion(attention)
        return local, conversion, attention

    def adapt(self, feature_vector, support_x, support_y, local_steps=None,
              local_lr=None):
        """Fast-adapt a copy of the meta-learner to one task, online.

        The task-wise initialization (:meth:`task_retrieval`), then
        ``local_steps`` (at least 1) of the stacked local phase at K = 1
        over the tuple and classification blocks: theta_R and M_cp keep
        their retrieved values, as in serving and in the offline inner
        loop (:func:`repro.train.engine.compute_meta_batch`).

        Parameters
        ----------
        feature_vector:
            v_R for the task (length ku).
        support_x:
            (n x input_width) *preprocessed* labelled tuples.
        support_y:
            0/1 labels.

        Returns
        -------
        (AdaptedClassifier, info_dict) where info carries the memory
        attention (None without memories) and the support loss of the
        last step.
        """
        params = self.params
        steps = self._local_steps(local_steps)
        lr = params.rho if local_lr is None else float(local_lr)
        feature_vector = np.asarray(feature_vector, dtype=np.float64)
        support_x = np.atleast_2d(np.asarray(support_x, dtype=np.float64))
        support_y = np.asarray(support_y, dtype=np.float64).ravel()

        local, conversion, attention = self.task_retrieval(feature_vector)
        # The local phase is the stacked program at K = 1.
        batched, conversion, task_losses = fused_local_adapt(
            [local], feature_vector[None], support_x[None], support_y[None],
            conversions=[conversion], steps=steps, lr=lr,
            optimizer_kind=params.local_optimizer,
            balance_classes=params.balance_classes, keep_retrieved=True)
        batched.unstack_into([local])
        if conversion is not None:
            conversion = Parameter(conversion.data[0])

        adapted = AdaptedClassifier(local, feature_vector, conversion)
        info = {"attention": attention,
                "support_loss": float(task_losses[0])}
        return adapted, info

    def _local_steps(self, local_steps):
        """An explicit local step count, or ``params.local_steps``; a
        ``ValueError`` below 1."""
        if local_steps is None:
            return self.params.local_steps
        return check_count("local_steps", int(local_steps), 1)

    # ------------------------------------------------------------------
    # Offline meta-training
    # ------------------------------------------------------------------
    def train(self, tasks, encode):
        """Run Algorithm 2 over a meta-task set, ``params.epochs`` long.

        Parameters
        ----------
        tasks:
            Sequence of :class:`~repro.core.meta_task.MetaTask` of one
            shape (:func:`~repro.train.engine.encode_task_sets` raises
            ``ValueError`` otherwise).
        encode:
            Callable mapping raw tuples (n x d) to representation vectors
            (n x input_width) — the fitted preprocessor's ``transform``.
        """
        from ..train.engine import encode_task_sets
        from ..train.offline import OfflineRun, TrainerSchedule

        # Pre-encode once: representation vectors are training-invariant.
        encoded = encode_task_sets(tasks, encode)
        OfflineRun([TrainerSchedule(self, encoded)]).run()
        return self

    def pretrain_conversion(self):
        """Fixed averaging conversion used throughout joint pretraining.

        The memory variant pretrains phi against ``[I | I | I] / 3`` so
        the pretrained weights are consistent with the conversion
        memory's near-averaging initialization; the memory-less variant
        uses none.
        """
        if not self.use_memories:
            return None
        ne = self.model.embed_size
        return np.hstack([np.eye(ne)] * 3) / 3.0

    # ------------------------------------------------------------------
    # Checkpointing (the "meta-learner artifact": phi + the memories)
    # ------------------------------------------------------------------
    def state_dict(self):
        """Checkpointable state of the trained meta-learner.

        Captures the hyper-parameters, the meta-learned initialization
        phi (model config + weights), the two memories and the training
        history — everything needed to serve online adaptation from a
        fresh process, but none of the offline task data.
        """
        return {
            "params": asdict(self.params),
            "use_memories": self.use_memories,
            "seed": self.seed,
            "config": dict(self.model.config),
            "model": self.model.state_dict(),
            "memories": None if self.memories is None
            else self.memories.state_dict(),
            "history": [float(x) for x in self.history],
        }

    def load_state_dict(self, state):
        """Restore :meth:`state_dict` output into this trainer in place."""
        if bool(state["use_memories"]) != self.use_memories:
            raise ValueError(
                "state has use_memories={} but trainer was built with {}"
                .format(state["use_memories"], self.use_memories))
        self.params = MetaHyperParams(**state["params"])
        self.seed = state["seed"]
        self.model.load_state_dict(state["model"])
        if self.memories is not None:
            self.memories.load_state_dict(state["memories"])
        self.history = [float(x) for x in state["history"]]

    @classmethod
    def from_state_dict(cls, state):
        """Rebuild a trained meta-learner from :meth:`state_dict` output."""
        config = state["config"]
        trainer = cls(ku=config["ku"], input_width=config["input_width"],
                      embed_size=config["embed_size"],
                      hidden_size=config["hidden_size"],
                      params=MetaHyperParams(**state["params"]),
                      use_memories=bool(state["use_memories"]),
                      seed=state["seed"])
        trainer.load_state_dict(state)
        return trainer

    # ------------------------------------------------------------------
    def evaluate(self, tasks, encode, local_steps=None):
        """Mean query-set accuracy after online adaptation (diagnostic,
        theta_R and M_cp fixed as in :meth:`adapt`): every task adapted
        and scored in one stacked program
        (:func:`repro.train.engine.evaluate_batched`)."""
        from ..train.engine import evaluate_batched
        return evaluate_batched(self, tasks, encode,
                                self._local_steps(local_steps))
