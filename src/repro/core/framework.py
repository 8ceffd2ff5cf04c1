"""The Learn-to-Explore framework: offline training + online exploration.

Public entry point of the library (paper Section III-B, Figure 2)::

    from repro.core import LTE, LTEConfig
    from repro.data import make_sdss

    table = make_sdss()
    lte = LTE(LTEConfig(budget=30, n_tasks=300))
    lte.fit_offline(table)                       # unsupervised pre-training

    session = lte.start_session(variant="meta_star")
    for subspace, tuples in session.initial_tuples().items():
        session.submit_labels(subspace, oracle.label(subspace, tuples))
    interesting = session.predict(table.data)    # UIR membership

Three variants mirror the paper's competitors:

* ``basic`` — the UIS classifier with tabular preprocessing, trained online
  from random initialization;
* ``meta``  — meta-learned initialization + memories, fast adaptation;
* ``meta_star`` — ``meta`` plus the few-shot FP/FN optimizer.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from ..data.sampling import (random_indices, random_sample,
                             stratified_chunk_sample)
from ..data.subspaces import Subspace, random_decomposition
from ..geometry.engine import HullPackCache
from ..ml.kmeans import DistanceRows
from ..ml.scaler import MinMaxScaler
from ..nn.batching import block_leaves
from ..nn.cores import fan_out, one_blas_thread, run_stack, step_macs
from ..obs import default_registry
from .meta_learner import UISClassifier
from .meta_task import (MetaTaskGenerator, cluster_sample_rows,
                        uis_feature_vector)
from .meta_training import (AdaptedClassifier, MetaHyperParams, MetaTrainer,
                            StateMismatchError, adapt_stack, check_count)
from .optimizer import FewShotOptimizer, HullRegistry, caller_spans
from .preprocessing import TabularPreprocessor
from .uis import UISMode

__all__ = ["LTEConfig", "LTE", "ExplorationSession", "SubspaceState",
           "AdaptRequest", "build_adapt_request", "build_readapt_request",
           "run_adapt_requests", "predict_conjunctions",
           "scan_conjunctions", "retrieve_rows", "VARIANTS"]

VARIANTS = ("basic", "meta", "meta_star")


#: One subspace's clustering work, ``n · (ku + ks + kq)`` over the n rows
#: k-means samples, from which the subspaces of a fit or refresh prepare
#: as two halves on two threads: the smallest work of the sweep in
#: ``benchmarks/sweep_fan_out.py`` at which the halves win (README,
#: "Where a fit goes").  Below it a preparation is too short for the
#: second thread to pay for itself: with k-means' compiled loops the
#: halves read even at 343 000 and lose below.  No state depends on it.
_PREPARE_SPLIT_WORK = 650_000

#: A label round continues from the session's adapted classifier for a
#: third of the variant's step count, rounded up (README, "What a label
#: round costs": the rounds row of ``benchmarks/paper.py`` gates F1).
_WARM_STEP_DIVISOR = 3


@dataclass
class LTEConfig:
    """Framework configuration (paper defaults, Section VIII-A)."""

    # clustering / meta-task generation
    ku: int = 100
    kq: int = 200
    delta: int = 5
    budget: int = 30                 # labels per subspace; ks = budget - delta
    task_mode: UISMode = field(default_factory=lambda: UISMode(4, 20))
    n_tasks: int = 200               # |T^M| per meta-subspace (paper: 5000)
    cluster_sample_ratio: float = 0.01
    # preprocessing
    preprocessing_mode: str = "auto"
    n_components: int = 8
    preprocessing_sample_ratio: float = 0.01
    # RBF affinities to the cluster centers, an ablatable extension of
    # Algorithm 3 (preprocessing.CenterAffinityEncoder says why)
    center_affinity: bool = True
    # classifier
    embed_size: int = 100
    hidden_size: int = 64
    # meta training
    meta: MetaHyperParams = field(default_factory=MetaHyperParams)
    use_memories: bool = True
    # online phase (the paper's local step sizes are 5-30)
    online_steps: int = 30
    online_lr: float = 0.01
    basic_steps: int = 100
    basic_lr: float = 0.01
    # few-shot optimizer (Meta*); the paper searches Nsup in 20-40% and
    # Nsub in 5-15% of ku — the conservative end of Nsub works best with
    # normalized subspaces.
    n_sup_ratio: float = 0.3
    n_sub_ratio: float = 0.05
    # decomposition
    subspace_dim: int = 2
    seed: int = 7
    # out-of-core offline fitting (chunk-store tables): size of the
    # normalized per-subspace sample standing in for the full projection
    # (clustering, preprocessing fits, extras, convergence statistics all
    # draw from it) — the knob bounding offline memory by sample size
    # rather than table size.
    store_sample_rows: int = 50_000

    #: The least value of each online step count, checked on every
    #: assignment, at construction and after it.
    _COUNT_FLOORS = {"online_steps": 1, "basic_steps": 0}

    def __setattr__(self, name, value):
        if name in self._COUNT_FLOORS:
            check_count(name, value, self._COUNT_FLOORS[name])
        super().__setattr__(name, value)

    @property
    def ks(self):
        ks = self.budget - self.delta
        if ks < 1:
            raise ValueError("budget must exceed delta")
        return ks


class SubspaceState:
    """Offline artifacts of one meta-subspace.

    The subspace is normalized internally: ``scaler`` maps raw attribute
    values to the unit cube, and ``data``, the cluster summary, meta-tasks
    and every geometric structure live in that normalized space.  Raw
    coordinates appear only at the public API boundary.

    A state's scaler and preprocessor are never mutated once built
    (:meth:`LTE.refresh_subspace` *replaces* the state; a checkpoint
    load swaps only ``trainer``, which no encode reads), so the state
    *object* is the generation: sessions that adapted under the same
    object share its scaled and encoded rows
    (:func:`predict_conjunctions` groups by it).
    """

    def __init__(self, subspace, data, scaler, preprocessor, task_generator,
                 trainer):
        self.subspace = subspace
        self.data = data                       # (n x d) normalized projection
        self.scaler = scaler                   # raw <-> normalized
        self.preprocessor = preprocessor
        self.task_generator = task_generator   # holds the ClusterSummary
        self.trainer = trainer                 # None until meta-trained

    @property
    def summary(self):
        return self.task_generator.summary

    def encode(self, raw_points):
        """Raw subspace tuples -> representation vectors."""
        return self.encode_scaled(self.scaler.transform(raw_points))

    def encode_scaled(self, scaled_points):
        """Normalized subspace tuples -> representation vectors."""
        return self.preprocessor.transform(scaled_points)

    def to_raw(self, scaled_points):
        return self.scaler.inverse_transform(scaled_points)

    def to_scaled(self, raw_points):
        return self.scaler.transform(raw_points)


class LTE:
    """Learn-to-Explore: pre-trains per-meta-subspace meta-learners."""

    def __init__(self, config=None):
        self.config = config or LTEConfig()
        self.table = None
        self.states = {}   # Subspace -> SubspaceState
        self.offline_seconds_ = None

    # ------------------------------------------------------------------
    # Offline phase
    # ------------------------------------------------------------------
    def fit_offline(self, table, subspaces=None, train=True, progress=None,
                    checkpoint=None, stream=None):
        """Run the full offline phase on an exploratory table.

        Parameters
        ----------
        table:
            A :class:`~repro.data.schema.Table`.
        subspaces:
            Optional explicit meta-subspace list; default: random
            decomposition into ``config.subspace_dim``-D groups.
        train:
            When False, stop after preprocessing + meta-task generation
            (used by benches that time the stages separately).
        progress:
            Optional callback ``(subspace, stage)``.  ``stage`` is
            ``"prepared"`` once every subspace's offline artifacts are
            built and installed (one event per subspace, in order),
            ``("pretrain", epoch_index)`` after each of its joint
            pretraining epochs, ``("epoch", epoch_index,
            mean_query_loss)`` after each of its meta-training epochs,
            and ``"trained"`` once its meta-learner is done.
        checkpoint:
            Optional directory for epoch-granular resumable pretraining
            checkpoints: the run saves trainer weights, memories, RNG
            state and per-subspace epoch cursors after every epoch, and
            a later ``fit_offline`` call pointed at the same directory
            (same table, config and decomposition) resumes from the last
            completed epoch — converging to the identical phi bit for
            bit.
        stream:
            ``True`` (or a directory path) spills each subspace's
            encoded meta-task set into an on-disk chunk store and
            trains from it lazily, bounding peak offline memory by the
            chunk size instead of the task count — bit-identical to the
            in-memory path (:mod:`repro.train.stream`).

        All subspaces meta-train pooled in this process — epochs
        interleaved round-robin, shape-compatible meta-tasks from *all*
        subspaces fused into shared stacked programs
        (:mod:`repro.train`), a program worth two threads trained as two
        halves on two cores (:mod:`repro.nn.cores`).  Preparation —
        scaler, encoders, the three k-means rounds — splits the same way
        when a subspace's clustering is worth it
        (:meth:`_prepare_subspaces`); nothing is installed unless every
        subspace prepared.
        """
        from ..train.offline import run_offline_training

        cfg = self.config
        if subspaces is None:
            subspaces = random_decomposition(table, dim=cfg.subspace_dim,
                                             seed=cfg.seed)
        # Materialize: the list is walked twice (prepare, then train).
        subspaces = list(subspaces)
        start = time.perf_counter()
        states = self._prepare_subspaces(table, list(enumerate(subspaces)))
        self.table = table
        self.states.update(zip(subspaces, states))
        if progress is not None:
            for subspace in subspaces:
                progress(subspace, "prepared")
        if train:
            run_offline_training(self, subspaces, progress=progress,
                                 checkpoint=checkpoint, stream=stream)
        self.offline_seconds_ = time.perf_counter() - start
        return self

    def _prepare_subspaces(self, table, targets):
        """The prepared states of ``targets``, ``(index, subspace)``
        pairs, in order — as two contiguous halves on two threads
        (:func:`~repro.nn.cores.fan_out`) when there are two or more and
        one subspace's clustering work reaches
        :data:`_PREPARE_SPLIT_WORK`.  A state depends only on (table,
        config, subspace, index), so the halves return the serial loop's
        states bit for bit; an error is the serial loop's too, the one of
        the lowest failing index (a first-half error wins the join)."""
        def prepare(part):
            return [self._prepare_subspace(table, subspace, index=index)
                    for index, subspace in part]

        if len(targets) < 2 or \
                self._clustering_work(table) < _PREPARE_SPLIT_WORK:
            return prepare(targets)
        middle = (len(targets) + 1) // 2
        return [state for half in fan_out(prepare, targets[:middle],
                                          targets[middle:])
                for state in half]

    def _clustering_work(self, table):
        """``n · (ku + ks + kq)``: one subspace's k-means work, n the rows
        :func:`~repro.core.meta_task.build_cluster_summary` samples from
        the projection :meth:`_prepare_subspace` builds of ``table``."""
        cfg = self.config
        rows = table.n_rows
        if hasattr(table, "iter_chunks"):
            rows = min(rows, cfg.store_sample_rows)
        return cluster_sample_rows(rows, cfg.ku, cfg.ks, cfg.kq,
                                   cfg.cluster_sample_ratio) \
            * (cfg.ku + cfg.ks + cfg.kq)

    def _prepare_subspace(self, table, subspace, index=0):
        cfg = self.config
        start = time.perf_counter()
        if hasattr(table, "iter_chunks"):
            # Chunk-store table: the scaler comes straight off the zone
            # maps (exact global bounds, no data pass) and the subspace
            # working set is a bounded stratified chunk sample instead
            # of the full normalized projection — offline memory scales
            # with store_sample_rows, never with the table.
            lo, hi = table.column_bounds(subspace.columns)
            self._reject_non_finite(
                subspace, table.column_has_nan(subspace.columns)
                | ~np.isfinite(lo) | ~np.isfinite(hi))
            scaler = MinMaxScaler.from_bounds(lo, hi)
            raw = stratified_chunk_sample(
                table, cfg.store_sample_rows, columns=subspace.columns,
                seed=cfg.seed + index)
        else:
            raw = subspace.project(table.data)
            self._reject_non_finite(subspace, ~np.isfinite(raw).all(axis=0))
            scaler = MinMaxScaler().fit(raw)
        data = scaler.transform(raw)
        attributes = [table.attribute(name) for name in subspace.names]
        preprocessor = TabularPreprocessor(
            attributes, mode=cfg.preprocessing_mode,
            n_components=cfg.n_components,
            sample_ratio=cfg.preprocessing_sample_ratio,
            seed=cfg.seed + index).fit(data)
        generator = MetaTaskGenerator(
            data, ku=cfg.ku, ks=cfg.ks, kq=cfg.kq, mode=cfg.task_mode,
            delta=cfg.delta, sample_ratio=cfg.cluster_sample_ratio,
            seed=cfg.seed + 1000 + index)
        if cfg.center_affinity:
            preprocessor.attach_centers(generator.summary.centers_u)
        state = SubspaceState(subspace, data, scaler, preprocessor, generator,
                              None)
        state.quantization_baseline = self._quantization_error(
            state, data, seed=cfg.seed)
        default_registry().histogram("core.offline.prepare.seconds") \
            .observe(time.perf_counter() - start)
        return state

    @staticmethod
    def _reject_non_finite(subspace, bad_columns):
        """Fail before any scaler, encoder or clustering fit sees NaN or
        inf (the store flags them off its zone maps, no data pass)."""
        if bad_columns.any():
            raise ValueError(
                "cannot fit subspace {}: attribute(s) {} contain non-finite "
                "values (NaN or inf); impute or drop them before "
                "fit_offline".format(
                    tuple(subspace.names),
                    [n for n, bad in zip(subspace.names, bad_columns)
                     if bad]))

    @staticmethod
    def _quantization_error(state, scaled_points, sample=500, seed=0):
        """Mean nearest-C_u-center distance of a sample — the clustering
        fit statistic used by drift detection."""
        idx = random_indices(len(scaled_points), sample, seed=seed)
        _, dist = DistanceRows(scaled_points[idx]).nearest(
            state.summary.centers_u)
        return float(dist.mean())

    # ------------------------------------------------------------------
    # Dynamic maintenance (paper Section V-E): when the data distribution
    # of a meta-subspace changes, its sampled cluster summary — and hence
    # its meta-tasks and meta-learner — go stale.
    # ------------------------------------------------------------------
    def drift_scores(self, table, seed=0):
        """Relative clustering-fit degradation per subspace on new data.

        Returns ``{subspace: score}`` where 0 means the existing cluster
        summary quantizes the new data as well as the training data and
        e.g. 0.5 means 50% higher quantization error — a practical trigger
        for :meth:`refresh_subspace`.
        """
        scores = {}
        for subspace, state in self.states.items():
            if hasattr(table, "iter_chunks"):
                raw = stratified_chunk_sample(
                    table, self.config.store_sample_rows,
                    columns=subspace.columns, seed=seed)
            else:
                raw = subspace.project(table.data)
            scaled = state.to_scaled(raw)
            error = self._quantization_error(state, scaled, seed=seed)
            baseline = max(state.quantization_baseline, 1e-12)
            scores[subspace] = error / baseline - 1.0
        return scores

    def refresh_subspace(self, table, subspace, train=True):
        """Rebuild one subspace's summary/preprocessor/meta-learner after
        a distribution change.

        The subspace's entry in :attr:`states` is *replaced*, never
        mutated: sessions opened before the refresh keep the state
        object (scaler, encoder, adapted model) they adapted under and
        serve unchanged predictions, while sessions opened afterwards
        pick up the fresh artifacts — the zero-downtime half of drift
        handling.
        """
        return self._refresh_subspaces(table, [subspace], train=train)[0]

    def _refresh_subspaces(self, table, subspaces, train=True):
        """:meth:`refresh_subspace` for several fitted subspaces at once:
        all of them prepare through :meth:`_prepare_subspaces`, each at
        its index in :attr:`states` (so its seeds are the fit's), and
        replace their states only once every one has prepared; then, with
        ``train``, they meta-train pooled, as a fit's subspaces do
        (:func:`~repro.train.offline.run_offline_training`).  Returns the
        new states."""
        from ..train.offline import run_offline_training

        order = list(self.states)
        states = self._prepare_subspaces(
            table, [(order.index(s), s) for s in subspaces])
        self.states.update(zip(subspaces, states))
        if train:
            run_offline_training(self, subspaces)
        return states

    def freshness_monitor(self, threshold=0.2):
        """A :class:`~repro.store.ingest.FreshnessMonitor` watching every
        fitted subspace's scaler range against the store's zone maps.

        ``monitor.observe(store)`` after appends; subspaces whose
        incoming chunk ranges escape the fitted range past ``threshold``
        (relative to the fitted span) show up in ``monitor.drifted()``
        and should go through :meth:`refresh_subspace` (or
        :meth:`refresh_drifted`, or a sharded gateway's
        ``refresh_model``).
        """
        from ..store.ingest import FreshnessMonitor
        monitor = FreshnessMonitor(threshold=threshold)
        for subspace, state in self.states.items():
            monitor.register(subspace, subspace.columns,
                             state.scaler.min_, state.scaler.max_)
        return monitor

    def refresh_drifted(self, table, monitor, train=True):
        """Refresh every subspace the monitor flags; re-register their
        new scaler ranges so the monitor scores future appends against
        the refreshed fit.  Returns the refreshed subspace list."""
        drifted = monitor.drifted()
        states = self._refresh_subspaces(table, drifted, train=train)
        for subspace, state in zip(drifted, states):
            monitor.register(subspace, subspace.columns,
                             state.scaler.min_, state.scaler.max_)
        return drifted

    def build_trainer(self, state):
        """Fresh (untrained) meta-learner for one prepared subspace —
        the single construction point of the pooled offline engine
        (:func:`~repro.train.offline.run_offline_training`)."""
        cfg = self.config
        return MetaTrainer(
            ku=state.summary.ku, input_width=state.preprocessor.width,
            embed_size=cfg.embed_size, hidden_size=cfg.hidden_size,
            params=cfg.meta, use_memories=cfg.use_memories, seed=cfg.seed)

    def train_subspace(self, subspace):
        """Generate meta-tasks and meta-train the subspace's learner, as
        :meth:`fit_offline` does; returns the installed trainer."""
        from ..train.offline import run_offline_training

        run_offline_training(self, [subspace])
        return self.states[subspace].trainer

    # ------------------------------------------------------------------
    # Online phase
    # ------------------------------------------------------------------
    def start_session(self, variant="meta_star", subspaces=None, seed=None):
        """Open an online exploration session.

        Parameters
        ----------
        variant:
            ``"basic"``, ``"meta"`` or ``"meta_star"``.
        subspaces:
            Restrict the session to these subspaces (default: all trained
            meta-subspaces — the user-interest space equals the full space).
        """
        if variant not in VARIANTS:
            raise ValueError("unknown variant {!r}; options: {}".format(
                variant, VARIANTS))
        if not self.states:
            raise RuntimeError("fit_offline must run before start_session")
        chosen = list(self.states) if subspaces is None else list(subspaces)
        if not chosen:
            raise ValueError(
                "a session needs at least one subspace; an empty subspace "
                "list would make every row trivially 'interesting' "
                "(conjunction over nothing)")
        missing = [s for s in chosen if s not in self.states]
        if missing:
            raise KeyError("no offline state for subspaces: {}".format(missing))
        return ExplorationSession(self, chosen, variant,
                                  seed=self.config.seed if seed is None
                                  else seed)

    def validate_rows(self, rows):
        """Full-space rows to predict as a float64 (n, d) array (one 1-D
        row is a batch of one); a ``ValueError`` unless d is the fitted
        table's attribute count.  Subspaces select columns by position:
        a wider array (say, a leading id column) would silently shift
        every attribute, a narrower one fail deep inside as an
        ``IndexError``."""
        rows = np.atleast_2d(np.asarray(rows, dtype=np.float64))
        width = self.table.n_attributes
        if rows.ndim != 2 or rows.shape[1] != width:
            raise ValueError("rows have {} columns, the fitted table has {}"
                             .format(rows.shape[-1], width))
        return rows


# ----------------------------------------------------------------------
# Adaptation as data: the online few-shot fine-tuning of one (session,
# subspace) pair reduced to a pure value object plus ONE pure executor,
# :func:`run_adapt_requests`.  A lone session hands it a list of one,
# the serving layer (:mod:`repro.serve`) a whole wave: the same stacked
# program at K = 1 or K = many, which is what makes them bit-compatible.
# ----------------------------------------------------------------------
@dataclass
class AdaptRequest:
    """One batchable unit of online adaptation work.

    Produced by :func:`build_adapt_request` (initial labels) or
    :func:`build_readapt_request` (iterative-exploration rounds) and
    executed, alone or fused with other requests, by
    :func:`run_adapt_requests`.  An initial request trains from the
    task-wise initialization for the variant's full step count; a
    re-adaptation continues from ``start``, the session's current
    classifier, for a third of it.
    """

    state: SubspaceState
    variant: str
    config: LTEConfig
    feature: np.ndarray          # v_R (ku,)
    encoded: np.ndarray          # (n, input_width) preprocessed tuples
    targets: np.ndarray          # (n,) float 0/1 labels
    center_bits: np.ndarray = None   # C_s labels; None on re-adaptation
    start: AdaptedClassifier = None  # the classifier a re-adaptation
                                     # continues from; None initially

    @property
    def steps(self):
        steps = self.config.basic_steps if self.variant == "basic" \
            else self.config.online_steps
        return steps if self.start is None \
            else -(-steps // _WARM_STEP_DIVISOR)

    @property
    def lr(self):
        return self.config.basic_lr if self.variant == "basic" \
            else self.config.online_lr

    @property
    def optimizer_kind(self):
        return "adam" if self.variant == "basic" \
            else self.state.trainer.params.local_optimizer

    @property
    def balance_classes(self):
        return self.config.meta.balance_classes if self.variant == "basic" \
            else self.state.trainer.params.balance_classes

    @property
    def use_conversion(self):
        return self.variant != "basic" and self.state.trainer.use_memories

    @property
    def model_config(self):
        """The ``UISClassifier.config`` of the classifier it trains."""
        return {"ku": self.state.summary.ku,
                "input_width": self.state.preprocessor.width,
                "embed_size": self.config.embed_size,
                "hidden_size": self.config.hidden_size,
                "use_conversion": self.use_conversion}

    @property
    def builds_optimizer(self):
        return self.variant == "meta_star" and self.center_bits is not None

    def shape_key(self):
        """Hashable bucket key: requests sharing it can train fused."""
        return (self.variant, self.optimizer_kind, self.balance_classes,
                self.steps, float(self.lr), self.encoded.shape[0],
                *self.model_config.values())


def build_adapt_request(state, variant, config, scaled_points, labels):
    """Initial-labels adaptation request for one (session, subspace).

    ``scaled_points`` are the session's initial tuples in normalized
    coordinates (C_s centers first); ``labels`` the user's 0/1 answers.
    """
    if variant not in VARIANTS:
        raise ValueError("unknown variant {!r}; options: {}".format(
            variant, VARIANTS))
    if variant != "basic" and state.trainer is None:
        raise RuntimeError("subspace {} has no trained meta-learner".format(
            state.subspace))
    labels = np.asarray(labels).ravel().astype(np.int64)
    center_bits = labels[:state.summary.ks]
    feature = uis_feature_vector(center_bits, state.summary)
    return AdaptRequest(
        state=state, variant=variant, config=config, feature=feature,
        encoded=state.encode_scaled(scaled_points),
        targets=labels.astype(np.float64), center_bits=center_bits)


def build_readapt_request(state, variant, config, adapted, encoded, labels):
    """Re-adaptation request from accumulated iterative-exploration labels.

    Continues from ``adapted``, the session's current
    :class:`AdaptedClassifier` (its trained blocks, retrieval and UIS
    feature vector), over every label so far, and does not rebuild the
    few-shot optimizer (matching :meth:`ExplorationSession.add_labels`
    semantics).  ``adapted`` itself is never written: training runs on
    a stacked copy of its blocks.
    """
    if variant != "basic" and state.trainer is None:
        raise RuntimeError("subspace {} has no trained meta-learner".format(
            state.subspace))
    labels = np.asarray(labels).ravel().astype(np.float64)
    return AdaptRequest(
        state=state, variant=variant, config=config,
        feature=adapted.feature_vector,
        encoded=np.atleast_2d(np.asarray(encoded, dtype=np.float64)),
        targets=labels, center_bits=None, start=adapted)


def _local_start(request):
    """What one task's local phase starts from: ``(blocks, retrieval)``
    for :func:`~repro.core.meta_training.adapt_stack`.

    A re-adaptation continues from the blocks of the classifier it
    continues from — Meta and Meta* with its retrieval, by reference.
    Otherwise the task-wise initialization: Basic builds a fresh
    seed-``config.seed`` classifier and retrieves nothing; Meta/Meta*
    start from phi's tuple and classification blocks and the memory
    retrieval (:meth:`~repro.core.meta_training.MetaTrainer.task_retrieval`).
    """
    cfg = request.config
    state = request.state
    start = request.start
    if start is not None:
        return start.blocks, \
            None if request.variant == "basic" else start.retrieval
    if request.variant == "basic":
        model = UISClassifier(
            ku=state.summary.ku, input_width=state.preprocessor.width,
            embed_size=cfg.embed_size, hidden_size=cfg.hidden_size,
            use_conversion=False, seed=cfg.seed)
        return {name: block_leaves(getattr(model, name))
                for name in ("uis_block", "tuple_block", "clf_block")}, None
    return state.trainer.local_start(), \
        state.trainer.task_retrieval(request.feature)[0]


def _adapt_bucket(requests):
    """Fused adaptation of shape-compatible requests (one per task): one
    stack, or two halves on two threads (:func:`repro.nn.cores.run_stack`)
    once the stack is large enough to be worth it, each half preparing
    its own tasks' starts.  Meta and Meta* stack and train the tuple and
    classification blocks only: theta_R and M_cp keep the values the
    memories retrieved (Eqs. 6 and 10), whose constants round 0 computes
    and every warm round reads from the classifier it continues.  Basic,
    which retrieved nothing, trains all of its classifier."""
    first = requests[0]
    keep_retrieved = first.variant != "basic"

    def train(tasks):
        """The adapted classifiers of ``requests[tasks]``."""
        stack = [requests[i] for i in tasks]
        adapted, _ = adapt_stack(
            first.model_config, [_local_start(request) for request in stack],
            np.stack([request.feature for request in stack]),
            np.stack([request.encoded for request in stack]),
            np.stack([request.targets for request in stack]),
            steps=first.steps, lr=first.lr,
            optimizer_kind=first.optimizer_kind,
            balance_classes=first.balance_classes)
        return adapted

    macs = step_macs(first.model_config, len(requests),
                     first.encoded.shape[0], keep_retrieved=keep_retrieved)
    return [adapted for part in run_stack(train, range(len(requests)), macs)
            for adapted in part]


def run_adapt_requests(requests):
    """Execute adaptation requests; the one ``AdaptRequest`` executor.

    Requests are grouped into shape-compatible buckets (same variant,
    label count, representation width, hyper-parameters — sessions and
    subspaces may differ freely inside a bucket) and each bucket trains
    as one fused array program, a bucket of one as a stack of one.
    Few-shot optimizers for initial ``meta_star`` requests are then
    batch-built with shared proximity sorts.

    Returns ``[(AdaptedClassifier, FewShotOptimizer | None), ...]`` in
    input order.  Buckets share nothing, so every request's result is
    bit-identical whatever else is in the list.  All of it runs on one
    BLAS thread (:func:`repro.nn.cores.one_blas_thread`), the task-wise
    initialization included.
    """
    requests = list(requests)
    adapted = [None] * len(requests)
    buckets = {}
    for i, request in enumerate(requests):
        buckets.setdefault(request.shape_key(), []).append(i)
    with one_blas_thread():
        for indices in buckets.values():
            for i, result in zip(indices, _adapt_bucket(
                    [requests[i] for i in indices])):
                adapted[i] = result

        pending = [i for i, request in enumerate(requests)
                   if request.builds_optimizer]
        optimizers = dict(zip(pending, FewShotOptimizer.fit_batch(
            [(requests[i].state.summary, requests[i].center_bits,
              requests[i].config.n_sup_ratio, requests[i].config.n_sub_ratio)
             for i in pending])))
    return [(result, optimizers.get(i)) for i, result in enumerate(adapted)]


# ----------------------------------------------------------------------
# Prediction has the same shape: ONE routine answers a block of rows, a
# lone session hands it a dict of one, the serving layer a whole wave.
# ----------------------------------------------------------------------
def predict_conjunctions(conjunctions, project, n_rows, pack_cache,
                         spans=None):
    """0/1 answers of one block of ``n_rows`` rows for N conjunctions —
    the one place hulls, encoder and classifiers meet.

    ``conjunctions`` maps an id to ``{subspace: _SubspaceSession}`` (all
    adapted); ``project(subspace)`` returns the block's ``(n_rows, d)``
    raw points in that subspace; ``pack_cache`` is the caller's
    :class:`~repro.geometry.engine.HullPackCache`; ``spans``, when the
    rows are stored chunks, their ``(digest, start, stop)`` tiling, for
    the optimizers' decision memos.  Without them a group's caller rows
    are one span keyed by a digest of its projected points
    (:func:`~repro.core.optimizer.caller_spans`), so a block of rows
    asked again — the predictions after a label round — is recalled
    too.  Sessions are grouped
    per (subspace, state *object*) — a refreshed subspace is a new
    object, so each generation scales and encodes with its own
    artifacts — and the block is answered in two passes:

    **(A) Geometry, every subspace.**  Per group, one
    :meth:`FewShotOptimizer.decide_batch` call over all rows, which
    scales them (``to_scaled``, once) only if some chunk is not in
    every member's memo; each
    session's boolean ``alive`` is AND-ed with ``inner | open`` of every
    one of its subspaces, so a row outside one subspace's outer hulls is
    dead before any classifier runs.  So is a row with a NaN or an
    infinite coordinate in any of the session's subspaces: it is in no
    region whatever the variant (stores legitimately hold such rows, and
    the scaler's clip would hand the encoder of a session without hulls
    a finite feature for ``inf``).

    **(B) Classifiers, what is left.**  Per group again, a session's
    rows to score are the open rows still alive (every alive row for a
    session without subregions); the preprocessor encodes the *union*
    of those rows over the group's sessions once — nothing when it is
    empty — each session's classifier scores its own rows out of that
    compact array, and rows answered 0 leave ``alive`` before the next
    subspace's classifiers run.

    Row by row that is ``AND_j (inner_j or (open_j and clf_j))``, the
    answer of "score every row in every subspace, then refine, then
    AND" (``tests/serve/_predict_oracle.py``): a row dead in one
    subspace is 0 whatever the others say.  The contract is on the 0/1
    answers, not on logits — a kernel call over gathered rows may differ
    from a full one in the last place.

    Returns ``(answers, tally)``: ``{id: fresh (n_rows,) int64}`` and a
    dict of row·subspace counts — ``settled`` (answered by the
    subspace's own hulls), ``scored`` (by its classifier), ``skipped``
    (open there, but the conjunction was already 0) — with the
    ``encode_s`` / ``geometry_s`` / ``forward_s`` seconds spent.
    """
    clock = time.perf_counter
    tally = {"settled": 0, "scored": 0, "skipped": 0,
             "encode_s": 0.0, "geometry_s": 0.0, "forward_s": 0.0}
    alive = {key: np.ones(n_rows, dtype=bool) for key in conjunctions}
    groups = {}
    for key, subsessions in conjunctions.items():
        for subspace, subsession in subsessions.items():
            groups.setdefault((subspace, id(subsession.state)), []) \
                .append((key, subsession))

    staged = []
    for (subspace, _), members in groups.items():
        state = members[0][1].state
        optimizers = [subsession.optimizer for _, subsession in members]
        for optimizer in optimizers:
            if optimizer is not None:
                optimizer.check_serves(state)
        start = clock()
        points = project(subspace)
        finite = np.isfinite(points).all(axis=1)
        scaled = []             # filled by the first call of ``scale``

        def scale(state=state, points=points, scaled=scaled):
            if not scaled:
                scaled.append(state.to_scaled(points))
            return scaled[0]

        projected_at = clock()
        decisions = FewShotOptimizer.decide_batch(
            optimizers, scale, pack_cache=pack_cache,
            spans=caller_spans(subspace, points, optimizers)
            if spans is None else spans)
        if not finite.all():
            for key, _ in members:
                alive[key] &= finite
        opens = []
        for (key, _), (inner, open_rows) in zip(members, decisions):
            if open_rows is None:       # no subregion: every row is open
                open_rows = np.arange(n_rows)
            else:
                survives = inner.astype(bool)
                survives[open_rows] = True
                alive[key] &= survives
                tally["settled"] += n_rows - open_rows.size
            opens.append(open_rows)
        tally["encode_s"] += projected_at - start
        tally["geometry_s"] += clock() - projected_at
        staged.append((state, points, scaled, members, opens))

    for state, points, scaled, members, opens in staged:
        start = clock()
        wanted, union = [], np.zeros(n_rows, dtype=bool)
        for (key, _), open_rows in zip(members, opens):
            rows = open_rows[alive[key][open_rows]]
            tally["skipped"] += open_rows.size - rows.size
            tally["scored"] += rows.size
            union[rows] = True
            wanted.append(rows)
        need = np.flatnonzero(union)
        if not need.size:
            continue
        if scaled:
            block = scaled[0] if need.size == n_rows else scaled[0][need]
        else:
            # ``to_scaled`` is row-wise: the rows asked for get the bits
            # a scale of the whole block would give them.
            block = state.to_scaled(
                points if need.size == n_rows else points[need])
        encoded = state.encode_scaled(block)
        position = np.cumsum(union) - 1     # block row -> row of encoded
        encoded_at = clock()
        for (key, subsession), rows in zip(members, wanted):
            if rows.size:
                answers = subsession.adapted.predict(
                    encoded if rows.size == need.size
                    else encoded[position[rows]])
                alive[key][rows[answers == 0]] = False
        tally["encode_s"] += encoded_at - start
        tally["forward_s"] += clock() - encoded_at
    return {key: live.astype(np.int64) for key, live in alive.items()}, tally


#: Most rows of one :func:`predict_conjunctions` call of a store scan (a
#: larger chunk is still one call).  Swept on the benchmark's stores
#: (README, "Where a row·session goes"): below it a classifier sees too
#: few open rows a call, above it a cold scan of a small store is one
#: block and leaves the hull packs' rasters unbuilt.  No answer depends
#: on it.
_SCAN_BLOCK_ROWS = 8192


def scan_conjunctions(sessions, store, pack_cache):
    """0/1 answers of every row of a chunk store for N sessions — the
    one store scan; a lone session hands it a dict of one, the serving
    layer all the sessions of a call.

    ``sessions`` maps an id to an :class:`ExplorationSession` whose
    subspaces are all adapted; ``pack_cache`` is
    :func:`predict_conjunctions`' own.  What a session still **owes** is
    decided chunk by chunk:

    * its watermark for this store (``session._store_marks[store.uid]``,
      which the scan reads and replaces) is trusted while the model
      versions are the ones it was taken under and the store still
      holds the chunk that closed its prefix.  At the same store version
      it *is* the answer; over an appended store its closed prefix —
      immutable chunks — is copied and the chunks after it are owed;
    * less those the zone maps prune (no hull of some subspace reaches
      them, every row is 0: :func:`~repro.store.scan.plan_conjunctions`,
      one plan for every conjunction, over the owed chunks only).

    The owed chunks are evaluated by **runs**: consecutive owed chunks
    (chunks nobody owes in between do not end a run) that the same
    conjunctions owe, up to ``_SCAN_BLOCK_ROWS`` rows — a larger chunk
    is a run of its own, never split.  A run is ONE
    :func:`predict_conjunctions` call over its chunks' concatenated
    subspace columns: the classifiers see blocks of up to 8 192 rows
    however small the storage chunks, and resident memory is bounded by
    ``max(chunk_rows, 8 192)`` rows.

    Every session leaves with a watermark at this store version.
    Returns ``(results, accounting)``: ``{id: (n_rows,) int64}`` and the
    call's counts — of ``sessions`` x
    ``chunks`` = ``chunk_evals_possible`` chunk·sessions,
    ``chunk_evals`` were answered now by a run,
    ``watermark_skipped`` and ``pruned_skipped`` the rest (the three
    also go to the process registry's ``store.scan.chunks.*``);
    ``sessions_served_from_mark``; and ``blocks``, one
    :func:`predict_conjunctions` tally per run plus its ``rows``.
    """
    from ..store.scan import plan_conjunctions

    conjunctions = {key: session._subsessions
                    for key, session in sessions.items()}
    n_chunks, n_rows = store.n_chunks, store.n_rows
    offsets, digests = store.offsets, store.zone_maps.digests
    results, versions, first_owed = {}, {}, {}
    served_from_mark = 0
    for key, subsessions in conjunctions.items():
        versions[key] = tuple(subsession.model_version
                              for subsession in subsessions.values())
        mark = sessions[key]._store_marks.get(store.uid)
        valid = (
            mark is not None and mark["models"] == versions[key]
            and store.store_version >= mark["version"]
            and n_chunks >= mark["closed"]
            and (mark["closed"] == 0
                 or digests[mark["closed"] - 1] == mark["tail_digest"]))
        if valid and store.store_version == mark["version"] \
                and n_rows == mark["n_rows"]:
            results[key] = mark["result"].astype(np.int64)
            first_owed[key] = n_chunks
            served_from_mark += 1
            continue
        results[key] = np.zeros(n_rows, dtype=np.int64)
        first_owed[key] = mark["closed"] if valid else 0
        if valid:
            results[key][:mark["closed_rows"]] = \
                mark["result"][:mark["closed_rows"]]
    first, keep = plan_conjunctions(store, conjunctions, first_owed)
    evals, runs = 0, []             # runs: [chunk indices, ids, rows]
    for ci in range(first, n_chunks):
        owing = [key for key, chunk_keep in keep.items()
                 if ci >= first_owed[key] and chunk_keep[ci - first]]
        evals += len(owing)
        if not owing:
            continue
        rows = int(offsets[ci + 1] - offsets[ci])
        if runs and runs[-1][1] == owing \
                and runs[-1][2] + rows <= _SCAN_BLOCK_ROWS:
            runs[-1][0].append(ci)
            runs[-1][2] += rows
        else:
            runs.append([[ci], owing, rows])

    blocks = []
    for run, keys, rows in runs:
        chunks = [store.chunk(ci) for ci in run]
        # A run may pass over chunks it does not owe: its block rows are
        # its own chunks' rows, back to back.
        bounds = np.cumsum([0] + [len(chunk) for chunk in chunks])
        answers, tally = predict_conjunctions(
            {key: conjunctions[key] for key in keys},
            lambda subspace: np.concatenate(
                [chunk[:, list(subspace.columns)] for chunk in chunks]),
            rows, pack_cache,
            spans=[(digests[ci], int(bounds[i]), int(bounds[i + 1]))
                   for i, ci in enumerate(run)])
        blocks.append(dict(tally, rows=rows))
        at = 0
        for ci in run:
            start, stop = int(offsets[ci]), int(offsets[ci + 1])
            for key in keys:
                results[key][start:stop] = answers[key][at:at + stop - start]
            at += stop - start

    closed = store.closed_chunks
    stamp = {"version": int(store.store_version), "n_rows": int(n_rows),
             "closed": int(closed), "closed_rows": int(offsets[closed]),
             "tail_digest": digests[closed - 1] if closed else None}
    for key, result in results.items():
        sessions[key]._store_marks[store.uid] = dict(
            stamp, models=versions[key], result=result.astype(np.int8))
    possible = len(conjunctions) * n_chunks
    watermarked = sum(first_owed.values())
    pruned = possible - watermarked - evals
    counter = default_registry().counter
    counter("store.scan.chunks.scanned").inc(evals)
    counter("store.scan.chunks.watermark_skipped").inc(watermarked)
    counter("store.scan.chunks.pruned").inc(pruned)
    return results, {
        "sessions": len(conjunctions), "chunks": n_chunks,
        "chunk_evals": evals, "chunk_evals_possible": possible,
        "watermark_skipped": watermarked, "pruned_skipped": pruned,
        "sessions_served_from_mark": served_from_mark, "blocks": blocks}


def _binary_labels(labels):
    """Labels as a flat int64 0/1 vector; a ``ValueError`` names the
    first entry that is anything else (NaN, 2, -1, 0.7, ...) rather than
    letting ``astype(int64)`` coerce it into a training target."""
    raw = np.asarray(labels).ravel()
    try:
        values = raw.astype(np.float64)
    except (TypeError, ValueError):
        raise ValueError("labels must be numeric 0/1 values, got dtype "
                         "{}".format(raw.dtype)) from None
    bad = np.flatnonzero((values != 0) & (values != 1))
    if bad.size:
        raise ValueError("label at position {} is {}; expected 0 or 1"
                         .format(bad[0], raw[bad[0]]))
    return values.astype(np.int64)


class _SubspaceSession:
    """Online state of one subspace inside a session."""

    def __init__(self, state, variant, config, seed):
        self.state = state
        self.variant = variant
        self.config = config
        rng = np.random.default_rng(seed)
        extras = random_sample(state.data, config.delta,
                               seed=int(rng.integers(2 ** 31)))
        centers = state.summary.centers_s
        self._initial_scaled = np.vstack([centers, extras]) if config.delta \
            else centers
        # Raw coordinates at the user-facing boundary.
        self.initial_x = state.to_raw(self._initial_scaled)
        self.labels = None
        self.adapted = None
        self.optimizer = None
        self.adapt_seconds = None
        self.model_version = 0   # bumped on every (re-)adaptation
        self.extra_x = None   # iterative-exploration labels (beyond initial)
        self.extra_y = None

    # ------------------------------------------------------------------
    def validate_initial_labels(self, labels):
        """Check an initial label vector; returns it as int64."""
        labels = _binary_labels(labels)
        if labels.size != len(self.initial_x):
            raise ValueError("expected {} labels, got {}".format(
                len(self.initial_x), labels.size))
        return labels

    def validate_extra_labels(self, tuples, labels):
        """Check an iterative-exploration round; returns (tuples, labels)."""
        tuples = np.atleast_2d(np.asarray(tuples, dtype=np.float64))
        labels = _binary_labels(labels)
        if len(tuples) != len(labels):
            raise ValueError("tuples/labels length mismatch")
        if tuples.shape[1] != self.initial_x.shape[1]:
            raise ValueError("expected {}-D subspace tuples, got {}-D".format(
                self.initial_x.shape[1], tuples.shape[1]))
        bad = np.argwhere(~np.isfinite(tuples))
        if len(bad):
            row, col = (int(i) for i in bad[0])
            raise ValueError("tuple {} has non-finite value {!r} in column "
                             "{}".format(row, float(tuples[row, col]), col))
        return tuples, labels

    def build_initial_request(self, labels):
        """Validate labels and package the adaptation as an AdaptRequest."""
        labels = self.validate_initial_labels(labels)
        return build_adapt_request(self.state, self.variant, self.config,
                                   self._initial_scaled, labels)

    def submit_labels(self, labels):
        request = self.build_initial_request(labels)
        start = time.perf_counter()
        (adapted, optimizer), = run_adapt_requests([request])
        self.install_adaptation(request, adapted, optimizer,
                                time.perf_counter() - start)

    def install_adaptation(self, request, adapted, optimizer, seconds):
        """Install an (externally computed) initial adaptation result.

        The batched serving layer runs many requests fused and installs
        each result here, so the session afterwards is indistinguishable
        from one adapted on its own.
        """
        self.labels = request.targets.astype(np.int64)
        self.adapted = adapted
        if optimizer is not None:
            self.optimizer = optimizer
        self.adapt_seconds = seconds
        self.model_version += 1

    def install_readaptation(self, adapted, extras=None):
        """Install a re-adaptation result (keeps labels and optimizer).

        ``extras`` is the ``(tuples, labels)`` pair returned by
        :meth:`build_readapt_request_for`; it is recorded here — after
        the adaptation succeeded — not at build time.
        """
        if extras is not None:
            tuples, labels = extras
            if self.extra_x is None:
                self.extra_x, self.extra_y = tuples, labels
            else:
                self.extra_x = np.vstack([self.extra_x, tuples])
                self.extra_y = np.concatenate([self.extra_y, labels])
        self.adapted = adapted
        self.model_version += 1

    # ------------------------------------------------------------------
    # Iterative exploration (paper Section III-B, "Other IDE Modules"):
    # additional labelled tuples from further rounds — e.g. picked by
    # active learning — re-adapt the learner over every label so far.
    # A round starts from the session's current adapted classifier, with
    # fresh optimizer moments, and takes a third of the initial
    # adaptation's steps.
    # ------------------------------------------------------------------
    def build_readapt_request_for(self, tuples, labels):
        """Package a re-adaptation over the accumulated + new labels.

        Pure with respect to session state: the new extras are returned
        alongside the request and only recorded by
        :meth:`install_readaptation`, so a failed (or abandoned)
        adaptation leaves the session exactly as it was.
        """
        if self.labels is None:
            raise RuntimeError("submit the initial labels first")
        tuples, labels = self.validate_extra_labels(tuples, labels)
        extra_x = tuples if self.extra_x is None \
            else np.vstack([self.extra_x, tuples])
        extra_y = labels if self.extra_y is None \
            else np.concatenate([self.extra_y, labels])
        all_x = np.vstack([self.initial_x, extra_x])
        all_y = np.concatenate([self.labels, extra_y])
        request = build_readapt_request(
            self.state, self.variant, self.config, self.adapted,
            self.state.encode(all_x), all_y)
        return request, (tuples, labels)

    def add_labels(self, tuples, labels):
        request, extras = self.build_readapt_request_for(tuples, labels)
        (adapted, _), = run_adapt_requests([request])
        self.install_readaptation(adapted, extras)

    # ------------------------------------------------------------------
    # Checkpointing
    # ------------------------------------------------------------------
    def state_dict(self, hull_registry, current):
        """Checkpointable online state of this (session, subspace) pair.

        Everything the online phase accumulated — the drawn initial
        tuples, labels, the adapted classifier, the few-shot optimizer's
        regions, the model version — but none of the offline artifacts
        (those are restored from the LTE system itself).  A restore
        recomputes a Meta / Meta* classifier's retrieval through the
        meta-learner of ``current``, the subspace's state in the LTE
        system now: one that adapted under another (the subspace was
        refreshed or retrained since) is refused here, as its restore
        would be, with :class:`StateMismatchError`.
        """

        def array_or_none(value):
            return None if value is None else np.asarray(value).copy()

        adapted = None if self.adapted is None else self.adapted.state_dict()
        if adapted is not None and self.variant != "basic":
            self.adapted.check_retrieval(_retrieving_trainer(current))
        return {
            "initial_scaled": self._initial_scaled.copy(),
            "labels": array_or_none(self.labels),
            "extra_x": array_or_none(self.extra_x),
            "extra_y": array_or_none(self.extra_y),
            "model_version": int(self.model_version),
            "adapt_seconds": None if self.adapt_seconds is None
            else float(self.adapt_seconds),
            "adapted": adapted,
            "optimizer": None if self.optimizer is None
            else self.optimizer.state_dict(hull_registry),
        }

    @classmethod
    def from_state_dict(cls, state, subspace_state, variant, config,
                        hulls=None):
        """Rebuild the online state captured by :meth:`state_dict`.

        ``subspace_state`` is the live :class:`SubspaceState` from the
        (re-trained or restored) LTE system; ``hulls`` the shared hull
        list when the optimizer state was captured against a
        :class:`~repro.core.optimizer.HullRegistry`.
        """
        session = cls.__new__(cls)
        session.state = subspace_state
        session.variant = variant
        session.config = config
        session._initial_scaled = np.asarray(state["initial_scaled"],
                                             dtype=np.float64)
        session.initial_x = subspace_state.to_raw(session._initial_scaled)
        session.labels = None if state["labels"] is None \
            else np.asarray(state["labels"]).astype(np.int64)
        session.extra_x = None if state["extra_x"] is None \
            else np.asarray(state["extra_x"], dtype=np.float64)
        session.extra_y = None if state["extra_y"] is None \
            else np.asarray(state["extra_y"]).astype(np.int64)
        session.model_version = int(state["model_version"])
        session.adapt_seconds = state["adapt_seconds"]
        session.adapted = None if state["adapted"] is None \
            else AdaptedClassifier.from_state_dict(
                state["adapted"], None if variant == "basic"
                else _retrieving_trainer(subspace_state))
        session.optimizer = None if state["optimizer"] is None \
            else FewShotOptimizer.from_state_dict(
                state["optimizer"], subspace_state.summary, hulls=hulls)
        return session

    def require_adapted(self):
        """Nothing can be predicted before the first labels arrive."""
        if self.adapted is None:
            raise RuntimeError("labels not yet submitted for subspace {}"
                               .format(self.state.subspace))

    def most_uncertain(self, candidates, k=1):
        """Indices of the k candidates nearest the decision boundary."""
        k = _count(k, "k")
        self.require_adapted()
        candidates = self.state.subspace.validate_points(candidates)
        proba = self.adapted.predict_proba(self.state.encode(candidates))
        return np.argsort(np.abs(proba - 0.5))[:k]


def _retrieving_trainer(state):
    """The meta-learner that recomputes a Meta / Meta* classifier's
    retrieval over the subspace ``state``; :class:`StateMismatchError`
    when it has none."""
    if state.trainer is None:
        raise StateMismatchError(
            "subspace {} has no trained meta-learner to recompute the "
            "retrieval of its classifier".format(
                tuple(state.subspace.names)))
    return state.trainer


class ExplorationSession:
    """An online explore-by-example session over trained meta-subspaces."""

    def __init__(self, lte, subspaces, variant, seed=7):
        self.lte = lte
        self.variant = variant
        self._subsessions = {}
        # Freshness watermarks per store uid: the store version this
        # session last answered at plus the answer itself, so the next
        # scan of that store, lone or managed, only evaluates chunks
        # newer than the watermark.  Checkpointed with the session.
        self._store_marks = {}
        self.last_store_scan = None
        self._region_packs = None    # compiled hulls, see _pack_cache
        for i, subspace in enumerate(subspaces):
            self._subsessions[subspace] = _SubspaceSession(
                lte.states[subspace], variant, lte.config, seed=seed + i)

    @property
    def subspaces(self):
        return list(self._subsessions)

    # ------------------------------------------------------------------
    # Checkpointing (resumable sessions)
    # ------------------------------------------------------------------
    def state_dict(self, hull_registry=None):
        """Checkpointable state of the whole session, its store-scan
        watermarks included.

        Subspaces are identified by attribute names (not indices), so the
        state restores against any LTE system trained over the same
        decomposition.  Pass a shared
        :class:`~repro.core.optimizer.HullRegistry` when snapshotting
        many sessions at once (the serving layer does); without one the
        state embeds its own hull table and is self-contained.  A Meta /
        Meta* session whose classifier adapted under a meta-learner the
        system no longer holds for its subspace (it was refreshed or
        retrained since) would not restore, and raises
        :class:`StateMismatchError` here.
        """
        registry = hull_registry if hull_registry is not None \
            else HullRegistry()
        state = {
            "variant": self.variant,
            "subspaces": [list(s.names) for s in self._subsessions],
            "sessions": [ss.state_dict(registry, self.lte.states[subspace])
                         for subspace, ss in self._subsessions.items()],
            "store_marks": {uid: dict(mark, result=mark["result"].copy())
                            for uid, mark in self._store_marks.items()},
        }
        if hull_registry is None:
            state["hulls"] = registry.state()
        return state

    @classmethod
    def from_state_dict(cls, lte, state, hulls=None):
        """Rebuild a session captured by :meth:`state_dict` over ``lte``.

        The LTE system supplies every offline artifact (scalers,
        preprocessors, cluster summaries, meta-learners); the state
        supplies the online remainder.  A subspace in the state with no
        offline counterpart in ``lte`` raises :class:`StateMismatchError`
        (a ``KeyError``).
        """
        if hulls is None and "hulls" in state:
            hulls = HullRegistry.restore(state["hulls"]).hulls
        by_key = {s.key: s for s in lte.states}
        session = cls.__new__(cls)
        session.lte = lte
        session.variant = state["variant"]
        session._subsessions = {}
        session._store_marks = {
            uid: dict(mark, models=tuple(mark["models"]),
                      result=np.asarray(mark["result"]).astype(np.int8))
            for uid, mark in state["store_marks"].items()}
        session.last_store_scan = None
        session._region_packs = None
        for names, sub_state in zip(state["subspaces"], state["sessions"]):
            key = tuple(sorted(names))
            if key not in by_key:
                raise StateMismatchError(
                    "no offline state for subspace {} in the target LTE "
                    "system; the checkpoint belongs to a different "
                    "decomposition".format(tuple(names)))
            subspace = by_key[key]
            session._subsessions[subspace] = _SubspaceSession.from_state_dict(
                sub_state, lte.states[subspace], session.variant, lte.config,
                hulls=hulls)
        return session

    # ------------------------------------------------------------------
    def initial_tuples(self):
        """{subspace: (n x d) raw tuples} the user must label (budget each)."""
        return {s: ss.initial_x for s, ss in self._subsessions.items()}

    def submit_labels(self, subspace, labels):
        """Feed the user's 0/1 labels for one subspace's initial tuples."""
        self._subsessions[subspace].submit_labels(labels)

    @property
    def total_budget(self):
        """Total number of labels the session requests from the user."""
        return sum(len(ss.initial_x) for ss in self._subsessions.values())

    @property
    def adapt_seconds(self):
        """Total online adaptation time across subspaces (None before labels)."""
        times = [ss.adapt_seconds for ss in self._subsessions.values()]
        if any(t is None for t in times):
            return None
        return float(sum(times))

    # ------------------------------------------------------------------
    # Iterative exploration plug-in
    # ------------------------------------------------------------------
    def add_labels(self, subspace, tuples, labels):
        """Feed further labelled tuples (active-learning rounds) and
        re-adapt the subspace's learner."""
        self._subsessions[subspace].add_labels(tuples, labels)

    def most_uncertain(self, subspace, candidates, k=1):
        """Candidate indices the current learner is least certain about —
        the selection rule explore-by-example active learning uses."""
        return self._subsessions[subspace].most_uncertain(candidates, k=k)

    # ------------------------------------------------------------------
    # Convergence indicator (paper Section III-B: "our framework can
    # incorporate additional indicators, like the three-set metric in
    # DSM, for supporting the determination of exploration convergence").
    # ------------------------------------------------------------------
    def convergence_estimate(self, subspace, sample_rows=500, seed=0):
        """Three-set-style resolved fraction for one subspace.

        A sampled point is *resolved* when the geometric side-structures
        settle it — inside the conservative inner-subregion (certainly
        interesting) or outside the generous outer-subregion (certainly
        not) — or, in the band between them, when the classifier is
        confident about it.  The unresolved remainder approximates the
        region boundary still in question; exploration can stop when the
        estimate is high enough.  Requires the ``meta_star`` variant
        (the only one that builds the subregions).
        """
        subsession = self._subsessions[subspace]
        if subsession.optimizer is None:
            raise RuntimeError(
                "convergence_estimate needs the meta_star variant")
        state = subsession.state
        scaled = state.data[random_indices(len(state.data), sample_rows,
                                           seed=seed)]
        optimizer = subsession.optimizer
        # Each subregion's contains runs on its cached compiled pack.
        inner = optimizer.inner_region.contains(scaled) \
            if optimizer.inner_region is not None \
            else np.zeros(len(scaled), dtype=bool)
        outer = optimizer.outer_region.contains(scaled) \
            if optimizer.outer_region is not None \
            else np.ones(len(scaled), dtype=bool)
        # Points in the middle band whose classification is confident
        # (probability far from 0.5) also count as resolved.
        proba = subsession.adapted.predict_proba(state.encode_scaled(scaled))
        confident = np.abs(proba - 0.5) > 0.4
        return float(np.mean(inner | ~outer | confident))

    # ------------------------------------------------------------------
    # Final retrieval (paper Section III-B: "an IDE system returns a
    # sampled (or complete) set of user interest tuples").
    # ------------------------------------------------------------------
    def retrieve(self, rows=None, limit=None):
        """Rows of the explored table predicted interesting.

        Parameters
        ----------
        rows:
            Candidate rows, or a :class:`~repro.store.ChunkStore`;
            default: the full exploratory table (whichever substrate the
            system was fitted on).
        limit:
            Optional cap on the number of returned rows.
        """
        return retrieve_rows(self.lte.table, self.predict, rows, limit)

    # ------------------------------------------------------------------
    def _pack_cache(self):
        """A pack cache of the session's own: one compiled pack per
        subspace, made on the first lone prediction (a managed session
        never needs it) and kept, so a store scan compiles its hulls —
        and builds their rasters — once."""
        if self._region_packs is None:
            self._region_packs = HullPackCache(
                capacity=len(self._subsessions))
        return self._region_packs

    def _answer(self, subsessions, project, n_rows):
        """This session's answer for one block of caller rows: a
        conjunction of one id through :func:`predict_conjunctions`, on
        one BLAS thread (:func:`repro.nn.cores.one_blas_thread`)."""
        with one_blas_thread():
            answers, _ = predict_conjunctions({None: subsessions}, project,
                                              n_rows, self._pack_cache())
        return answers[None]

    def predict_subspace(self, subspace, raw_points):
        """0/1 UIS membership for points given in subspace coordinates
        (a conjunction of one)."""
        subsession = self._subsessions[subspace]
        subsession.require_adapted()
        points = subspace.validate_points(raw_points)
        return self._answer({subspace: subsession}, lambda _: points,
                            len(points))

    def predict(self, rows):
        """0/1 UIR membership for full-space rows (conjunctive combination).

        ``rows`` may also be a :class:`~repro.store.ChunkStore`, in which
        case the evaluation runs chunk-wise with zone-map pruning
        (:meth:`predict_store`) — same bits, bounded memory.
        """
        if hasattr(rows, "iter_chunks"):
            return self.predict_store(rows)
        self._require_predictable()
        rows = self.lte.validate_rows(rows)
        return self._answer(self._subsessions,
                            lambda subspace: subspace.project(rows),
                            len(rows))

    def _require_predictable(self):
        """The conjunction over subspaces is only meaningful when there is
        at least one — with none, every row would come back positive —
        and when each has its labels.  The one answerability check of a
        lone session and of the serving layer's sessions alike."""
        if not self._subsessions:
            raise RuntimeError(
                "session has no subspaces; predictions over an empty "
                "conjunction would mark every row interesting")
        for subsession in self._subsessions.values():
            subsession.require_adapted()

    def predict_store(self, store):
        """0/1 UIR membership over a chunk store — the answers of
        ``predict(store.data)`` at bounded memory:
        :func:`scan_conjunctions` over a dict of one, the call the
        serving layer makes for all its sessions at once.  Chunks the
        few-shot subregions cannot reach are pruned by zone map (Basic /
        Meta sessions evaluate every chunk); the session's watermark
        (per store ``uid``, shared with the serving layer's scans and
        checkpointed; any re-adaptation invalidates it) leaves only the
        chunks past the previously closed prefix of an appended store;
        what is owed is answered in blocks of at most
        ``max(chunk_rows, 8 192)`` rows.  :attr:`last_store_scan`
        reports the accounting of the most recent call: the counts of
        :func:`scan_conjunctions` without ``blocks``, the shape of
        ``SessionManager.last_store_scan``.
        """
        self._require_predictable()
        results, scan = scan_conjunctions({None: self}, store,
                                          self._pack_cache())
        del scan["blocks"]
        self.last_store_scan = scan
        return results[None]


def retrieve_rows(table, predict, rows=None, limit=None):
    """The rows ``predict`` answers 1, at most ``limit`` of them: the
    one body of ``retrieve`` for a lone session and a managed one.

    ``rows`` is an array of full-space rows or a chunk store (default:
    ``table`` itself when it is a store, else its rows); ``predict``
    maps either to a 0/1 vector.  ``limit`` is None or a whole number
    >= 0.
    """
    if limit is not None:
        limit = _count(limit, "limit")
    if rows is None:
        rows = table if hasattr(table, "iter_chunks") else table.data
    store = hasattr(rows, "iter_chunks")
    if not store:
        rows = np.atleast_2d(np.asarray(rows, dtype=np.float64))
    indices = np.flatnonzero(predict(rows) == 1)
    if limit is not None:
        indices = indices[:limit]
    return rows.take(indices) if store else rows[indices]


def _count(value, name):
    """``value`` as an int, or ``ValueError`` unless it is a whole number
    >= 0: a negative or fractional slice bound would drop rows quietly."""
    try:
        count = int(value)
    except (TypeError, ValueError, OverflowError):
        count = None
    if count is None or count != value or count < 0:
        raise ValueError("{} must be a whole number >= 0, got {!r}"
                         .format(name, value))
    return count
