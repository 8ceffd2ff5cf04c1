"""Few-shot prediction optimizer (paper Section VII-B).

With only a handful of labels, a classifier makes two systematic error
types, each fixed by a geometric side-structure built from the positively
labelled cluster centers:

* **false positives** — far from every labelled tuple the classifier's
  output is essentially random.  The *outer-subregion* is a generous union
  of convex hulls around each positive anchor (its ``n_sup`` nearest C_u
  centers); predictions outside it are demoted to negative.
* **false negatives** — small spurious "holes" inside the true region.  The
  *inner-subregion* uses a conservative expansion (``n_sub`` << ``n_sup``);
  predictions inside it are promoted to positive.

The optimizer layers strictly on top of a meta-learner's prediction
(Meta* = Meta + optimizer) and cannot be used alone.

**Decision order.**  The paper applies the two fixes *after* the
classifier: demote positives outside the outer subregion, then promote
negatives inside the inner one.  Per row that composition is ``1 if inner
else (0 if not outer else classifier)`` — the promotion runs last, so
``inner`` wins — and the classifier's output survives only on the *open
band* between the two.  So :meth:`FewShotOptimizer.decide_batch` runs
first, for *every* subspace of a session before any classifier: a
user-interest region is the conjunction of its subspaces' UISs, so a
row one subspace's hulls answer 0 is 0 whatever the others say, and
:func:`~repro.core.framework.predict_conjunctions` — the one caller on
the serving path — encodes and scores only the rows that are open in
their own subspace *and* still alive in all the others.  The two
unions of every session are one query
(:meth:`~repro.geometry.engine.PackedHulls.unions`, through
:func:`~repro.geometry.engine.union_masks`): a pack that scans keep
asking answers most rows from its raster and the rest from the exact
facets.  The classifier-first spelling (``refine`` / ``refine_batch``)
is a test oracle now (``tests/serve/_refine_oracle.py``).

**A stored chunk is decided once.**  The hulls are built from the
initial labels; every later label round re-adapts only the classifier
(``install_readaptation`` keeps the optimizer).  So when a store scan
hands :meth:`FewShotOptimizer.decide_batch` the chunk spans of its
block, each optimizer memoizes its ``inner`` / ``open`` masks per chunk
content digest, as packed bits, and the rescan that follows a label
round runs only the classifiers.  Caller rows are recalled the same
way: :func:`~repro.core.framework.predict_conjunctions` hands a block of
them over as one span keyed by a digest of its projected points
(:func:`caller_spans`), so the predictions after a label round over the
rows the last ones asked run only the classifiers too.  The memo
belongs to the optimizer object: new hulls are a new optimizer (or a
:meth:`~FewShotOptimizer.fit`, which starts a fresh memo), an optimizer
serves the one subspace state — scaler — it was fitted over, and the
digest covers the rows.  It is capped at :data:`_MEMO_ROWS` rows and
:data:`_MEMO_ENTRIES` spans, least recently used spans first, and never
checkpointed or pickled.

**An anchor hull is a function of the summary.**  The hull around a
positive C_s center covers that center and its ``n`` nearest C_u
centers — nothing a session brings but *which* centers it labelled
positive.  So :meth:`FewShotOptimizer.fit` reads the sorted P_s rows
and the hull of each ``(anchor, n)`` from its
:class:`~repro.core.meta_task.ClusterSummary`, building a hull only the
first time any session of any flush anchors there: at most 2 ks hulls a
summary, kept for as long as the summary lives (``refresh_subspace``
builds a new one), filled through ``dict.setdefault`` so racing threads
agree on one object.  Sessions therefore share hull *objects* across
flushes, and everything that dedups by identity — ``union_masks``,
:meth:`~FewShotOptimizer.decide_batch`, :class:`HullRegistry` — shares
their packs and checkpoint entries too.  The build-per-call ``fit`` is
the oracle of ``tests/core/_task_oracle.py``.
"""

from __future__ import annotations

import hashlib
import threading
from collections import OrderedDict

import numpy as np

from ..geometry.convex_hull import HalfspaceSystem, Hull
from ..geometry.engine import union_masks
from ..geometry.regions import ScaledRegion, UnionRegion
from ..obs import default_registry
from ..store.scan import region_bounds

__all__ = ["FewShotOptimizer", "HullRegistry", "caller_spans"]

#: Most rows one optimizer's decision memo holds, at two bits a row
#: (256 KiB); past it the least recently used spans go first, and a
#: larger span is never memoized.  No answer depends on it.
_MEMO_ROWS = 1 << 20

#: Most spans one decision memo holds.  An entry costs a few hundred
#: bytes besides its bits (key, tuple, array header, order node), so
#: without this cap a stream of distinct one-row caller blocks would
#: grow a memo to about a million entries under the row cap.  1024
#: spans are the row cap's worth of 1024-row chunks.
_MEMO_ENTRIES = 1 << 10


class HullRegistry:
    """Identity-dedup table of :class:`Hull` objects for checkpointing.

    Optimizers fitted over one cluster summary *share* hull objects
    (its anchor-hull memo), and :meth:`FewShotOptimizer.decide_batch`
    deduplicates membership tests by hull identity.  Serializing each
    optimizer on its own would lose that sharing (and re-inflate both
    disk size and the restored serving cost), so checkpoints route every
    hull through one registry: each distinct hull is stored once and
    every region refers to it by index.  :meth:`restore` rebuilds the
    shared objects, so a restored :class:`~repro.serve.SessionManager`
    keeps the O(anchors) dedup profile of the original.

    The checkpointed form includes each hull's **packed halfspace
    lowering** alongside its point set, so restores rebuild hulls via
    :meth:`~repro.geometry.convex_hull.Hull.from_halfspaces` — no SVD and
    no hull build, and the restored facet rows (hence every membership mask)
    are bit-identical by construction.
    """

    def __init__(self, hulls=None):
        self.hulls = list(hulls or [])
        self._index = {id(h): i for i, h in enumerate(self.hulls)}

    def add(self, hull):
        """Intern ``hull`` and return its registry index."""
        idx = self._index.get(id(hull))
        if idx is None:
            idx = len(self.hulls)
            self._index[id(hull)] = idx
            self.hulls.append(hull)
        return idx

    def state(self):
        """Checkpointable per-hull state, in registry order.

        Each entry carries the point set plus the packed facet form
        (``A``, ``b``, ``tol_scale``, ``tol_fixed``).
        """
        out = []
        for hull in self.hulls:
            system = hull.halfspaces()
            out.append({
                "points": hull.points.copy(),
                "A": system.A.copy(),
                "b": system.b.copy(),
                "tol_scale": system.tol_scale.copy(),
                "tol_fixed": system.tol_fixed.copy(),
            })
        return out

    @classmethod
    def restore(cls, entries):
        """Rebuild the shared hull objects from :meth:`state` output —
        no SVD and no hull build.  An entry without the packed facet arrays
        (the bare point set of a pre-engine checkpoint) is refused."""
        facets = ("A", "b", "tol_scale", "tol_fixed")
        hulls = []
        for i, entry in enumerate(entries):
            missing = [key for key in facets
                       if not isinstance(entry, dict) or key not in entry]
            if missing:
                raise ValueError(
                    "hull entry {} holds no facet arrays {}: a points-only "
                    "hull state is not rebuilt (that would rebuild it); "
                    "save the checkpoint again from a live system"
                    .format(i, ", ".join(missing)))
            hulls.append(Hull.from_halfspaces(
                np.asarray(entry["points"], dtype=np.float64),
                HalfspaceSystem(*(np.asarray(entry[key], dtype=np.float64)
                                  for key in facets))))
        return cls(hulls)


class _DecisionMemo:
    """Chunk content digest -> what one optimizer's hulls settle there.

    Each entry is ``(rows, bits)``: ``bits`` packs the chunk's ``inner``
    and ``open`` masks as a ``(2, ceil(rows / 8))`` uint8 array.  Least
    recently used entries go first once more than :data:`_MEMO_ROWS`
    rows or :data:`_MEMO_ENTRIES` entries are held.  A lock guards the order, so sessions scanned from
    two threads share one memo safely.
    """

    __slots__ = ("_entries", "_rows", "_lock")

    def __init__(self):
        self._entries = OrderedDict()
        self._rows = 0
        self._lock = threading.Lock()

    def recall(self, spans):
        """Each span's entry, or None where the memo holds none."""
        found = []
        with self._lock:
            for digest, _, _ in spans:
                entry = self._entries.get(digest)
                if entry is not None:
                    self._entries.move_to_end(digest)
                found.append(entry)
        return found

    def keep(self, digest, masks):
        """Memoize one chunk's ``(2, rows)`` inner / open masks, dropping
        the oldest past the cap."""
        rows = masks.shape[1]
        if rows > _MEMO_ROWS:
            return
        bits = np.packbits(masks, axis=1)
        with self._lock:
            if digest in self._entries:
                return
            self._entries[digest] = (rows, bits)
            self._rows += rows
            while self._rows > _MEMO_ROWS \
                    or len(self._entries) > _MEMO_ENTRIES:
                _, (dropped, _) = self._entries.popitem(last=False)
                self._rows -= dropped


def caller_spans(subspace, points, optimizers):
    """The ``spans`` of :meth:`FewShotOptimizer.decide_batch` for a block
    of caller rows: one span over all of ``points``, the rows' projection
    on ``subspace``, keyed by a blake2b digest tagged apart from stored
    chunks' and covering the subspace's columns and the points' shape
    and bytes.  None — every row asked, nothing kept — when no optimizer
    has a subregion or the block holds more than :data:`_MEMO_ROWS`
    rows, which is then not digested."""
    n = len(points)
    if n > _MEMO_ROWS or not any(map(_settles, optimizers)):
        return None
    points = np.ascontiguousarray(points, dtype=np.float64)
    h = hashlib.blake2b(digest_size=16, person=b"lte-caller-rows")
    h.update(repr((tuple(subspace.columns), points.shape)).encode())
    h.update(points.tobytes())
    return [(h.hexdigest(), 0, n)]


def _settles(optimizer):
    """Whether the optimizer has a subregion at all (none exists without
    a positive anchor: the classifier then answers every row)."""
    return optimizer is not None and (optimizer.outer_region is not None
                                      or optimizer.inner_region is not None)


class FewShotOptimizer:
    """Builds outer/inner subregions and polishes few-shot predictions.

    Parameters
    ----------
    summary:
        The meta-subspace :class:`~repro.core.meta_task.ClusterSummary`
        (provides C_s, C_u and the proximity matrix P_s).
    n_sup_ratio:
        Outer expansion as a fraction of ku (paper: 20-40%).
    n_sub_ratio:
        Inner (conservative) expansion as a fraction of ku (paper: 5-15%).
    """

    def __init__(self, summary, n_sup_ratio=0.3, n_sub_ratio=0.1):
        if not 0.0 < n_sub_ratio <= n_sup_ratio <= 1.0:
            raise ValueError(
                "need 0 < n_sub_ratio <= n_sup_ratio <= 1, got {} / {}"
                .format(n_sub_ratio, n_sup_ratio))
        self.summary = summary
        self.n_sup = max(2, int(round(n_sup_ratio * summary.ku)))
        self.n_sub = max(2, int(round(n_sub_ratio * summary.ku)))
        self.outer_region = None
        self.inner_region = None
        self._memo, self._boxes = _DecisionMemo(), None

    # The memos are process-local: pickles and copies start without them.
    def __getstate__(self):
        state = self.__dict__.copy()
        del state["_memo"], state["_boxes"]
        return state

    def __setstate__(self, state):
        self.__dict__.update(state)
        self._memo, self._boxes = _DecisionMemo(), None

    def check_serves(self, state):
        """Raise ``RuntimeError`` unless ``state`` is the subspace state
        the optimizer was fitted over: hulls live in that state's scaled
        space, and so does every decision and box it memoizes."""
        if self.summary is not state.summary:
            raise RuntimeError("a few-shot optimizer serves a subspace "
                               "state it was not fitted over")

    def gate_boxes(self, state):
        """Raw-space :func:`~repro.store.scan.region_bounds` ``(lo, hi)``
        of the outer and inner region through ``state``'s scaler, a list
        of one or two, or None without an outer region (whose demotion
        zeroes a pruned chunk) or bounds.  Memoized for the state it
        serves."""
        self.check_serves(state)
        memo = self._boxes
        if memo is None or memo[0] is not state:
            boxes = None
            if self.outer_region is not None:
                boxes = [region_bounds(ScaledRegion(region, state.scaler))
                         for region in (self.outer_region, self.inner_region)
                         if region is not None]
                if None in boxes:
                    boxes = None
            memo = self._boxes = (state, boxes)
        return memo[1]

    # ------------------------------------------------------------------
    def _expanded_region(self, positive_center_indices, n_neighbours):
        """Union of hulls over each anchor's n nearest C_u centers, each
        read from — or built once into — the summary's memo."""
        summary = self.summary
        hulls = []
        for s_idx in positive_center_indices:
            key = (int(s_idx), int(n_neighbours))
            hull = summary.anchor_hulls.get(key)
            if hull is None:
                members = summary.centers_u[
                    summary.neighbours_s[s_idx, :n_neighbours]]
                # Include the anchor itself so the hull always covers it.
                pts = np.vstack([summary.centers_s[s_idx][None, :],
                                 members])
                hull = summary.anchor_hulls.setdefault(key, Hull(pts))
            hulls.append(hull)
        return UnionRegion(hulls) if hulls else None

    def fit(self, support_labels_on_centers):
        """Build both subregions from the C_s center labels.

        Parameters
        ----------
        support_labels_on_centers:
            0/1 labels of the ks initial centers (the user's labelling of
            the initial tuples, restricted to the C_s part).
        """
        labels = np.asarray(support_labels_on_centers).ravel()
        if labels.size != self.summary.ks:
            raise ValueError("expected {} center labels, got {}".format(
                self.summary.ks, labels.size))
        anchors = np.flatnonzero(labels == 1)
        self.outer_region = self._expanded_region(anchors, self.n_sup)
        self.inner_region = self._expanded_region(anchors, self.n_sub)
        # New hulls: nothing is settled, no box is known.
        self._memo, self._boxes = _DecisionMemo(), None
        return self

    @classmethod
    def fit_batch(cls, items):
        """Build many optimizers, in input order.

        Parameters
        ----------
        items:
            Iterable of ``(summary, center_bits, n_sup_ratio, n_sub_ratio)``
            tuples — typically one per concurrent serving session.
            Sessions over one summary share its sorted P_s rows and its
            anchor hulls, whichever call fitted them.
        """
        return [cls(summary, n_sup_ratio=n_sup_ratio,
                    n_sub_ratio=n_sub_ratio).fit(center_bits)
                for summary, center_bits, n_sup_ratio, n_sub_ratio in items]

    # ------------------------------------------------------------------
    # Checkpointing
    # ------------------------------------------------------------------
    def state_dict(self, hull_registry=None):
        """Checkpointable state: expansion sizes + region hull indices.

        Parameters
        ----------
        hull_registry:
            Optional shared :class:`HullRegistry`.  When given, hulls are
            interned there (callers snapshotting many optimizers persist
            the registry once and sharing survives the round trip) and
            the returned state holds only indices; when omitted, a
            private registry is used and its hull points are embedded
            under ``"hulls"`` so the state is self-contained.
        """
        registry = hull_registry if hull_registry is not None \
            else HullRegistry()

        def region_state(region):
            if region is None:
                return None
            return [registry.add(hull) for hull in region.hulls]

        state = {
            "n_sup": int(self.n_sup),
            "n_sub": int(self.n_sub),
            "outer": region_state(self.outer_region),
            "inner": region_state(self.inner_region),
        }
        if hull_registry is None:
            state["hulls"] = registry.state()
        return state

    @classmethod
    def from_state_dict(cls, state, summary, hulls=None):
        """Rebuild a fitted optimizer from :meth:`state_dict` output.

        Parameters
        ----------
        state:
            The captured state.
        summary:
            The subspace's :class:`~repro.core.meta_task.ClusterSummary`
            (geometry is *not* serialized with the optimizer — it belongs
            to the offline artifacts the optimizer was built over).
        hulls:
            The restored shared hull list (``HullRegistry.restore(...)
            .hulls``) when the state was captured against a shared
            registry; ``None`` for self-contained states.
        """
        if hulls is None:
            hulls = HullRegistry.restore(state["hulls"]).hulls
        optimizer = cls.__new__(cls)
        optimizer.summary = summary
        optimizer.n_sup = int(state["n_sup"])
        optimizer.n_sub = int(state["n_sub"])

        def rebuild(indices):
            if indices is None:
                return None
            return UnionRegion([hulls[int(i)] for i in indices])

        optimizer.outer_region = rebuild(state["outer"])
        optimizer.inner_region = rebuild(state["inner"])
        optimizer._memo, optimizer._boxes = _DecisionMemo(), None
        return optimizer

    # ------------------------------------------------------------------
    @staticmethod
    def decide_batch(optimizers, points, pack_cache=None, spans=None):
        """What the hulls settle, for many sessions over one point set —
        the one place the hull decision is computed.

        All (points x hulls x sessions) membership tests run as **one**
        packed-engine call (:func:`~repro.geometry.engine.union_masks`):
        hulls are deduplicated by identity across every optimizer's
        outer and inner regions (optimizers built via :meth:`fit_batch`
        share hull objects) and their pack answers every union in one
        :meth:`~repro.geometry.engine.PackedHulls.unions` query.
        ``pack_cache`` (a :class:`~repro.geometry.engine.HullPackCache`)
        reuses the compiled pack — and the raster a scanned pack holds —
        across calls; the serving layer passes its own.

        ``points`` is the ``(n, d)`` scaled array, or a callable that
        returns it, called only when some row needs the hulls.

        ``spans`` lists the stored chunks the points are, as
        ``(digest, start, stop)`` tiling ``range(n)`` in order.  Each
        optimizer then memoizes its decision per chunk digest: the
        decision is a function of the chunk's rows, of the scaler of
        the one subspace state the optimizer was fitted over and of its
        hulls, and :meth:`fit` starts a fresh memo.  A chunk every
        optimizer holds is answered from the memos; the engine call
        covers only the chunks some optimizer misses, and only the
        optimizers that miss one.  A block of caller rows is one such
        span (:func:`caller_spans`).  ``core.optimizer.memo.hits`` /
        ``.misses`` count span·optimizers.

        Returns one ``(answers, open_rows)`` pair per optimizer:
        ``answers`` is a fresh ``(n,)`` int64 vector, 1 inside the inner
        subregion and 0 elsewhere; ``open_rows`` indexes the rows (inside
        the outer subregion, outside the inner) whose answer is the
        classifier's and still has to be written.  An entry that is None
        or has neither region yields ``(None, None)`` — every row is
        open — and with no region anywhere the engine is not called.
        """
        settling = [optimizer for optimizer in optimizers
                    if _settles(optimizer)]
        if spans is None:
            recalled = [None] * len(settling)
            owed = None             # no memo: every row is asked
        else:
            recalled = [optimizer._memo.recall(spans)
                        for optimizer in settling]
            owed = np.zeros(len(spans), dtype=bool)
            for found in recalled:
                owed |= [entry is None for entry in found]
        asking = [i for i, found in enumerate(recalled)
                  if found is None or None in found]

        computed = {}
        if asking:
            scaled = points() if callable(points) else points
            scaled = np.atleast_2d(np.asarray(scaled, dtype=np.float64))
            if owed is not None and not owed.all():
                scaled = scaled[np.concatenate(
                    [np.arange(start, stop) for (_, start, stop), miss
                     in zip(spans, owed) if miss])]
            masks = iter(union_masks(
                [[] if region is None else region.hulls
                 for i in asking for region in (settling[i].outer_region,
                                                settling[i].inner_region)],
                scaled, pack_cache=pack_cache))
            for i in asking:
                # A missing region's mask is all False: nothing is
                # promoted without an inner region, nothing demoted
                # without an outer.
                outer_mask, inner_mask = next(masks), next(masks)
                open_mask = ~inner_mask
                if settling[i].outer_region is not None:
                    open_mask &= outer_mask
                computed[i] = inner_mask, open_mask

        decided = []
        for i, (optimizer, found) in enumerate(zip(settling, recalled)):
            inner, open_mask = computed[i] if found is None else _assemble(
                spans, found, owed, computed.get(i), optimizer._memo)
            decided.append((inner.astype(np.int64),
                            np.flatnonzero(open_mask)))
        if spans is not None and settling:
            misses = sum(found.count(None) for found in recalled)
            counter = default_registry().counter
            counter("core.optimizer.memo.hits").inc(
                len(spans) * len(settling) - misses)
            counter("core.optimizer.memo.misses").inc(misses)
        decided = iter(decided)
        return [next(decided) if _settles(optimizer) else (None, None)
                for optimizer in optimizers]


def _assemble(spans, found, owed, computed, memo):
    """One optimizer's ``(inner, open)`` masks over a block of chunks:
    from its memo where it holds a chunk, else from ``computed`` — its
    masks over the ``owed`` chunks only, in order — memoizing those."""
    n = spans[-1][2] if spans else 0
    masks = np.empty((2, n), dtype=bool)
    at = 0
    for (digest, start, stop), entry, miss in zip(spans, found, owed):
        if miss:
            piece = slice(at, at + stop - start)
            at = piece.stop
        if entry is not None:
            masks[:, start:stop] = np.unpackbits(
                entry[1], axis=1, count=entry[0]).view(bool)
        else:
            masks[0, start:stop] = computed[0][piece]
            masks[1, start:stop] = computed[1][piece]
            memo.keep(digest, masks[:, start:stop])
    return masks[0], masks[1]
