"""Tabular data preprocessing (paper Section VII-A, Algorithm 3).

Plain min-max normalization of low-dimensional numeric tuples starves NN
classifiers trained with few labels (gradient saturation).  LTE instead
builds *multi-modal* attribute features: each attribute value is encoded as

    one_hot(component/interval)  (+)  [position within that component]

where the component structure comes from a Gaussian mixture model (for
unimodal/multimodal "peaky" attributes) or Jenks natural-breaks intervals
(for smooth trend-like attributes).  A tuple's representation vector is the
concatenation of its attribute encodings.

Models are fitted on a bounded random sample of the database (paper limits
the ratio to 1%) so preprocessing scales with constant cost.
"""

from __future__ import annotations

import numpy as np

from ..data.sampling import ratio_sample
from ..ml.gmm import GaussianMixture1D
from ..ml.jenks import JenksBreaks
from ..ml.scaler import normalize_within  # noqa: F401 (re-exported for tests)

__all__ = ["AttributeEncoder", "GMMEncoder", "JKCEncoder", "MinMaxEncoder",
           "CenterAffinityEncoder", "TabularPreprocessor"]


class AttributeEncoder:
    """Interface: encode a 1-D array of attribute values into vectors."""

    #: width of the produced encoding
    width = None

    def fit(self, values):
        raise NotImplementedError

    def transform(self, values):
        """(n,) values -> (n, width) encoding."""
        raise NotImplementedError


class GMMEncoder(AttributeEncoder):
    """One-hot of the max-likelihood GMM component + in-component position.

    The positional part normalizes the value within mean +/- 2 std of its
    component (Algorithm 3 line 4).
    """

    def __init__(self, n_components=8, seed=None):
        self.n_components = n_components
        self.seed = seed
        self.model = None
        self.width = n_components + 1

    def fit(self, values):
        values = np.asarray(values, dtype=np.float64).ravel()
        k = min(self.n_components, max(1, np.unique(values).size))
        self.model = GaussianMixture1D(k, seed=self.seed).fit(values)
        self.width = self.n_components + 1
        return self

    def transform(self, values):
        if self.model is None:
            raise RuntimeError("GMMEncoder used before fit")
        values = np.asarray(values, dtype=np.float64).ravel()
        comp = self.model.predict(values)
        onehot = np.zeros((values.size, self.n_components))
        onehot[np.arange(values.size), comp] = 1.0
        means = self.model.means_[comp]
        stds = self.model.stds_[comp]
        # Per-row normalization interval: mean +/- 2 std of the component.
        lo = means - 2 * stds
        hi = means + 2 * stds
        span = np.where(hi > lo, hi - lo, 1.0)
        norm = np.clip((values - lo) / span, 0.0, 1.0)
        return np.column_stack([onehot, norm])


class JKCEncoder(AttributeEncoder):
    """One-hot of the Jenks interval + min-max position inside it."""

    def __init__(self, n_intervals=8, seed=None):
        self.n_intervals = n_intervals
        self.seed = seed
        self.model = None
        self.width = n_intervals + 1

    def fit(self, values):
        self.model = JenksBreaks(self.n_intervals, seed=self.seed).fit(values)
        self.width = self.n_intervals + 1
        return self

    def transform(self, values):
        if self.model is None:
            raise RuntimeError("JKCEncoder used before fit")
        values = np.asarray(values, dtype=np.float64).ravel()
        idx = self.model.predict(values)
        onehot = np.zeros((values.size, self.n_intervals))
        onehot[np.arange(values.size), np.minimum(idx, self.n_intervals - 1)] = 1.0
        bounds = self.model.bounds_
        lo = bounds[idx]
        hi = bounds[idx + 1]
        span = np.where(hi > lo, hi - lo, 1.0)
        norm = np.clip((values - lo) / span, 0.0, 1.0)
        return np.column_stack([onehot, norm])


class MinMaxEncoder(AttributeEncoder):
    """Plain [0, 1] scaling — the baseline encoding the paper argues against."""

    width = 1

    def __init__(self):
        self.lo = None
        self.hi = None

    def fit(self, values):
        values = np.asarray(values, dtype=np.float64).ravel()
        self.lo = float(values.min())
        self.hi = float(values.max())
        return self

    def transform(self, values):
        if self.lo is None:
            raise RuntimeError("MinMaxEncoder used before fit")
        return normalize_within(np.asarray(values, dtype=np.float64).ravel(),
                                self.lo, self.hi)[:, None]


class CenterAffinityEncoder:
    """RBF affinities of a subspace tuple to the C_u cluster centers.

    The UIS feature vector ``v_R`` is a mask over the C_u centers, so the
    classifier must relate a tuple's *position among those centers* to
    ``v_R``.  This channel makes that relation explicit: feature j is
    ``exp(-||tau - c_j||^2 / (2 sigma^2))`` with sigma set to the median
    nearest-neighbour spacing of the centers.  It is built from the same
    unsupervised clustering step as the rest of the framework (no labels)
    and is an ablatable extension of Algorithm 3.
    """

    def __init__(self, centers):
        self.centers = np.atleast_2d(np.asarray(centers, dtype=np.float64))
        if len(self.centers) < 2:
            raise ValueError("need at least two centers")
        from ..ml.kmeans import pairwise_distances
        dist = pairwise_distances(self.centers, self.centers)
        np.fill_diagonal(dist, np.inf)
        self.sigma = float(np.median(dist.min(axis=1)))
        if self.sigma <= 0:
            self.sigma = 1.0
        self.width = len(self.centers)

    def transform(self, points):
        from ..ml.kmeans import pairwise_distances
        points = np.atleast_2d(np.asarray(points, dtype=np.float64))
        dist = pairwise_distances(points, self.centers)
        return np.exp(-dist ** 2 / (2.0 * self.sigma ** 2))


_MODES = ("auto", "gmm", "jkc", "both", "minmax")


class TabularPreprocessor:
    """Tuple -> representation-vector transformer for one attribute group.

    Parameters
    ----------
    attributes:
        The :class:`~repro.data.schema.Attribute` list of the (sub)space;
        hints steer per-attribute model choice in ``"auto"`` mode.
    mode:
        ``"auto"`` (hint-driven GMM/JKC), ``"gmm"``, ``"jkc"``,
        ``"both"`` (concatenate GMM and JKC encodings — the integrated
        variant of Fig. 8(a)), or ``"minmax"`` (ablation baseline).
    n_components:
        Number of GMM components / JKC intervals per attribute.
    sample_ratio:
        Fraction of rows used to fit the per-attribute models (<= 1%).
    """

    def __init__(self, attributes, mode="auto", n_components=8,
                 sample_ratio=0.01, seed=None):
        if mode not in _MODES:
            raise ValueError("unknown mode {!r}; options: {}".format(
                mode, _MODES))
        self.attributes = list(attributes)
        self.mode = mode
        self.n_components = n_components
        self.sample_ratio = sample_ratio
        self.seed = seed
        self._encoders = None  # list of lists (one or two per attribute)
        self._affinity = None  # optional CenterAffinityEncoder
        self.width = None

    # ------------------------------------------------------------------
    def _make_encoders(self, attribute):
        if self.mode == "minmax":
            return [MinMaxEncoder()]
        if self.mode == "gmm":
            return [GMMEncoder(self.n_components, seed=self.seed)]
        if self.mode == "jkc":
            return [JKCEncoder(self.n_components, seed=self.seed)]
        if self.mode == "both":
            return [GMMEncoder(self.n_components, seed=self.seed),
                    JKCEncoder(self.n_components, seed=self.seed)]
        # auto: hint driven
        if attribute.hint == "interval":
            return [JKCEncoder(self.n_components, seed=self.seed)]
        return [GMMEncoder(self.n_components, seed=self.seed)]

    def fit(self, data):
        """Fit per-attribute models on a bounded sample of ``data``."""
        data = np.atleast_2d(np.asarray(data, dtype=np.float64))
        if data.shape[1] != len(self.attributes):
            raise ValueError("data has {} columns, expected {}".format(
                data.shape[1], len(self.attributes)))
        sample = ratio_sample(data, self.sample_ratio, seed=self.seed) \
            if len(data) > 100 else data
        self._encoders = []
        for j, attribute in enumerate(self.attributes):
            encoders = self._make_encoders(attribute)
            for encoder in encoders:
                encoder.fit(sample[:, j])
            self._encoders.append(encoders)
        self._recompute_width()
        return self

    def attach_centers(self, centers):
        """Enable the center-affinity channel over the C_u cluster centers.

        Called by the framework after the clustering step; widens the
        representation by the number of centers.
        """
        self._affinity = CenterAffinityEncoder(centers)
        if self._encoders is not None:
            self._recompute_width()
        return self

    def _recompute_width(self):
        self.width = sum(e.width for encs in self._encoders for e in encs)
        if self._affinity is not None:
            self.width += self._affinity.width

    def transform(self, data):
        """(n x d) raw tuples -> (n x width) representation vectors."""
        if self._encoders is None:
            raise RuntimeError("TabularPreprocessor used before fit")
        data = np.atleast_2d(np.asarray(data, dtype=np.float64))
        if data.shape[1] != len(self.attributes):
            raise ValueError("data has {} columns, expected {}".format(
                data.shape[1], len(self.attributes)))
        parts = []
        for j, encoders in enumerate(self._encoders):
            for encoder in encoders:
                parts.append(encoder.transform(data[:, j]))
        if self._affinity is not None:
            parts.append(self._affinity.transform(data))
        return np.column_stack(parts)

    def fit_transform(self, data):
        return self.fit(data).transform(data)
