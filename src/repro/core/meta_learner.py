"""The basic UIS classifier (paper Section VI-A).

Three building blocks, each a stack of fully connected layers:

* **UIS-feature embedding** ``f_thetaR``: embeds the ku-bit UIS feature
  vector ``v_R`` (which C_u cluster centers the user finds interesting,
  after l-NN expansion) into R^Ne;
* **data-tuple embedding** ``f_thetaTau``: embeds a preprocessed tuple
  representation vector into R^Ne;
* **classification block** ``f_thetaClf``: maps the concatenation
  ``[emb_R, emb_tau]`` to an interestingness logit (Eq. 5) — optionally
  through a task-wise conversion matrix ``M_cp`` retrieved from the
  embedding-conversion memory (Eq. 9).

Implementation note: the concatenation is augmented with the elementwise
interaction ``emb_R * emb_tau`` (so the block input is 3Ne wide and
``M_cp`` is Ne x 3Ne).  Region membership is inherently a *bilinear*
match between where the tuple lies and where ``v_R`` says the interest is;
the explicit product term lets a few meta-gradient steps discover that
alignment, which pure concatenation only reaches after far longer
training.  This is a deviation from the paper's Eq. 5/9 and changes no
other interface.

What is computed: with a conversion matrix the 3Ne-wide row is never
built.  ``emb_R`` is one row per task, so ``M_cp = [M1 | M2 | M3]`` is
applied by blocks — ``emb_tau @ (M2 + M3 * emb_R)^T + emb_R @ M1^T``,
through the same array functions
(:func:`repro.nn.functional.conversion_weight` /
:func:`~repro.nn.functional.conversion_constant`) in the stacked step
program and the inference kernel: a third of the largest product, the
same sums in another association.  Only ``use_conversion=False``
(Basic, and Meta without memories), whose 3Ne input *is* the first
``Linear`` of the classification block, still writes the combined row.

The classifier holds its three blocks' parameters and has one forward,
the inference kernel (:func:`repro.nn.batching.inference_logits`);
training runs the stacked step program over its blocks.
"""

from __future__ import annotations

import numpy as np

from .. import nn
from ..nn.batching import inference_logits, stable_sigmoid

__all__ = ["UISClassifier"]


class UISClassifier(nn.Module):
    """NN classifier deciding tuple membership in a user-interest subregion.

    Parameters
    ----------
    ku:
        Length of the UIS feature vector ``v_R``.
    input_width:
        Width of preprocessed tuple representation vectors ``v_tau``.
    embed_size:
        Ne, the shared embedding width of both blocks.
    hidden_size:
        Hidden width of the classification block.
    use_conversion:
        When True the classifier expects a task-wise (Ne x 3Ne) conversion
        matrix at prediction time (the memory-augmented variants Meta/Meta*);
        when False (Basic) the classification block consumes the raw 3Ne
        concatenation ``[emb_R, emb_tau, emb_R * emb_tau]``.
    """

    def __init__(self, ku, input_width, embed_size=100, hidden_size=64,
                 use_conversion=False, seed=None):
        super().__init__()
        rng = np.random.default_rng(seed)
        self.config = {
            "ku": int(ku),
            "input_width": int(input_width),
            "embed_size": int(embed_size),
            "hidden_size": int(hidden_size),
            "use_conversion": bool(use_conversion),
        }
        self.ku = int(ku)
        self.input_width = int(input_width)
        self.embed_size = int(embed_size)
        self.use_conversion = bool(use_conversion)
        self.uis_block = nn.MLP([ku, embed_size], rng=rng,
                                final_activation=nn.ReLU())
        self.tuple_block = nn.MLP([input_width, embed_size], rng=rng,
                                  final_activation=nn.ReLU())
        clf_in = embed_size if use_conversion else 3 * embed_size
        self.clf_block = nn.MLP([clf_in, hidden_size, 1], rng=rng)

    # ------------------------------------------------------------------
    @classmethod
    def from_config(cls, config, seed=None):
        return cls(seed=seed, **config)

    def clone(self, seed=None):
        """Architecture copy with deep-copied parameters.

        ``seed`` is unused: every parameter of the twin is a copy, so no
        initialization is drawn (this runs per task on the serving path).
        """
        twin = super().clone()
        twin.config = dict(self.config)
        return twin

    # ------------------------------------------------------------------
    # theta_R access (the UIS-feature memory adjusts exactly this block)
    # ------------------------------------------------------------------
    @property
    def theta_r_size(self):
        """Number of scalars in theta_R = parameters of the UIS block."""
        return self.uis_block.num_parameters()

    def get_theta_r_flat(self):
        return self.uis_block.flat_parameters()

    def set_theta_r_flat(self, vector):
        self.uis_block.load_flat_parameters(vector)

    # ------------------------------------------------------------------
    def predict_proba(self, feature_vector, tuple_vectors, conversion=None):
        """Interest probabilities in [0, 1], through the inference
        kernel (:func:`repro.nn.batching.inference_logits`)."""
        return stable_sigmoid(inference_logits(
            self, feature_vector, tuple_vectors, conversion=conversion))

    def predict(self, feature_vector, tuple_vectors, conversion=None,
                threshold=0.5):
        """0/1 interestingness labels."""
        proba = self.predict_proba(feature_vector, tuple_vectors,
                                   conversion=conversion)
        return (proba >= threshold).astype(np.int64)
