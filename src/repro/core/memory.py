"""Memory-augmented meta-optimization (paper Section VI-B).

Plain MAML hands every task the *same* initialization; LTE keeps two
memories (inspired by MAMO, KDD'20) so the initialization is *task-wise*:

* the **UIS-feature memory** — a pattern matrix ``M_vR`` (m x ku) holding m
  implicit UIS modes, and a parameter matrix ``M_R`` (m x |theta_R|).
  For a task with feature vector ``v_R``, the attention
  ``a_R = softmax(cos(v_R, M_vR))`` (Eq. 7) retrieves a bias
  ``omega_R = a_R^T M_R`` (Eq. 8) that shifts the UIS-block initialization:
  ``theta_R <- phi_R - sigma * omega_R`` (Eq. 6);
* the **embedding-conversion memory** ``M_CP`` (m x Ne x 3Ne), from which
  ``M_cp = a_R^T M_CP`` (Eq. 10) converts the concatenated embedding before
  classification (Eq. 9).

Both memories are EMA-updated in the global phase (Eqs. 14-16).  The
local phase trains neither theta_R nor M_cp, so ``M_R`` takes theta_R's
query gradient (Eq. 15) and ``M_CP`` the retrieved M_cp moved by one
query-gradient step (Eq. 16).  Toward the retrieved M_cp itself, Eq. 16
would only shrink ``M_CP``: its fixed point is 0 unless ``a_R`` is
one-hot (at the bench's medium scale ``M_CP`` fell to 1 % of its norm,
and Table II's ``Meta`` by 0.05).
"""

from __future__ import annotations

import numpy as np

__all__ = ["MetaMemories", "softmax_cosine_attention"]


def softmax_cosine_attention(vector, matrix):
    """softmax over cosine similarities between ``vector`` and matrix rows."""
    vector = np.asarray(vector, dtype=np.float64).ravel()
    matrix = np.atleast_2d(np.asarray(matrix, dtype=np.float64))
    v_norm = np.linalg.norm(vector) + 1e-12
    m_norm = np.linalg.norm(matrix, axis=1) + 1e-12
    sims = matrix @ vector / (v_norm * m_norm)
    shifted = sims - sims.max()
    exp = np.exp(shifted)
    return exp / exp.sum()


class MetaMemories:
    """The two memories plus their retrieval and EMA update rules.

    Parameters
    ----------
    m:
        Number of implicit UIS modes/patterns.
    ku:
        UIS feature vector length.
    theta_r_size:
        Flattened size of the UIS embedding block parameters.
    embed_size:
        Ne; the conversion matrices are (Ne x 3Ne).
    """

    def __init__(self, m, ku, theta_r_size, embed_size, seed=None):
        if m < 1:
            raise ValueError("m must be >= 1")
        rng = np.random.default_rng(seed)
        self.m = int(m)
        self.ku = int(ku)
        self.theta_r_size = int(theta_r_size)
        self.embed_size = int(embed_size)
        self.M_vR = rng.normal(0.0, 0.1, size=(m, ku))
        self.M_R = rng.normal(0.0, 0.01, size=(m, theta_r_size))
        # Conversion memory: initialize every mode near the "averaging"
        # projection [I | I | I] / 3 so the converted embedding starts as
        # the mean of emb_R, emb_tau and their interaction — a trainable
        # but non-destructive start.  (The classifier input is 3Ne wide;
        # see the implementation note in meta_learner.py.)
        base = np.hstack([np.eye(embed_size)] * 3) / 3.0
        noise = rng.normal(0.0, 0.01, size=(m, embed_size, 3 * embed_size))
        self.M_CP = base[None, :, :] + noise

    # ------------------------------------------------------------------
    # Retrieval
    # ------------------------------------------------------------------
    def attention(self, feature_vector):
        """a_R in R^m (Eq. 7)."""
        return softmax_cosine_attention(feature_vector, self.M_vR)

    def omega_r(self, attention):
        """Task-wise bias for theta_R (Eq. 8)."""
        return np.asarray(attention) @ self.M_R

    def conversion(self, attention):
        """Task-wise conversion matrix M_cp (Eq. 10), shape (Ne, 3Ne)."""
        return np.einsum("m,mij->ij", np.asarray(attention), self.M_CP)

    # ------------------------------------------------------------------
    # Global EMA updates
    # ------------------------------------------------------------------
    def update_feature_patterns(self, attention, feature_vector, eta):
        """Eq. 14: M_vR <- eta * (a_R x v_R^T) + (1 - eta) * M_vR."""
        self._check_rate(eta, "eta")
        outer = np.outer(attention, np.asarray(feature_vector).ravel())
        self.M_vR = eta * outer + (1.0 - eta) * self.M_vR

    def update_parameter_memory(self, attention, theta_r_grad, beta):
        """Eq. 15: attentive EMA of the theta_R gradient into M_R, that of
        the task's query loss at the adapted parameters."""
        self._check_rate(beta, "beta")
        grad = np.asarray(theta_r_grad, dtype=np.float64).ravel()
        if grad.size != self.theta_r_size:
            raise ValueError("theta_R grad size {} != {}".format(
                grad.size, self.theta_r_size))
        outer = np.outer(attention, grad)
        self.M_R = beta * outer + (1.0 - beta) * self.M_R

    def update_conversion_memory(self, attention, conversion_local, gamma):
        """Eq. 16: M_CP <- gamma * (a_R (x) M_cp) + (1 - gamma) * M_CP."""
        self._check_rate(gamma, "gamma")
        local = np.asarray(conversion_local, dtype=np.float64)
        expected = (self.embed_size, 3 * self.embed_size)
        if local.shape != expected:
            raise ValueError("conversion shape {} != {}".format(
                local.shape, expected))
        tensor = np.asarray(attention)[:, None, None] * local[None, :, :]
        self.M_CP = gamma * tensor + (1.0 - gamma) * self.M_CP

    @staticmethod
    def _check_rate(value, name):
        if not 0.0 <= value <= 1.0:
            raise ValueError("{} must be in [0, 1], got {}".format(name, value))

    # ------------------------------------------------------------------
    def state_dict(self):
        return {"M_vR": self.M_vR.copy(), "M_R": self.M_R.copy(),
                "M_CP": self.M_CP.copy()}

    def load_state_dict(self, state):
        self.M_vR = np.asarray(state["M_vR"], dtype=np.float64).copy()
        self.M_R = np.asarray(state["M_R"], dtype=np.float64).copy()
        self.M_CP = np.asarray(state["M_CP"], dtype=np.float64).copy()
