"""Decomposition of attribute spaces into low-dimensional subspaces.

Existing IDEs (and LTE) decompose the user-interest space D_u into disjoint
low-dimensional subspaces D_1 x ... x D_n (Section III-A); offline, LTE
splits the full domain space into *meta-subspaces* the same way
(Section V-E: "the domain space is randomly split into meta-subspaces,
because we assume zero knowledge about data semantics and user priors").
"""

from __future__ import annotations

import numpy as np

__all__ = ["Subspace", "random_decomposition", "match_subspaces"]


class Subspace:
    """A named group of attribute columns within a table."""

    __slots__ = ("names", "columns")

    def __init__(self, names, columns):
        if len(names) != len(columns):
            raise ValueError("names/columns length mismatch")
        self.names = tuple(names)
        self.columns = tuple(int(c) for c in columns)

    @property
    def dim(self):
        return len(self.columns)

    @property
    def key(self):
        """Canonical identity: the sorted attribute-name tuple."""
        return tuple(sorted(self.names))

    def project(self, data):
        """Project (n x full_dim) rows onto this subspace's columns."""
        return np.asarray(data)[:, list(self.columns)]

    def validate_points(self, points):
        """Points given in this subspace's coordinates as a float64
        (n, dim) array (one 1-D point is a batch of one); a
        ``ValueError`` on any other width.  Scalers broadcast: a
        one-column array against a 2-D subspace used to come back as
        two equal columns and an answer."""
        points = np.atleast_2d(np.asarray(points, dtype=np.float64))
        if points.ndim != 2 or points.shape[1] != self.dim:
            raise ValueError("points have {} columns, subspace ({}) has {}"
                             .format(points.shape[-1],
                                     ", ".join(self.names), self.dim))
        return points

    def __repr__(self):
        return "Subspace({})".format(",".join(self.names))

    def __eq__(self, other):
        return isinstance(other, Subspace) and other.key == self.key

    def __hash__(self):
        return hash(self.key)


def random_decomposition(table, dim=2, seed=None):
    """Randomly split a table's attributes into disjoint ``dim``-D subspaces.

    A trailing group smaller than ``dim`` is kept as its own subspace, so
    every attribute is covered exactly once.
    """
    if dim < 1:
        raise ValueError("dim must be >= 1")
    rng = np.random.default_rng(seed)
    order = rng.permutation(table.n_attributes)
    subspaces = []
    for start in range(0, len(order), dim):
        cols = order[start:start + dim]
        names = [table.attributes[c].name for c in cols]
        subspaces.append(Subspace(names, cols))
    return subspaces


def match_subspaces(user_subspaces, meta_subspaces):
    """Map online user subspaces to offline meta-subspaces by attribute set.

    Returns ``{user_subspace: meta_subspace_or_None}``; ``None`` marks a
    user subspace with no pre-trained meta-learner (the framework falls
    back to the Basic classifier there, Section V-E).
    """
    by_key = {ms.key: ms for ms in meta_subspaces}
    return {us: by_key.get(us.key) for us in user_subspaces}
