"""Classical machine-learning substrate built from scratch on numpy.

Provides the clustering, density modelling, discretization, and SVM
components the LTE framework and its baselines depend on.
"""

from .decision_tree import DecisionTree, TreeNode
from .gmm import GaussianMixture1D
from .jenks import JenksBreaks, jenks_breaks
from .kmeans import DistanceRows, KMeans, pairwise_distances
from .scaler import MinMaxScaler, normalize_within
from .svm import SVC, linear_kernel, rbf_kernel

__all__ = [
    "DecisionTree", "TreeNode",
    "KMeans", "DistanceRows", "pairwise_distances",
    "GaussianMixture1D",
    "JenksBreaks", "jenks_breaks",
    "SVC", "rbf_kernel", "linear_kernel",
    "MinMaxScaler", "normalize_within",
]
