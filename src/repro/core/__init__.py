"""LTE core: the paper's primary contribution.

Meta-task generation (Section V), the UIS classifier and memory-augmented
meta-training (Section VI), tabular preprocessing and the few-shot FP/FN
optimizer (Section VII), and the public offline/online framework
(Section III-B).
"""

from .framework import (LTE, AdaptRequest, ExplorationSession, LTEConfig,
                        SubspaceState, VARIANTS, build_adapt_request,
                        build_readapt_request, run_adapt_requests)
from .memory import MetaMemories, softmax_cosine_attention
from .meta_learner import UISClassifier
from .meta_task import (ClusterSummary, MetaTask, MetaTaskGenerator,
                        build_cluster_summary, expand_bits,
                        uis_feature_vector)
from .meta_training import AdaptedClassifier, MetaHyperParams, MetaTrainer
from .optimizer import FewShotOptimizer, HullRegistry
from .preprocessing import (AttributeEncoder, GMMEncoder, JKCEncoder,
                            MinMaxEncoder, TabularPreprocessor)
from .uis import PAPER_MODES, UISGenerator, UISMode

__all__ = [
    "LTE", "LTEConfig", "ExplorationSession", "SubspaceState", "VARIANTS",
    "AdaptRequest", "build_adapt_request", "build_readapt_request",
    "run_adapt_requests",
    "UISClassifier", "MetaMemories", "softmax_cosine_attention",
    "MetaTask", "MetaTaskGenerator", "ClusterSummary",
    "build_cluster_summary", "uis_feature_vector", "expand_bits",
    "MetaTrainer", "MetaHyperParams", "AdaptedClassifier",
    "FewShotOptimizer", "HullRegistry",
    "TabularPreprocessor", "AttributeEncoder", "GMMEncoder", "JKCEncoder",
    "MinMaxEncoder",
    "UISMode", "UISGenerator", "PAPER_MODES",
]
