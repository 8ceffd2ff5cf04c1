"""repro — Learn to Explore (LTE): a full reproduction of
"Learn to Explore: on Bootstrapping Interactive Data Exploration with
Meta-learning" (Cao, Xie, Huang — ICDE 2023).

Packages
--------
``repro.core``
    The paper's contribution: meta-task generation, the memory-augmented
    meta-learner, tabular preprocessing, the few-shot optimizer and the
    public :class:`~repro.core.LTE` framework.
``repro.nn`` / ``repro.ml`` / ``repro.geometry`` / ``repro.data``
    Substrates built from scratch: autograd NN engine, classical ML
    (k-means, GMM, Jenks, SVM), hull/region geometry, synthetic datasets.
``repro.baselines``
    AL-SVM and DSM explore-by-example baselines.
``repro.explore``
    Oracles, metrics and end-to-end exploration runners.
``repro.bench``
    The harness regenerating every table and figure of the paper.
``repro.serve``
    Batched multi-session serving: many concurrent exploration sessions
    adapted in fused tensor batches over one shared LTE, with
    watermarked incremental store scans.
``repro.persist``
    Versioned checkpoint/restore (npz + JSON manifest with schema
    version and content digest) for pretrained artifacts, resumable
    sessions and warm-started serving snapshots.
``repro.shard``
    Multi-process sharded serving: a gateway routing sessions across a
    pool of worker processes (one warm-started LTE replica each) with
    admission control, crash isolation and rolling model broadcasts.
``repro.store``
    Chunked columnar dataset store: fixed-size row chunks (in memory or
    memory-mapped from disk) with per-chunk zone maps, and a scan
    planner that prunes whole chunks a region predicate provably cannot
    touch — out-of-core pretraining and serving at chunk-bounded memory.
``repro.obs``
    Observability: process-wide metrics registries (counters, gauges,
    deterministically mergeable fixed-bucket histograms), a lightweight
    span tracer, and exporters (JSONL, a summarize CLI).  Always on
    and numerics-neutral; shard workers ship snapshots to the gateway
    for one merged fleet view.
"""

from .core import LTE, LTEConfig

__version__ = "1.0.0"

__all__ = ["LTE", "LTEConfig", "__version__"]
