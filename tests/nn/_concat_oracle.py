"""The spelled-out conversion as the oracle: tile, multiply, concatenate,
then one product with the whole ``M_cp``.

Until the conversion was applied by blocks
(``_autograd_oracle.convert_embeddings``), both classifiers built
the 3Ne-wide combined row ``[emb_R, emb_tau, emb_R * emb_tau]`` for every
tuple and pushed it through ``M_cp^T``.  The bodies below are that code,
moved here verbatim when ``src/`` stopped using it (the product
``Tensor.matmul_transposed`` spelled is written out: same bits, and the
weight gradient's layout is no concern of an oracle).  The block form
computes the same sums in another association, so the suite compares it
against these by tolerance and by 0/1 answers.  Nothing in ``src/``
imports this module.
"""

import numpy as np

from _autograd_oracle import Tensor, apply


def concat_conversion(emb_r, emb_tau, conversion):
    """(..., 1, Ne), (..., n, Ne), (..., Ne, 3Ne) -> (..., n, Ne), the way
    both forwards spelled it."""
    n = emb_tau.shape[-2]
    # Differentiable broadcast of emb_R to every row.
    tiler = Tensor(np.ones((n, 1)))
    emb_r_rows = tiler @ emb_r
    interaction = emb_r_rows * emb_tau
    combined = Tensor.concat([emb_r_rows, emb_tau, interaction],
                             axis=-1)                        # (..., n, 3Ne)
    return combined @ Tensor._wrap(conversion).swapaxes(-1, -2)


def forward(model, feature_vector, tuple_vectors, conversion):
    """``UISClassifier.forward`` as it was (``use_conversion=True``)."""
    v_r = Tensor._wrap(feature_vector)
    x = Tensor._wrap(tuple_vectors)
    if x.ndim == 1:
        x = x.reshape(1, -1)
    emb_r = apply(model.uis_block, v_r.reshape(1, model.ku))  # (1, Ne)
    emb_x = apply(model.tuple_block, x)                       # (n, Ne)
    combined = concat_conversion(emb_r, emb_x, conversion)    # (n, Ne)
    logits = apply(model.clf_block, combined)                 # (n, 1)
    return logits.reshape(-1)


def batched_forward(config, stack, feature_vectors, tuple_vectors,
                    conversion=None):
    """``BatchedUISClassifier.forward`` as it was (``use_conversion=True``),
    over a stack; handed to ``_graph_oracle.local_adapt``, the old
    program trains."""
    v_r = Tensor._wrap(feature_vectors)
    x = Tensor._wrap(tuple_vectors)
    k, n = x.shape[:2]
    emb_r = apply(stack["uis_block"], v_r.reshape(k, 1, config["ku"]))
    emb_x = apply(stack["tuple_block"], x)                    # (K, n, Ne)
    combined = concat_conversion(emb_r, emb_x, conversion)    # (K, n, Ne)
    logits = apply(stack["clf_block"], combined)              # (K, n, 1)
    return logits.reshape(k, n)
