"""The spelled-out conversion as the oracle: tile, multiply, concatenate,
then one product with the whole ``M_cp``.

Until the conversion was applied by blocks
(:func:`repro.nn.functional.convert_embeddings`), both classifiers built
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

from repro.nn.tensor import Tensor


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
    emb_r = model.uis_block(v_r.reshape(1, model.ku))        # (1, Ne)
    emb_x = model.tuple_block(x)                             # (n, Ne)
    combined = concat_conversion(emb_r, emb_x, conversion)   # (n, Ne)
    logits = model.clf_block(combined)                       # (n, 1)
    return logits.reshape(-1)


def batched_forward(batched, feature_vectors, tuple_vectors, conversion=None):
    """``BatchedUISClassifier.forward`` as it was (``use_conversion=True``);
    patched over the class, ``fused_local_adapt`` runs the old program."""
    v_r = Tensor._wrap(feature_vectors)
    x = Tensor._wrap(tuple_vectors)
    n = x.shape[1]
    emb_r = batched.uis_block(v_r.reshape(batched.k, 1, batched.ku))
    emb_x = batched.tuple_block(x)                           # (K, n, Ne)
    combined = concat_conversion(emb_r, emb_x, conversion)   # (K, n, Ne)
    logits = batched.clf_block(combined)                     # (K, n, 1)
    return logits.reshape(batched.k, n)
