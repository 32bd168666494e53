"""Window-level contextualization.

A pre-norm transformer stack mixes the N event embeddings of a window with
full bidirectional attention. No positional encoding is added: ordering
information already enters through the temporal attributes inside each event
embedding. Mean pooling yields the sequence-level vector used by the
contrastive objectives and the task heads.
"""

from __future__ import annotations

import numpy as np

from .autodiff import Tensor, tensor_mean
from .nn import (
    ParamGroup,
    feed_forward,
    init_attention,
    init_layer_norm,
    init_linear,
    layer_norm,
    multi_head_attention,
)
from .event_encoder import ModelConfig


def init_context_encoder(config: ModelConfig, rng: np.random.Generator) -> ParamGroup:
    group = ParamGroup("context_encoder")
    d = config.d
    for layer in range(config.layers):
        init_layer_norm(group, f"l{layer}.ln1", d)
        init_attention(group, f"l{layer}.attn", d, rng)
        init_layer_norm(group, f"l{layer}.ln2", d)
        init_linear(group, f"l{layer}.ff.1", d, 4 * d, rng)
        init_linear(group, f"l{layer}.ff.2", 4 * d, d, rng)
    return group


def contextualize(event_embeddings: Tensor, params: ParamGroup,
                  config: ModelConfig) -> Tensor:
    """h_cxt for every event of a (B, N, d) batch: same shape as the input."""
    x = event_embeddings
    for layer in range(config.layers):
        normed = layer_norm(x, params[f"l{layer}.ln1.g"], params[f"l{layer}.ln1.b"])
        x = x + multi_head_attention(normed, config.heads, params.tensors,
                                     prefix=f"l{layer}.attn")
        normed = layer_norm(x, params[f"l{layer}.ln2.g"], params[f"l{layer}.ln2.b"])
        x = x + feed_forward(normed, params.tensors, f"l{layer}.ff")
    return x


def pool_sequence(contextualized: Tensor) -> Tensor:
    """Arithmetic mean over the event axis: (..., N, d) -> (..., d)."""
    return tensor_mean(contextualized, axis=-2)
