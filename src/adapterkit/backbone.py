"""Compact BERT-style transformer encoder with adapter insertion points.

The backbone holds the frozen base weights. Each layer is post-LN: the
sublayer output is added to its residual input and normalized. Each layer
has two insertion points, after the attention sublayer and after the
feed-forward sublayer, where :func:`adapters.through_insertion_point` runs
the sublayer's add-and-norm with the adapter hooks of that point; how a
stack wires in there is the adapters module's business.

A batch is encoded in one pass over packed rows: the sequences' tokens lie
back to back in one ``(total tokens, hidden)`` tensor, so every row-wise
step (projections, biases, layer norms, activations, residual adds and all
adapters) runs on it unchanged and no work is spent on padding. Only
self-attention needs the sequence boundaries, which it takes as lengths.

The encoder returns its final hidden rows; prediction heads own pooling and
any further projection. A caller that reads the pooled rows alone, each
sequence's first position (``AdapterModel.batch_logits``, so every training
step, evaluation and prediction), asks for them: the last layer's keys and
values still cover every row, as the first positions attend to all of their
sequence, but its queries and everything after attention run on one row per
sequence, and those rows are returned.
"""

import itertools
import math
from dataclasses import dataclass, field, fields

import numpy as np

from . import adapters as adp
from . import autodiff as ad
from .adapters import truncated_normal
from .codec import Descriptor
from .errors import ShapeMismatchError


@dataclass(frozen=True)
class ModelConfig(Descriptor):
    """Architecture descriptor; two models are compatible iff all fields match."""

    model_type: str = "mini-bert"
    hidden_size: int = 64
    num_layers: int = 2
    num_heads: int = 4
    ffn_size: int = 256
    vocab_size: int = 128
    max_seq_len: int = 32
    layer_norm_epsilon: float = 1e-12

    def __post_init__(self):
        super().__post_init__()
        for f in fields(self):
            if f.name in ("model_type",):
                continue
            if not 0 < getattr(self, f.name) < math.inf:
                raise ValueError(f"{f.name} must be finite and positive")
        if self.hidden_size % self.num_heads != 0:
            raise ValueError(
                f"hidden_size {self.hidden_size} not divisible by num_heads {self.num_heads}"
            )

    @property
    def head_dim(self):
        return self.hidden_size // self.num_heads


@dataclass
class LayerWeights:
    """Base parameters of one transformer layer."""

    w_q: ad.Tensor
    b_q: ad.Tensor
    w_k: ad.Tensor
    b_k: ad.Tensor
    w_v: ad.Tensor
    b_v: ad.Tensor
    w_o: ad.Tensor
    b_o: ad.Tensor
    attn_ln_gamma: ad.Tensor
    attn_ln_beta: ad.Tensor
    w_ffn_in: ad.Tensor
    b_ffn_in: ad.Tensor
    w_ffn_out: ad.Tensor
    b_ffn_out: ad.Tensor
    ffn_ln_gamma: ad.Tensor
    ffn_ln_beta: ad.Tensor

    def named_tensors(self):
        for f in fields(self):
            yield f.name, getattr(self, f.name)


@dataclass
class BackboneWeights:
    """All base parameters: embeddings plus per-layer blocks."""

    token_embeddings: ad.Tensor
    position_embeddings: ad.Tensor
    emb_ln_gamma: ad.Tensor
    emb_ln_beta: ad.Tensor
    layers: list = field(default_factory=list)

    def named_tensors(self):
        for f in fields(self):
            if f.name != "layers":
                yield f.name, getattr(self, f.name)
        for i, layer in enumerate(self.layers):
            for name, t in layer.named_tensors():
                yield f"layer{i}.{name}", t


def _embedding_layout(config):
    h = config.hidden_size
    return [("token_embeddings", (config.vocab_size, h)),
            ("position_embeddings", (config.max_seq_len, h)),
            ("emb_ln_gamma", (h,)), ("emb_ln_beta", (h,))]


def _layer_layout(config):
    h, f = config.hidden_size, config.ffn_size
    return [("w_q", (h, h)), ("b_q", (h,)), ("w_k", (h, h)), ("b_k", (h,)),
            ("w_v", (h, h)), ("b_v", (h,)), ("w_o", (h, h)), ("b_o", (h,)),
            ("attn_ln_gamma", (h,)), ("attn_ln_beta", (h,)),
            ("w_ffn_in", (h, f)), ("b_ffn_in", (f,)), ("w_ffn_out", (f, h)), ("b_ffn_out", (h,)),
            ("ffn_ln_gamma", (h,)), ("ffn_ln_beta", (h,))]


def backbone_layout(config):
    """Ordered (name, shape) of every base tensor, lazily, as ``named_tensors()`` yields them."""
    yield from _embedding_layout(config)
    layer = _layer_layout(config)
    for i in range(config.num_layers):
        yield from ((f"layer{i}.{name}", shape) for name, shape in layer)


def build_backbone(config, make):
    """Backbone whose tensors are ``make(qualified name, shape)``.

    Every layer is made before the embeddings, which fixes the random draw
    order of :func:`init_backbone`.
    """
    layers = [LayerWeights(**{name: make(f"layer{i}.{name}", shape)
                              for name, shape in _layer_layout(config)})
              for i in range(config.num_layers)]
    embeddings = {name: make(name, shape) for name, shape in _embedding_layout(config)}
    return BackboneWeights(**embeddings, layers=layers)


def init_backbone(config, rng):
    """Deterministic random backbone: truncated-normal weights, zero biases, unit LNs."""
    def init(name, shape):
        if len(shape) == 2:
            return ad.tensor(truncated_normal(rng, shape))
        return ad.tensor(np.ones(shape) if name.endswith("gamma") else np.zeros(shape))

    return build_backbone(config, init)


def count_backbone_params(config):
    """Exact base parameter count: embeddings, projections, biases, layer norms."""
    return sum(int(np.prod(shape)) for _, shape in backbone_layout(config))


@dataclass
class EncodeResult:
    """What :func:`encode` returns: one sequence's final rows and its pooled first position."""

    hidden: ad.Tensor  # seq-by-hidden
    pooled: ad.Tensor  # the first position's hidden-size vector


def _attention_context(config, lw, x, queries, lengths):
    """Multi-head self-attention context of the ``queries`` rows over ``x``, before the output projection."""
    q = ad.linear(queries, lw.w_q, lw.b_q)
    k = ad.linear(x, lw.w_k, lw.b_k)
    v = ad.linear(x, lw.w_v, lw.b_v)
    return ad.attention(q, k, v, lengths, config.num_heads)


def _ffn(config, lw, x):
    """Feed-forward sublayer (pre-residual output); gelu inner activation."""
    inner = ad.gelu(ad.linear(x, lw.w_ffn_in, lw.b_ffn_in))
    return ad.linear(inner, lw.w_ffn_out, lw.b_ffn_out)


def apply_layer(config, lw, x, attention_hooks=(), output_hooks=(), lengths=None, pooled_only=False):
    """One full transformer layer on packed rows; ``lengths`` None means one sequence.

    The keys and values of self-attention are every row of ``x``. So are
    its queries, unless ``pooled_only``: then only each sequence's first row
    queries, and the query projection, the output projection, both
    add-and-norms, the FFN and the adapters run on those rows alone. The
    layer returns one row per query row.
    """
    eps = config.layer_norm_epsilon
    lengths = [x.shape[0]] if lengths is None else lengths
    rows = x
    # with one token per sequence the first rows are all the rows: no gather needed
    if pooled_only and len(lengths) < x.shape[0]:
        rows = ad.embedding_lookup(x, np.cumsum(lengths) - lengths)
    context = _attention_context(config, lw, x, rows, lengths)
    attn_hidden = adp.through_insertion_point(rows, ad.linear(context, lw.w_o, lw.b_o),
                                              lw.attn_ln_gamma, lw.attn_ln_beta, eps, list(attention_hooks))
    return adp.through_insertion_point(attn_hidden, _ffn(config, lw, attn_hidden),
                                       lw.ffn_ln_gamma, lw.ffn_ln_beta, eps, list(output_hooks))


def _packed_ids(config, sequences):
    """Validated token ids of a batch, back to back, and the sequence lengths."""
    try:
        if not len(sequences):
            raise ShapeMismatchError("encode: empty batch")
        lengths = np.array([len(seq) for seq in sequences], dtype=np.intp)
    except TypeError:
        raise ShapeMismatchError("encode: a batch must be a sequence of token id sequences") from None
    if not lengths.all():
        raise ShapeMismatchError("encode: empty token sequence")
    if lengths.max() > config.max_seq_len:
        raise ShapeMismatchError(
            f"encode: sequence length {lengths.max()} exceeds max_seq_len {config.max_seq_len}")
    ids = ad.index_array(list(itertools.chain.from_iterable(sequences)), "encode: token ids")
    out_of_range = (ids < 0) | (ids >= config.vocab_size)
    if out_of_range.any():
        raise ShapeMismatchError(
            f"encode: token id {ids[out_of_range][0]} out of range [0, {config.vocab_size})")
    return ids, lengths


def encode_batch(config, weights, sequences, layer_hooks=None, pooled_only=False):
    """Run the encoder over a batch of token id sequences in one pass.

    ``layer_hooks``, when given, is a list with one entry per layer:
    ``(attention_hooks, output_hooks)`` as consumed by :func:`apply_layer`.
    Returns the last layer's rows as one tensor: the packed final hidden
    rows, total tokens by hidden. With ``pooled_only`` the last layer's
    queries and everything after them cover only each sequence's first
    position (its keys and values still cover every row), and the result is
    those pooled rows, batch by hidden.
    """
    ids, lengths = _packed_ids(config, sequences)
    starts = np.cumsum(lengths) - lengths
    eps = config.layer_norm_epsilon
    tok = ad.embedding_lookup(weights.token_embeddings, ids)
    pos = ad.embedding_lookup(weights.position_embeddings, np.arange(ids.size) - np.repeat(starts, lengths))
    x = ad.add_norm(tok, pos, weights.emb_ln_gamma, weights.emb_ln_beta, eps)

    last = len(weights.layers) - 1
    for i, lw in enumerate(weights.layers):
        attn_hooks, out_hooks = ((), ())
        if layer_hooks is not None:
            attn_hooks, out_hooks = layer_hooks[i]
        x = apply_layer(config, lw, x, attn_hooks, out_hooks, lengths, pooled_only and i == last)
    return x


def encode(config, weights, token_ids, layer_hooks=None):
    """Run the encoder over one token id sequence: :func:`encode_batch` on a batch of one.

    The result's ``pooled`` is the first position's hidden-size vector.
    """
    hidden = encode_batch(config, weights, [token_ids], layer_hooks)
    return EncodeResult(hidden, ad.mean_pool_first(hidden))
