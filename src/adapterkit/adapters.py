"""Bottleneck adapter configuration space, presets, weights and accounting.

An adapter is a down-projection, a non-linearity, and an up-projection with
a skip connection, inserted at up to two points inside every transformer
layer: after the attention sublayer (``mh_adapter``) and/or after the
feed-forward sublayer (``output_adapter``). The remaining knobs pick which
hook signal feeds the adapter, which signal its skip connection adds back,
and whether fresh LayerNorms wrap the projections.

This module owns what an adapter is and how a stack wires into a sublayer.
:class:`AdapterEntry` holds one adapter's per-layer ``{point: AdapterLayerWeights}``,
which :func:`build_adapter_weights` makes, fresh or loaded, and names
``layer<i>.<point>.<field>``. :func:`layer_hooks` turns an ordered stack into the
encoder's per-layer hooks, and the encoder hands each insertion point's sublayer
output to :func:`through_insertion_point`, which alone reads those knobs.

Freshly initialized adapters are exact identities on their residual path
(the up-projection starts at zero), so stitching one into a model never
changes its output until training happens.
"""

import warnings
from dataclasses import dataclass, fields, replace

import numpy as np

from . import autodiff as ad
from .codec import Descriptor, as_count

ADAPTER_TYPES = ("text_task", "text_lang")
ADAPTER_INPUT_CHOICES = ("sublayer_output", "after_original_ln")
RESIDUAL_SOURCE_CHOICES = ("adapter_input", "pre_sublayer")
NON_LINEARITIES = ("relu", "gelu", "swish", "tanh")
INSERTION_POINTS = ("attention", "output")  # in layer order: after attention, after the FFN


def validate_name(name):
    """Adapter and head names: non-empty, no whitespace or path separators."""
    if not name or not isinstance(name, str):
        raise ValueError("adapter name must be a non-empty string")
    if any(c.isspace() for c in name) or "/" in name or "\\" in name:
        raise ValueError(f"adapter name {name!r} may not contain whitespace or path separators")


def validate_identity(name, adapter_type):
    """The rules every registered adapter's name and type follow."""
    validate_name(name)
    if adapter_type not in ADAPTER_TYPES:
        raise ValueError(f"adapter_type must be one of {ADAPTER_TYPES}, got {adapter_type!r}")


class BottleneckClampWarning(UserWarning):
    """Hidden size not divisible by the reduction factor; bottleneck clamped."""


def resolve_bottleneck(hidden_size, reduction_factor):
    """Bottleneck width for a hidden size and compression rate.

    Exact division when possible; otherwise floor, clamped to at least 1,
    with a :class:`BottleneckClampWarning`.
    """
    if hidden_size <= 0 or reduction_factor <= 0:
        raise ValueError("hidden_size and reduction_factor must be positive")
    if hidden_size % reduction_factor == 0:
        return hidden_size // reduction_factor
    b = max(1, hidden_size // reduction_factor)
    warnings.warn(
        f"hidden size {hidden_size} not divisible by reduction factor "
        f"{reduction_factor}; bottleneck clamped to {b}",
        BottleneckClampWarning,
        stacklevel=2,
    )
    return b


@dataclass(frozen=True)
class AdapterConfig(Descriptor):
    """Architecture of one adapter; hashes to a stable identity."""

    reduction_factor: int = 16
    non_linearity: str = "relu"
    mh_adapter: bool = False
    output_adapter: bool = True
    new_ln_before: bool = False
    new_ln_after: bool = False
    adapter_input: str = "sublayer_output"
    residual_source: str = "adapter_input"

    def __post_init__(self):
        super().__post_init__()
        if self.reduction_factor < 1:
            raise ValueError("reduction_factor must be a positive int")
        if self.non_linearity not in NON_LINEARITIES:
            raise ValueError(f"non_linearity must be one of {NON_LINEARITIES}")
        if not (self.mh_adapter or self.output_adapter):
            raise ValueError("at least one of mh_adapter, output_adapter must be true")
        if self.adapter_input not in ADAPTER_INPUT_CHOICES:
            raise ValueError(f"adapter_input must be one of {ADAPTER_INPUT_CHOICES}")
        if self.residual_source not in RESIDUAL_SOURCE_CHOICES:
            raise ValueError(f"residual_source must be one of {RESIDUAL_SOURCE_CHOICES}")

    def insertion_points(self):
        """The points this adapter hooks, in :data:`INSERTION_POINTS` order."""
        return [p for p, on in zip(INSERTION_POINTS, (self.mh_adapter, self.output_adapter)) if on]


_PRESETS = {
    # one adapter after the feed-forward sublayer, skip around the adapter
    "pfeiffer": AdapterConfig(
        non_linearity="relu",
        mh_adapter=False,
        output_adapter=True,
    ),
    # adapters after both sublayers
    "houlsby": AdapterConfig(
        non_linearity="swish",
        mh_adapter=True,
        output_adapter=True,
    ),
    # feed-forward-side adapter fed by the post-LN hidden, with a fresh LN
    # in front of the down-projection
    "bapna": AdapterConfig(
        non_linearity="relu",
        mh_adapter=False,
        output_adapter=True,
        new_ln_before=True,
        adapter_input="after_original_ln",
    ),
}
PRESET_NAMES = tuple(_PRESETS)
_WIRING = tuple(f.name for f in fields(AdapterConfig) if f.name != "reduction_factor")
_PRESET_BY_WIRING = {tuple(getattr(cfg, n) for n in _WIRING): name for name, cfg in _PRESETS.items()}


def preset_name(config):
    """The name of the preset ``config`` instantiates at its own reduction factor, or None."""
    return _PRESET_BY_WIRING.get(tuple(getattr(config, n) for n in _WIRING))


def preset(name, reduction_factor=None):
    """Resolve a named preset, optionally overriding the compression rate."""
    try:
        cfg = _PRESETS[name]
    except KeyError:
        raise ValueError(f"unknown preset {name!r}; valid presets: {PRESET_NAMES}") from None
    return resolve_config(cfg, reduction_factor)


def resolve_config(spec_or_name, reduction_factor=None):
    """Accept an AdapterConfig or a preset name; return an AdapterConfig."""
    if not isinstance(spec_or_name, AdapterConfig):
        return preset(spec_or_name, reduction_factor)
    if reduction_factor is None:
        return spec_or_name
    return replace(spec_or_name, reduction_factor=as_count(reduction_factor, "reduction_factor"))


# ---------------------------------------------------------------------------
# weights


@dataclass
class AdapterLayerWeights:
    """Projection (and optional LN) parameters for one layer, one insertion point."""

    w_down: ad.Tensor
    b_down: ad.Tensor
    w_up: ad.Tensor
    b_up: ad.Tensor
    ln_before_gamma: ad.Tensor | None = None
    ln_before_beta: ad.Tensor | None = None
    ln_after_gamma: ad.Tensor | None = None
    ln_after_beta: ad.Tensor | None = None

    def named_tensors(self):
        for name in self._FIELD_NAMES:
            t = getattr(self, name)
            if t is not None:
                yield name, t


AdapterLayerWeights._FIELD_NAMES = tuple(f.name for f in fields(AdapterLayerWeights))


def point_layout(hidden_size, config):
    """Ordered (name, shape) of one adapter instance's tensors (one layer, one point)."""
    h, b = hidden_size, resolve_bottleneck(hidden_size, config.reduction_factor)
    layout = [("w_down", (h, b)), ("b_down", (b,)), ("w_up", (b, h)), ("b_up", (h,))]
    if config.new_ln_before:
        layout += [("ln_before_gamma", (h,)), ("ln_before_beta", (h,))]
    if config.new_ln_after:
        layout += [("ln_after_gamma", (h,)), ("ln_after_beta", (h,))]
    return layout


def _instances(num_layers, config):
    """(layer, point, name prefix) of every adapter instance, layer by layer, points in layer order."""
    return ((i, point, f"layer{i}.{point}.") for i in range(num_layers) for point in config.insertion_points())


def adapter_layout(model_config, config):
    """Ordered (name, shape) of every adapter tensor, lazily, in ``AdapterEntry.named_tensors`` order."""
    layout = point_layout(model_config.hidden_size, config)
    return ((prefix + name, shape) for _, _, prefix in _instances(model_config.num_layers, config)
            for name, shape in layout)


def build_adapter_weights(model_config, config, make):
    """Every layer's ``{point: AdapterLayerWeights}`` whose tensors are ``make(qualified name, shape)``,
    made in :func:`adapter_layout` order: the adapter counterpart of ``backbone.build_backbone``."""
    layout = point_layout(model_config.hidden_size, config)
    weights = [{} for _ in range(model_config.num_layers)]
    for i, point, prefix in _instances(model_config.num_layers, config):
        weights[i][point] = AdapterLayerWeights(**{n: make(prefix + n, shape) for n, shape in layout})
    return weights


def head_layout(hidden_size, num_labels):
    """Ordered (name, shape) of a prediction head's tensors; ``ValueError`` below 2 labels."""
    if num_labels < 2:
        raise ValueError(f"a prediction head needs at least 2 labels, got {num_labels}")
    return [("w", (hidden_size, num_labels)), ("b", (num_labels,))]


def truncated_normal(rng, shape):
    """Normal(0, 0.02) samples redrawn until they land within two std."""
    std = 0.02
    out = rng.normal(0.0, std, size=shape)
    limit = 2.0 * std
    bad = np.abs(out) > limit
    while bad.any():
        out[bad] = rng.normal(0.0, std, size=int(bad.sum()))
        bad = np.abs(out) > limit
    return out


def _init_tensor(rng, name, shape):
    """Identity initialization: down-projection random, LN gains one, everything else zero."""
    if name.endswith("w_down"):
        return ad.tensor(truncated_normal(rng, shape))
    return ad.tensor(np.ones(shape) if name.endswith("gamma") else np.zeros(shape))


def init_layer_weights(hidden_size, config, rng):
    """Identity-initialized weights of one adapter instance (one layer, one point)."""
    return AdapterLayerWeights(**{name: _init_tensor(rng, name, shape)
                                  for name, shape in point_layout(hidden_size, config)})


@dataclass
class AdapterEntry:
    """One registered adapter: identity, architecture, per-layer weights."""

    name: str
    adapter_type: str
    config: AdapterConfig
    weights: list  # per layer: {insertion point: AdapterLayerWeights}, as build_adapter_weights makes it
    trained: bool = False

    def named_tensors(self):
        return ((prefix + name, t) for i, point, prefix in _instances(len(self.weights), self.config)
                for name, t in self.weights[i][point].named_tensors())


def new_adapter_entry(model_config, name, adapter_type, config, rng):
    """Build a freshly initialized adapter for a given backbone shape."""
    validate_identity(name, adapter_type)
    weights = build_adapter_weights(model_config, config, lambda n, shape: _init_tensor(rng, n, shape))
    return AdapterEntry(name, adapter_type, config, weights)


def layer_hooks(stack, num_layers):
    """The encoder's per-layer ``(attention hooks, output hooks)`` for an ordered stack of entries;
    each point's hooks are the ``(weights, config)`` pairs of the entries that hook it, in stack order."""
    return [[[(e.weights[i][point], e.config) for e in stack if point in e.weights[i]]
             for point in INSERTION_POINTS]
            for i in range(num_layers)]


def adapter_forward(hidden, residual, weights, config, ln_epsilon=1e-12):
    """Bottleneck transform of ``hidden`` plus the chosen ``residual``.

    out = maybe_ln_after(residual + up(act(down(maybe_ln_before(hidden)))))
    """
    x = hidden
    if config.new_ln_before:
        x = ad.layer_norm(x, weights.ln_before_gamma, weights.ln_before_beta, ln_epsilon)
    x = ad.linear(x, weights.w_down, weights.b_down)
    x = ad.activation(config.non_linearity, x)
    x = ad.linear(x, weights.w_up, weights.b_up)
    if config.new_ln_after:
        return ad.add_norm(residual, x, weights.ln_after_gamma, weights.ln_after_beta, ln_epsilon)
    return ad.add(residual, x)


def through_insertion_point(x_in, sub_out, ln_gamma, ln_beta, eps, hooks):
    """Route one sublayer's output through its add-and-norm, with adapters.

    ``hooks`` is an ordered list of (weights, config) pairs for the adapters
    active at this point. The first adapter's configuration chooses the hook
    signal and the continuation wiring; each following adapter takes the
    previous adapter's output as both input and residual, which keeps
    identity-initialized adapters transparent anywhere in the stack.
    """

    def add_and_norm(a, b):
        return ad.add_norm(a, b, ln_gamma, ln_beta, eps)

    if not hooks:
        return add_and_norm(x_in, sub_out)

    first_cfg = hooks[0][1]
    if first_cfg.adapter_input == "sublayer_output":
        entry = sub_out
    else:  # after_original_ln: the original block completes first
        entry = add_and_norm(x_in, sub_out)
    residual = entry if first_cfg.residual_source == "adapter_input" else x_in

    cur = adapter_forward(entry, residual, hooks[0][0], first_cfg, eps)
    for weights, cfg in hooks[1:]:
        cur = adapter_forward(cur, cur, weights, cfg, eps)

    if first_cfg.adapter_input == "sublayer_output":
        if first_cfg.residual_source == "adapter_input":
            return add_and_norm(x_in, cur)
        # the adapter's skip already carried x_in; only normalize
        return ad.layer_norm(cur, ln_gamma, ln_beta, eps)
    return cur


# ---------------------------------------------------------------------------
# accounting


def count_point_params(hidden_size, config):
    """Parameters of one adapter instance (one layer, one insertion point)."""
    return sum(int(np.prod(shape)) for _, shape in point_layout(hidden_size, config))


def count_adapter_params(model_config, config):
    """Total new parameters an adapter of this config adds to the model."""
    return sum(int(np.prod(shape)) for _, shape in adapter_layout(model_config, config))
