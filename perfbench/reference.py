"""Plain-numpy reference encoder, written without ``adapterkit.autodiff``.

It recomputes the logits of a served adapter stack from the weight arrays
the benchmark generated itself: post-LN multi-head attention, the exact-CDF
GELU feed-forward block, the three preset adapter wirings and stacking.
The wiring table below is the benchmark's own statement of the presets, so
a change to a preset inside the program shows up as a mismatch.
"""

import numpy as np
from scipy.special import erf

# preset -> (insertion points, activation, fresh LN before the
# down-projection, adapter fed by the post-LN hidden instead of the raw
# sublayer output)
WIRING = {
    "pfeiffer": (("output",), "relu", False, False),
    "houlsby": (("attention", "output"), "swish", False, False),
    "bapna": (("output",), "relu", True, True),
}

_ACTIVATIONS = {
    "relu": lambda x: np.maximum(x, 0.0),
    "swish": lambda x: x / (1.0 + np.exp(-x)),
}


def layer_norm(x, gamma, beta, eps):
    """Row-wise LayerNorm; rows with variance below eps normalise to zero."""
    mean = x.mean(axis=-1, keepdims=True)
    var = ((x - mean) ** 2).mean(axis=-1, keepdims=True)
    inv_std = np.where(var >= eps, 1.0 / np.sqrt(var + eps), 0.0)
    return (x - mean) * inv_std * gamma + beta


def gelu(x):
    return 0.5 * x * (1.0 + erf(x / np.sqrt(2.0)))


def _adapter(h, residual, w, preset, eps):
    _, act, ln_before, _ = WIRING[preset]
    x = layer_norm(h, w["ln_before_gamma"], w["ln_before_beta"], eps) if ln_before else h
    return residual + _ACTIVATIONS[act](x @ w["w_down"] + w["b_down"]) @ w["w_up"] + w["b_up"]


def _sublayer_exit(x_in, sub, gamma, beta, hooks, eps):
    """Add-and-norm of one sublayer with the adapters hooked at that point.

    The first adapter's preset picks the hook signal; each further adapter
    in the stack transforms the previous one's output.
    """
    if not hooks:
        return layer_norm(x_in + sub, gamma, beta, eps)
    fed_after_ln = WIRING[hooks[0][1]][3]
    cur = layer_norm(x_in + sub, gamma, beta, eps) if fed_after_ln else sub
    for w, preset in hooks:
        cur = _adapter(cur, cur, w, preset, eps)
    return cur if fed_after_ln else layer_norm(x_in + cur, gamma, beta, eps)


def layer_hooks(config, stack):
    """Per layer, the adapters hooked at each point, in stack order.

    ``stack`` is a list of ``(preset, {tensor name: array})`` in activation
    order, with tensor names ``layer{i}.{point}.{field}``.
    """
    out = []
    for i in range(config.num_layers):
        points = {}
        for point in ("attention", "output"):
            prefix = f"layer{i}.{point}."
            points[point] = [({f[len(prefix):]: a for f, a in w.items() if f.startswith(prefix)}, preset)
                             for preset, w in stack if point in WIRING[preset][0]]
        out.append(points)
    return out


def logits(config, base, hooks, head, ids):
    """Head logits for one token id sequence.

    ``base`` maps backbone tensor names to arrays, ``hooks`` comes from
    :func:`layer_hooks`, and ``head`` is a ``(w, b)`` pair.
    """
    eps = config.layer_norm_epsilon
    n, heads = len(ids), config.num_heads
    d = config.hidden_size // heads
    x = layer_norm(base["token_embeddings"][ids] + base["position_embeddings"][:n],
                   base["emb_ln_gamma"], base["emb_ln_beta"], eps)
    for i in range(config.num_layers):
        p = f"layer{i}."
        q, k, v = ((x @ base[p + "w_" + c] + base[p + "b_" + c]).reshape(n, heads, d).transpose(1, 0, 2)
                   for c in "qkv")
        scores = q @ k.transpose(0, 2, 1) / np.sqrt(d)
        e = np.exp(scores - scores.max(axis=-1, keepdims=True))
        ctx = (e / e.sum(axis=-1, keepdims=True)) @ v
        attn = ctx.transpose(1, 0, 2).reshape(n, heads * d) @ base[p + "w_o"] + base[p + "b_o"]
        x = _sublayer_exit(x, attn, base[p + "attn_ln_gamma"], base[p + "attn_ln_beta"],
                           hooks[i]["attention"], eps)
        ffn = gelu(x @ base[p + "w_ffn_in"] + base[p + "b_ffn_in"]) @ base[p + "w_ffn_out"] \
            + base[p + "b_ffn_out"]
        x = _sublayer_exit(x, ffn, base[p + "ffn_ln_gamma"], base[p + "ffn_ln_beta"],
                           hooks[i]["output"], eps)
    w, b = head
    return x[0] @ w + b
