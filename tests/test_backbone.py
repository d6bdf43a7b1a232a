import numpy as np
import pytest

import adapterkit.autodiff as ad
from adapterkit.adapters import AdapterConfig, init_layer_weights, preset
from adapterkit.backbone import (ModelConfig, apply_layer, count_backbone_params,
                                 encode, init_backbone)
from adapterkit.errors import ShapeMismatchError


def _np_layer_norm(x, gamma, beta, eps):
    mean = x.mean(axis=1, keepdims=True)
    var = x.var(axis=1, keepdims=True)
    inv = np.where(var >= eps, 1.0 / np.sqrt(var + eps), 0.0)
    return (x - mean) * inv * gamma + beta


def _np_softmax(x):
    e = np.exp(x - x.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True)


def _np_gelu(x):
    from scipy.special import erf
    return x * 0.5 * (1.0 + erf(x / np.sqrt(2.0)))


def _np_attention(cfg, lw, x):
    q = x @ lw.w_q.data + lw.b_q.data
    k = x @ lw.w_k.data + lw.b_k.data
    v = x @ lw.w_v.data + lw.b_v.data
    d = cfg.head_dim
    ctx = np.zeros_like(x)
    for head in range(cfg.num_heads):
        s = slice(head * d, (head + 1) * d)
        scores = q[:, s] @ k[:, s].T / np.sqrt(d)
        ctx[:, s] = _np_softmax(scores) @ v[:, s]
    return ctx @ lw.w_o.data + lw.b_o.data


def _np_encode(cfg, weights, ids):
    eps = cfg.layer_norm_epsilon
    x = weights.token_embeddings.data[ids] + weights.position_embeddings.data[:len(ids)]
    x = _np_layer_norm(x, weights.emb_ln_gamma.data, weights.emb_ln_beta.data, eps)
    for lw in weights.layers:
        attn = _np_attention(cfg, lw, x)
        x = _np_layer_norm(x + attn, lw.attn_ln_gamma.data, lw.attn_ln_beta.data, eps)
        inner = _np_gelu(x @ lw.w_ffn_in.data + lw.b_ffn_in.data)
        ffn = inner @ lw.w_ffn_out.data + lw.b_ffn_out.data
        x = _np_layer_norm(x + ffn, lw.ffn_ln_gamma.data, lw.ffn_ln_beta.data, eps)
    return x


def test_model_config_validation():
    with pytest.raises(ValueError):
        ModelConfig(hidden_size=10, num_heads=4)  # not divisible
    with pytest.raises(ValueError):
        ModelConfig(num_layers=0)
    for bad in (0.0, float("nan"), float("inf")):
        with pytest.raises(ValueError):
            ModelConfig(layer_norm_epsilon=bad)
    with pytest.raises(ValueError):
        ModelConfig.parse(ModelConfig().descriptor().replace("=1e-12", "=nan"))


def test_model_descriptor_round_trip_and_hash():
    cfg = ModelConfig(hidden_size=32, num_layers=3, num_heads=2, ffn_size=64,
                      vocab_size=50, max_seq_len=12)
    again = ModelConfig.parse(cfg.descriptor())
    assert again == cfg
    assert again.config_hash() == cfg.config_hash()
    assert ModelConfig().config_hash() != cfg.config_hash()
    text = ModelConfig().descriptor()
    junk = [
        text + "flux_capacitor=1\n",  # unknown key
        text.replace("hidden_size=64", "hidden_size=6_4"),  # int() accepts it
        text.replace("hidden_size=64", "hidden_size= 64"),
        text.replace("layer_norm_epsilon=1e-12", "layer_norm_epsilon=0.000000000001"),
        text + "hidden_size=32\n",  # duplicate key
        "",  # empty descriptor: not the defaults
        "hidden_size=64\n",  # every other field missing
        text.replace("num_layers=2", "num_layers"),  # line with no =
        text.replace("num_layers=2", "num_layers=two"),
    ]
    for bad in junk:
        with pytest.raises(ValueError):
            ModelConfig.parse(bad)


def test_backbone_param_count_matches_enumeration(desk_config):
    weights = init_backbone(desk_config, np.random.default_rng(0))
    total = sum(t.data.size for _, t in weights.named_tensors())
    assert total == count_backbone_params(desk_config)


def test_backbone_param_count_bert_base_shape():
    base = ModelConfig(model_type="bert-base", hidden_size=768, num_layers=12,
                       num_heads=12, ffn_size=3072, vocab_size=30522, max_seq_len=512)
    count = count_backbone_params(base)
    assert count == 108_890_112
    # four bytes per parameter lands close to the published 440Mb footprint
    assert abs(count * 4 / 1e6 - 440) < 10


def test_encode_matches_numpy_oracle(tiny_config):
    rng = np.random.default_rng(1)
    weights = init_backbone(tiny_config, rng)
    for trial in range(10):
        n = int(rng.integers(1, tiny_config.max_seq_len + 1))
        ids = [int(t) for t in rng.integers(0, tiny_config.vocab_size, size=n)]
        got = encode(tiny_config, weights, ids)
        want = _np_encode(tiny_config, weights, ids)
        assert np.allclose(got.hidden.data, want, atol=1e-12)
        assert np.array_equal(got.pooled.data, got.hidden.data[0])


def test_encode_validates_inputs(tiny_config):
    weights = init_backbone(tiny_config, np.random.default_rng(2))
    with pytest.raises(ShapeMismatchError):
        encode(tiny_config, weights, [])
    with pytest.raises(ShapeMismatchError):
        encode(tiny_config, weights, [0] * (tiny_config.max_seq_len + 1))
    with pytest.raises(ShapeMismatchError):
        encode(tiny_config, weights, [tiny_config.vocab_size])
    with pytest.raises(ShapeMismatchError):
        encode(tiny_config, weights, [-1])


def test_encode_is_deterministic(desk_config):
    weights = init_backbone(desk_config, np.random.default_rng(3))
    ids = [1, 2, 3, 4, 5]
    a = encode(desk_config, weights, ids).hidden.data
    b = encode(desk_config, weights, ids).hidden.data
    assert np.array_equal(a, b)


def test_traces_expose_sublayer_signals(tiny_config):
    rng = np.random.default_rng(4)
    weights = init_backbone(tiny_config, rng)
    ids = [3, 1, 4, 1, 5]
    result = encode(tiny_config, weights, ids, collect_traces=True)
    assert len(result.layer_traces) == tiny_config.num_layers
    tr = result.layer_traces[0]
    eps = tiny_config.layer_norm_epsilon
    lw = weights.layers[0]
    # the recorded signals satisfy the post-norm wiring equations
    want_post_attn = _np_layer_norm(tr.attention_residual_input + tr.attention_sublayer_output,
                                    lw.attn_ln_gamma.data, lw.attn_ln_beta.data, eps)
    assert np.allclose(tr.post_attention_hidden, want_post_attn)
    want_post_ffn = _np_layer_norm(tr.ffn_residual_input + tr.ffn_sublayer_output,
                                   lw.ffn_ln_gamma.data, lw.ffn_ln_beta.data, eps)
    assert np.allclose(tr.post_ffn_hidden, want_post_ffn)
    assert len(tr.attention_probs) == tiny_config.num_heads
    for p in tr.attention_probs:
        assert p.shape == (5, 5)
        assert np.allclose(p.sum(axis=1), 1.0)
    assert np.array_equal(result.layer_traces[-1].post_ffn_hidden, result.hidden.data)


def test_adapter_hooks_change_output_only_when_nonzero(tiny_config):
    rng = np.random.default_rng(5)
    weights = init_backbone(tiny_config, rng)
    cfg = AdapterConfig(reduction_factor=2)
    hooks = []
    for _ in range(tiny_config.num_layers):
        hooks.append(((), ((init_layer_weights(tiny_config.hidden_size, cfg, rng), cfg),)))
    ids = [7, 2, 9]
    plain = encode(tiny_config, weights, ids).hidden.data
    with_identity = encode(tiny_config, weights, ids, layer_hooks=hooks).hidden.data
    assert np.array_equal(plain, with_identity)
    # disturb one up-projection; the output must move
    hooks[0][1][0][0].w_up.data = rng.standard_normal(hooks[0][1][0][0].w_up.shape)
    disturbed = encode(tiny_config, weights, ids, layer_hooks=hooks).hidden.data
    assert not np.allclose(plain, disturbed)


def test_insertion_point_wirings_numpy_oracle(tiny_config):
    """Each (adapter_input, residual_source) wiring matches a direct computation."""
    rng = np.random.default_rng(6)
    h = tiny_config.hidden_size
    eps = tiny_config.layer_norm_epsilon
    lw = init_backbone(tiny_config, rng).layers[0]

    def run_adapter(w, cfg, hidden, residual):
        z = np.maximum(hidden @ w.w_down.data + w.b_down.data, 0.0) @ w.w_up.data + w.b_up.data
        return residual + z

    x = rng.standard_normal((4, h))
    for adapter_input in ("sublayer_output", "after_original_ln"):
        for residual_source in ("adapter_input", "pre_sublayer"):
            cfg = AdapterConfig(reduction_factor=2, adapter_input=adapter_input,
                                residual_source=residual_source)
            w = init_layer_weights(h, cfg, rng)
            w.w_up.data = 0.1 * rng.standard_normal(w.w_up.shape)
            got = apply_layer(tiny_config, lw, ad.tensor(x),
                              attention_hooks=(), output_hooks=((w, cfg),)).data

            attn = _np_attention(tiny_config, lw, x)
            hidden1 = _np_layer_norm(x + attn, lw.attn_ln_gamma.data, lw.attn_ln_beta.data, eps)
            inner = _np_gelu(hidden1 @ lw.w_ffn_in.data + lw.b_ffn_in.data)
            ffn = inner @ lw.w_ffn_out.data + lw.b_ffn_out.data
            if adapter_input == "sublayer_output":
                entry = ffn
                residual = entry if residual_source == "adapter_input" else hidden1
                adapted = run_adapter(w, cfg, entry, residual)
                if residual_source == "adapter_input":
                    want = _np_layer_norm(hidden1 + adapted, lw.ffn_ln_gamma.data,
                                          lw.ffn_ln_beta.data, eps)
                else:
                    want = _np_layer_norm(adapted, lw.ffn_ln_gamma.data,
                                          lw.ffn_ln_beta.data, eps)
            else:
                entry = _np_layer_norm(hidden1 + ffn, lw.ffn_ln_gamma.data,
                                       lw.ffn_ln_beta.data, eps)
                residual = entry if residual_source == "adapter_input" else hidden1
                want = run_adapter(w, cfg, entry, residual)
            assert np.allclose(got, want, atol=1e-12), (adapter_input, residual_source)


def test_stacked_adapters_chain_outputs(tiny_config):
    """The k-th adapter consumes the (k-1)-th output as input and residual."""
    rng = np.random.default_rng(7)
    h = tiny_config.hidden_size
    eps = tiny_config.layer_norm_epsilon
    lw = init_backbone(tiny_config, rng).layers[0]
    cfg = AdapterConfig(reduction_factor=2)
    w1 = init_layer_weights(h, cfg, rng)
    w2 = init_layer_weights(h, cfg, rng)
    w1.w_up.data = 0.1 * rng.standard_normal(w1.w_up.shape)
    w2.w_up.data = 0.1 * rng.standard_normal(w2.w_up.shape)

    x = rng.standard_normal((3, h))
    got = apply_layer(tiny_config, lw, ad.tensor(x),
                      output_hooks=((w1, cfg), (w2, cfg))).data

    attn = _np_attention(tiny_config, lw, x)
    hidden1 = _np_layer_norm(x + attn, lw.attn_ln_gamma.data, lw.attn_ln_beta.data, eps)
    inner = _np_gelu(hidden1 @ lw.w_ffn_in.data + lw.b_ffn_in.data)
    ffn = inner @ lw.w_ffn_out.data + lw.b_ffn_out.data

    def bottleneck(w, v):
        return np.maximum(v @ w.w_down.data + w.b_down.data, 0.0) @ w.w_up.data + w.b_up.data

    first = ffn + bottleneck(w1, ffn)
    second = first + bottleneck(w2, first)
    want = _np_layer_norm(hidden1 + second, lw.ffn_ln_gamma.data, lw.ffn_ln_beta.data, eps)
    assert np.allclose(got, want, atol=1e-12)


def test_houlsby_hooks_both_points(tiny_config):
    rng = np.random.default_rng(8)
    weights = init_backbone(tiny_config, rng)
    cfg = preset("houlsby", reduction_factor=2)
    hooks = []
    for _ in range(tiny_config.num_layers):
        attn_w = init_layer_weights(tiny_config.hidden_size, cfg, rng)
        out_w = init_layer_weights(tiny_config.hidden_size, cfg, rng)
        hooks.append((((attn_w, cfg),), ((out_w, cfg),)))
    ids = [1, 2, 3]
    plain = encode(tiny_config, weights, ids).hidden.data
    adapted = encode(tiny_config, weights, ids, layer_hooks=hooks).hidden.data
    assert np.array_equal(plain, adapted)  # identity at init, both points
