import copy
import dataclasses
import pickle

import numpy as np
import pytest

import adapterkit.autodiff as ad
from adapterkit import codec
from adapterkit.adapters import PRESET_NAMES, AdapterConfig, init_layer_weights, preset
from adapterkit.backbone import (ModelConfig, apply_layer, count_backbone_params,
                                 encode, encode_batch, init_backbone)
from adapterkit.errors import ShapeMismatchError
from adapterkit.manager import AdapterModel


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
    # only values the descriptor reads back: no bool for an int, no int for a float, no line break
    for bad in (dict(hidden_size=64.0), dict(num_heads=True), dict(layer_norm_epsilon=1),
                dict(model_type="a\nb"), dict(model_type="a\rb"), dict(model_type=None)):
        with pytest.raises(ValueError):
            ModelConfig(**bad)


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


def test_descriptor_and_hash_are_made_once_per_config(monkeypatch):
    cfg = ModelConfig(num_layers=3)
    fresh = pickle.dumps(cfg)
    text, digest = cfg.descriptor(), cfg.config_hash()
    calls = []
    write_pairs = codec.write_pairs
    monkeypatch.setattr(codec, "write_pairs", lambda pairs: calls.append(1) or write_pairs(pairs))
    assert (cfg.descriptor(), cfg.config_hash()) == (text, digest) and calls == []
    assert ModelConfig(num_layers=3).config_hash() == digest and len(calls) == 1
    # the memo is no field: equality, hash, replace, pickles and copies see the fields alone
    assert cfg == ModelConfig(num_layers=3) and hash(cfg) == hash(ModelConfig(num_layers=3))
    assert dataclasses.replace(cfg, num_layers=2).config_hash() == ModelConfig().config_hash()
    assert pickle.dumps(cfg) == fresh
    for again in (pickle.loads(fresh), copy.copy(cfg), copy.deepcopy(cfg)):
        assert again == cfg and again.config_hash() == digest


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


def test_encode_batch_validates_inputs(tiny_config):
    weights = init_backbone(tiny_config, np.random.default_rng(2))
    too_long = [0] * (tiny_config.max_seq_len + 1)
    for batch, message in (([], "empty batch"), ([[1, 2], []], "empty token sequence"),
                           ([[1], too_long], "exceeds max_seq_len"),
                           ([[1], [2, tiny_config.vocab_size]], f"token id {tiny_config.vocab_size} "),
                           ([[1, -1]], "token id -1 "), ([[2 ** 70]], "token ids must be integers, got object"),
                           ([[1.5]], "token ids must be integers, got float64"),
                           ([[2.0]], "token ids must be integers, got float64"),
                           ([[1], ["3"]], "token ids must be integers, got <U"),
                           ([[None]], "token ids must be integers, got object"),
                           ([[2, np.float64(2.0)]], "token ids must be integers"),
                           ([[True]], "token ids must be integers, got bool"),
                           ([[1, True]], "token ids must be integers, got bool"),
                           ([[1], [np.True_, 2]], "token ids must be integers, got bool"),
                           ([5], "sequence of token id sequences"),
                           ([[1], None], "sequence of token id sequences"),
                           (5, "sequence of token id sequences")):
        with pytest.raises(ShapeMismatchError, match=message):
            encode_batch(tiny_config, weights, batch)
    numpy_ids = encode_batch(tiny_config, weights, [[np.int64(1), np.uint32(2)], np.array([3], np.uint8)])
    assert np.array_equal(numpy_ids.data, encode_batch(tiny_config, weights, [[1, 2], [3]]).data)


@pytest.mark.parametrize("stack", [[name] for name in PRESET_NAMES] + [["pfeiffer", "houlsby"]])
def test_batch_rows_match_batch_of_one(desk_config, stack):
    """No padding leaks: each sequence's rows and logits are its batch-of-one encoding."""
    rng = np.random.default_rng(9)
    model = AdapterModel(desk_config, seed=9)
    model.add_head("cls", 3)
    model.get_head().w.data = rng.standard_normal(model.get_head().w.shape)
    for name in stack:
        model.add_adapter(name, config=name, reduction_factor=4)
        for key, t in model.get_adapter(name).named_tensors():
            if key.endswith(("w_up", "b_up")):
                t.data = 0.1 * rng.standard_normal(t.shape)
    model.set_active_adapters(stack)
    lengths = rng.permutation(np.arange(1, desk_config.max_seq_len + 1))
    seqs = [[int(t) for t in rng.integers(0, desk_config.vocab_size, size=n)] for n in lengths]
    batch = encode_batch(desk_config, model.weights, seqs, model._layer_hooks())
    logits = model.batch_logits(seqs).data
    starts = np.cumsum(lengths) - lengths
    for seq, start, row in zip(seqs, starts, logits):
        alone = model.encode(seq)
        assert np.allclose(batch.data[start:start + len(seq)], alone.hidden.data, atol=1e-12, rtol=0)
        assert np.allclose(row, model.batch_logits([seq]).data[0], atol=1e-12, rtol=0)


def _adapted_model(config, stack, rng):
    """A model with a random 3-label head and the ``stack`` (empty: full fine-tuning) in training mode.

    The adapters' up-projections are random, so no adapter is an identity.
    """
    model = AdapterModel(config, seed=11)
    model.add_head("cls", 3)
    model.get_head().w.data = rng.standard_normal(model.get_head().w.shape)
    for name in stack:
        model.add_adapter(name, config=name, reduction_factor=4)
        for key, t in model.get_adapter(name).named_tensors():
            if key.endswith(("w_up", "b_up")):
                t.data = 0.1 * rng.standard_normal(t.shape)
    if stack:
        model.train_adapter(stack)
    else:
        model.train_full()
    return model


def _all_rows_logits(model, seqs):
    """Logits of every final hidden row computed, then each sequence's first row gathered."""
    lengths = np.array([len(seq) for seq in seqs])
    hidden = encode_batch(model.config, model.weights, seqs, model._layer_hooks())
    head = model.get_head()
    return ad.linear(ad.embedding_lookup(hidden, np.cumsum(lengths) - lengths), head.w, head.b)


@pytest.mark.parametrize("num_layers", [1, 2])
@pytest.mark.parametrize("stack", [[name] for name in PRESET_NAMES] + [["pfeiffer", "houlsby"], []],
                         ids=list(PRESET_NAMES) + ["pfeiffer+houlsby", "full_finetune"])
def test_pooled_rows_path_matches_the_all_rows_path(num_layers, stack):
    """``batch_logits`` computes only the pooled rows past the last attention; nothing else changes."""
    config = ModelConfig(num_layers=num_layers)
    rng = np.random.default_rng(11)
    model = _adapted_model(config, stack, rng)
    params = [(name, t) for name, t, _ in model.named_parameters() if t.requires_grad]
    lengths = [1, 5, 1, config.max_seq_len, 3, 1, 17, 2, 9, 1, 12, 4, 30, 1, 6, 16]
    seqs = [[int(t) for t in rng.integers(0, config.vocab_size, size=n)] for n in lengths]
    labels = rng.integers(0, 3, size=len(seqs))

    def logits_and_grads(logits_fn, batch):
        with ad.Tape():
            logits = logits_fn(batch)
            grads = ad.backward(ad.cross_entropy(logits, labels))
        return logits.data, [grads[t] for _, t in params]

    # mixed lengths, then one token per sequence (where the pooled rows are all the rows)
    for batch in (seqs, [seq[:1] for seq in seqs]):
        got, got_grads = logits_and_grads(model.batch_logits, batch)
        want, want_grads = logits_and_grads(lambda b: _all_rows_logits(model, b), batch)
        # the row-wise ops give each row the same bits for 16 rows as for 256 on this BLAS; a batch
        # of one sequence is the exception, as numpy multiplies a single row another way, and
        # test_batch_rows_match_batch_of_one holds it to 1e-12
        assert np.array_equal(got, want)
        one_token = batch is not seqs
        for (name, _), g, w in zip(params, got_grads, want_grads):
            if one_token:  # the same operations on the same rows
                assert np.array_equal(g, w), name
            elif name.endswith(".b_k"):
                # zero in exact arithmetic (softmax ignores a shift shared by every key): noise only
                assert max(np.abs(g).max(), np.abs(w).max()) < 1e-15, name
            else:
                # backward sums over 16 rows here and over 256 mostly-zero rows there
                assert np.abs(g - w).max() <= 1e-12 * np.abs(w).max(), name


def test_batch_logits_runs_the_last_layer_on_the_pooled_rows_only(desk_config):
    """The last layer's queries, FFN and final add-and-norm run on one row per sequence, and only when asked."""
    rng = np.random.default_rng(13)
    model = _adapted_model(desk_config, [], rng)
    seqs = [[int(t) for t in rng.integers(0, desk_config.vocab_size, size=n)] for n in (4, 1, 9, 16)]
    total, layers = sum(map(len, seqs)), desk_config.num_layers

    def rows_recorded(encode_fn):
        with ad.Tape() as tape:
            encode_fn()
            gelu = [rec.output.shape[0] for rec in tape.records if rec.kind == "gelu"]
            norm = [rec.output.shape[0] for rec in tape.records if rec.kind == "add_norm"]
            attention = [rec.output.shape[0] for rec in tape.records if rec.kind == "attention"]
            lookups = sum(rec.kind == "embedding_lookup" for rec in tape.records)
        return gelu, norm[-1], attention[-1], lookups

    # token and position embeddings, then the first rows of the last layer's input
    assert rows_recorded(lambda: model.batch_logits(seqs)) == (
        [total] * (layers - 1) + [len(seqs)], len(seqs), len(seqs), 3)
    # one token each: the pooled rows are all the rows, and nothing is gathered
    assert rows_recorded(lambda: model.batch_logits([seq[:1] for seq in seqs])) == (
        [len(seqs)] * layers, len(seqs), len(seqs), 2)
    # token and position embeddings only: every row is returned
    assert rows_recorded(lambda: encode_batch(desk_config, model.weights, seqs)) == (
        [total] * layers, total, total, 2)
    pooled_only = encode_batch(desk_config, model.weights, seqs, pooled_only=True)
    assert pooled_only.shape == (len(seqs), desk_config.hidden_size)


def test_encode_is_deterministic(desk_config):
    weights = init_backbone(desk_config, np.random.default_rng(3))
    ids = [1, 2, 3, 4, 5]
    a = encode(desk_config, weights, ids).hidden.data
    b = encode(desk_config, weights, ids).hidden.data
    assert np.array_equal(a, b)


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
