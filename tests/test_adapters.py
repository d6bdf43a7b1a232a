import numpy as np
import pytest

import adapterkit.autodiff as ad
from adapterkit.adapters import (AdapterConfig, BottleneckClampWarning,
                                 adapter_forward, count_adapter_params,
                                 count_point_params, init_layer_weights, preset,
                                 resolve_bottleneck, resolve_config,
                                 truncated_normal)
from adapterkit.backbone import ModelConfig


def test_bottleneck_exact_division():
    assert resolve_bottleneck(64, 16) == 4
    assert resolve_bottleneck(768, 16) == 48
    assert resolve_bottleneck(768, 2) == 384


def test_bottleneck_clamps_with_warning():
    with pytest.warns(BottleneckClampWarning):
        assert resolve_bottleneck(10, 3) == 3  # floor(10/3)
    with pytest.warns(BottleneckClampWarning):
        assert resolve_bottleneck(4, 100) == 1  # never below 1


def test_config_validation():
    with pytest.raises(ValueError):
        AdapterConfig(reduction_factor=0)
    with pytest.raises(ValueError):
        AdapterConfig(non_linearity="sigmoid")
    with pytest.raises(ValueError):
        AdapterConfig(mh_adapter=False, output_adapter=False)
    with pytest.raises(ValueError):
        AdapterConfig(adapter_input="both")
    with pytest.raises(ValueError):
        AdapterConfig(residual_source="nowhere")
    for bad in (dict(mh_adapter=1), dict(reduction_factor=True), dict(reduction_factor=2.0),
                dict(new_ln_after=None)):
        with pytest.raises(ValueError):
            AdapterConfig(**bad)


def test_descriptor_round_trips_and_hash_is_stable():
    rng = np.random.default_rng(0)
    choices = dict(
        reduction_factor=[1, 2, 16, 64],
        non_linearity=["relu", "gelu", "swish", "tanh"],
        mh_adapter=[True, False],
        output_adapter=[True],
        new_ln_before=[True, False],
        new_ln_after=[True, False],
        adapter_input=["sublayer_output", "after_original_ln"],
        residual_source=["adapter_input", "pre_sublayer"],
    )
    for trial in range(25):
        kwargs = {k: v[rng.integers(len(v))] for k, v in choices.items()}
        cfg = AdapterConfig(**kwargs)
        again = AdapterConfig.parse(cfg.descriptor())
        assert again == cfg
        assert again.config_hash() == cfg.config_hash()
    # the hash must react to every field
    base = AdapterConfig()
    assert AdapterConfig(reduction_factor=2).config_hash() != base.config_hash()
    assert AdapterConfig(non_linearity="gelu").config_hash() != base.config_hash()


def test_parse_descriptor_rejects_junk():
    text = AdapterConfig().descriptor()
    assert AdapterConfig.parse(text) == AdapterConfig()
    junk = [
        text + "mystery=1\n",  # unknown key
        text.replace("reduction_factor=16", "reduction_factor=maybe"),
        text.replace("mh_adapter=false", "mh_adapter=yes"),
        text.replace("reduction_factor=16", "reduction_factor=1_6"),  # int() accepts it
        text.replace("reduction_factor=16", "reduction_factor=016"),
        text + "reduction_factor=16\n",  # duplicate key
        "reduction_factor=16\n" + text,  # duplicate key
        "",  # empty descriptor
        "reduction_factor=16\n",  # every other field missing
        text.replace("mh_adapter=false\n", ""),  # one field missing
        text.replace("mh_adapter=false", "mh_adapter"),  # line with no =
        text + "\n",  # trailing blank line
        text.rstrip("\n"),  # no final newline
        "\n".join(reversed(text.splitlines())) + "\n",  # fields out of order
    ]
    for bad in junk:
        with pytest.raises(ValueError):
            AdapterConfig.parse(bad)


def test_presets_match_published_wiring():
    p = preset("pfeiffer")
    assert (p.mh_adapter, p.output_adapter) == (False, True)
    assert p.non_linearity == "relu"
    h = preset("houlsby")
    assert (h.mh_adapter, h.output_adapter) == (True, True)
    assert h.non_linearity == "swish"
    b = preset("bapna")
    assert (b.mh_adapter, b.output_adapter) == (False, True)
    assert b.new_ln_before and b.adapter_input == "after_original_ln"
    with pytest.raises(ValueError):
        preset("parallel")


def test_resolve_config_accepts_names_and_instances():
    assert resolve_config("pfeiffer") == preset("pfeiffer")
    assert resolve_config("houlsby", reduction_factor=2).reduction_factor == 2
    cfg = AdapterConfig(reduction_factor=8)
    assert resolve_config(cfg) is cfg
    assert resolve_config(cfg, reduction_factor=4).reduction_factor == 4


def test_truncated_normal_respects_bound():
    rng = np.random.default_rng(1)
    sample = truncated_normal(rng, (200, 50))
    assert np.abs(sample).max() <= 2.0 * 0.02
    assert abs(sample.std() - 0.02) < 0.005


def test_init_is_identity_map():
    rng = np.random.default_rng(2)
    for trial in range(10):
        cfg = AdapterConfig(
            reduction_factor=int(rng.choice([2, 4, 16])),
            non_linearity=str(rng.choice(["relu", "gelu", "swish", "tanh"])),
        )
        w = init_layer_weights(32, cfg, rng)
        hidden = ad.tensor(rng.standard_normal((5, 32)))
        residual = ad.tensor(rng.standard_normal((5, 32)))
        out = adapter_forward(hidden, residual, w, cfg)
        assert np.array_equal(out.data, residual.data)  # bitwise


def test_forward_matches_numpy_oracle():
    rng = np.random.default_rng(3)
    cfg = AdapterConfig(reduction_factor=4, non_linearity="relu")
    w = init_layer_weights(16, cfg, rng)
    # give it non-trivial weights
    w.w_up.data = rng.standard_normal(w.w_up.shape)
    w.b_up.data = rng.standard_normal(w.b_up.shape)
    w.b_down.data = rng.standard_normal(w.b_down.shape)
    hidden = rng.standard_normal((6, 16))
    residual = rng.standard_normal((6, 16))
    want = residual + np.maximum(hidden @ w.w_down.data + w.b_down.data, 0.0) @ w.w_up.data + w.b_up.data
    got = adapter_forward(ad.tensor(hidden), ad.tensor(residual), w, cfg)
    assert np.allclose(got.data, want)


def test_forward_shape_checks():
    rng = np.random.default_rng(4)
    cfg = AdapterConfig()
    w = init_layer_weights(16, cfg, rng)
    from adapterkit.errors import ShapeMismatchError
    with pytest.raises(ShapeMismatchError):
        adapter_forward(ad.tensor(rng.standard_normal((3, 16))),
                        ad.tensor(rng.standard_normal((4, 16))), w, cfg)
    with pytest.raises(ShapeMismatchError):
        adapter_forward(ad.tensor(rng.standard_normal((3, 8))),
                        ad.tensor(rng.standard_normal((3, 8))), w, cfg)


def test_point_params_formula():
    # h*b + b + b*h + h, plus 2h per fresh layer norm
    assert count_point_params(64, AdapterConfig(reduction_factor=16)) == 64 * 4 + 4 + 4 * 64 + 64
    assert count_point_params(768, AdapterConfig(reduction_factor=16)) == 768 * 48 + 48 + 48 * 768 + 768
    with_ln = AdapterConfig(new_ln_before=True, new_ln_after=True)
    assert count_point_params(64, with_ln) == 64 * 4 + 4 + 4 * 64 + 64 + 4 * 64


def test_adapter_params_published_counts():
    base = ModelConfig(model_type="bert-base", hidden_size=768, num_layers=12,
                       num_heads=12, ffn_size=3072, vocab_size=30522, max_seq_len=512)
    large = ModelConfig(model_type="bert-large", hidden_size=1024, num_layers=24,
                        num_heads=16, ffn_size=4096, vocab_size=30522, max_seq_len=512)
    pf = lambda rf: preset("pfeiffer", reduction_factor=rf)
    assert count_adapter_params(base, pf(64)) == 230_544
    assert count_adapter_params(base, pf(16)) == 894_528
    assert count_adapter_params(base, pf(2)) == 7_091_712
    assert count_adapter_params(large, pf(64)) == 811_392
    assert count_adapter_params(large, pf(16)) == 3_171_840
    assert count_adapter_params(large, pf(2)) == 25_202_688


def test_houlsby_is_exactly_double_pfeiffer():
    rng = np.random.default_rng(5)
    for trial in range(10):
        h = int(rng.choice([64, 128, 768, 1024]))
        L = int(rng.choice([2, 12, 24]))
        rf = int(rng.choice([2, 16, 64]))
        cfg = ModelConfig(hidden_size=h, num_layers=L, num_heads=4,
                          ffn_size=4 * h, vocab_size=1000, max_seq_len=64)
        assert (count_adapter_params(cfg, preset("houlsby", reduction_factor=rf))
                == 2 * count_adapter_params(cfg, preset("pfeiffer", reduction_factor=rf)))
