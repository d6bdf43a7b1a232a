"""Golden pins for every byte format the toolkit writes.

Config hashes travel inside every package and hub card, and package,
checkpoint and weight digests identify artifacts already in circulation, so
these values must never move. Each one was recorded from the toolkit as it
stood before its descriptor codec and tensor layouts were consolidated.
"""

import hashlib

import pytest

from adapterkit import AdapterConfig, AdapterModel, ModelConfig, package_io
from adapterkit.adapters import preset

REFERENCE_SHAPE = dict(hidden_size=768, num_layers=12, num_heads=12, ffn_size=3072,
                       vocab_size=30522, max_seq_len=512)

MODEL_PINS = [
    (ModelConfig(),
     "model_type=mini-bert\nhidden_size=64\nnum_layers=2\nnum_heads=4\nffn_size=256\n"
     "vocab_size=128\nmax_seq_len=32\nlayer_norm_epsilon=1e-12\n",
     "70e52a3d06674d9b0ce3b6a58fb7b6a6984d462c2a1a81d84e8b314bfb8ea8c0"),
    (ModelConfig(**REFERENCE_SHAPE),
     "model_type=mini-bert\nhidden_size=768\nnum_layers=12\nnum_heads=12\nffn_size=3072\n"
     "vocab_size=30522\nmax_seq_len=512\nlayer_norm_epsilon=1e-12\n",
     "b27605540e08ed4bbd000f60dd9644d8d1a838c34c451db3318ef520a8944b5d"),
]


def _adapter_text(rf, act, mh, ln_before, adapter_input):
    return (f"reduction_factor={rf}\nnon_linearity={act}\nmh_adapter={mh}\n"
            f"output_adapter=true\nnew_ln_before={ln_before}\nnew_ln_after=false\n"
            f"adapter_input={adapter_input}\nresidual_source=adapter_input\n")


PRESET_PINS = [
    ("pfeiffer", None, _adapter_text(16, "relu", "false", "false", "sublayer_output"),
     "c625d73eb868fcaa4a97f1a4b0a57b33ff5b37bb1a4a416ab533407352803348"),
    ("pfeiffer", 2, _adapter_text(2, "relu", "false", "false", "sublayer_output"),
     "87acd94305019fd2b37f499ab94cca9dfa566288bb79babb4a28a8b67f7e318f"),
    ("houlsby", None, _adapter_text(16, "swish", "true", "false", "sublayer_output"),
     "696ae3d73d881c37f9f7caf66c1c8a69b2e3678079f99969b4fc0b39287fc809"),
    ("houlsby", 2, _adapter_text(2, "swish", "true", "false", "sublayer_output"),
     "f8c561cc2e05214ca03fb83b37f0bb7b5ad4e3a81bcdacac8828a767fa811597"),
    ("bapna", None, _adapter_text(16, "relu", "false", "true", "after_original_ln"),
     "bfc58d13baccc0006d3313e0e00a6e2017271953a237568b3a409a4f5b821173"),
    ("bapna", 2, _adapter_text(2, "relu", "false", "true", "after_original_ln"),
     "760edd7e9bff896d6ad04353e964df322a0042c47b45f33b519415267390c82f"),
]

# adapters added in this order to AdapterModel(ModelConfig(), seed=0), each
# saved with the same zero-initialized head: (config, digest_adapter, package sha256)
ADAPTER_PINS = {
    "pfeiffer": ("pfeiffer",
                 "2e7f8dba62aee1547ddc75ed72a947658f7e7fbed9ebc33ddd59acc31f304ced",
                 "628060c6fab57c44b5ff9206de81c826cd7a958883c2da8409386aea6a47ca85"),
    "houlsby": ("houlsby",
                "2ec70e24e758a16be895c15ea658272729cf589d65ca4eac3cf5e3711c32fecd",
                "880be6536b0d54c3bd19b943e91713f0613ab988e32664eb90ede8bccdf23dae"),
    "bapna": ("bapna",
              "729a945c3d3936ebc136d65c83fcccd24e1341f24ac745c330618f8803182fd7",
              "f6c24a65c9b548e23d2ab877b76a1ea52249884ca1301929306900cd39650f80"),
    # every optional tensor of an insertion point, at both points
    "wrapped": (AdapterConfig(reduction_factor=8, non_linearity="gelu", mh_adapter=True,
                              new_ln_before=True, new_ln_after=True),
                "cebd432fed2a66768b5a711b91dcb3ddcadcc13de3c9389d5a1b5ddb98001557",
                "322d3b92dc71406a954cafa902990f58db3e95025249f0cca48ec9b31b7db990"),
}
# pack_archive of a seeded tiny package with a head and ARCHIVE_METADATA; hub
# indexes publish these digests, so the archive writer must not move a byte
ARCHIVE_METADATA = {"adapter_id": "a", "tags": [1, 2], "description": "\u00e9"}
ARCHIVE_SHA256 = "ffeb3b40259ceb3c30851f9ac259fcb4b9e090b3f0622229811a7311cbb3bbb4"
BASE_DIGEST = "04f2ecf08992b0827eb30ecaf098bf36d263af4d8ac30de1c7b8c1b3a77619f3"
CHECKPOINT_SHA256 = "03a2c1235b8b9dd22d3ce70a064163980211c2a42670b48dbdf0f23b2666e84c"


@pytest.mark.parametrize("config, text, digest", MODEL_PINS)
def test_model_descriptor_and_hash_are_pinned(config, text, digest):
    assert config.descriptor() == text
    assert config.config_hash() == digest


@pytest.mark.parametrize("name, reduction_factor, text, digest", PRESET_PINS)
def test_preset_descriptor_and_hash_are_pinned(name, reduction_factor, text, digest):
    cfg = preset(name, reduction_factor)
    assert cfg.descriptor() == text
    assert cfg.config_hash() == digest


def test_seeded_weights_packages_and_checkpoint_are_pinned(tmp_path):
    model = AdapterModel(ModelConfig(), seed=0)
    assert model.digest_base() == BASE_DIGEST
    model.add_head("task", 2)
    for name, (config, digest, package_sha) in ADAPTER_PINS.items():
        model.add_adapter(name, config=config)
        assert model.digest_adapter(name) == digest, name
        path = tmp_path / f"{name}.pkg"
        assert model.save_adapter(name, path, with_head="task") == package_sha, name
        assert package_io.file_sha256(path) == package_sha
    ckpt = tmp_path / "backbone.ckpt"
    assert package_io.save_backbone_checkpoint(ckpt, model.config, model.weights) == CHECKPOINT_SHA256
    assert hashlib.sha256(ckpt.read_bytes()).hexdigest() == CHECKPOINT_SHA256


def test_archive_is_pinned(tmp_path):
    model = AdapterModel(ModelConfig(hidden_size=8, num_layers=1, num_heads=2, ffn_size=16,
                                     vocab_size=64, max_seq_len=8), seed=0)
    model.add_adapter("probe", config="pfeiffer", reduction_factor=2)
    model.add_head("head", 2)
    pkg = tmp_path / "probe.pkg"
    model.save_adapter("probe", pkg, with_head="head")
    archive = tmp_path / "probe.zip"
    assert package_io.pack_archive(archive, pkg, ARCHIVE_METADATA) == ARCHIVE_SHA256
    assert package_io.file_sha256(archive) == ARCHIVE_SHA256
