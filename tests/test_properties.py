"""Property tests: malformed packages and cards fail only in documented ways."""

import hashlib

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from adapterkit import hub
from adapterkit import package_io as pio
from adapterkit.backbone import ModelConfig
from adapterkit.cli import main
from adapterkit.errors import AdapterKitError, MetadataError
from adapterkit.manager import AdapterModel
from conftest import split_package

_SETTINGS = settings(max_examples=150, deadline=None, derandomize=True, database=None,
                     suppress_health_check=[HealthCheck.function_scoped_fixture])
_TINY = ModelConfig(hidden_size=8, num_layers=1, num_heads=2, ffn_size=16,
                    vocab_size=64, max_seq_len=8)


@pytest.fixture(scope="module")
def package(tmp_path_factory):
    model = AdapterModel(_TINY, seed=3)
    model.add_adapter("probe", config="houlsby", reduction_factor=2)
    model.add_head("head", 2)
    path = tmp_path_factory.mktemp("props") / "probe.pkg"
    model.save_adapter("probe", path, with_head="head")
    return path.read_bytes()


def _check(data, path):
    """Parse ``data`` and validate it on the command line; both must agree."""
    try:
        pkg = pio.parse_adapter_package(data)
    except AdapterKitError:
        accepted = False
    else:
        accepted = True
        AdapterModel(pkg.model_config, seed=0).load_adapter(pkg)  # the registry takes it
    path.write_bytes(data)
    assert main(["validate", "--package", str(path)]) == (0 if accepted else 2)


@_SETTINGS
@given(data=st.data())
def test_flipped_and_truncated_packages(package, tmp_path, data):
    if data.draw(st.booleans(), label="truncate"):
        mutated = package[:data.draw(st.integers(0, len(package) - 1), label="length")]
    else:
        pos = data.draw(st.integers(0, len(package) - 1), label="position")
        mutated = bytearray(package)
        mutated[pos] ^= data.draw(st.integers(1, 255), label="xor")
    _check(bytes(mutated), tmp_path / "mutated.pkg")


@_SETTINGS
@given(data=st.data())
def test_resealed_header_and_manifest_mutations(package, tmp_path, data):
    header, manifest, _ = split_package(package)
    texts_end = 16 + len(header) + 8 + len(manifest.encode("utf-8"))
    body = bytearray(package[:-32])
    body[data.draw(st.integers(16, texts_end - 1), label="position")] = data.draw(
        st.integers(0, 255), label="byte")
    _check(bytes(body) + hashlib.sha256(body).digest(), tmp_path / "resealed.pkg")


_SCALARS = st.one_of(st.none(), st.booleans(), st.integers(), st.floats(), st.text(max_size=8))
_KEYS = st.one_of(st.sampled_from(hub._REQUIRED + hub._OPTIONAL), _SCALARS)
_VALUES = st.one_of(_SCALARS, st.sampled_from(["http://[", "file:///a.zip", "a" * 64, "text_task"]),
                    st.lists(st.integers(), max_size=2))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(card=st.dictionaries(_KEYS, _VALUES, max_size=20))
def test_cards_with_mixed_keys_raise_only_metadata_errors(card):
    try:
        hub.ingest_metadata(card)
    except MetadataError:
        pass
