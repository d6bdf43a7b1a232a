"""Property tests: malformed packages, archives, indexes and cards fail only in documented ways."""

import hashlib
import io
import zipfile

import pytest
import yaml
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from adapterkit import hub
from adapterkit import package_io as pio
from adapterkit.backbone import ModelConfig
from adapterkit.cli import main
from adapterkit.codec import MAX_YAML_DEPTH, load_yaml
from adapterkit.errors import AdapterKitError, MetadataError, PackageFormatError, RegistryError
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


@pytest.fixture(scope="module")
def runnable(tmp_path_factory):
    """A directory with a checkpoint, an archive of a package made for it, and an inputs file."""
    root = tmp_path_factory.mktemp("archive")
    model = AdapterModel(_TINY, seed=4)
    model.add_adapter("probe", config="pfeiffer", reduction_factor=2)
    model.add_head("head", 2)
    model.save_adapter("probe", root / "probe.pkg", with_head="head")
    pio.save_backbone_checkpoint(root / "base.ckpt", _TINY, model.weights)
    pio.pack_archive(root / "probe.zip", root / "probe.pkg", {"adapter_id": "probe", "tags": [1, 2]})
    (root / "inputs.txt").write_text("1 2 3\n4\n", encoding="utf-8")
    return root


def _mutate(data, original, positions):
    """``original`` truncated, or with one byte at one of ``positions`` flipped."""
    if data.draw(st.integers(0, 3), label="kind") == 0:
        return original[:data.draw(st.integers(0, len(original) - 1), label="length")]
    mutated = bytearray(original)
    mutated[data.draw(st.sampled_from(positions), label="position")] ^= data.draw(
        st.integers(1, 255), label="xor")
    return bytes(mutated)


def _zip_structure(archive):
    """Offsets of every byte of a zip file outside its members' stored data."""
    with zipfile.ZipFile(io.BytesIO(archive)) as zf:
        stored = set()
        for info in zf.infolist():
            start = info.header_offset + 30 + len(info.filename.encode("utf-8")) + len(info.extra)
            stored.update(range(start, start + info.compress_size))
    return [i for i in range(len(archive)) if i not in stored]


@_SETTINGS
@given(data=st.data())
def test_flipped_and_truncated_archives(runnable, tmp_path, data):
    # the members' own bytes are covered by their CRC and the package tests above
    archive = (runnable / "probe.zip").read_bytes()
    path = tmp_path / "mutated.zip"
    path.write_bytes(_mutate(data, archive, _zip_structure(archive)))
    try:
        pio.read_archive(path)
    except AdapterKitError:
        accepted = False
    else:
        accepted = True
    assert main(["run", "--checkpoint", str(runnable / "base.ckpt"), "--archive", str(path),
                 "--inputs", str(runnable / "inputs.txt")]) == (0 if accepted else 2)


@pytest.fixture(scope="module")
def index_text():
    cards = [dict(adapter_id=f"task-{i}", adapter_type="text_task", level2="sentiment", level3=f"set-{i}",
                  model_type="mini-bert", model_config_hash="a" * 64, adapter_config_hash="b" * 64,
                  url=f"file:///tmp/{i}.zip", sha256="c" * 64, reduction_factor=16) for i in range(2)]
    return hub.build_index([hub.ingest_metadata(card) for card in cards])


@_SETTINGS
@given(data=st.data())
def test_flipped_truncated_and_nested_indexes(index_text, tmp_path, data):
    original = index_text.encode("utf-8")
    mutated = _mutate(data, original, range(len(original)))
    if data.draw(st.booleans(), label="nest"):
        mutated = b"[" * data.draw(st.integers(1, 200_000), label="depth") + mutated
    try:
        hub.parse_index(mutated.decode("utf-8", "surrogateescape"))
    except RegistryError:
        pass
    path = tmp_path / "mutated.json"
    path.write_bytes(mutated)
    assert main(["explore", "--index", str(path)]) in (0, 2)


def test_deeply_nested_cards_and_archive_metadata(runnable, tmp_path):
    # the loader stops at MAX_YAML_DEPTH; libyaml 0.2.5's CSafeLoader crashes the
    # interpreter on "[" * 40_000, so a switch to it cannot pass here
    for depth in (1_000, 100_000):
        with pytest.raises(MetadataError):
            hub.ingest_metadata("[" * depth)
    data = (runnable / "probe.pkg").read_bytes()
    nested = tmp_path / "nested.zip"
    nested.write_bytes(pio._archive_bytes(data, pio.parse_adapter_package(data), b"[" * 1_000))
    with pytest.raises(PackageFormatError, match="nested deeper than"):
        pio.read_archive(nested)


def test_yaml_depth_bound():
    deepest = "[" * MAX_YAML_DEPTH + "]" * MAX_YAML_DEPTH
    assert load_yaml(deepest) == yaml.safe_load(deepest)
    with pytest.raises(yaml.YAMLError, match="nested deeper than"):
        load_yaml(f"[{deepest}]")
    card = "adapter_id: x\nlevel2: {a: [1, {b: c}]}\n"
    assert load_yaml(card) == yaml.safe_load(card)
