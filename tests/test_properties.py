"""Property tests: what a writer produces reads back, and malformed packages, archives,
indexes and cards fail only in documented ways."""

import hashlib
import importlib.util
import io
import json
import os
import subprocess
import sys
import zipfile
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
import yaml
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from adapterkit import hub
from adapterkit import package_io as pio
from adapterkit.adapters import PRESET_NAMES, AdapterConfig, preset
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
    """Parse ``data`` and validate it on the command line; both must agree, and an accepted
    package must be exactly what the writer writes for what was read."""
    try:
        pkg = pio.parse_adapter_package(data)
    except AdapterKitError:
        accepted = False
    else:
        accepted = True
        model = AdapterModel(pkg.model_config, seed=0)
        name = model.load_adapter(pkg)  # the registry takes it
        model.save_adapter(name, path, with_head=pkg.head and pkg.head[0])
        assert path.read_bytes() == data
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


_SHAPES = st.builds(
    lambda heads, head_dim, layers, ffn, vocab, seq: ModelConfig(
        hidden_size=heads * head_dim, num_layers=layers, num_heads=heads, ffn_size=ffn,
        vocab_size=vocab, max_seq_len=seq),
    st.integers(1, 3), st.integers(1, 4), st.integers(1, 2), st.integers(1, 8), st.integers(1, 16),
    st.integers(1, 8))
_ADAPTER_CONFIGS = st.sampled_from([preset(name) for name in PRESET_NAMES]
                                   + [AdapterConfig(new_ln_before=True, new_ln_after=True)])


@pytest.mark.filterwarnings("ignore::adapterkit.adapters.BottleneckClampWarning")
@_SETTINGS
@given(shape=_SHAPES, config=_ADAPTER_CONFIGS, reduction=st.integers(1, 4), labels=st.integers(2, 4),
       seed=st.integers(0, 2**16))
def test_every_file_a_writer_produces_reads_back(tmp_path, shape, config, reduction, labels, seed):
    model = AdapterModel(shape, seed=seed)
    model.add_adapter("probe", config=config, reduction_factor=reduction)
    model.add_head("head", labels)
    rng = np.random.default_rng(seed)
    for _, t, _ in model.named_parameters():
        t.data = rng.standard_normal(t.shape)
    pio.save_backbone_checkpoint(tmp_path / "base.ckpt", shape, model.weights)
    model.save_adapter("probe", tmp_path / "probe.pkg", with_head="head")

    loaded_config, weights = pio.load_backbone_checkpoint(tmp_path / "base.ckpt")
    assert loaded_config == shape
    consumer = AdapterModel(loaded_config, weights=weights)
    consumer.load_adapter(tmp_path / "probe.pkg")
    for kind, stored in (("base", np.float64), ("adapter", np.float32), ("head", np.float32)):
        written = [(n, t.data.astype(stored)) for n, t, owner in model.named_parameters() if owner == kind]
        read = [(n, t.data) for n, t, owner in consumer.named_parameters() if owner == kind]
        assert [n for n, _ in read] == [n for n, _ in written]
        assert all(np.array_equal(a, b) for (_, a), (_, b) in zip(read, written))


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


def _zipfile_archive(members):
    """The archive zipfile writes for three stored members dated 1980-01-01 on a unix system."""
    buf = io.BytesIO()
    with zipfile.ZipFile(buf, "w", zipfile.ZIP_STORED) as zf:
        for name, member in zip(pio._ARCHIVE_MEMBERS, members):
            info = zipfile.ZipInfo(name, date_time=(1980, 1, 1, 0, 0, 0))
            info.create_system = 3
            zf.writestr(info, member)
    return buf.getvalue()


@_SETTINGS
@given(package=st.binary(max_size=4096), config=st.text(max_size=1024), metadata=st.binary(max_size=4096))
def test_archive_bytes_are_what_zipfile_writes(package, config, metadata):
    pkg = SimpleNamespace(adapter_config=SimpleNamespace(descriptor=lambda: config))
    assert pio._archive_bytes(package, pkg, metadata) == _zipfile_archive(
        (package, config.encode("utf-8"), metadata))


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


# one line per hostile input in argv[2:]: the errors ingest_metadata and read_archive raise,
# each with whether it names the depth bound, after the event source's class name
_NESTING_CHILD = """
import json, sys
from pathlib import Path
import yaml
yaml.__with_libyaml__ = sys.argv[1] == "libyaml"
from adapterkit import codec, hub, package_io as pio
print(codec._DepthBoundLoader.__mro__[1].__name__)
for card in sys.argv[2:]:
    errors = []
    for read, arg in ((hub.ingest_metadata, Path(card).read_text(encoding="utf-8")),
                      (pio.read_archive, card + ".zip")):
        try:
            read(arg)
        except Exception as exc:
            errors.append([type(exc).__name__, "nested deeper than" in str(exc)])
    print(json.dumps(errors))
"""


def test_deeply_nested_cards_and_archive_metadata(runnable, tmp_path):
    # every nesting construct, far past MAX_YAML_DEPTH; libyaml's own composer crashes the
    # interpreter on "[" * 40_000, so each event source reads them in a child process,
    # where such a crash fails this test instead of ending the run
    hostile = ["[" * 40_000, "[" * 100_000, "- " * 40_000 + "x", "{a: " * 40_000, "[{" * 20_000,
               "".join(" " * depth + "k:\n" for depth in range(100))]
    data = (runnable / "probe.pkg").read_bytes()
    pkg = pio.parse_adapter_package(data)
    cards = []
    for i, text in enumerate(hostile):
        card = tmp_path / f"{i}.yaml"
        card.write_text(text, encoding="utf-8")
        Path(f"{card}.zip").write_bytes(pio._archive_bytes(data, pkg, text.encode("utf-8")))
        cards.append(str(card))
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    sources = {"pyyaml": "Reader"} | ({"libyaml": "CParser"} if yaml.__with_libyaml__ else {})
    for source, base in sources.items():
        child = subprocess.run([sys.executable, "-c", _NESTING_CHILD, source, *cards], env=env,
                               capture_output=True, text=True, timeout=120)
        assert child.returncode == 0, (source, child.returncode, child.stderr[-2000:])
        lines = child.stdout.splitlines()
        assert lines[0] == base
        assert [json.loads(line) for line in lines[1:]] == [
            [["MetadataError", True], ["PackageFormatError", True]]] * len(hostile)


def _codec_on_pyyaml_parser(monkeypatch):
    """A private copy of ``adapterkit.codec``, built as it is where PyYAML has no libyaml."""
    spec = importlib.util.find_spec("adapterkit.codec")
    module = importlib.util.module_from_spec(spec)
    with monkeypatch.context() as patch:
        patch.setattr(yaml, "__with_libyaml__", False)
        spec.loader.exec_module(module)
    return module


# load_yaml must read each as pure-Python yaml.safe_load does, or fail where it fails
_PARITY_CORPUS = [
    "base: &b {x: 1, y: 2}\nuse: *b\nlist: [&s str, *s]\n",
    "a: &x [*x]\n",
    "base: &b {x: 1, y: 2}\nmerged:\n  <<: *b\n  y: 3\n",
    "m: {<<: [{a: 1}, {b: 2}], c: 3}\n",
    "s: !!set {a, b}\no: !!omap [a: 1, b: 2]\nb: !!binary aGVsbG8=\n",
    "t: 2001-12-14t21:59:43.10-05:00\nd: 2002-12-14\ns: 2001-12-14 21:59:43.10 -5\n",
    "t: 2001-13-45\n", "t: 2001-02-30T25:00:00Z\n", "t: !!timestamp 2001-1-1x\n",
    "n: [0x1F, 0o17, 1_000, 1:20, .inf, -.inf, 017, 0b101, +12, 1e3, 1.5e+3]\n",
    "\ufeffa: 1\n", "a: 1\r\nb: [2, 3]\r\n",
    "%YAML 1.1\n---\na: 1\n", "%YAML 2.0\n---\na: 1\n", "a: 1\n---\nb: 2\n", "a: *nope\n",
    "a: x\x00y\n", "a: x\x07y\n", "a: x\x7fy\n", "a: x\x85y\n", "a: x\x86y\n", "a: x\ufffey\n",
    "a: x\u2028y\n", "a: 'x\u2028y'\n",
    "k" * 2000 + ": v\n", "? " + "k" * 2000 + "\n: v\n",
    "a: x\ud800y\n",  # ReaderError from PyYAML, UnicodeEncodeError on the way into libyaml
    "", "- yes\n- no\n- on\n- y\n- ~\n",
]


def _outcome(load, text):
    try:
        return repr(load(text))  # repr: == recurses without end on a recursive alias
    except Exception as exc:
        return exc


def test_yaml_depth_bound(monkeypatch):
    deepest = "[" * MAX_YAML_DEPTH + "]" * MAX_YAML_DEPTH
    assert load_yaml(deepest) == yaml.safe_load(deepest)
    with pytest.raises(yaml.YAMLError, match="nested deeper than"):
        load_yaml(f"[{deepest}]")
    for text in ("a: 2001-13-45\n", "a: !!int ''\n", "a: !!bool x\n", "a: !!timestamp x\n"):
        with pytest.raises(yaml.YAMLError):  # no bare error from a value yaml cannot build
            load_yaml(text)
    card = "adapter_id: x\nlevel2: {a: [1, {b: c}]}\n"
    assert load_yaml(card) == yaml.safe_load(card)
    fallback = _codec_on_pyyaml_parser(monkeypatch)
    assert fallback._DepthBoundLoader.__mro__[1] is yaml.reader.Reader
    for text in _PARITY_CORPUS:
        expected = _outcome(yaml.safe_load, text)
        for loader in (load_yaml, fallback.load_yaml):
            got = _outcome(loader, text)
            if isinstance(expected, str):
                assert got == expected, text[:60]
            else:  # safe_load's bare ValueError on 2001-13-45 is load_yaml's YAMLError
                assert isinstance(got, yaml.YAMLError), (text[:60], expected, got)
