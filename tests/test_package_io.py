import dataclasses
import errno
import hashlib
import math
import os
import sys
import tracemalloc
import zipfile
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from adapterkit import package_io as pio
from adapterkit.adapters import AdapterConfig, adapter_layout, count_adapter_params, preset
from adapterkit.backbone import ModelConfig, encode, init_backbone
from adapterkit.cli import main
from adapterkit.codec import MAX_YAML_DEPTH
from adapterkit.errors import ChecksumError, PackageFormatError
from adapterkit.manager import AdapterModel, new_adapter_entry
from conftest import join_package, negative_size_package, reheader, split_package


def _random_entry(model_config, config, seed, name="probe"):
    rng = np.random.default_rng(seed)
    entry = new_adapter_entry(model_config, name, "text_task", config, rng)
    for layer in entry.weights:
        for w in layer.values():
            w.w_up.data = rng.standard_normal(w.w_up.shape)
            w.b_up.data = rng.standard_normal(w.b_up.shape)
    return entry


def test_round_trip_is_bitwise_at_f32(tmp_path, tiny_config):
    cfg = AdapterConfig(reduction_factor=2)
    entry = _random_entry(tiny_config, cfg, seed=0)
    entry.trained = True
    path = tmp_path / "probe.pkg"
    digest = pio.save_adapter_package(path, tiny_config, entry)
    assert digest == pio.file_sha256(path)

    pkg = pio.load_adapter_package(path)
    assert pkg.name == "probe"
    assert pkg.adapter_type == "text_task"
    assert pkg.trained
    assert pkg.model_config == tiny_config
    assert pkg.adapter_config == cfg
    assert pkg.head is None
    for name, t in entry.named_tensors():
        stored = pkg.tensors[name]
        assert np.array_equal(stored, t.data.astype(np.float32).astype(np.float64))


def test_round_trip_preserves_head(tmp_path, tiny_config):
    model = AdapterModel(tiny_config, seed=3)
    model.add_adapter("a", reduction_factor=2)
    model.add_head("cls", 4)
    model.get_head("cls").w.data[:] = np.arange(tiny_config.hidden_size * 4).reshape(-1, 4)
    path = tmp_path / "a.pkg"
    model.save_adapter("a", path, with_head="cls")
    pkg = pio.load_adapter_package(path)
    head_name, num_labels, w, b = pkg.head
    assert head_name == "cls" and num_labels == 4
    assert np.array_equal(w, model.get_head("cls").w.data.astype(np.float32))
    assert np.array_equal(b, model.get_head("cls").b.data.astype(np.float32))


def test_blob_is_exactly_four_bytes_per_param(tmp_path, tiny_config):
    for config in (preset("pfeiffer", 2), preset("houlsby", 2), preset("bapna", 4)):
        entry = _random_entry(tiny_config, config, seed=1)
        path = tmp_path / "x.pkg"
        pio.save_adapter_package(path, tiny_config, entry)
        pkg = pio.load_adapter_package(path)
        want_params = count_adapter_params(tiny_config, config)
        assert pkg.adapter_param_count == want_params
        assert pkg.adapter_blob_bytes == 4 * want_params


def test_every_corrupted_byte_is_detected(tmp_path, tiny_config):
    entry = _random_entry(tiny_config, AdapterConfig(reduction_factor=2), seed=2)
    path = tmp_path / "c.pkg"
    pio.save_adapter_package(path, tiny_config, entry)
    data = bytearray(path.read_bytes())
    positions = range(len(data)) if len(data) <= 8192 else range(0, len(data), 37)
    for pos in positions:
        corrupted = bytearray(data)
        corrupted[pos] ^= 0xFF
        with pytest.raises((ChecksumError, PackageFormatError)):
            pio.parse_adapter_package(bytes(corrupted))


def test_truncation_is_detected(tmp_path, tiny_config):
    entry = _random_entry(tiny_config, AdapterConfig(reduction_factor=2), seed=4)
    path = tmp_path / "t.pkg"
    pio.save_adapter_package(path, tiny_config, entry)
    data = path.read_bytes()
    for cut in (0, 1, 3, 4, 8, len(data) // 2, len(data) - 1):
        with pytest.raises((ChecksumError, PackageFormatError)):
            pio.parse_adapter_package(data[:cut])
    with pytest.raises(PackageFormatError):
        pio.parse_adapter_package(b"NOTA" + data[4:])


def test_save_rejects_mismatched_tensors(tmp_path, tiny_config):
    entry = _random_entry(tiny_config, AdapterConfig(reduction_factor=2), seed=5)
    entry.config = AdapterConfig(reduction_factor=4)  # weights no longer agree
    with pytest.raises(PackageFormatError):
        pio.save_adapter_package(tmp_path / "bad.pkg", tiny_config, entry)


def test_checkpoint_writer_refuses_tensors_its_header_does_not_declare(tmp_path, tiny_config):
    path = tmp_path / "bad.ckpt"
    with pytest.raises(PackageFormatError, match="do not match the layout"):
        pio.save_backbone_checkpoint(path, tiny_config, AdapterModel(ModelConfig()).weights)
    assert list(tmp_path.iterdir()) == []


def test_package_writer_refuses_a_head_resized_after_install(tmp_path, tiny_model):
    tiny_model.add_adapter("a", reduction_factor=2)
    tiny_model.add_head("h", 2)
    tiny_model.get_head("h").b.data = np.zeros(3)
    with pytest.raises(PackageFormatError, match="do not match the layout"):
        tiny_model.save_adapter("a", tmp_path / "a.pkg", with_head="h")
    assert list(tmp_path.iterdir()) == []


def test_save_leaves_no_temp_files(tmp_path, tiny_config):
    entry = _random_entry(tiny_config, AdapterConfig(reduction_factor=2), seed=6)
    path = tmp_path / "clean.pkg"
    pio.save_adapter_package(path, tiny_config, entry)
    pio.save_adapter_package(path, tiny_config, entry)  # overwrite in place
    assert [p.name for p in tmp_path.iterdir()] == ["clean.pkg"]


def test_concurrent_saves_to_one_path(tmp_path, tiny_config):
    entry = _random_entry(tiny_config, AdapterConfig(reduction_factor=2), seed=15)
    path = tmp_path / "shared.pkg"

    def save_repeatedly():
        for _ in range(50):
            pio.save_adapter_package(path, tiny_config, entry)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=2) as pool:
            for future in [pool.submit(save_repeatedly) for _ in range(2)]:
                future.result(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert pio.load_adapter_package(path).name == "probe"
    assert [p.name for p in tmp_path.iterdir()] == ["shared.pkg"]


def test_saves_hold_one_stored_copy_of_the_payload(tmp_path):
    """A save's memory peak stays near the file size: no whole-payload byte copies."""
    config = ModelConfig(hidden_size=256, num_layers=2, num_heads=4, ffn_size=512,
                         vocab_size=64, max_seq_len=8)
    entry = _random_entry(config, preset("houlsby", 2), seed=18)
    weights = init_backbone(config, np.random.default_rng(18))
    for path, save in ((tmp_path / "a.pkg", lambda p: pio.save_adapter_package(p, config, entry)),
                       (tmp_path / "b.ckpt", lambda p: pio.save_backbone_checkpoint(p, config, weights))):
        tracemalloc.start()
        try:
            save(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        size = path.stat().st_size
        assert size >= 2**20 and peak <= 1.25 * size, (path.name, size, peak)


def _fallocate_raising(code):
    def fallocate(fd, offset, size):
        raise OSError(code, os.strerror(code))
    return fallocate


def test_replacing_save_preallocates_the_final_size(tmp_path, tiny_config, monkeypatch):
    entry = _random_entry(tiny_config, AdapterConfig(reduction_factor=2), seed=21)
    path = tmp_path / "probe.pkg"
    calls = []
    fallocate = os.posix_fallocate

    def spy(fd, offset, size):
        calls.append((offset, size))
        fallocate(fd, offset, size)

    monkeypatch.setattr(os, "posix_fallocate", spy)
    pio.save_adapter_package(path, tiny_config, entry)  # a new name: nothing to write back
    assert calls == []
    pio.save_adapter_package(path, tiny_config, entry)  # over the existing package
    assert calls == [(0, path.stat().st_size)]
    chunks = [b"abc", bytearray(b"defg"), memoryview(b"hi")]
    listed, streamed = tmp_path / "listed", tmp_path / "streamed"
    for target in (listed, streamed):
        target.write_bytes(b"old")
    calls.clear()
    pio._atomic_write_bytes(listed, chunks)
    pio._atomic_write_bytes(streamed, (c for c in chunks))  # drawn once, but summed first
    assert calls == [(0, 9), (0, 9)]
    assert streamed.read_bytes() == listed.read_bytes() == b"abcdefghi"


def test_failed_preallocation_keeps_the_earlier_file(tmp_path, tiny_config, monkeypatch):
    path = tmp_path / "probe.pkg"
    pio.save_adapter_package(path, tiny_config, _random_entry(tiny_config, AdapterConfig(reduction_factor=2), seed=22))
    before = path.read_bytes()
    monkeypatch.setattr(os, "posix_fallocate", _fallocate_raising(errno.ENOSPC))
    other = _random_entry(tiny_config, AdapterConfig(reduction_factor=2), seed=23)
    with pytest.raises(OSError) as info:
        pio.save_adapter_package(path, tiny_config, other)
    assert info.value.errno == errno.ENOSPC
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["probe.pkg"]


@pytest.mark.parametrize("mode", ["missing", errno.EOPNOTSUPP, errno.ENOSYS, errno.EINVAL])
def test_saves_without_preallocation_write_the_same_bytes(tmp_path, tiny_config, monkeypatch, mode):
    entry = _random_entry(tiny_config, AdapterConfig(reduction_factor=2), seed=24)
    pio.save_adapter_package(tmp_path / "normal.pkg", tiny_config, entry)
    if mode == "missing":
        monkeypatch.delattr(os, "posix_fallocate")
    else:
        monkeypatch.setattr(os, "posix_fallocate", _fallocate_raising(mode))
    path = tmp_path / "fallback.pkg"
    for _ in range(2):  # a new file, then one over it
        pio.save_adapter_package(path, tiny_config, entry)
        assert path.read_bytes() == (tmp_path / "normal.pkg").read_bytes()
    assert sorted(p.name for p in tmp_path.iterdir()) == ["fallback.pkg", "normal.pkg"]


def test_file_sha256_reads_through_one_bounded_buffer(tmp_path):
    rng = np.random.default_rng(25)
    for size, bound in ((5 * 2**20 + 3, 2**20 + 2**16), (10_000, 10_000 + 2**16), (0, 2**16)):
        data = rng.bytes(size)
        path = tmp_path / f"{size}.bin"
        path.write_bytes(data)
        tracemalloc.start()
        try:
            digest = pio.file_sha256(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert digest == hashlib.sha256(data).hexdigest()
        assert peak <= bound, (size, peak)


def test_expected_tensor_order_matches_entry(tiny_config):
    for config in (preset("pfeiffer", 2), preset("houlsby", 4), preset("bapna", 2)):
        entry = _random_entry(tiny_config, config, seed=7)
        want = [(name, t.data.shape) for name, t in entry.named_tensors()]
        assert list(adapter_layout(tiny_config, config)) == want


def test_checkpoint_round_trip_bit_exact(tmp_path, tiny_config):
    weights = init_backbone(tiny_config, np.random.default_rng(8))
    path = tmp_path / "backbone.ckpt"
    pio.save_backbone_checkpoint(path, tiny_config, weights)
    config2, weights2 = pio.load_backbone_checkpoint(path)
    assert config2 == tiny_config
    for (na, ta), (nb, tb) in zip(weights.named_tensors(), weights2.named_tensors()):
        assert na == nb
        assert np.array_equal(ta.data, tb.data)  # float64 exact
    ids = [1, 2, 3]
    assert np.array_equal(encode(tiny_config, weights, ids).hidden.data,
                          encode(config2, weights2, ids).hidden.data)


def test_kind_fields_keep_formats_apart(tmp_path, tiny_config):
    weights = init_backbone(tiny_config, np.random.default_rng(9))
    ckpt = tmp_path / "b.ckpt"
    pio.save_backbone_checkpoint(ckpt, tiny_config, weights)
    with pytest.raises(PackageFormatError):
        pio.load_adapter_package(ckpt)
    entry = _random_entry(tiny_config, AdapterConfig(reduction_factor=2), seed=10)
    pkg = tmp_path / "a.pkg"
    pio.save_adapter_package(pkg, tiny_config, entry)
    with pytest.raises(PackageFormatError):
        pio.load_backbone_checkpoint(pkg)


def test_header_must_be_canonical(tmp_path, tiny_config):
    entry = _random_entry(tiny_config, AdapterConfig(reduction_factor=2), seed=13)
    path = tmp_path / "h.pkg"
    pio.save_adapter_package(path, tiny_config, entry)
    data = path.read_bytes()
    pio.parse_adapter_package(data)
    # same-length rewrites keep every length field valid; the digest is resealed
    for old, new in ((b"trained=false", b"trained=FALSE"),
                     (b"version=1", b"kind=adap"),  # duplicate key
                     (b"layer_norm_epsilon=1e-12", b"layer_norm_epsilon=1E-12"),  # same float
                     (b"--adapter-config--", b"--adapter-confix--")):  # no adapter section
        body = data[:-32].replace(old, new, 1)
        assert len(new) == len(old) and body != data[:-32]
        with pytest.raises(PackageFormatError):
            pio.parse_adapter_package(body + hashlib.sha256(body).digest())
    # a reader derives every field but the writer's choices, so resealing any other one refuses
    header, manifest, blob = split_package(data)
    bad = tmp_path / "resealed.pkg"
    for old, new in ((b"version=1\n", b"version=7\n"),
                     (b"version=1\n", b"version=1\nzzz=1\n"),
                     (b"version=1\n", b""),
                     (b"version=1\nkind=adapter\n", b"kind=adapter\nversion=1\n"),
                     (b"dtype=f32\n", b"dtype=f64\n")):
        assert old in header
        bad.write_bytes(join_package(header.replace(old, new, 1), manifest, blob))
        with pytest.raises(PackageFormatError):
            pio.load_adapter_package(bad)
        assert main(["validate", "--package", str(bad)]) == 2, new
    ckpt = tmp_path / "b.ckpt"
    pio.save_backbone_checkpoint(ckpt, tiny_config, init_backbone(tiny_config, np.random.default_rng(13)))
    header, manifest, blob = split_package(ckpt.read_bytes())
    ckpt.write_bytes(join_package(header.replace(b"version=1\n", b"version=7\n", 1), manifest, blob))
    with pytest.raises(PackageFormatError):
        pio.load_backbone_checkpoint(ckpt)
    # the name is a writer's choice: a renamed package loads and saves back to the same bytes
    renamed = reheader(data, name="prabe")
    pkg = pio.parse_adapter_package(renamed)
    assert pkg.name == "prabe"
    model = AdapterModel(tiny_config)
    pio.save_adapter_package(path, tiny_config, model.get_adapter(model.load_adapter(pkg)))
    assert path.read_bytes() == renamed


def test_package_writer_refuses_identities_the_reader_refuses(tmp_path, tiny_model):
    tiny_model.add_adapter("a", reduction_factor=2)
    tiny_model.add_head("h", 2)
    entry, head = tiny_model.get_adapter("a"), tiny_model.get_head("h")
    for bad_entry, bad_head in ((dataclasses.replace(entry, name="a b"), None),
                                (dataclasses.replace(entry, adapter_type="text_image"), None),
                                (entry, dataclasses.replace(head, name="c/s"))):
        with pytest.raises(PackageFormatError, match="bad package header"):
            pio.save_adapter_package(tmp_path / "a.pkg", tiny_model.config, bad_entry, bad_head)
    assert list(tmp_path.iterdir()) == []


def test_manifest_must_be_what_the_layout_renders(tmp_path, tiny_config):
    entry = _random_entry(tiny_config, AdapterConfig(reduction_factor=2), seed=14)
    path = tmp_path / "m.pkg"
    pio.save_adapter_package(path, tiny_config, entry)
    header, manifest, blob = split_package(path.read_bytes())
    pio.parse_adapter_package(join_package(header, manifest, blob))
    first, rest = manifest.split("\n", 1)
    name, shape, offset, nbytes, digest = first.split(" ")
    for bad in (manifest + "\n",  # blank line
                f"{name} {shape} +{offset} {nbytes} {digest}\n{rest}",
                f"{name} {shape} {offset} {nbytes}  {digest}\n{rest}",
                rest + first + "\n",  # reordered
                "",  # no lines
                manifest.rsplit("\n", 2)[0] + "\n"):  # last line missing
        with pytest.raises(PackageFormatError):
            pio.parse_adapter_package(join_package(header, bad, blob))
    with pytest.raises(PackageFormatError):
        pio.parse_adapter_package(negative_size_package(tmp_path))
    ckpt = tmp_path / "b.ckpt"
    pio.save_backbone_checkpoint(ckpt, tiny_config, init_backbone(tiny_config, np.random.default_rng(15)))
    header, manifest, blob = split_package(ckpt.read_bytes())
    ckpt.write_bytes(join_package(header, manifest.rsplit("\n", 2)[0] + "\n", blob))
    with pytest.raises(PackageFormatError):
        pio.load_backbone_checkpoint(ckpt)


def test_archive_round_trip_and_determinism(tmp_path, tiny_config):
    entry = _random_entry(tiny_config, AdapterConfig(reduction_factor=2), seed=11)
    pkg_path = tmp_path / "a.pkg"
    pio.save_adapter_package(pkg_path, tiny_config, entry)
    meta = {"adapter_id": "a", "model_type": tiny_config.model_type, "version": "1"}
    zip_a = tmp_path / "a.zip"
    zip_b = tmp_path / "b.zip"
    sha_a = pio.pack_archive(zip_a, pkg_path, meta)
    sha_b = pio.pack_archive(zip_b, pkg_path, meta)
    assert sha_a == sha_b
    assert zip_a.read_bytes() == zip_b.read_bytes()

    pkg, metadata = pio.read_archive(zip_a)
    assert pkg.file_sha256 == pio.file_sha256(pkg_path)
    assert pkg.adapter_config == entry.config
    assert metadata == meta


def _headed_package(tmp_path, tiny_config, seed):
    """(path, bytes, decoded package) of an adapter package with a head."""
    model = AdapterModel(tiny_config, seed=seed)
    model.add_adapter("probe", reduction_factor=2)
    model.add_head("cls", 2)
    path = tmp_path / "probe.pkg"
    model.save_adapter("probe", path, with_head="cls")
    return path, path.read_bytes(), pio.load_adapter_package(path)


def test_read_archive_rejects_bad_inputs(tmp_path, tiny_config):
    not_zip = tmp_path / "no.zip"
    not_zip.write_bytes(b"definitely not a zip")
    with pytest.raises(PackageFormatError):
        pio.read_archive(not_zip)
    partial = tmp_path / "partial.zip"
    with zipfile.ZipFile(partial, "w") as zf:
        zf.writestr("adapter.pkg", b"x")
    with pytest.raises(PackageFormatError, match="stored members"):
        pio.read_archive(partial)
    _, data, pkg = _headed_package(tmp_path, tiny_config, seed=13)
    bad = tmp_path / "bad.zip"
    for metadata, fault in ((b"a: [unclosed\n", "ParserError"), (b"\xff\xfe", "UnicodeDecodeError"),
                            (b"- 1\n", "must be a mapping"), (b"a: 2001-13-45\n", "month must be in"),
                            (b"a: !!bool x\n", "KeyError")):
        bad.write_bytes(pio._archive_bytes(data, pkg, metadata))
        with pytest.raises(PackageFormatError, match=fault):
            pio.read_archive(bad)


def test_read_archive_refuses_each_framing_fault(tmp_path, tiny_config):
    path, _, _ = _headed_package(tmp_path, tiny_config, seed=20)
    good = tmp_path / "good.zip"
    pio.pack_archive(good, path, {"adapter_id": "probe"})
    archive = good.read_bytes()
    second = 30 + len(pio.ARCHIVE_PACKAGE) + int.from_bytes(archive[18:22], "little")

    def first_header(at, value):  # the first local header with the field at ``at`` set to ``value``
        return archive[:at] + value + archive[at + len(value):]

    fourth = tmp_path / "fourth.zip"
    fourth.write_bytes(archive)
    with zipfile.ZipFile(fourth, "a") as zf:
        zf.writestr(zipfile.ZipInfo("extra.txt", (1980, 1, 1, 0, 0, 0)), b"x")
    flipped_member = bytearray(archive)
    flipped_member[second - 1] ^= 1  # the package's last byte, which its own digest also covers
    for name, data, fault in (
            ("name", first_header(30, b"adapter.pkh"), "stored members"),
            ("deflated", first_header(8, (8).to_bytes(2, "little")), "stored members"),
            ("data-descriptor", first_header(6, (8).to_bytes(2, "little")), "stored members"),
            ("crc", first_header(14, (int.from_bytes(archive[14:18], "little") ^ 1).to_bytes(4, "little")),
             "adapter.pkg does not match its CRC-32"),
            ("member-byte", bytes(flipped_member), "adapter.pkg does not match its CRC-32"),
            ("fourth-member", fourth.read_bytes(), "not in the form pack_archive writes"),
            ("trailing", archive + b"\0", "not in the form pack_archive writes"),
            ("first-header-cut", archive[:29], "stored members"),
            ("first-member-cut", archive[:second - 1], "stored members"),
            ("second-header-cut", archive[:second + 29], "stored members")):
        bad = tmp_path / f"{name}.zip"
        bad.write_bytes(data)
        with pytest.raises(PackageFormatError, match=fault):
            pio.read_archive(bad)


def test_archives_that_need_zip64_records_are_refused(tmp_path, tiny_config, monkeypatch):
    """Under a bound lowered to a few KB, the writer refuses before writing a byte and the reader
    refuses an archive written under the real bound, for a member and for the central directory."""
    path, data, _ = _headed_package(tmp_path, tiny_config, seed=21)
    member_bound = math.ceil(len(data) * 1.05)  # the package is the largest member it admits
    padded = {"adapter_id": "probe", "pad": "x" * (member_bound // 10)}
    out = tmp_path / "out.zip"
    for limit, metadata, fault in (
            (member_bound - 1, {"adapter_id": "probe"}, "member adapter.pkg would need zip64 records"),
            (member_bound, padded, "central directory would need zip64 records")):
        archive = tmp_path / f"{limit}.zip"
        pio.pack_archive(archive, path, metadata)
        with monkeypatch.context() as patch:
            patch.setattr(pio, "_ZIP64_LIMIT", limit)
            assert limit < 2**14
            with pytest.raises(PackageFormatError, match=fault):
                pio.pack_archive(out, path, metadata)
            assert list(tmp_path.glob("out.zip*")) == []
            with pytest.raises(PackageFormatError, match=fault):
                pio.read_archive(archive)
        pio.read_archive(archive)


def test_pack_archive_refuses_metadata_the_reader_refuses(tmp_path, tiny_config):
    path, _, _ = _headed_package(tmp_path, tiny_config, seed=18)
    deep = "leaf"  # with the mapping above it, one node deeper than the reader composes
    for _ in range(MAX_YAML_DEPTH - 1):
        deep = [deep]
    out = tmp_path / "bad.zip"
    for metadata, fault in (([1, 2], "must be a mapping"), ("text", "must be a mapping"),
                            (None, "must be a mapping"), ({"a": deep}, "nested deeper than"),
                            ({"a": np.float64(1.0)}, "no YAML form")):
        with pytest.raises(PackageFormatError, match=fault):
            pio.pack_archive(out, path, metadata)
        assert not out.exists()
    pio.pack_archive(out, path, {"a": deep[0]})  # at the bound it is read back
    assert pio.read_archive(out)[1] == {"a": deep[0]}


def test_verify_package_report(tmp_path, tiny_config):
    model = AdapterModel(tiny_config, seed=12)
    model.add_adapter("probe", reduction_factor=2)
    model.add_head("cls", 2)
    path = tmp_path / "probe.pkg"
    model.save_adapter("probe", path, with_head="cls")
    report = pio.verify_package(path)
    params = count_adapter_params(tiny_config, model.get_adapter("probe").config)
    assert report["param_count"] == params
    assert report["blob_bytes"] == 4 * params
    assert report["bytes_per_param"] == 4.0
    assert report["has_head"]
    assert report["name"] == "probe"
    assert report["model_config_hash"] == tiny_config.config_hash()
    assert report["file_sha256"] == pio.file_sha256(path)
    assert len(report["file_sha256"]) == 64


def test_header_layout_is_bounded_by_the_file(tmp_path, tiny_config):
    """A header declaring 200,000 layers is refused without building their layout."""
    entry = _random_entry(tiny_config, AdapterConfig(reduction_factor=2), seed=16)
    pkg = tmp_path / "a.pkg"
    pio.save_adapter_package(pkg, tiny_config, entry)
    ckpt = tmp_path / "b.ckpt"
    pio.save_backbone_checkpoint(ckpt, tiny_config, init_backbone(tiny_config, np.random.default_rng(16)))
    pkg.write_bytes(reheader(pkg.read_bytes(), num_layers=200_000))
    ckpt.write_bytes(reheader(ckpt.read_bytes(), kind="backbone", num_layers=200_000))
    for path, load in ((pkg, pio.load_adapter_package), (ckpt, pio.load_backbone_checkpoint)):
        tracemalloc.start()
        try:
            with pytest.raises(PackageFormatError, match="manifest lists"):
                load(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 5 * 2**20, (path.name, peak)


def test_archive_reads_are_bounded_and_canonical(tmp_path, tiny_config):
    """Only the bytes pack_archive writes are read, in memory bounded by the file."""
    path, data, pkg = _headed_package(tmp_path, tiny_config, seed=17)
    ckpt = tmp_path / "b.ckpt"
    pio.save_backbone_checkpoint(ckpt, tiny_config, init_backbone(tiny_config, np.random.default_rng(17)))
    inputs = tmp_path / "inputs.txt"
    inputs.write_text("1 2 3\n", encoding="utf-8")
    good = tmp_path / "good.zip"
    pio.pack_archive(good, path, {"adapter_id": "probe"})
    archive = good.read_bytes()
    metadata = b"adapter_id: probe\n"

    deflated = tmp_path / "deflated.zip"  # a 64 MiB package member that deflates to 64 KB
    with zipfile.ZipFile(deflated, "w", zipfile.ZIP_DEFLATED) as zf:
        with zf.open(pio.ARCHIVE_PACKAGE, "w") as member:
            for _ in range(64):
                member.write(bytes(2**20))
        zf.writestr(pio.ARCHIVE_CONFIG, pkg.adapter_config.descriptor())
        zf.writestr(pio.ARCHIVE_METADATA, metadata)
    with zipfile.ZipFile(tmp_path / "config.zip", "w") as zf:  # config text contradicts the package
        for name, member in ((pio.ARCHIVE_PACKAGE, data),
                             (pio.ARCHIVE_CONFIG, AdapterConfig(reduction_factor=4).descriptor()),
                             (pio.ARCHIVE_METADATA, metadata)):
            zf.writestr(zipfile.ZipInfo(name, (1980, 1, 1, 0, 0, 0)), member)
    # the package member's compressed and uncompressed sizes in its local header
    # (offset 18) and in its central directory record (offset 20) claim 900 MiB
    oversized = bytearray(archive)
    central = archive.index(b"PK\x01\x02")
    for at in (18, 22, central + 20, central + 24):
        oversized[at:at + 4] = (900 * 2**20).to_bytes(4, "little")
    (tmp_path / "oversized.zip").write_bytes(oversized)
    for bomb in (deflated, tmp_path / "oversized.zip"):
        tracemalloc.start()
        try:
            with pytest.raises(PackageFormatError):
                pio.read_archive(bomb)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 5 * 2**20, (bomb.name, peak)

    extra = tmp_path / "extra.zip"
    extra.write_bytes(archive)
    with zipfile.ZipFile(extra, "a") as zf:
        zf.writestr("extra.txt", b"x")
    (tmp_path / "prefix.zip").write_bytes(b"junk" + archive)
    (tmp_path / "suffix.zip").write_bytes(archive + b"junk")
    for name in ("deflated", "oversized", "config", "extra", "prefix", "suffix"):
        bad = tmp_path / f"{name}.zip"
        with pytest.raises(PackageFormatError):
            pio.read_archive(bad)
        assert main(["run", "--checkpoint", str(ckpt), "--archive", str(bad),
                     "--inputs", str(inputs)]) == 2, name
    assert main(["run", "--checkpoint", str(ckpt), "--archive", str(good),
                 "--inputs", str(inputs)]) == 0
