import dataclasses
import hashlib
import struct
import threading
import time

import numpy as np
import pytest

from adapterkit import AdapterModel, ModelConfig
from adapterkit import package_io as pio


@pytest.fixture(autouse=True)
def no_thread_left_running():
    """Fails a test that leaves a thread it started running, after waiting up to 1 s for it."""
    before = set(threading.enumerate())
    yield
    deadline = time.monotonic() + 1.0
    for thread in set(threading.enumerate()) - before:
        thread.join(max(0.0, deadline - time.monotonic()))
    left = [thread.name for thread in set(threading.enumerate()) - before if thread.is_alive()]
    assert not left, f"threads left running: {left}"


@pytest.fixture
def desk_config():
    """The default compact encoder shape used throughout the suite."""
    return ModelConfig()


@pytest.fixture
def tiny_config():
    """A minimal shape for oracle tests that recompute everything by hand."""
    return ModelConfig(hidden_size=8, num_layers=1, num_heads=2, ffn_size=16,
                      vocab_size=64, max_seq_len=8)


@pytest.fixture
def tiny_model(tiny_config):
    return AdapterModel(tiny_config, seed=7)


@pytest.fixture
def desk_model(desk_config):
    return AdapterModel(desk_config, seed=7)


def random_sequences(rng, n, max_len, vocab):
    out = []
    for _ in range(n):
        length = int(rng.integers(1, max_len + 1))
        out.append([int(t) for t in rng.integers(0, vocab, size=length)])
    return out


def split_package(data):
    """Package bytes -> (header bytes, manifest text, blob bytes)."""
    (header_len,) = struct.unpack_from("<Q", data, 8)
    pos = 16 + header_len
    (manifest_len,) = struct.unpack_from("<Q", data, pos)
    manifest_end = pos + 8 + manifest_len
    return data[16:pos], data[pos + 8:manifest_end].decode("utf-8"), data[manifest_end:-32]


def join_package(header, manifest, blob):
    """Inverse of :func:`split_package`, with fresh length fields and trailing digest."""
    manifest = manifest.encode("utf-8")
    body = b"".join([b"ADPK", struct.pack("<IQ", 1, len(header)), header,
                     struct.pack("<Q", len(manifest)), manifest, blob])
    return body + hashlib.sha256(body).digest()


def reheader(data, kind="adapter", num_layers=None, **changes):
    """Package bytes whose header takes new field values (or ``num_layers``), resealed.

    The header is rewritten in canonical form with matching config hashes,
    and the manifest and blob are kept, so only the changed values can make
    a reader refuse the result.
    """
    header, manifest, blob = split_package(data)
    fields, model_config, adapter_config = pio._read_header(header.decode("utf-8"), kind)
    if num_layers is not None:
        model_config = dataclasses.replace(model_config, num_layers=num_layers)
        fields["model_config_hash"] = model_config.config_hash()
    fields.update(changes)
    return join_package(pio._header_text(fields, model_config, adapter_config).encode("utf-8"),
                        manifest, blob)


def negative_size_package(tmp_path):
    """A default-shape pfeiffer package whose 2-label head now claims -2 labels.

    The head's manifest sizes are negative, 520 bytes are cut from the
    adapter payload so that the sizes still sum to the blob length, and
    every digest is resealed.
    """
    model = AdapterModel(ModelConfig(), seed=0)
    model.add_adapter("fixed", config="pfeiffer")
    model.add_head("head", 2)
    path = tmp_path / "fixed.pkg"
    model.save_adapter("fixed", path, with_head="head")
    header, manifest, blob = split_package(path.read_bytes())
    entries = [line.split()[:4] for line in manifest.splitlines()[:-2]]
    adapter_bytes = sum(int(nbytes) for *_, nbytes in entries)
    blob = blob[:adapter_bytes - 520]
    entries += [["head.w", "64,-2", str(adapter_bytes), "-512"],
                ["head.b", "-2", str(adapter_bytes - 512), "-8"]]
    manifest = "".join(f"{n} {s} {o} {b} {hashlib.sha256(blob[int(o):int(o) + int(b)]).hexdigest()}\n"
                       for n, s, o, b in entries)
    return join_package(header.replace(b"head_num_labels=2\n", b"head_num_labels=-2\n"),
                        manifest, blob)
