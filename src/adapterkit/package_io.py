"""Portable binary containers for adapters and backbone checkpoints.

Container layout (all integers little-endian):

    magic   b"ADPK"
    u32     format version (currently 1)
    u64     header length, then that many bytes of utf-8 header text
    u64     manifest length, then that many bytes of utf-8 manifest text
    blob    tensor payloads back to back, row-major, in manifest order
    sha256  32 raw bytes over everything above

The header carries the package kind, identity fields, dtype, the full
embedded model (and adapter) configuration descriptors, and their hashes.
Each manifest line is ``name shape offset nbytes sha256`` for one tensor,
with offsets relative to the blob start, so any single flipped byte in the
file is caught either by the trailing digest or by a per-tensor digest.

Adapter payloads are stored as float32 (4 bytes per parameter, exactly);
backbone checkpoints keep float64 so training can resume bit-exactly.
"""

import hashlib
import io
import os
import struct
import zipfile
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import yaml

from . import adapters as adp
from . import autodiff as ad
from . import backbone as bb
from .codec import read_pairs, read_value, write_pairs
from .errors import ChecksumError, PackageFormatError

MAGIC = b"ADPK"
FORMAT_VERSION = 1

_DTYPES = {"f32": "<f4", "f64": "<f8"}
_BANNER = "adapterkit-package"
_MODEL_SECTION = "--model-config--"
_ADAPTER_SECTION = "--adapter-config--"

ARCHIVE_PACKAGE = "adapter.pkg"
ARCHIVE_CONFIG = "adapter_config.txt"
ARCHIVE_METADATA = "metadata.yaml"


def _atomic_write_bytes(path, data):
    """Write via a sibling temp file and rename, so readers never see a torn file."""
    path = Path(path)
    tmp = path.with_name(path.name + f".tmp-{os.getpid()}")
    try:
        tmp.write_bytes(data)
        os.replace(tmp, path)
    finally:
        if tmp.exists():
            tmp.unlink()


def file_sha256(path):
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


# ---------------------------------------------------------------------------
# low-level container encode/decode


def _pack_tensors(named_arrays, dtype_key):
    np_dtype = _DTYPES[dtype_key]
    lines = []
    chunks = []
    offset = 0
    for name, arr in named_arrays:
        raw = np.ascontiguousarray(arr, dtype=np_dtype).tobytes()
        shape = ",".join(str(d) for d in arr.shape)
        digest = hashlib.sha256(raw).hexdigest()
        lines.append(f"{name} {shape} {offset} {len(raw)} {digest}")
        chunks.append(raw)
        offset += len(raw)
    return "\n".join(lines) + "\n", b"".join(chunks)


def _encode_container(header_text, manifest_text, blob):
    hb = header_text.encode("utf-8")
    mb = manifest_text.encode("utf-8")
    body = b"".join([
        MAGIC,
        struct.pack("<I", FORMAT_VERSION),
        struct.pack("<Q", len(hb)), hb,
        struct.pack("<Q", len(mb)), mb,
        blob,
    ])
    return body + hashlib.sha256(body).digest()


@dataclass
class ManifestEntry:
    name: str
    shape: tuple
    offset: int
    nbytes: int
    sha256: str


def _parse_manifest(text):
    entries = []
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.strip()
        if not line:
            continue
        parts = line.split(" ")
        if len(parts) != 5:
            raise PackageFormatError(f"manifest line {lineno}: expected 5 fields, got {len(parts)}")
        name, shape_s, offset_s, nbytes_s, digest = parts
        try:
            shape = tuple(int(d) for d in shape_s.split(",")) if shape_s else ()
            offset = int(offset_s)
            nbytes = int(nbytes_s)
        except ValueError:
            raise PackageFormatError(f"manifest line {lineno}: malformed numbers") from None
        entries.append(ManifestEntry(name, shape, offset, nbytes, digest))
    return entries


def _decode_container(data):
    """Split raw bytes into (header text, manifest entries, blob); verify digests."""
    if len(data) < 4 + 4 + 8:
        raise PackageFormatError("file too short to be a package")
    if data[:4] != MAGIC:
        raise PackageFormatError(f"bad magic {data[:4]!r}, expected {MAGIC!r}")
    (version,) = struct.unpack_from("<I", data, 4)
    if version != FORMAT_VERSION:
        raise PackageFormatError(f"unsupported format version {version}")
    if len(data) < 32 + 16:
        raise PackageFormatError("file truncated")
    body, trailer = data[:-32], data[-32:]
    actual = hashlib.sha256(body).digest()
    if actual != trailer:
        raise ChecksumError("package digest mismatch: file is corrupt or truncated")

    pos = 8
    (header_len,) = struct.unpack_from("<Q", body, pos)
    pos += 8
    if pos + header_len > len(body):
        raise PackageFormatError("header length exceeds file size")
    header = body[pos:pos + header_len]
    pos += header_len
    if pos + 8 > len(body):
        raise PackageFormatError("file truncated before manifest")
    (manifest_len,) = struct.unpack_from("<Q", body, pos)
    pos += 8
    if pos + manifest_len > len(body):
        raise PackageFormatError("manifest length exceeds file size")
    manifest = body[pos:pos + manifest_len]
    blob = body[pos + manifest_len:]
    try:
        header_text, manifest_text = header.decode("utf-8"), manifest.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise PackageFormatError(f"package header or manifest is not UTF-8: {exc}") from None

    entries = _parse_manifest(manifest_text)
    expect = 0
    for e in entries:
        if e.offset != expect:
            raise PackageFormatError(f"tensor {e.name}: offset {e.offset}, expected {expect}")
        expect += e.nbytes
    if expect != len(blob):
        raise PackageFormatError(f"blob is {len(blob)} bytes, manifest claims {expect}")
    for e in entries:
        raw = blob[e.offset:e.offset + e.nbytes]
        if hashlib.sha256(raw).hexdigest() != e.sha256:
            raise ChecksumError(f"tensor {e.name}: payload digest mismatch")
    return header_text, entries, blob


def _header_text(fields, model_config, adapter_config=None):
    """Banner, flat key=value fields, then the embedded config descriptors."""
    text = f"{_BANNER}\n{write_pairs(fields.items())}{_MODEL_SECTION}\n{model_config.descriptor()}"
    if adapter_config is not None:
        text += f"{_ADAPTER_SECTION}\n{adapter_config.descriptor()}"
    return text


def _read_header(text, kind, dtype):
    """Header text -> (flat fields, model config, adapter config or None).

    Checks the package kind, the dtype, each embedded config against its
    recorded hash, and that the text is exactly what :func:`_header_text`
    writes for what was read.
    """
    banner, _, rest = text.partition("\n")
    if banner != _BANNER:
        raise PackageFormatError("missing package header banner")
    flat, _, configs = rest.partition(f"{_MODEL_SECTION}\n")
    model_text, _, adapter_text = configs.partition(f"{_ADAPTER_SECTION}\n")
    try:
        fields = read_pairs(flat.splitlines())
        if fields.get("kind") != kind:
            raise PackageFormatError(f"not a {kind} package (kind={fields.get('kind')!r})")
        if fields.get("dtype") != dtype:
            raise PackageFormatError(f"{kind} packages must be {dtype}, got {fields.get('dtype')!r}")
        model_config = bb.ModelConfig.parse(model_text)
        adapter_config = adp.AdapterConfig.parse(adapter_text) if kind == "adapter" else None
    except ValueError as exc:
        raise PackageFormatError(f"bad package header: {exc}") from None
    for config, key in ((model_config, "model_config_hash"), (adapter_config, "adapter_config_hash")):
        if config is not None and config.config_hash() != fields.get(key):
            raise PackageFormatError(f"embedded configuration does not match its {key}")
    if _header_text(fields, model_config, adapter_config) != text:
        raise PackageFormatError("package header is not in canonical form")
    return fields, model_config, adapter_config


def _tensors_from_blob(entries, blob, dtype_key):
    np_dtype = np.dtype(_DTYPES[dtype_key])
    out = {}
    for e in entries:
        count = int(np.prod(e.shape, dtype=np.int64)) if e.shape else 1
        if count * np_dtype.itemsize != e.nbytes:
            raise PackageFormatError(
                f"tensor {e.name}: shape {e.shape} needs {count * np_dtype.itemsize} bytes, "
                f"manifest says {e.nbytes}")
        raw = blob[e.offset:e.offset + e.nbytes]
        arr = np.frombuffer(raw, dtype=np_dtype).reshape(e.shape)
        out[e.name] = arr.astype(np.float64)
    return out


# ---------------------------------------------------------------------------
# adapter packages


def expected_adapter_tensors(model_config, adapter_config):
    """Ordered (name, shape) pairs an adapter payload must contain exactly."""
    per_point = adp.point_layout(model_config.hidden_size, adapter_config)
    return [(f"layer{i}.{point}.{name}", shape)
            for i in range(model_config.num_layers)
            for point in adapter_config.insertion_points()
            for name, shape in per_point]


def save_adapter_package(path, model_config, entry, head=None):
    """Write one adapter (optionally with its prediction head) as a package.

    Returns the sha256 hex digest of the finished file.
    """
    fields = {
        "version": FORMAT_VERSION,
        "kind": "adapter",
        "name": entry.name,
        "adapter_type": entry.adapter_type,
        "trained": bool(entry.trained),
        "dtype": "f32",
        "model_config_hash": model_config.config_hash(),
        "adapter_config_hash": entry.config.config_hash(),
    }
    if head is not None:
        fields.update(head_name=head.name, head_num_labels=head.num_labels)
    header_text = _header_text(fields, model_config, entry.config)

    named = [(name, t.data) for name, t in entry.named_tensors()]
    expected = expected_adapter_tensors(model_config, entry.config)
    got = [(n, a.shape) for n, a in named]
    if got != expected:
        raise PackageFormatError("adapter tensors do not match the declared configuration")
    if head is not None:
        named.append(("head.w", head.w.data))
        named.append(("head.b", head.b.data))

    manifest_text, blob = _pack_tensors(named, "f32")
    data = _encode_container(header_text, manifest_text, blob)
    _atomic_write_bytes(path, data)
    return hashlib.sha256(data).hexdigest()


@dataclass
class AdapterPackage:
    """Decoded adapter package: identity, configs, float64 views of the payload."""

    name: str
    adapter_type: str
    trained: bool
    model_config: bb.ModelConfig
    model_config_hash: str
    adapter_config: adp.AdapterConfig
    adapter_config_hash: str
    tensors: dict  # adapter tensor name -> np.ndarray (float64 view of stored f32)
    head: tuple | None  # (head name, num_labels, w, b) when a head is bundled
    adapter_blob_bytes: int
    adapter_param_count: int
    file_sha256: str


def parse_adapter_package(data):
    """Decode and fully validate adapter package bytes."""
    header_text, entries, blob = _decode_container(data)
    fields, model_config, adapter_config = _read_header(header_text, "adapter", "f32")
    for key in ("name", "adapter_type"):
        if key not in fields:
            raise PackageFormatError(f"header missing {key}")
    try:
        trained = read_value(bool, fields.get("trained", ""))
        num_labels = read_value(int, fields.get("head_num_labels", "")) if "head_name" in fields else None
    except ValueError as exc:
        raise PackageFormatError(f"bad package header: {exc}") from None

    expected = expected_adapter_tensors(model_config, adapter_config)
    adapter_entries = [e for e in entries if not e.name.startswith("head.")]
    got = [(e.name, e.shape) for e in adapter_entries]
    if got != expected:
        raise PackageFormatError("manifest tensors do not match the declared configuration")
    head_shapes = {e.name: e.shape for e in entries if e.name.startswith("head.")}
    if num_labels is None:
        if head_shapes:
            raise PackageFormatError("head tensors present but header declares no head")
    elif head_shapes != {"head.w": (model_config.hidden_size, num_labels), "head.b": (num_labels,)}:
        raise PackageFormatError("bundled head must ship exactly head.w and head.b, "
                                 "shaped by hidden_size and head_num_labels")

    tensors = _tensors_from_blob(entries, blob, "f32")
    head = None
    if num_labels is not None:
        head = (fields["head_name"], num_labels, tensors.pop("head.w"), tensors.pop("head.b"))

    return AdapterPackage(
        name=fields["name"],
        adapter_type=fields["adapter_type"],
        trained=trained,
        model_config=model_config,
        model_config_hash=fields["model_config_hash"],
        adapter_config=adapter_config,
        adapter_config_hash=fields["adapter_config_hash"],
        tensors=tensors,
        head=head,
        adapter_blob_bytes=sum(e.nbytes for e in adapter_entries),
        adapter_param_count=sum(int(np.prod(e.shape, dtype=np.int64)) for e in adapter_entries),
        file_sha256=hashlib.sha256(data).hexdigest(),
    )


def load_adapter_package(path):
    return parse_adapter_package(Path(path).read_bytes())


# ---------------------------------------------------------------------------
# backbone checkpoints


def save_backbone_checkpoint(path, model_config, weights):
    """Write the full backbone at float64 so training resumes bit-exactly."""
    fields = {
        "version": FORMAT_VERSION,
        "kind": "backbone",
        "name": "backbone",
        "dtype": "f64",
        "model_config_hash": model_config.config_hash(),
    }
    header_text = _header_text(fields, model_config)
    named = [(name, t.data) for name, t in weights.named_tensors()]
    manifest_text, blob = _pack_tensors(named, "f64")
    data = _encode_container(header_text, manifest_text, blob)
    _atomic_write_bytes(path, data)
    return hashlib.sha256(data).hexdigest()


def load_backbone_checkpoint(path):
    """Read a checkpoint back into (ModelConfig, BackboneWeights)."""
    header_text, entries, blob = _decode_container(Path(path).read_bytes())
    _, config, _ = _read_header(header_text, "backbone", "f64")
    if [(e.name, e.shape) for e in entries] != bb.backbone_layout(config):
        raise PackageFormatError("checkpoint tensors do not match the declared configuration")
    tensors = _tensors_from_blob(entries, blob, "f64")
    return config, bb.build_backbone(config, lambda name, _: ad.tensor(tensors[name]))


# ---------------------------------------------------------------------------
# zip archives (package + config text + metadata)


def pack_archive(zip_path, package_path, metadata):
    """Bundle a package file with its config text and metadata into a zip.

    The archive is deterministic: fixed entry order, fixed timestamps,
    stored (uncompressed) payloads.
    """
    package_bytes = Path(package_path).read_bytes()
    pkg = parse_adapter_package(package_bytes)
    files = [
        (ARCHIVE_PACKAGE, package_bytes),
        (ARCHIVE_CONFIG, pkg.adapter_config.descriptor().encode("utf-8")),
        (ARCHIVE_METADATA, yaml.safe_dump(metadata, sort_keys=True).encode("utf-8")),
    ]
    buf = io.BytesIO()
    with zipfile.ZipFile(buf, "w", zipfile.ZIP_STORED) as zf:
        for name, data in files:
            info = zipfile.ZipInfo(name, date_time=(1980, 1, 1, 0, 0, 0))
            zf.writestr(info, data)
    _atomic_write_bytes(zip_path, buf.getvalue())
    return hashlib.sha256(buf.getvalue()).hexdigest()


def read_archive(zip_path):
    """Return (package bytes, config text, metadata dict) from an archive."""
    try:
        with zipfile.ZipFile(zip_path) as zf:
            names = set(zf.namelist())
            missing = {ARCHIVE_PACKAGE, ARCHIVE_CONFIG, ARCHIVE_METADATA} - names
            if missing:
                raise PackageFormatError(f"archive missing entries: {sorted(missing)}")
            package_bytes = zf.read(ARCHIVE_PACKAGE)
            config_text = zf.read(ARCHIVE_CONFIG).decode("utf-8")
            metadata = yaml.safe_load(zf.read(ARCHIVE_METADATA).decode("utf-8"))
    except zipfile.BadZipFile as exc:
        raise PackageFormatError(f"not a zip archive: {exc}") from None
    except (UnicodeDecodeError, yaml.YAMLError) as exc:
        raise PackageFormatError(f"unreadable archive member: {exc}") from None
    if not isinstance(metadata, dict):
        raise PackageFormatError("archive metadata must be a mapping")
    return package_bytes, config_text, metadata


def verify_package(path):
    """Fully validate a package file and report its accounting facts."""
    pkg = load_adapter_package(path)
    return {
        "kind": "adapter",
        "name": pkg.name,
        "adapter_type": pkg.adapter_type,
        "trained": pkg.trained,
        "model_type": pkg.model_config.model_type,
        "model_config_hash": pkg.model_config_hash,
        "adapter_config_hash": pkg.adapter_config_hash,
        "param_count": pkg.adapter_param_count,
        "blob_bytes": pkg.adapter_blob_bytes,
        "bytes_per_param": pkg.adapter_blob_bytes / pkg.adapter_param_count,
        "has_head": pkg.head is not None,
        "file_sha256": pkg.file_sha256,
    }
