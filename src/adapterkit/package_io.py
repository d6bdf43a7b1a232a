"""Portable binary containers for adapters and backbone checkpoints.

Container layout (all integers little-endian):

    magic   b"ADPK"
    u32     format version (currently 1)
    u64     header length, then that many bytes of utf-8 header text
    u64     manifest length, then that many bytes of utf-8 manifest text
    blob    tensor payloads back to back, row-major, in manifest order
    sha256  32 raw bytes over everything above

The header carries the package kind, identity fields, dtype, the full embedded model
(and adapter) configuration descriptors, and their hashes. A reader takes from its
flat fields only a writer's choices (an adapter's name, type, ``trained`` flag and
head), derives every other field from the kind and the configurations, and accepts
only the header a writer renders from those. The configurations fix the exact
ordered (name, shape) layout of the payload: the backbone's table for a checkpoint,
the adapter's table (plus ``head.w`` and ``head.b`` shaped by ``head_num_labels``)
for an adapter package. Each manifest line is ``name shape offset nbytes sha256``
for one tensor, with offsets relative to the blob start; every field but the digest
follows from the layout and the dtype. A reader therefore takes only the digests
from the stored manifest, renders the manifest the writer would have written for the
declared layout, and rejects any other text, so no size or offset in a file is ever
trusted. Any single flipped byte in the file is caught by the trailing digest or by
a per-tensor digest.

The writers hold themselves to the same rules: each renders its header, reads
it back as a reader would, and writes only the tensors of exactly the layout
that header declares, so a file is refused when it is written, never first
when it is read. The archive writer likewise reads its rendered metadata back.
A writer holds one copy of the payload, each tensor converted once to its
stored dtype, and hashes exactly the bytes it then writes from those copies
into a temp file renamed over the target without an ``fsync``. That one writer,
:func:`_atomic_write_bytes`, takes any iterable of chunks. It lists them only
to preallocate a file it replaces and otherwise streams them, as it does a hub
download, hashed chunk by chunk on its way into the cache.

Adapter payloads are stored as float32 (4 bytes per parameter, exactly);
backbone checkpoints keep float64 so training can resume bit-exactly.
"""

import errno
import hashlib
import io
import itertools
import math
import os
import struct
import threading
import zipfile
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import yaml

from . import adapters as adp
from . import autodiff as ad
from . import backbone as bb
from .codec import as_count, load_yaml, read_pairs, read_value, write_pairs
from .errors import ChecksumError, PackageFormatError

MAGIC = b"ADPK"
FORMAT_VERSION = 1

_DTYPES = {"f32": np.dtype("<f4"), "f64": np.dtype("<f8")}
_BANNER = "adapterkit-package"
_MODEL_SECTION = "--model-config--"
_ADAPTER_SECTION = "--adapter-config--"

ARCHIVE_PACKAGE = "adapter.pkg"
ARCHIVE_CONFIG = "adapter_config.txt"
ARCHIVE_METADATA = "metadata.yaml"
_ARCHIVE_MEMBERS = (ARCHIVE_PACKAGE, ARCHIVE_CONFIG, ARCHIVE_METADATA)  # in the order written


_HASH_BUFFER = 1 << 20
_FALLOCATE_UNSUPPORTED = (errno.EOPNOTSUPP, errno.ENOSYS, errno.EINVAL)


def _atomic_write_bytes(path, chunks):
    """Write ``chunks``, any iterable of bytes-like objects in file order, to ``path`` atomically.

    The bytes go into a sibling temp file that is then renamed over ``path``, so a reader
    sees the old file or the new one, never a torn one; an error while the chunks are drawn
    or written removes the temp file. Only when ``path`` exists are the chunks listed first,
    to preallocate the temp file to their total: ext4 writes delayed-allocation blocks back
    inside a ``rename`` that replaces a file (``auto_da_alloc``), about 3 ms of a 3.6 MB save,
    while a write to a new name streams and its rename writes nothing back. Preallocation is
    a hint, skipped where the file system lacks it; any other error (``ENOSPC``) fails the
    write. There is no ``fsync``: after a crash soon after a write, ``path`` can read as
    zeros, which every reader refuses by its magic or checksum.
    """
    path = Path(path)
    tmp = path.with_name(path.name + f".tmp-{os.getpid()}-{threading.get_ident()}")
    fallocate = getattr(os, "posix_fallocate", None) if os.path.lexists(path) else None
    if fallocate is not None:
        chunks = list(chunks)  # the one case that needs the total size before the first write
    try:
        with open(tmp, "wb") as f:
            if fallocate is not None and (size := sum(memoryview(c).nbytes for c in chunks)):
                try:
                    fallocate(f.fileno(), 0, size)
                except OSError as exc:
                    if exc.errno not in _FALLOCATE_UNSUPPORTED:
                        raise
            f.writelines(chunks)
        os.replace(tmp, path)
    finally:
        if tmp.exists():
            tmp.unlink()


def file_sha256(path):
    """SHA-256 hex digest of a file, read through one buffer of at most 1 MiB."""
    h = hashlib.sha256()
    with open(path, "rb", buffering=0) as f:
        buf = bytearray(min(os.fstat(f.fileno()).st_size, _HASH_BUFFER))
        view = memoryview(buf)
        while n := f.readinto(buf):
            h.update(view[:n])
    return h.hexdigest()


# ---------------------------------------------------------------------------
# the container: one writer, one reader


def _header_fields(model_config, adapter_config=None, name="backbone", adapter_type=None,
                   trained=False, head_name=None, head_num_labels=None):
    """The flat fields a header holds, in order: a checkpoint's without ``adapter_config``,
    an adapter package's with it, ``head_name`` and ``head_num_labels`` when a head is bundled."""
    if adapter_config is None:
        return {"version": FORMAT_VERSION, "kind": "backbone", "name": name, "dtype": "f64",
                "model_config_hash": model_config.config_hash()}
    head = {} if head_name is None else {"head_name": head_name, "head_num_labels": head_num_labels}
    return {"version": FORMAT_VERSION, "kind": "adapter", "name": name, "adapter_type": adapter_type,
            "trained": trained, "dtype": "f32", "model_config_hash": model_config.config_hash(),
            "adapter_config_hash": adapter_config.config_hash(), **head}


def _header_text(fields, model_config, adapter_config=None):
    """Banner, flat key=value fields, then the embedded config descriptors."""
    text = f"{_BANNER}\n{write_pairs(fields.items())}{_MODEL_SECTION}\n{model_config.descriptor()}"
    if adapter_config is not None:
        text += f"{_ADAPTER_SECTION}\n{adapter_config.descriptor()}"
    return text


def _manifest_text(layout, dtype, digests):
    """(manifest text, byte size of each tensor) for one digest per layout entry.

    The text has one ``name shape offset nbytes sha256`` line per tensor,
    in layout order.
    """
    itemsize = _DTYPES[dtype].itemsize
    lines = []
    sizes = []
    offset = 0
    for (name, shape), digest in zip(layout, digests, strict=True):
        nbytes = itemsize * math.prod(shape)
        lines.append(f"{name} {','.join(str(d) for d in shape)} {offset} {nbytes} {digest}\n")
        sizes.append(nbytes)
        offset += nbytes
    return "".join(lines), sizes


def _write_container(path, fields, model_config, adapter_config, named_arrays):
    """Write one container atomically, only if ``named_arrays`` are exactly the (name, shape)
    layout its header, read back, declares; returns the sha256 hex digest of the file."""
    kind, dtype = fields["kind"], fields["dtype"]
    header = _header_text(fields, model_config, adapter_config)
    layout = list(_declared_layout(*_read_header(header, kind)))
    if [(name, arr.shape) for name, arr in named_arrays] != layout:
        raise PackageFormatError(f"{kind} tensors do not match the layout their header declares")
    # private copies: a caller changing a tensor during the save cannot split hash and file
    arrays = [np.array(arr, dtype=_DTYPES[dtype], order="C") for _, arr in named_arrays]
    manifest, _ = _manifest_text(layout, dtype, [hashlib.sha256(a).hexdigest() for a in arrays])
    hb = header.encode("utf-8")
    mb = manifest.encode("utf-8")
    chunks = [MAGIC, struct.pack("<IQ", FORMAT_VERSION, len(hb)), hb, struct.pack("<Q", len(mb)), mb,
              *arrays]
    h = hashlib.sha256()
    for chunk in chunks:
        h.update(chunk)
    chunks.append(h.digest())
    _atomic_write_bytes(path, chunks)
    h.update(chunks[-1])
    return h.hexdigest()


def _read_header(text, kind):
    """Header text -> (flat fields, model config, adapter config or None).

    Reads from the flat pairs only what a writer chooses (an adapter's name, type, ``trained``
    and head; ``kind`` only to word the wrong-kind error), checks each as the registry does,
    derives every other field with :func:`_header_fields` and accepts only the text
    :func:`_header_text` renders from them. ``trained`` comes back a bool, ``head_num_labels`` an int.
    """
    banner, _, rest = text.partition("\n")
    if banner != _BANNER:
        raise PackageFormatError("missing package header banner")
    flat, _, configs = rest.partition(f"{_MODEL_SECTION}\n")
    model_text, _, adapter_text = configs.partition(f"{_ADAPTER_SECTION}\n")
    try:
        pairs = read_pairs(flat.splitlines())
        if pairs.get("kind") != kind:
            raise PackageFormatError(f"not a {kind} package (kind={pairs.get('kind')!r})")
        model_config = bb.ModelConfig.parse(model_text)
        if kind == "backbone":
            adapter_config, fields = None, _header_fields(model_config)
        else:
            adapter_config = adp.AdapterConfig.parse(adapter_text)
            name, adapter_type, head_name = pairs.get("name"), pairs.get("adapter_type"), pairs.get("head_name")
            adp.validate_identity(name, adapter_type)
            num_labels = None
            if head_name is not None:
                adp.validate_name(head_name)
                num_labels = as_count(read_value(int, pairs.get("head_num_labels", "")), "head_num_labels", 2)
            fields = _header_fields(model_config, adapter_config, name, adapter_type,
                                    read_value(bool, pairs.get("trained", "")), head_name, num_labels)
    except ValueError as exc:
        raise PackageFormatError(f"bad package header: {exc}") from None
    expected = _header_text(fields, model_config, adapter_config)
    if expected != text:  # find the first differing line only once the one comparison has failed
        lines = itertools.zip_longest(text.split("\n"), expected.split("\n"))
        got, want = next((got, want) for got, want in lines if got != want)
        raise PackageFormatError(f"package header reads {got!r} where a writer writes {want!r}")
    return fields, model_config, adapter_config


def _declared_layout(fields, model_config, adapter_config):
    """The exact ordered (name, shape) payload a header declares, as an iterator."""
    if adapter_config is None:
        return bb.backbone_layout(model_config)
    head = adp.head_layout(model_config.hidden_size, fields["head_num_labels"]) if "head_name" in fields else []
    return itertools.chain(adp.adapter_layout(model_config, adapter_config),
                           ((f"head.{name}", shape) for name, shape in head))


def _read_container(data, kind):
    """Verify container bytes and decode them.

    Returns (header fields, model config, adapter config or None,
    {tensor name: float64 array}, sha256 hex digest of the file).
    """
    if len(data) < 4 + 4 + 8 + 32:
        raise PackageFormatError("file too short to be a package")
    if data[:4] != MAGIC:
        raise PackageFormatError(f"bad magic {data[:4]!r}, expected {MAGIC!r}")
    (version,) = struct.unpack_from("<I", data, 4)
    if version != FORMAT_VERSION:
        raise PackageFormatError(f"unsupported format version {version}")
    body = memoryview(data)[:-32]
    h = hashlib.sha256(body)
    if h.digest() != data[-32:]:
        raise ChecksumError("package digest mismatch: file is corrupt or truncated")
    h.update(data[-32:])

    texts = []
    pos = 8
    for what in ("header", "manifest"):
        if pos + 8 > len(body):
            raise PackageFormatError(f"file truncated before {what}")
        (length,) = struct.unpack_from("<Q", body, pos)
        pos += 8
        if length > len(body) - pos:
            raise PackageFormatError(f"{what} length exceeds file size")
        try:
            texts.append(str(body[pos:pos + length], "utf-8"))
        except UnicodeDecodeError as exc:
            raise PackageFormatError(f"package {what} is not UTF-8: {exc}") from None
        pos += length
    header_text, manifest_text = texts
    fields, model_config, adapter_config = _read_header(header_text, kind)

    digests = [line.rpartition(" ")[2] for line in manifest_text.splitlines()]
    # the header may declare any number of tensors: build no more than the file lists, plus one
    layout = list(itertools.islice(_declared_layout(fields, model_config, adapter_config),
                                   len(digests) + 1))
    if len(digests) != len(layout):
        raise PackageFormatError(f"manifest lists {len(digests)} tensors, not the number the header declares")
    rendered, sizes = _manifest_text(layout, fields["dtype"], digests)
    if rendered != manifest_text:
        raise PackageFormatError("manifest does not match the tensor layout the header declares")
    np_dtype = _DTYPES[fields["dtype"]]
    blob = body[pos:]
    if len(blob) != sum(sizes):
        raise PackageFormatError(f"blob is {len(blob)} bytes, manifest lists {sum(sizes)}")
    tensors = {}
    offset = 0
    for (name, shape), digest, nbytes in zip(layout, digests, sizes):
        raw = blob[offset:offset + nbytes]
        if hashlib.sha256(raw).hexdigest() != digest:
            raise ChecksumError(f"tensor {name}: payload digest mismatch")
        tensors[name] = np.frombuffer(raw, dtype=np_dtype).reshape(shape).astype(np.float64)
        offset += nbytes
    return fields, model_config, adapter_config, tensors, h.hexdigest()


# ---------------------------------------------------------------------------
# adapter packages


def save_adapter_package(path, model_config, entry, head=None):
    """Write one adapter (optionally with its prediction head) as a package.

    Returns the sha256 hex digest of the finished file.
    """
    named = [(name, t.data) for name, t in entry.named_tensors()]
    if head is not None:
        named += [(f"head.{name}", t.data) for name, t in head.named_tensors()]
    fields = _header_fields(model_config, entry.config, entry.name, entry.adapter_type, bool(entry.trained),
                            *((head.name, head.num_labels) if head is not None else ()))
    return _write_container(path, fields, model_config, entry.config, named)


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
    fields, model_config, adapter_config, tensors, sha = _read_container(data, "adapter")
    head = None
    if "head_name" in fields:
        head = (fields["head_name"], fields["head_num_labels"], tensors.pop("head.w"), tensors.pop("head.b"))
    param_count = sum(t.size for t in tensors.values())

    return AdapterPackage(
        name=fields["name"],
        adapter_type=fields["adapter_type"],
        trained=fields["trained"],
        model_config=model_config,
        model_config_hash=fields["model_config_hash"],
        adapter_config=adapter_config,
        adapter_config_hash=fields["adapter_config_hash"],
        tensors=tensors,
        head=head,
        adapter_blob_bytes=_DTYPES["f32"].itemsize * param_count,
        adapter_param_count=param_count,
        file_sha256=sha,
    )


def load_adapter_package(path):
    return parse_adapter_package(Path(path).read_bytes())


# ---------------------------------------------------------------------------
# backbone checkpoints


def save_backbone_checkpoint(path, model_config, weights):
    """Write the full backbone at float64 so training resumes bit-exactly."""
    named = [(name, t.data) for name, t in weights.named_tensors()]
    return _write_container(path, _header_fields(model_config), model_config, None, named)


def load_backbone_checkpoint(path):
    """Read a checkpoint back into (ModelConfig, BackboneWeights)."""
    _, config, _, tensors, _ = _read_container(Path(path).read_bytes(), "backbone")
    return config, bb.build_backbone(config, lambda name, _: ad.tensor(tensors[name]))


# ---------------------------------------------------------------------------
# zip archives (package + config text + metadata)


def _archive_bytes(package_bytes, pkg, metadata_bytes):
    """The bytes :func:`pack_archive` writes: three stored members, fixed order and timestamps."""
    members = (package_bytes, pkg.adapter_config.descriptor().encode("utf-8"), metadata_bytes)
    buf = io.BytesIO()
    with zipfile.ZipFile(buf, "w", zipfile.ZIP_STORED) as zf:
        for name, member in zip(_ARCHIVE_MEMBERS, members):
            info = zipfile.ZipInfo(name, date_time=(1980, 1, 1, 0, 0, 0))
            info.create_system = 3  # unix, which zipfile picks everywhere but Windows
            zf.writestr(info, member)
    return buf.getvalue()


def _read_metadata(metadata_bytes):
    """Archive metadata bytes -> mapping, as both the archive reader and writer check it."""
    try:
        metadata = load_yaml(metadata_bytes.decode("utf-8"))
    except (UnicodeDecodeError, yaml.YAMLError) as exc:
        raise PackageFormatError(f"unreadable archive: {type(exc).__name__}: {exc}") from None
    if not isinstance(metadata, dict):
        raise PackageFormatError("archive metadata must be a mapping")
    return metadata


def pack_archive(zip_path, package_path, metadata):
    """Bundle a package file with its config text and metadata into a zip; returns its sha256.

    Metadata that :func:`read_archive` would refuse raises :class:`PackageFormatError`
    before anything is written.
    """
    package_bytes = Path(package_path).read_bytes()
    try:
        metadata_bytes = yaml.safe_dump(metadata, sort_keys=True).encode("utf-8")
    except yaml.YAMLError as exc:  # a value with no safe YAML form, such as a numpy scalar
        raise PackageFormatError(f"archive metadata has no YAML form: {exc}") from None
    _read_metadata(metadata_bytes)
    data = _archive_bytes(package_bytes, parse_adapter_package(package_bytes), metadata_bytes)
    _atomic_write_bytes(zip_path, [data])
    return hashlib.sha256(data).hexdigest()


def read_archive(zip_path):
    """Return (:class:`AdapterPackage`, metadata mapping) from an archive.

    The zip framing and the package are accepted only byte for byte as :func:`pack_archive` writes
    them; the metadata member may be any YAML text of a mapping (rendering it again would cost a
    ``yaml.safe_dump`` per read). A file that cannot be opened raises ``OSError``; any other fault
    raises :class:`PackageFormatError`.
    """
    data = Path(zip_path).read_bytes()
    try:
        with zipfile.ZipFile(io.BytesIO(data)) as zf:
            infos = zf.infolist()
            if (tuple(info.filename for info in infos) != _ARCHIVE_MEMBERS
                    or any(info.compress_type != zipfile.ZIP_STORED for info in infos)):
                raise PackageFormatError(f"archive must hold exactly the stored members {_ARCHIVE_MEMBERS}")
            package_bytes, metadata_bytes = zf.read(ARCHIVE_PACKAGE), zf.read(ARCHIVE_METADATA)
        pkg = parse_adapter_package(package_bytes)
        if _archive_bytes(package_bytes, pkg, metadata_bytes) != data:
            raise PackageFormatError("archive is not in the form pack_archive writes")
    except _ARCHIVE_FAULTS as exc:
        raise PackageFormatError(f"unreadable archive: {type(exc).__name__}: {exc}") from None
    return pkg, _read_metadata(metadata_bytes)


# what zipfile raises on damaged bytes; RuntimeError covers an encryption flag
_ARCHIVE_FAULTS = (zipfile.BadZipFile, EOFError, OSError, ValueError, RuntimeError)


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
