"""Metadata-driven registry for sharing and resolving adapter archives.

Contributors describe each archive with a small YAML card. Validated cards
aggregate into a single deterministic JSON index; consumers resolve adapters
by case-insensitive substring match on the identifier, filtered to their
backbone's configuration hash, then download through a content-addressed
cache keyed by the archive's sha256 (so a repeated fetch is a local hit and
``file://`` mirrors work fully offline).

Identifiers live in a three-level hierarchy: adapter type (task or language),
then a category, then the concrete dataset or variant, e.g.
``text_task / sentiment / sst-2``.
"""

import hashlib
import json
import os
import re
import time
import urllib.error
import urllib.request
from dataclasses import MISSING, dataclass, fields
from itertools import pairwise
from pathlib import Path
from urllib.parse import urlsplit

import yaml

from . import package_io
from .adapters import ADAPTER_TYPES
from .codec import as_count, load_yaml
from .errors import (AmbiguousQueryError, ChecksumError, HubLookupError,
                     MetadataError, RegistryError, TransportError)

INDEX_FORMAT = "adapterkit-hub-index"
INDEX_VERSION = 1
CACHE_ENV_VAR = "ADAPTERKIT_CACHE"
DOWNLOAD_TIMEOUT_S = 60  # per blocking socket operation, so a stalled mirror cannot hang a fetch
DOWNLOAD_DEADLINE_S = 600  # for the whole fetch, so a mirror that drip-feeds bytes cannot hang it
DOWNLOAD_MAX_BYTES = 1 << 30
_DOWNLOAD_CHUNK = 1 << 20  # read1() allocates its size argument up front, so never ask for the cap

_HEX64 = re.compile(r"^[0-9a-f]{64}$")
_ID_PATTERN = re.compile(r"^[a-z0-9][a-z0-9._-]*$")
_URL_SCHEMES = ("file", "http", "https")  # what a card may name and fetch() downloads


@dataclass
class HubEntry:
    """One validated metadata card."""

    adapter_id: str
    adapter_type: str
    level2: str
    level3: str
    model_type: str
    model_config_hash: str
    adapter_config_hash: str
    url: str
    sha256: str
    preset: str | None = None
    reduction_factor: int | None = None
    description: str | None = None
    author: str | None = None
    github: str | None = None
    twitter: str | None = None
    citation: str | None = None
    version: str | None = None

    def to_dict(self):
        out = {}
        for f in fields(self):
            v = getattr(self, f.name)
            if v is not None:
                out[f.name] = v
        return out


_REQUIRED = tuple(f.name for f in fields(HubEntry) if f.default is MISSING)
_OPTIONAL = tuple(f.name for f in fields(HubEntry) if f.default is not MISSING)


def ingest_metadata(source):
    """Validate one metadata card (YAML text or mapping) into a HubEntry.

    Every problem is collected before raising, so a bad card reports its
    full list of violations at once.
    """
    if isinstance(source, str):
        try:
            data = load_yaml(source)
        except yaml.YAMLError as exc:
            raise MetadataError([f"not valid YAML: {exc}"]) from None
    else:
        data = source
    if not isinstance(data, dict):
        raise MetadataError(["metadata must be a mapping of field names to values"])

    violations = []
    # a YAML key may be any scalar: string keys first, in their own order
    for key in sorted(set(data) - set(_REQUIRED) - set(_OPTIONAL),
                      key=lambda k: (not isinstance(k, str), str(k))):
        violations.append(f"unknown field {key!r}")
    for key in _REQUIRED:
        if key not in data or data[key] in (None, ""):
            violations.append(f"missing required field {key!r}")

    def str_field(key):
        v = data.get(key)
        if v is None:
            return None
        if not isinstance(v, str) or not v.strip():
            violations.append(f"{key} must be a non-empty string")
            return None
        return v.strip()

    values = {key: str_field(key) for key in _REQUIRED + _OPTIONAL if key != "reduction_factor"}

    if data.get("reduction_factor") is not None:
        try:
            values["reduction_factor"] = as_count(data["reduction_factor"], "reduction_factor", 1)
        except ValueError as exc:
            violations.append(str(exc))

    if values.get("adapter_id") and not _ID_PATTERN.match(values["adapter_id"]):
        violations.append(
            "adapter_id must be lowercase alphanumerics plus . _ - and start alphanumeric")
    if values.get("adapter_type") and values["adapter_type"] not in ADAPTER_TYPES:
        violations.append(f"adapter_type must be one of {ADAPTER_TYPES}")
    for key in ("model_config_hash", "adapter_config_hash", "sha256"):
        if values.get(key) and not _HEX64.match(values[key]):
            violations.append(f"{key} must be 64 lowercase hex characters")
    if values.get("url"):
        try:
            scheme = urlsplit(values["url"]).scheme
        except ValueError as exc:  # e.g. an unclosed IPv6 bracket
            scheme = f"unparsable: {exc}"
        if scheme not in _URL_SCHEMES:
            violations.append(f"url scheme {scheme!r} not supported ({', '.join(_URL_SCHEMES)})")

    if violations:
        raise MetadataError(violations)
    return HubEntry(**{k: v for k, v in values.items() if v is not None})


# ---------------------------------------------------------------------------
# index


def _unique(rows):
    """``rows``, refused when two share an (adapter_id, model_config_hash), the index's key."""
    for a, b in pairwise(sorted((e.adapter_id, e.model_config_hash) for e in rows)):
        if a == b:
            raise RegistryError(f"duplicate index entry: {a[0]} for model hash {a[1][:12]}...")
    return rows


def build_index(entries):
    """Serialize entries into canonical JSON text.

    Entries sort by (adapter_id, model_config_hash); the same set in any
    input order yields byte-identical text. The same pair twice is an error.
    """
    rows = _unique(sorted(entries, key=lambda e: (e.adapter_id, e.model_config_hash)))
    doc = {
        "format": INDEX_FORMAT,
        "version": INDEX_VERSION,
        "entries": [e.to_dict() for e in rows],
    }
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def parse_index(text):
    """Load index JSON back into validated entries, no (adapter_id, model_config_hash) twice."""
    try:
        doc = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:  # RecursionError: nested too deep
        raise RegistryError(f"index is not valid JSON: {exc}") from None
    if not isinstance(doc, dict) or doc.get("format") != INDEX_FORMAT:
        raise RegistryError("not a hub index document")
    if doc.get("version") != INDEX_VERSION:
        raise RegistryError(f"unsupported index version {doc.get('version')!r}")
    rows = doc.get("entries", [])
    if not isinstance(rows, list) or not all(isinstance(row, dict) for row in rows):
        raise RegistryError("index entries must be a list of JSON objects")
    try:
        return _unique([ingest_metadata(row) for row in rows])
    except MetadataError as exc:
        raise RegistryError(f"index contains an invalid entry: {exc}") from None


def explore_tree(entries):
    """Nest adapter ids by type, category, and dataset, all levels sorted."""
    tree = {}
    for e in entries:
        ids = tree.setdefault(e.adapter_type, {}).setdefault(e.level2, {}).setdefault(e.level3, [])
        if e.adapter_id not in ids:
            ids.append(e.adapter_id)
    return {
        t: {l2: {l3: sorted(ids) for l3, ids in sorted(level3.items())}
            for l2, level3 in sorted(level2.items())}
        for t, level2 in sorted(tree.items())
    }


def format_explore_tree(tree):
    """Render the nested hierarchy as indented text lines."""
    lines = []
    for t, level2 in tree.items():
        lines.append(t)
        for l2, level3 in level2.items():
            lines.append(f"  {l2}")
            for l3, ids in level3.items():
                lines.append(f"    {l3}: {', '.join(ids)}")
    return "\n".join(lines) + ("\n" if lines else "")


# ---------------------------------------------------------------------------
# resolution


def resolve(entries, query, model_config_hash=None, adapter_type=None):
    """Find exactly one entry by case-insensitive substring of adapter_id.

    Entries for other backbones (when ``model_config_hash`` is given) or
    other adapter types never match. An exact identifier match wins over
    longer identifiers that merely contain the query; anything else with
    several matches raises :class:`AmbiguousQueryError` listing the
    candidates, and zero matches raise :class:`HubLookupError`.
    """
    if not query or not query.strip():
        raise HubLookupError("empty query")
    needle = query.strip().lower()
    pool = list(entries)
    if adapter_type is not None:
        pool = [e for e in pool if e.adapter_type == adapter_type]
    compatible = pool
    if model_config_hash is not None:
        compatible = [e for e in pool if e.model_config_hash == model_config_hash]

    matches = [e for e in compatible if needle in e.adapter_id.lower()]
    if not matches:
        shadowed = [e for e in pool if needle in e.adapter_id.lower()]
        if shadowed:
            ids = ", ".join(sorted({e.adapter_id for e in shadowed}))
            raise HubLookupError(
                f"no entry matching {query!r} is compatible with this model "
                f"(found for other backbones: {ids})")
        raise HubLookupError(f"no entry matches {query!r}")
    exact = [e for e in matches if e.adapter_id.lower() == needle]
    if len(exact) == 1:
        return exact[0]
    if len(matches) > 1:
        raise AmbiguousQueryError(query, sorted(matches, key=lambda e: e.adapter_id))
    return matches[0]


# ---------------------------------------------------------------------------
# transport and cache


def default_cache_dir():
    env = os.environ.get(CACHE_ENV_VAR)
    if env:
        return Path(env)
    return Path.home() / ".cache" / "adapterkit"


def _download(url, sha256):
    """Yield the body at ``url`` chunk by chunk, hashed as it passes, then raise
    :class:`ChecksumError` if its SHA-256 is not ``sha256``, so a writer drops the mismatch.
    A body that is still arriving ``DOWNLOAD_DEADLINE_S`` after the start raises :class:`TransportError`."""
    h, size = hashlib.sha256(), 0
    deadline = time.monotonic() + DOWNLOAD_DEADLINE_S
    try:
        scheme = urlsplit(url).scheme
        if scheme not in _URL_SCHEMES:
            raise TransportError(f"unsupported url scheme {scheme!r}")
        with urllib.request.urlopen(url, timeout=DOWNLOAD_TIMEOUT_S) as resp:
            while chunk := resp.read1(_DOWNLOAD_CHUNK):  # what one socket read gives, not a full chunk
                size += len(chunk)
                if size > DOWNLOAD_MAX_BYTES:
                    raise TransportError(f"{url} is larger than {DOWNLOAD_MAX_BYTES} bytes")
                if time.monotonic() > deadline:
                    raise TransportError(f"{url} took longer than {DOWNLOAD_DEADLINE_S} s")
                h.update(chunk)
                yield chunk
    except (urllib.error.URLError, OSError, ValueError) as exc:
        raise TransportError(f"fetch failed for {url}: {exc}") from None
    actual = h.hexdigest()
    if actual != sha256:
        raise ChecksumError(
            f"downloaded archive digest {actual[:12]}... does not match expected {sha256[:12]}...")


def fetch(url, sha256, cache_dir=None):
    """Download an archive into the content-addressed cache.

    The cache key is the expected sha256, so a file already present (and still matching)
    is returned without touching the network. A download is hashed as it is written, and
    one that does not match never reaches the cache. Returns ``(path, downloaded)``.
    """
    if not _HEX64.match(sha256 or ""):
        raise ChecksumError(f"expected sha256 must be 64 hex characters, got {sha256!r}")
    cache = Path(cache_dir) if cache_dir is not None else default_cache_dir()
    cache.mkdir(parents=True, exist_ok=True)
    dest = cache / f"{sha256}.zip"
    try:
        if package_io.file_sha256(dest) == sha256:
            return dest, False
        dest.unlink(missing_ok=True)  # self-heal a corrupted cache file
    except FileNotFoundError:
        pass  # not cached, or removed by another thread or process since
    package_io._atomic_write_bytes(dest, _download(url, sha256))
    return dest, True


def install_from_hub(model, entries, query, cache_dir=None, rename=None):
    """Resolve, fetch, verify, and register an adapter in one step.

    Returns ``(registered name, resolved entry, downloaded flag)``.
    """
    entry = resolve(entries, query, model_config_hash=model.config.config_hash())
    path, downloaded = fetch(entry.url, entry.sha256, cache_dir)
    pkg, metadata = package_io.read_archive(path)
    if pkg.model_config_hash != entry.model_config_hash:
        raise RegistryError(
            f"archive for {entry.adapter_id!r} contains model hash "
            f"{pkg.model_config_hash[:12]}..., index advertises {entry.model_config_hash[:12]}...")
    if pkg.adapter_config_hash != entry.adapter_config_hash:
        raise RegistryError(
            f"archive for {entry.adapter_id!r} contains adapter config hash "
            f"{pkg.adapter_config_hash[:12]}..., index advertises {entry.adapter_config_hash[:12]}...")
    if metadata.get("adapter_id") not in (None, entry.adapter_id):
        raise RegistryError(
            f"archive metadata names {metadata.get('adapter_id')!r}, index says {entry.adapter_id!r}")
    name = model.load_adapter(pkg, rename=rename)
    return name, entry, downloaded
