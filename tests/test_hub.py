import dataclasses
import datetime
import hashlib
import ipaddress
import json
import socket
import ssl
import threading
import time
import tracemalloc
from http.server import BaseHTTPRequestHandler, HTTPServer
from pathlib import Path

import numpy as np
import pytest
import yaml

from adapterkit import hub, package_io
from adapterkit.adapters import AdapterConfig
from adapterkit.cli import main
from adapterkit.errors import (AmbiguousQueryError, ChecksumError, HubLookupError,
                               MetadataError, RegistryError, TransportError)
from adapterkit.manager import AdapterModel
from adapterkit.package_io import pack_archive


def _card(**overrides):
    base = {
        "adapter_id": "sst-2",
        "adapter_type": "text_task",
        "level2": "sentiment",
        "level3": "sst-2",
        "model_type": "mini-bert",
        "model_config_hash": "a" * 64,
        "adapter_config_hash": "b" * 64,
        "url": "file:///tmp/sst-2.zip",
        "sha256": "c" * 64,
    }
    base.update(overrides)
    return {k: v for k, v in base.items() if v is not None}


def _entries():
    return [
        hub.ingest_metadata(_card()),
        hub.ingest_metadata(_card(adapter_id="sts-b", level2="similarity", level3="sts-b")),
        hub.ingest_metadata(_card(adapter_id="en", adapter_type="text_lang",
                                  level2="wikipedia", level3="en")),
        hub.ingest_metadata(_card(model_config_hash="d" * 64)),  # same id, other backbone
    ]


# -- metadata ----------------------------------------------------------------


def test_ingest_accepts_yaml_and_mapping():
    import yaml
    card = _card(description="sentiment adapter", author="someone",
                 preset="pfeiffer", reduction_factor=16, version="1")
    from_text = hub.ingest_metadata(yaml.safe_dump(card))
    from_dict = hub.ingest_metadata(card)
    assert from_text == from_dict
    assert from_text.reduction_factor == 16
    assert from_text.to_dict() == card


def test_ingest_reports_every_violation_at_once():
    card = _card(adapter_id="Bad Id!", adapter_type="text_video",
                 sha256="zz", url="ftp://mirror/x.zip", flavor="spicy")
    del card["level3"]
    with pytest.raises(MetadataError) as err:
        hub.ingest_metadata(card)
    text = str(err.value)
    for needle in ("adapter_id", "adapter_type", "sha256", "url scheme",
                   "level3", "flavor"):
        assert needle in text, (needle, text)


def test_ingest_rejects_non_mapping_and_bad_types():
    with pytest.raises(MetadataError):
        hub.ingest_metadata("- just\n- a list\n")
    with pytest.raises(MetadataError):
        hub.ingest_metadata(_card(reduction_factor="sixteen"))
    with pytest.raises(MetadataError):
        hub.ingest_metadata(_card(reduction_factor=0))
    for bad, message in ((True, "an integer"), (np.True_, "an integer"), (1.5, "an integer"),
                         (2.0, "an integer"), ("3", "an integer"), (0, ">= 1")):  # None: no factor
        with pytest.raises(MetadataError, match=f"reduction_factor must be {message}"):
            hub.ingest_metadata(_card(reduction_factor=bad))
    for good in (np.int64(16), np.uint32(16)):  # a mapping card takes the integers add_adapter takes
        entry = hub.ingest_metadata(_card(reduction_factor=good))
        assert type(entry.reduction_factor) is int and entry.reduction_factor == 16
    with pytest.raises(MetadataError):
        hub.ingest_metadata(_card(model_config_hash="A" * 64))  # uppercase hex
    for card in ("adapter_id: 2001-13-45\n", "adapter_id: !!int ''\n"):  # yaml builds no value
        with pytest.raises(MetadataError, match="not valid YAML"):
            hub.ingest_metadata(card)
    with pytest.raises(MetadataError, match="url"):
        hub.ingest_metadata(_card(url="http://["))  # urlsplit raises ValueError
    with pytest.raises(MetadataError) as err:
        hub.ingest_metadata("1: 2\nfoo: 3\nNone: 4\n" + yaml.safe_dump(_card()))
    assert err.value.violations == ["unknown field 'None'", "unknown field 'foo'", "unknown field 1"]


# -- index -------------------------------------------------------------------


def test_index_is_order_independent_and_parses_back():
    entries = _entries()
    text_a = hub.build_index(entries)
    text_b = hub.build_index(list(reversed(entries)))
    assert text_a == text_b
    parsed = hub.parse_index(text_a)
    assert sorted(e.adapter_id for e in parsed) == sorted(e.adapter_id for e in entries)
    assert hub.build_index(parsed) == text_a


def test_index_rejects_duplicates_and_garbage(tmp_path):
    entries = _entries()
    with pytest.raises(RegistryError):
        hub.build_index(entries + [entries[0]])
    # the reader takes the writer's rule: one row per (adapter_id, model_config_hash)
    doc = json.loads(hub.build_index(entries))
    doc["entries"].append(dict(doc["entries"][0], sha256="e" * 64))
    with pytest.raises(RegistryError, match="duplicate index entry"):
        hub.parse_index(json.dumps(doc))
    index = tmp_path / "index.json"
    index.write_text(json.dumps(doc))
    assert main(["explore", "--index", str(index)]) == 2
    with pytest.raises(RegistryError):
        hub.parse_index("{not json")
    with pytest.raises(RegistryError):
        hub.parse_index(json.dumps({"format": "something-else", "version": 1}))
    with pytest.raises(RegistryError):
        hub.parse_index(json.dumps({"format": hub.INDEX_FORMAT, "version": 99}))
    bad = json.loads(hub.build_index(entries))
    del bad["entries"][0]["url"]
    with pytest.raises(RegistryError):
        hub.parse_index(json.dumps(bad))
    # every entries row must be a JSON object, even one that dict() or YAML would accept
    row = entries[0].to_dict()
    for rows in ([42], [list(row.items())], [yaml.safe_dump(row)], 42):
        doc = {"format": hub.INDEX_FORMAT, "version": hub.INDEX_VERSION, "entries": rows}
        with pytest.raises(RegistryError):
            hub.parse_index(json.dumps(doc))


def test_explore_tree_three_levels():
    tree = hub.explore_tree(_entries())
    assert list(tree) == ["text_lang", "text_task"]
    assert tree["text_task"]["sentiment"]["sst-2"] == ["sst-2"]
    assert tree["text_task"]["similarity"]["sts-b"] == ["sts-b"]
    assert tree["text_lang"]["wikipedia"]["en"] == ["en"]
    rendered = hub.format_explore_tree(tree)
    assert rendered.splitlines()[0] == "text_lang"
    assert "    sst-2: sst-2" in rendered.splitlines()
    assert hub.format_explore_tree({}) == ""


# -- resolution --------------------------------------------------------------


def test_resolve_substring_and_exact_preference():
    entries = _entries()
    live = "a" * 64
    assert hub.resolve(entries, "sst", model_config_hash=live).level2 == "sentiment"
    assert hub.resolve(entries, "SST-2", model_config_hash=live).adapter_id == "sst-2"
    assert hub.resolve(entries, "en", model_config_hash=live).adapter_type == "text_lang"
    # exact id match beats substring when both are present
    extra = entries + [hub.ingest_metadata(_card(adapter_id="sst-2-domain", level3="v2"))]
    assert hub.resolve(extra, "sst-2", model_config_hash=live).adapter_id == "sst-2"


def test_resolve_ambiguity_lists_candidates():
    with pytest.raises(AmbiguousQueryError) as err:
        hub.resolve(_entries(), "s", model_config_hash="a" * 64)
    msg = str(err.value)
    assert "sst-2" in msg and "sts-b" in msg


def test_resolve_never_returns_incompatible():
    entries = _entries()
    other = hub.resolve(entries, "sst", model_config_hash="d" * 64)
    assert other.model_config_hash == "d" * 64
    with pytest.raises(HubLookupError) as err:
        hub.resolve(entries, "sst", model_config_hash="e" * 64)
    assert "other backbones" in str(err.value)
    with pytest.raises(HubLookupError):
        hub.resolve(entries, "nope", model_config_hash="a" * 64)
    with pytest.raises(HubLookupError):
        hub.resolve(entries, "   ")
    with pytest.raises(HubLookupError):
        hub.resolve(entries, "sst", adapter_type="text_lang")


# -- transport and cache -----------------------------------------------------


def test_fetch_file_url_offline_and_cached(tmp_path):
    payload = b"archive bytes"
    src = tmp_path / "src.zip"
    src.write_bytes(payload)
    sha = hashlib.sha256(payload).hexdigest()
    cache = tmp_path / "cache"
    path, downloaded = hub.fetch(src.as_uri(), sha, cache_dir=cache)
    assert downloaded
    assert path == cache / f"{sha}.zip"
    assert path.read_bytes() == payload
    src.unlink()  # second fetch must not need the source at all
    path2, downloaded2 = hub.fetch(src.as_uri(), sha, cache_dir=cache)
    assert path2 == path and not downloaded2


def test_fetch_self_heals_corrupt_cache(tmp_path):
    payload = b"good data"
    src = tmp_path / "src.zip"
    src.write_bytes(payload)
    sha = hashlib.sha256(payload).hexdigest()
    cache = tmp_path / "cache"
    cache.mkdir()
    (cache / f"{sha}.zip").write_bytes(b"rotten")
    path, downloaded = hub.fetch(src.as_uri(), sha, cache_dir=cache)
    assert downloaded
    assert path.read_bytes() == payload


@pytest.mark.parametrize("when", ["before", "after"])
def test_fetch_survives_a_cache_file_that_vanishes(tmp_path, monkeypatch, when):
    """Another thread or process removes the corrupt cache file just before or after it is read."""
    payload = b"good data"
    src = tmp_path / "src.zip"
    src.write_bytes(payload)
    sha = hashlib.sha256(payload).hexdigest()
    cache = tmp_path / "cache"
    cache.mkdir()
    dest = cache / f"{sha}.zip"
    dest.write_bytes(b"rotten")

    def vanishing(read):
        def wrapper(path, *args):
            if Path(path) == dest and when == "before":
                dest.unlink()
            result = read(path, *args)
            if Path(path) == dest and when == "after":
                dest.unlink()
            return result
        return wrapper

    monkeypatch.setattr(Path, "read_bytes", vanishing(Path.read_bytes))
    monkeypatch.setattr(package_io, "file_sha256", vanishing(package_io.file_sha256))
    path, downloaded = hub.fetch(src.as_uri(), sha, cache_dir=cache)
    assert downloaded and path == dest
    monkeypatch.undo()
    assert path.read_bytes() == payload


def test_fetch_hashes_a_cache_hit_in_bounded_memory(tmp_path):
    payload = np.random.default_rng(3).bytes(4 * 2**20 + 7)
    src = tmp_path / "src.zip"
    src.write_bytes(payload)
    sha = hashlib.sha256(payload).hexdigest()
    cache = tmp_path / "cache"
    hub.fetch(src.as_uri(), sha, cache_dir=cache)
    tracemalloc.start()
    try:
        path, downloaded = hub.fetch(src.as_uri(), sha, cache_dir=cache)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert not downloaded and path.read_bytes() == payload
    assert peak <= 2**20 + 2**16, peak


def test_cold_fetch_streams_the_download_in_bounded_memory(tmp_path):
    """A download goes through its hash into the cache a chunk at a time, never held whole."""
    payload = np.random.default_rng(4).bytes(8 * 2**20 + 7)
    src = tmp_path / "src.zip"
    src.write_bytes(payload)
    sha = hashlib.sha256(payload).hexdigest()
    tracemalloc.start()
    try:
        path, downloaded = hub.fetch(src.as_uri(), sha, cache_dir=tmp_path / "cache")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert downloaded and path.read_bytes() == payload
    assert peak < 3 * 2**20, peak


def test_fetch_checksum_and_transport_errors(tmp_path):
    src = tmp_path / "src.zip"
    src.write_bytes(b"data")
    with pytest.raises(ChecksumError):
        hub.fetch(src.as_uri(), "f" * 64, cache_dir=tmp_path / "c1")
    assert list((tmp_path / "c1").iterdir()) == []  # neither the archive nor a temp file
    with pytest.raises(ChecksumError):
        hub.fetch(src.as_uri(), "short", cache_dir=tmp_path / "c2")
    missing = tmp_path / "missing.zip"
    with pytest.raises(TransportError):
        hub.fetch(missing.as_uri(), "a" * 64, cache_dir=tmp_path / "c3")
    with pytest.raises(TransportError, match="unsupported url scheme 'ftp'"):
        hub.fetch("ftp://mirror/x.zip", "a" * 64, cache_dir=tmp_path / "c4")
    assert [list(c.iterdir()) for c in (tmp_path / "c3", tmp_path / "c4")] == [[], []]


def test_fetch_is_bounded_in_time_and_size(tmp_path, monkeypatch):
    payload = b"an archive of 28 bytes total"
    src = tmp_path / "src.zip"
    src.write_bytes(payload)
    sha = hashlib.sha256(payload).hexdigest()
    timeouts = []
    urlopen = hub.urllib.request.urlopen

    def recording_urlopen(url, *args, **kwargs):
        timeouts.append(kwargs.get("timeout"))
        return urlopen(url, *args, **kwargs)

    monkeypatch.setattr(hub.urllib.request, "urlopen", recording_urlopen)
    monkeypatch.setattr(hub, "_DOWNLOAD_CHUNK", 8)
    monkeypatch.setattr(hub, "DOWNLOAD_MAX_BYTES", len(payload) - 1)
    cache = tmp_path / "cache"
    with pytest.raises(TransportError, match="larger than"):
        hub.fetch(src.as_uri(), sha, cache_dir=cache)
    assert list(cache.iterdir()) == []  # nothing half-written into the cache
    monkeypatch.setattr(hub, "DOWNLOAD_MAX_BYTES", len(payload))
    assert hub.fetch(src.as_uri(), sha, cache_dir=cache)[0].read_bytes() == payload
    assert timeouts == [hub.DOWNLOAD_TIMEOUT_S] * 2 and hub.DOWNLOAD_TIMEOUT_S > 0


def test_fetch_http_hits_server_once(tmp_path):
    payload = b"http served archive"
    sha = hashlib.sha256(payload).hexdigest()
    hits = []

    class Handler(BaseHTTPRequestHandler):
        def do_GET(self):
            hits.append(self.path)
            self.send_response(200)
            self.send_header("Content-Length", str(len(payload)))
            self.end_headers()
            self.wfile.write(payload)

        def log_message(self, *args):
            pass

    try:
        server = HTTPServer(("127.0.0.1", 0), Handler)
    except OSError:
        pytest.skip("cannot bind a localhost socket here")
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        url = f"http://127.0.0.1:{server.server_port}/a.zip"
        cache = tmp_path / "cache"
        _, downloaded = hub.fetch(url, sha, cache_dir=cache)
        _, downloaded2 = hub.fetch(url, sha, cache_dir=cache)
        assert downloaded and not downloaded2
        assert hits == ["/a.zip"]
    finally:
        server.shutdown()
        thread.join()
        server.server_close()


def test_fetch_is_bounded_in_wall_time(tmp_path, monkeypatch):
    """A mirror that sends one byte every 0.2 s beats every socket timeout, but not the deadline."""
    payload = b"a 20-byte slow body."
    stop = threading.Event()

    class Handler(BaseHTTPRequestHandler):
        def do_GET(self):
            self.send_response(200)
            self.send_header("Content-Length", str(len(payload)))
            self.end_headers()
            try:
                for byte in payload:
                    if stop.wait(0.2):
                        return
                    self.wfile.write(bytes([byte]))
            except OSError:  # the client hung up
                pass

        def log_message(self, *args):
            pass

    try:
        server = HTTPServer(("127.0.0.1", 0), Handler)
    except OSError:
        pytest.skip("cannot bind a localhost socket here")
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    monkeypatch.setattr(hub, "DOWNLOAD_DEADLINE_S", 0.5)
    monkeypatch.setattr(hub, "DOWNLOAD_TIMEOUT_S", 1.0)
    cache = tmp_path / "cache"
    cache.mkdir()
    earlier = cache / f"{'c' * 64}.zip"
    earlier.write_bytes(b"an earlier download")
    before = earlier.stat()
    try:
        url = f"http://127.0.0.1:{server.server_port}/slow.zip"
        started = time.monotonic()
        with pytest.raises(TransportError, match="took longer than 0.5 s"):
            hub.fetch(url, hashlib.sha256(payload).hexdigest(), cache_dir=cache)
        assert time.monotonic() - started < hub.DOWNLOAD_DEADLINE_S + hub.DOWNLOAD_TIMEOUT_S
    finally:
        stop.set()
        server.shutdown()
        thread.join()
        server.server_close()
    assert list(cache.iterdir()) == [earlier]  # no archive and no .tmp- file
    assert earlier.read_bytes() == b"an earlier download"
    assert (earlier.stat().st_mtime_ns, earlier.stat().st_ino) == (before.st_mtime_ns, before.st_ino)


def test_fetch_bounds_drip_fed_headers(tmp_path, monkeypatch):
    """A mirror that sends its status line and headers one byte every 0.2 s is cut off at the deadline."""
    response = b"HTTP/1.0 200 OK\r\nX-Slow: fifteen bytes..\r\nContent-Length: 4\r\n\r\nbody"
    stop = threading.Event()
    try:
        listener = socket.create_server(("127.0.0.1", 0))
    except OSError:
        pytest.skip("cannot bind a localhost socket here")
    listener.settimeout(5.0)

    def serve():
        conn, _ = listener.accept()
        with conn:
            conn.recv(65536)  # the request
            for byte in response:
                if stop.wait(0.2):
                    return
                try:
                    conn.sendall(bytes([byte]))
                except OSError:  # the client hung up
                    return

    thread = threading.Thread(target=serve)
    thread.start()
    monkeypatch.setattr(hub, "DOWNLOAD_DEADLINE_S", 0.5)
    monkeypatch.setattr(hub, "DOWNLOAD_TIMEOUT_S", 1.0)
    cache = tmp_path / "cache"
    threads = set(threading.enumerate())
    try:
        url = f"http://127.0.0.1:{listener.getsockname()[1]}/slow.zip"
        started = time.monotonic()
        with pytest.raises(TransportError, match="took longer than 0.5 s"):
            hub.fetch(url, hashlib.sha256(b"body").hexdigest(), cache_dir=cache)
        assert time.monotonic() - started < 1.5
        assert set(threading.enumerate()) == threads  # the watchdog timer is gone
    finally:
        stop.set()
        thread.join(5.0)
        listener.close()
    assert not thread.is_alive()
    assert list(cache.iterdir()) == []  # no archive and no .tmp- file


def _serve_once(listener, respond):
    """Accept one connection on ``listener`` in a thread, read the request and ``respond(conn)``."""

    def serve():
        conn, _ = listener.accept()
        with conn:
            conn.recv(65536)  # the request
            respond(conn)

    thread = threading.Thread(target=serve)
    thread.start()
    return thread


def _listener(context=None):
    """A localhost listening socket, TLS when ``context`` is given, whose accept waits at most 5 s."""
    try:
        listener = socket.create_server(("127.0.0.1", 0))
    except OSError:
        pytest.skip("cannot bind a localhost socket here")
    listener.settimeout(5.0)
    return context.wrap_socket(listener, server_side=True) if context else listener


def test_fetch_reports_a_cut_off_body_as_a_transport_failure(tmp_path):
    """A mirror that declares 10 bytes, sends 4 and hangs up fails the transport, not the checksum."""
    listener = _listener()
    thread = _serve_once(listener, lambda conn: conn.sendall(
        b"HTTP/1.0 200 OK\r\nContent-Length: 10\r\n\r\nbody"))
    cache = tmp_path / "cache"
    try:
        url = f"http://127.0.0.1:{listener.getsockname()[1]}/cut.zip"
        with pytest.raises(TransportError, match="cut off 6 bytes short"):
            hub.fetch(url, hashlib.sha256(b"body").hexdigest(), cache_dir=cache)
    finally:
        thread.join(5.0)
        listener.close()
    assert list(cache.iterdir()) == []  # no archive and no .tmp- file


@pytest.fixture
def tls_server_context(tmp_path, monkeypatch):
    """A server-side TLS context for 127.0.0.1, its self-signed certificate trusted through
    ``SSL_CERT_FILE``, which the https handler's default context reads when it connects."""
    x509 = pytest.importorskip("cryptography.x509")
    from cryptography.hazmat.primitives import hashes, serialization
    from cryptography.hazmat.primitives.asymmetric import ec

    key = ec.generate_private_key(ec.SECP256R1())
    name = x509.Name([x509.NameAttribute(x509.NameOID.COMMON_NAME, "127.0.0.1")])
    now = datetime.datetime.now(datetime.timezone.utc)
    cert = (x509.CertificateBuilder().subject_name(name).issuer_name(name).public_key(key.public_key())
            .serial_number(x509.random_serial_number())
            .not_valid_before(now - datetime.timedelta(hours=1))
            .not_valid_after(now + datetime.timedelta(hours=1))
            .add_extension(x509.SubjectAlternativeName([x509.IPAddress(ipaddress.ip_address("127.0.0.1"))]),
                           critical=False)
            .add_extension(x509.BasicConstraints(ca=True, path_length=None), critical=True)
            .sign(key, hashes.SHA256()))
    cert_path, key_path = tmp_path / "cert.pem", tmp_path / "key.pem"
    cert_path.write_bytes(cert.public_bytes(serialization.Encoding.PEM))
    key_path.write_bytes(key.private_bytes(serialization.Encoding.PEM, serialization.PrivateFormat.PKCS8,
                                           serialization.NoEncryption()))
    monkeypatch.setenv("SSL_CERT_FILE", str(cert_path))
    context = ssl.SSLContext(ssl.PROTOCOL_TLS_SERVER)
    context.load_cert_chain(cert_path, key_path)
    return context


def test_fetch_over_https_verifies_and_caches(tmp_path, tls_server_context):
    payload = b"https served archive"
    listener = _listener(tls_server_context)
    thread = _serve_once(listener, lambda conn: conn.sendall(
        b"HTTP/1.0 200 OK\r\nContent-Length: %d\r\n\r\n%s" % (len(payload), payload)))
    cache = tmp_path / "cache"
    sha = hashlib.sha256(payload).hexdigest()
    try:
        url = f"https://127.0.0.1:{listener.getsockname()[1]}/a.zip"
        path, downloaded = hub.fetch(url, sha, cache_dir=cache)
        assert downloaded and path.read_bytes() == payload
        assert hub.fetch(url, sha, cache_dir=cache) == (path, False)  # a cache hit: no second connection
    finally:
        thread.join(5.0)
        listener.close()
    assert not thread.is_alive()


def test_fetch_over_https_bounds_a_drip_fed_status_line(tmp_path, monkeypatch, tls_server_context):
    stop = threading.Event()

    def drip(conn):
        for byte in b"HTTP/1.0 200 OK\r\nContent-Length: 4\r\n\r\nbody":
            if stop.wait(0.2):
                return
            try:
                conn.sendall(bytes([byte]))
            except OSError:  # the client hung up
                return

    listener = _listener(tls_server_context)
    thread = _serve_once(listener, drip)
    monkeypatch.setattr(hub, "DOWNLOAD_DEADLINE_S", 0.5)
    monkeypatch.setattr(hub, "DOWNLOAD_TIMEOUT_S", 1.0)
    cache = tmp_path / "cache"
    threads = set(threading.enumerate())
    try:
        url = f"https://127.0.0.1:{listener.getsockname()[1]}/slow.zip"
        started = time.monotonic()
        with pytest.raises(TransportError, match="took longer than 0.5 s"):
            hub.fetch(url, hashlib.sha256(b"body").hexdigest(), cache_dir=cache)
        assert time.monotonic() - started < 1.5
        assert set(threading.enumerate()) == threads  # the watchdog timer is gone
    finally:
        stop.set()
        thread.join(5.0)
        listener.close()
    assert not thread.is_alive()
    assert list(cache.iterdir()) == []  # no archive and no .tmp- file


def test_default_cache_dir_env_override(tmp_path, monkeypatch):
    monkeypatch.setenv(hub.CACHE_ENV_VAR, str(tmp_path / "alt"))
    assert hub.default_cache_dir() == tmp_path / "alt"
    monkeypatch.delenv(hub.CACHE_ENV_VAR)
    assert hub.default_cache_dir().name == "adapterkit"


# -- end to end ---------------------------------------------------------------


def _publish(model, name, tmp_path):
    """Save + archive one adapter; returns (zip path, archive sha, entry card)."""
    pkg_path = tmp_path / f"{name}.pkg"
    model.save_adapter(name, pkg_path)
    zip_path = tmp_path / f"{name}.zip"
    entry = model.get_adapter(name)
    meta = {
        "adapter_id": name,
        "adapter_type": entry.adapter_type,
        "level2": "sentiment",
        "level3": name,
        "model_type": model.config.model_type,
        "model_config_hash": model.config.config_hash(),
        "adapter_config_hash": entry.config.config_hash(),
        "url": zip_path.as_uri(),
        "sha256": "0" * 64,  # placeholder until the archive exists
    }
    sha = pack_archive(zip_path, pkg_path, meta)
    meta["sha256"] = sha
    return zip_path, sha, hub.ingest_metadata(meta)


def test_install_from_hub_round_trip(tmp_path, tiny_config):
    publisher = AdapterModel(tiny_config, seed=1)
    publisher.add_adapter("sst-2", reduction_factor=2)
    rng = np.random.default_rng(0)
    for layer in publisher.get_adapter("sst-2").weights:
        for w in layer.values():
            w.w_up.data = rng.standard_normal(w.w_up.shape)
    _, _, entry = _publish(publisher, "sst-2", tmp_path)

    consumer = AdapterModel(tiny_config, seed=2)
    name, resolved, downloaded = hub.install_from_hub(
        consumer, [entry], "sst", cache_dir=tmp_path / "cache")
    assert name == "sst-2" and downloaded
    assert resolved is entry
    got = consumer.get_adapter("sst-2")
    want = publisher.get_adapter("sst-2")
    for (na, ta), (nb, tb) in zip(want.named_tensors(), got.named_tensors()):
        assert np.array_equal(ta.data.astype(np.float32), tb.data.astype(np.float32))
    # a second install under a new name comes straight from the cache
    _, _, downloaded2 = hub.install_from_hub(
        consumer, [entry], "sst", cache_dir=tmp_path / "cache", rename="sst-again")
    assert not downloaded2
    assert "sst-again" in consumer.list_adapters()


def test_install_cross_checks_index_against_archive(tmp_path, tiny_config):
    publisher = AdapterModel(tiny_config, seed=3)
    publisher.add_adapter("sst-2", reduction_factor=2)
    _, _, entry = _publish(publisher, "sst-2", tmp_path)
    lying = hub.HubEntry(**{**entry.to_dict(), "adapter_config_hash": "e" * 64})
    consumer = AdapterModel(tiny_config, seed=4)
    with pytest.raises(RegistryError):
        hub.install_from_hub(consumer, [lying], "sst", cache_dir=tmp_path / "cache2")


def test_install_refuses_an_archive_that_contradicts_its_card(tmp_path, tiny_config):
    publisher = AdapterModel(tiny_config, seed=3)
    publisher.add_adapter("sst-2", reduction_factor=2)
    _, _, entry = _publish(publisher, "sst-2", tmp_path)
    consumer = AdapterModel(dataclasses.replace(tiny_config, vocab_size=65), seed=4)
    other_backbone = hub.HubEntry(**{**entry.to_dict(), "model_config_hash": consumer.config.config_hash()})
    with pytest.raises(RegistryError, match=f"says model_config_hash '{consumer.config.config_hash()}', "
                                            f"its archive says '{entry.model_config_hash}'"):
        hub.install_from_hub(consumer, [other_backbone], "sst", cache_dir=tmp_path / "cache")
    renamed = hub.HubEntry(**{**entry.to_dict(), "adapter_id": "sst-3"})
    with pytest.raises(RegistryError, match="says adapter_id 'sst-3', its archive says 'sst-2'"):
        hub.install_from_hub(AdapterModel(tiny_config, seed=4), [renamed], "sst", cache_dir=tmp_path / "cache")


@pytest.mark.parametrize("field, lie", [("adapter_type", "text_lang"), ("model_type", "roberta"),
                                        ("level2", "lang"), ("preset", "houlsby"), ("reduction_factor", 64)])
def test_install_refuses_a_card_that_contradicts_its_archive_on_any_field(tmp_path, tiny_config, field, lie):
    publisher = AdapterModel(tiny_config, seed=3)
    publisher.add_adapter("sst-2", reduction_factor=2)  # pfeiffer, on text_task / sentiment
    _, _, entry = _publish(publisher, "sst-2", tmp_path)
    truth = {**entry.to_dict(), "preset": "pfeiffer", "reduction_factor": 2}
    consumer = AdapterModel(tiny_config, seed=4)
    lying = hub.HubEntry(**{**truth, field: lie})
    with pytest.raises(RegistryError, match=f"says {field} {lie!r}, its archive says {truth[field]!r}"):
        hub.install_from_hub(consumer, [lying], "sst", cache_dir=tmp_path / "cache")
    assert consumer.list_adapters() == []
    hub.install_from_hub(consumer, [hub.HubEntry(**truth)], "sst", cache_dir=tmp_path / "cache")
    assert consumer.list_adapters() == ["sst-2"]


def test_install_refuses_a_preset_on_a_card_whose_archive_is_no_preset(tmp_path, tiny_config):
    publisher = AdapterModel(tiny_config, seed=3)
    publisher.add_adapter("odd", config=AdapterConfig(reduction_factor=2, non_linearity="tanh"))
    _, _, entry = _publish(publisher, "odd", tmp_path)
    consumer = AdapterModel(tiny_config, seed=4)
    lying = hub.HubEntry(**{**entry.to_dict(), "preset": "pfeiffer"})
    with pytest.raises(RegistryError, match="says preset 'pfeiffer', its archive says None"):
        hub.install_from_hub(consumer, [lying], "odd", cache_dir=tmp_path / "cache")
    assert consumer.list_adapters() == []
