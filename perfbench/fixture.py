"""Set-up shared by every workload: the adapter lifecycle's artifacts.

Everything here is made from the run's seed, except the malformed-input
corpus, which uses a fixed seed so that the operations that fail on it fail
the same way on every run.
"""

import hashlib
import json
import zipfile
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import yaml

from adapterkit import hub, package_io, training
from adapterkit.adapters import preset
from adapterkit.backbone import ModelConfig
from adapterkit.manager import AdapterModel, new_adapter_entry

import reference

BATCH = 16
TRAIN_SIZE, DEV_SIZE = 256, 64
SERVE_LABELS = 3
MAX_LEN = 32

# served adapter -> (preset, adapter type, bundled head)
SERVE_ADAPTERS = {
    "pfeiffer": ("pfeiffer", "text_task", "head-pfeiffer"),
    "houlsby": ("houlsby", "text_task", "head-houlsby"),
    "bapna": ("bapna", "text_task", "head-bapna"),
    "stack-lang": ("pfeiffer", "text_lang", None),
    "stack-task": ("houlsby", "text_task", "head-stack"),
}
# serve request target -> (active stack, head)
SERVE_TARGETS = {
    "pfeiffer": (["pfeiffer"], "head-pfeiffer"),
    "houlsby": (["houlsby"], "head-houlsby"),
    "bapna": (["bapna"], "head-bapna"),
    "stack": (["stack-lang", "stack-task"], "head-stack"),
}

# the 12-layer, 768-wide reference shape; a pfeiffer adapter at reduction
# factor 16 adds 894,528 parameters there
REF_CONFIG = ModelConfig(hidden_size=768, num_layers=12, num_heads=12, ffn_size=3072,
                         vocab_size=30522, max_seq_len=512)
REF_PARAMS = 894_528

_TOPICS = ("sentiment", "nli", "qa", "ner", "pos", "sts", "paraphrase", "lang")
_FOREIGN_SHARE = 0.1
QUERY_COUNT = 32
MALFORMED_SEED = 0


def adapter_shapes(config, preset_name):
    """(tensor name, shape) of one adapter, from the benchmark's wiring table."""
    h = config.hidden_size
    b = h // preset(preset_name).reduction_factor
    points, _, ln_before, _ = reference.WIRING[preset_name]
    fields = [("w_down", (h, b)), ("b_down", (b,)), ("w_up", (b, h)), ("b_up", (h,))]
    if ln_before:
        fields += [("ln_before_gamma", (h,)), ("ln_before_beta", (h,))]
    return [(f"layer{i}.{p}.{f}", s) for i in range(config.num_layers) for p in points for f, s in fields]


def backbone_shapes(config):
    h, f = config.hidden_size, config.ffn_size
    out = [("token_embeddings", (config.vocab_size, h)), ("position_embeddings", (config.max_seq_len, h)),
           ("emb_ln_gamma", (h,)), ("emb_ln_beta", (h,))]
    layer = [("w_q", (h, h)), ("b_q", (h,)), ("w_k", (h, h)), ("b_k", (h,)), ("w_v", (h, h)), ("b_v", (h,)),
             ("w_o", (h, h)), ("b_o", (h,)), ("attn_ln_gamma", (h,)), ("attn_ln_beta", (h,)),
             ("w_ffn_in", (h, f)), ("b_ffn_in", (f,)), ("w_ffn_out", (f, h)), ("b_ffn_out", (h,)),
             ("ffn_ln_gamma", (h,)), ("ffn_ln_beta", (h,))]
    return out + [(f"layer{i}.{n}", s) for i in range(config.num_layers) for n, s in layer]


def _random(rng, shapes, std):
    """Normal arrays; LayerNorm gains centre on one."""
    return {n: (1.0 if n.endswith("gamma") else 0.0) + rng.normal(0.0, std, size=s) for n, s in shapes}


def f32(arrays):
    """The float32 rounding the package format applies to adapter payloads."""
    return {n: a.astype(np.float32).astype(np.float64) for n, a in arrays.items()}


def _set(named_tensors, arrays):
    named = dict(named_tensors)
    if set(named) != set(arrays):
        raise RuntimeError(f"tensor names differ: {sorted(set(named) ^ set(arrays))}")
    for name, t in named.items():
        t.data = arrays[name].copy()


def _hex(rng):
    return bytes(rng.integers(0, 256, size=32, dtype=np.uint8)).hex()


@dataclass
class Fixture:
    dir: Path
    config: ModelConfig
    tasks: dict            # task name -> (train x, train y, dev x, dev y)
    base: dict             # backbone tensor name -> array, as generated
    adapters: dict         # served adapter -> {tensor name: float32-rounded array}
    heads: dict            # head name -> (w, b), float32-rounded
    hooks: dict            # serve target -> reference.layer_hooks(...)
    digests: dict          # served adapter -> producer-side digest_adapter()
    checkpoint: Path
    packages: dict         # served adapter -> package path
    train_seed: int        # seed of the training backbone
    train_backbone: object  # that backbone, shared by every adapter_only call
    consumer: AdapterModel  # serves requests
    installer: AdapterModel  # receives hub installs
    ref_source: dict       # reference adapter tensors, float64 as generated
    ref_entry: object
    ref_path: Path
    archives: dict         # served adapter -> (hub card dict, archive path, package path, metadata)
    cards: list            # card dicts: archive cards first, then generated ones
    card_texts: list       # the same cards as YAML text
    index_text: str        # canonical index of ``cards``
    entries: list          # HubEntry list parsed from ``index_text``
    queries: list
    cache: Path
    malformed: list        # (kind, library call, CLI argv)


def load_consumer(checkpoint, packages):
    """What a consumer does before serving: checkpoint plus every package."""
    config, weights = package_io.load_backbone_checkpoint(checkpoint)
    model = AdapterModel(config, weights=weights)
    for path in packages.values():
        model.load_adapter(path)
    return model


def build(dirpath, seed, cards):
    """All fixtures for one run, written under ``dirpath``."""
    dirpath.mkdir(parents=True)
    config = ModelConfig()
    data_ss, weight_ss, hub_ss, train_ss = np.random.SeedSequence(seed).spawn(4)
    train_seed = int(train_ss.generate_state(1)[0])
    task_seeds = data_ss.generate_state(len(training.TASKS))
    tasks = {name: training.generate_toy_task(name, int(s)).datasets(TRAIN_SIZE, DEV_SIZE)
             for name, s in zip(training.TASKS, task_seeds)}

    rng = np.random.default_rng(weight_ss)
    base = _random(rng, backbone_shapes(config), 0.1)
    producer = AdapterModel(config, seed=0)
    _set(producer.weights.named_tensors(), base)
    adapters, heads, digests, packages = {}, {}, {}, {}
    for name, (pre, kind, head) in SERVE_ADAPTERS.items():
        adapters[name] = f32(_random(rng, adapter_shapes(config, pre), 0.3))
        _set(producer.add_adapter(name, adapter_type=kind, config=pre).named_tensors(), adapters[name])
        digests[name] = producer.digest_adapter(name)
        if head is not None:
            h = producer.add_head(head, SERVE_LABELS)
            heads[head] = (f32({"w": rng.normal(0.0, 1.0, size=h.w.shape)})["w"],
                           f32({"b": rng.normal(0.0, 0.1, size=h.b.shape)})["b"])
            h.w.data, h.b.data = heads[head][0].copy(), heads[head][1].copy()
        packages[name] = dirpath / f"{name}.pkg"
        producer.save_adapter(name, packages[name], with_head=head)
    checkpoint = dirpath / "backbone.ckpt"
    package_io.save_backbone_checkpoint(checkpoint, config, producer.weights)
    hooks = {t: reference.layer_hooks(config, [(SERVE_ADAPTERS[a][0], adapters[a]) for a in stack])
             for t, (stack, _) in SERVE_TARGETS.items()}

    consumer = load_consumer(checkpoint, packages)
    installer = AdapterModel(consumer.config, weights=consumer.weights)

    ref_source = _random(rng, adapter_shapes(REF_CONFIG, "pfeiffer"), 0.02)
    ref_entry = new_adapter_entry(REF_CONFIG, "reference", "text_task", preset("pfeiffer"), rng)
    _set(ref_entry.named_tensors(), ref_source)
    ref_path = dirpath / "reference.pkg"

    hrng = np.random.default_rng(hub_ss)
    archives, card_list = {}, []
    for name, path in packages.items():
        meta = {"adapter_id": f"bench-{name}", "adapter_type": SERVE_ADAPTERS[name][1],
                "level2": "bench", "level3": name, "model_type": config.model_type,
                "model_config_hash": config.config_hash(),
                "adapter_config_hash": preset(SERVE_ADAPTERS[name][0]).config_hash()}
        zip_path = dirpath / f"{name}.zip"
        sha = package_io.pack_archive(zip_path, path, meta)
        card = {**meta, "url": zip_path.resolve().as_uri(), "sha256": sha}
        archives[name] = (card, zip_path, path, meta)
        card_list.append(card)
    taken = {c["adapter_id"] for c in card_list}
    while len(card_list) < cards:
        topic = _TOPICS[int(hrng.integers(len(_TOPICS)))]
        adapter_id = f"{topic}-{int(hrng.integers(1, 1000))}"
        if adapter_id in taken:
            continue
        taken.add(adapter_id)
        foreign = hrng.random() < _FOREIGN_SHARE
        card_list.append({
            "adapter_id": adapter_id, "adapter_type": "text_lang" if topic == "lang" else "text_task",
            "level2": topic, "level3": adapter_id, "model_type": config.model_type,
            "model_config_hash": _hex(hrng) if foreign else config.config_hash(),
            "adapter_config_hash": _hex(hrng), "url": f"https://mirror.invalid/{adapter_id}.zip",
            "sha256": _hex(hrng), "description": f"{topic} adapter {adapter_id}"})
    # quoted YAML scalars: the values are ids, hashes, URLs and plain words
    card_texts = ["".join(f"{k}: '{v}'\n" for k, v in sorted(c.items())) for c in card_list]
    index_text = hub.build_index([hub.ingest_metadata(c) for c in card_list])
    entries = hub.parse_index(index_text)

    ids = [c["adapter_id"] for c in card_list]
    queries = []
    for i in range(QUERY_COUNT):
        pick = ids[int(hrng.integers(len(ids)))]
        start = int(hrng.integers(len(pick) - 2))
        queries.append([pick, pick.upper(), pick[start:start + 3], pick.split("-")[0], "bench-",
                        "no-such-adapter"][i % 6])

    cache = dirpath / "cache"
    cache.mkdir()
    return Fixture(dirpath, config, tasks, base, adapters, heads, hooks, digests, checkpoint, packages,
                   train_seed, AdapterModel(config, seed=train_seed).weights, consumer, installer,
                   ref_source, ref_entry, ref_path, archives, card_list, card_texts, index_text, entries,
                   queries, cache, malformed_corpus(dirpath / "malformed"))


def malformed_corpus(dirpath):
    """Corrupt artifacts, each with the library call and CLI command that must reject it.

    Built from a fixed seed, independent of the run's seed.
    """
    dirpath.mkdir()
    config = ModelConfig()
    model = AdapterModel(config, seed=MALFORMED_SEED)
    model.add_head("head", 2)
    model.add_adapter("fixed")
    good = dirpath / "good.pkg"
    model.save_adapter("fixed", good, with_head="head")
    checkpoint = dirpath / "backbone.ckpt"
    package_io.save_backbone_checkpoint(checkpoint, config, model.weights)
    data = good.read_bytes()

    def resealed(body):
        return body + hashlib.sha256(body).digest()

    def write(name, content):
        path = dirpath / name
        path.write_bytes(content if isinstance(content, bytes) else content.encode("utf-8"))
        return path

    flipped = bytearray(data)
    flipped[-40] ^= 0xFF
    header = bytearray(data[:-32])
    header[16] = 0xFF  # first byte of the header text
    foreign = AdapterModel(ModelConfig(hidden_size=32), seed=MALFORMED_SEED)
    foreign.add_adapter("foreign")
    foreign_pkg = dirpath / "foreign.pkg"
    foreign.save_adapter("foreign", foreign_pkg)
    card = {"adapter_id": "no-sha", "adapter_type": "text_task", "level2": "x", "level3": "y",
            "model_type": config.model_type, "model_config_hash": config.config_hash(),
            "adapter_config_hash": config.config_hash(), "url": "file:///nowhere.zip"}
    archive = dirpath / "partial.zip"
    with zipfile.ZipFile(archive, "w") as zf:
        zf.writestr(package_io.ARCHIVE_PACKAGE, data)
    inputs = write("inputs.txt", "1 2 3\n")

    packages = [
        ("flipped-payload-byte", write("flipped.pkg", bytes(flipped))),
        ("truncated", write("truncated.pkg", data[:len(data) // 2])),
        ("bad-magic", write("magic.pkg", b"XXXX" + data[4:])),
        ("future-version", write("version.pkg", data[:4] + (2).to_bytes(4, "little") + data[8:])),
        ("non-utf8-header", write("header.pkg", resealed(bytes(header)))),
    ]
    cases = [(kind, lambda p=path: package_io.load_adapter_package(p), ["validate", "--package", str(path)])
             for kind, path in packages]
    cases.append(("incompatible-backbone", lambda: model.load_adapter(foreign_pkg, rename="foreign"),
                  ["validate", "--package", str(foreign_pkg), "--checkpoint", str(checkpoint)]))
    for kind, text in (("index-not-json", "{not json"),
                       ("index-non-mapping-row", json.dumps({"format": hub.INDEX_FORMAT,
                                                             "version": hub.INDEX_VERSION,
                                                             "entries": [42]}))):
        path = write(f"{kind}.json", text)
        cases.append((kind, lambda t=text: hub.parse_index(t), ["explore", "--index", str(path)]))
    card_text = yaml.safe_dump(card)
    card_path = write("card.yaml", card_text)
    cases.append(("card-missing-sha256", lambda: hub.ingest_metadata(card_text),
                  ["index", "--cards", str(card_path), "--out", str(dirpath / "index.json")]))
    cases.append(("archive-missing-entries", lambda: package_io.read_archive(archive),
                  ["run", "--checkpoint", str(checkpoint), "--archive", str(archive),
                   "--inputs", str(inputs)]))
    return cases
