import dataclasses
import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

import adapterkit.autodiff as ad
from adapterkit import package_io
from adapterkit.adapters import AdapterConfig, adapter_layout, count_adapter_params, preset, resolve_config
from adapterkit.errors import AdapterKitError, CompatibilityError, ShapeMismatchError, UnknownAdapterError
from adapterkit.backbone import init_backbone
from adapterkit.manager import AdapterModel, PredictionHead, new_adapter_entry


def test_add_and_list_adapters(tiny_model):
    tiny_model.add_adapter("sst", config="pfeiffer", reduction_factor=2)
    tiny_model.add_adapter("nli", config="houlsby", reduction_factor=2)
    assert tiny_model.list_adapters() == ["sst", "nli"]
    assert tiny_model.get_adapter("nli").config.reduction_factor == 2
    with pytest.raises(ValueError):
        tiny_model.add_adapter("sst")  # duplicate
    with pytest.raises(ValueError):
        tiny_model.add_adapter("bad name")
    with pytest.raises(ValueError):
        tiny_model.add_adapter("x", adapter_type="text_image")


def test_get_and_delete_unknown(tiny_model):
    with pytest.raises(UnknownAdapterError):
        tiny_model.get_adapter("nope")
    tiny_model.add_adapter("a", reduction_factor=2)
    tiny_model.set_active_adapters(["a"])
    tiny_model.delete_adapter("a")
    assert tiny_model.list_adapters() == []
    assert tiny_model.active_adapters == []
    with pytest.raises(UnknownAdapterError):
        tiny_model.delete_adapter("a")
    # deleting an active adapter is not an error: it leaves the stack, the rest keep their order
    for name in ("a", "b", "c"):
        tiny_model.add_adapter(name, reduction_factor=2)
    tiny_model.set_active_adapters(["a", "b", "c"])
    tiny_model.delete_adapter("b")
    assert tiny_model.active_adapters == ["a", "c"]
    tiny_model.encode([1, 2, 3])


def test_adapter_param_count_matches_tensor_sizes(tiny_model):
    tiny_model.add_adapter("a", config="houlsby", reduction_factor=2)
    entry = tiny_model.get_adapter("a")
    total = sum(t.data.size for _, t in entry.named_tensors())
    assert total == tiny_model.adapter_param_count("a")
    assert total == count_adapter_params(tiny_model.config, entry.config)


def test_heads_register_and_activate(tiny_model):
    h = tiny_model.add_head("cls", 3)
    assert h.w.shape == (tiny_model.config.hidden_size, 3)
    assert tiny_model.active_head == "cls"
    tiny_model.add_head("other", 2)
    assert tiny_model.active_head == "cls"  # first head stays active
    assert tiny_model.list_heads() == ["cls", "other"]
    with pytest.raises(ValueError):
        tiny_model.add_head("cls", 2)
    with pytest.raises(ValueError):
        tiny_model.add_head("tiny", 1)
    with pytest.raises(UnknownAdapterError):
        tiny_model.get_head("missing")
    bad = PredictionHead("bad", 2, ad.tensor(np.zeros((5, 2))), ad.tensor(np.zeros(2)))
    with pytest.raises(ShapeMismatchError):
        tiny_model.install_head(bad)
    h = tiny_model.config.hidden_size
    for name in ("c/s", "a b", ""):  # installed heads follow the same name rule as added ones
        with pytest.raises(ValueError):
            tiny_model.install_head(PredictionHead(name, 2, ad.tensor(np.zeros((h, 2))),
                                                   ad.tensor(np.zeros(2))))
    assert tiny_model.list_heads() == ["cls", "other"]


def test_counts_are_refused_not_truncated(tiny_model):
    """Label counts, reduction factors and seeds take any integer type but ``bool``, as configs do."""
    for bad in (2.7, 2.0, True, np.True_, "3", None):
        with pytest.raises(ValueError, match="num_labels must be an integer"):
            tiny_model.add_head("h", bad)
    for bad in (2.5, 2.0, True, np.True_, "4"):  # None keeps the preset's factor
        with pytest.raises(ValueError, match="reduction_factor must be an integer"):
            tiny_model.add_adapter("a", reduction_factor=bad)
        with pytest.raises(ValueError, match="reduction_factor must be an integer"):
            resolve_config(AdapterConfig(), bad)
    for bad, message in ((1.5, "an integer"), (2.0, "an integer"), (True, "an integer"),
                         (np.True_, "an integer"), ("3", "an integer"), (-1, ">= 0")):
        with pytest.raises(ValueError, match=f"seed must be {message}"):
            AdapterModel(tiny_model.config, seed=bad)
        with pytest.raises(ValueError, match=f"seed must be {message}"):  # None draws a child seed
            tiny_model.add_adapter("a", seed=bad)
    with pytest.raises(ValueError, match="seed must be an integer"):
        AdapterModel(tiny_model.config, seed=None)
    with pytest.raises(ValueError, match="reduction_factor must be a positive"):
        tiny_model.add_adapter("a", reduction_factor=0)
    assert tiny_model.list_heads() == [] and tiny_model.list_adapters() == []
    head = tiny_model.add_head("h", np.int64(3))
    assert type(head.num_labels) is int and head.w.shape == (tiny_model.config.hidden_size, 3)
    assert tiny_model.add_adapter("a", reduction_factor=np.int64(4)).config == preset("pfeiffer", 4)
    assert AdapterModel(tiny_model.config, seed=np.uint32(3)).digest_base() == \
        AdapterModel(tiny_model.config, seed=3).digest_base()
    tiny_model.add_adapter("b", reduction_factor=2, seed=np.int64(5))
    tiny_model.add_adapter("c", reduction_factor=2, seed=5)
    assert tiny_model.digest_adapter("b") == tiny_model.digest_adapter("c")


def test_install_head_refuses_heads_no_package_reader_accepts(tiny_model, tmp_path):
    h = tiny_model.config.hidden_size
    tiny_model.add_adapter("a", reduction_factor=2)
    for labels in (1, 0, -1):
        with pytest.raises(ValueError):
            tiny_model.add_head("few", labels)
    bad_bias = PredictionHead("bias", 2, ad.tensor(np.zeros((h, 2))), ad.tensor(np.zeros(3)))
    with pytest.raises(ShapeMismatchError):
        tiny_model.install_head(bad_bias)
    one_label = PredictionHead("one", 1, ad.tensor(np.zeros((h, 1))), ad.tensor(np.zeros(1)))
    with pytest.raises(ValueError):
        tiny_model.install_head(one_label)
    assert tiny_model.list_heads() == []
    tiny_model.add_head("cls", 2)  # a head that installs also loads back from its package
    tiny_model.save_adapter("a", tmp_path / "a.pkg", with_head="cls")
    assert package_io.load_adapter_package(tmp_path / "a.pkg").head[:2] == ("cls", 2)


# a backbone or adapter must have the (name, shape) layout a package reader would demand


def test_model_refuses_a_backbone_with_more_layers(tiny_config):
    weights = init_backbone(dataclasses.replace(tiny_config, num_layers=2), np.random.default_rng(0))
    with pytest.raises(ShapeMismatchError, match="layer1"):
        AdapterModel(tiny_config, weights=weights)


def test_model_refuses_a_backbone_with_fewer_layers(tiny_config):
    weights = init_backbone(tiny_config, np.random.default_rng(0))
    with pytest.raises(ShapeMismatchError, match="layer1"):
        AdapterModel(dataclasses.replace(tiny_config, num_layers=2), weights=weights)


def test_install_adapter_refuses_one_built_for_another_backbone(tiny_config):
    two_layers = dataclasses.replace(tiny_config, num_layers=2)
    model = AdapterModel(two_layers, seed=1)
    rng = np.random.default_rng(0)
    with pytest.raises(ShapeMismatchError, match="layer1"):
        model.install_adapter(new_adapter_entry(tiny_config, "a", "text_task", preset("pfeiffer", 2), rng))
    assert model.list_adapters() == []
    model.install_adapter(new_adapter_entry(two_layers, "a", "text_task", preset("pfeiffer", 2), rng))
    model.add_head("cls", 2)
    model.set_active_adapters("a")
    assert len(model.predict([[1, 2, 3]])) == 1


def test_set_active_adapters_validates(tiny_model):
    tiny_model.add_adapter("a", reduction_factor=2)
    tiny_model.add_adapter("b", reduction_factor=2)
    tiny_model.set_active_adapters(["b", "a"])
    assert tiny_model.active_adapters == ["b", "a"]
    with pytest.raises(UnknownAdapterError):
        tiny_model.set_active_adapters(["a", "ghost"])
    with pytest.raises(ValueError):
        tiny_model.set_active_adapters(["a", "a"])
    tiny_model.set_active_adapters([])
    assert tiny_model.active_adapters == []


def test_one_name_is_a_stack_of_one(tiny_model):
    for name in ("a", "b", "ab"):
        tiny_model.add_adapter(name, reduction_factor=2)
    tiny_model.set_active_adapters("ab")
    assert tiny_model.active_adapters == ["ab"]
    tiny_model.train_adapter("ab")
    assert tiny_model.active_adapters == ["ab"]
    assert {name for name in tiny_model.list_adapters()
            if all(t.requires_grad for _, t in tiny_model.get_adapter(name).named_tensors())} == {"ab"}


def test_train_adapter_freezes_base_marks_adapter(tiny_model):
    tiny_model.add_adapter("a", reduction_factor=2)
    tiny_model.add_adapter("b", reduction_factor=2)
    tiny_model.add_head("cls", 2)
    tiny_model.train_adapter("a")
    assert tiny_model.active_adapters == ["a"]
    owners = {}
    for name, t, owner in tiny_model.named_parameters():
        owners.setdefault((owner, t.requires_grad), []).append(name)
    assert ("base", True) not in owners          # every base tensor frozen
    assert ("head", False) not in owners         # every head tensor trainable
    for name, t, owner in (p for p in tiny_model.named_parameters() if p[1].requires_grad):
        assert owner in ("adapter", "head")
        if owner == "adapter":
            assert name.startswith("adapter.a.")  # b stays frozen


def test_train_full_marks_base_and_heads(tiny_model):
    tiny_model.add_adapter("a", reduction_factor=2)
    tiny_model.add_head("cls", 2)
    tiny_model.train_full()
    trainable_owners = {owner for _, t, owner in tiny_model.named_parameters() if t.requires_grad}
    assert trainable_owners == {"base", "head"}


def test_digests_track_content(tiny_model):
    tiny_model.add_adapter("a", reduction_factor=2)
    base_before = tiny_model.digest_base()
    adapter_before = tiny_model.digest_adapter("a")
    assert base_before == tiny_model.digest_base()  # stable
    entry = tiny_model.get_adapter("a")
    entry.weights[0]["output"].w_up.data[0, 0] += 1.0
    assert tiny_model.digest_adapter("a") != adapter_before
    assert tiny_model.digest_base() == base_before  # untouched by adapter edits
    tiny_model.weights.token_embeddings.data[0, 0] += 1.0
    assert tiny_model.digest_base() != base_before


def test_encode_applies_active_stack(tiny_model):
    ids = [1, 2, 3, 4]
    plain = tiny_model.encode(ids).hidden.data
    tiny_model.add_adapter("a", config="pfeiffer", reduction_factor=2)
    tiny_model.set_active_adapters(["a"])
    identical = tiny_model.encode(ids).hidden.data
    assert np.array_equal(plain, identical)  # transparent until trained
    rng = np.random.default_rng(0)
    entry = tiny_model.get_adapter("a")
    for layer in entry.weights:
        w = layer["output"].w_up
        w.data = 0.1 * rng.standard_normal(w.shape)
    changed = tiny_model.encode(ids).hidden.data
    assert not np.allclose(plain, changed)
    tiny_model.set_active_adapters([])
    assert np.array_equal(tiny_model.encode(ids).hidden.data, plain)


def test_mixed_config_stack_composes(tiny_model):
    """Adapters with different presets can stack at the same point."""
    ids = [5, 6, 7]
    tiny_model.add_adapter("p", config="pfeiffer", reduction_factor=2)
    tiny_model.add_adapter("h", config="houlsby", reduction_factor=2)
    tiny_model.set_active_adapters(["p", "h"])
    out = tiny_model.encode(ids).hidden.data
    assert np.array_equal(out, tiny_model.encode(ids).hidden.data)
    # disturbing either member moves the output
    rng = np.random.default_rng(1)
    wp = tiny_model.get_adapter("p").weights[0]["output"].w_up
    wp.data = 0.1 * rng.standard_normal(wp.shape)
    a = tiny_model.encode(ids).hidden.data
    assert not np.allclose(out, a)
    wh = tiny_model.get_adapter("h").weights[0]["attention"].w_up
    wh.data = 0.1 * rng.standard_normal(wh.shape)
    b = tiny_model.encode(ids).hidden.data
    assert not np.allclose(a, b)


def test_batch_logits_and_predict(tiny_model):
    tiny_model.add_head("cls", 2)
    head = tiny_model.get_head("cls")
    head.w.data = np.zeros_like(head.w.data)
    head.b.data = np.array([0.0, 1.0])
    seqs = [[1, 2], [3], [4, 5, 6]]
    logits = tiny_model.batch_logits(seqs)
    assert logits.shape == (3, 2)
    assert np.allclose(logits.data[:, 1] - logits.data[:, 0], 1.0)
    assert tiny_model.predict(seqs) == [1, 1, 1]


def test_save_load_round_trip(tmp_path, tiny_model, tiny_config):
    rng = np.random.default_rng(0)
    tiny_model.add_adapter("sst", config="pfeiffer", reduction_factor=2)
    entry = tiny_model.get_adapter("sst")
    for layer in entry.weights:
        for w in layer.values():
            w.w_up.data = rng.standard_normal(w.w_up.shape)
    entry.trained = True
    tiny_model.add_head("cls", 2)
    path = tmp_path / "sst.pkg"
    tiny_model.save_adapter("sst", path, with_head="cls")

    other = AdapterModel(tiny_config, seed=99)
    name = other.load_adapter(path)
    assert name == "sst"
    loaded = other.get_adapter("sst")
    assert loaded.trained
    assert loaded.config == entry.config
    for (na, ta), (nb, tb) in zip(entry.named_tensors(), loaded.named_tensors()):
        assert na == nb
        assert np.array_equal(ta.data.astype(np.float32), tb.data.astype(np.float32))
    # bundled head came along
    got_head = other.get_head("cls")
    assert got_head.num_labels == 2
    assert np.array_equal(got_head.w.data,
                          tiny_model.get_head("cls").w.data.astype(np.float32).astype(np.float64))


def test_load_rejects_mismatched_backbone(tmp_path, tiny_model, desk_config):
    tiny_model.add_adapter("a", reduction_factor=2)
    path = tmp_path / "a.pkg"
    tiny_model.save_adapter("a", path)
    other = AdapterModel(desk_config, seed=0)
    with pytest.raises(CompatibilityError):
        other.load_adapter(path)


def test_load_rename_and_duplicate(tmp_path, tiny_model, tiny_config):
    tiny_model.add_adapter("a", reduction_factor=2)
    path = tmp_path / "a.pkg"
    tiny_model.save_adapter("a", path)
    other = AdapterModel(tiny_config, seed=1)
    other.load_adapter(path)
    with pytest.raises(ValueError):
        other.load_adapter(path)  # same name already present
    assert other.load_adapter(path, rename="b") == "b"
    assert other.list_adapters() == ["a", "b"]


def test_same_seed_same_model(tiny_config):
    a = AdapterModel(tiny_config, seed=42)
    b = AdapterModel(tiny_config, seed=42)
    assert a.digest_base() == b.digest_base()
    a.add_adapter("x", reduction_factor=2)
    b.add_adapter("x", reduction_factor=2)
    assert a.digest_adapter("x") == b.digest_adapter("x")
    c = AdapterModel(tiny_config, seed=43)
    assert c.digest_base() != a.digest_base()


def _race(model, cycles, read):
    """Loop ``read()`` on one thread while another runs ``cycles`` add/activate/delete cycles.

    Returns each call's result, or the :class:`AdapterKitError` it raised; any other
    exception propagates. Prebuilt entries keep a cycle short, so a thread switch often
    lands inside a registry change.
    """
    entries = [new_adapter_entry(model.config, f"a{i}", "text_task", AdapterConfig(reduction_factor=2),
                                 np.random.default_rng(i)) for i in range(2)]
    done = threading.Event()

    def edit():
        try:
            for i in range(cycles):
                entry = entries[i % 2]
                model.install_adapter(entry)
                model.set_active_adapters([entry.name])
                model.delete_adapter(entry.name)
        finally:
            done.set()

    def loop():
        outcomes = []
        while not done.is_set():
            try:
                outcomes.append(read())
            except AdapterKitError as exc:
                outcomes.append(exc)
        return outcomes

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=2) as pool:
            reader, editor = pool.submit(loop), pool.submit(edit)
            editor.result(timeout=120)
            return reader.result(timeout=120)
    finally:
        sys.setswitchinterval(interval)


def test_predict_runs_the_stack_it_saw_while_another_thread_edits_it(tiny_model):
    tiny_model.add_head("cls", 2)
    outcomes = _race(tiny_model, 20000, lambda: tiny_model.predict([[1, 2, 3], [4, 5]]))
    assert outcomes
    for out in outcomes:
        assert isinstance(out, AdapterKitError) or (len(out) == 2 and set(out) <= {0, 1}), out
    assert tiny_model.list_adapters() == [] and tiny_model.active_adapters == []


def test_named_parameters_iterates_a_snapshot_while_another_thread_edits_it(tiny_model):
    tiny_model.add_head("cls", 2)
    frozen = sum(1 for _ in tiny_model.named_parameters())
    one_adapter = frozen + len(list(adapter_layout(tiny_model.config, AdapterConfig(reduction_factor=2))))
    counts = _race(tiny_model, 2000, lambda: sum(1 for _ in tiny_model.named_parameters()))
    assert counts and set(counts) <= {frozen, one_adapter}
