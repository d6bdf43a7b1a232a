"""Each of the benchmark's output checks must reject a wrong answer.

    python3 -m pytest perfbench -q
"""

import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

from adapterkit import hub, package_io, training  # noqa: E402
from adapterkit.adapters import preset  # noqa: E402
from adapterkit.backbone import ModelConfig  # noqa: E402
from adapterkit.errors import AmbiguousQueryError, HubLookupError  # noqa: E402
from adapterkit.manager import AdapterModel, new_adapter_entry  # noqa: E402

import checks  # noqa: E402
import fixture  # noqa: E402
import reference  # noqa: E402

CONFIG = ModelConfig()


@pytest.fixture(scope="module")
def fx(tmp_path_factory):
    return fixture.build(tmp_path_factory.mktemp("fx") / "run", seed=5, cards=40)


def _reference_logits(fx, target, seqs):
    _, head = fixture.SERVE_TARGETS[target]
    return np.array([reference.logits(fx.config, fx.base, fx.hooks[target], fx.heads[head], s) for s in seqs])


@pytest.mark.parametrize("target", list(fixture.SERVE_TARGETS))
def test_reference_encoder_agrees_and_perturbed_logits_are_rejected(fx, target):
    stack, head = fixture.SERVE_TARGETS[target]
    rng = np.random.default_rng(0)
    seqs = [[int(t) for t in rng.integers(0, 128, size=n)] for n in (1, 7, 32)]
    fx.consumer.set_active_adapters(stack)
    program = fx.consumer.batch_logits(seqs, head).data
    ref = _reference_logits(fx, target, seqs)
    assert checks.check_logits(target, program, ref) == []
    assert checks.check_labels(target, fx.consumer.predict(seqs, head=head), ref) == []
    perturbed = program.copy()
    perturbed[1, 0] += 1e-6
    assert checks.check_logits(target, perturbed, ref)
    wrong = [int(np.argmin(row)) for row in ref]
    assert checks.check_labels(target, wrong, ref)


def test_reference_encoder_sees_a_changed_preset(fx):
    """Dropping an adapter from the stack moves the logits past the tolerance."""
    seqs = [[5, 9, 77, 3]]
    fx.consumer.set_active_adapters(["stack-lang"])
    program = fx.consumer.batch_logits(seqs, "head-stack").data
    assert checks.check_logits("stack", program, _reference_logits(fx, "stack", seqs))


def test_moved_backbone_digest_is_rejected():
    task = training.generate_toy_task(checks.COPY_TASK, seed=3)
    train_x, train_y, _, _ = task.datasets(32, 8)
    model = AdapterModel(CONFIG, seed=1)
    model.add_head("h", 2)
    model.add_adapter("a")
    base0, adapter0 = model.digest_base(), model.digest_adapter("a")
    result = training.run_training(model, train_x, train_y,
                                   training.TrainConfig(seed=2, max_steps=3), adapter_name="a")
    args = ("t", "adapter_only", result.losses, 3, base0)
    assert checks.check_training(*args, model.digest_base(), adapter0, model.digest_adapter("a"),
                                 dev_accuracy=1.0) == []
    model.weights.layers[0].w_q.data = model.weights.layers[0].w_q.data + 1e-12
    assert checks.check_training(*args, model.digest_base(), adapter0, model.digest_adapter("a"))


def test_other_wrong_training_results_are_rejected():
    losses = [checks.LN2, 0.6, 0.5]
    assert checks.check_training("t", "adapter_only", losses, 3, "b", "b", "a", "moved", 1.0) == []
    assert checks.check_training("t", "adapter_only", [0.7] + losses[1:], 3, "b", "b", "a", "moved")
    assert checks.check_training("t", "adapter_only", losses, 4, "b", "b", "a", "moved")
    assert checks.check_training("t", "adapter_only", losses, 3, "b", "b", "a", "a")
    assert checks.check_training("t", "full_finetune", losses, 3, "b", "b")
    assert checks.check_training("t", "adapter_only", [checks.LN2, 0.8, 0.6], 3, "b", "b", "a", "moved", 1.0)
    assert checks.check_training("t", "adapter_only", losses, 3, "b", "b", "a", "moved", dev_accuracy=0.5)


CARDS = [
    {"adapter_id": "sst", "model_config_hash": "a"},
    {"adapter_id": "sst-2", "model_config_hash": "a"},
    {"adapter_id": "sst-5", "model_config_hash": "a"},
    {"adapter_id": "mnli", "model_config_hash": "a"},
    {"adapter_id": "qnli", "model_config_hash": "b"},
]


@pytest.mark.parametrize("query, expected", [
    ("SST", ("entry", "sst")),
    ("sst-", ("ambiguous", ("sst-2", "sst-5"))),
    ("mnl", ("entry", "mnli")),
    ("qnli", ("missing",)),
    ("xyz", ("missing",)),
])
def test_resolution_rule_and_wrong_result_is_rejected(query, expected):
    assert checks.expected_resolution(CARDS, query, "a") == expected
    assert checks.check_resolution(query, expected, checks.expected_resolution(CARDS, query, "a")) == []
    wrong = ("entry", "sst-2") if expected != ("entry", "sst-2") else ("missing",)
    assert checks.check_resolution(query, wrong, expected)


def test_resolution_rule_agrees_with_the_hub(fx):
    model_hash = fx.config.config_hash()
    for query in fx.queries:
        try:
            got = ("entry", hub.resolve(fx.entries, query, model_config_hash=model_hash).adapter_id)
        except AmbiguousQueryError as exc:
            got = ("ambiguous", tuple(sorted(e.adapter_id for e in exc.candidates)))
        except HubLookupError:
            got = ("missing",)
        assert got == checks.expected_resolution(fx.cards, query, model_hash), query


def test_package_loaded_with_one_tensor_altered_is_rejected(tmp_path):
    rng = np.random.default_rng(0)
    source = {n: rng.normal(0.0, 0.02, size=s) for n, s in fixture.adapter_shapes(CONFIG, "pfeiffer")}
    entry = new_adapter_entry(CONFIG, "ref", "text_task", preset("pfeiffer"), rng)
    for name, t in entry.named_tensors():
        t.data = source[name].copy()
    path = tmp_path / "ref.pkg"
    digest = package_io.save_adapter_package(path, CONFIG, entry)
    params = CONFIG.num_layers * (2 * 64 * 4 + 4 + 64)
    assert checks.check_saved_digest("save", digest, path) == []
    assert checks.check_saved_digest("save", digest[::-1], path)
    pkg = package_io.load_adapter_package(path)
    assert checks.check_loaded_package("load", pkg, source, params) == []
    pkg.tensors["layer1.output.w_up"] = pkg.tensors["layer1.output.w_up"].copy()
    pkg.tensors["layer1.output.w_up"][0, 0] += 2.0 ** -20
    assert checks.check_loaded_package("load", pkg, source, params)
    assert checks.check_loaded_package("load", package_io.load_adapter_package(path), source, params + 1)

    entry.weights[0]["output"].b_up.data = entry.weights[0]["output"].b_up.data + 0.5
    package_io.save_adapter_package(path, CONFIG, entry)
    assert checks.check_loaded_package("load", package_io.load_adapter_package(path), source, params)


def test_index_and_install_checks_reject_wrong_answers():
    assert checks.check_index("index", "a", "a") == []
    assert checks.check_index("index", "a", "b")
    assert checks.check_install("i", True, True, "d", "d") == []
    assert checks.check_install("i", False, False, "d", "d") == []
    assert checks.check_install("i", True, False, "d", "d")
    assert checks.check_install("i", False, True, "d", "d")
    assert checks.check_install("i", True, True, "d", "e")
