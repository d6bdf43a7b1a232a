import dataclasses
import gc
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from scipy import stats

import adapterkit.autodiff as ad
import adapterkit.training as tr
from adapterkit.adapters import PRESET_NAMES, AdapterConfig
from adapterkit.errors import GradientError, ShapeMismatchError, UnknownAdapterError
from adapterkit.manager import AdapterModel
from adapterkit.training import (Adam, ToyTask, TrainConfig, accuracy, evaluate,
                                 f1_score, generate_toy_task, run_training,
                                 spearman, toggle_parity_token)


def test_train_config_validation():
    assert TrainConfig(mode="adapter_only").resolved_learning_rate() == 1e-3
    assert TrainConfig(mode="full_finetune").resolved_learning_rate() == 1e-4
    assert TrainConfig(learning_rate=0.5).resolved_learning_rate() == 0.5
    with pytest.raises(ValueError):
        TrainConfig(mode="lora")
    for bad in (-1e-3, float("nan"), float("inf"), True, np.True_, "0.1", 1j):
        with pytest.raises(ValueError, match="learning_rate must be"):
            TrainConfig(learning_rate=bad)
    assert TrainConfig(learning_rate=np.float32(0.5)).resolved_learning_rate() == 0.5
    assert TrainConfig(learning_rate=1).resolved_learning_rate() == 1
    for field, minimum in (("seed", 0), ("batch_size", 1), ("max_steps", 1)):
        for bad, message in ((True, "an integer"), (np.True_, "an integer"), (1.5, "an integer"),
                             (2.0, "an integer"), ("3", "an integer"), (None, "an integer"),
                             (minimum - 1, f">= {minimum}")):
            with pytest.raises(ValueError, match=f"{field} must be {message}"):
                TrainConfig(**{field: bad})
        for good in (np.int64(3), np.uint32(3)):
            value = getattr(TrainConfig(**{field: good}), field)
            assert type(value) is int and value == 3


def test_train_config_is_frozen():
    """A config's checks hold for its lifetime: no field can be set after construction."""
    c = TrainConfig(max_steps=3)
    for field, value in (("max_steps", 2.5), ("max_steps", 4), ("mode", "lora"), ("learning_rate", 0.1)):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(c, field, value)
    assert c == TrainConfig(max_steps=3)
    assert dataclasses.replace(c, max_steps=np.int64(4)).max_steps == 4
    with pytest.raises(ValueError, match="max_steps must be an integer"):
        dataclasses.replace(c, max_steps=2.5)


def test_adam_matches_reference_implementation():
    """Updates agree with an independently coded Adam over random gradients."""
    rng = np.random.default_rng(0)
    p = ad.tensor(rng.standard_normal((3, 4)), requires_grad=True)
    ref = p.data.copy()
    opt = Adam([p], lr=0.01)
    m = np.zeros_like(ref)
    v = np.zeros_like(ref)
    for t in range(1, 21):
        g = rng.standard_normal(ref.shape)
        opt.step({p: g})
        m = 0.9 * m + 0.1 * g
        v = 0.999 * v + 0.001 * g * g
        ref = ref - 0.01 * (m / (1 - 0.9 ** t)) / (np.sqrt(v / (1 - 0.999 ** t)) + 1e-8)
        assert np.allclose(p.data, ref, rtol=1e-12, atol=1e-15)


def test_adam_first_step_is_lr_sized():
    # bias correction makes the first update ~lr regardless of gradient scale
    for scale in (1e-4, 1.0, 1e6):
        p = ad.tensor(np.zeros(4), requires_grad=True)
        Adam([p], lr=0.01).step({p: np.full(4, scale)})
        assert np.allclose(p.data, -0.01, rtol=1e-3)


def test_adam_skips_missing_and_rejects_bad_shape():
    p = ad.tensor(np.ones(3), requires_grad=True)
    q = ad.tensor(np.ones(3), requires_grad=True)
    opt = Adam([p, q], lr=0.1)
    opt.step({p: np.ones(3)})
    assert not np.array_equal(p.data, np.ones(3))
    assert np.array_equal(q.data, np.ones(3))  # no gradient, no update
    with pytest.raises(GradientError):
        opt.step({p: np.ones(4)})


def test_refused_adam_step_changes_nothing():
    """A wrong-shaped gradient for any parameter is refused before the first one moves."""
    rng = np.random.default_rng(5)
    p, q = (ad.tensor(rng.standard_normal(3), requires_grad=True) for _ in range(2))
    opt = Adam([p, q], lr=0.1)
    opt.step({p: rng.standard_normal(3), q: rng.standard_normal(3)})

    def state():
        return [opt.t] + [a.copy() for a in opt._m + opt._v + [p.data, q.data]]

    before = state()
    for bad in ({p: np.ones(3), q: np.ones(4)}, {p: np.ones((3, 1)), q: np.ones(3)}, {q: np.ones((1, 3))}):
        with pytest.raises(GradientError):
            opt.step(bad)
        after = state()
        assert after[0] == before[0] == 1
        assert all(np.array_equal(a, b) for a, b in zip(after[1:], before[1:]))


# -- synthetic tasks ---------------------------------------------------------


def test_unknown_task_rejected():
    with pytest.raises(ValueError):
        generate_toy_task("mystery", seed=0)
    with pytest.raises(ValueError):
        ToyTask("majority-token", seed=0, seq_len=7)
    with pytest.raises(ValueError):
        ToyTask("majority-token", seed=0, vocab_size=16)
    for field, minimum in (("seed", 0), ("seq_len", 4), ("vocab_size", 33)):
        for bad, message in ((True, "an integer"), (np.True_, "an integer"), (1.5, "an integer"),
                             (16.0, "an integer"), ("16", "an integer"), (None, "an integer"),
                             (minimum - 1, f">= {minimum}")):
            with pytest.raises(ValueError, match=f"{field} must be {message}"):
                ToyTask("majority-token", **{"seed": 0, field: bad})
    task = ToyTask("majority-token", seed=np.uint32(3), seq_len=np.int64(8), vocab_size=np.int64(64))
    assert all(type(v) is int for v in (task.seed, task.seq_len, task.vocab_size))
    assert task.datasets(np.int64(4), np.uint32(2)) == ToyTask("majority-token", 3, 8, 64).datasets(4, 2)
    for bad, message in ((True, "an integer"), (np.True_, "an integer"), (1.5, "an integer"),
                         (2.0, "an integer"), ("2", "an integer"), (None, "an integer"), (0, ">= 2"),
                         (3, "even")):
        with pytest.raises(ValueError, match=f"split sizes must be {message}"):
            task.datasets(bad, 2)
        with pytest.raises(ValueError, match=f"split sizes must be {message}"):
            task.datasets(4, bad)


def test_datasets_refuse_splits_the_task_cannot_fill():
    """Splits needing more distinct sequences per label than the task has are refused, not looped on."""
    task = ToyTask("majority-token", seed=0, seq_len=8)
    with pytest.raises(ValueError, match="has 29 distinct sequences per label; the splits need 160"):
        task.datasets()
    assert len(task.datasets(16, 8)[0]) == 16
    for seq_len, have in ((4, 1), (6, 6), (8, 29), (10, 46)):
        task = ToyTask("majority-token", seed=0, seq_len=seq_len)
        refusal = f"has {have} distinct sequences per label; the splits need {have + 1}$"
        with pytest.raises(ValueError, match=refusal):
            task.datasets(2 * have, 2)
        if have > 1:  # exactly enough: every sequence of both labels
            train_s, _, dev_s, _ = task.datasets(2 * have - 2, 2)
            assert len(set(map(tuple, train_s + dev_s))) == 2 * have
    for name, have in (("copy-first-label", 1), ("parity-of-token", 8)):
        with pytest.raises(ValueError, match=f"has {have} distinct sequences per label"):
            ToyTask(name, seed=0, seq_len=8, vocab_size=33).datasets(16, 2)
    assert len(ToyTask("parity-of-token", seed=0, seq_len=8, vocab_size=33).datasets(14, 2)[0]) == 14


def test_datasets_deterministic_balanced_disjoint():
    for name in tr.TASKS:
        task = generate_toy_task(name, seed=5)
        a = task.datasets(64, 32)
        b = task.datasets(64, 32)
        assert a == b
        train_s, train_l, dev_s, dev_l = a
        assert sum(train_l) == 32 and sum(dev_l) == 16  # exactly balanced
        assert not set(map(tuple, train_s)) & set(map(tuple, dev_s))
        for seq, label in zip(train_s + dev_s, list(train_l) + list(dev_l)):
            assert task.label_of(seq) == label
            assert all(0 <= t < task.vocab_size for t in seq)
            assert len(seq) == task.seq_len


def test_majority_task_construction():
    task = generate_toy_task("majority-token", seed=3)
    train_s, train_l, _, _ = task.datasets(64, 2)
    body = task.seq_len - 1
    for seq, label in zip(train_s, train_l):
        assert seq[0] == 0  # constant marker keeps position 0 uninformative
        counts = (seq.count(1), seq.count(2))
        winner = max(counts)
        assert winner >= int(np.ceil(0.7 * body))
        assert counts[0] + counts[1] == body
        assert label == int(counts[0] > counts[1])


def test_parity_flip_property():
    task = generate_toy_task("parity-of-token", seed=9)
    train_s, train_l, _, _ = task.datasets(64, 2)
    for seq, label in zip(train_s, train_l):
        assert 10 <= seq[0] < 26
        assert label == seq[0] % 2
        flipped = toggle_parity_token(seq)
        assert task.label_of(flipped) == 1 - label
        assert 10 <= flipped[0] < 26


def test_copy_task_first_token_carries_label():
    task = generate_toy_task("copy-first-label", seed=11)
    train_s, train_l, _, _ = task.datasets(32, 2)
    for seq, label in zip(train_s, train_l):
        assert seq[0] in (3, 4)
        assert label == (3, 4).index(seq[0])


# -- metrics -----------------------------------------------------------------


def test_accuracy_oracle():
    assert accuracy([1, 0, 1], [1, 0, 1]) == 1.0
    assert accuracy([1, 0, 1, 0], [1, 1, 0, 0]) == 0.5
    with pytest.raises(ValueError):
        accuracy([], [])
    with pytest.raises(ValueError):
        accuracy([1], [1, 0])


def test_f1_oracle():
    # tp=2 fp=1 fn=1 -> precision=recall=2/3 -> f1=2/3
    assert f1_score([1, 0, 1, 1], [1, 1, 0, 1]) == pytest.approx(2 / 3)
    assert f1_score([0, 0, 0], [1, 1, 0]) == 0.0  # no predicted positives
    assert f1_score([1, 1, 0], [0, 0, 0]) == 0.0  # no gold positives
    assert f1_score([0, 0], [0, 0]) == 0.0        # both empty: convention 0
    assert f1_score([1, 1], [1, 1]) == 1.0


def test_spearman_against_scipy():
    rng = np.random.default_rng(2)
    for trial in range(20):
        n = int(rng.integers(3, 30))
        a = rng.integers(0, 5, size=n).astype(float)  # repeated values force ties
        b = rng.integers(0, 5, size=n).astype(float)
        if len(set(a)) < 2 or len(set(b)) < 2:
            continue
        want = stats.spearmanr(a, b).statistic
        assert spearman(a, b) == pytest.approx(want, abs=1e-12)


def _average_ranks_loop(values):
    """The loop the vectorized ranks replaced, kept as their reference."""
    x = np.asarray(values, dtype=np.float64)
    order = np.argsort(x, kind="stable")
    ranks = np.empty(len(x))
    i = 0
    while i < len(x):
        j = i
        while j + 1 < len(x) and x[order[j + 1]] == x[order[i]]:
            j += 1
        ranks[order[i:j + 1]] = 0.5 * (i + j) + 1.0  # ties share the average rank
        i = j + 1
    return ranks


def _spearman_loop(a, b):
    xa, xb = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    if xa.size < 2:
        return 0.0
    ra = _average_ranks_loop(xa) - (xa.size + 1) / 2.0
    rb = _average_ranks_loop(xb) - (xb.size + 1) / 2.0
    denom = np.sqrt((ra * ra).sum() * (rb * rb).sum())
    return 0.0 if denom == 0.0 else float((ra * rb).sum() / denom)


def test_ranks_match_the_reference_loop_bit_for_bit():
    rng = np.random.default_rng(8)
    specials = np.array([np.nan, np.inf, -np.inf, 0.0, -0.0])
    for trial in range(300):
        n = int(rng.integers(1, 40))
        x = rng.integers(-3, 4, size=n).astype(float)  # small range forces ties
        special = rng.random(n) < 0.3
        x[special] = rng.choice(specials, size=int(special.sum()))
        assert np.array_equal(tr._ranks(x), _average_ranks_loop(x))
        y = rng.permutation(x)
        assert spearman(x, y) == _spearman_loop(x, y)


def test_spearman_conventions():
    assert spearman([1, 2, 3], [10, 20, 30]) == 1.0  # monotone transform
    assert spearman([1, 2, 3], [3, 2, 1]) == -1.0
    assert spearman([1, 1, 1], [1, 2, 3]) == 0.0     # degenerate -> 0
    assert spearman([5], [7]) == 0.0
    with pytest.raises(ValueError):
        spearman([], [])


def test_evaluate_reports_all_metrics(tiny_model):
    tiny_model.add_head("cls", 2)
    head = tiny_model.get_head("cls")
    head.b.data = np.array([0.0, 1.0])  # always predict 1
    seqs = [[1], [2], [3], [4]]
    labels = [1, 1, 0, 0]
    metrics = evaluate(tiny_model, seqs, labels)
    assert metrics["accuracy"] == 0.5
    assert metrics["f1"] == pytest.approx(2 / 3)
    assert metrics["spearman"] == 0.0
    logits = tiny_model.batch_logits(seqs)
    assert metrics["loss"] == pytest.approx(float(ad.cross_entropy(logits, labels).data))
    with pytest.raises(ValueError):
        evaluate(tiny_model, [], [])


# -- training loop -----------------------------------------------------------


def _toy_model(config, seed=0, with_adapter=True):
    model = AdapterModel(config, seed=seed)
    model.add_head("cls", 2)
    if with_adapter:
        model.add_adapter("task", reduction_factor=2)
    return model


def _toy_data(n=32, seq_len=6, vocab=16, seed=0):
    rng = np.random.default_rng(seed)
    seqs = [[int(t) for t in rng.integers(0, vocab, size=seq_len)] for _ in range(n)]
    labels = [int(x) for x in rng.integers(0, 2, size=n)]
    return seqs, labels


def test_same_seed_gives_bitwise_identical_runs(tiny_config):
    seqs, labels = _toy_data()
    results = []
    digests = []
    for _ in range(2):
        model = _toy_model(tiny_config)
        cfg = TrainConfig(mode="adapter_only", seed=13, max_steps=25, batch_size=8)
        res = run_training(model, seqs, labels, cfg, adapter_name="task",
                           dev_sequences=seqs[:8], dev_labels=labels[:8])
        results.append(res)
        digests.append((model.digest_base(), model.digest_adapter("task")))
    assert results[0].losses == results[1].losses  # bitwise equal logs
    assert results[0].dev_metrics == results[1].dev_metrics
    assert digests[0] == digests[1]


def test_concurrent_training_matches_sequential(tiny_config):
    seqs, labels = _toy_data()

    def train(seed):
        model = _toy_model(tiny_config, seed=seed)
        cfg = TrainConfig(mode="adapter_only", seed=seed, max_steps=5, batch_size=8)
        run_training(model, seqs, labels, cfg, adapter_name="task")
        return model.digest_adapter("task"), model.get_head("cls").w.data.tobytes()

    want = [train(seed) for seed in (1, 2)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=2) as pool:
            futures = [pool.submit(train, seed) for seed in (1, 2)]
            got = [f.result(timeout=120) for f in futures]
    finally:
        sys.setswitchinterval(interval)
    assert got == want


def test_zero_learning_rate_changes_nothing(tiny_config):
    seqs, labels = _toy_data()
    model = _toy_model(tiny_config)
    before = (model.digest_base(), model.digest_adapter("task"))
    head_before = model.get_head("cls").w.data.copy()
    cfg = TrainConfig(mode="adapter_only", seed=1, learning_rate=0.0,
                      max_steps=10, batch_size=len(seqs))
    res = run_training(model, seqs, labels, cfg, adapter_name="task")
    assert (model.digest_base(), model.digest_adapter("task")) == before
    assert np.array_equal(model.get_head("cls").w.data, head_before)
    assert np.allclose(res.losses, res.losses[0], rtol=0, atol=1e-12)


def test_first_loss_is_untrained_loss(tiny_config):
    """The recorded loss at step 1 predates any update."""
    seqs, labels = _toy_data()
    frozen = run_training(_toy_model(tiny_config), seqs, labels,
                          TrainConfig(seed=4, learning_rate=0.0, max_steps=1,
                                      batch_size=8), adapter_name="task")
    live = run_training(_toy_model(tiny_config), seqs, labels,
                        TrainConfig(seed=4, max_steps=5, batch_size=8),
                        adapter_name="task")
    assert live.losses[0] == frozen.losses[0]


def test_adapter_only_requires_a_stack(tiny_config):
    seqs, labels = _toy_data()
    model = _toy_model(tiny_config, with_adapter=False)
    with pytest.raises(ValueError):
        run_training(model, seqs, labels, TrainConfig(max_steps=1))
    with pytest.raises(UnknownAdapterError):
        run_training(model, seqs, labels, TrainConfig(max_steps=1), adapter_name="ghost")
    with pytest.raises(ValueError):
        run_training(model, seqs[:3], labels[:2], TrainConfig(max_steps=1))


def test_refused_runs_leave_the_training_mode_alone(tiny_config):
    """Bad labels and dev splits are refused before the stack, a tensor, a flag or a head changes."""
    seqs, labels = _toy_data()
    model = _toy_model(tiny_config)
    with pytest.raises(ShapeMismatchError, match="labels must be integers"):
        evaluate(model, seqs[:2], [0.7, 1.2])

    def state():
        return (list(model.active_adapters), [t.requires_grad for _, t, _ in model.named_parameters()],
                model.list_heads(), model.active_head, model.get_adapter("task").trained,
                model.digest_adapter("task"), model.digest_base())

    before = state()
    halves = [label + 0.5 for label in labels]
    nested, ragged = [[label] for label in labels], [[labels[0]]] + labels[1:]
    bools = [bool(label) for label in labels]
    dev = (seqs[:4], labels[:4])
    for mode, name, run_labels, (dev_x, dev_y), fault in (
            ("adapter_only", "task", halves, (None, None), ShapeMismatchError),
            ("full_finetune", None, halves, (None, None), ShapeMismatchError),
            ("adapter_only", "task", nested, (None, None), ShapeMismatchError),
            ("full_finetune", None, nested, (None, None), ShapeMismatchError),
            ("adapter_only", "task", ragged, (None, None), ShapeMismatchError),
            ("adapter_only", "task", bools, (None, None), ShapeMismatchError),
            ("adapter_only", "task", labels[:-1] + [True], (None, None), ShapeMismatchError),
            ("adapter_only", "task", labels, (seqs[:4], None), ValueError),
            ("adapter_only", "task", labels, (None, labels[:4]), ValueError),
            ("adapter_only", "task", labels, (seqs[:4], labels[:3]), ValueError),
            ("full_finetune", None, labels, (seqs[:4], labels[:3]), ValueError),
            ("adapter_only", "task", labels, (seqs[:4], [0.0, 1.0, 1.0, 0.0]), ShapeMismatchError),
            ("adapter_only", "task", labels, (seqs[:4], [True, False, True, False]), ShapeMismatchError),
            ("adapter_only", "task", labels, ([], []), ValueError),
            ("adapter_only", "task", labels, ([[1, 99]] + seqs[1:4], labels[:4]), ShapeMismatchError),
            ("full_finetune", None, labels, ([[1, 2.5]] + seqs[1:4], labels[:4]), ShapeMismatchError),
            ("adapter_only", None, labels, dev, ValueError),  # empty stack
            ("adapter_only", [], labels, dev, ValueError),  # empty stack, named
            ("adapter_only", "task", labels[:-1] + [2], (None, None), ShapeMismatchError),  # 2-label head
            ("full_finetune", None, [-1] + labels[1:], (None, None), ShapeMismatchError),
            ("adapter_only", "task", labels, (seqs[:4], [0, 1, 2, 0]), ShapeMismatchError),
            ("full_finetune", None, labels, (seqs[:4], [0, -1, 1, 0]), ShapeMismatchError),
            ("full_finetune", "task", labels, (None, None), ValueError),  # an adapter name trains no adapter
            ("full_finetune", ["task"], labels, dev, ValueError)):
        with pytest.raises(fault):
            run_training(model, seqs, run_labels, TrainConfig(mode=mode, max_steps=50), adapter_name=name,
                         dev_sequences=dev_x, dev_labels=dev_y)
        assert state() == before
    # token ids of the split: checked over the batches the steps draw, for one step and for many
    for bad in ([-1, 2], [3, 64], [1.0, 2], [], [1] * 9):
        for mode, name, steps in (("adapter_only", "task", 50), ("full_finetune", None, 1)):
            with pytest.raises(ShapeMismatchError):
                run_training(model, [bad] * len(seqs), labels,
                             TrainConfig(mode=mode, max_steps=steps, batch_size=4), adapter_name=name)
            assert state() == before
    run_training(model, seqs, np.array(labels, np.uint8), TrainConfig(max_steps=1), adapter_name="task",
                 dev_sequences=dev[0], dev_labels=[np.int64(y) for y in dev[1]])
    assert state() != before
    # no active head: refused before the stack or a flag changes
    headless = AdapterModel(tiny_config, seed=0)
    headless.add_adapter("task", reduction_factor=2)
    flags = [t.requires_grad for _, t, _ in headless.named_parameters()]
    for mode, name in (("adapter_only", "task"), ("full_finetune", None)):
        with pytest.raises(UnknownAdapterError, match="unknown head None"):
            run_training(headless, seqs, labels, TrainConfig(mode=mode, max_steps=2), adapter_name=name)
        assert headless.active_adapters == []
        assert [t.requires_grad for _, t, _ in headless.named_parameters()] == flags


def test_out_of_range_token_ids_leave_the_stack_alone(tiny_config):
    model = AdapterModel(tiny_config, seed=0)
    model.add_adapter("a", reduction_factor=2)
    with pytest.raises(ShapeMismatchError, match="token id 99 out of range"):
        run_training(model, [[1, 2], [3, 99]], [0, 1], TrainConfig(max_steps=3), adapter_name="a")
    assert model.active_adapters == []
    assert not any(t.requires_grad for _, t in model.get_adapter("a").named_tensors())

    # the sequences the steps draw are checked, and only those: with fewer steps than one pass,
    # and with more, where the indices left over at a reshuffle are never drawn
    seqs, labels = _toy_data()

    def bad_id_at(at):
        return [[1, 99] if i == at else seq for i, seq in enumerate(seqs)]

    model.add_head("cls", 2)
    for batch_size in (4, 12):
        config = TrainConfig(max_steps=3, batch_size=batch_size)
        rng = np.random.default_rng(np.random.SeedSequence(config.seed))
        drawn = [idx for _, idx in zip(range(3), tr._batches(len(seqs), batch_size, rng))]
        undrawn = sorted(set(range(len(seqs))) - set(np.concatenate(drawn)))[0]
        model.set_active_adapters([])
        with pytest.raises(ShapeMismatchError):
            run_training(model, bad_id_at(drawn[-1][-1]), labels, config, adapter_name="a")
        assert model.active_adapters == []
        run_training(model, bad_id_at(undrawn), labels, config, adapter_name="a")  # never encoded


def test_adapter_only_leaves_base_untouched(tiny_config):
    seqs, labels = _toy_data()
    model = _toy_model(tiny_config)
    base_before = model.digest_base()
    adapter_before = model.digest_adapter("task")
    cfg = TrainConfig(mode="adapter_only", seed=2, max_steps=20, batch_size=8)
    run_training(model, seqs, labels, cfg, adapter_name="task")
    assert model.digest_base() == base_before
    assert model.digest_adapter("task") != adapter_before
    assert model.get_adapter("task").trained


def test_full_finetune_moves_base(tiny_config):
    seqs, labels = _toy_data()
    model = _toy_model(tiny_config)
    base_before = model.digest_base()
    adapter_before = model.digest_adapter("task")
    cfg = TrainConfig(mode="full_finetune", seed=2, max_steps=10, batch_size=8)
    run_training(model, seqs, labels, cfg)
    assert model.digest_base() != base_before
    assert model.digest_adapter("task") == adapter_before  # adapters stay frozen


def test_optimizer_tracks_only_adapter_and_head(tiny_config, monkeypatch):
    seqs, labels = _toy_data()
    model = _toy_model(tiny_config)
    captured = []

    class SpyAdam(Adam):
        def __init__(self, params, **kw):
            super().__init__(params, **kw)
            captured.extend(self.params)

    monkeypatch.setattr(tr, "Adam", SpyAdam)
    run_training(model, seqs, labels,
                 TrainConfig(mode="adapter_only", max_steps=1, batch_size=4),
                 adapter_name="task")
    owner_of = {id(t): owner for _, t, owner in model.named_parameters()}
    owners = {owner_of[id(t)] for t in captured}
    assert captured
    assert owners <= {"adapter", "head"}


def test_training_fits_copy_task(tiny_config):
    task = generate_toy_task("copy-first-label", seed=0, seq_len=6,
                             vocab_size=tiny_config.vocab_size)
    train_s, train_l, dev_s, dev_l = task.datasets(64, 16)
    model = _toy_model(tiny_config)
    cfg = TrainConfig(mode="adapter_only", seed=0, max_steps=120, batch_size=16)
    res = run_training(model, train_s, train_l, cfg, adapter_name="task",
                       dev_sequences=dev_s, dev_labels=dev_l)
    assert res.dev_metrics["accuracy"] > 0.9
    assert res.final_loss < res.losses[0]
    d = res.to_dict()
    assert d["mode"] == "adapter_only" and d["steps"] == 120
    assert d["dev"]["accuracy"] == res.dev_metrics["accuracy"]


@pytest.mark.parametrize("mode, preset", [("adapter_only", p) for p in PRESET_NAMES]
                         + [("full_finetune", None)])
def test_step_tape_size_does_not_grow_with_the_batch(desk_config, monkeypatch, mode, preset):
    """The batch is encoded in one pass, so a step's tape holds a few dozen records."""
    sizes = []
    backward = ad.backward

    def counting_backward(loss):
        sizes.append(len(loss._tape.records))
        return backward(loss)

    monkeypatch.setattr(ad, "backward", counting_backward)
    seqs, labels = _toy_data(n=16, seq_len=12, vocab=desk_config.vocab_size)
    for batch_size in (1, 16):
        model = AdapterModel(desk_config, seed=0)
        model.add_head("cls", 2)
        if preset is not None:
            model.add_adapter("task", config=preset)
        run_training(model, seqs, labels, TrainConfig(mode=mode, max_steps=1, batch_size=batch_size),
                     adapter_name="task" if preset is not None else None)
    assert sizes[0] == sizes[1] <= 64, sizes


def test_fused_primitives_train_bit_identically(desk_config, monkeypatch):
    """``linear`` and ``add_norm`` give the bits of the primitive pairs they fuse."""
    seqs, labels = _toy_data(n=32, seq_len=12, vocab=desk_config.vocab_size)
    setups = [("adapter_only", p) for p in PRESET_NAMES]
    setups += [("adapter_only", AdapterConfig(new_ln_after=True)), ("full_finetune", None)]

    def train_all():
        out = []
        for mode, preset in setups:
            model = AdapterModel(desk_config, seed=3)
            model.add_head("cls", 2)
            if preset is not None:
                model.add_adapter("task", config=preset, seed=4)
            res = run_training(model, seqs, labels, TrainConfig(mode=mode, seed=5, max_steps=5),
                               adapter_name="task" if preset is not None else None)
            head = model.get_head("cls")
            out.append((res.losses, model.digest_base(),
                        model.digest_adapter("task") if preset is not None else None,
                        head.w.data.tobytes(), head.b.data.tobytes()))
        return out

    fused = train_all()
    monkeypatch.setattr(ad, "linear", lambda x, w, b: ad.add_bias(ad.matmul(x, w), b))
    monkeypatch.setattr(ad, "add_norm",
                        lambda a, b, gamma, beta, eps: ad.layer_norm(ad.add(a, b), gamma, beta, eps))
    assert train_all() == fused


def test_training_leaves_no_tape_cycles(tiny_config):
    """Every step's tape, records and activations are freed by reference counting alone."""
    seqs, labels = _toy_data(n=16)
    model = AdapterModel(tiny_config, seed=0)
    model.add_head("cls", 2)
    model.add_adapter("task", config="houlsby", reduction_factor=2)
    enabled, flags = gc.isenabled(), gc.get_debug()
    gc.collect()
    gc.garbage.clear()
    gc.disable()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        run_training(model, seqs, labels, TrainConfig(max_steps=3, batch_size=8), adapter_name="task")
        gc.collect()
        leaked = [o for o in gc.garbage if isinstance(o, (ad.Tensor, ad.TapeRecord, ad.Tape))]
    finally:
        gc.set_debug(flags)
        gc.garbage.clear()
        if enabled:
            gc.enable()
    assert leaked == []
