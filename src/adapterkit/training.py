"""Training loop, optimizer, evaluation metrics, and small synthetic tasks.

Training is deterministic given the config seed: data order, parameter
initialization, and every update are driven by seeded generators, so two
runs with the same inputs produce bit-identical weights and logs.
"""

import itertools
import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from . import backbone as bb
from .codec import as_count
from .errors import GradientError, ShapeMismatchError

DEFAULT_LR = {"adapter_only": 1e-3, "full_finetune": 1e-4}
MODES = ("adapter_only", "full_finetune")
ADAM_BETA1, ADAM_BETA2, ADAM_EPSILON = 0.9, 0.999, 1e-8


@dataclass(frozen=True)
class TrainConfig:
    """Hyper-parameters of one training run; immutable, so its checks hold for its lifetime."""

    mode: str = "adapter_only"
    seed: int = 0
    learning_rate: float | None = None  # None: 1e-3 adapter_only, 1e-4 full_finetune
    batch_size: int = 16
    max_steps: int = 500

    def __post_init__(self):
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {self.mode!r}")
        lr = self.learning_rate
        if lr is not None and (isinstance(lr, bool) or not isinstance(lr, numbers.Real)
                               or not 0.0 <= lr < np.inf):
            raise ValueError(f"learning_rate must be finite, real and >= 0, got {lr!r}")
        for name, minimum in (("seed", 0), ("batch_size", 1), ("max_steps", 1)):
            object.__setattr__(self, name, as_count(getattr(self, name), name, minimum))

    def resolved_learning_rate(self):
        return DEFAULT_LR[self.mode] if self.learning_rate is None else self.learning_rate


class Adam(object):
    """Adam with bias correction; updates only tensors that received a gradient."""

    def __init__(self, params, lr):
        self.params = list(params)
        self.lr = float(lr)
        self.t = 0
        self._m = [np.zeros_like(p.data) for p in self.params]
        self._v = [np.zeros_like(p.data) for p in self.params]

    def step(self, grads):
        """Apply one update from a {tensor: gradient array} mapping.

        Every gradient's shape is checked before anything changes, so a refused step leaves
        ``t``, the moments and the parameters as they were.
        """
        updates = [(i, p, g) for i, p in enumerate(self.params) if (g := grads.get(p)) is not None]
        for _, p, g in updates:
            if g.shape != p.data.shape:
                raise GradientError(f"gradient shape {g.shape} vs parameter {p.data.shape}")
        self.t += 1
        c1 = 1.0 - ADAM_BETA1 ** self.t
        c2 = 1.0 - ADAM_BETA2 ** self.t
        for i, p, g in updates:
            self._m[i] = ADAM_BETA1 * self._m[i] + (1.0 - ADAM_BETA1) * g
            self._v[i] = ADAM_BETA2 * self._v[i] + (1.0 - ADAM_BETA2) * (g * g)
            m_hat = self._m[i] / c1
            v_hat = self._v[i] / c2
            p.data = p.data - self.lr * m_hat / (np.sqrt(v_hat) + ADAM_EPSILON)


# ---------------------------------------------------------------------------
# synthetic tasks

TASKS = ("majority-token", "parity-of-token", "copy-first-label")

# token alphabet zones, chosen once so tasks stay inside a 128-token vocab
_MARKER = 0  # constant first token for tasks labeled by aggregate content
_MAJ_A, _MAJ_B = 1, 2
_COPY_TOKENS = (3, 4)
_PARITY_WINDOW = (10, 26)  # the designated token is drawn from [10, 26)
_NOISE_RANGE = (32, 128)
_MAJORITY_MARGIN = 0.7  # the dominant token fills at least this share of the body


@dataclass(frozen=True)
class ToyTask:
    """A deterministic synthetic labeling task over token id sequences.

    majority-token: a constant marker token leads, then every position
    holds token 1 or token 2; the label says whether token 1 occurs more
    often than token 2. The winner fills at least 70 percent of the body
    and the body length is odd, so ties cannot happen. The marker keeps
    the pooled position itself uninformative: the label is only readable
    from the aggregate content behind it.

    parity-of-token: the designated first position holds a token from a
    16-token window and the label is that token id's parity; the rest of
    the sequence is noise. Toggling the designated token to a neighbor
    flips the label by construction.

    copy-first-label: the first token is 3 or 4 and the label mirrors it.
    """

    name: str
    seed: int
    seq_len: int = 16
    vocab_size: int = 128

    def __post_init__(self):
        if self.name not in TASKS:
            raise ValueError(f"unknown task {self.name!r}; valid: {TASKS}")
        for name, minimum in (("seed", 0), ("seq_len", 4), ("vocab_size", _NOISE_RANGE[0] + 1)):
            object.__setattr__(self, name, as_count(getattr(self, name), name, minimum))
        if self.seq_len % 2:
            raise ValueError("seq_len must be an even number >= 4 (odd majority body)")

    def label_of(self, sequence):
        """Apply the labeling rule directly to one sequence."""
        seq = list(sequence)
        if self.name == "majority-token":
            return int(seq.count(_MAJ_A) > seq.count(_MAJ_B))
        if self.name == "parity-of-token":
            return seq[0] % 2
        return _COPY_TOKENS.index(seq[0])

    def _majority_counts(self):
        """The numbers of dominant tokens a majority-token body may hold."""
        body = self.seq_len - 1
        return range(int(np.ceil(_MAJORITY_MARGIN * body)), body + 1)

    def _distinct_per_label(self):
        """How many different sequences :meth:`_sample` can draw for one label."""
        if self.name == "majority-token":
            return sum(math.comb(self.seq_len - 1, count) for count in self._majority_counts())
        leads = (_PARITY_WINDOW[1] - _PARITY_WINDOW[0]) // 2 if self.name == "parity-of-token" else 1
        return leads * (min(_NOISE_RANGE[1], self.vocab_size) - _NOISE_RANGE[0]) ** (self.seq_len - 1)

    def _sample(self, rng, label):
        def noise(k):
            return rng.integers(_NOISE_RANGE[0], min(_NOISE_RANGE[1], self.vocab_size), size=k)

        if self.name == "majority-token":
            body = self.seq_len - 1
            counts = self._majority_counts()
            count = int(rng.integers(counts.start, counts.stop))
            major, minor = (_MAJ_A, _MAJ_B) if label else (_MAJ_B, _MAJ_A)
            rest = np.full(body, minor)
            rest[:count] = major
            rng.shuffle(rest)
            seq = np.concatenate(([_MARKER], rest))
        elif self.name == "parity-of-token":
            seq = noise(self.seq_len)
            window = np.arange(*_PARITY_WINDOW)
            seq[0] = rng.choice(window[window % 2 == label])
        else:  # copy-first-label
            seq = noise(self.seq_len)
            seq[0] = _COPY_TOKENS[label]
        return [int(t) for t in seq]

    def _generate(self, rng, n, taken):
        """n fresh examples, exactly balanced, none colliding with ``taken``."""
        sequences, labels = [], []
        for label in (0, 1):
            made = 0
            while made < n // 2:
                seq = self._sample(rng, label)
                key = tuple(seq)
                if key in taken:
                    continue
                taken.add(key)
                sequences.append(seq)
                labels.append(label)
                made += 1
        order = rng.permutation(n)
        return [sequences[i] for i in order], [labels[i] for i in order]

    def datasets(self, train_size=256, dev_size=64):
        """Disjoint train and dev splits, each with exactly half per label; ``ValueError`` for a
        size that is not an even count >= 2, or splits needing more sequences than the task has."""
        train_size, dev_size = (as_count(n, "split sizes", 2) for n in (train_size, dev_size))
        if train_size % 2 or dev_size % 2:
            raise ValueError("split sizes must be even numbers >= 2")
        need, have = (train_size + dev_size) // 2, self._distinct_per_label()
        if need > have:
            raise ValueError(f"{self.name} at seq_len {self.seq_len} and vocab_size {self.vocab_size} has "
                             f"{have} distinct sequences per label; the splits need {need}")
        rng = np.random.default_rng(np.random.SeedSequence(self.seed))
        taken = set()
        train_seqs, train_labels = self._generate(rng, train_size, taken)
        dev_seqs, dev_labels = self._generate(rng, dev_size, taken)
        return train_seqs, train_labels, dev_seqs, dev_labels


def generate_toy_task(name, seed, seq_len=16, vocab_size=128):
    return ToyTask(name=name, seed=seed, seq_len=seq_len, vocab_size=vocab_size)


def toggle_parity_token(sequence):
    """Move the designated token to a parity sibling; the label flips."""
    seq = list(sequence)
    t = seq[0]
    lo, hi = _PARITY_WINDOW
    seq[0] = t + 1 if t + 1 < hi else t - 1
    return seq


# ---------------------------------------------------------------------------
# metrics


def _score_inputs(a, b, dtype=None):
    """Both metric inputs as arrays of one non-empty shape."""
    a, b = np.asarray(a, dtype=dtype), np.asarray(b, dtype=dtype)
    if a.shape != b.shape:
        raise ValueError(f"length mismatch: {a.shape} vs {b.shape}")
    if a.size == 0:
        raise ValueError("cannot score an empty split")
    return a, b


def accuracy(predicted, gold):
    p, g = _score_inputs(predicted, gold)
    return float((p == g).mean())


def f1_score(predicted, gold):
    """Binary F1 with label 1 as the positive class; empty denominators score 0."""
    p, g = _score_inputs(predicted, gold)
    tp = int(((p == 1) & (g == 1)).sum())
    fp = int(((p == 1) & (g != 1)).sum())
    fn = int(((p != 1) & (g == 1)).sum())
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    if precision + recall == 0.0:
        return 0.0
    return 2.0 * precision * recall / (precision + recall)


def _ranks(x):
    """1-based ranks of a non-empty float array; tied values share their average rank."""
    order = np.argsort(x, kind="stable")
    xs = x[order]
    starts_group = np.r_[True, xs[1:] != xs[:-1]]  # NaN never equals, so each NaN ranks alone
    first = np.flatnonzero(starts_group)
    last = np.r_[first[1:], x.size] - 1
    ranks = np.empty(x.size)
    ranks[order] = (0.5 * (first + last) + 1.0)[np.cumsum(starts_group) - 1]
    return ranks


def spearman(a, b):
    """Spearman rank correlation with average ranks for ties; degenerate -> 0."""
    xa, xb = _score_inputs(a, b, np.float64)
    if xa.size < 2:
        return 0.0
    ra, rb = (_ranks(x) - (x.size + 1) / 2.0 for x in (xa, xb))
    denom = np.sqrt((ra * ra).sum() * (rb * rb).sum())
    if denom == 0.0:
        return 0.0
    return float((ra * rb).sum() / denom)


def _split_labels(sequences, labels, what="labels"):
    """A split's labels through :func:`~adapterkit.autodiff.index_array`; ``ValueError`` unless
    there is one per sequence and the split is not empty."""
    y = ad.index_array(labels, what)
    if len(sequences) != y.size:
        raise ValueError(f"{len(sequences)} sequences vs {y.size} {what}")
    if not y.size:
        raise ValueError("cannot train on or evaluate an empty split")
    return y


def evaluate(model, sequences, labels):
    """Loss plus accuracy/F1/Spearman of the active head's argmax predictions."""
    labels = _split_labels(sequences, labels)
    logits = model.batch_logits(sequences)
    loss = ad.cross_entropy(logits, labels)
    predicted = [int(i) for i in np.argmax(logits.data, axis=1)]
    return {
        "loss": float(loss.data),
        "accuracy": accuracy(predicted, labels),
        "f1": f1_score(predicted, labels),
        "spearman": spearman(predicted, labels),
    }


# ---------------------------------------------------------------------------
# training loop


@dataclass
class TrainResult:
    mode: str
    steps: int
    losses: list = field(default_factory=list)
    final_loss: float = float("nan")
    dev_metrics: dict | None = None

    def to_dict(self):
        out = {"mode": self.mode, "steps": self.steps, "final_loss": self.final_loss}
        if self.dev_metrics is not None:
            out["dev"] = dict(self.dev_metrics)
        return out


def _batches(n, batch_size, rng):
    """Index arrays of shuffled full batches, without end; reshuffled once too few are left."""
    batch_size = min(batch_size, n)
    order, pos = rng.permutation(n), 0
    while True:
        if pos + batch_size > n:
            order, pos = rng.permutation(n), 0
        yield order[pos:pos + batch_size]
        pos += batch_size


def run_training(model, sequences, labels, config, adapter_name=None,
                 dev_sequences=None, dev_labels=None):
    """Train the model on a labeled dataset.

    In adapter_only mode the backbone freezes and only the named adapters
    (``adapter_name`` may be one name or a list; omitted, the model's
    already-active stack is used) plus the heads receive updates. In
    full_finetune mode every backbone tensor trains and no adapter is
    activated. The active head computes the loss. The recorded loss at each step is computed before that
    step's update, so ``losses[0]`` is the untrained model's loss.
    """
    labels_arr = _split_labels(sequences, labels)
    if (dev_sequences is None) != (dev_labels is None):
        raise ValueError("dev_sequences and dev_labels come together or not at all")
    label_splits = [labels_arr]
    if dev_sequences is not None:
        label_splits.append(_split_labels(dev_sequences, dev_labels, "dev_labels"))
    # draw every step's batch up front and refuse bad token ids in them (and in the dev split),
    # labels the active head cannot score and an empty stack, before the mode switch below
    # changes the stack or what trains
    rng = np.random.default_rng(np.random.SeedSequence(config.seed))
    steps = list(itertools.islice(_batches(len(sequences), config.batch_size, rng), config.max_steps))
    bb._packed_ids(model.config, [sequences[i] for i in np.unique(np.concatenate(steps))])
    if dev_sequences is not None:
        bb._packed_ids(model.config, dev_sequences)
    classes = model.get_head().num_labels
    if any(y.min() < 0 or y.max() >= classes for y in label_splits):
        raise ShapeMismatchError(f"labels out of range [0, {classes}) of the active head")
    if config.mode == "adapter_only":
        names = model.active_adapters if adapter_name is None else adapter_name
        names = [names] if isinstance(names, str) else list(names)
        if not names:
            raise ValueError("adapter_only mode needs adapter_name or an active stack, not an empty one")
        trained = model.train_adapter(names)
    else:
        trained = ()
        model.train_full()

    params = [t for _, t, _ in model.named_parameters() if t.requires_grad]
    optimizer = Adam(params, lr=config.resolved_learning_rate())

    result = TrainResult(mode=config.mode, steps=config.max_steps)
    for idx in steps:
        batch_seqs = [sequences[i] for i in idx]
        batch_labels = labels_arr[idx]
        with ad.Tape():
            logits = model.batch_logits(batch_seqs)
            loss = ad.cross_entropy(logits, batch_labels)
            grads = ad.backward(loss)
        optimizer.step(grads)
        result.losses.append(float(loss.data))

    result.final_loss = result.losses[-1]
    for entry in trained:
        entry.trained = True
    if dev_sequences is not None:
        result.dev_metrics = evaluate(model, dev_sequences, dev_labels)
    return result
