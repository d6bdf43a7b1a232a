"""Dense float64 tensors with reverse-mode automatic differentiation.

The primitive set is what the batched transformer encoder and the adapter
training loop need: ``linear`` (``x @ w`` plus a bias on every row),
``add_norm`` (layer normalization of a residual sum), ``layer_norm``,
``add``, four activations, embedding lookup, multi-head attention over
packed rows (queries from every row or from each sequence's first row
only; context only: the probabilities stay in its backward rule; rows are
padded and masked only when the lengths differ, a gap-free batch is
attended as a view of the packed rows), and two losses. ``matmul`` and
``add_bias``, which ``linear`` fuses, and ``scale``, ``softmax_rows``,
``transpose``, ``slice_cols``, ``concat_cols`` and ``stack_rows`` are off
the encoder's path; they remain, with ``mean_pool_first`` (which ``encode``
uses), because the benchmark's tracer wraps them by name.

Gradients are recorded on an explicit :class:`Tape`. A primitive appends a
record only while a tape is active *and* at least one input is tracked
(requires gradient, or was itself produced on the active tape), so plain
inference never pays for bookkeeping. The record stores which inputs were
tracked when it was made, and its backward rule ``backward_fn(g, needs)``
computes a gradient only for those: with a frozen backbone, no weight
gradient of a frozen matrix, layer norm or bias is ever formed. Records are
appended in execution order, which makes the tape topologically sorted by
construction; the backward pass is a single reverse sweep that visits each
record once, and runs inside the tape's ``with`` block. Leaving the block
unlinks each record from its output, so a finished step is freed by
reference counting rather than left for the cyclic garbage collector.

Conventions:

- everything is float64; NaN/Inf out of any primitive raises immediately
- every array of integers a caller hands in (token ids, labels, sequence
  lengths) passes :func:`index_array`, the one rule for integer arrays;
  single counts and seeds pass :func:`~adapterkit.codec.as_count`
- layer_norm maps a row with variance below epsilon to all-zero normalized
  values, i.e. the output is beta on that row (no division blowup)
- gelu is the exact Gaussian-CDF form ``x * Phi(x)``, so gelu'(0) = 0.5
- swish is ``x * sigmoid(x)``
"""

import contextvars

import numpy as np
from scipy.special import erf

from .errors import GradientError, NonFiniteError, ShapeMismatchError

_INV_SQRT2 = 1.0 / np.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / np.sqrt(2.0 * np.pi)


class Tensor:
    """A dense float64 array, optionally marked as a trainable leaf."""

    __slots__ = ("data", "requires_grad", "_tape", "_producer")

    def __init__(self, data, requires_grad=False):
        arr = np.ascontiguousarray(np.asarray(data, dtype=np.float64))
        self.data = arr
        self.requires_grad = bool(requires_grad)
        self._tape = None
        self._producer = None

    @property
    def shape(self):
        return self.data.shape

    def __repr__(self):
        flags = []
        if self.requires_grad:
            flags.append("requires_grad")
        if self._producer is not None:
            flags.append(f"from {self._producer.kind}")
        suffix = f" ({', '.join(flags)})" if flags else ""
        return f"Tensor(shape={self.shape}{suffix})"


def tensor(data, requires_grad=False):
    """Build a leaf tensor from array-like data."""
    return Tensor(data, requires_grad=requires_grad)


class TapeRecord:
    """One primitive application: kind, inputs, tracked mask, output, backward rule.

    ``needs`` holds one bool per input: whether that input was tracked
    (required a gradient, or was produced on the same tape) when the record
    was made. ``backward_fn(grad_out, needs)`` returns one entry per input:
    a gradient array where ``needs`` is true, and None or an unused array
    elsewhere. Saved intermediates live in the closure.
    """

    __slots__ = ("kind", "inputs", "needs", "output", "backward_fn")

    def __init__(self, kind, inputs, needs, output, backward_fn):
        self.kind = kind
        self.inputs = inputs
        self.needs = needs
        self.output = output
        self.backward_fn = backward_fn


class Tape:
    """Ordered record of primitive applications, used as a context manager."""

    def __init__(self):
        self.records = []

    def __enter__(self):
        self._token = _CURRENT_TAPE.set(self)
        return self

    def __exit__(self, exc_type, exc, tb):
        assert _CURRENT_TAPE.get() is self, "tapes must nest"
        _CURRENT_TAPE.reset(self._token)  # the enclosing tape, if any, is current again
        # break the record -> output -> record and tensor -> tape -> record cycles
        for rec in self.records:
            rec.output._tape = None
            rec.output = None
        return False


# the tape primitives record onto: each thread (and each asyncio task) has its own
_CURRENT_TAPE = contextvars.ContextVar("adapterkit_current_tape", default=None)


def _tracked(t, tape):
    return t.requires_grad or t._tape is tape


def _finish(kind, inputs, out_data, backward_fn):
    """Wrap a primitive result: finiteness check plus optional recording."""
    if not np.isfinite(out_data).all():
        raise NonFiniteError(f"{kind} produced a non-finite value")
    out = Tensor.__new__(Tensor)
    out.data = out_data
    out.requires_grad = False
    out._tape = None
    out._producer = None
    tape = _CURRENT_TAPE.get()
    if tape is not None:
        needs = tuple(_tracked(t, tape) for t in inputs)
        if any(needs):
            rec = TapeRecord(kind, tuple(inputs), needs, out, backward_fn)
            tape.records.append(rec)
            out._tape = tape
            out._producer = rec
    return out


def _require_rank(kind, t, rank):
    if t.data.ndim != rank:
        raise ShapeMismatchError(f"{kind}: expected rank-{rank} operand, got shape {t.shape}")


# ---------------------------------------------------------------------------
# primitives


def matmul(a, b):
    """Matrix product of two rank-2 tensors."""
    _require_rank("matmul", a, 2)
    _require_rank("matmul", b, 2)
    if a.shape[1] != b.shape[0]:
        raise ShapeMismatchError(f"matmul: {a.shape} @ {b.shape}")
    a_data, b_data = a.data, b.data
    out = a_data @ b_data

    def backward_fn(g, needs):
        return [g @ b_data.T if needs[0] else None, a_data.T @ g if needs[1] else None]

    return _finish("matmul", [a, b], out, backward_fn)


def linear(x, w, b):
    """``x @ w`` plus the bias ``b`` on every row, as one record.

    Gives the same bits as ``add_bias(matmul(x, w), b)``.
    """
    _require_rank("linear", x, 2)
    _require_rank("linear", w, 2)
    _require_rank("linear", b, 1)
    if x.shape[1] != w.shape[0] or w.shape[1] != b.shape[0]:
        raise ShapeMismatchError(f"linear: {x.shape} @ {w.shape} + {b.shape}")
    x_data, w_data = x.data, w.data
    out = x_data @ w_data
    out += b.data

    def backward_fn(g, needs):
        return [g @ w_data.T if needs[0] else None, x_data.T @ g if needs[1] else None,
                g.sum(axis=0) if needs[2] else None]

    return _finish("linear", [x, w, b], out, backward_fn)


def transpose(x):
    _require_rank("transpose", x, 2)

    def backward_fn(g, needs):
        return [np.ascontiguousarray(g.T)]

    return _finish("transpose", [x], np.ascontiguousarray(x.data.T), backward_fn)


def add(a, b):
    """Elementwise sum of two same-shape tensors."""
    if a.shape != b.shape:
        raise ShapeMismatchError(f"add: {a.shape} + {b.shape}")

    def backward_fn(g, needs):
        return [g, g]

    return _finish("add", [a, b], a.data + b.data, backward_fn)


def add_bias(x, bias):
    """Add a length-n bias vector to every row of an m-by-n tensor."""
    _require_rank("add_bias", x, 2)
    _require_rank("add_bias", bias, 1)
    if x.shape[1] != bias.shape[0]:
        raise ShapeMismatchError(f"add_bias: {x.shape} + {bias.shape}")

    def backward_fn(g, needs):
        return [g, g.sum(axis=0) if needs[1] else None]

    return _finish("add_bias", [x, bias], x.data + bias.data, backward_fn)


def scale(x, factor):
    """Multiply by a python float."""
    factor = float(factor)
    if not np.isfinite(factor):
        raise NonFiniteError("scale: factor must be finite")

    def backward_fn(g, needs):
        return [factor * g]

    return _finish("scale", [x], factor * x.data, backward_fn)


def relu(x):
    mask = x.data > 0.0

    def backward_fn(g, needs):
        return [g * mask]

    return _finish("relu", [x], np.where(mask, x.data, 0.0), backward_fn)


def gelu(x):
    """Exact-CDF gelu: x * Phi(x) with Phi the standard normal CDF."""
    x_data = x.data
    cdf = 0.5 * (1.0 + erf(x_data * _INV_SQRT2))

    def backward_fn(g, needs):
        pdf = np.exp(-0.5 * x_data * x_data) * _INV_SQRT_2PI
        return [g * (cdf + x_data * pdf)]

    return _finish("gelu", [x], x_data * cdf, backward_fn)


def swish(x):
    x_data = x.data
    sig = 1.0 / (1.0 + np.exp(-x_data))

    def backward_fn(g, needs):
        return [g * (sig + x_data * sig * (1.0 - sig))]

    return _finish("swish", [x], x_data * sig, backward_fn)


def tanh(x):
    t = np.tanh(x.data)

    def backward_fn(g, needs):
        return [g * (1.0 - t * t)]

    return _finish("tanh", [x], t, backward_fn)


def softmax_rows(x):
    """Row-wise softmax of a rank-2 tensor (stable, shifted by the row max)."""
    _require_rank("softmax_rows", x, 2)
    shifted = x.data - x.data.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    y = e / e.sum(axis=1, keepdims=True)

    def backward_fn(g, needs):
        dot = (g * y).sum(axis=1, keepdims=True)
        return [y * (g - dot)]

    return _finish("softmax_rows", [x], y, backward_fn)


def _normalize(kind, x_data, gamma, beta, epsilon):
    """Layer-norm forward of rank-2 ``x_data``, and its backward rule.

    The rule maps ``(g, (need_x, need_gamma, need_beta))`` to
    ``[dx, dgamma, dbeta]``, with None for each gradient not needed.
    """
    _require_rank(kind, gamma, 1)
    _require_rank(kind, beta, 1)
    epsilon = float(epsilon)
    if not 0.0 < epsilon < np.inf:
        raise ValueError(f"{kind}: epsilon must be finite and > 0")
    n = x_data.shape[1]
    if gamma.shape[0] != n or beta.shape[0] != n:
        raise ShapeMismatchError(
            f"{kind}: x {x_data.shape} with gamma {gamma.shape}, beta {beta.shape}"
        )
    centered = x_data - x_data.mean(axis=1, keepdims=True)
    var = (centered * centered).sum(axis=1, keepdims=True) / n  # the bits of np.var
    live = var >= epsilon
    inv_std = np.where(live, 1.0 / np.sqrt(var + epsilon), 0.0)
    x_hat = centered * inv_std  # zero on constant (dead) rows
    gamma_data = gamma.data
    out = x_hat * gamma_data + beta.data

    def backward_fn(g, needs):
        dx = dgamma = dbeta = None
        if needs[0]:
            dx_hat = g * gamma_data
            # per-row: dx = inv_std * (dx_hat - mean(dx_hat) - x_hat * mean(dx_hat * x_hat))
            m1 = dx_hat.mean(axis=1, keepdims=True)
            m2 = (dx_hat * x_hat).mean(axis=1, keepdims=True)
            dx = inv_std * (dx_hat - m1 - x_hat * m2)
        if needs[1]:
            dgamma = (g * x_hat).sum(axis=0)
        if needs[2]:
            dbeta = g.sum(axis=0)
        return [dx, dgamma, dbeta]

    return out, backward_fn


def layer_norm(x, gamma, beta, epsilon):
    """Normalize each row over its features, then scale and shift.

    Rows whose variance falls below epsilon normalize to zero, so the
    output on such rows is exactly beta.
    """
    _require_rank("layer_norm", x, 2)
    out, backward_fn = _normalize("layer_norm", x.data, gamma, beta, epsilon)
    return _finish("layer_norm", [x, gamma, beta], out, backward_fn)


def add_norm(a, b, gamma, beta, epsilon):
    """``layer_norm(a + b)`` as one record: the post-LN residual step.

    Gives the same bits as ``layer_norm(add(a, b), gamma, beta, epsilon)``.
    """
    _require_rank("add_norm", a, 2)
    if a.shape != b.shape:
        raise ShapeMismatchError(f"add_norm: {a.shape} + {b.shape}")
    out, norm_backward = _normalize("add_norm", a.data + b.data, gamma, beta, epsilon)

    def backward_fn(g, needs):
        dx, dgamma, dbeta = norm_backward(g, (needs[0] or needs[1], needs[2], needs[3]))
        return [dx, dx, dgamma, dbeta]

    return _finish("add_norm", [a, b, gamma, beta], out, backward_fn)


def embedding_lookup(table, ids):
    """Gather rows of a vocab-by-dim table by integer id."""
    _require_rank("embedding_lookup", table, 2)
    idx = index_array(ids, "embedding_lookup: ids")
    vocab = table.shape[0]
    if idx.size and (idx.min() < 0 or idx.max() >= vocab):
        bad = int(idx[(idx < 0) | (idx >= vocab)][0])
        raise ShapeMismatchError(f"embedding_lookup: id {bad} out of range [0, {vocab})")
    n_rows, dim = table.shape

    def backward_fn(g, needs):
        dtable = np.zeros((n_rows, dim))
        np.add.at(dtable, idx, g)
        return [dtable]

    return _finish("embedding_lookup", [table], table.data[idx], backward_fn)


def mean_pool_first(x):
    """Pool a seq-by-h tensor to a single vector: the first position's row."""
    _require_rank("mean_pool_first", x, 2)
    rows, cols = x.shape

    def backward_fn(g, needs):
        dx = np.zeros((rows, cols))
        dx[0] = g
        return [dx]

    return _finish("mean_pool_first", [x], x.data[0].copy(), backward_fn)


def slice_cols(x, start, stop):
    """Contiguous column slice x[:, start:stop] of a rank-2 tensor."""
    _require_rank("slice_cols", x, 2)
    rows, cols = x.shape
    if not (0 <= start < stop <= cols):
        raise ShapeMismatchError(f"slice_cols: [{start}:{stop}] out of range for shape {x.shape}")

    def backward_fn(g, needs):
        dx = np.zeros((rows, cols))
        dx[:, start:stop] = g
        return [dx]

    return _finish("slice_cols", [x], np.ascontiguousarray(x.data[:, start:stop]), backward_fn)


def concat_cols(parts):
    """Concatenate rank-2 tensors along columns."""
    parts = list(parts)
    if not parts:
        raise ShapeMismatchError("concat_cols: need at least one part")
    rows = parts[0].shape[0]
    for p in parts:
        _require_rank("concat_cols", p, 2)
        if p.shape[0] != rows:
            raise ShapeMismatchError(
                f"concat_cols: row counts differ: {[p.shape for p in parts]}"
            )
    widths = [p.shape[1] for p in parts]
    offsets = np.cumsum([0] + widths)

    def backward_fn(g, needs):
        return [np.ascontiguousarray(g[:, offsets[i]:offsets[i + 1]]) for i in range(len(widths))]

    return _finish("concat_cols", parts, np.concatenate([p.data for p in parts], axis=1), backward_fn)


def stack_rows(parts):
    """Stack rank-1 tensors of equal length into a rank-2 tensor."""
    parts = list(parts)
    if not parts:
        raise ShapeMismatchError("stack_rows: need at least one part")
    width = parts[0].shape[0]
    for p in parts:
        _require_rank("stack_rows", p, 1)
        if p.shape[0] != width:
            raise ShapeMismatchError(f"stack_rows: lengths differ: {[p.shape for p in parts]}")

    def backward_fn(g, needs):
        return [g[i].copy() for i in range(len(parts))]

    return _finish("stack_rows", parts, np.stack([p.data for p in parts]), backward_fn)


def attention(q, k, v, lengths, num_heads):
    """Masked multi-head self-attention over packed rows.

    ``k`` and ``v`` hold the rows of ``len(lengths)`` sequences back to
    back. ``q`` holds either the same rows (every position queries) or one
    row per sequence, its first position; with every length 1 the two are
    the same. Each query attends only to its own sequence's keys. When
    every length is the same, the packed rows already lie as
    ``(batch, longest, heads, head_dim)`` and are attended as a view of
    themselves, with no mask. Ragged lengths are padded by index to
    ``(batch, heads, longest, head_dim)``, and the scores of padded keys are
    set to -inf before the row-max shift. Pooled queries always take a
    padded 2-row block. Either way the softmax runs in place in the one
    score buffer, and the bits are those of padding every batch. Returns
    one packed context row per query row; the probabilities stay inside the
    backward rule, which returns ``dq`` in ``q``'s packing.
    """
    for t in (q, k, v):
        _require_rank("attention", t, 2)
    lengths = index_array(lengths, "attention: lengths")
    total, width = k.shape
    if v.shape != k.shape or q.shape[1] != width:
        raise ShapeMismatchError(f"attention: q {q.shape}, k {k.shape}, v {v.shape}")
    if not lengths.size or lengths.min() < 1 or lengths.sum() != total:
        raise ShapeMismatchError(f"attention: lengths {lengths.tolist()} do not pack {total} rows")
    batch = lengths.size
    if q.shape[0] not in (total, batch):
        raise ShapeMismatchError(
            f"attention: q has {q.shape[0]} rows; want {total} (every position) or {batch} (first positions)")
    if width % num_heads:
        raise ShapeMismatchError(f"attention: width {width} not divisible by {num_heads} heads")
    longest, d = int(lengths.max()), width // num_heads
    rows = None  # gap-free: the packed rows already have the padded layout
    if total != batch * longest:
        starts = np.cumsum(lengths) - lengths
        rows = np.arange(total) + np.repeat(np.arange(batch) * longest - starts, lengths)
    if q.shape[0] == total:
        q_rows, q_len = rows, longest
    else:
        # each first position plus one zero row: numpy sends a 1-row block to gemv, whose bits differ
        # from the all-positions block's gemm, while gemm gives a row the same bits at any row count
        q_rows, q_len = np.arange(batch) * 2, 2

    def pad(x, rows=rows, n=longest):
        if rows is None:
            x = np.ascontiguousarray(x)  # a strided x would hand BLAS other strides, and other bits
        else:
            out = np.zeros((batch * n, width))
            out[rows] = x
            x = out
        return x.reshape(batch, n, num_heads, d).transpose(0, 2, 1, 3)

    def unpad(x, rows=rows, n=longest):
        x = x.transpose(0, 2, 1, 3).reshape(batch * n, width)
        return x if rows is None else x[rows]

    factor = 1.0 / np.sqrt(d)
    q_data = q.data
    if q_rows is None and np.may_share_memory(q_data, k.data):
        q_data = q_data.copy()  # numpy computes x @ x.T with syrk, whose bits differ from gemm's
    q_p, k_p, v_p = pad(q_data, q_rows, q_len), pad(k.data), pad(v.data)
    probs = q_p @ k_p.transpose(0, 1, 3, 2)  # the scores, turned into probabilities in place
    probs *= factor
    if rows is not None:
        np.copyto(probs, -np.inf, where=(np.arange(longest) >= lengths[:, None])[:, None, None, :])
    probs -= probs.max(axis=3, keepdims=True)
    np.exp(probs, out=probs)
    probs /= probs.sum(axis=3, keepdims=True)

    def backward_fn(g, needs):
        g_p = pad(g, q_rows, q_len)
        d_scores = g_p @ v_p.transpose(0, 1, 3, 2)  # d_probs, turned into d_scores in place
        d_scores -= (d_scores * probs).sum(axis=3, keepdims=True)
        d_scores *= probs
        d_scores *= factor
        return [unpad(d_scores @ k_p, q_rows, q_len), unpad(d_scores.transpose(0, 1, 3, 2) @ q_p),
                unpad(probs.transpose(0, 1, 3, 2) @ g_p)]

    return _finish("attention", [q, k, v], unpad(probs @ v_p, q_rows, q_len), backward_fn)


def sum_all(x):
    """Sum of all elements, as a scalar (shape ()) tensor."""
    in_shape = x.shape

    def backward_fn(g, needs):
        return [np.full(in_shape, float(g))]

    return _finish("sum_all", [x], np.asarray(x.data.sum()), backward_fn)


def index_array(values, what):
    """``values`` as a flat ``intp`` array; :class:`ShapeMismatchError` unless one flat sequence
    of integers other than ``bool``. An empty sequence passes, whatever numpy makes of it."""
    try:
        a = np.asarray(values)
    except ValueError:  # ragged nesting
        raise ShapeMismatchError(f"{what} must be one flat sequence, got a ragged one") from None
    if a.ndim != 1:
        raise ShapeMismatchError(f"{what} must be one flat sequence, got shape {a.shape}")
    kind = a.dtype.kind
    if kind in "iu" and not isinstance(values, np.ndarray) and {bool, np.bool_} & set(map(type, values)):
        kind = "b"  # numpy reads [1, True] as two integers
    if a.size and kind not in "iu":
        raise ShapeMismatchError(f"{what} must be integers, got {'bool' if kind == 'b' else a.dtype} values")
    return a.astype(np.intp, copy=False)


def cross_entropy(logits, labels):
    """Mean softmax cross-entropy of rank-2 logits against integer labels."""
    _require_rank("cross_entropy", logits, 2)
    y = index_array(labels, "labels")
    n, classes = logits.shape
    if y.shape != (n,):
        raise ShapeMismatchError(f"cross_entropy: logits {logits.shape} with labels shape {y.shape}")
    if y.size and (y.min() < 0 or y.max() >= classes):
        raise ShapeMismatchError(f"cross_entropy: label out of range [0, {classes})")
    z = logits.data
    shifted = z - z.max(axis=1, keepdims=True)
    log_probs = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    loss = -log_probs[np.arange(n), y].mean()

    def backward_fn(g, needs):
        probs = np.exp(log_probs)
        probs[np.arange(n), y] -= 1.0
        return [float(g) / n * probs]

    return _finish("cross_entropy", [logits], np.asarray(loss), backward_fn)


def mean_squared_error(pred, target):
    """Mean squared error against a constant target array."""
    t = np.asarray(target, dtype=np.float64)
    if pred.shape != t.shape:
        raise ShapeMismatchError(f"mean_squared_error: {pred.shape} vs {t.shape}")
    diff = pred.data - t

    def backward_fn(g, needs):
        return [float(g) * 2.0 / diff.size * diff]

    return _finish("mean_squared_error", [pred], np.asarray((diff * diff).mean()), backward_fn)


_ACTIVATIONS = {"relu": relu, "gelu": gelu, "swish": swish, "tanh": tanh}


def activation(name, x):
    """Apply one of the named activations: relu, gelu, swish, tanh."""
    try:
        fn = _ACTIVATIONS[name]
    except KeyError:
        raise ValueError(f"unknown activation {name!r}; valid: {sorted(_ACTIVATIONS)}") from None
    return fn(x)


# ---------------------------------------------------------------------------
# backward pass


def backward(loss):
    """Reverse sweep from a scalar loss; returns {leaf tensor: gradient}.

    Only leaves with ``requires_grad`` appear in the result. Raises
    :class:`GradientError` for a non-scalar or detached loss.
    """
    if loss.shape != ():
        raise GradientError(f"loss must be scalar, got shape {loss.shape}")
    tape = loss._tape
    if tape is None or loss._producer is None:
        raise GradientError("loss is detached from any tape")
    # each tensor made on this tape is popped at its record; the leaves' gradients remain
    grads = {loss: np.asarray(1.0)}
    for rec in reversed(tape.records):
        g = grads.pop(rec.output, None)
        if g is None:
            continue
        for t, need, gi in zip(rec.inputs, rec.needs, rec.backward_fn(g, rec.needs)):
            if need:
                grads[t] = grads[t] + gi if t in grads else gi
    return grads


def finite_difference_check(f, x, h=1e-5):
    """Max relative error between the autodiff gradient of f at x and
    central finite differences with step h.

    f must map one tensor to a scalar tensor and be deterministic (two
    evaluations at x must agree bitwise). The relative error at each
    coordinate is ``|g_ad - g_fd| / max(1, |g_ad|, |g_fd|)``.
    """
    h = float(h)
    if not (0.0 < h <= 1e-2):
        raise ValueError(f"step h must lie in (0, 1e-2], got {h}")

    def eval_plain(arr):
        out = f(Tensor(arr))
        if out.shape != ():
            raise GradientError(f"f must return a scalar, got shape {out.shape}")
        return float(out.data)

    base = x.data.copy()
    first = eval_plain(base)
    second = eval_plain(base)
    if first != second:
        raise GradientError("f is not deterministic: two evaluations at x disagree")

    probe = Tensor(base, requires_grad=True)
    with Tape():
        out = f(probe)
        if out.shape != ():
            raise GradientError(f"f must return a scalar, got shape {out.shape}")
        if out._producer is None:
            g_ad = np.zeros_like(base)  # constant f: gradient is identically zero
        else:
            g_ad = backward(out).get(probe, np.zeros_like(base))

    g_fd = np.zeros_like(base)
    flat = g_fd.reshape(-1)
    for i in range(base.size):
        bumped = base.copy().reshape(-1)
        bumped[i] += h
        up = eval_plain(bumped.reshape(base.shape))
        bumped[i] -= 2.0 * h
        down = eval_plain(bumped.reshape(base.shape))
        flat[i] = (up - down) / (2.0 * h)

    denom = np.maximum(1.0, np.maximum(np.abs(g_ad), np.abs(g_fd)))
    return float(np.max(np.abs(g_ad - g_fd) / denom)) if base.size else 0.0
