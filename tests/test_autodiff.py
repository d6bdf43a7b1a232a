import gc
import itertools
import weakref

import numpy as np
import pytest
from scipy.special import erf

import adapterkit.autodiff as ad
from adapterkit.errors import GradientError, NonFiniteError, ShapeMismatchError


def _t(rng, *shape, requires_grad=False):
    return ad.tensor(rng.standard_normal(shape), requires_grad=requires_grad)


# ---------------------------------------------------------------------------
# forward values against plain numpy


def test_matmul_matches_numpy():
    rng = np.random.default_rng(0)
    for _ in range(10):
        m, k, n = rng.integers(1, 7, size=3)
        a, b = _t(rng, m, k), _t(rng, k, n)
        assert np.allclose(ad.matmul(a, b).data, a.data @ b.data)


def test_matmul_shape_mismatch():
    rng = np.random.default_rng(1)
    with pytest.raises(ShapeMismatchError):
        ad.matmul(_t(rng, 2, 3), _t(rng, 4, 2))


def test_linear_and_add_norm_shape_mismatch():
    rng = np.random.default_rng(27)
    x, w, b = _t(rng, 4, 3), _t(rng, 3, 2), _t(rng, 2)
    for bad in ((_t(rng, 4), w, b), (x, _t(rng, 3), b), (x, w, _t(rng, 1, 2)),
                (x, _t(rng, 4, 2), b), (x, w, _t(rng, 3))):
        with pytest.raises(ShapeMismatchError):
            ad.linear(*bad)
    a, g = _t(rng, 4, 3), _t(rng, 3)
    for bad in ((_t(rng, 3), _t(rng, 3), g, g), (a, _t(rng, 4, 2), g, g), (a, a, _t(rng, 2), g),
                (a, a, g, _t(rng, 3, 1))):
        with pytest.raises(ShapeMismatchError):
            ad.add_norm(*bad, 1e-12)


def test_add_bias_broadcasts_rows():
    rng = np.random.default_rng(2)
    x, b = _t(rng, 5, 3), _t(rng, 3)
    assert np.allclose(ad.add_bias(x, b).data, x.data + b.data)


def test_activations_match_closed_forms():
    rng = np.random.default_rng(3)
    x = _t(rng, 4, 6)
    assert np.allclose(ad.relu(x).data, np.maximum(x.data, 0.0))
    assert np.allclose(ad.tanh(x).data, np.tanh(x.data))
    sig = 1.0 / (1.0 + np.exp(-x.data))
    assert np.allclose(ad.swish(x).data, x.data * sig)
    cdf = 0.5 * (1.0 + erf(x.data / np.sqrt(2.0)))
    assert np.allclose(ad.gelu(x).data, x.data * cdf)
    with pytest.raises(ValueError):
        ad.activation("sigmoid", x)


def test_gelu_is_exact_cdf_form_not_tanh_approximation():
    # the tanh approximation differs from the exact form in the 4th decimal
    x = ad.tensor([[2.0]])
    exact = 2.0 * 0.5 * (1.0 + erf(2.0 / np.sqrt(2.0)))
    assert abs(float(ad.gelu(x).data[0, 0]) - exact) < 1e-15


def test_softmax_rows_sum_to_one_and_shift_invariant():
    rng = np.random.default_rng(4)
    for _ in range(10):
        x = _t(rng, 3, 5)
        y = ad.softmax_rows(x).data
        assert np.allclose(y.sum(axis=1), 1.0)
        shifted = ad.softmax_rows(ad.tensor(x.data + 100.0)).data
        assert np.allclose(y, shifted)


def test_layer_norm_matches_manual_formula():
    rng = np.random.default_rng(5)
    x, g, b = _t(rng, 4, 8), _t(rng, 8), _t(rng, 8)
    eps = 1e-12
    out = ad.layer_norm(x, g, b, eps).data
    mean = x.data.mean(axis=1, keepdims=True)
    var = x.data.var(axis=1, keepdims=True)
    want = (x.data - mean) / np.sqrt(var + eps) * g.data + b.data
    assert np.allclose(out, want)


def test_layer_norm_constant_row_returns_beta():
    g = ad.tensor(np.full(6, 3.0))
    b = ad.tensor(np.arange(6.0))
    x = ad.tensor(np.full((2, 6), 42.0))
    out = ad.layer_norm(x, g, b, 1e-12).data
    assert np.array_equal(out, np.tile(b.data, (2, 1)))
    for bad in (0.0, np.nan, np.inf):
        with pytest.raises(ValueError):
            ad.layer_norm(x, g, b, bad)


def test_embedding_lookup_gathers_and_validates():
    rng = np.random.default_rng(6)
    table = _t(rng, 10, 4)
    ids = [3, 0, 9, 3]
    out = ad.embedding_lookup(table, ids).data
    assert np.array_equal(out, table.data[ids])
    with pytest.raises(ShapeMismatchError):
        ad.embedding_lookup(table, [10])
    with pytest.raises(ShapeMismatchError):
        ad.embedding_lookup(table, [-1])
    for bad in ([True], [np.True_], [3, True], [1.5], [2.0], ["3"], [None], np.array([1.0, 2.0])):
        with pytest.raises(ShapeMismatchError, match="ids must be integers"):
            ad.embedding_lookup(table, bad)
    with pytest.raises(ShapeMismatchError, match="ids must be one flat sequence"):
        ad.embedding_lookup(table, [[1], [2]])
    assert np.array_equal(ad.embedding_lookup(table, [np.int64(3), np.uint32(0)]).data, table.data[[3, 0]])
    assert np.array_equal(ad.embedding_lookup(table, np.array(ids, np.uint32)).data, out)
    assert ad.embedding_lookup(table, []).shape == (0, 4)


def test_pool_slice_concat_stack():
    rng = np.random.default_rng(7)
    x = _t(rng, 5, 6)
    assert np.array_equal(ad.mean_pool_first(x).data, x.data[0])
    assert np.array_equal(ad.slice_cols(x, 2, 5).data, x.data[:, 2:5])
    parts = [ad.slice_cols(x, i, i + 2) for i in (0, 2, 4)]
    assert np.array_equal(ad.concat_cols(parts).data, x.data)
    rows = [ad.tensor(x.data[i]) for i in range(5)]
    assert np.array_equal(ad.stack_rows(rows).data, x.data)


def test_cross_entropy_matches_log_softmax():
    rng = np.random.default_rng(8)
    logits = _t(rng, 6, 3)
    labels = rng.integers(0, 3, size=6)
    z = logits.data - logits.data.max(axis=1, keepdims=True)
    logp = z - np.log(np.exp(z).sum(axis=1, keepdims=True))
    want = -logp[np.arange(6), labels].mean()
    assert np.allclose(float(ad.cross_entropy(logits, labels).data), want)


def test_cross_entropy_rejects_bad_labels():
    rng = np.random.default_rng(9)
    logits = _t(rng, 4, 3)
    with pytest.raises(ShapeMismatchError):
        ad.cross_entropy(logits, [0, 1, 2, 3])
    for labels in ([0.7, 1.2, 0, 1], [2.0, 1.0, 0.0, 1.0], ["0", "1", "0", "1"], [0, 1, None, 2],
                   [True, False, True, False], [np.True_, 0, 1, 2], [0, 1, True, 2], np.array([1, 0, 1, 0], bool)):
        with pytest.raises(ShapeMismatchError, match="labels must be integers"):
            ad.cross_entropy(logits, labels)
    with pytest.raises(ShapeMismatchError, match="label out of range"):
        ad.cross_entropy(logits, [0, 1, -1, 2])
    want = ad.cross_entropy(logits, [0, 1, 2, 1]).data
    assert ad.cross_entropy(logits, [np.int64(0), np.uint32(1), 2, 1]).data == want
    assert ad.cross_entropy(logits, np.array([0, 1, 2, 1], np.uint32)).data == want
    for labels in ([[0], [1], [2], [0]], [[0], 1, 2, 0], 1):
        with pytest.raises(ShapeMismatchError, match="labels must be one flat sequence"):
            ad.cross_entropy(logits, labels)


def test_non_finite_results_raise():
    big = ad.tensor(np.full((2, 2), 1e308))
    with np.errstate(over="ignore"):
        with pytest.raises(NonFiniteError):
            ad.matmul(big, big)
    with pytest.raises(NonFiniteError):
        ad.scale(big, float("nan"))
    with np.errstate(over="ignore"):
        with pytest.raises(NonFiniteError):
            ad.linear(big, big, ad.tensor(np.zeros(2)))
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(NonFiniteError):
            ad.add_norm(big, big, ad.tensor(np.ones(2)), ad.tensor(np.zeros(2)), 1e-12)


def test_forward_is_deterministic_bitwise():
    rng = np.random.default_rng(11)
    a, b = _t(rng, 8, 8), _t(rng, 8, 8)
    first = ad.matmul(a, b).data
    second = ad.matmul(a, b).data
    assert np.array_equal(first, second)


# ---------------------------------------------------------------------------
# recording discipline


def test_no_tape_records_nothing():
    rng = np.random.default_rng(12)
    x = _t(rng, 3, 3, requires_grad=True)
    out = ad.relu(x)
    assert out._producer is None and out._tape is None


def test_tape_skips_untracked_inputs():
    rng = np.random.default_rng(13)
    x = _t(rng, 3, 3)  # no requires_grad
    with ad.Tape() as tape:
        out = ad.relu(x)
    assert tape.records == [] and out._producer is None


def test_tape_records_tracked_chain_in_order():
    rng = np.random.default_rng(14)
    x = _t(rng, 3, 3, requires_grad=True)
    with ad.Tape() as tape:
        y = ad.relu(x)
        z = ad.sum_all(y)
    assert [r.kind for r in tape.records] == ["relu", "sum_all"]
    assert z._producer is tape.records[-1]


def test_derived_tensor_tracks_through_untracked_op_inputs():
    rng = np.random.default_rng(15)
    x = _t(rng, 3, 3, requires_grad=True)
    c = _t(rng, 3, 3)
    with ad.Tape() as tape:
        y = ad.add(x, c)  # c untracked, y still tracked
        z = ad.sum_all(y)
        grads = ad.backward(z)
    assert len(tape.records) == 2
    assert np.allclose(grads[x], np.ones((3, 3)))
    assert c not in grads


def test_tapes_nest_independently():
    rng = np.random.default_rng(16)
    x = _t(rng, 2, 2, requires_grad=True)
    with ad.Tape() as outer:
        ad.relu(x)
        with ad.Tape() as inner:
            ad.tanh(x)
        ad.swish(x)
    assert [r.kind for r in outer.records] == ["relu", "swish"]
    assert [r.kind for r in inner.records] == ["tanh"]


def test_outer_tape_records_again_after_an_inner_tape_raises():
    rng = np.random.default_rng(17)
    x = _t(rng, 2, 2, requires_grad=True)
    with ad.Tape() as outer:
        with pytest.raises(RuntimeError):
            with ad.Tape() as inner:
                ad.tanh(x)
                raise RuntimeError("step failed")
        ad.relu(x)
    assert [r.kind for r in outer.records] == ["relu"]
    assert [r.kind for r in inner.records] == ["tanh"]
    assert ad.relu(x)._producer is None  # no tape outside the blocks


def test_finished_tape_is_freed_without_the_cyclic_gc():
    rng = np.random.default_rng(24)
    x = _t(rng, 3, 3, requires_grad=True)
    enabled = gc.isenabled()
    gc.disable()
    try:
        with ad.Tape() as tape:
            z = ad.sum_all(ad.tanh(ad.relu(x)))
            ad.backward(z)
        assert z._producer is tape.records[-1]  # records stay listed after the block
        ref = weakref.ref(tape)
        del tape
        assert ref() is None
    finally:
        if enabled:
            gc.enable()


# ---------------------------------------------------------------------------
# backward pass


def test_cross_entropy_refuses_a_label_count_that_is_not_the_row_count():
    logits = _t(np.random.default_rng(10), 4, 3)
    for labels in ([0, 1, 2], [0, 1, 2, 1, 0]):
        with pytest.raises(ShapeMismatchError, match=r"logits \(4, 3\) with labels shape"):
            ad.cross_entropy(logits, labels)

def test_mean_squared_error_refuses_a_target_of_another_shape():
    with pytest.raises(ShapeMismatchError, match=r"mean_squared_error: \(2, 3\) vs \(3, 2\)"):
        ad.mean_squared_error(ad.tensor(np.zeros((2, 3))), np.zeros((3, 2)))


def test_tensor_repr_names_shape_and_provenance():
    x = ad.tensor(np.ones((2, 3)), requires_grad=True)
    assert repr(ad.tensor(np.ones(2))) == "Tensor(shape=(2,))"
    assert repr(x) == "Tensor(shape=(2, 3) (requires_grad))"
    with ad.Tape():
        assert repr(ad.relu(x)) == "Tensor(shape=(2, 3) (from relu))"


def test_backward_requires_scalar_attached_loss():
    rng = np.random.default_rng(17)
    x = _t(rng, 2, 2, requires_grad=True)
    with ad.Tape():
        y = ad.relu(x)
        with pytest.raises(GradientError):
            ad.backward(y)  # not scalar
    detached = ad.sum_all(x)  # no tape active here
    with pytest.raises(GradientError):
        ad.backward(detached)


def test_backward_accumulates_reused_input():
    x = ad.tensor(np.ones((2, 2)), requires_grad=True)
    with ad.Tape():
        loss = ad.sum_all(ad.add(x, x))
        grads = ad.backward(loss)
    assert np.array_equal(grads[x], np.full((2, 2), 2.0))


def test_backward_skips_a_tracked_result_the_loss_does_not_use():
    x = ad.tensor(np.ones((2, 2)), requires_grad=True)
    with ad.Tape() as tape:
        unused = ad.relu(x)
        loss = ad.sum_all(ad.add(x, x))
        assert [rec.kind for rec in tape.records] == ["relu", "add", "sum_all"]
        assert tape.records[0].output is unused
        grads = ad.backward(loss)
    assert set(grads) == {x} and np.array_equal(grads[x], np.full((2, 2), 2.0))

def test_backward_only_reports_requires_grad_leaves():
    rng = np.random.default_rng(18)
    x = _t(rng, 2, 3, requires_grad=True)
    w = _t(rng, 3, 2)  # frozen
    with ad.Tape():
        loss = ad.sum_all(ad.matmul(x, w))
        grads = ad.backward(loss)
    assert x in grads and w not in grads


def test_records_keep_the_tracked_mask_and_skip_frozen_gradients():
    rng = np.random.default_rng(28)
    x = _t(rng, 3, 4, requires_grad=True)
    w, b = _t(rng, 4, 4), _t(rng, 4)  # frozen
    gamma, beta = _t(rng, 4), _t(rng, 4)  # frozen
    with ad.Tape() as tape:
        y = ad.linear(x, w, b)
        z = ad.add_norm(y, x, gamma, beta, 1e-12)
        grads = ad.backward(ad.sum_all(z))
    lin, norm = tape.records[:2]
    assert (lin.kind, lin.needs) == ("linear", (True, False, False))
    assert (norm.kind, norm.needs) == ("add_norm", (True, True, False, False))
    g = np.ones((3, 4))
    dx, dw, db = lin.backward_fn(g, lin.needs)
    assert dx.shape == (3, 4) and dw is None and db is None
    dy, dx, dgamma, dbeta = norm.backward_fn(g, norm.needs)
    assert dy is dx and dgamma is None and dbeta is None
    assert set(grads) == {x}


def test_matmul_gradients_match_closed_form():
    rng = np.random.default_rng(19)
    a = _t(rng, 3, 4, requires_grad=True)
    b = _t(rng, 4, 2, requires_grad=True)
    with ad.Tape():
        grads = ad.backward(ad.sum_all(ad.matmul(a, b)))
    ones = np.ones((3, 2))
    assert np.allclose(grads[a], ones @ b.data.T)
    assert np.allclose(grads[b], a.data.T @ ones)


# ---------------------------------------------------------------------------
# finite differences: every differentiable primitive, randomized seeds


def _fd(f, x, tol=1e-6, h=1e-5):
    err = ad.finite_difference_check(f, x, h)
    assert err < tol, f"finite-difference error {err:.3e} exceeds {tol:.1e}"


def test_fd_elementwise_primitives():
    rng = np.random.default_rng(20)
    for trial in range(8):
        x = ad.tensor(rng.standard_normal((3, 4)) + 0.3)  # keep clear of relu kink
        for fn in (ad.relu, ad.gelu, ad.swish, ad.tanh):
            _fd(lambda t, fn=fn: ad.sum_all(fn(t)), x)


def test_fd_matmul_and_bias():
    rng = np.random.default_rng(21)
    for trial in range(8):
        a = ad.tensor(rng.standard_normal((3, 5)))
        b = ad.tensor(rng.standard_normal((5, 2)))
        _fd(lambda t: ad.sum_all(ad.matmul(t, b)), a)
        _fd(lambda t: ad.sum_all(ad.matmul(a, t)), b)
        bias = ad.tensor(rng.standard_normal(5))
        _fd(lambda t: ad.sum_all(ad.tanh(ad.add_bias(a, t))), bias)


def test_fd_linear_and_add_norm():
    rng = np.random.default_rng(29)
    for trial in range(5):
        x, w, b = (ad.tensor(rng.standard_normal(s)) for s in ((3, 5), (5, 4), (4,)))
        _fd(lambda t: ad.sum_all(ad.tanh(ad.linear(t, w, b))), x)
        _fd(lambda t: ad.sum_all(ad.tanh(ad.linear(x, t, b))), w)
        _fd(lambda t: ad.sum_all(ad.tanh(ad.linear(x, w, t))), b)
        a, c = (ad.tensor(rng.standard_normal((4, 6))) for _ in range(2))
        gamma = ad.tensor(rng.standard_normal(6) + 2.0)
        beta = ad.tensor(rng.standard_normal(6))
        target = rng.standard_normal((4, 6))  # weights every output differently

        def loss(a, c, gamma, beta):
            return ad.mean_squared_error(ad.add_norm(a, c, gamma, beta, 1e-12), target)

        _fd(lambda t: loss(t, c, gamma, beta), a)
        _fd(lambda t: loss(a, t, gamma, beta), c)
        _fd(lambda t: loss(a, c, t, beta), gamma)
        _fd(lambda t: loss(a, c, gamma, t), beta)


def test_fd_softmax_layer_norm_and_losses():
    rng = np.random.default_rng(22)
    for trial in range(8):
        x = ad.tensor(rng.standard_normal((4, 6)))
        weights = ad.tensor(rng.standard_normal((6, 3)))
        _fd(lambda t: ad.sum_all(ad.matmul(ad.softmax_rows(t), weights)), x)
        gamma = ad.tensor(rng.standard_normal(6) + 2.0)
        beta = ad.tensor(rng.standard_normal(6))
        _fd(lambda t: ad.sum_all(ad.layer_norm(t, gamma, beta, 1e-12)), x)
        _fd(lambda t: ad.sum_all(ad.layer_norm(x, t, beta, 1e-12)), gamma)
        _fd(lambda t: ad.sum_all(ad.layer_norm(x, gamma, t, 1e-12)), beta)
        labels = rng.integers(0, 3, size=4)
        logits = ad.tensor(rng.standard_normal((4, 3)))
        _fd(lambda t: ad.cross_entropy(t, labels), logits)
        target = rng.standard_normal((4, 3))
        _fd(lambda t: ad.mean_squared_error(t, target), logits)


def test_fd_structural_primitives():
    rng = np.random.default_rng(23)
    for trial in range(5):
        x = ad.tensor(rng.standard_normal((4, 6)))
        _fd(lambda t: ad.sum_all(ad.tanh(ad.slice_cols(t, 1, 5))), x)
        _fd(lambda t: ad.sum_all(ad.tanh(ad.concat_cols([ad.slice_cols(t, 0, 2), ad.slice_cols(t, 3, 6)]))), x)
        _fd(lambda t: ad.sum_all(ad.tanh(ad.transpose(t))), x)
        table = ad.tensor(rng.standard_normal((9, 5)))
        ids = [2, 7, 2, 0]
        _fd(lambda t: ad.sum_all(ad.tanh(ad.embedding_lookup(t, ids))), table)
        row = ad.tensor(rng.standard_normal(6))
        _fd(lambda t: ad.sum_all(ad.tanh(ad.stack_rows([t, row]))), row)
        _fd(lambda t: ad.sum_all(ad.tanh(ad.scale(ad.mean_pool_first(t), 1.7))), x)


def _np_attention_one(q, k, v, num_heads):
    d = q.shape[1] // num_heads
    out = np.zeros_like(q)
    for h in range(num_heads):
        cols = slice(h * d, (h + 1) * d)
        scores = q[:, cols] @ k[:, cols].T / np.sqrt(d)
        e = np.exp(scores - scores.max(axis=1, keepdims=True))
        out[:, cols] = e / e.sum(axis=1, keepdims=True) @ v[:, cols]
    return out


def test_attention_keeps_packed_sequences_apart():
    rng = np.random.default_rng(25)
    lengths = [3, 1, 5, 2]
    q, k, v = (_t(rng, sum(lengths), 6) for _ in range(3))
    ctx = ad.attention(q, k, v, lengths, 3)
    assert ctx.shape == q.shape
    start = 0
    for n in lengths:
        rows = slice(start, start + n)
        want = _np_attention_one(q.data[rows], k.data[rows], v.data[rows], 3)
        assert np.allclose(ctx.data[rows], want, atol=1e-14, rtol=0)
        start += n
    for bad in ([3, 1, 5], [3, 1, 5, 3], [0, 4, 5, 2], []):
        with pytest.raises(ShapeMismatchError):
            ad.attention(q, k, v, bad, 3)
    for bad in ([3.0, 1.0, 5.0, 2.0], [3, 1, 4.5, 2.5], [3, True, 5, 2], [3, np.True_, 5, 2],
                [3, 1, 5, "2"], [3, 1, 5, None]):
        with pytest.raises(ShapeMismatchError, match="lengths must be integers"):
            ad.attention(q, k, v, bad, 3)
    assert np.array_equal(ad.attention(q, k, v, np.array(lengths, np.uint32), 3).data, ctx.data)
    with pytest.raises(ShapeMismatchError):
        ad.attention(q, k, v, lengths, 4)


def test_fd_attention_ragged_lengths():
    rng = np.random.default_rng(26)
    lengths = [2, 4, 1]
    q, k, v = (ad.tensor(rng.standard_normal((7, 4))) for _ in range(3))
    w = rng.standard_normal((7, 4))  # weights every context row differently

    def loss(q, k, v):
        return ad.mean_squared_error(ad.attention(q, k, v, lengths, 2), w)

    _fd(lambda t: loss(t, k, v), q)
    _fd(lambda t: loss(q, t, v), k)
    _fd(lambda t: loss(q, k, t), v)


def test_fd_attention_equal_lengths():
    rng = np.random.default_rng(31)
    lengths = [3, 3]
    q, k, v = (ad.tensor(rng.standard_normal((6, 4))) for _ in range(3))
    w = rng.standard_normal((6, 4))  # weights every context row differently

    def loss(q, k, v):
        return ad.mean_squared_error(ad.attention(q, k, v, lengths, 2), w)

    _fd(lambda t: loss(t, k, v), q)
    _fd(lambda t: loss(q, t, v), k)
    _fd(lambda t: loss(q, k, t), v)


def _padded_attention(q, k, v, lengths, num_heads, g):
    """Reference: every batch padded by index to ``(batch, heads, longest, head_dim)`` and
    masked, the softmax out of place. Returns the context and dq, dk, dv for upstream ``g``."""
    lengths = np.asarray(lengths)
    (total, width), batch = k.shape, lengths.size
    longest, d = int(lengths.max()), width // num_heads
    starts = np.cumsum(lengths) - lengths
    rows = np.arange(total) + np.repeat(np.arange(batch) * longest - starts, lengths)
    q_rows, q_len = (rows, longest) if q.shape[0] == total else (np.arange(batch) * 2, 2)

    def pad(x, rows=rows, n=longest):
        out = np.zeros((batch * n, width))
        out[rows] = x
        return out.reshape(batch, n, num_heads, d).transpose(0, 2, 1, 3)

    def unpad(x, rows=rows, n=longest):
        return x.transpose(0, 2, 1, 3).reshape(batch * n, width)[rows]

    factor = 1.0 / np.sqrt(d)
    q_p, k_p, v_p, g_p = pad(q, q_rows, q_len), pad(k), pad(v), pad(g, q_rows, q_len)
    padded_key = (np.arange(longest) >= lengths[:, None])[:, None, None, :]
    scores = np.where(padded_key, -np.inf, (q_p @ k_p.transpose(0, 1, 3, 2)) * factor)
    e = np.exp(scores - scores.max(axis=3, keepdims=True))
    probs = e / e.sum(axis=3, keepdims=True)
    d_probs = g_p @ v_p.transpose(0, 1, 3, 2)
    d_scores = factor * (probs * (d_probs - (d_probs * probs).sum(axis=3, keepdims=True)))
    return (unpad(probs @ v_p, q_rows, q_len), unpad(d_scores @ k_p, q_rows, q_len),
            unpad(d_scores.transpose(0, 1, 3, 2) @ q_p), unpad(probs.transpose(0, 1, 3, 2) @ g_p))


def test_attention_is_bitwise_the_padded_formula():
    """Gap-free batches skip the padding and the mask; context and gradients keep every bit."""
    rng = np.random.default_rng(30)
    ragged = [3, 1, 5, 2, 1, 7]
    cases = [([16] * 16, 64, 4, "every row"), ([1], 64, 4, "every row"), ([7], 64, 4, "every row"),
             ([32], 64, 4, "every row"), ([1] * 5, 8, 2, "every row"), ([9] * 4, 64, 4, "first rows"),
             ([22] * 6, 4, 4, "q transposed"), ([12] * 3, 8, 2, "q is k"),
             (ragged, 8, 2, "every row"), (ragged, 8, 2, "first rows")]
    for lengths, width, heads, queries in cases:
        total = sum(lengths)
        q, k, v = (ad.tensor(rng.standard_normal((total, width)), requires_grad=True) for _ in range(3))
        if queries == "first rows":
            q = ad.tensor(q.data[np.cumsum(lengths) - lengths], requires_grad=True)
        elif queries == "q transposed":  # a strided view, as a column-major array gives
            q.data = np.asfortranarray(q.data)
        elif queries == "q is k":  # numpy would compute q @ k.T with syrk, not gemm
            k = q
        g = rng.standard_normal(q.shape)
        with ad.Tape() as tape:
            ctx = ad.attention(q, k, v, lengths, heads)
            grads = tape.records[-1].backward_fn(g, (True, True, True))
        want = _padded_attention(q.data, k.data, v.data, lengths, heads, g)
        for got, ref in zip([ctx.data, *grads], want):
            assert np.array_equal(got, ref), (lengths, queries)


# ---------------------------------------------------------------------------
# elementwise kernels: every bit of the out-of-place formulas


def _bits(a):
    """The raw 64-bit patterns, so that -0.0 and 0.0 differ."""
    return np.ascontiguousarray(a).view(np.uint64)


def _ref_gelu(x, g):
    cdf = 0.5 * (1.0 + erf(x * (1.0 / np.sqrt(2.0))))
    pdf = np.exp(-0.5 * x * x) * (1.0 / np.sqrt(2.0 * np.pi))
    return x * cdf, [g * (cdf + x * pdf)]


def _ref_swish(x, g):
    sig = 1.0 / (1.0 + np.exp(-x))
    return x * sig, [g * (sig + x * sig * (1.0 - sig))]


def _ref_tanh(x, g):
    t = np.tanh(x)
    return t, [g * (1.0 - t * t)]


def _ref_layer_norm(x, gamma, beta, eps, g):
    centered = x - x.mean(axis=1, keepdims=True)
    var = (centered * centered).sum(axis=1, keepdims=True) / x.shape[1]
    inv_std = np.where(var >= eps, 1.0 / np.sqrt(var + eps), 0.0)
    x_hat = centered * inv_std
    dx_hat = g * gamma
    m1 = dx_hat.mean(axis=1, keepdims=True)
    m2 = (dx_hat * x_hat).mean(axis=1, keepdims=True)
    return x_hat * gamma + beta, [inv_std * (dx_hat - m1 - x_hat * m2), (g * x_hat).sum(axis=0), g.sum(axis=0)]


def _ref_add_norm(a, b, gamma, beta, eps, g):
    out, (dx, dgamma, dbeta) = _ref_layer_norm(a + b, gamma, beta, eps, g)
    return out, [dx, dx, dgamma, dbeta]


def _kernel_cases(rng, order):
    """(name, primitive, input arrays, reference) over both signs, +-0.0, subnormals, |x / sqrt 2| > 1
    (erf's erfc branch) and constant (dead) layer-norm rows, in C or Fortran order."""
    x = rng.standard_normal((40, 48)) * 2.0
    x[0, :11] = [0.0, -0.0, 1e-300, -1e-300, 5e-324, -5e-324, 1.5, -1.5, 5.0, -5.0, -30.0]
    x[1:4] = [[7.0], [0.0], [-3.0]]
    x[4] = 1.0 + 1e-9 * rng.standard_normal(48)  # variance below epsilon: dead as well
    a = rng.standard_normal(x.shape)
    a[1:5] = 0.5  # keeps those rows of x + a dead
    gamma, beta = rng.standard_normal(48) + 1.0, rng.standard_normal(48)
    x, a = np.asarray(x, order=order), np.asarray(a, order=order)
    eps = 1e-12
    return [("gelu", ad.gelu, [x], _ref_gelu), ("swish", ad.swish, [x], _ref_swish),
            ("tanh", ad.tanh, [x], _ref_tanh),
            ("layer_norm", lambda *t: ad.layer_norm(*t, eps), [x, gamma, beta],
             lambda *v: _ref_layer_norm(*v[:-1], eps, v[-1])),
            ("add_norm", lambda *t: ad.add_norm(*t, eps), [x, a, gamma, beta],
             lambda *v: _ref_add_norm(*v[:-1], eps, v[-1]))]


def _leaves(arrays, needs):
    """Tensors holding exactly ``arrays`` (a Fortran-order array stays Fortran-order)."""
    tensors = [ad.tensor(v, requires_grad=n) for v, n in zip(arrays, needs)]
    for t, v in zip(tensors, arrays):
        t.data = v
    return tensors


def test_elementwise_kernels_are_bitwise_the_reference_formulas():
    """The in-place kernels keep every bit, and the memory order, of the out-of-place formulas:
    the output and every gradient, for each pattern of tracked inputs."""
    rng = np.random.default_rng(31)
    for order in ("C", "F"):
        for name, fn, arrays, ref in _kernel_cases(rng, order):
            g = np.asarray(rng.standard_normal(arrays[0].shape), order=order)
            g[0, :2] = [0.0, -0.0]
            want_out, want_grads = ref(*arrays, g)
            for needs in itertools.product((False, True), repeat=len(arrays)):
                if not any(needs):
                    continue
                with ad.Tape() as tape:
                    out = fn(*_leaves(arrays, needs))
                    grads = tape.records[-1].backward_fn(g, needs)
                assert np.array_equal(_bits(out.data), _bits(want_out)), (name, order)
                assert out.data.strides == want_out.strides, (name, order)
                for need, got, want in zip(needs, grads, want_grads):
                    if need:
                        assert np.array_equal(_bits(got), _bits(want)), (name, order, needs)


def test_scipy_erf_is_odd_bit_for_bit():
    """gelu evaluates erf on |x| and copies the sign of x back; that keeps every bit only
    while ``erf(-z)`` is exactly ``-erf(z)``, from 1e-300 to 30 and at +-0.0."""
    rng = np.random.default_rng(32)
    magnitude = 10.0 ** rng.uniform(-300.0, np.log10(30.0), 500_000)
    z = np.concatenate([magnitude, -magnitude, [0.0, -0.0, 5e-324, -5e-324, 30.0, -30.0]])
    assert np.array_equal(_bits(np.copysign(erf(np.abs(z)), z)), _bits(erf(z)))


def test_elementwise_kernels_write_only_into_their_own_buffers():
    """Forward and backward leave every input, the output and the incoming gradient as they were,
    also when ``add``'s backward hands one gradient array to two consumers."""
    rng = np.random.default_rng(33)
    for name, fn, arrays, _ in _kernel_cases(rng, "C"):
        needs = (True,) * len(arrays)
        first, second = _leaves(arrays, needs), _leaves([v.copy() for v in arrays], needs)
        first[0].data = first[0].data + 0.25
        inputs = [t.data.copy() for t in first + second]
        with ad.Tape() as tape:
            outs = fn(*first), fn(*second)
            out_data = [y.data.copy() for y in outs]
            grads = ad.backward(ad.mean_squared_error(ad.add(*outs), rng.standard_normal(arrays[0].shape)))
            g = tape.records[-1].backward_fn(np.asarray(1.0), (True,))[0]  # what add hands to both
        g_before = g.copy()
        # a rule run again on an untouched g gives what the sweep gave: neither the shared g nor
        # the arrays the rules keep were written into
        for rec, leaves in zip(tape.records[:2], (first, second)):
            for t, want in zip(leaves, rec.backward_fn(g, needs)):
                assert np.array_equal(_bits(grads[t]), _bits(want)), name
        assert np.array_equal(_bits(g), _bits(g_before)), name
        for t, before in zip(first + second, inputs):
            assert np.array_equal(_bits(t.data), _bits(before)), name
        for y, before in zip(outs, out_data):
            assert np.array_equal(_bits(y.data), _bits(before)), name


def test_pooled_query_attention_is_the_first_rows_of_all_query_attention():
    """One query per sequence gives, bit for bit, the first rows that every position's queries give."""
    rng = np.random.default_rng(27)
    for lengths, heads in (([3, 1, 5, 2, 1, 7], 3), ([5], 3), ([1, 1, 1], 2), ([1], 2)):
        q, k, v = (_t(rng, sum(lengths), 6) for _ in range(3))
        starts = np.cumsum(lengths) - lengths
        pooled = ad.attention(ad.tensor(q.data[starts]), k, v, lengths, heads)
        assert pooled.shape == (len(lengths), 6)
        assert np.array_equal(pooled.data, ad.attention(q, k, v, lengths, heads).data[starts])
        # a first position that attends to its own sequence only
        want = [_np_attention_one(q.data[s:s + n], k.data[s:s + n], v.data[s:s + n], heads)[0]
                for s, n in zip(starts, lengths)]
        assert np.allclose(pooled.data, want, atol=1e-14, rtol=0)
    q, k, v = (_t(rng, 11, 6) for _ in range(3))
    for rows in (0, 1, 3, 5, 10, 12):  # neither every position (11) nor one per sequence (4)
        with pytest.raises(ShapeMismatchError, match="q has"):
            ad.attention(_t(rng, rows, 6), k, v, [3, 1, 5, 2], 3)
    for bad_q in (_t(rng, 4, 4), _t(rng, 11, 3)):
        with pytest.raises(ShapeMismatchError):
            ad.attention(bad_q, k, v, [3, 1, 5, 2], 3)


def test_fd_pooled_query_attention():
    rng = np.random.default_rng(28)
    lengths = [2, 4, 1]
    q = ad.tensor(rng.standard_normal((3, 4)))
    k, v = (ad.tensor(rng.standard_normal((7, 4))) for _ in range(2))
    w = rng.standard_normal((3, 4))  # weights every context row differently

    def loss(q, k, v):
        return ad.mean_squared_error(ad.attention(q, k, v, lengths, 2), w)

    _fd(lambda t: loss(t, k, v), q)
    _fd(lambda t: loss(q, t, v), k)
    _fd(lambda t: loss(q, k, t), v)


def test_fd_check_api_contract():
    x = ad.tensor(np.ones((2, 2)))
    with pytest.raises(ValueError):
        ad.finite_difference_check(lambda t: ad.sum_all(t), x, h=0.5)
    with pytest.raises(ValueError):
        ad.finite_difference_check(lambda t: ad.sum_all(t), x, h=0.0)
    with pytest.raises(GradientError):
        ad.finite_difference_check(lambda t: ad.relu(t), x)  # non-scalar f

    calls = []

    def nondeterministic(t):
        calls.append(1)
        return ad.scale(ad.sum_all(t), float(len(calls)))

    with pytest.raises(GradientError):
        ad.finite_difference_check(nondeterministic, x)


def test_fd_constant_function_reports_zero():
    x = ad.tensor(np.ones((3, 3)))
    err = ad.finite_difference_check(lambda t: ad.sum_all(ad.tensor(np.zeros(1))), x)
    assert err == 0.0
