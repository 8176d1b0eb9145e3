"""Tests for the autodiff engine.

Forward values are checked against independent scalar oracles (triple
loops, math.exp on floats); gradients against central finite differences.
"""

import copy
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vigor import tensor as T
from vigor.errors import ContractError, NumericError, ShapeError


# ---------------------------------------------------------------------------
# oracles


def matmul_oracle(a, b):
    m, k = len(a), len(a[0])
    k2, n = len(b), len(b[0])
    assert k == k2
    out = [[0.0] * n for _ in range(m)]
    for i in range(m):
        for j in range(n):
            s = 0.0
            for t in range(k):
                s += a[i][t] * b[t][j]
            out[i][j] = s
    return np.array(out)


def softmax_oracle(row):
    mx = max(row)
    es = [math.exp(v - mx) for v in row]
    tot = sum(es)
    return [e / tot for e in es]


def fd_grads(loss_fn, params, h=1e-5):
    """Central finite differences on a dict of numpy arrays."""
    grads = {}
    for name, arr in params.items():
        g = np.zeros_like(arr)
        flat = arr.reshape(-1)
        gflat = g.reshape(-1)
        for j in range(flat.size):
            orig = flat[j]
            flat[j] = orig + h
            up = loss_fn(params)
            flat[j] = orig - h
            down = loss_fn(params)
            flat[j] = orig
            gflat[j] = (up - down) / (2 * h)
        grads[name] = g
    return grads


def rel_err(ga, gn):
    return np.abs(ga - gn) / np.maximum(1e-8, np.abs(ga) + np.abs(gn))


# ---------------------------------------------------------------------------
# forward values


def test_matmul_identity():
    a = T.constant([[1.0, 2.0], [3.0, 4.0]])
    eye = T.constant(np.eye(2))
    assert np.array_equal(T.matmul(a, eye).data, a.data)


def test_matmul_against_triple_loop():
    rng = np.random.default_rng(0)
    for _ in range(20):
        m, k, n = rng.integers(1, 6, size=3)
        a = rng.normal(size=(m, k))
        b = rng.normal(size=(k, n))
        got = T.matmul(T.constant(a), T.constant(b)).data
        want = matmul_oracle(a.tolist(), b.tolist())
        assert np.allclose(got, want, atol=1e-12)


def test_matmul_shape_mismatch():
    with pytest.raises(ShapeError):
        T.matmul(T.constant(np.ones((2, 3))), T.constant(np.ones((2, 3))))


# ---------------------------------------------------------------------------
# row softmax, as attention weights and inside cross_entropy


def attention_oracle(q, k, v, n_heads):
    """Per-head scalar loops over the column groups [h*dh, (h+1)*dh)."""
    m, d = q.shape
    dh = d // n_heads
    out = np.zeros((m, d))
    for h in range(n_heads):
        cols = slice(h * dh, (h + 1) * dh)
        for i in range(m):
            logits = [float(q[i, cols] @ k[j, cols]) / math.sqrt(dh) for j in range(len(k))]
            for j, w in enumerate(softmax_oracle(logits)):
                out[i, cols] += w * v[j, cols]
    return out


def layout_of(segments, key_segments):
    """The layout of ids, as a caller builds it; None without ids."""
    if segments is None and key_segments is None:
        return None
    return T.AttentionLayout(segments, key_segments)


def attention(q, k, v, n_heads, segments=None, key_segments=None):
    """The core `T._attention`, that `attention_sublayer` runs forward and
    backward, recorded as a tape op of its own so q, k and v can be traced."""
    layout = layout_of(segments, key_segments)
    data, back = T._attention(q.data, k.data, v.data, n_heads, layout)
    out = T.Tensor(data)
    if T._traced(q, k, v):

        def backfn(g):
            for t, gt in zip((q, k, v), back(g)):
                T._acc(t, gt)

        T._TAPE.add(out, backfn)
    return out


def qkv(rng, m, n, d, scale=1.0):
    return [rng.normal(scale=scale, size=shape) for shape in ((m, d), (n, d), (n, d))]


def test_row_softmax_uniform():
    for shape, axis in (((1, 4), 1), ((4, 1), 0)):
        ce = T.cross_entropy(T.constant(np.zeros(shape)), [[2]], axis=axis)
        assert abs(ce.item() - math.log(4)) <= 1e-15
    # zero queries weigh every key alike, so each output row is the mean value row
    _, k, v = qkv(np.random.default_rng(0), 3, 5, 4)
    out = attention(T.constant(np.zeros((3, 4))), T.constant(k), T.constant(v), 2).data
    assert np.allclose(out, np.tile(v.mean(axis=0), (3, 1)), atol=1e-15)


def test_row_softmax_shift_invariance():
    for x, axis in ((np.array([[1.0, 2.0, 3.0]]), 1), (np.array([[1.0], [2.0], [3.0]]), 0)):
        a = T.cross_entropy(T.constant(x), [[1]], axis=axis).item()
        b = T.cross_entropy(T.constant(x + 100.0), [[1]], axis=axis).item()
        assert abs(a - b) <= 1e-12
    # adding one row to every key shifts each logit row by a constant
    q, k, v = qkv(np.random.default_rng(2), 3, 5, 4)
    shifted = k + np.random.default_rng(3).normal(size=(1, 4))
    a = attention(T.constant(q), T.constant(k), T.constant(v), 2).data
    b = attention(T.constant(q), T.constant(shifted), T.constant(v), 2).data
    assert np.allclose(a, b, atol=1e-12)


def test_row_softmax_against_scalar_oracle():
    rng = np.random.default_rng(1)
    x = rng.normal(scale=3.0, size=(1, 7))
    for logits, axis in ((x, 1), (x.T, 0)):
        for t in range(7):
            want = -math.log(softmax_oracle(list(x[0]))[t])
            got = T.cross_entropy(T.constant(logits), [[t]], axis=axis).item()
            assert abs(got - want) <= 1e-12


@pytest.mark.parametrize("n_heads", [1, 2, 4])
def test_attention_matches_per_head_oracle(n_heads):
    q, k, v = qkv(np.random.default_rng(n_heads), 3, 5, 8, scale=2.0)
    got = attention(T.constant(q), T.constant(k), T.constant(v), n_heads).data
    assert np.abs(got - attention_oracle(q, k, v, n_heads)).max() <= 1e-12


def test_row_softmax_rejects_nan():
    with pytest.raises(NumericError):
        T.cross_entropy(T.constant([[0.0, float("nan")]]), [[0]], axis=1)
    q, k, v = qkv(np.random.default_rng(4), 2, 3, 4)
    for bad in (float("nan"), float("inf")):
        k[1, 2] = bad
        with pytest.raises(NumericError):
            attention(T.constant(q), T.constant(k), T.constant(v), 2)


@settings(max_examples=50, deadline=None)
@given(
    st.integers(1, 5),
    st.integers(1, 6),
    st.integers(0, 2**31 - 1),
)
def test_row_softmax_rows_sum_to_one(m, n, seed):
    # with all-ones values every output entry is a sum of one head's weights
    q, k, _ = qkv(np.random.default_rng(seed), m, n, 4, scale=20.0)
    out = attention(T.constant(q), T.constant(k), T.constant(np.ones((n, 4))), 2).data
    assert np.all(np.abs(out - 1.0) <= 1e-12)


def test_attention_shape_errors():
    q, k, v = (T.constant(a) for a in qkv(np.random.default_rng(5), 2, 3, 4))
    with pytest.raises(ShapeError):
        attention(q, T.constant(np.ones((3, 6))), v, 2)
    with pytest.raises(ShapeError):
        attention(q, k, T.constant(np.ones((2, 4))), 2)
    with pytest.raises(ShapeError):
        attention(q, k, v, 3)


# Segments of 4, 1 and 3 rows; a segment's rows need not be adjacent.
SEGMENTS = [0, 0, 2, 0, 1, 2, 2, 0]

# Values of the pad threshold that make every segmented call dense or padded.
LAYOUTS = {"dense": math.inf, "padded": -math.inf}


def each_layout():
    """Run the loop body once in each attention layout."""
    for name, saving in LAYOUTS.items():
        with mock.patch.object(T, "_PAD_SAVING", saving):
            yield name


@pytest.mark.parametrize("n_heads", [1, 2, 4])
def test_segmented_attention_equals_each_segment_alone(n_heads):
    q, k, v = qkv(np.random.default_rng(20 + n_heads), 8, 8, 8, scale=2.0)
    # logits against key 4 dwarf all others; shifting a row by a maximum
    # taken outside its segment would underflow all of its weights to 0
    k[4] *= 1e3
    seg = np.array(SEGMENTS)
    for _ in each_layout():
        got = attention(T.constant(q), T.constant(k), T.constant(v), n_heads, SEGMENTS).data
        for s in set(SEGMENTS):
            rows = seg == s
            alone = attention(*(T.constant(a[rows]) for a in (q, k, v)), n_heads).data
            assert np.abs(got[rows] - alone).max() <= 1e-12


@pytest.mark.parametrize("n_heads", [1, 2, 4])
def test_segmented_attention_grad_check(n_heads):
    rng = np.random.default_rng(30 + n_heads)
    params = dict(zip("qkv", qkv(rng, 8, 8, 8)))
    weights = T.constant(rng.normal(size=(8, 8)))

    def forward(p):
        out = attention(p["q"], p["k"], p["v"], n_heads, SEGMENTS)
        return T.mean_all(T.mul(out, weights))

    for layout in each_layout():
        report = T.grad_check(forward, params)
        assert report.checked == 3 * 64
        assert report.ok(1e-6), (layout, report.max_rel_err, report.worst_param)


def test_segmented_attention_errors():
    q, k, v = (T.constant(a) for a in qkv(np.random.default_rng(6), 3, 3, 4))
    for bad in ([0, 0], [0, 1, 1, 1]):
        with pytest.raises(ShapeError):
            attention(q, k, v, 2, bad)
    # segments mean self-attention: queries and keys must share their rows
    k5, v5 = (T.constant(np.ones((5, 4))) for _ in range(2))
    with pytest.raises(ShapeError):
        attention(q, k5, v5, 2, [0, 0, 1])
    # two or more segments take integer ids in [0, q rows + k rows)
    for bad in ([0, 0, 6], [-1, 0, 0], [0.0, 0.0, 1.0]):
        with pytest.raises(ContractError, match="segment ids"):
            attention(q, k, v, 2, bad)
    for _ in each_layout():
        # the finiteness check reads the raw logits, masked or not
        bad_k = k.data.copy()
        bad_k[2, 0] = float("nan")
        with pytest.raises(NumericError):
            attention(q, T.constant(bad_k), v, 2, [0, 0, 1])


@pytest.mark.parametrize(
    "ids, key_ids",
    [(np.zeros(3), None), ([True, True], None), (["a", "a"], None), (["a", "b"], None),
     ([0, 0], [0.0, 0.0]), ([0, 0], [False])],
    ids=["float", "bool", "str-one", "str-two", "float-keys", "bool-keys"],
)
def test_layout_refuses_ids_that_are_not_integers_even_in_one_segment(ids, key_ids):
    """The id type is checked before the shortcut for one shared id."""
    with pytest.raises(ContractError, match="segment ids must be integers"):
        T.AttentionLayout(ids, key_ids)


# Queries and keys of one call in different segments: 5 query rows against 7
# key rows, segments interleaved, query segment 2 with a single key.
QUERY_SEGMENTS = [1, 0, 2, 1, 0]
KEY_SEGMENTS = [0, 1, 1, 0, 2, 0, 1]


def cross_segment_qkv(rng):
    q, k, v = qkv(rng, 5, 7, 8, scale=2.0)
    # key 0 (segment 0) dwarfs every logit; a query of another segment
    # shifted by that maximum would underflow all of its weights to 0
    k[0] *= 1e3
    return q, k, v


@pytest.mark.parametrize("n_heads", [1, 2, 4])
def test_cross_segment_attention_equals_each_segment_alone(n_heads):
    q, k, v = cross_segment_qkv(np.random.default_rng(40 + n_heads))
    qs, ks = np.array(QUERY_SEGMENTS), np.array(KEY_SEGMENTS)
    for _ in each_layout():
        got = attention(
            T.constant(q), T.constant(k), T.constant(v), n_heads, QUERY_SEGMENTS, KEY_SEGMENTS
        ).data
        for s in set(QUERY_SEGMENTS):
            alone = attention_oracle(q[qs == s], k[ks == s], v[ks == s], n_heads)
            assert np.abs(got[qs == s] - alone).max() <= 1e-12


@pytest.mark.parametrize("n_heads", [1, 2, 4])
def test_cross_segment_attention_grad_check(n_heads):
    rng = np.random.default_rng(50 + n_heads)
    params = dict(zip("qkv", cross_segment_qkv(rng)))
    params["k"][0] /= 1e3  # finite differences need logits of moderate size
    weights = T.constant(rng.normal(size=(5, 8)))

    def forward(p):
        out = attention(p["q"], p["k"], p["v"], n_heads, QUERY_SEGMENTS, KEY_SEGMENTS)
        return T.mean_all(T.mul(out, weights))

    for layout in each_layout():
        report = T.grad_check(forward, params)
        assert report.checked == 5 * 8 + 2 * 7 * 8
        assert report.ok(1e-6), (layout, report.max_rel_err, report.worst_param)


def test_cross_segment_attention_errors():
    q, k, v = (T.constant(a) for a in qkv(np.random.default_rng(7), 3, 4, 4))
    with pytest.raises(ContractError):
        attention(q, k, v, 2, None, [0, 0, 1, 1])  # key ids alone
    for qs, ks in (([0, 1], [0, 0, 1, 1]), ([0, 1, 1], [0, 1, 1]), ([0, 1, 1], [0, 1, 1, 1, 0])):
        with pytest.raises(ShapeError):
            attention(q, k, v, 2, qs, ks)
    for _ in each_layout():
        with pytest.raises(ContractError, match="no keys"):
            attention(q, k, v, 2, [0, 1, 2], [0, 1, 1, 0])
        with pytest.raises(ContractError, match="no keys"):
            attention(q, k, v, 2, [1, 1, 1], [0, 0, 0, 0])
        # the finiteness check reads the raw logits, masked or not
        bad_k = k.data.copy()
        bad_k[3, 1] = float("inf")
        with pytest.raises(NumericError):
            attention(q, T.constant(bad_k), v, 2, [0, 0, 1], [0, 1, 1, 0])


def test_attention_with_one_shared_segment_builds_no_mask(monkeypatch):
    q, k, v = (T.constant(a) for a in qkv(np.random.default_rng(8), 3, 4, 4))
    seen = []
    real = T._finite_shift

    def spy(x, op, keep=None):
        seen.append(keep)
        return real(x, op, keep)

    monkeypatch.setattr(T, "_finite_shift", spy)
    plain = attention(q, k, v, 2).data
    shared = attention(q, k, v, 2, [4, 4, 4], [4, 4, 4, 4]).data
    attention(q, k, v, 2, [0, 0, 1], [0, 1, 1, 0])
    assert np.array_equal(plain, shared)
    assert seen[0] is None and seen[1] is None and seen[2] is not None


def test_attention_pads_only_when_that_skips_enough_logits(monkeypatch):
    shapes = []
    real = T._finite_shift

    def spy(x, op, keep=None):
        shapes.append((x.shape, None if keep is None else keep.shape))
        return real(x, op, keep)

    monkeypatch.setattr(T, "_finite_shift", spy)
    # 8 rows in 3 segments: padding would skip few logits, so one dense mask
    q, k, v = (T.constant(a) for a in qkv(np.random.default_rng(10), 8, 8, 4))
    attention(q, k, v, 2, SEGMENTS)
    assert shapes.pop() == ((1, 2, 8, 8), (8, 8))
    # 16 segments of 3 queries against 2 to 4 keys, interleaved: one
    # (segments, heads, 3, 4) stack instead of 48 x 49 logits a head
    rng = np.random.default_rng(9)
    qs = rng.permutation(np.repeat(np.arange(16), 3))
    ks = rng.permutation(np.repeat(np.arange(16), [2, 3, 4, 3] * 4))
    q, k, v = (T.leaf(a) for a in qkv(rng, qs.size, ks.size, 4))
    out = attention(q, k, v, 2, qs, ks)
    assert shapes.pop() == ((16, 2, 3, 4), (16, 1, 1, 4))
    for s in range(16):
        alone = attention_oracle(q.data[qs == s], k.data[ks == s], v.data[ks == s], 2)
        assert np.abs(out.data[qs == s] - alone).max() <= 1e-12
    # ids 16 and 17 name no row and id 18 only a key: that key is never
    # read and gets no gradient, and the empty segments make no NaN
    orphan = T.leaf(np.vstack([k.data, rng.normal(size=(1, 4))]))
    v5 = T.leaf(np.vstack([v.data, rng.normal(size=(1, 4))]))
    with np.errstate(invalid="raise"):
        again = attention(q, orphan, v5, 2, qs, np.append(ks, 18))
        assert shapes.pop() == ((19, 2, 3, 4), (19, 1, 1, 4))
        weights = T.constant(rng.normal(size=out.shape))
        grads = T.backward(T.mean_all(T.mul(again, weights)), dict(k=orphan, v=v5))
    assert np.array_equal(again.data, out.data)
    assert not grads["k"][-1].any() and not grads["v"][-1].any()


def attention_einsum_reference(q, k, v, n_heads, segments, g):
    """The (rows, heads, dh) einsum form of attention and its closed-form
    backward: output and the gradients of q, k, v for upstream gradient g."""
    (m, d), n = q.shape, k.shape[0]
    dh = d // n_heads
    c = dh**-0.5
    qh, kh, vh = (a.reshape(-1, n_heads, dh) for a in (q, k, v))
    logits = np.einsum("ihd,jhd->hij", qh, kh) * c
    if segments is not None:
        seg = np.asarray(segments)
        logits = np.where(seg[:, None] == seg[None, :], logits, -np.inf)
    w = np.exp(logits - logits.max(axis=2, keepdims=True))
    w /= w.sum(axis=2, keepdims=True)
    out = np.einsum("hij,jhd->ihd", w, vh).reshape(m, d)
    gh = g.reshape(m, n_heads, dh)
    gw = np.einsum("ihd,jhd->hij", gh, vh)
    gs = w * (gw - (gw * w).sum(axis=2, keepdims=True)) * c
    dq = np.einsum("hij,jhd->ihd", gs, kh).reshape(m, d)
    dk = np.einsum("hij,ihd->jhd", gs, qh).reshape(n, d)
    dv = np.einsum("hij,ihd->jhd", w, gh).reshape(n, d)
    return out, dq, dk, dv


def upstream(out_shape, rng):
    """A weighting whose mean-of-product loss sends gradient g to the op;
    g is built with the engine's own arithmetic, so it matches bit for bit."""
    weights = rng.normal(size=out_shape)
    g = np.full_like(weights, 1.0 / weights.size) * weights
    return T.constant(weights), g


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from([1, 2, 4]),
    st.integers(1, 3),
    st.integers(1, 6),
    st.integers(1, 6),
    st.booleans(),
    st.integers(0, 2**31 - 1),
    st.sampled_from(sorted(LAYOUTS)),
)
def test_attention_matches_einsum_reference(n_heads, dh, m, n, segmented, seed, layout):
    rng = np.random.default_rng(seed)
    # segments mean self-attention, so those cases share their row count
    m = n if segmented else m
    segments = rng.integers(0, 3, size=n) if segmented else None
    q, k, v = (T.leaf(a) for a in qkv(rng, m, n, n_heads * dh, scale=2.0))
    with mock.patch.object(T, "_PAD_SAVING", LAYOUTS[layout]):
        out = attention(q, k, v, n_heads, segments)
    weights, g = upstream(out.shape, rng)
    got = [out.data, *T.backward(T.mean_all(T.mul(out, weights)), dict(q=q, k=k, v=v)).values()]
    want = attention_einsum_reference(q.data, k.data, v.data, n_heads, segments, g)
    for a, b in zip(got, want):
        assert np.abs(a - b).max() <= 1e-12


def layer_norm_reference(x, gain, bias, g):
    """np.mean/np.var layer norm and its backward for upstream gradient g."""
    inv = 1.0 / np.sqrt(x.var(axis=1, keepdims=True) + T.LAYER_NORM_EPS)
    xhat = (x - x.mean(axis=1, keepdims=True)) * inv
    gy = g * gain
    dx = inv * (
        gy - gy.mean(axis=1, keepdims=True) - xhat * (gy * xhat).mean(axis=1, keepdims=True)
    )
    dgain = (g * xhat).sum(axis=0, keepdims=True)
    return xhat * gain + bias, dx, dgain, g.sum(axis=0, keepdims=True)


@settings(max_examples=60, deadline=None)
@given(
    st.integers(1, 6),
    st.integers(1, 40),
    st.floats(1e-3, 1e3),
    st.integers(0, 2**31 - 1),
)
def test_layer_norm_equals_mean_var_reference(m, n, spread, seed):
    rng = np.random.default_rng(seed)
    x = T.leaf(rng.normal(loc=rng.normal(), scale=spread, size=(m, n)))
    gain, bias = (T.leaf(rng.normal(size=(1, n))) for _ in range(2))
    out = T.layer_norm(x, gain, bias)
    weights, g = upstream(out.shape, rng)
    grads = T.backward(T.mean_all(T.mul(out, weights)), dict(x=x, gain=gain, bias=bias))
    want = layer_norm_reference(x.data, gain.data, bias.data, g)
    for a, b in zip([out.data, *grads.values()], want):
        assert np.array_equal(a, b)


def test_cross_entropy_rejects_bad_target_and_shape():
    for logits, axis in ((T.constant(np.zeros((1, 3))), 1), (T.constant(np.zeros((3, 1))), 0)):
        for target in (-1, 3):
            with pytest.raises(ContractError):
                T.cross_entropy(logits, [[target]], axis=axis)


def test_layer_norm_two_values():
    out = T.layer_norm(
        T.constant([[1.0, -1.0]]), T.constant([[1.0, 1.0]]), T.constant([[0.0, 0.0]])
    ).data
    assert abs(abs(out[0, 0]) - 1.0) <= 1e-3
    assert abs(abs(out[0, 1]) - 1.0) <= 1e-3
    assert out[0, 0] > 0 and out[0, 1] < 0


def test_layer_norm_constant_row_maps_to_bias():
    out = T.layer_norm(
        T.constant([[5.0, 5.0, 5.0]]),
        T.constant([[2.0, 2.0, 2.0]]),
        T.constant([[1.0, -1.0, 0.0]]),
    ).data
    assert np.allclose(out, [[1.0, -1.0, 0.0]], atol=1e-9)


def test_relu_and_friends():
    x = T.constant([[-1.0, 0.0, 2.0]])
    assert np.array_equal(T.relu(x).data, [[0.0, 0.0, 2.0]])
    assert np.array_equal(T.mul(x, x).data, [[1.0, 0.0, 4.0]])
    y = T.constant([[1.0, 1.0, 1.0]])
    assert np.array_equal(T.add(x, y).data, [[0.0, 1.0, 3.0]])
    assert np.array_equal(T.mul(x, y).data, x.data)


def test_softplus_at_zero_is_log2():
    assert abs(T.softplus(T.constant([[0.0]])).item() - math.log(2.0)) <= 1e-15


def test_softplus_large_inputs_finite():
    out = T.softplus(T.constant([[-1000.0, 1000.0]])).data
    assert np.isfinite(out).all()
    assert out[0, 0] == 0.0
    assert abs(out[0, 1] - 1000.0) <= 1e-9


# Each shape of b that add and mul accept for an a of shape (3, 4).
BROADCASTS = pytest.mark.parametrize(
    "op, b_shape",
    [("add", (3, 4)), ("add", (1, 4)), ("mul", (3, 4)), ("mul", (3, 1)), ("mul", (1, 1))],
    ids=["add-same", "add-row", "mul-same", "mul-column", "mul-1x1"],
)


@BROADCASTS
def test_add_and_mul_match_scalar_oracle(op, b_shape):
    rng = np.random.default_rng(12)
    a, b = rng.normal(size=(3, 4)), rng.normal(size=b_shape)
    f = (lambda x, y: x + y) if op == "add" else (lambda x, y: x * y)
    want = [[f(a[i, j], b[i % b_shape[0], j % b_shape[1]]) for j in range(4)] for i in range(3)]
    out = getattr(T, op)(T.constant(a), T.constant(b))
    assert np.array_equal(out.data, want)


@pytest.mark.parametrize(
    "op, b_shape",
    [
        ("add", (1, 3)),
        ("add", (3, 1)),
        ("add", (2, 4)),
        ("add", (1, 1)),
        ("mul", (2, 1)),
        ("mul", (4, 1)),  # a mask column with one entry too many
        ("mul", (1, 4)),
        ("mul", (3, 2)),
        ("mul", (1, 3)),
    ],
    ids=lambda v: v if isinstance(v, str) else f"{v[0]}x{v[1]}",
)
def test_add_and_mul_refuse_a_b_that_does_not_fit(op, b_shape):
    with pytest.raises(ShapeError):
        getattr(T, op)(T.constant(np.zeros((3, 4))), T.constant(np.ones(b_shape)))


@BROADCASTS
def test_add_and_mul_grad_check_with_b_traced(op, b_shape):
    rng = np.random.default_rng(13)
    params = {"x": rng.normal(size=(3, 4)), "b": rng.normal(size=b_shape)}
    weights = T.constant(rng.normal(size=(3, 4)))
    report = T.grad_check(
        lambda p: T.mean_all(T.mul(getattr(T, op)(p["x"], p["b"]), weights)), params
    )
    assert report.checked == 12 + params["b"].size
    assert report.ok(1e-6), (report.max_rel_err, report.worst_param)


@pytest.mark.parametrize("axis", [0, 1])
def test_concat_stacks_along_either_axis(axis):
    a = np.arange(6.0).reshape(2, 3)
    b = np.arange(12.0).reshape(4, 3) if axis == 0 else np.ones((2, 4))
    out = T.concat(T.constant(a), T.constant(b), axis=axis)
    assert np.array_equal(out.data, np.vstack([a, b]) if axis == 0 else np.hstack([a, b]))
    with pytest.raises(ShapeError):
        T.concat(T.constant(a), T.constant(b.T), axis=axis)


def test_concat_refuses_no_parts_and_a_third_axis():
    with pytest.raises(ContractError):
        T.concat()
    with pytest.raises(ContractError):
        T.concat(T.constant([[1.0]]), axis=2)


@pytest.mark.parametrize("axis", [0, 1])
def test_concat_grad_check(axis):
    rng = np.random.default_rng(14)
    params = {"a": rng.normal(size=(2, 3)), "b": rng.normal(size=(1, 3) if axis == 0 else (2, 4))}
    weights = T.constant(rng.normal(size=(3, 3) if axis == 0 else (2, 7)))
    report = T.grad_check(
        lambda p: T.mean_all(T.mul(T.concat(p["a"], p["b"], axis=axis), weights)), params
    )
    assert report.checked == 6 + params["b"].size
    assert report.ok(1e-6), (report.max_rel_err, report.worst_param)


def test_concat_and_slice():
    a = T.constant(np.arange(6.0).reshape(2, 3))
    b = T.constant(np.arange(9.0).reshape(3, 3))
    c = T.concat(a, b)
    assert c.shape == (5, 3)
    assert np.array_equal(T.slice_rows(c, 2, 5).data, b.data)


def test_mean_rows_and_reductions():
    x = T.constant([[1.0, 3.0], [3.0, 5.0]])
    assert T.mean_all(x).item() == 3.0


def test_take_rows():
    table = T.constant(np.arange(6.0).reshape(3, 2))
    assert np.array_equal(T.take_rows(table, [2, 0, 2]).data, [[4.0, 5.0], [0.0, 1.0], [4.0, 5.0]])
    with pytest.raises(ContractError):
        T.take_rows(table, [3, 0])
    with pytest.raises(ContractError):
        T.take_rows(table, [])


def test_max_rows_per_block():
    x = T.constant([[1.0, 5.0], [2.0, 4.0], [9.0, 0.0], [8.0, 1.0]])
    out = T.max_rows_per_block(x, 2)
    assert np.array_equal(out.data, [[2.0, 5.0], [9.0, 1.0]])
    with pytest.raises(ShapeError):
        T.max_rows_per_block(x, 3)


# ---------------------------------------------------------------------------
# fused ops: one tape node for a chain of the ops above

SUBLAYER_PARAMS = ("wq", "bq", "wk", "wv", "bv", "wo", "bo", "g", "b")


def sublayer_params(rng, d):
    """d x d weights; 1 x d biases, gain (near 1) and norm bias."""
    p = {
        name: rng.normal(scale=d**-0.5, size=(d, d) if name[0] == "w" else (1, d))
        for name in SUBLAYER_PARAMS
    }
    p["g"] += 1.0
    return p


def sublayer_chain(x, kv, p, n_heads, segments=None, key_segments=None):
    """The composed ops that `attention_sublayer` replaces, in their order."""
    q = T.add(T.matmul(x, p["wq"]), p["bq"])
    k = T.matmul(kv, p["wk"])
    v = T.add(T.matmul(kv, p["wv"]), p["bv"])
    heads = attention(q, k, v, n_heads, segments, key_segments)
    heads = T.add(T.matmul(heads, p["wo"]), p["bo"])
    return T.layer_norm(T.add(x, heads), p["g"], p["b"])


def sublayer_op(x, kv, p, n_heads, segments=None, key_segments=None):
    params = (p[name] for name in SUBLAYER_PARAMS)
    return T.attention_sublayer(x, kv, *params, n_heads, layout_of(segments, key_segments))


def mlp2_chain(x, w1, b1, w2, b2):
    """The composed ops that `mlp2` replaces, in their order."""
    return T.add(T.matmul(T.relu(T.add(T.matmul(x, w1), b1)), w2), b2)


def sublayer_rows(layout, shared, rng):
    """(query rows, key rows, query ids, key ids) of one test layout.

    "none" passes no ids; "dense" ids mask one logit matrix; "padded" packs
    16 segments, so padding skips more than `_PAD_SAVING` logits a head
    and the op pads without a patched threshold.
    """
    if layout == "none":
        return (5, 5, None, None) if shared else (3, 5, None, None)
    if layout == "dense":
        if shared:
            return len(SEGMENTS), len(SEGMENTS), SEGMENTS, None
        return len(QUERY_SEGMENTS), len(KEY_SEGMENTS), QUERY_SEGMENTS, KEY_SEGMENTS
    if shared:
        ids = rng.permutation(np.repeat(np.arange(16), 4))
        return ids.size, ids.size, ids, None
    qs = rng.permutation(np.repeat(np.arange(16), 3))
    ks = rng.permutation(np.repeat(np.arange(16), [2, 3, 4, 3] * 4))
    return qs.size, ks.size, qs, ks


@pytest.mark.parametrize("shared", [True, False], ids=["self", "cross"])
@pytest.mark.parametrize("layout", ["none", "dense", "padded"])
def test_attention_sublayer_equals_the_chain_bit_for_bit(layout, shared, monkeypatch):
    rng = np.random.default_rng(60)
    m, n, qs, ks = sublayer_rows(layout, shared, rng)
    d, n_heads = 8, 2
    arrays = {"x": rng.normal(size=(m, d)), **sublayer_params(rng, d)}
    if not shared:
        arrays["kv"] = rng.normal(size=(n, d))
    weights = T.constant(rng.normal(size=(m, d)))
    masks = []
    real = T._finite_shift

    def spy(x, op, keep=None):
        masks.append(None if keep is None else keep.ndim)
        return real(x, op, keep)

    monkeypatch.setattr(T, "_finite_shift", spy)
    results = []
    for build in (sublayer_chain, sublayer_op):
        leaves = {name: T.leaf(a) for name, a in arrays.items()}
        # x and kv are op outputs, as in the model, and one tensor in self-attention
        x = T.mul(leaves["x"], T.constant(1.5))
        kv = x if shared else T.mul(leaves["kv"], T.constant(0.5))
        out = build(x, kv, leaves, n_heads, qs, ks)
        grads = T.backward(T.mean_all(T.mul(out, weights)), leaves)
        results.append((out.data, grads))
    (want, want_grads), (got, got_grads) = results
    assert masks == [{"none": None, "dense": 2, "padded": 4}[layout]] * 2
    assert np.array_equal(got, want)
    for name, g in want_grads.items():
        assert np.array_equal(got_grads[name], g), name


def test_mlp2_equals_the_chain_bit_for_bit():
    rng = np.random.default_rng(61)
    arrays = {
        "x": rng.normal(size=(6, 5)),
        "w1": rng.normal(size=(5, 7)),
        "b1": rng.normal(size=(1, 7)),
        "w2": rng.normal(size=(7, 3)),
        "b2": rng.normal(size=(1, 3)),
    }
    weights = T.constant(rng.normal(size=(6, 3)))
    results = []
    for build in (mlp2_chain, T.mlp2):
        leaves = {name: T.leaf(a) for name, a in arrays.items()}
        x = T.mul(leaves["x"], T.constant(1.5))  # an op's output, not a leaf
        out = build(x, leaves["w1"], leaves["b1"], leaves["w2"], leaves["b2"])
        grads = T.backward(T.mean_all(T.mul(out, weights)), leaves)
        results.append((out.data, grads))
    (want, want_grads), (got, got_grads) = results
    assert (got > 0).any() and (got < 0).any()
    assert np.array_equal(got, want)
    for name, g in want_grads.items():
        assert np.array_equal(got_grads[name], g), name


def test_mlp2_on_a_constant_input_equals_the_chain_and_gives_it_no_gradient():
    """As the object encoder's point rows: the input-gradient product is
    skipped, and every parameter's gradient keeps its bits."""
    rng = np.random.default_rng(62)
    x = T.constant(rng.normal(size=(6, 5)))
    shapes = {"w1": (5, 7), "b1": (1, 7), "w2": (7, 3), "b2": (1, 3)}
    arrays = {name: rng.normal(size=shape) for name, shape in shapes.items()}
    weights = T.constant(rng.normal(size=(6, 3)))
    results = []
    for build in (mlp2_chain, T.mlp2):
        leaves = {name: T.leaf(a) for name, a in arrays.items()}
        out = build(x, *leaves.values())
        results.append((out.data, T.backward(T.mean_all(T.mul(out, weights)), leaves)))
        assert x.grad is None
    (want, want_grads), (got, got_grads) = results
    assert np.array_equal(got, want)
    for name, g in want_grads.items():
        assert np.array_equal(got_grads[name], g), name


def operand_writes(build, operands):
    """Run `build` on leaves of `operands` forward and backward; return the
    names of operands whose data changed, and those that share memory with
    the output or with any gradient."""
    before = {name: a.copy() for name, a in operands.items()}
    leaves = {name: T.leaf(a) for name, a in operands.items()}
    out = build(leaves)
    weights = T.constant(np.random.default_rng(67).normal(size=out.shape))
    T.backward(T.mean_all(T.mul(out, weights)))
    changed = [name for name, t in leaves.items() if not np.array_equal(t.data, before[name])]
    produced = [out.data, *(t.grad for t in leaves.values())]
    shared = [
        name for name, t in leaves.items() if any(np.shares_memory(t.data, a) for a in produced)
    ]
    return changed, shared


@pytest.mark.parametrize("shared", [True, False], ids=["self", "cross"])
@pytest.mark.parametrize("layout", ["none", "dense", "padded"])
def test_attention_sublayer_writes_into_no_operand(layout, shared):
    rng = np.random.default_rng(68)
    m, n, qs, ks = sublayer_rows(layout, shared, rng)
    operands = {"x": rng.normal(size=(m, 8)), **sublayer_params(rng, 8)}
    if not shared:
        operands["kv"] = rng.normal(size=(n, 8))

    def build(p):
        return sublayer_op(p["x"], p["x"] if shared else p["kv"], p, 2, qs, ks)

    assert operand_writes(build, operands) == ([], [])


def test_mlp2_and_layer_norm_write_into_no_operand():
    rng = np.random.default_rng(69)
    shapes = {"x": (6, 5), "w1": (5, 7), "b1": (1, 7), "w2": (7, 3), "b2": (1, 3)}
    operands = {name: rng.normal(size=shape) for name, shape in shapes.items()}
    assert operand_writes(lambda p: T.mlp2(*p.values()), operands) == ([], [])
    shapes = {"x": (4, 6), "g": (1, 6), "b": (1, 6)}
    operands = {name: rng.normal(size=shape) for name, shape in shapes.items()}
    assert operand_writes(lambda p: T.layer_norm(p["x"], p["g"], p["b"]), operands) == ([], [])


@pytest.mark.parametrize("segmented", [False, True], ids=["plain", "segmented"])
def test_attention_sublayer_grad_check(segmented):
    rng = np.random.default_rng(63)
    qs, ks = (QUERY_SEGMENTS, KEY_SEGMENTS) if segmented else (None, None)
    params = {"x": rng.normal(size=(5, 4)), "kv": rng.normal(size=(7, 4))}
    params.update(sublayer_params(rng, 4))
    weights = T.constant(rng.normal(size=(5, 4)))

    def forward(p):
        return T.mean_all(T.mul(sublayer_op(p["x"], p["kv"], p, 2, qs, ks), weights))

    for layout in each_layout() if segmented else ["none"]:
        report = T.grad_check(forward, params)
        assert report.checked == 5 * 4 + 7 * 4 + 4 * 16 + 5 * 4
        assert report.ok(1e-6), (layout, report.max_rel_err, report.worst_param)


def test_mlp2_grad_check():
    rng = np.random.default_rng(64)
    shapes = {"x": (4, 3), "w1": (3, 5), "b1": (1, 5), "w2": (5, 2), "b2": (1, 2)}
    params = {name: rng.normal(size=shape) for name, shape in shapes.items()}
    weights = T.constant(rng.normal(size=(4, 2)))

    def forward(p):
        return T.mean_all(T.mul(T.mlp2(p["x"], p["w1"], p["b1"], p["w2"], p["b2"]), weights))

    report = T.grad_check(forward, params)
    assert report.checked == 12 + 15 + 5 + 10 + 2
    assert report.ok(1e-6), (report.max_rel_err, report.worst_param)


@pytest.mark.parametrize("wrap", [T.constant, T.leaf], ids=["constant", "leaf"])
def test_attention_sublayer_refuses_what_the_chain_refused(wrap):
    """Every check runs whether or not anything is traced."""
    rng = np.random.default_rng(65)
    x = wrap(rng.normal(size=(3, 4)))
    p = {name: wrap(a) for name, a in sublayer_params(rng, 4).items()}
    for name, shape in [
        ("bq", (3, 4)), ("bv", (1, 5)), ("bo", (4, 4)), ("g", (1, 3)), ("b", (2, 4)),
        ("wq", (4, 5)), ("wk", (5, 4)), ("wv", (4, 3)), ("wo", (3, 4)),
    ]:
        with pytest.raises(ShapeError):
            sublayer_op(x, x, {**p, name: wrap(np.ones(shape))}, 2)
    with pytest.raises(ShapeError):
        sublayer_op(x, wrap(np.ones((3, 5))), p, 2)  # kv of another width
    with pytest.raises(ShapeError):
        sublayer_op(x, x, p, 3)  # width 4 in 3 heads
    # the segment-id contracts of attention
    with pytest.raises(ShapeError):
        sublayer_op(x, x, p, 2, [0, 0])
    for bad in ([0, 0, 6], [-1, 0, 0], [0.0, 0.0, 1.0]):
        with pytest.raises(ContractError, match="segment ids"):
            sublayer_op(x, x, p, 2, bad)
    with pytest.raises(ContractError):
        sublayer_op(x, x, p, 2, None, [0, 0, 1])  # key ids alone
    with pytest.raises(ContractError, match="no keys"):
        sublayer_op(x, wrap(np.ones((2, 4))), p, 2, [0, 1, 2], [0, 1])
    # non-finite logits, in each layout
    bad_kv = np.ones((3, 4))
    bad_kv[1, 2] = np.nan
    for segments in (None, [0, 0, 1]):
        for _ in each_layout():
            with pytest.raises(NumericError):
                sublayer_op(x, wrap(bad_kv), p, 2, segments)
    T.reset_tape()


@pytest.mark.parametrize("wrap", [T.constant, T.leaf], ids=["constant", "leaf"])
def test_mlp2_refuses_what_the_chain_refused(wrap):
    rng = np.random.default_rng(66)
    x = wrap(rng.normal(size=(4, 3)))
    shapes = {"w1": (3, 5), "b1": (1, 5), "w2": (5, 2), "b2": (1, 2)}
    p = {name: wrap(rng.normal(size=shape)) for name, shape in shapes.items()}
    bad = [("w1", (2, 5)), ("b1", (4, 5)), ("b1", (1, 4)), ("w2", (4, 2)), ("b2", (1, 3))]
    for name, shape in bad:
        with pytest.raises(ShapeError):
            T.mlp2(x, *{**p, name: wrap(np.ones(shape))}.values())
    T.reset_tape()


# ---------------------------------------------------------------------------
# backward


def test_backward_through_scale_add():
    T.reset_tape()
    w = T.leaf([[3.0]])
    loss = T.mean_all(T.add(T.mul(w, T.constant(2.0)), T.constant([[1.0]])))
    grads = T.backward(loss, {"w": w})
    assert grads["w"][0, 0] == 2.0


def test_backward_requires_scalar():
    T.reset_tape()
    w = T.leaf(np.ones((2, 2)))
    out = T.mul(w, T.constant(2.0))
    with pytest.raises(ContractError):
        T.backward(out)
    T.reset_tape()


def test_unreachable_parameter_gets_zeros():
    T.reset_tape()
    used = T.leaf([[1.0, 2.0]])
    unused = T.leaf([[5.0]])
    loss = T.mean_all(T.mul(used, used))
    grads = T.backward(loss, {"used": used, "unused": unused})
    assert np.array_equal(grads["unused"], [[0.0]])
    assert np.allclose(grads["used"], [[1.0, 2.0]])


def test_fanout_gradients_accumulate():
    T.reset_tape()
    w = T.leaf([[2.0]])
    # loss = w*w + 3w  ->  dloss/dw = 2w + 3 = 7
    loss = T.mean_all(T.add(T.mul(w, w), T.mul(w, T.constant(3.0))))
    grads = T.backward(loss, {"w": w})
    assert abs(grads["w"][0, 0] - 7.0) <= 1e-12


def test_backward_matches_finite_differences_on_mlp():
    rng = np.random.default_rng(7)
    params = {
        "w1": rng.normal(size=(4, 5)) * 0.5,
        "b1": rng.normal(size=(1, 5)) * 0.1,
        "w2": rng.normal(size=(5, 2)) * 0.5,
        "b2": rng.normal(size=(1, 2)) * 0.1,
        "g": np.ones((1, 2)),
        "beta": np.zeros((1, 2)),
    }
    x = rng.normal(size=(3, 4))

    def forward(p):
        h = T.relu(T.add(T.matmul(T.constant(x), p["w1"]), p["b1"]))
        out = T.add(T.matmul(h, p["w2"]), p["b2"])
        out = T.layer_norm(out, p["g"], p["beta"])
        att = attention(out, out, out, 1)
        return T.mean_all(T.mul(att, att))

    T.reset_tape()
    leaves = {k: T.leaf(v) for k, v in params.items()}
    analytic = T.backward(forward(leaves), leaves)

    def loss_value(p):
        return forward({k: T.constant(v) for k, v in p.items()}).item()

    numeric = fd_grads(loss_value, params)
    for name in params:
        assert rel_err(analytic[name], numeric[name]).max() <= 1e-4, name


def test_backward_composition_with_structural_ops():
    rng = np.random.default_rng(11)
    params = {
        "a": rng.normal(size=(3, 4)),
        "b": rng.normal(size=(2, 4)),
        "t": rng.normal(size=(6, 4)),
    }

    def forward(p):
        stacked = T.concat(p["a"], p["b"])
        taken = T.take_rows(p["t"], [0, 5, 2, 2, 1])
        joined = T.concat(stacked, taken)
        pooled = T.max_rows_per_block(joined, 5)
        ce = T.cross_entropy(T.slice_rows(pooled, 1, 2), [[2]], axis=1)
        return T.add(ce, T.mul(T.mean_all(T.softplus(pooled)), T.constant(-1.0)))

    report = T.grad_check(forward, params)
    assert report.ok(1e-4), (report.max_rel_err, report.worst_param)


def test_tape_cleared_after_backward():
    T.reset_tape()
    w = T.leaf([[1.0]])
    T.backward(T.mean_all(T.mul(w, w)))
    from vigor.tensor import _TAPE

    assert len(_TAPE) == 0


def test_leaf_is_traced_but_not_on_the_tape():
    T.reset_tape()
    w = T.leaf([[1.0, -2.0]])
    from vigor.tensor import _TAPE

    assert w.node is not None and len(_TAPE) == 0
    loss = T.mean_all(T.mul(w, w))
    assert len(_TAPE) == 2  # mul and mean_all; the leaf records nothing
    grads = T.backward(loss, {"w": w})
    assert np.array_equal(grads["w"], [[1.0, -2.0]])


def test_constant_only_graph_records_nothing():
    T.reset_tape()
    out = T.matmul(T.constant(np.ones((2, 2))), T.constant(np.ones((2, 2))))
    assert out.node is None
    from vigor.tensor import _TAPE

    assert len(_TAPE) == 0


# ---------------------------------------------------------------------------
# grad_check


def test_grad_check_linear_is_tight():
    rng = np.random.default_rng(3)
    params = {"w": rng.normal(size=(3, 3)), "b": rng.normal(size=(1, 3))}
    x = rng.normal(size=(2, 3))

    def forward(p):
        return T.mean_all(T.add(T.matmul(T.constant(x), p["w"]), p["b"]))

    report = T.grad_check(forward, params)
    assert report.max_rel_err <= 1e-6
    assert report.checked == 12


@pytest.mark.parametrize("n_heads", [1, 2, 4])
def test_attention_grad_check(n_heads):
    rng = np.random.default_rng(10 + n_heads)
    params = dict(zip("qkv", qkv(rng, 3, 5, 8)))
    weights = T.constant(rng.normal(size=(3, 8)))

    def forward(p):
        return T.mean_all(T.mul(attention(p["q"], p["k"], p["v"], n_heads), weights))

    report = T.grad_check(forward, params)
    assert report.checked == 24 + 40 + 40
    assert report.ok(1e-6), (report.max_rel_err, report.worst_param)


@pytest.mark.parametrize("shape", [(5, 1), (1, 5)])
def test_cross_entropy_grad_check(shape):
    params = {"z": np.random.default_rng(12).normal(scale=2.0, size=shape)}
    axis = int(shape[0] == 1)  # along the row or down the column
    report = T.grad_check(lambda p: T.cross_entropy(p["z"], [[3]], axis=axis), params)
    assert report.checked == 5
    assert report.ok(1e-6), (report.max_rel_err, report.worst_param)


# Rows of three segments of sizes 3, 1 and 2, interleaved.
CE_SEGMENTS = [2, 0, 0, 1, 2, 0]
CE_TARGETS = [[2, 0], [0, 0], [1, 0]]  # per segment and column, within the segment


def ce_segment_oracle(x, segments, targets):
    """Sum over segments and columns of -log softmax(that segment's rows)[target]."""
    seg = np.asarray(segments)
    total = 0.0
    for s, row in enumerate(targets):
        for j, t in enumerate(row):
            column = [float(v) for v in x[seg == s, j]]
            total += -math.log(softmax_oracle(column)[t])
    return total


def test_segmented_cross_entropy_matches_oracle():
    x = np.random.default_rng(13).normal(scale=3.0, size=(6, 2))
    want = ce_segment_oracle(x, CE_SEGMENTS, CE_TARGETS)
    column = T.cross_entropy(T.constant(x), CE_TARGETS, CE_SEGMENTS)
    row = T.cross_entropy(T.constant(x.T), np.array(CE_TARGETS).T, CE_SEGMENTS, axis=1)
    assert abs(column.item() - want) <= 1e-12
    assert abs(row.item() - want) <= 1e-12
    # without segments every line is one softmax group
    whole = T.cross_entropy(T.constant(x), [[4, 1]]).item()
    assert abs(whole - ce_segment_oracle(x, [0] * 6, [[4, 1]])) <= 1e-12


@pytest.mark.parametrize("axis", [0, 1])
def test_segmented_cross_entropy_grad_check(axis):
    x = np.random.default_rng(14).normal(scale=2.0, size=(6, 2))
    params = {"z": x if axis == 0 else x.T.copy()}
    targets = CE_TARGETS if axis == 0 else np.array(CE_TARGETS).T

    def forward(p):
        return T.cross_entropy(p["z"], targets, CE_SEGMENTS, axis=axis)

    report = T.grad_check(forward, params)
    assert report.checked == 12
    assert report.ok(1e-6), (report.max_rel_err, report.worst_param)


def test_segmented_cross_entropy_errors():
    z = T.constant(np.zeros((6, 2)))
    bad_shape = [
        ([0, 1, 2], CE_SEGMENTS, 0),  # targets not 2-D
        ([[0, 0, 0]] * 3, CE_SEGMENTS, 0),  # three columns for two
        ([[0.0, 0.0]] * 3, CE_SEGMENTS, 0),  # float targets
        (CE_TARGETS, CE_SEGMENTS[:5], 0),  # one id short
        (CE_TARGETS, CE_SEGMENTS, 1),  # row form needs one id per column
    ]
    for targets, segments, axis in bad_shape:
        with pytest.raises(ShapeError):
            T.cross_entropy(z, targets, segments, axis=axis)
    bad_contract = [
        ([[0, 0]] * 3, [0, 0, 1, 1, 3, 3], 0),  # id 3 with three segments
        ([[0, 0]] * 3, [0, 0, 2, 2, 2, 0], 0),  # segment 1 is empty
        (CE_TARGETS, [2, 0, 0, 1, 2, 0], 2),  # no axis 2
        ([[2, 0], [1, 0], [1, 0]], CE_SEGMENTS, 0),  # segment 1 has one row
        ([[2, 0], [0, 0], [-1, 0]], CE_SEGMENTS, 0),
    ]
    for targets, segments, axis in bad_contract:
        with pytest.raises(ContractError):
            T.cross_entropy(z, targets, segments, axis=axis)
    nan = np.zeros((6, 2))
    nan[3, 1] = float("nan")
    with pytest.raises(NumericError):
        T.cross_entropy(T.constant(nan), CE_TARGETS, CE_SEGMENTS)


def test_grad_check_empty_params():
    report = T.grad_check(lambda p: T.constant([[1.0]]), {})
    assert report.max_rel_err == 0.0
    assert report.worst_param is None
    assert report.checked == 0
    assert report.ok()


def test_grad_check_reports_nonfinite():
    params = {"w": np.array([[0.0]])}

    def forward(p):
        # log(relu(w)) has an infinite slope at w=0; the analytic gradient
        # divides by zero and must be flagged, not silently compared.
        eps = T.constant([[0.0]])
        y = T.add(T.relu(p["w"]), eps)
        return T.cross_entropy(
            T.concat(T.mul(y, T.constant(1e12)), T.constant([[0.0]]), axis=1), [[0]], axis=1
        )

    report = T.grad_check(forward, params)
    assert not report.ok() or report.nonfinite


# ---------------------------------------------------------------------------
# adam


def test_adam_zero_gradient_keeps_params():
    params = T.FlatParams([("w", (1, 2))], np.array([1.0, 2.0]))
    grads = np.zeros(2)
    state = T.AdamState()
    T.adam_step(params, grads, state, lr=0.1)
    assert np.array_equal(params["w"], [[1.0, 2.0]])
    assert state.t == 1


def test_adam_first_step_is_lr_sized():
    params = T.FlatParams([("w", (1, 1))])
    grads = np.array([1.0])
    state = T.AdamState()
    T.adam_step(params, grads, state, lr=0.1)
    # bias correction makes the first step ~lr regardless of gradient scale
    assert abs(params["w"][0, 0] + 0.1) <= 1e-8


def test_adam_against_sequential_oracle():
    lr, b1, b2, eps = 0.01, 0.9, 0.999, 1e-8
    rng = np.random.default_rng(5)
    gs = [rng.normal(size=(2, 2)) for _ in range(5)]
    params = T.FlatParams([("w", (2, 2))])
    state = T.AdamState()
    for g in gs:
        T.adam_step(params, g.reshape(-1), state, lr=lr, beta1=b1, beta2=b2, eps=eps)

    # scalar re-derivation, element by element
    want = np.zeros((2, 2))
    for i in range(2):
        for j in range(2):
            m = v = 0.0
            w = 0.0
            for t, g in enumerate(gs, start=1):
                m = b1 * m + (1 - b1) * g[i, j]
                v = b2 * v + (1 - b2) * g[i, j] ** 2
                mhat = m / (1 - b1**t)
                vhat = v / (1 - b2**t)
                w -= lr * mhat / (math.sqrt(vhat) + eps)
            want[i, j] = w
    assert np.allclose(params["w"], want, atol=1e-12)


def test_adam_deterministic():
    def run():
        rng = np.random.default_rng(9)
        params = T.FlatParams([("w", (3, 3))], rng.normal(size=9))
        state = T.AdamState()
        for _ in range(10):
            g = rng.normal(size=(3, 3))
            T.adam_step(params, g.reshape(-1), state)
        return params["w"]

    assert np.array_equal(run(), run())


def per_array_adam(params, grads, m, v, t, lr, beta1=0.9, beta2=0.999, eps=1e-8):
    """The update as it ran one array at a time before the flat vector:
    kept here as the reference the whole-vector step must equal bit for bit."""
    bc1 = 1.0 - beta1**t
    bc2 = 1.0 - beta2**t
    for name, p in params.items():
        g = grads[name]
        m[name] *= beta1
        m[name] += (1.0 - beta1) * g
        v[name] *= beta2
        v[name] += (1.0 - beta2) * g * g
        p -= lr * (m[name] / bc1) / (np.sqrt(v[name] / bc2) + eps)


def test_flat_adam_equals_the_per_array_update():
    layout = [("a", (3, 4)), ("b", (1, 4)), ("c", (5, 2)), ("d", (1, 1))]
    rng = np.random.default_rng(21)
    flat = T.FlatParams(layout, rng.normal(size=27))
    ref = {name: flat[name].copy() for name in flat}
    m = {name: np.zeros(shape) for name, shape in layout}
    v = {name: np.zeros(shape) for name, shape in layout}
    state = T.AdamState()
    for t in range(1, 7):
        # gradient scales spread over many orders of magnitude
        grads = {
            name: rng.normal(size=shape) * 10.0 ** rng.integers(-6, 4) for name, shape in layout
        }
        T.adam_step(flat, np.concatenate([g.ravel() for g in grads.values()]), state, lr=3e-3)
        per_array_adam(ref, grads, m, v, t, lr=3e-3)
        assert state.t == t
        for name in ref:
            assert np.array_equal(flat[name], ref[name])
            assert np.array_equal(state.m[name], m[name])
            assert np.array_equal(state.v[name], v[name])


def test_adam_allocates_moments_in_the_parameter_layout():
    params = T.FlatParams([("w", (2, 3)), ("b", (1, 3))])
    state = T.AdamState()
    assert state.m == state.v == {}
    T.adam_step(params, np.ones(9), state)
    assert list(state.m) == list(state.v) == ["w", "b"]
    assert state.m["w"].shape == (2, 3) and np.shares_memory(state.m["w"], state.m.vector)


def test_adam_wrong_gradient_length_changes_nothing():
    params = T.FlatParams([("w", (2, 2))], np.arange(4.0))
    state = T.AdamState()
    with pytest.raises(ShapeError):
        T.adam_step(params, np.ones(3), state)
    assert state.t == 0 and np.array_equal(params.vector, np.arange(4.0))


# ---------------------------------------------------------------------------
# flat parameter vectors


def test_flat_params_are_views_in_layout_order():
    flat = T.FlatParams([("a", (2, 3)), ("b", (1, 2))], np.arange(8.0))
    assert list(flat) == ["a", "b"] and len(flat) == 2
    assert np.array_equal(flat["a"], [[0, 1, 2], [3, 4, 5]])
    assert np.array_equal(flat["b"], [[6, 7]])
    flat["b"][0, 1] = -1.0
    assert flat.vector[7] == -1.0
    flat.vector[0] = 9.0
    assert flat["a"][0, 0] == 9.0


def test_flat_params_vector_must_fit_the_layout():
    with pytest.raises(ShapeError):
        T.FlatParams([("a", (2, 3))], np.zeros(5))
    with pytest.raises(ShapeError):
        T.FlatParams([("a", (2, 3))], np.zeros(6, dtype=np.float32))
    with pytest.raises(ShapeError):
        T.FlatParams([("a", (2, 3))], np.zeros(12)[::2])
    with pytest.raises(ContractError):
        T.FlatParams([("a", (1, 1)), ("a", (1, 1))])


def test_flat_params_deepcopy_owns_its_vector():
    flat = T.FlatParams([("a", (2, 2)), ("b", (1, 2))], np.arange(6.0))
    twin = copy.deepcopy(flat)
    assert not np.shares_memory(twin.vector, flat.vector)
    assert all(np.shares_memory(twin[name], twin.vector) for name in twin)
    twin["a"][0, 0] = 5.0
    assert twin.vector[0] == 5.0 and flat.vector[0] == 0.0


@pytest.mark.parametrize(
    "arrays",
    [
        {"a": np.zeros((2, 2))},
        {"a": np.zeros((2, 2)), "b": np.zeros((2, 1))},
        {"a": np.zeros((2, 2)), "b": np.zeros((1, 2)), "c": np.zeros((1, 1))},
    ],
    ids=["missing-name", "wrong-shape", "extra-name"],
)
def test_flat_params_assign_checks_names_and_shapes_first(arrays):
    flat = T.FlatParams([("a", (2, 2)), ("b", (1, 2))], np.arange(6.0))
    with pytest.raises(ContractError):
        flat.assign(arrays)
    assert np.array_equal(flat.vector, np.arange(6.0))


def test_flat_params_leaves_add_into_one_gradient_vector():
    flat = T.FlatParams([("a", (2, 2)), ("b", (1, 2))], np.arange(6.0))
    assert flat.grad is None  # nothing allocated until a step asks for leaves
    leaves = flat.leaves()
    assert flat.leaves() is leaves and list(leaves) == ["a", "b"]
    for name, t in leaves.items():
        assert t.data is flat[name] and np.shares_memory(t.grad, flat.grad)

    def loss(p):
        return T.mean_all(T.mul(T.matmul(p["b"], p["a"]), T.constant([[1.0, -3.0]])))

    fresh = {name: T.leaf(a) for name, a in flat.items()}
    want = np.concatenate([g.reshape(-1) for g in T.backward(loss(fresh), fresh).values()])
    T.backward(loss(leaves))
    grad = flat.grad
    assert np.array_equal(grad, want) and grad.any()
    assert flat.leaves() is leaves and flat.grad is grad and not grad.any()
    twin = copy.deepcopy(flat)
    assert twin.grad is None and twin.leaves()["a"].data is twin["a"]

