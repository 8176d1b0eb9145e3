"""Dense float64 matrices with reverse-mode automatic differentiation.

Every value is a 2-D row-major matrix (a scalar is 1x1, a row vector is
1xn).  Operations record themselves on a single implicit tape; the tape's
append order is already topological, so the backward sweep is one reverse
pass with no sorting.  `backward` clears the tape, matching the
one-tape-per-training-step discipline.

The engine favours exact, checkable gradients over speed: everything is
float64 and every op has a closed-form local gradient that the finite
difference checker in `grad_check` can be pointed at.

Python dispatch, not arithmetic, is the cost at the model's sizes, so two
ops record a whole sub-layer as one tape node: `attention_sublayer` (the
projections, multi-head attention, output projection, residual add and
layer norm) and `mlp2` (linear, relu, linear).  Each runs the numpy
expressions of the ops it replaces in their order, and its backward
accumulates into each operand in the sequence theirs would, so outputs
and gradients are the same bits.

A kernel writes only into arrays it allocated itself: a bias, a residual
or a norm's affine is added into the fresh product it follows (`+=`,
`out=`), which gives the bits a new array would, and an operand's data is
never written.  Nothing is written in place inside a backward closure:
`_acc` keeps the first gradient a tensor receives by reference, so a later
write into that array would change the tensor's gradient.

Independent samples packed into one matrix never mix.  `cross_entropy`
takes group sizes (softmax runs within a column or a row), and
`attention_sublayer` takes an `AttentionLayout`: built once from one id
per query row and per key row, it runs the id checks and computes which
keys each query reads, and then serves every call that shares those ids.
It holds no parameter, so it can be built ahead of the step that reads it.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Callable, Iterable, Mapping

import numpy as np

from .errors import ContractError, NumericError, ShapeError

__all__ = [
    "Tensor",
    "Tape",
    "constant",
    "reset_tape",
    "backward",
    "matmul",
    "attention_sublayer",
    "AttentionLayout",
    "mlp2",
    "relu",
    "add",
    "mul",
    "concat",
    "slice_rows",
    "mean_all",
    "softplus",
    "cross_entropy",
    "layer_norm",
    "take_rows",
    "max_rows_per_block",
    "FlatParams",
    "AdamState",
    "adam_step",
    "GradCheckReport",
    "grad_check",
]

LAYER_NORM_EPS = 1e-5


def _as_matrix(values) -> np.ndarray:
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim == 0:
        arr = arr.reshape(1, 1)
    elif arr.ndim == 1:
        arr = arr.reshape(1, -1)
    elif arr.ndim != 2:
        raise ShapeError(f"expected at most 2 dimensions, got shape {arr.shape}")
    return arr


class Tensor:
    """A matrix plus an optional handle into the active tape.

    `node is None` marks a constant: gradients neither reach nor pass
    through it, and ops on constants skip the tape entirely.  A leaf's
    node is -1: it receives gradients but owns no tape entry, and its
    `grad` is a buffer of its own shape that backward adds into in place.
    """

    __slots__ = ("data", "node", "grad")

    def __init__(self, data: np.ndarray, node: int | None = None, grad: np.ndarray | None = None):
        self.data = data
        self.node = node
        self.grad = grad

    @property
    def shape(self) -> tuple[int, int]:
        return self.data.shape

    def item(self) -> float:
        if self.data.size != 1:
            raise ShapeError(f"item() needs a scalar, got shape {self.shape}")
        return float(self.data.reshape(-1)[0])

    def __repr__(self) -> str:
        tag = "const" if self.node is None else f"node {self.node}"
        return f"Tensor(shape={self.shape}, {tag})"


class Tape:
    """Ordered record of op outputs and their local-gradient closures."""

    __slots__ = ("_entries",)

    def __init__(self):
        self._entries: list[tuple[Tensor, Callable[[np.ndarray], None]]] = []

    def __len__(self) -> int:
        return len(self._entries)

    def add(self, t: Tensor, backfn: Callable[[np.ndarray], None]) -> None:
        t.node = len(self._entries)
        self._entries.append((t, backfn))

    def backward_from(self, loss: Tensor) -> None:
        loss.grad = np.ones_like(loss.data)
        # Entries recorded after the loss cannot feed it; skipping them is
        # handled by the grad-is-None test.
        for t, fn in reversed(self._entries):
            if t.grad is not None:
                fn(t.grad)


_TAPE = Tape()


def reset_tape() -> None:
    """Drop any partially recorded step (e.g. after an exception)."""
    global _TAPE
    _TAPE = Tape()


def constant(values) -> Tensor:
    return Tensor(_as_matrix(values), node=None)


def leaf(values) -> Tensor:
    """A gradient-receiving input (a parameter): traced, but not on the tape.

    Backward has nothing to run for a leaf, so it owns no tape entry; ops
    that read it record themselves and add into its `grad`, a zero buffer
    of its shape.  `FlatParams.leaves` makes leaves whose buffers share
    one vector.
    """
    data = _as_matrix(values)
    return Tensor(data, -1, np.zeros_like(data))


def backward(loss: Tensor, params: Mapping[str, Tensor] | None = None):
    """Run the reverse sweep from a scalar loss and clear the tape.

    Returns a name -> gradient map of the leaves `params` when given:
    copies of their buffers, so a later step that zeroes a reused buffer
    leaves the map as it was.  A leaf the loss never touched reads zeros.
    """
    global _TAPE
    if loss.data.size != 1:
        raise ContractError(f"backward needs a scalar loss, got shape {loss.shape}")
    if loss.node is not None:
        _TAPE.backward_from(loss)
    _TAPE = Tape()
    if params is not None:
        return {name: t.grad.copy() for name, t in params.items()}
    return None


def _acc(t: Tensor, g: np.ndarray) -> None:
    if t.node is None:
        return
    if t.node < 0:  # a leaf: into the buffer it owns (0 + g is g, bit for bit)
        t.grad += g
    else:
        t.grad = g if t.grad is None else t.grad + g


def _traced(*ts: Tensor) -> bool:
    for t in ts:
        if t.node is not None:
            return True
    return False


def _finite_shift(x: np.ndarray, op: str, keep: np.ndarray | None = None) -> np.ndarray:
    """x minus its maximum along the last axis, so exp cannot overflow.

    Entries outside `keep` (a boolean mask broadcast against x) become
    -inf, so they weigh exactly 0 after exp, and the maximum is taken over
    the kept entries only.  Every row must keep at least one entry.  The
    shift is written into x, or into the masked copy when `keep` is given,
    so x must be the caller's own temporary.
    """
    if not np.isfinite(x).all():
        raise NumericError(f"{op} requires finite logits")
    if keep is not None:
        x = np.where(keep, x, -np.inf)
    x -= x.max(axis=-1, keepdims=True)
    return x


# ---------------------------------------------------------------------------
# linear algebra


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.data.shape[1] != b.data.shape[0]:
        raise ShapeError(f"matmul mismatch: {a.shape} @ {b.shape}")
    out = Tensor(a.data @ b.data)
    if _traced(a, b):

        def back(g, a=a, b=b):
            if a.node is not None:
                _acc(a, g @ b.data.T)
            if b.node is not None:
                _acc(b, a.data.T @ g)

        _TAPE.add(out, back)
    return out


# Padding pays a fixed ranking, gather and scatter cost a call (about 40 us
# at the model's sizes); a dense mask pays for every off-segment logit.  A
# call pads when that skips more than this many logits a head: the two cost
# the same between 1000 and 2000 on a 2-vCPU x86 VM at widths 16 and 32.
_PAD_SAVING = 1500


class AttentionLayout:
    """Which keys each query of a segmented attention reads, built once
    from ids and shared by every call that has them.

    `AttentionLayout(segments, key_segments=None)` takes one integer id per
    query row and one per key (and value) row; without `key_segments` the
    keys take the query ids (self-attention).  A query reads only the keys
    of its id, so each segment attends as it would alone.  Ids of two or
    more segments lie in [0, m + n) for m queries and n keys, and every
    query's segment needs a key; the constructor checks both, so a call
    that reads the layout checks only that its rows match `rows` and
    `keys`.  When every query and key shares one id, `keep` is None and
    the rows are used as they are.

    Padded (`q_slots` set): the i-th row of segment s, counted in row
    order, sits at slot s * length + i of a (groups * length)-row matrix,
    and `keep` is the (groups, 1, 1, key length) mask of real keys; a
    segment without keys has no queries either, so its padding keys are
    kept to leave no row without a key.  Dense: one group, no slots, and
    `keep` is the m x n mask of same-segment pairs.
    """

    __slots__ = ("rows", "keys", "groups", "q_slots", "q_len", "k_slots", "k_len", "keep")

    def __init__(self, segments, key_segments=None):
        if segments is None:
            raise ContractError("key segments need query segments")
        qs = np.asarray(segments).reshape(-1)
        ks = qs if key_segments is None else np.asarray(key_segments).reshape(-1)
        m, n = qs.size, ks.size
        if not (m and n):
            raise ShapeError(f"segments need a query and a key, got {m} and {n} ids")
        if qs.dtype.kind not in "iu" or ks.dtype.kind not in "iu":
            raise ContractError("segment ids must be integers")
        self.rows, self.keys = m, n
        self.groups, self.q_slots, self.q_len, self.k_slots, self.k_len = 1, None, m, None, n
        self.keep = None
        lo, hi = min(qs.min(), ks.min()), max(qs.max(), ks.max())
        if lo != hi:
            self._segment(qs, ks, lo, hi)

    def _segment(self, qs: np.ndarray, ks: np.ndarray, lo, hi) -> None:
        """Lay out ids of two or more segments, lo..hi: dense or padded."""
        m, n = qs.size, ks.size
        if lo < 0 or hi >= m + n:
            raise ContractError(f"segment ids must lie in [0, {m + n}), got {lo}..{hi}")
        n_groups = int(hi) + 1
        dense = m * n <= _PAD_SAVING  # too few logits to skip enough of them
        if not dense:
            both = np.concatenate([qs, ks + n_groups])
            counts = np.bincount(both, minlength=2 * n_groups)
            q_counts, k_counts = counts[:n_groups], counts[n_groups:]
            q_len, k_len = int(q_counts.max()), int(k_counts.max())
            dense = m * n - n_groups * q_len * k_len <= _PAD_SAVING
        if dense:
            keep = qs[:, None] == ks[None, :]
            if not keep.any(axis=1).all():
                raise ContractError("a query segment has no keys")
            self.keep = keep
            return
        if not k_counts[qs].all():
            raise ContractError("a query segment has no keys")
        order = np.argsort(both, kind="stable")
        rank = np.empty_like(order)
        rank[order] = np.arange(both.size) - np.repeat(np.cumsum(counts) - counts, counts)
        k_slots = ks * k_len + rank[m:]
        keep = np.zeros((n_groups, k_len), dtype=bool)
        keep.flat[k_slots] = True
        keep[k_counts == 0] = True
        self.groups, self.keep = n_groups, keep[:, None, None, :]
        self.q_slots, self.q_len = qs * q_len + rank[:m], q_len
        self.k_slots, self.k_len = k_slots, k_len


def _to_heads(x: np.ndarray, slots, n_groups: int, length: int, n_heads: int) -> np.ndarray:
    """Rows (r, d) to (groups, heads, length, d / heads); padding rows are 0."""
    if slots is not None:
        padded = np.zeros((n_groups * length, x.shape[1]))
        padded[slots] = x
        x = padded
    return x.reshape(n_groups, length, n_heads, -1).transpose(0, 2, 1, 3)


def _from_heads(x: np.ndarray, slots) -> np.ndarray:
    """(groups, heads, length, dh) back to the rows read at `slots`."""
    g, h, length, dh = x.shape
    rows = x.transpose(0, 2, 1, 3).reshape(g * length, h * dh)
    return rows if slots is None else rows[slots]


def _attention(q: np.ndarray, k: np.ndarray, v: np.ndarray, n_heads: int, layout=None):
    """Multi-head scaled dot-product attention on arrays, heads side by side
    in columns; returns the output rows and `back`, which maps the output's
    gradient to the gradients of q, k and v.

    With dh = width / n_heads, head h reads and writes column group
    [h*dh, (h+1)*dh) of q, k, v and the output; its weights are the row
    softmax of q_h k_h^T / sqrt(dh).  q may have other rows than k and v.

    An `AttentionLayout` packs independent sequences into one call, one
    segment id per query row and per key row.  A query's weight on a key
    of another segment is exactly 0, so each segment's output equals
    attending it alone.  Rows of one segment need not be adjacent.

    Two layouts compute the same weights.  Dense: one m x n logit matrix
    per head under an m x n keep mask, whose memory and work grow with
    the square of the packed rows.  Padded: each segment's rows are
    gathered into a zero-padded slice of a (segments, heads, rows, dh)
    stack, one batched matmul computes every segment's logits, and work
    grows with the number of segments times the square of the longest.
    A layout pads when that skips enough logits to repay the gathers.  The
    logits are checked for finiteness before masking.
    """
    (m, d), (n, dk) = q.shape, k.shape
    if dk != d or v.shape != (n, d):
        raise ShapeError(f"attention mismatch: q {q.shape}, k {k.shape}, v {v.shape}")
    if n_heads < 1 or d % n_heads != 0:
        raise ShapeError(f"width {d} not divisible into {n_heads} heads")
    n_groups, q_slots, q_len, k_slots, k_len, keep = 1, None, m, None, n, None
    if layout is not None:
        if layout.rows != m or layout.keys != n:
            raise ShapeError(
                f"segments need one id a row: q {q.shape} with {layout.rows} ids, "
                f"k {k.shape} with {layout.keys} ids"
            )
        n_groups, keep = layout.groups, layout.keep
        q_slots, q_len, k_slots, k_len = layout.q_slots, layout.q_len, layout.k_slots, layout.k_len
    dh = d // n_heads
    c = dh**-0.5
    # (groups, heads, rows, dh) stacks, views of the rows for one group:
    # every product is one batched matmul.  k is taken transposed,
    # (groups, heads, dh, rows), as the logits read it.
    qh = _to_heads(q, q_slots, n_groups, q_len, n_heads)
    kt = _to_heads(k, k_slots, n_groups, k_len, n_heads).swapaxes(2, 3)
    vh = _to_heads(v, k_slots, n_groups, k_len, n_heads)
    logits = qh @ kt
    logits *= c
    w = _finite_shift(logits, "attention", keep)
    np.exp(w, out=w)
    w /= w.sum(axis=3, keepdims=True)

    def back(g):
        gh = _to_heads(g, q_slots, n_groups, q_len, n_heads)
        gw = gh @ vh.swapaxes(2, 3)
        gs = w * (gw - (gw * w).sum(axis=3, keepdims=True)) * c
        return (
            _from_heads(gs @ kt.swapaxes(2, 3), q_slots),
            _from_heads(gs.swapaxes(2, 3) @ qh, k_slots),
            _from_heads(w.swapaxes(2, 3) @ gh, k_slots),
        )

    return _from_heads(w @ vh, q_slots), back


def attention_sublayer(
    x: Tensor,
    kv: Tensor,
    wq: Tensor,
    bq: Tensor,
    wk: Tensor,
    wv: Tensor,
    bv: Tensor,
    wo: Tensor,
    bo: Tensor,
    gain: Tensor,
    bias: Tensor,
    n_heads: int,
    layout: AttentionLayout | None = None,
) -> Tensor:
    """layer_norm(x + attention(x wq + bq, kv wk, kv wv + bv) wo + bo), one
    tape node: a residual attention sub-layer, x attending over kv.

    Every weight is d x d and every bias, gain and norm bias 1 x d, where
    x is m x d and kv is n x d; x and kv may be one tensor
    (self-attention).  A `layout` confines each query row to the key rows
    of its segment, as `_attention` describes.  The
    forward runs the composed ops' expressions in their order, and the
    backward accumulates into each operand in the order their backward
    would, so the output and every gradient are theirs, bit for bit.
    """
    xd, kvd = x.data, kv.data
    d = xd.shape[1]
    dd, row = (d, d), (1, d)
    if (kvd.shape[1], wq.data.shape, wk.data.shape, wv.data.shape, wo.data.shape) != (
        d, dd, dd, dd, dd
    ):
        shapes = [t.shape for t in (x, kv, wq, wk, wv, wo)]
        raise ShapeError(f"attention sub-layer needs width {d} and ({d}, {d}) weights: {shapes}")
    if (bq.data.shape, bv.data.shape, bo.data.shape, gain.data.shape, bias.data.shape) != (
        row, row, row, row, row
    ):
        shapes = [t.shape for t in (bq, bv, bo, gain, bias)]
        raise ShapeError(f"attention sub-layer biases and gain must be (1, {d}), got {shapes}")
    q = xd @ wq.data
    q += bq.data
    k = kvd @ wk.data
    v = kvd @ wv.data
    v += bv.data
    heads, attention_back = _attention(q, k, v, n_heads, layout)
    y = heads @ wo.data
    y += bo.data
    y += xd  # the residual: x + y and y + x are the same bits
    xhat, inv = _normalize_rows(y)
    y = xhat * gain.data
    y += bias.data
    out = Tensor(y)
    if _traced(x, kv, wq, bq, wk, wv, bv, wo, bo, gain, bias):

        def back(g):
            # layer_norm, then the residual add, out-projection, attention,
            # value, key and query projections: the chain's reverse order.
            _acc(gain, (g * xhat).sum(axis=0, keepdims=True))
            _acc(bias, g.sum(axis=0, keepdims=True))
            g = _normalize_rows_back(g * gain.data, xhat, inv)
            _acc(x, g)
            _acc(bo, g.sum(axis=0, keepdims=True))
            g_heads = g @ wo.data.T
            _acc(wo, heads.T @ g)
            gq, gk, gv = attention_back(g_heads)
            _acc(bv, gv.sum(axis=0, keepdims=True))
            _acc(kv, gv @ wv.data.T)
            _acc(wv, kvd.T @ gv)
            _acc(kv, gk @ wk.data.T)
            _acc(wk, kvd.T @ gk)
            _acc(bq, gq.sum(axis=0, keepdims=True))
            _acc(x, gq @ wq.data.T)
            _acc(wq, xd.T @ gq)

        _TAPE.add(out, back)
    return out


def mlp2(x: Tensor, w1: Tensor, b1: Tensor, w2: Tensor, b2: Tensor) -> Tensor:
    """relu(x w1 + b1) w2 + b2, one tape node: a two-layer perceptron.

    The biases are 1 x n rows added to every row.  The forward and
    backward are the composed ops' expressions in their order, so the
    output and every gradient are theirs, bit for bit.
    """
    (d, h), (h2, o) = w1.data.shape, w2.data.shape
    if (x.data.shape[1], h2) != (d, h):
        raise ShapeError(f"mlp2 mismatch: x {x.shape} @ {w1.shape} @ {w2.shape}")
    if (b1.data.shape, b2.data.shape) != ((1, h), (1, o)):
        raise ShapeError(f"mlp2 biases must be (1, {h}) and (1, {o}), got {b1.shape}, {b2.shape}")
    hidden = x.data @ w1.data
    hidden += b1.data
    np.maximum(hidden, 0.0, out=hidden)
    y = hidden @ w2.data
    y += b2.data
    out = Tensor(y)
    if _traced(x, w1, b1, w2, b2):
        mask = hidden > 0.0  # where the pre-activation is positive

        def back(g):
            _acc(b2, g.sum(axis=0, keepdims=True))
            g_hidden = g @ w2.data.T
            _acc(w2, hidden.T @ g)
            g = g_hidden * mask
            _acc(b1, g.sum(axis=0, keepdims=True))
            if x.node is not None:  # a constant input, such as points, takes none
                _acc(x, g @ w1.data.T)
            _acc(w1, x.data.T @ g)

        _TAPE.add(out, back)
    return out


# ---------------------------------------------------------------------------
# pointwise and structural ops


def relu(x: Tensor) -> Tensor:
    out = Tensor(np.maximum(x.data, 0.0))
    if _traced(x):
        mask = x.data > 0.0

        def back(g, x=x, mask=mask):
            _acc(x, g * mask)

        _TAPE.add(out, back)
    return out


def add(a: Tensor, b: Tensor) -> Tensor:
    """a + b, where b has a's shape or is a 1 x n row added to every row."""
    row = b.data.shape != a.data.shape
    if row and b.data.shape != (1, a.data.shape[1]):
        raise ShapeError(f"add needs {a.shape} or (1, {a.data.shape[1]}), got {b.shape}")
    out = Tensor(a.data + b.data)
    if _traced(a, b):

        def back(g, a=a, b=b, row=row):
            _acc(a, g)
            _acc(b, g.sum(axis=0, keepdims=True) if row else g)

        _TAPE.add(out, back)
    return out


def mul(a: Tensor, b: Tensor) -> Tensor:
    """a * b, where b has a's shape, is an m x 1 column scaling row i of a
    by b[i, 0] (e.g. a 0/1 relevance mask), or is a 1 x 1 factor."""
    shape = b.data.shape
    if shape != a.data.shape and shape != (a.data.shape[0], 1) and shape != (1, 1):
        raise ShapeError(f"mul needs {a.shape}, ({a.data.shape[0]}, 1) or (1, 1), got {b.shape}")
    out = Tensor(a.data * b.data)
    if _traced(a, b):

        def back(g, a=a, b=b):
            _acc(a, g * b.data)
            if b.node is not None:
                gb = g * a.data
                if gb.shape != b.data.shape:  # sum over the axes b broadcasts along
                    gb = gb.sum(axis=None if b.data.shape[0] == 1 else 1, keepdims=True)
                _acc(b, gb)

        _TAPE.add(out, back)
    return out


def concat(*parts: Tensor, axis: int = 0) -> Tensor:
    """The parts stacked along `axis`: rows (0) or columns (1)."""
    if not parts:
        raise ContractError("concat needs at least one operand")
    if axis not in (0, 1):
        raise ContractError(f"axis must be 0 or 1, got {axis}")
    size = parts[0].data.shape[1 - axis]
    for p in parts:
        if p.data.shape[1 - axis] != size:
            raise ShapeError(f"concat along axis {axis}: {[p.shape for p in parts]}")
    out = Tensor(np.concatenate([p.data for p in parts], axis=axis))
    if _traced(*parts):
        offsets = list(itertools.accumulate((p.data.shape[axis] for p in parts), initial=0))

        def back(g, parts=parts, offsets=offsets):
            for p, lo, hi in zip(parts, offsets[:-1], offsets[1:]):
                _acc(p, g[lo:hi] if axis == 0 else g[:, lo:hi])

        _TAPE.add(out, back)
    return out


def slice_rows(x: Tensor, lo: int, hi: int) -> Tensor:
    m = x.data.shape[0]
    if not (0 <= lo < hi <= m):
        raise ShapeError(f"slice_rows [{lo}:{hi}] out of range for {m} rows")
    out = Tensor(x.data[lo:hi].copy())
    if _traced(x):

        def back(g, x=x, lo=lo, hi=hi):
            full = np.zeros_like(x.data)
            full[lo:hi] = g
            _acc(x, full)

        _TAPE.add(out, back)
    return out


def mean_all(x: Tensor) -> Tensor:
    size = x.data.size
    out = Tensor(np.array([[x.data.mean()]]))
    if _traced(x):

        def back(g, x=x, size=size):
            _acc(x, np.full_like(x.data, g[0, 0] / size))

        _TAPE.add(out, back)
    return out


def _sigmoid(z: np.ndarray) -> np.ndarray:
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def softplus(x: Tensor) -> Tensor:
    # max(x,0) + log1p(exp(-|x|)) never overflows and is exact at x=0.
    z = x.data
    out = Tensor(np.maximum(z, 0.0) + np.log1p(np.exp(-np.abs(z))))
    if _traced(x):

        def back(g, x=x):
            _acc(x, g * _sigmoid(x.data))

        _TAPE.add(out, back)
    return out


# ---------------------------------------------------------------------------
# row-wise normalizations


def cross_entropy(logits: Tensor, target, sizes=None, axis: int = 0) -> Tensor:
    """Summed -log softmax(group)[target] over softmax groups, as a 1x1.

    The softmax runs along `axis` of the matrix, separately in every column
    (`axis=0`, column form) or every row (`axis=1`, row form), and `sizes`
    (S positive integer counts that sum to the entries along `axis`;
    default one group of them all) splits each of those lines into S runs
    of consecutive entries.  `target` is a 2-D integer array of the
    logits' shape with that axis replaced by S: entry [s, j] (column form)
    or [j, s] (row form) is the target's index among the rows (columns) of
    group s, counted from its first.  One target in an n x 1 column is
    `[[t]]`; in a 1 x n row, `[[t]]` with `axis=1`.
    """
    x = logits.data
    if axis not in (0, 1):
        raise ContractError(f"axis must be 0 or 1, got {axis}")
    # Column form throughout: a row-form matrix is handled as its transpose.
    x = x if axis == 0 else x.T
    n, c = x.shape
    tgt = np.asarray(target)
    if tgt.ndim != 2 or not np.issubdtype(tgt.dtype, np.integer):
        raise ShapeError(f"targets must be a 2-D integer array, got {tgt.shape} {tgt.dtype}")
    tgt = tgt if axis == 0 else tgt.T
    n_seg = tgt.shape[0]
    if tgt.shape[1] != c or n_seg < 1:
        raise ShapeError(f"targets {np.asarray(target).shape} do not fit logits {logits.shape}")
    sizes = np.array([n]) if sizes is None else np.asarray(sizes)
    if sizes.shape != (n_seg,) or not np.issubdtype(sizes.dtype, np.integer) or sizes.sum() != n:
        raise ShapeError(f"need one integer group size per target row, summing to {n}: {sizes}")
    if sizes.min() < 1:
        raise ContractError(f"every group needs at least one entry, got sizes {sizes}")
    if ((tgt < 0) | (tgt >= sizes[:, None])).any():
        raise ContractError(f"targets {tgt.tolist()} outside groups of sizes {sizes.tolist()}")
    if not np.isfinite(x).all():
        raise NumericError("cross_entropy requires finite logits")
    starts = np.cumsum(sizes) - sizes
    shifted = x - np.repeat(np.maximum.reduceat(x, starts, axis=0), sizes, axis=0)
    lse = np.log(np.add.reduceat(np.exp(shifted), starts, axis=0))  # S x c
    rows = starts[:, None] + tgt  # each target's row in x, S x c
    cols = np.broadcast_to(np.arange(c), rows.shape)
    out = Tensor(np.array([[(lse - shifted[rows, cols]).sum()]]))
    if _traced(logits):

        def back(g, logits=logits, shifted=shifted, lse=lse, sizes=sizes, rows=rows, cols=cols):
            dz = np.exp(shifted - np.repeat(lse, sizes, axis=0))
            dz[rows, cols] -= 1.0  # each (group, line) targets its own entry
            dz *= g[0, 0]
            _acc(logits, dz if axis == 0 else dz.T)

        _TAPE.add(out, back)
    return out


def _normalize_rows(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each row at zero mean and unit variance, and 1 / its deviation."""
    n = x.shape[1]
    # Direct sums equal np.mean/np.var bit for bit, without their wrappers.
    mean = x.sum(axis=1, keepdims=True)
    mean /= n
    dev = x - mean
    inv = (dev * dev).sum(axis=1, keepdims=True)
    inv /= n  # the variance, then its 1 / sqrt(var + eps), in place
    inv += LAYER_NORM_EPS
    np.sqrt(inv, out=inv)
    np.divide(1.0, inv, out=inv)
    dev *= inv
    return dev, inv


def _normalize_rows_back(gy: np.ndarray, xhat: np.ndarray, inv: np.ndarray) -> np.ndarray:
    """The gradient of x from gy, that of `_normalize_rows(x)[0]`."""
    n = xhat.shape[1]
    return inv * (
        gy - gy.sum(axis=1, keepdims=True) / n - xhat * ((gy * xhat).sum(axis=1, keepdims=True) / n)
    )


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor) -> Tensor:
    """Normalize each row to zero mean / unit variance, then affine."""
    row = (1, x.data.shape[1])
    if (gain.data.shape, bias.data.shape) != (row, row):
        raise ShapeError(f"layer_norm affine params must be {row}")
    xhat, inv = _normalize_rows(x.data)
    y = xhat * gain.data
    y += bias.data
    out = Tensor(y)
    if _traced(x, gain, bias):

        def back(g, x=x, gain=gain, bias=bias, xhat=xhat, inv=inv):
            _acc(gain, (g * xhat).sum(axis=0, keepdims=True))
            _acc(bias, g.sum(axis=0, keepdims=True))
            if x.node is not None:
                _acc(x, _normalize_rows_back(g * gain.data, xhat, inv))

        _TAPE.add(out, back)
    return out


# ---------------------------------------------------------------------------
# indexing / pooling


def take_rows(table: Tensor, indices) -> Tensor:
    """Gather rows of a table (embedding lookup); repeats allowed."""
    idx = np.asarray(indices, dtype=np.intp).reshape(-1)
    m = table.data.shape[0]
    if idx.size == 0:
        raise ContractError("take_rows needs at least one index")
    if (idx < 0).any() or (idx >= m).any():
        raise ContractError(f"take_rows index out of range [0, {m})")
    out = Tensor(table.data[idx])  # integer indexing already copies
    if _traced(table):

        def back(g, table=table, idx=idx):
            full = np.zeros_like(table.data)
            np.add.at(full, idx, g)
            _acc(table, full)

        _TAPE.add(out, back)
    return out


def max_rows_per_block(x: Tensor, block: int) -> Tensor:
    """Column-wise max over consecutive groups of `block` rows.

    Gradient flows to the first row attaining each maximum, which keeps the
    backward pass deterministic under exact ties.
    """
    m, n = x.data.shape
    if block <= 0 or m % block != 0:
        raise ShapeError(f"{m} rows not divisible into blocks of {block}")
    nb = m // block
    view = x.data.reshape(nb, block, n)
    arg = view.argmax(axis=1)
    out = Tensor(view.max(axis=1))
    if _traced(x):

        def back(g, x=x, arg=arg, block=block, nb=nb, n=n):
            full = np.zeros_like(x.data).reshape(nb, block, n)
            b_idx = np.arange(nb)[:, None]
            c_idx = np.arange(n)[None, :]
            full[b_idx, arg, c_idx] = g
            _acc(x, full.reshape(nb * block, n))

        _TAPE.add(out, back)
    return out


# ---------------------------------------------------------------------------
# optimizer


class FlatParams(Mapping[str, np.ndarray]):
    """Named float64 arrays stored as views into one flat vector.

    `vector` holds every entry, array after array in layout order, and
    `self[name]` is a view of its slice, so a write through either shows
    in the other.  Whole-vector ops (an optimizer step, a finiteness scan)
    run on `vector`; name lookups, as the model's forward makes them, run
    on the views.  Copies (`copy.deepcopy`, pickling) copy the vector once
    and rebuild the views, so a copy never shares memory with its source,
    its constant wraps or its leaves.

    `grad` is None until `leaves` first runs; from then on it is the flat
    gradient vector, in the same layout, that the leaves' buffers view.
    """

    __slots__ = ("vector", "grad", "_views", "_constants", "_leaves")

    def __init__(
        self, layout: Iterable[tuple[str, tuple[int, ...]]], vector: np.ndarray | None = None
    ):
        """Views in `layout` order, (name, shape) pairs, into `vector`, or
        into a new zero vector when none is given."""
        layout = list(layout)
        ends = list(itertools.accumulate(math.prod(shape) for _, shape in layout))
        size = ends[-1] if ends else 0
        if vector is None:
            vector = np.zeros(size)
        elif (
            vector.shape != (size,)
            or vector.dtype != np.float64
            or not vector.flags.c_contiguous
        ):
            raise ShapeError(
                f"layout needs a contiguous float64 vector of {size}, "
                f"got {vector.dtype} {vector.shape}"
            )
        self.vector = vector
        self._views: dict[str, np.ndarray] = {}
        start = 0
        for (name, shape), end in zip(layout, ends):
            self._views[name] = vector[start:end].reshape(shape)
            start = end
        if len(self._views) != len(layout):
            raise ContractError("layout names must be distinct")
        self._constants: Mapping[str, Tensor] | None = None
        self._leaves: Mapping[str, Tensor] | None = None
        self.grad: np.ndarray | None = None

    def constants(self) -> Mapping[str, Tensor]:
        """Every view wrapped as a constant, built on first use and then
        reused: a read-only mapping in layout order.

        Writes go through the views in place and a constant does not copy
        a float64 array, so the wraps always read the current values.
        """
        if self._constants is None:
            self._constants = MappingProxyType(
                {name: constant(view) for name, view in self._views.items()}
            )
        return self._constants

    def leaves(self) -> Mapping[str, Tensor]:
        """Every view wrapped as a leaf, for one backward pass: a read-only
        mapping in layout order, built on first use and then reused.

        Leaf `name`'s gradient buffer is the `name` view of `grad`, and
        each call zeroes `grad`, so after backward `grad` holds the whole
        gradient in layout order, with no per-step wrap, dict or copy.
        """
        if self._leaves is None:
            self.grad = np.zeros_like(self.vector)
            grads = FlatParams(self.layout(), self.grad)
            self._leaves = MappingProxyType(
                {name: Tensor(view, -1, grads[name]) for name, view in self._views.items()}
            )
        else:
            self.grad.fill(0.0)
        return self._leaves

    def layout(self) -> list[tuple[str, tuple[int, ...]]]:
        return [(name, view.shape) for name, view in self._views.items()]

    def zeros_like(self) -> "FlatParams":
        return FlatParams(self.layout())

    def assign(self, arrays: Mapping[str, np.ndarray]) -> None:
        """Copy `arrays` into this vector in place, after checking that
        they name every array of the layout, and only those, at its shape."""
        if arrays.keys() != self._views.keys():
            missing = sorted(self._views.keys() - arrays.keys())
            extra = sorted(arrays.keys() - self._views.keys())
            raise ContractError(f"parameter names differ: missing {missing}, unexpected {extra}")
        for name, view in self._views.items():
            if np.shape(arrays[name]) != view.shape:
                raise ContractError(
                    f"{name} has shape {np.shape(arrays[name])}, layout needs {view.shape}"
                )
        for name, view in self._views.items():
            view[...] = arrays[name]

    def __getitem__(self, name: str) -> np.ndarray:
        return self._views[name]

    def __iter__(self):
        return iter(self._views)

    def __len__(self) -> int:
        return len(self._views)

    # Mapping builds these from __getitem__ one name at a time; the dict's
    # own views are the same in layout order and cost no Python call a name.
    def keys(self):
        return self._views.keys()

    def values(self):
        return self._views.values()

    def items(self):
        return self._views.items()

    def __reduce__(self):
        return FlatParams, (self.layout(), self.vector)

    def __deepcopy__(self, memo) -> "FlatParams":
        # The layout holds only strings and int tuples: no need to walk it.
        return FlatParams(self.layout(), self.vector.copy())


@dataclass
class AdamState:
    """Adam's moments and the shared step counter.

    `m` and `v` read as `{}` until `moments` (the first `adam_step` calls
    it) allocates each as one zero `FlatParams` vector in the parameters'
    layout; a name then reads that parameter's moment.
    """

    m: Mapping[str, np.ndarray] = field(default_factory=dict)
    v: Mapping[str, np.ndarray] = field(default_factory=dict)
    t: int = 0

    def moments(self, params: FlatParams) -> tuple[np.ndarray, np.ndarray]:
        """The m and v vectors for `params`, allocated as zeros on first use."""
        if not self.m:
            self.m, self.v = params.zeros_like(), params.zeros_like()
        m, v = self.m.vector, self.v.vector
        if m.shape != params.vector.shape or v.shape != params.vector.shape:
            raise ShapeError(
                f"moments {m.shape} and {v.shape} != parameters {params.vector.shape}"
            )
        return m, v


# Entries Adam updates per pass.  A block keeps each temporary at 64 KB, so
# no parameter-sized scratch vector is held and the working set stays in
# cache: at 101 433 entries (d=32, B=4) one step took 0.8 ms in blocks
# against 1.2 ms as whole-vector passes on a 2-vCPU VM.
_ADAM_BLOCK = 8192


def adam_step(
    params: FlatParams,
    grads: np.ndarray,
    state: AdamState,
    lr: float = 1e-3,
    beta1: float = 0.9,
    beta2: float = 0.999,
    eps: float = 1e-8,
) -> None:
    """One bias-corrected Adam update of the vector `params.vector`, in place.

    `grads` is the flat gradient in the same layout, such as
    `params.grad` after a backward through `params.leaves()`.  The
    moments and the parameters are updated in one pass over the vectors,
    block by block, each entry as `p -= lr * (m / bc1) / (sqrt(v / bc2) +
    eps)`, operation for operation, so the result equals updating each
    array on its own, bit for bit.
    """
    p = params.vector
    if grads.shape != p.shape:
        raise ShapeError(f"gradient {grads.shape} != parameters {p.shape}")
    m, v = state.moments(params)
    state.t += 1
    bc1 = 1.0 - beta1**state.t
    bc2 = 1.0 - beta2**state.t
    for lo in range(0, p.size, _ADAM_BLOCK):
        block = slice(lo, lo + _ADAM_BLOCK)
        g, mb, vb, pb = grads[block], m[block], v[block], p[block]
        mb *= beta1
        mb += (1.0 - beta1) * g
        vb *= beta2
        vb += (1.0 - beta2) * g * g
        pb -= lr * (mb / bc1) / (np.sqrt(vb / bc2) + eps)


# ---------------------------------------------------------------------------
# gradient checking


@dataclass
class GradCheckReport:
    """Result of comparing tape gradients with central finite differences."""

    max_rel_err: float
    worst_param: str | None
    checked: int
    nonfinite: list[str] = field(default_factory=list)

    def ok(self, tol: float = 1e-4) -> bool:
        return not self.nonfinite and self.max_rel_err <= tol


def grad_check(
    loss_fn: Callable[[dict[str, Tensor]], Tensor],
    params: Mapping[str, np.ndarray],
    h: float = 1e-5,
    atol: float = 1e-6,
) -> GradCheckReport:
    """Check every entry of every parameter against central differences.

    `loss_fn` must be deterministic and must consume the given tensors
    rather than capturing outside state.  The numeric side evaluates the
    loss with constant (untaped) parameters, so it runs at plain numpy
    speed.

    Entries where both sides fall below `atol` count as matching zeros:
    central differences bottom out near eps*|loss|/h, so relative error
    against a true zero gradient would only measure that noise.
    """
    arrays = {k: np.array(v, dtype=np.float64) for k, v in params.items()}
    if not arrays:
        return GradCheckReport(max_rel_err=0.0, worst_param=None, checked=0)

    reset_tape()
    leaves = {k: leaf(v) for k, v in arrays.items()}
    loss = loss_fn(leaves)
    analytic = backward(loss, leaves)

    def eval_loss() -> float:
        return loss_fn({k: constant(v) for k, v in arrays.items()}).item()

    max_rel = 0.0
    worst = None
    checked = 0
    nonfinite: list[str] = []
    for name, arr in arrays.items():
        ga = analytic[name]
        if not np.isfinite(ga).all():
            nonfinite.append(name)
            continue
        flat = arr.reshape(-1)
        ga_flat = ga.reshape(-1)
        for j in range(flat.size):
            orig = flat[j]
            flat[j] = orig + h
            up = eval_loss()
            flat[j] = orig - h
            down = eval_loss()
            flat[j] = orig
            gn = (up - down) / (2.0 * h)
            checked += 1
            if abs(ga_flat[j]) <= atol and abs(gn) <= atol:
                continue
            rel = abs(ga_flat[j] - gn) / max(1e-8, abs(ga_flat[j]) + abs(gn))
            if rel > max_rel:
                max_rel = rel
                worst = name
    return GradCheckReport(
        max_rel_err=max_rel, worst_param=worst, checked=checked, nonfinite=nonfinite
    )
