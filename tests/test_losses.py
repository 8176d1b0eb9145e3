"""Tests for the four objectives against scalar oracles and closed forms."""

import math

import numpy as np
import pytest

import vigor.tensor as tt
from vigor.errors import ContractError
from vigor.losses import (
    LossWeights,
    compose,
    loss_crd,
    loss_mask,
    loss_ref,
    loss_text,
)

# ---------------------------------------------------------------------------
# scalar oracles: plain python floats, no numpy broadcasting


def ce_oracle(logits, target):
    mx = max(logits)
    z = [math.exp(v - mx) for v in logits]
    return -math.log(z[target] / sum(z))


def bce_oracle(logit, bit):
    return max(logit, 0.0) + math.log1p(math.exp(-abs(logit))) - logit * bit


def mse_oracle(pred, ref):
    total, count = 0.0, 0
    for prow, rrow in zip(pred, ref):
        for p, r in zip(prow, rrow):
            total += (p - r) ** 2
            count += 1
    return total / count


def col(values):
    return tt.constant(np.asarray(values, dtype=float).reshape(-1, 1))


def cols(*columns):
    """One K x B matrix of 0/1 bits or logits, a column per block."""
    return np.stack([np.asarray(c, dtype=float) for c in columns], axis=1)


# ---------------------------------------------------------------------------
# loss_ref


def test_ref_uniform_logits_is_ln_k():
    scores = [col([0.0, 0.0, 0.0, 0.0]) for _ in range(3)]
    warm = loss_ref(tt.concat(*scores, axis=1), [1, 2, 0])
    assert abs(warm.item() - math.log(4)) <= 1e-12
    main = loss_ref(scores[-1], [3])
    assert abs(main.item() - math.log(4)) <= 1e-12


def test_ref_confident_correct_goes_to_zero():
    scores = col([40.0, 0.0, 0.0])
    assert loss_ref(scores, [0]).item() < 1e-8


def test_ref_matches_scalar_oracle():
    rng = np.random.default_rng(0)
    for _ in range(50):
        k, b = int(rng.integers(2, 7)), int(rng.integers(1, 4))
        blocks = [rng.normal(0, 3, size=k) for _ in range(b)]
        ids = [int(rng.integers(0, k)) for _ in range(b)]
        want = sum(ce_oracle(list(s), t) for s, t in zip(blocks, ids)) / b
        got = loss_ref(tt.constant(cols(*blocks)), ids)
        assert abs(got.item() - want) <= 1e-12
        want_main = ce_oracle(list(blocks[-1]), ids[-1])
        got_main = loss_ref(col(blocks[-1]), [ids[-1]])
        assert abs(got_main.item() - want_main) <= 1e-12


def test_ref_rejects_bad_ids_and_stages():
    scores = [col([0.0, 1.0, 2.0])]
    with pytest.raises(ContractError):
        loss_ref(scores[0], [3])
    with pytest.raises(ContractError):
        loss_ref(scores[0], [-1])
    with pytest.raises(ContractError):
        loss_ref(scores[0], [0, 1])  # 2 ids, 1 block
    with pytest.raises(ContractError):
        loss_ref(tt.concat(*scores * 3, axis=1), [0, 1])  # 2 ids, 3 blocks


# ---------------------------------------------------------------------------
# loss_mask


def test_mask_zero_logits_is_ln_2():
    logits = tt.constant(np.zeros((3, 2)))
    masks = cols([1.0, 0.0, 1.0], [1.0, 0.0, 1.0])
    assert abs(loss_mask(logits, masks).item() - math.log(2)) <= 1e-12


def test_mask_confident_limit_goes_to_zero():
    bits = np.array([1.0, 0.0, 1.0, 0.0])
    logits = col(50.0 * (2.0 * bits - 1.0))
    assert loss_mask(logits, cols(bits)).item() < 1e-8


def test_mask_matches_scalar_oracle():
    rng = np.random.default_rng(1)
    for _ in range(50):
        k, b = int(rng.integers(1, 6)), int(rng.integers(1, 4))
        logit_blocks = [rng.normal(0, 3, size=k) for _ in range(b)]
        bit_blocks = [rng.integers(0, 2, size=k).astype(float) for _ in range(b)]
        want = (
            sum(
                sum(bce_oracle(z, m) for z, m in zip(zs, ms)) / k
                for zs, ms in zip(logit_blocks, bit_blocks)
            )
            / b
        )
        got = loss_mask(tt.constant(cols(*logit_blocks)), cols(*bit_blocks))
        assert abs(got.item() - want) <= 1e-12


def test_mask_rejects_mismatched_lengths():
    with pytest.raises(ContractError):
        loss_mask(col([0.0, 0.0]), cols([1.0, 0.0, 0.0]))
    with pytest.raises(ContractError):
        loss_mask(tt.constant(np.zeros((3, 0))), np.zeros((3, 0)))


# ---------------------------------------------------------------------------
# loss_crd


def centers_grid():
    # dyadic coordinates: exactly representable, so offsets subtract exactly
    return np.array([[0.0, 0.25, 1.5], [2.0, -0.75, 0.5], [-1.25, 3.0, 0.25]])


def test_crd_exact_offsets_give_zero():
    v = centers_grid()
    preds = tt.constant(np.hstack([v - v[1], v - v[0]]))
    assert loss_crd(preds, v, [1, 0]).item() == 0.0


def test_crd_anchor_row_is_self_offset_zero():
    v = centers_grid()
    offsets = v - v[2]
    assert np.array_equal(offsets[2], np.zeros(3))


def test_crd_matches_scalar_oracle():
    rng = np.random.default_rng(2)
    for _ in range(30):
        k, b = int(rng.integers(2, 6)), int(rng.integers(1, 4))
        v = rng.normal(0, 2, size=(k, 3))
        ids = [int(rng.integers(0, k)) for _ in range(b)]
        preds = [rng.normal(0, 2, size=(k, 3)) for _ in range(b)]
        want = sum(
            mse_oracle(p.tolist(), (v - v[t]).tolist()) for p, t in zip(preds, ids)
        ) / b
        got = loss_crd(tt.constant(np.hstack(preds)), v, ids)
        assert abs(got.item() - want) <= 1e-12


def test_crd_translation_covariance_exact():
    v = centers_grid()
    shift = np.array([4.5, -2.25, 8.0])  # dyadic, so addition is exact here
    preds = tt.constant(np.arange(9.0).reshape(3, 3) / 8.0)
    assert loss_crd(preds, v, [1]).item() == loss_crd(preds, v + shift, [1]).item()


def test_crd_translation_covariance_random():
    rng = np.random.default_rng(3)
    v = rng.normal(0, 2, size=(4, 3))
    shift = rng.normal(0, 5, size=3)
    preds = tt.constant(rng.normal(0, 1, size=(4, 6)))
    a = loss_crd(preds, v, [0, 3]).item()
    b = loss_crd(preds, v + shift, [0, 3]).item()
    assert abs(a - b) <= 1e-9


def test_crd_rejects_bad_anchor():
    v = centers_grid()
    with pytest.raises(ContractError):
        loss_crd(tt.constant(np.zeros((3, 3))), v, [3])


# ---------------------------------------------------------------------------
# loss_text


def test_text_uniform_is_ln_20():
    logits = tt.constant(np.zeros((1, 20)))
    assert abs(loss_text(logits, 7).item() - math.log(20)) <= 1e-12


def test_text_confident_correct_goes_to_zero():
    row = np.zeros((1, 5))
    row[0, 2] = 40.0
    assert loss_text(tt.constant(row), 2).item() < 1e-8


def test_text_matches_scalar_oracle():
    rng = np.random.default_rng(4)
    for _ in range(50):
        c = int(rng.integers(2, 10))
        row = rng.normal(0, 3, size=c)
        t = int(rng.integers(0, c))
        got = loss_text(tt.constant(row.reshape(1, -1)), t)
        assert abs(got.item() - ce_oracle(list(row), t)) <= 1e-12


def test_text_rejects_bad_class():
    with pytest.raises(ContractError):
        loss_text(tt.constant(np.zeros((1, 4))), 4)


# ---------------------------------------------------------------------------
# composition


def build_parts(stage):
    scores = tt.constant(cols([1.0, -1.0, 0.5], [1.0, -1.0, 0.5]))
    masks = cols([1.0, 0.0, 1.0], [1.0, 0.0, 1.0])
    logits = tt.constant(cols([0.3, -0.2, 1.0], [0.3, -0.2, 1.0]))
    l_r = loss_ref(scores, [0, 1]) if stage == "warmup" else loss_ref(col([1.0, -1.0, 0.5]), [1])
    l_m = loss_mask(logits, masks)
    l_t = loss_text(tt.constant(np.array([[0.1, 0.9, -0.4]])), 1)
    l_c = loss_crd(tt.constant(np.ones((3, 6))), centers_grid(), [0, 1])
    return l_r, l_m, l_t, l_c


def named(parts, names=("ref", "mask", "text", "crd")):
    return dict(zip(names, parts))


def test_compose_totals_are_sums():
    l_r, l_m, l_t, l_c = build_parts("warmup")
    bd = compose(named([l_r, l_m, l_t, l_c]))
    want = l_r.item() + l_m.item() + l_t.item() + l_c.item()
    assert abs(bd.total.item() - want) <= 1e-12
    bd_main = compose(named(build_parts("main")[:3]))
    parts = build_parts("main")
    want_main = parts[0].item() + parts[1].item() + parts[2].item()
    assert abs(bd_main.total.item() - want_main) <= 1e-12
    assert "crd" not in bd_main.parts


def test_compose_respects_weights():
    l_r, l_m, l_t, l_c = build_parts("warmup")
    w = LossWeights(w_ref=2.0, w_mask=0.5, w_text=3.0, w_crd=0.25)
    bd = compose(named([l_r, l_m, l_t, l_c]), weights=w)
    want = 2.0 * l_r.item() + 0.5 * l_m.item() + 3.0 * l_t.item() + 0.25 * l_c.item()
    assert abs(bd.total.item() - want) <= 1e-12


def test_compose_zero_parts_zero_total():
    zero = tt.constant([[0.0]])
    bd = compose(named([zero, zero, zero, zero]))
    assert bd.total.item() == 0.0
    assert bd.values()["total"] == 0.0


def test_breakdown_rejects_negative_component():
    neg = tt.constant([[-0.5]])
    zero = tt.constant([[0.0]])
    with pytest.raises(ContractError):
        compose(named([neg, zero, zero, zero]))


def test_compose_refuses_a_part_without_a_weight_and_no_parts():
    zero = tt.constant([[0.0]])
    with pytest.raises(ContractError, match="obj"):
        compose({"ref": zero, "obj": zero})
    with pytest.raises(ContractError):
        compose({})


def test_breakdown_keeps_the_parts_in_compose_order():
    parts = named(build_parts("warmup"), ("text", "crd", "ref", "mask"))
    bd = compose(parts)
    assert list(bd.parts) == ["text", "crd", "ref", "mask"]
    assert list(bd.values()) == ["text", "crd", "ref", "mask", "total"]
    assert all(bd.values()[name] == t.item() for name, t in parts.items())


# ---------------------------------------------------------------------------
# gradients


def test_loss_gradients_match_finite_differences():
    rng = np.random.default_rng(5)
    k, b = 4, 2
    bits = [rng.integers(0, 2, size=k).astype(float) for _ in range(b)]
    centers = rng.normal(0, 2, size=(k, 3))
    params = {
        "scores0": rng.normal(0, 1, size=(k, 1)),
        "scores1": rng.normal(0, 1, size=(k, 1)),
        "mlogit0": rng.normal(0, 1, size=(k, 1)),
        "mlogit1": rng.normal(0, 1, size=(k, 1)),
        "coord0": rng.normal(0, 1, size=(k, 3)),
        "coord1": rng.normal(0, 1, size=(k, 3)),
        "tlogit": rng.normal(0, 1, size=(1, 6)),
    }

    def loss_fn(p):
        l_r = loss_ref(tt.concat(p["scores0"], p["scores1"], axis=1), [2, 0])
        l_m = loss_mask(tt.concat(p["mlogit0"], p["mlogit1"], axis=1), cols(*bits))
        l_c = loss_crd(tt.concat(p["coord0"], p["coord1"], axis=1), centers, [1, 3])
        l_t = loss_text(p["tlogit"], 4)
        return compose(named([l_r, l_m, l_t, l_c])).total

    report = tt.grad_check(loss_fn, params)
    assert report.nonfinite == []
    assert report.max_rel_err <= 1e-4, report


def test_loss_ref_rejects_score_rows():
    row = tt.constant(np.zeros((1, 3)))
    with pytest.raises(ContractError):
        loss_ref(row, [0])  # one id for three columns
    with pytest.raises(ContractError):
        loss_ref(row, [0, 1])  # two ids for three columns


def test_loss_weights_reject_negative_and_nonfinite():
    for bad in (-1.0, -1e-300, math.nan, math.inf):
        for name in ("w_ref", "w_mask", "w_text", "w_crd"):
            with pytest.raises(ContractError, match=name):
                LossWeights(**{name: bad})
    assert LossWeights(w_ref=0.0, w_crd=2.5).w_crd == 2.5


# ---------------------------------------------------------------------------
# whole-matrix losses against the per-block loops they replaced


def loss_mask_reference(logits_per_block, masks):
    terms = []
    for logits, bits in zip(logits_per_block, masks):
        neg_m = tt.constant(-bits.reshape(-1, 1))
        terms.append(tt.mean_all(tt.add(tt.softplus(logits), tt.mul(logits, neg_m))))
    return tt.mul(sum_reference(terms), tt.constant(1.0 / len(terms)))


def loss_crd_reference(preds, centers, ids):
    errs = [tt.add(p, tt.constant(centers[a] - centers)) for p, a in zip(preds, ids)]
    terms = [tt.mean_all(tt.mul(e, e)) for e in errs]
    return tt.mul(sum_reference(terms), tt.constant(1.0 / len(terms)))


def sum_reference(terms):
    acc = terms[0]
    for t in terms[1:]:
        acc = tt.add(acc, t)
    return acc


@pytest.mark.parametrize("b", [1, 3])
@pytest.mark.parametrize("stage", ["warmup", "main"])
def test_whole_matrix_losses_match_per_block_reference(b, stage):
    rng = np.random.default_rng(10 + b)
    k = 6
    centers = rng.normal(0, 2, size=(k, 3))
    masks = [rng.integers(0, 2, size=k).astype(float) for _ in range(b)]
    ids = [int(i) for i in rng.integers(0, k, size=b)]
    arrays = {
        **{f"mlogit{i}": rng.normal(0, 3, size=(k, 1)) for i in range(b)},
        **{f"coord{i}": rng.normal(0, 2, size=(k, 3)) for i in range(b)},
        "ref": rng.normal(0, 1, size=(1, 1)) ** 2,
        "text": rng.normal(0, 1, size=(1, 1)) ** 2,
    }
    w = LossWeights(w_ref=1.7, w_mask=0.3, w_text=2.25, w_crd=0.6)
    n = 4 if stage == "warmup" else 3

    def run(mask_fn, crd_fn, total_fn):
        leaves = {name: tt.leaf(v) for name, v in arrays.items()}
        l_m = mask_fn([leaves[f"mlogit{i}"] for i in range(b)], masks)
        l_c = crd_fn([leaves[f"coord{i}"] for i in range(b)], centers, ids)
        parts = [leaves["ref"], l_m, leaves["text"], l_c][:n]
        total = total_fn(parts)
        values = [l_m.item(), l_c.item(), total.item()]
        return values, tt.backward(total, leaves)

    def new_total(parts):
        return compose(named(parts), weights=w).total

    def reference_total(parts):
        weights = [w.w_ref, w.w_mask, w.w_text, w.w_crd]
        return sum_reference([tt.mul(p, tt.constant(c)) for p, c in zip(parts, weights)])

    def whole_mask(logits, masks):
        return loss_mask(tt.concat(*logits, axis=1), cols(*masks))

    def whole_crd(preds, centers, ids):
        return loss_crd(tt.concat(*preds, axis=1), centers, ids)

    got, got_grads = run(whole_mask, whole_crd, new_total)
    want, want_grads = run(loss_mask_reference, loss_crd_reference, reference_total)
    assert np.allclose(got, want, rtol=0, atol=1e-12)
    for name in arrays:
        assert np.allclose(got_grads[name], want_grads[name], rtol=0, atol=1e-12), name
    if stage == "main":
        assert not got_grads["coord0"].any()  # the main total never reads the offsets


# ---------------------------------------------------------------------------
# packed batches: each loss sums the losses of its samples


def test_packed_losses_sum_the_per_sample_references():
    rng = np.random.default_rng(21)
    sizes, b = [4, 1, 6], 3
    segments = np.repeat(np.arange(len(sizes)), sizes)  # each sample one run of rows
    k = segments.size
    scores = [rng.normal(0, 2, size=(k, 1)) for _ in range(b)]
    logits = [rng.normal(0, 2, size=(k, 1)) for _ in range(b)]
    coords = [rng.normal(0, 2, size=(k, 3)) for _ in range(b)]
    bits = [rng.integers(0, 2, size=k).astype(float) for _ in range(b)]
    centers = rng.normal(0, 2, size=(k, 3))
    text = rng.normal(0, 2, size=(len(sizes), 5))
    ids = [[int(rng.integers(0, n)) for _ in range(b)] for n in sizes]
    classes = [int(c) for c in rng.integers(0, 5, size=len(sizes))]

    def const(arrays, rows=slice(None)):
        return [tt.constant(a[rows]) for a in arrays]

    packed = [
        loss_ref(tt.constant(np.hstack(scores)), ids, sizes),
        loss_ref(tt.constant(scores[-1]), [[i[-1]] for i in ids], sizes),
        loss_mask(tt.constant(np.hstack(logits)), cols(*bits), sizes),
        loss_crd(tt.constant(np.hstack(coords)), centers, ids, sizes),
        loss_text(tt.constant(text), classes),
    ]
    want = np.zeros(len(packed))
    for s, n in enumerate(sizes):
        rows = segments == s
        want += [
            loss_ref(tt.constant(np.hstack(scores)[rows]), ids[s]).item(),
            loss_ref(tt.constant(scores[-1][rows]), [ids[s][-1]]).item(),
            loss_mask_reference(const(logits, rows), [m[rows] for m in bits]).item(),
            loss_crd_reference(const(coords, rows), centers[rows], ids[s]).item(),
            loss_text(tt.constant(text[s : s + 1]), classes[s]).item(),
        ]
    assert np.allclose([p.item() for p in packed], want, rtol=0, atol=1e-12)


PACKED_LOSSES = {  # each over three rows, two samples' ids where it takes ids
    "ref": lambda sizes: loss_ref(col([0.0, 1.0, 2.0]), [[0], [0]], sizes),
    "mask": lambda sizes: loss_mask(col([0.0, 1.0, 2.0]), cols([0.0, 1.0, 1.0]), sizes),
    "crd": lambda sizes: loss_crd(tt.constant(np.ones((3, 3))), np.eye(3), [[0], [0]], sizes),
}


@pytest.mark.parametrize("name", sorted(PACKED_LOSSES))
def test_packed_losses_refuse_sizes_that_do_not_describe_the_rows(name):
    loss = PACKED_LOSSES[name]
    assert loss([2, 1]).item() > 0.0  # a sample of two rows, then one of one
    bad = [
        [2, 2],  # four rows, not three
        [1, 1],  # two rows, not three
        [2, 0, 1],  # a zero size
        [2.0, 1.0],  # float sizes
        [[2, 1]],  # not one size a sample
    ]
    if name != "mask":
        bad.append([3])  # one sample, where the ids give two
    for sizes in bad:
        with pytest.raises(ContractError):
            loss(sizes)


def test_packed_losses_reject_ids_that_do_not_fit_the_samples():
    sizes = [2, 1]
    col3 = col([0.0, 1.0, 2.0])
    with pytest.raises(ContractError):
        loss_ref(col3, [[0], [1], [0]], sizes)  # three rows of ids, two samples
    with pytest.raises(ContractError):
        loss_ref(col3, [[0], [1]], [1, 1])  # two sizes that cover two of three rows
    with pytest.raises(ContractError):
        loss_ref(col3, [[2], [0]], sizes)  # sample 0 has two rows
    with pytest.raises(ContractError):
        loss_crd(tt.constant(np.zeros((3, 3))), np.zeros((3, 3)), [[0], [1]], sizes)
    with pytest.raises(ContractError):
        loss_text(tt.constant(np.zeros((1, 4))), [0, 1])
