"""Tests for the scene model, relevance masks, and relation selection."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vigor.errors import ContractError, NotFoundError
from vigor.scene import (
    ClassVocab,
    Scene,
    build_masks,
    permute_scene,
    relation_select,
)


def box_points(center, half=0.5):
    """8 corner points of a cube around `center`, grey color."""
    c = np.asarray(center, dtype=float)
    corners = []
    for dx in (-half, half):
        for dy in (-half, half):
            for dz in (-half, half):
                corners.append([c[0] + dx, c[1] + dy, c[2] + dz, 0.5, 0.5, 0.5])
    return np.array(corners)


def make_scene(centers, classes, vocab):
    return Scene(classes, [box_points(ctr) for ctr in centers], vocab)


VOCAB = ClassVocab(("chair", "table", "door", "water bottle", "easy chair"))


# ---------------------------------------------------------------------------
# centers and bboxes


def proposal_of(xyz, rgb=0.5):
    """A one-proposal scene."""
    xyz = np.asarray(xyz, dtype=float)
    return Scene([0], [np.hstack([xyz, np.full_like(xyz, rgb)])], VOCAB)


def test_center_bbox_unit_cube():
    p = proposal_of([[0.0, 0, 0], [1, 1, 1], [0.5, 0.2, 0.9]])
    assert np.array_equal(p.centers[0], [0.5, 0.5, 0.5])


def test_center_bbox_single_point():
    assert np.array_equal(proposal_of([[2.0, -1.0, 3.0]]).centers[0], [2.0, -1.0, 3.0])


def test_center_bbox_random_oracle():
    rng = np.random.default_rng(0)
    for _ in range(50):
        pts = rng.normal(size=(rng.integers(1, 30), 3)) * 5
        # colours far outside the xyz range must not move the center
        center = proposal_of(pts, rgb=100.0).centers[0]
        # scalar re-derivation per axis
        for ax in range(3):
            lo = min(float(v) for v in pts[:, ax])
            hi = max(float(v) for v in pts[:, ax])
            assert center[ax] == (lo + hi) / 2


def test_center_bbox_empty_rejected():
    with pytest.raises(ContractError):
        proposal_of(np.zeros((0, 3)))


def test_proposal_center_is_bbox_center():
    p = Scene([0], [box_points([1.0, 2.0, 3.0])], VOCAB)
    assert np.allclose(p.centers[0], [1.0, 2.0, 3.0])


@pytest.mark.parametrize(
    "center",
    [
        [1.0, 2.0],
        [1.0, 2.0, 3.0, 4.0],
        [[1.0, 2.0, 3.0]],
        "abc",
        [1.0, 2.0, float("nan")],
        [1.0, {}, 3.0],
    ],
    ids=["two", "four", "nested", "string", "nan", "object"],
)
def test_proposal_refuses_a_stored_center_that_is_not_three_finite_numbers(center):
    with pytest.raises(ContractError, match="three finite numbers"):
        Scene([0], [box_points([1.0, 2.0, 3.0])], VOCAB, centers=[center])
    stored = Scene([0], [box_points([1.0, 2.0, 3.0])], VOCAB, centers=[[1, 2, 3]])
    assert stored.centers.dtype == np.float64 and stored.centers.shape == (1, 3)


def test_scene_centers_of_ragged_proposals_match_the_oracle():
    """Proposals of different point counts: each center comes from its own rows."""
    rng = np.random.default_rng(4)
    for _ in range(20):
        sizes = rng.integers(1, 12, size=int(rng.integers(1, 8)))
        clouds = [rng.normal(size=(int(n), 6)) * 5 for n in sizes]
        scene = Scene([0] * len(clouds), clouds, VOCAB)
        for cloud, center in zip(clouds, scene.centers, strict=True):
            for ax in range(3):
                assert center[ax] == (min(cloud[:, ax]) + max(cloud[:, ax])) / 2


BOX = box_points([0.0, 0.0, 0.0])


@pytest.mark.parametrize(
    "class_ids, points, match",
    [
        ([], [], "1-D array of class ids"),
        ([0.0], [BOX], "integers"),
        ([0, 1], [BOX], "2 class ids but 1 point arrays"),
        ([0, 5], [BOX, BOX], "proposal 1 has class id outside the vocabulary"),
        ([0, 1], [BOX, BOX[:, :3]], "proposal 1: points must be non-empty Ix6"),
        ([0, 1, 2], [BOX, BOX, np.where(BOX > 0, np.inf, BOX)], "proposal 2: .*finite"),
    ],
    ids=["empty", "float-ids", "count", "class-range", "xyz-only", "infinite"],
)
def test_scene_refuses_malformed_arrays(class_ids, points, match):
    with pytest.raises(ContractError, match=match):
        Scene(class_ids, points, VOCAB)


def test_take_keeps_the_stored_centers():
    stored = np.array([[0.0, 0.0, 0.0], [3.000001, 0.0, 0.0]])  # within the bbox tolerance
    scene = Scene([0, 1], [box_points([0, 0, 0]), box_points([3, 0, 0])], VOCAB, centers=stored)
    taken = scene.take([1, 0])
    assert np.array_equal(taken.centers, stored[[1, 0]])
    assert taken.class_ids.tolist() == [1, 0]


# ---------------------------------------------------------------------------
# vocab


def test_vocab_lookup_normalizes():
    assert VOCAB.index("  Chair ") == 0
    assert VOCAB.index("WATER  BOTTLE") == 3
    assert "Easy Chair" in VOCAB
    assert VOCAB.name(1) == "table"
    with pytest.raises(NotFoundError):
        VOCAB.index("lamp")


def test_vocab_rejects_duplicates():
    with pytest.raises(ContractError):
        ClassVocab(("chair", "Chair"))


# ---------------------------------------------------------------------------
# masks


def test_build_mask_example():
    scene = make_scene(
        centers=[[0, 0, 0], [1, 0, 0], [2, 0, 0], [3, 0, 0]],
        classes=[0, 1, 0, 2],  # chair, table, chair, door
        vocab=VOCAB,
    )
    mask = build_masks(scene.class_ids, ["table", "chair"], VOCAB)[:, 0]
    assert np.array_equal(mask, [1, 1, 1, 0])
    assert mask.sum() == 3


def test_build_mask_unknown_name_dropped(caplog):
    labels = [0, 1, 2]
    with caplog.at_level("WARNING"):
        mask = build_masks(labels, ["chair", "ghost"], VOCAB)[:, 0]
    assert np.array_equal(mask, [1, 0, 0])
    assert any("ghost" in r.message for r in caplog.records)


def test_build_mask_set_membership_oracle():
    rng = np.random.default_rng(1)
    for _ in range(100):
        k = int(rng.integers(1, 10))
        labels = [int(c) for c in rng.integers(0, len(VOCAB), size=k)]
        suffix_ids = rng.choice(len(VOCAB), size=rng.integers(1, 4), replace=False)
        suffix = [VOCAB.name(int(i)) for i in suffix_ids]
        mask = build_masks(labels, suffix, VOCAB)[:, 0]
        want = [1.0 if VOCAB.name(c) in set(suffix) else 0.0 for c in labels]
        assert np.array_equal(mask, want)


@settings(max_examples=100, deadline=None)
@given(
    labels=st.lists(st.integers(0, 4), min_size=1, max_size=8),
    suffix_ids=st.lists(st.integers(0, 4), min_size=1, max_size=6),
    seed=st.integers(0, 10_000),
)
def test_build_mask_permutation_duplication_invariant(labels, suffix_ids, seed):
    rng = np.random.default_rng(seed)
    suffix = [VOCAB.name(i) for i in suffix_ids]
    base = build_masks(labels, suffix, VOCAB)[:, 0]
    shuffled = list(suffix)
    rng.shuffle(shuffled)
    dup = shuffled + [shuffled[0]] * int(rng.integers(0, 3))
    assert np.array_equal(build_masks(labels, dup, VOCAB)[:, 0], base)


def test_mask_suffix_monotonicity():
    rng = np.random.default_rng(2)
    for _ in range(50):
        labels = [int(c) for c in rng.integers(0, len(VOCAB), size=6)]
        order = [VOCAB.name(int(i)) for i in rng.choice(len(VOCAB), size=4, replace=False)]
        prev = None
        for bits in build_masks(labels, order, VOCAB).T:  # block by block
            if prev is not None:
                assert np.all(bits <= prev)  # unmasked set never grows
            prev = bits


@settings(max_examples=200, deadline=None)
@given(
    labels=st.lists(st.integers(0, 4), min_size=1, max_size=8),
    order_ids=st.lists(st.integers(0, 6), min_size=1, max_size=6),  # 5 and 6 are unknown
    seed=st.integers(0, 10_000),
)
def test_build_masks_columns_equal_the_suffix_oracle(labels, order_ids, seed):
    """Column i is the set-membership oracle of order[i:]; the array is K x B
    of 0.0 / 1.0, and a shuffled or duplicated suffix gives the same column."""
    rng = np.random.default_rng(seed)
    order = [VOCAB.name(i) if i < len(VOCAB) else f"ghost {i}" for i in order_ids]
    masks = build_masks(labels, order, VOCAB)
    assert masks.shape == (len(labels), len(order)) and masks.dtype == np.float64
    for i in range(len(order)):
        suffix = set(order[i:])
        want = [1.0 if VOCAB.name(c) in suffix else 0.0 for c in labels]
        assert np.array_equal(masks[:, i], want)
        shuffled = list(order[i:])
        rng.shuffle(shuffled)
        dup = shuffled + shuffled[: int(rng.integers(0, 3))]
        assert np.array_equal(build_masks(labels, dup, VOCAB)[:, 0], want)


# ---------------------------------------------------------------------------
# relation selection


def test_relation_select_farthest_nearest():
    scene = make_scene(
        centers=[[0, 0, 0], [3, 0, 0], [9, 0, 0]],
        classes=[2, 1, 1],  # door, table, table
        vocab=VOCAB,
    )
    ref = scene.centers[0]
    far = relation_select(scene, class_id=1, ref_center=ref, relation="farthest")
    near = relation_select(scene, class_id=1, ref_center=ref, relation="nearest")
    assert far == 2
    assert near == 1


def test_relation_select_tie_breaks_lowest_id():
    scene = make_scene(
        centers=[[0, 0, 0], [-4, 0, 0], [4, 0, 0]],
        classes=[2, 1, 1],
        vocab=VOCAB,
    )
    picked = relation_select(scene, 1, scene.centers[0], "farthest")
    assert picked == 1


def test_relation_select_missing_class():
    scene = make_scene(centers=[[0, 0, 0]], classes=[0], vocab=VOCAB)
    with pytest.raises(NotFoundError):
        relation_select(scene, 3, np.zeros(3), "farthest")
    with pytest.raises(ContractError):
        relation_select(scene, 0, np.zeros(3), "closest")


def test_relation_select_exhaustive_oracle():
    rng = np.random.default_rng(3)
    vocab = ClassVocab(tuple(f"c{i}" for i in range(4)))
    for _ in range(200):
        k = int(rng.integers(2, 50))
        centers = rng.uniform(0, 10, size=(k, 3))
        classes = [int(c) for c in rng.integers(0, 4, size=k)]
        scene = make_scene(centers, classes, vocab)
        ref = rng.uniform(0, 10, size=3)
        target_class = classes[int(rng.integers(0, k))]
        for relation in ("farthest", "nearest"):
            picked = relation_select(scene, target_class, ref, relation)
            # brute force over proposals of that class, ids ascending
            best_id, best_d = None, None
            for pid, (class_id, center) in enumerate(zip(scene.class_ids, scene.centers)):
                if class_id != target_class:
                    continue
                d = float(np.sqrt(((center - ref) ** 2).sum()))
                better = (
                    best_d is None
                    or (relation == "farthest" and d > best_d)
                    or (relation == "nearest" and d < best_d)
                )
                if better:
                    best_id, best_d = pid, d
            assert picked == best_id


# ---------------------------------------------------------------------------
# permutation helper


def test_permute_scene_roundtrip():
    scene = make_scene(
        centers=[[0, 0, 0], [1, 1, 1], [2, 2, 2]],
        classes=[0, 1, 2],
        vocab=VOCAB,
    )
    perm = [2, 0, 1]
    permuted = permute_scene(scene, perm)
    assert permuted.class_ids.tolist() == [2, 0, 1]
    assert np.array_equal(permuted.centers[0], scene.centers[2])
    with pytest.raises(ContractError):
        permute_scene(scene, [0, 0, 1])
