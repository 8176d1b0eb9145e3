"""The grounding network.

Text and object encoders feed a stack of object-referring blocks.  Block i
sees the order suffix starting at position i; its feature-enhancement step
attends masked object features against the suffix text, attends
self-attended object features against suffix-plus-description text, fuses
both, and emits the next K x d object feature matrix.  Four heads read the
block outputs, each built when a caller first reads it: target scores,
per-block mask logits, per-block coordinate offsets, and a sentence-level
class prediction.  Every per-block value is one matrix with a column (a
group of three for offsets) per block.

The object encoder reads a scene's `points` and `centers` row by row, and
proposal rows carry no positional encoding, so the whole network is
permutation equivariant over proposals by construction.

Every attention sub-layer (projections, attention, output projection,
residual add, layer norm) is one `tt.attention_sublayer` node and every
two-layer perceptron (the text feed-forward, the point MLP and each head)
one `tt.mlp2` node, so a block records 8 tape nodes and a head 1.

A batch runs as one packed graph: the proposals of all samples stack into
one matrix, all descriptions and order names share one text-encoder pass,
and each attention is confined to its sample by an `AttentionLayout`, so a
sample's outputs equal running it alone (Krell et al., "Efficient Sequence
Packing without Cross-contamination", arXiv 2107.02027).  The work splits
in two.  `pack_batch` reads no parameter: it fits every order to B names
(`order_names`, then `trim_pad`), resamples and stacks the points and
centers, tokenizes the descriptions and order names, and builds one
layout per distinct pair of (query ids, key ids), so the two text layers
share one and so do the B blocks' self-attentions.  It can run ahead of
the step, in another process.  `GroundingModel.forward_packed` builds the
relevance masks from class labels and runs the parameter math; every
caller that packs a batch, passes labels or passes parameters calls the
two in turn.  `forward` is inference on one sample (a batch of one,
which needs no layout in the blocks).
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from itertools import accumulate
from typing import Callable, Mapping, Sequence

import numpy as np

from . import tensor as tt
from .errors import ContractError, NumericError, check_field_types
from .orderparse import ParsedOrder, order_names, trim_pad
from .scene import MAX_POINTS_PER_PROPOSAL, ClassVocab, Scene, build_masks, tokenize
from .synthgen import TEMPLATE_WORDS
from .tensor import Tensor

__all__ = [
    "ModelConfig",
    "WordVocab",
    "TextFeatures",
    "PackedText",
    "PackedBatch",
    "HeadOutputs",
    "GroundingModel",
    "pack_text",
    "pack_batch",
    "encode_text",
    "param_layout",
    "encode_objects",
    "fe_forward",
    "sinusoid_positions",
]

UNK_TOKEN = "<unk>"
# A block holds about 18 d x d matrices and Adam keeps two more copies, so a
# mistyped width past this would ask for gigabytes a block.
MAX_WIDTH = 1024


@dataclass(frozen=True)
class ModelConfig:
    d: int = 32
    b: int = 4  # referring blocks == normalized order length
    n_heads: int = 4
    points_per_proposal: int = 16
    seed: int = 0

    def __post_init__(self):
        check_field_types(self)
        if self.n_heads < 1 or self.d < 1 or self.d % self.n_heads != 0:
            raise ContractError("d and n_heads must be positive, and d divisible by n_heads")
        if self.d > MAX_WIDTH:
            raise ContractError(f"d must lie in 1..{MAX_WIDTH}, got {self.d}")
        if self.b < 1:
            raise ContractError("need at least one referring block")
        if not 1 <= self.points_per_proposal <= MAX_POINTS_PER_PROPOSAL:
            raise ContractError(f"points_per_proposal must lie in 1..{MAX_POINTS_PER_PROPOSAL}")
        if self.seed < 0:
            raise ContractError(f"seed must be non-negative, got {self.seed}")


# Order names whose token ids a `WordVocab` keeps: past this many, a new
# name is encoded on every call, so free-text names cannot grow the dict.
_NAME_IDS_MAX = 4096


@dataclass(frozen=True)
class WordVocab:
    """Token list with <unk> at id 0; unknown words map to <unk>."""

    tokens: tuple[str, ...]

    def __post_init__(self):
        if isinstance(self.tokens, str) or not all(isinstance(t, str) for t in self.tokens):
            raise ContractError(f"word tokens must be a sequence of strings, got {self.tokens!r}")
        if not self.tokens or self.tokens[0] != UNK_TOKEN:
            raise ContractError(f"token 0 must be {UNK_TOKEN!r}")
        ids = {t: i for i, t in enumerate(self.tokens)}
        if len(ids) != len(self.tokens):
            raise ContractError("word vocabulary repeats a token")
        object.__setattr__(self, "_ids", ids)
        object.__setattr__(self, "_name_ids", {})

    @classmethod
    def build(cls, class_vocab: ClassVocab) -> "WordVocab":
        words: set[str] = set(TEMPLATE_WORDS)
        for name in class_vocab.names:
            words.update(tokenize(name))
        return cls(tokens=(UNK_TOKEN, *sorted(words)))

    def __len__(self) -> int:
        return len(self.tokens)

    def encode(self, words: Sequence[str]) -> list[int]:
        return [self._ids.get(w, 0) for w in words]

    def encode_name(self, name: str) -> tuple[int, ...]:
        """The ids of a class name's tokens, encoded on its first call and
        then read back: order names repeat from sample to sample."""
        ids = self._name_ids.get(name)
        if ids is None:
            ids = tuple(self.encode(tokenize(name)))
            if len(self._name_ids) < _NAME_IDS_MAX:
                self._name_ids[name] = ids
        return ids


@dataclass
class TextFeatures:
    """Sentence and word features of S descriptions, plus order-name features.

    `sentences` holds one pooled row per description (description s at row
    s) and `words` the word rows of each description in turn.
    `order_features` holds one pooled row per order name given to
    `encode_text`, in that order.
    """

    sentences: Tensor  # S x d
    words: Tensor  # (sum of token counts) x d
    order_features: Tensor  # one row per order name


@dataclass
class PackedText:
    """The parameter-free half of `encode_text`, built by `pack_text`.

    The pieces are the descriptions, then every distinct order name in
    first-appearance order.  Their token rows stack into one matrix;
    positions restart at 0 in each piece, and `layout` keeps attention
    inside a piece, for both encoder layers.  Row p of `averaging`
    mean-pools piece p, and `slots` names the pooled row of each order
    name.
    """

    ids: np.ndarray  # token id of every row
    positions: np.ndarray  # rows x d: each row's sinusoid position code
    layout: tt.AttentionLayout
    averaging: np.ndarray  # pieces x rows
    slots: dict[str, int]  # order name -> pooled row
    token_counts: tuple[int, ...]  # words per description


@dataclass
class PackedBatch:
    """What a forward reads of its S samples, built by `pack_batch` without
    parameters: every array a step needs, the masks' class labels too.

    Sample s owns one run of `sizes[s]` consecutive proposal rows, in batch
    order; no other field says which rows are whose.  `points` stacks each
    proposal's resampled points, `points_per_proposal` rows a proposal.
    `names` is block-major: name j of sample s sits at j*S + s, so sample
    s's order is `names[s::S]`.  `layouts` holds each block's four
    attention layouts (self, low, up, fuse), None for one sample.
    """

    points: np.ndarray  # (K * points_per_proposal) x 6
    centers: np.ndarray  # K x 3
    labels: np.ndarray  # (K,) class id of each proposal row
    vocab: ClassVocab  # the scenes' one class vocabulary, that of `labels`
    sizes: tuple[int, ...]  # proposals per sample
    text: PackedText
    names: list[str]
    layouts: list[tuple[tt.AttentionLayout, ...]] | None

    @property
    def samples(self) -> int:
        return len(self.sizes)

    def order(self, s: int) -> list[str]:
        return self.names[s :: self.samples]

    def by_sample(self, rows: np.ndarray) -> list[np.ndarray]:
        """A value per proposal row, cut into each sample's rows in batch order."""
        return [rows[end - k : end] for k, end in zip(self.sizes, accumulate(self.sizes))]


@dataclass
class HeadOutputs:
    """The block outputs and masks of a forward, and the heads that read them.

    Each head is built from the block outputs on its first read and cached,
    so a caller builds only the heads it reads; a head is one `tt.mlp2`
    node per block it reads, plus one concat for the per-block ones.  Read
    every head a loss needs before `backward`: a head first read after it
    records its ops on the next step's tape.

    For a packed batch of S samples the K rows below are the samples'
    proposals stacked in batch order, `sizes[s]` consecutive rows for
    sample s, and the text head has one row per sample.  Column i (from 0)
    of a per-block matrix belongs to block i and is read from its output
    F_{i+2}; in `coord_pred` block i owns columns 3i .. 3i+2.
    """

    blocks: list[Tensor]  # F_2 .. F_{B+1}, each K x d
    sentences: Tensor  # S x d, a sentence row per sample
    params: Mapping[str, Tensor] = field(repr=False)
    masks: np.ndarray  # K x B of 0/1: M_1 .. M_B
    sizes: tuple[int, ...]  # proposal rows per sample, in batch order

    @cached_property
    def scores(self) -> Tensor:  # K x 1 target scores, read from F_{B+1}
        return _mlp2(self.params, "head.score", self.blocks[-1])

    @cached_property
    def block_scores(self) -> Tensor:  # K x B; its last column is `scores`
        earlier = [_mlp2(self.params, "head.score", f) for f in self.blocks[:-1]]
        return tt.concat(*earlier, self.scores, axis=1)

    @cached_property
    def mask_logits(self) -> Tensor:  # K x B
        heads = (_mlp2(self.params, f"head.mask{i}", f) for i, f in enumerate(self.blocks))
        return tt.concat(*heads, axis=1)

    @cached_property
    def coord_pred(self) -> Tensor:  # K x 3B
        heads = (_mlp2(self.params, f"head.coord{i}", f) for i, f in enumerate(self.blocks))
        return tt.concat(*heads, axis=1)

    @cached_property
    def text_class_logits(self) -> Tensor:  # S x C
        return _mlp2(self.params, "head.text", self.sentences)

    def predicted_id(self) -> int:
        """The top-scoring proposal of a batch of one.  A NaN or an infinity
        among the scores raises `NumericError`: argmax would read the first
        as the maximum and break a tie among the second by id."""
        if len(self.sizes) != 1:
            raise ContractError("predicted_id needs a batch of one sample")
        scores = self.scores.data[:, 0]
        if not np.isfinite(scores).all():
            raise NumericError(f"non-finite target score: {scores.tolist()}")
        # argmax returns the first maximum, i.e. ties go to the lowest id
        return int(np.argmax(scores))


@lru_cache(maxsize=64)
def sinusoid_positions(n: int, d: int) -> np.ndarray:
    """The n x d sinusoid position table, built once per (n, d) and then
    shared: read-only, so no caller can change what the next one reads."""
    pos = np.arange(n, dtype=np.float64)[:, None]
    dim = np.arange(d, dtype=np.float64)[None, :]
    angles = pos / np.power(10000.0, 2.0 * (dim // 2) / d)
    out = np.empty((n, d))
    out[:, 0::2] = np.sin(angles[:, 0::2])
    out[:, 1::2] = np.cos(angles[:, 1::2])
    out.flags.writeable = False
    return out


# ---------------------------------------------------------------------------
# parameter initialization

def _attention_layout(prefix, d):
    # No key bias: a shared key offset shifts every logit in a softmax row
    # by the same amount, so it can never affect the output.
    yield f"{prefix}.wk", (d, d), d**-0.5
    for w, b in (("wq", "bq"), ("wv", "bv"), ("wo", "bo")):
        yield f"{prefix}.{w}", (d, d), d**-0.5
        yield f"{prefix}.{b}", (1, d), "zeros"


def _ln_layout(prefix, d):
    yield f"{prefix}.g", (1, d), "ones"
    yield f"{prefix}.b", (1, d), "zeros"


def _linear_layout(prefix, n_in, n_out):
    yield f"{prefix}.w", (n_in, n_out), n_in**-0.5
    yield f"{prefix}.b", (1, n_out), "zeros"


def param_layout(cfg: ModelConfig, n_words: int, n_classes: int):
    """Yield (name, shape, init) for every parameter, in initialization order.

    `init` is the standard deviation of a zero-mean normal draw, or
    "zeros" / "ones".  Shapes come without allocating anything, so a
    checkpoint's arrays can be checked against an untrusted config.
    """
    d = cfg.d
    yield "emb", (n_words, d), d**-0.5
    for layer in range(2):
        yield from _attention_layout(f"txt{layer}.attn", d)
        yield from _ln_layout(f"txt{layer}.ln1", d)
        yield from _linear_layout(f"txt{layer}.ffn.1", d, 2 * d)
        yield from _linear_layout(f"txt{layer}.ffn.2", 2 * d, d)
        yield from _ln_layout(f"txt{layer}.ln2", d)
    yield from _linear_layout("obj.p1", 6, d)
    yield from _linear_layout("obj.p2", d, d)
    yield from _linear_layout("obj.c", 3, d)
    yield from _linear_layout("obj.out", 2 * d, d)
    for i in range(cfg.b):
        for part in ("self", "low", "up", "fuse"):
            yield from _attention_layout(f"fe{i}.{part}", d)
        for ln in ("self_ln", "low_ln", "up_ln", "out_ln"):
            yield from _ln_layout(f"fe{i}.{ln}", d)
        yield from _linear_layout(f"head.mask{i}.1", d, d)
        yield from _linear_layout(f"head.mask{i}.2", d, 1)
        yield from _linear_layout(f"head.coord{i}.1", d, d)
        yield from _linear_layout(f"head.coord{i}.2", d, 3)
    yield from _linear_layout("head.score.1", d, d)
    yield from _linear_layout("head.score.2", d, 1)
    yield from _linear_layout("head.text.1", d, d)
    yield from _linear_layout("head.text.2", d, n_classes)


def init_params(layout: list[tuple], seed: int) -> tt.FlatParams:
    """One vector in `layout`, a list of `param_layout`'s triples."""
    rng = np.random.default_rng(seed)
    p = tt.FlatParams((name, shape) for name, shape, _ in layout)
    for (_, shape, init), view in zip(layout, p.values()):
        # The vector starts at zero; one draw per normal array, in layout order.
        if init == "ones":
            view.fill(1.0)
        elif init != "zeros":
            view[...] = rng.normal(0.0, init, size=shape)
    return p


# ---------------------------------------------------------------------------
# building blocks


def _layer_norm(p: dict[str, Tensor], prefix: str, x: Tensor) -> Tensor:
    return tt.layer_norm(x, p[f"{prefix}.g"], p[f"{prefix}.b"])


# A model has a few dozen sub-layers and heads, so these caches stay small.
@lru_cache(maxsize=None)
def _sublayer_params(attn: str, ln: str) -> Callable[[Mapping[str, Tensor]], tuple]:
    """The nine parameters of one attention sub-layer, in the order
    `tt.attention_sublayer` takes them: their names, built once, fetched
    from a parameter mapping in one call."""
    names = (f"{attn}.{name}" for name in ("wq", "bq", "wk", "wv", "bv", "wo", "bo"))
    return operator.itemgetter(*names, f"{ln}.g", f"{ln}.b")


@lru_cache(maxsize=None)
def _mlp2_params(prefix: str) -> Callable[[Mapping[str, Tensor]], tuple]:
    """The four parameters of one two-layer perceptron, in `tt.mlp2` order."""
    return operator.itemgetter(*(f"{prefix}.{name}" for name in ("1.w", "1.b", "2.w", "2.b")))


def _residual_attention(
    p: dict[str, Tensor],
    attn: str,
    ln: str,
    x: Tensor,
    kv: Tensor,
    n_heads: int,
    layout: tt.AttentionLayout | None = None,
) -> Tensor:
    """layer_norm(x + attention(x, kv)), x attending over kv with the
    projections `attn` and the norm `ln`: one `tt.attention_sublayer` node."""
    return tt.attention_sublayer(x, kv, *_sublayer_params(attn, ln)(p), n_heads, layout)


def _linear(p: dict[str, Tensor], prefix: str, x: Tensor) -> Tensor:
    return tt.add(tt.matmul(x, p[f"{prefix}.w"]), p[f"{prefix}.b"])


def _mlp2(p: dict[str, Tensor], prefix: str, x: Tensor) -> Tensor:
    """linear `prefix.2` of relu of linear `prefix.1`: one `tt.mlp2` node."""
    return tt.mlp2(x, *_mlp2_params(prefix)(p))


def _encoder_layer(
    p: dict[str, Tensor], prefix: str, x: Tensor, n_heads: int, layout: tt.AttentionLayout | None
) -> Tensor:
    x = _residual_attention(p, f"{prefix}.attn", f"{prefix}.ln1", x, x, n_heads, layout)
    return _layer_norm(p, f"{prefix}.ln2", tt.add(x, _mlp2(p, f"{prefix}.ffn", x)))


def pack_text(
    descriptions: Sequence[Sequence[str]],
    order_names: Sequence[str],
    word_vocab: WordVocab,
    cfg: ModelConfig,
) -> PackedText:
    """Token ids, position codes, the attention layout and the pooling of
    the descriptions (one token list each) and the distinct order names."""
    if not descriptions:
        raise ContractError("need at least one description")
    if any(isinstance(tokens, str) for tokens in descriptions):
        raise ContractError("each description must be a token list, not a string")
    s = len(descriptions)
    slots = {name: i for i, name in enumerate(dict.fromkeys(order_names), start=s)}
    pieces = [word_vocab.encode(tokens) for tokens in descriptions]
    if not all(pieces):
        raise ContractError("cannot encode an empty description")
    for name in slots:
        pieces.append(word_vocab.encode_name(name))
        if not pieces[-1]:
            raise ContractError(f"order name {name!r} has no tokens")
    lengths = [len(ids) for ids in pieces]
    segments = np.repeat(np.arange(len(pieces)), lengths)
    positions = np.concatenate([np.arange(n) for n in lengths])
    averaging = np.zeros((len(pieces), segments.size))
    averaging[segments, np.arange(segments.size)] = 1.0 / np.repeat(lengths, lengths)
    return PackedText(
        ids=np.concatenate(pieces),
        positions=sinusoid_positions(max(lengths), cfg.d)[positions],
        layout=tt.AttentionLayout(segments),
        averaging=averaging,
        slots=slots,
        token_counts=tuple(lengths[:s]),
    )


def encode_text(
    text: PackedText,
    order_names: Sequence[str],
    params: dict[str, Tensor],
    cfg: ModelConfig,
) -> TextFeatures:
    """Encode a packed text through one shared encoder.

    Every description and every distinct order name are pieces of one
    matrix, encoded in one pass: positions restart at 0 in each piece and
    attention never crosses a piece, so each piece encodes as it would
    alone.  One averaging matmul mean-pools every piece, and each of
    `order_names` (names `pack_text` saw) reads its name's one pooled row.
    """
    x = tt.take_rows(params["emb"], text.ids)
    x = tt.add(x, tt.constant(text.positions))
    for layer in range(2):
        x = _encoder_layer(params, f"txt{layer}", x, cfg.n_heads, text.layout)
    pooled = tt.matmul(tt.constant(text.averaging), x)
    return TextFeatures(
        sentences=tt.slice_rows(pooled, 0, len(text.token_counts)),
        words=tt.slice_rows(x, 0, sum(text.token_counts)),
        order_features=tt.take_rows(pooled, [text.slots[name] for name in order_names]),
    )


def _resample_points(points: np.ndarray, count: int) -> np.ndarray:
    n = points.shape[0]
    if n == count:
        return points
    if n > count:
        idx = np.linspace(0, n - 1, num=count).astype(int)
        return points[idx]
    return np.resize(points, (count, points.shape[1]))


def encode_objects(batch: PackedBatch, params: dict[str, Tensor], cfg: ModelConfig) -> Tensor:
    """F_1: per-proposal point MLP + max-pool, concatenated with a center code.

    The proposals of all samples stack in order into one K x d matrix;
    every row depends on its own proposal only.
    """
    # relu(linear obj.p2 of relu(linear obj.p1)): the point MLP, one mlp2 node
    mlp = [params[name] for name in ("obj.p1.w", "obj.p1.b", "obj.p2.w", "obj.p2.b")]
    h = tt.relu(tt.mlp2(tt.constant(batch.points), *mlp))
    pooled = tt.max_rows_per_block(h, cfg.points_per_proposal)  # K x d
    c = tt.relu(_linear(params, "obj.c", tt.constant(batch.centers)))
    return _linear(params, "obj.out", tt.concat(pooled, c, axis=1))


def _block_layouts(sizes: Sequence[int], token_counts: Sequence[int], b: int):
    """Each block's (self, low, up, fuse) attention layouts for S >= 2
    samples; every block shares the one self-attention layout."""
    s = len(token_counts)
    ids = np.arange(s)
    segments = np.repeat(ids, sizes)  # the sample of each proposal row
    # the sample of each sentence row, then of each word row: the order a
    # block's up-branch query stacks them in
    text_segments = np.concatenate([ids, np.repeat(ids, token_counts)])
    own = tt.AttentionLayout(segments)
    layouts = []
    for block in range(b):
        suffix_ids = np.tile(np.arange(s), b - block)
        up_ids = np.concatenate([suffix_ids, text_segments])
        context_ids = np.concatenate([suffix_ids, up_ids])
        layouts.append(
            (
                own,
                tt.AttentionLayout(suffix_ids, segments),
                tt.AttentionLayout(up_ids, segments),
                tt.AttentionLayout(segments, context_ids),
            )
        )
    return layouts


def pack_batch(
    scenes: Sequence[Scene],
    orders: Sequence[ParsedOrder | Sequence[str]],
    descriptions: Sequence[str],
    word_vocab: WordVocab,
    cfg: ModelConfig,
) -> PackedBatch:
    """Everything S samples give a forward, built without parameters: see
    `PackedBatch`.  The scenes must share one class vocabulary, and each
    order, any parser reply `order_names` takes, is fitted to `cfg.b` names
    by `trim_pad`: the blocks read the fitted names."""
    s = len(scenes)
    if s < 1 or len(orders) != s or len(descriptions) != s:
        raise ContractError("need one order and one description per scene, and a scene")
    vocab = scenes[0].vocab
    if any(scene.vocab != vocab for scene in scenes[1:]):
        raise ContractError("the scenes of a batch must share one class vocabulary")
    orders = [trim_pad(order_names(order), cfg.b) for order in orders]
    tokens = [tokenize(description) for description in descriptions]
    names = [order[j] for j in range(cfg.b) for order in orders]  # block-major
    text = pack_text(tokens, names, word_vocab, cfg)
    sizes = tuple(len(scene) for scene in scenes)
    i_pts = cfg.points_per_proposal
    return PackedBatch(
        points=np.concatenate(
            [_resample_points(p, i_pts) for scene in scenes for p in scene.points]
        ),
        centers=np.concatenate([scene.centers for scene in scenes]),
        labels=np.concatenate([scene.class_ids for scene in scenes]),
        vocab=vocab,
        sizes=sizes,
        text=text,
        names=names,
        layouts=None if s == 1 else _block_layouts(sizes, text.token_counts, cfg.b),
    )


def fe_forward(
    f: Tensor,
    mask: np.ndarray,
    text: TextFeatures,
    params: dict[str, Tensor],
    block: int,
    cfg: ModelConfig,
    layouts: tuple[tt.AttentionLayout, ...] | None,
) -> Tensor:
    """One feature-enhancement step: masked branch, context branch, fusion.

    `mask` holds one 0/1 entry per row of f (this block's column of the
    relevance masks); the masked branch zeroes the rows outside it.  For a
    packed batch of S samples, `text.order_features` is block-major: name
    j of sample s sits at row j*S + s, so the suffix from `block` on is
    one slice, and `layouts` (this block's entry of `PackedBatch.layouts`)
    keeps each attention inside a sample.  One sample needs no layout.
    """
    if not 0 <= block < cfg.b:
        raise ContractError(f"block index {block} outside 0..{cfg.b - 1}")
    n = text.sentences.shape[0]  # samples
    if (layouts is None) != (n == 1):
        raise ContractError("one sample takes no attention layouts, and more need them")
    own, low, up, fuse = layouts or (None, None, None, None)
    pre = f"fe{block}"
    n_heads = cfg.n_heads
    f_mask = tt.mul(f, tt.constant(np.reshape(mask, (-1, 1))))
    suffix = tt.slice_rows(text.order_features, block * n, cfg.b * n)
    attended = _residual_attention(params, f"{pre}.self", f"{pre}.self_ln", f, f, n_heads, own)
    lower = _residual_attention(params, f"{pre}.low", f"{pre}.low_ln", suffix, f_mask, n_heads, low)
    up_query = tt.concat(suffix, text.sentences, text.words)
    upper = _residual_attention(
        params, f"{pre}.up", f"{pre}.up_ln", up_query, attended, n_heads, up
    )
    context = tt.concat(lower, upper)
    return _residual_attention(
        params, f"{pre}.fuse", f"{pre}.out_ln", attended, context, n_heads, fuse
    )


def _finite(f: Tensor, block: int) -> Tensor:
    """F_block itself, once every entry is finite."""
    if not np.isfinite(f.data).all():
        raise ContractError(f"non-finite object features at block {block}")
    return f


# ---------------------------------------------------------------------------
# full model


class GroundingModel:
    """Parameters plus vocabularies; `forward_packed` runs the whole pipeline
    on a `pack_batch` batch, and `forward` on one sample."""

    def __init__(
        self,
        cfg: ModelConfig,
        class_vocab: ClassVocab,
        word_vocab: WordVocab | None = None,
        params: Mapping[str, np.ndarray] | None = None,
    ):
        word_vocab = word_vocab or WordVocab.build(class_vocab)
        self.cfg = cfg
        self.class_vocab = class_vocab
        self.word_vocab = word_vocab
        layout = list(param_layout(cfg, len(word_vocab), len(class_vocab)))
        shapes = [(name, shape) for name, shape, _ in layout]
        # A FlatParams in this config's layout is adopted, not copied (a
        # loaded checkpoint's vector); any other mapping is copied into a new
        # vector after its names and shapes are checked.
        if params is None:
            self._params = init_params(layout, cfg.seed)
        elif isinstance(params, tt.FlatParams) and params.layout() == shapes:
            self._params = params
        else:
            self._params = tt.FlatParams(shapes)
            self._params.assign(params)

    @property
    def params(self) -> tt.FlatParams:
        """Every parameter, as named views into one vector in `param_layout` order."""
        return self._params

    @params.setter
    def params(self, arrays) -> None:
        # In place: the views the vector already has stay valid, and no
        # second copy of the parameters is held.
        self._params.assign(arrays)

    def forward(
        self, scene: Scene, order: ParsedOrder | Sequence[str], description: str
    ) -> HeadOutputs:
        """Inference on one sample, under its scene's labels and the current
        parameters: a packed batch of one, its order fitted by `pack_batch`."""
        return self.forward_packed(
            pack_batch([scene], [order], [description], self.word_vocab, self.cfg)
        )

    def check_vocab(self, vocabs: Sequence[ClassVocab], whose: str) -> None:
        """Refuse class ids from any vocabulary but the model's own: its text
        head and its masks would read them as other classes."""
        if any(vocab != self.class_vocab for vocab in vocabs):
            raise ContractError(f"{whose} class vocabulary is not the model's")

    def masks(self, batch: PackedBatch, labels: Sequence[int] | None = None) -> np.ndarray:
        """The K x B relevance masks of a packed batch under `labels`, one
        class id per proposal row: checked here if given, else the batch's
        own, which `Scene` checked.  A batch of another class vocabulary is
        refused either way: the model would read its labels as other classes."""
        self.check_vocab([batch.vocab], "a scene's")
        rows = len(batch.labels)
        labels = batch.labels if labels is None else self._checked_labels(labels, rows)
        per_sample = batch.by_sample(labels)
        return np.concatenate(
            [build_masks(l, batch.order(s), self.class_vocab) for s, l in enumerate(per_sample)]
        )

    def _checked_labels(self, labels: Sequence[int], rows: int) -> np.ndarray:
        try:
            ids = np.asarray(labels)
        except ValueError as exc:  # a ragged list
            raise ContractError(f"labels must be one class id per proposal row: {exc}") from exc
        # A bool is not a class id, and neither is a float, even a whole one.
        if ids.shape != (rows,) or ids.dtype.kind not in "iu":
            raise ContractError(
                f"labels must be {rows} integer class ids, one per proposal row, "
                f"got {ids.dtype} of shape {ids.shape}"
            )
        if ids.min() < 0 or ids.max() >= len(self.class_vocab):
            raise ContractError(f"labels must lie in 0..{len(self.class_vocab) - 1}")
        return ids

    def forward_packed(
        self,
        batch: PackedBatch,
        labels: Sequence[int] | None = None,
        params: Mapping[str, Tensor] | None = None,
    ) -> HeadOutputs:
        """The parameter math of a packed batch: proposals as one matrix,
        one text-encoder pass, every attention confined to its sample, so
        each sample's outputs equal running it alone.  The masks come from
        `labels` per `masks`, which refuses a batch of another class
        vocabulary.  `params` defaults to the constant wraps of
        `self.params`; a training step passes `self.params.leaves()`."""
        cfg = self.cfg
        masks = self.masks(batch, labels)
        p = params if params is not None else self.params.constants()
        text = encode_text(batch.text, batch.names, p, cfg)
        features = [_finite(encode_objects(batch, p, cfg), 1)]  # F_1 .. F_{B+1}
        for i in range(cfg.b):
            layouts = None if batch.layouts is None else batch.layouts[i]
            nxt = fe_forward(features[-1], masks[:, i], text, p, i, cfg, layouts)
            features.append(_finite(nxt, i + 2))
        return HeadOutputs(features[1:], text.sentences, p, masks, batch.sizes)
