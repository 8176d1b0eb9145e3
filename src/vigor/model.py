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

`GroundingModel.forward_batch` runs a batch as one packed graph: the
proposals of all samples stack into one matrix, all descriptions and order
names share one text-encoder pass, and each attention is confined to its
sample by segment ids, so a sample's outputs equal running it alone
(Krell et al., "Efficient Sequence Packing without Cross-contamination",
arXiv 2107.02027).  `forward` is a batch of one and builds no segment
masks.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import Mapping, Sequence

import numpy as np

from . import tensor as tt
from .errors import ContractError, check_field_types
from .scene import MAX_POINTS_PER_PROPOSAL, ClassVocab, Scene, build_masks, tokenize
from .synthgen import TEMPLATE_WORDS
from .tensor import Tensor

__all__ = [
    "ModelConfig",
    "WordVocab",
    "TextFeatures",
    "HeadOutputs",
    "GroundingModel",
    "tokenize",
    "encode_text",
    "param_layout",
    "encode_objects",
    "fe_forward",
    "sinusoid_positions",
]

UNK_TOKEN = "<unk>"


@dataclass(frozen=True)
class ModelConfig:
    d: int = 32
    b: int = 4  # referring blocks == normalized order length
    n_heads: int = 4
    points_per_proposal: int = 16
    seed: int = 0
    word_vocab_size: int = 0  # finalized when the model is built
    class_vocab_size: int = 0

    def __post_init__(self):
        check_field_types(self)
        if self.n_heads < 1 or self.d < 1 or self.d % self.n_heads != 0:
            raise ContractError("d and n_heads must be positive, and d divisible by n_heads")
        if self.b < 1:
            raise ContractError("need at least one referring block")
        if not 1 <= self.points_per_proposal <= MAX_POINTS_PER_PROPOSAL:
            raise ContractError(f"points_per_proposal must lie in 1..{MAX_POINTS_PER_PROPOSAL}")
        if self.seed < 0:
            raise ContractError(f"seed must be non-negative, got {self.seed}")


@dataclass(frozen=True)
class WordVocab:
    """Token list with <unk> at id 0; unknown words map to <unk>."""

    tokens: tuple[str, ...]

    def __post_init__(self):
        if not self.tokens or self.tokens[0] != UNK_TOKEN:
            raise ContractError(f"token 0 must be {UNK_TOKEN!r}")
        ids = {t: i for i, t in enumerate(self.tokens)}
        if len(ids) != len(self.tokens):
            raise ContractError("word vocabulary repeats a token")
        object.__setattr__(self, "_ids", ids)

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


@dataclass
class TextFeatures:
    """Sentence and word features of S descriptions, plus order-name features.

    `sentences` holds one pooled row per description (description s at row
    s) and `words` the word rows of each description in turn.  `segments`
    names the description of each row of `sentences` followed by `words`,
    the order a block's up-branch query stacks them in.  `order_features`
    holds one pooled row per order name given to `encode_text`, in that
    order.
    """

    sentences: Tensor  # S x d
    words: Tensor  # (sum of token counts) x d
    order_features: Tensor  # one row per order name
    token_counts: tuple[int, ...]  # words per description
    segments: np.ndarray = field(init=False)

    def __post_init__(self):
        if self.sentences.shape[0] != self.samples or self.words.shape[0] != sum(self.token_counts):
            raise ContractError("text needs one sentence row and its word rows per description")
        ids = np.arange(self.samples)
        self.segments = np.concatenate([ids, np.repeat(ids, self.token_counts)])

    @property
    def samples(self) -> int:
        return len(self.token_counts)


@dataclass
class HeadOutputs:
    """The block outputs and masks of a forward, and the heads that read them.

    Each head is built from the block outputs on its first read and cached,
    so a caller builds only the heads it reads.  Read every head a loss
    needs before `backward`: a head first read after it records its ops on
    the next step's tape.

    For a packed batch of S samples the K rows below are the samples'
    proposals stacked in batch order (`segments` names each row's sample),
    and the text head has one row per sample.  Column i (from 0) of a
    per-block matrix belongs to block i and is read from its output
    F_{i+2}; in `coord_pred` block i owns columns 3i .. 3i+2.
    """

    blocks: list[Tensor]  # F_2 .. F_{B+1}, each K x d
    sentences: Tensor  # S x d, a sentence row per sample
    params: Mapping[str, Tensor] = field(repr=False)
    masks: np.ndarray  # K x B of 0/1: M_1 .. M_B
    segments: np.ndarray  # (K,) sample index of each proposal row

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
        """The top-scoring proposal of a batch of one."""
        if self.segments[-1] != 0:
            raise ContractError("predicted_id needs a batch of one sample")
        # argmax returns the first maximum, i.e. ties go to the lowest id
        return int(np.argmax(self.scores.data[:, 0]))


def sinusoid_positions(n: int, d: int) -> np.ndarray:
    pos = np.arange(n, dtype=np.float64)[:, None]
    dim = np.arange(d, dtype=np.float64)[None, :]
    angles = pos / np.power(10000.0, 2.0 * (dim // 2) / d)
    out = np.empty((n, d))
    out[:, 0::2] = np.sin(angles[:, 0::2])
    out[:, 1::2] = np.cos(angles[:, 1::2])
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


def param_layout(cfg: ModelConfig):
    """Yield (name, shape, init) for every parameter, in initialization order.

    `init` is the standard deviation of a zero-mean normal draw, or
    "zeros" / "ones".  Shapes come without allocating anything, so a
    checkpoint's arrays can be checked against an untrusted config.
    """
    d = cfg.d
    yield "emb", (cfg.word_vocab_size, d), d**-0.5
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
    yield from _linear_layout("head.text.2", d, cfg.class_vocab_size)


def _param_shapes(cfg: ModelConfig) -> list[tuple[str, tuple[int, int]]]:
    """(name, shape) of every parameter in `param_layout` order: the layout
    of the one vector a model's parameters are views into."""
    return [(name, shape) for name, shape, _ in param_layout(cfg)]


def init_params(cfg: ModelConfig) -> tt.FlatParams:
    if cfg.word_vocab_size < 1 or cfg.class_vocab_size < 1:
        raise ContractError("vocab sizes must be finalized before initialization")
    rng = np.random.default_rng(cfg.seed)
    layout = list(param_layout(cfg))
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


def _residual_attention(
    p: dict[str, Tensor],
    attn: str,
    ln: str,
    x: Tensor,
    kv: Tensor,
    n_heads: int,
    segments=None,
    key_segments=None,
) -> Tensor:
    """layer_norm(x + attention(x, kv)): the attention sublayer's residual step."""
    q = tt.add(tt.matmul(x, p[f"{attn}.wq"]), p[f"{attn}.bq"])
    k = tt.matmul(kv, p[f"{attn}.wk"])
    v = tt.add(tt.matmul(kv, p[f"{attn}.wv"]), p[f"{attn}.bv"])
    heads = tt.attention(q, k, v, n_heads, segments, key_segments)
    heads = tt.add(tt.matmul(heads, p[f"{attn}.wo"]), p[f"{attn}.bo"])
    return _layer_norm(p, ln, tt.add(x, heads))


def _linear(p: dict[str, Tensor], prefix: str, x: Tensor) -> Tensor:
    return tt.add(tt.matmul(x, p[f"{prefix}.w"]), p[f"{prefix}.b"])


def _mlp2(p: dict[str, Tensor], prefix: str, x: Tensor) -> Tensor:
    return _linear(p, f"{prefix}.2", tt.relu(_linear(p, f"{prefix}.1", x)))


def _encoder_layer(
    p: dict[str, Tensor], prefix: str, x: Tensor, n_heads: int, segments: np.ndarray
) -> Tensor:
    x = _residual_attention(p, f"{prefix}.attn", f"{prefix}.ln1", x, x, n_heads, segments)
    return _layer_norm(p, f"{prefix}.ln2", tt.add(x, _mlp2(p, f"{prefix}.ffn", x)))


def encode_text(
    descriptions: Sequence[Sequence[str]],
    order_names: Sequence[str],
    params: dict[str, Tensor],
    word_vocab: WordVocab,
    cfg: ModelConfig,
) -> TextFeatures:
    """Encode descriptions and order names through one shared encoder.

    `descriptions` holds one token list per sample.  Every description and
    every distinct order name (in first-appearance order) are stacked as
    pieces of one matrix and encoded in one pass: positions restart at 0 in
    each piece and attention never crosses a piece, so each piece encodes
    as it would alone.  One averaging matmul mean-pools every piece, and a
    name repeated within or across samples reads its one pooled row.
    """
    if not descriptions:
        raise ContractError("need at least one description")
    if any(isinstance(tokens, str) for tokens in descriptions):
        raise ContractError("each description must be a token list, not a string")
    s = len(descriptions)
    slot = {name: i for i, name in enumerate(dict.fromkeys(order_names), start=s)}
    pieces = [word_vocab.encode(tokens) for tokens in descriptions]
    if not all(pieces):
        raise ContractError("cannot encode an empty description")
    for name in slot:
        pieces.append(word_vocab.encode(tokenize(name)))
        if not pieces[-1]:
            raise ContractError(f"order name {name!r} has no tokens")
    lengths = [len(ids) for ids in pieces]
    segments = np.repeat(np.arange(len(pieces)), lengths)
    positions = np.concatenate([np.arange(n) for n in lengths])
    x = tt.take_rows(params["emb"], np.concatenate(pieces))
    x = tt.add(x, tt.constant(sinusoid_positions(max(lengths), cfg.d)[positions]))
    for layer in range(2):
        x = _encoder_layer(params, f"txt{layer}", x, cfg.n_heads, segments)
    averaging = np.zeros((len(pieces), segments.size))
    averaging[segments, np.arange(segments.size)] = 1.0 / np.repeat(lengths, lengths)
    pooled = tt.matmul(tt.constant(averaging), x)
    counts = tuple(lengths[:s])
    return TextFeatures(
        sentences=tt.slice_rows(pooled, 0, s),
        words=tt.slice_rows(x, 0, sum(counts)),
        order_features=tt.take_rows(pooled, [slot[name] for name in order_names]),
        token_counts=counts,
    )


def _resample_points(points: np.ndarray, count: int) -> np.ndarray:
    n = points.shape[0]
    if n == count:
        return points
    if n > count:
        idx = np.linspace(0, n - 1, num=count).astype(int)
        return points[idx]
    return np.resize(points, (count, points.shape[1]))


def encode_objects(
    scenes: Sequence[Scene], params: dict[str, Tensor], cfg: ModelConfig
) -> Tensor:
    """F_1: per-proposal point MLP + max-pool, concatenated with a center code.

    The proposals of all scenes stack in order into one K x d matrix; every
    row depends on its own proposal only.
    """
    i_pts = cfg.points_per_proposal
    stacked = np.concatenate(
        [_resample_points(p, i_pts) for scene in scenes for p in scene.points]
    )
    h = tt.relu(_linear(params, "obj.p1", tt.constant(stacked)))
    h = tt.relu(_linear(params, "obj.p2", h))
    pooled = tt.max_rows_per_block(h, i_pts)  # K x d
    centers = np.concatenate([scene.centers for scene in scenes])
    c = tt.relu(_linear(params, "obj.c", tt.constant(centers)))
    return _linear(params, "obj.out", tt.concat(pooled, c, axis=1))


def fe_forward(
    f: Tensor,
    mask: np.ndarray,
    text: TextFeatures,
    params: dict[str, Tensor],
    block: int,
    cfg: ModelConfig,
    segments: np.ndarray,
) -> Tensor:
    """One feature-enhancement step: masked branch, context branch, fusion.

    `mask` holds one 0/1 entry per row of f (this block's column of the
    relevance masks); the masked branch zeroes the rows outside it.  For a
    packed batch of S samples, `segments` names the sample of each
    row of f, and `text.order_features` is block-major: name j of sample s
    sits at row j*S + s, so the suffix from `block` on is one slice.  Every
    attention then stays inside a sample.  One sample needs no ids at all;
    passing none spares each attention its id checks (about 15% of an
    eval forward).
    """
    if not 0 <= block < cfg.b:
        raise ContractError(f"block index {block} outside 0..{cfg.b - 1}")
    n = text.samples
    pre = f"fe{block}"
    n_heads = cfg.n_heads
    f_mask = tt.mul(f, tt.constant(np.reshape(mask, (-1, 1))))
    suffix = tt.slice_rows(text.order_features, block * n, cfg.b * n)
    if n == 1:
        segments = suffix_ids = up_ids = context_ids = None
    else:
        suffix_ids = np.tile(np.arange(n), cfg.b - block)
        up_ids = np.concatenate([suffix_ids, text.segments])
        context_ids = np.concatenate([suffix_ids, up_ids])

    attended = _residual_attention(params, f"{pre}.self", f"{pre}.self_ln", f, f, n_heads, segments)
    lower = _residual_attention(
        params, f"{pre}.low", f"{pre}.low_ln", suffix, f_mask, n_heads, suffix_ids, segments
    )
    up_query = tt.concat(suffix, text.sentences, text.words)
    upper = _residual_attention(
        params, f"{pre}.up", f"{pre}.up_ln", up_query, attended, n_heads, up_ids, segments
    )
    context = tt.concat(lower, upper)
    return _residual_attention(
        params, f"{pre}.fuse", f"{pre}.out_ln", attended, context, n_heads, segments, context_ids
    )


def _finite(f: Tensor, block: int) -> Tensor:
    """F_block itself, once every entry is finite."""
    if not np.isfinite(f.data).all():
        raise ContractError(f"non-finite object features at block {block}")
    return f


# ---------------------------------------------------------------------------
# full model


class GroundingModel:
    """Parameters plus vocabularies; `forward` runs the whole pipeline."""

    def __init__(
        self,
        cfg: ModelConfig,
        class_vocab: ClassVocab,
        word_vocab: WordVocab | None = None,
        params: Mapping[str, np.ndarray] | None = None,
    ):
        word_vocab = word_vocab or WordVocab.build(class_vocab)
        cfg = replace(
            cfg, word_vocab_size=len(word_vocab), class_vocab_size=len(class_vocab)
        )
        self.cfg = cfg
        self.class_vocab = class_vocab
        self.word_vocab = word_vocab
        # A FlatParams in this config's layout is adopted, not copied (a
        # loaded checkpoint's vector); any other mapping is copied into a new
        # vector after its names and shapes are checked.
        if params is None:
            self._params = init_params(cfg)
        elif isinstance(params, tt.FlatParams) and params.layout() == _param_shapes(cfg):
            self._params = params
        else:
            self._params = tt.FlatParams(_param_shapes(cfg))
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

    def trainable(self) -> dict[str, Tensor]:
        """Wrap parameters as traced leaves (one wrap per training step)."""
        return {k: tt.leaf(v) for k, v in self.params.items()}

    def frozen(self) -> Mapping[str, Tensor]:
        """Parameters as constants, wrapped once per vector; reads current values."""
        return self.params.constants()

    def forward(
        self,
        scene: Scene,
        order: Sequence[str],
        description: str,
        params: dict[str, Tensor] | None = None,
        labels: Sequence[int] | None = None,
    ) -> HeadOutputs:
        """One sample: a packed batch of one."""
        return self.forward_batch(
            [scene], [order], [description], params, None if labels is None else [labels]
        )

    def forward_batch(
        self,
        scenes: Sequence[Scene],
        orders: Sequence[Sequence[str]],
        descriptions: Sequence[str],
        params: dict[str, Tensor] | None = None,
        labels: Sequence[Sequence[int]] | None = None,
    ) -> HeadOutputs:
        """Run S samples as one packed graph.

        Proposals stack into one matrix, descriptions and order names go
        through one text-encoder pass, and every attention is confined to
        its sample, so each sample's outputs equal running it alone.
        """
        cfg = self.cfg
        s = len(scenes)
        if s < 1 or len(orders) != s or len(descriptions) != s:
            raise ContractError("need one order and one description per scene, and a scene")
        for order in orders:
            if len(order) != cfg.b:
                raise ContractError(f"order length {len(order)} != configured {cfg.b}")
        p = params if params is not None else self.frozen()
        if labels is None:
            labels = [scene.class_ids for scene in scenes]
        if len(labels) != s or any(len(l) != len(sc) for l, sc in zip(labels, scenes)):
            raise ContractError("one label per proposal required")

        masks = np.concatenate(
            [build_masks(l, order, self.class_vocab) for l, order in zip(labels, orders)]
        )
        tokens = [tokenize(description) for description in descriptions]
        names = [order[j] for j in range(cfg.b) for order in orders]  # block-major
        text = encode_text(tokens, names, p, self.word_vocab, cfg)
        segments = np.repeat(np.arange(s), [len(scene) for scene in scenes])
        features = [_finite(encode_objects(scenes, p, cfg), 1)]  # F_1 .. F_{B+1}
        for i in range(cfg.b):
            nxt = fe_forward(features[-1], masks[:, i], text, p, i, cfg, segments)
            features.append(_finite(nxt, i + 2))
        return HeadOutputs(features[1:], text.sentences, p, masks, segments)
